"""Hybrid encoder: relation-typed graph convolution interleaved with a GRU.

Each of the L blocks computes a heterogeneous GraphSAGE convolution

    h~_u = ReLU( W0 h_u + sum_r sum_{v in N_r(u)} W_r h_v )

followed by dropout, then sweeps a GRU over the notes in id order, which
is (onset, pitch) order (``make_score``), carrying the hidden state from
each note to the next. Layer normalization is applied inside the GRU cell
(on the candidate pre-activation) and between blocks. The block output — the
GRU states, row u for note u — feeds the next block; the last block's output
is the embedding matrix.

The convolution is one tape node, ``autodiff.relational_conv``, over the
graph's single edge list (``src``, ``dst``, ``rel``), grouped once per graph
into ``ScoreGraph.conv_plan``. It aggregates, then transforms: the sources
are summed into each occupied (relation, destination) slot, each relation's
slot sums are multiplied by its W_r and added into their destinations, and
one GEMM gives the self term W0 h_u. With ``aggregation="mean"`` each slot
sum is divided by its edge count, the destination's in-degree within the
relation.

Each sweep is one fused tape node, ``autodiff.gru_sweep``: a plain NumPy
loop forward and backpropagation through time written by hand backward, so
a layer adds the same few tape nodes whatever the note count.

Ablation switches: ``use_gru=False`` drops the recurrence entirely (the
block output is the normalized convolution), and ``gru_on_initial_features``
makes every layer's GRU read the projected input features h^(0) instead of
that layer's convolution output, adding its states to the convolution
before the block norm.

``encode`` takes the model's ``ModelConfig`` (declared in ``model.py``) and
reads ``num_layers``, ``dropout``, ``aggregation``, ``use_gru`` and
``gru_on_initial_features``; ``strict_same_bar_candidates`` acts when the
graph is built. ``model.param_shapes`` declares the ``enc.*`` parameters.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import autodiff as ad
from .autodiff import Value
from .graph import RELATIONS, ScoreGraph
from .rng import Rng

if TYPE_CHECKING:
    from .model import ModelConfig


def encode(graph: ScoreGraph, params: dict[str, Value], config: ModelConfig,
           rng: Rng, train: bool) -> Value:
    """Embed every note; (node_count x hidden_size)."""
    config.validate()
    mean = config.aggregation == "mean"
    # in the parameters' dtype: float32 at inference, float64 otherwise
    features = Value(graph.features.astype(params["enc.proj.W"].data.dtype,
                                           copy=False))
    hidden = ad.linear(features, params["enc.proj.W"], params["enc.proj.b"])
    initial = hidden

    for layer in range(1, config.num_layers + 1):
        pre = f"enc.l{layer}"
        weights = [params[f"{pre}.conv.W0"]]
        weights += [params[f"{pre}.conv.W.{rel}"] for rel in RELATIONS]
        mixed = ad.relational_conv(hidden, weights, graph.conv_plan, mean)
        conv = ad.dropout(ad.relu(mixed), config.dropout, rng, train)
        if config.use_gru:
            source = initial if config.gru_on_initial_features else conv
            gru = f"{pre}.gru"
            wx, wh, bias = ([params[f"{gru}.{kind}{gate}"] for gate in "zrc"]
                            for kind in ("Wx", "Wh", "b"))
            states = ad.gru_sweep(source, wx, wh, bias,
                                  params[f"{gru}.ln.g"], params[f"{gru}.ln.b"])
            block = ad.add(conv, states) if config.gru_on_initial_features else states
        else:
            block = conv
        hidden = ad.layer_norm(block, params[f"{pre}.ln.g"], params[f"{pre}.ln.b"])
    return hidden
