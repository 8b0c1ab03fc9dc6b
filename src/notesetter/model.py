"""Full model: graph encoder plus prediction heads, with one loss per piece.

Every parameter is declared once, in :func:`param_shapes`. ``init_params``
draws a fresh model from that table; the CLI loads checkpoints into it.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

import numpy as np

from .autodiff import Value, no_grad
from .decoders import (HEAD_WIDTHS, PAIR_HEADS, LossResult, LossTargets,
                       Predictions, PredictionBundle, decode_all, loss_targets,
                       total_loss)
from .encoder import encode
from .graph import RELATIONS, ScoreGraph, build_graph
from .notes import N_FEATURES, NODE_HEADS, Score
from .rng import Rng

# the keys a checkpoint must match, and exactly what the config hash covers:
# hidden_size and num_layers set the parameter shapes (``param_shapes``);
# the other three name the forward pass the parameters were trained for
MODEL_SHAPE_KEYS = ("hidden_size", "num_layers", "aggregation", "use_gru",
                    "gru_on_initial_features")


@dataclasses.dataclass
class ModelConfig:
    """The encoder's and the score graph's settings."""

    hidden_size: int = 256
    num_layers: int = 3
    dropout: float = 0.5
    aggregation: str = "sum"          # "sum" (paper) or "mean" (ablation)
    use_gru: bool = True
    gru_on_initial_features: bool = False
    strict_same_bar_candidates: bool = False

    @property
    def cross_bar(self) -> bool:
        return not self.strict_same_bar_candidates

    def validate(self) -> None:
        if self.hidden_size < 1:
            raise ValueError("hidden_size must be >= 1")
        if self.num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.aggregation not in ("sum", "mean"):
            raise ValueError(f"unknown aggregation {self.aggregation!r}")

    def shape_dict(self) -> dict:
        return {k: getattr(self, k) for k in MODEL_SHAPE_KEYS}


def param_shapes(config: ModelConfig) -> list[tuple[str, tuple, str]]:
    """(name, shape, initializer) of every parameter, in creation order: the
    encoder (``encoder.encode`` reads it), then each head of ``NODE_HEADS +
    PAIR_HEADS`` (``decoders.decode_all``). Initializers are "normal"
    (N(0, 1/rows) entries), "zeros" (biases, norm shifts) and "ones" (norm
    gains). Every block has its GRU tensors, whether or not ``use_gru``."""
    config.validate()
    h = config.hidden_size
    table = [("enc.proj.W", (N_FEATURES, h), "normal"),
             ("enc.proj.b", (1, h), "zeros")]
    for layer in range(1, config.num_layers + 1):
        pre = f"enc.l{layer}"
        table.append((f"{pre}.conv.W0", (h, h), "normal"))
        table += [(f"{pre}.conv.W.{rel}", (h, h), "normal")
                  for rel in RELATIONS]
        for gate in ("z", "r", "c"):
            table += [(f"{pre}.gru.Wx{gate}", (h, h), "normal"),
                      (f"{pre}.gru.Wh{gate}", (h, h), "normal"),
                      (f"{pre}.gru.b{gate}", (1, h), "zeros")]
        for norm in ("gru.ln", "ln"):
            table += [(f"{pre}.{norm}.g", (1, h), "ones"),
                      (f"{pre}.{norm}.b", (1, h), "zeros")]
    for head in NODE_HEADS + PAIR_HEADS:
        fan_in, width = (2 * h if head in PAIR_HEADS else h), HEAD_WIDTHS[head]
        table += [(f"dec.{head}.W1", (fan_in, h), "normal"),
                  (f"dec.{head}.b1", (1, h), "zeros"),
                  (f"dec.{head}.W2", (h, width), "normal"),
                  (f"dec.{head}.b2", (1, width), "zeros")]
    return table


def init_params(config: ModelConfig, rng: Rng) -> dict[str, Value]:
    """All trainable parameters, drawn in ``param_shapes`` order."""
    params = {}
    for name, (rows, cols), init in param_shapes(config):
        if init == "normal":
            data = rng.normal(rows, cols) * math.sqrt(1.0 / rows)
        else:
            data = np.full((rows, cols), 1.0 if init == "ones" else 0.0)
        params[name] = Value(data)
    return params


def forward(graph: ScoreGraph, params: dict[str, Value], config: ModelConfig,
            rng: Optional[Rng] = None, train: bool = False) -> Predictions:
    embeddings = encode(graph, params, config, rng=rng, train=train)
    return decode_all(embeddings, graph, params)


def graph_for(score: Score, config: ModelConfig) -> ScoreGraph:
    return build_graph(score, cross_bar=config.cross_bar)


def targets_for(score: Score, graph: ScoreGraph) -> LossTargets:
    """The loss targets of a labeled score over its graph's pairs."""
    if score.labels is None:
        raise ValueError(f"score {score.name!r} carries no labels")
    return loss_targets(score.labels, graph.candidate_pairs, graph.chord_pairs,
                        len(score.onset))


def loss_for_score(score: Score, graph: ScoreGraph, params: dict[str, Value],
                   config: ModelConfig, rng: Optional[Rng] = None,
                   train: bool = True,
                   targets: Optional[LossTargets] = None) -> LossResult:
    """The summed loss of one piece. ``targets`` are ``targets_for(score,
    graph)``, built here when not given; training builds them once per
    piece and passes them at every step."""
    if targets is None:
        targets = targets_for(score, graph)
    preds = forward(graph, params, config, rng=rng, train=train)
    return total_loss(preds, targets)


def predict_bundle(score: Score, params: dict[str, Value],
                   config: ModelConfig) -> PredictionBundle:
    """Deterministic inference: eval mode (no dropout), numpy bundle out.

    The forward runs in float32. Float32 parameters, as the CLI loads them,
    are used without a copy; float64 ones, as training holds them, are cast
    to a float32 copy for the call. The bundle casts the logits back to
    float64 before the softmax and sigmoid, so its arrays are float64, as
    the dump format stores them. The caller's ``params`` are not changed.
    """
    graph = graph_for(score, config)
    with no_grad():
        params32 = {name: Value(p.data.astype(np.float32, copy=False))
                    for name, p in params.items()}
        preds = forward(graph, params32, config, rng=None, train=False)
    return preds.bundle()
