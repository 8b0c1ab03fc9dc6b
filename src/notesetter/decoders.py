"""Output heads over the shared embeddings and the summed multi-task loss.

Eleven heads read the same embedding matrix: nine per-note softmax heads,
one per row of ``notes.NODE_LABELS``, which fixes their order, their widths
and what each class means, and two per-pair sigmoid heads: voice over the
graph's voice-candidate pairs (``ScoreGraph.candidate_pairs``), chord over
all unordered same-onset pairs (``ScoreGraph.chord_pairs``), both built once
with the graph. Every head is a 2-layer MLP: a ReLU hidden layer followed by
a linear output. A pair head's hidden layer reads the concatenation
[h_u; h_w], computed in factored form: since [h_u; h_w]·W1 = h_u·W1[:H] +
h_w·W1[H:], one (notes x 2 hidden) product per piece is gathered per pair
(``autodiff.pair_hidden``, over the graph's ``pair_plans``). The parameters
keep the concatenated shapes (W1 is 2H x hidden), so checkpoints are
unchanged. Pairs are (m, 2) int64 arrays
of note ids, ordered by (u, w); :func:`sigmoid` turns a pair logit into its
probability. The ``dec.*`` parameters, and their shapes from
``HEAD_WIDTHS``, are declared in ``model.param_shapes``.

Each linear layer is one tape node (``autodiff.linear``).

The training objective is the plain (unweighted) sum of all head losses, one
tape node each: categorical cross-entropy averaged over notes for each node
head, against the classes ``notes.labels_to_classes`` reads off the labels,
and binary cross-entropy averaged over pairs for the pair heads. The
targets depend only on a piece's labels and pairs, so :func:`loss_targets`
builds them once per piece, as ``LossTargets``.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Value
from .graph import ScoreGraph, as_pairs, in_edges
from .notes import NODE_HEADS, NODE_LABELS, LabelSet, labels_to_classes
from .optim import NonFiniteLoss

PAIR_HEADS = ("voice", "chord")
HEAD_WIDTHS = {"voice": 1, "chord": 1,
               **{head: len(row) for head, (_, row) in NODE_LABELS.items()}}
# heads decided once per chord during postprocessing, from the members' mean
POOLED_HEADS = ("note_type", "dots", "tuplet", "stem")


def zero_output_layers(params: dict[str, Value]) -> None:
    """Zero every head's output layer (uniform-prediction sanity mode)."""
    for name, p in params.items():
        if name.startswith("dec.") and (".W2" in name or ".b2" in name):
            p.data[...] = 0.0


def _output_layer(hidden: Value, params: dict[str, Value], head: str) -> Value:
    return ad.linear(hidden, params[f"dec.{head}.W2"], params[f"dec.{head}.b2"])


def _head_forward(x: Value, params: dict[str, Value], head: str) -> Value:
    hidden = ad.relu(ad.linear(x, params[f"dec.{head}.W1"],
                               params[f"dec.{head}.b1"]))
    return _output_layer(hidden, params, head)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic function, strictly inside (0, 1) in float64: x is clipped
    to [-500, 36], since exp(500) is finite and above 36 the result rounds
    to exactly 1.0, which no probability in a bundle may be."""
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500, 36)))


def staff_probabilities(staff_logits: np.ndarray) -> np.ndarray:
    """P(lower staff) per note: softmax of the staff logits, column 1."""
    return np.exp(staff_logits - np.logaddexp.reduce(staff_logits, axis=1,
                                                     keepdims=True))[:, 1]


@dataclasses.dataclass
class Predictions:
    """Tape-connected head outputs, input to the loss."""

    note_logits: dict[str, Value]
    voice_pairs: np.ndarray              # (m, 2) int64 (u, w), by (u, w)
    voice_logits: Optional[Value]
    chord_pairs: np.ndarray              # (m, 2) int64 (u, w), u < w
    chord_logits: Optional[Value]

    def __post_init__(self):
        self.voice_pairs = as_pairs(self.voice_pairs)
        self.chord_pairs = as_pairs(self.chord_pairs)

    def bundle(self) -> "PredictionBundle":
        """Float64 arrays, whatever the forward's dtype. The logits are cast
        before the softmax and sigmoid: in float32 the sigmoid of a logit
        near 17 rounds to exactly 1.0, which ``validate`` refuses."""
        def probs(logits):
            return (sigmoid(logits.data[:, 0].astype(np.float64))
                    if logits is not None else np.zeros(0))

        note = {h: v.data.astype(np.float64) for h, v in self.note_logits.items()}
        staff_probs = staff_probabilities(note["staff"])
        voice, chord = probs(self.voice_logits), probs(self.chord_logits)
        return PredictionBundle(note_logits=note, staff_probs=staff_probs,
                                voice_pairs=self.voice_pairs, voice_probs=voice,
                                chord_pairs=self.chord_pairs, chord_probs=chord)


@dataclasses.dataclass
class PredictionBundle:
    """Plain-array predictions: per-note logits and per-pair probabilities.

    The voice pairs are strictly ascending by (u, w), as the score graph
    builds them; ``validate`` refuses any other order, since voice
    assignment reads each pool pair's member pairs in that order.
    """

    note_logits: dict[str, np.ndarray]
    staff_probs: np.ndarray              # P(lower staff) per note
    voice_pairs: np.ndarray              # (m, 2) int64 (u, w), by (u, w)
    voice_probs: np.ndarray              # (m,) P(w follows u in a voice)
    chord_pairs: np.ndarray              # (m, 2) int64 (u, w), u < w
    chord_probs: np.ndarray              # (m,) P(u and w share a chord)

    def __post_init__(self):
        self.voice_pairs = as_pairs(self.voice_pairs)
        self.chord_pairs = as_pairs(self.chord_pairs)

    @property
    def note_count(self) -> int:
        return self.note_logits["staff"].shape[0]

    def staff(self) -> np.ndarray:
        """The predicted staff of every note: 1 (lower) where P >= 0.5."""
        return (self.staff_probs >= 0.5).astype(np.int64)

    def argmax(self, head: str) -> np.ndarray:
        return self.note_logits[head].argmax(axis=1)

    def validate(self) -> None:
        """Raise ValueError on the first fault: a logits matrix of the wrong
        shape or with a non-finite value, pairs and probabilities of unequal
        count, a probability outside (0, 1), a pair id that is not a note
        id, a pair of a note with itself, or voice pairs out of order."""
        n = self.note_count
        for head in NODE_HEADS:
            logits = self.note_logits[head]
            if logits.shape != (n, HEAD_WIDTHS[head]):
                raise ValueError(f"{head} logits shape {logits.shape}")
            if not np.isfinite(logits).all():
                raise ValueError(f"{head} logits are not all finite")
        for name, pairs, probs in (("voice", self.voice_pairs, self.voice_probs),
                                   ("chord", self.chord_pairs, self.chord_probs)):
            if len(pairs) != len(probs):
                raise ValueError(f"{name} pair/probability count mismatch")
            if len(probs) and not ((probs > 0.0) & (probs < 1.0)).all():
                raise ValueError(f"{name} probabilities outside (0,1)")
            if len(pairs) and (pairs.min() < 0 or pairs.max() >= n):
                raise ValueError(f"{name} pairs: an index is not a note id "
                                 f"in [0, {n})")
            if (pairs[:, 0] == pairs[:, 1]).any():
                raise ValueError(f"{name} pairs: a pair joins a note to itself")
        u, w = self.voice_pairs[:, 0], self.voice_pairs[:, 1]
        if not ((u[1:] > u[:-1]) | (u[1:] == u[:-1]) & (w[1:] > w[:-1])).all():
            raise ValueError("voice pairs are not strictly ascending by (u, w)")


def decode_all(embeddings: Value, graph: ScoreGraph,
               params: dict[str, Value]) -> Predictions:
    note_logits = {head: _head_forward(embeddings, params, head)
                   for head in NODE_HEADS}

    def pair_logits(plan, head):
        if not len(plan):
            return None
        hidden = ad.pair_hidden(embeddings, params[f"dec.{head}.W1"],
                                params[f"dec.{head}.b1"], plan)
        return _output_layer(hidden, params, head)

    voice_plan, chord_plan = graph.pair_plans
    return Predictions(note_logits=note_logits,
                       voice_pairs=graph.candidate_pairs,
                       voice_logits=pair_logits(voice_plan, "voice"),
                       chord_pairs=graph.chord_pairs,
                       chord_logits=pair_logits(chord_plan, "chord"))


@dataclasses.dataclass(frozen=True)
class LossTargets:
    """What the heads' losses compare against for one labeled piece: each
    node head's classes, a 0/1 target column for the voice and for the chord
    pairs, and how many true voice edges no voice pair holds. They depend
    only on the labels and the pairs, so a piece's targets are built once."""

    classes: dict[str, np.ndarray]
    voice: np.ndarray                    # (m, 1) float64, per voice pair
    chord: np.ndarray                    # (m, 1) float64, per chord pair
    excluded_voice_edges: int


def loss_targets(labels: LabelSet, voice_pairs, chord_pairs,
                 n: int) -> LossTargets:
    """The targets ``labels`` give a piece of ``n`` notes over its pairs."""
    voice = in_edges(as_pairs(voice_pairs), labels.voice_edges, n)
    chord = in_edges(as_pairs(chord_pairs), labels.chord_edges, n)
    return LossTargets(classes=labels_to_classes(labels, n),
                       voice=voice.reshape(-1, 1).astype(np.float64),
                       chord=chord.reshape(-1, 1).astype(np.float64),
                       excluded_voice_edges=len(labels.voice_edges)
                       - int(voice.sum()))


@dataclasses.dataclass
class LossResult:
    total: Value
    per_head: dict[str, float]
    excluded_voice_edges: int


def total_loss(preds: Predictions, targets: LossTargets) -> LossResult:
    """Unweighted sum of per-head mean losses; finite by construction."""
    per_head: dict[str, float] = {}
    total: Optional[Value] = None

    def accumulate(term: Value, head: str) -> None:
        nonlocal total
        per_head[head] = term.item()
        total = term if total is None else ad.add(total, term)

    for head in NODE_HEADS:
        accumulate(ad.cross_entropy(preds.note_logits[head],
                                    targets.classes[head]), head)
    if preds.voice_logits is not None:
        accumulate(ad.bce_with_logits(preds.voice_logits, targets.voice),
                   "voice")
    if preds.chord_logits is not None:
        accumulate(ad.bce_with_logits(preds.chord_logits, targets.chord),
                   "chord")

    if not np.isfinite(total.item()):
        raise NonFiniteLoss("total loss is not finite")
    return LossResult(total=total, per_head=per_head,
                      excluded_voice_edges=targets.excluded_voice_edges)
