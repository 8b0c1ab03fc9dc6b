"""Output heads over the shared embeddings and the summed multi-task loss.

Eleven heads read the same embedding matrix: nine per-note softmax heads
(staff, spelling, key, stem, octave shift, clef, note type, dots, tuplet)
and two per-pair sigmoid heads (voice over the voice-candidate pairs, chord over
all unordered same-onset pairs). Every head is a 2-layer MLP: a ReLU hidden
layer followed by a linear output. A pair head's hidden layer reads the
concatenation [h_u; h_w], computed in factored form: since
[h_u; h_w]·W1 = h_u·W1[:H] + h_w·W1[H:], one (notes x 2 hidden) product per
piece is gathered per pair (``autodiff.pair_hidden``). The parameters keep
the concatenated shapes (W1 is 2H x hidden), so checkpoints are unchanged.
Pairs are (m, 2) int64 arrays of note ids, ordered by (u, w).

The training objective is the plain (unweighted) sum of all head losses:
categorical cross-entropy averaged over notes for each node head, binary
cross-entropy averaged over pairs for the pair heads.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Value
from .graph import ScoreGraph, as_pairs, chord_candidate_pairs, in_edges
from .notes import (LabelSet, N_KEY_CLASSES, N_SPELLING, key_class,
                    tuplet_class)
from .rng import Rng

NODE_HEADS = ("staff", "spelling", "key", "stem", "octave_shift", "clef",
              "note_type", "dots", "tuplet")
PAIR_HEADS = ("voice", "chord")
HEAD_WIDTHS = {
    "voice": 1, "chord": 1,
    "staff": 2, "spelling": N_SPELLING, "key": N_KEY_CLASSES, "stem": 3,
    "octave_shift": 4, "clef": 3, "note_type": 8, "dots": 4, "tuplet": 3,
}
# heads decided once per chord during postprocessing, from the members' mean
POOLED_HEADS = ("note_type", "dots", "tuplet", "stem")


class LabelOutOfRange(ValueError):
    pass


def init_decoder_params(hidden_size: int, rng: Rng) -> dict[str, Value]:
    """Fresh head parameters; creation order is fixed for determinism."""
    params: dict[str, Value] = {}
    for head in NODE_HEADS + PAIR_HEADS:
        fan_in = 2 * hidden_size if head in PAIR_HEADS else hidden_size
        width = HEAD_WIDTHS[head]
        params[f"dec.{head}.W1"] = Value(rng.normal(fan_in, hidden_size)
                                         * math.sqrt(1.0 / fan_in))
        params[f"dec.{head}.b1"] = Value(np.zeros((1, hidden_size)))
        params[f"dec.{head}.W2"] = Value(rng.normal(hidden_size, width)
                                         * math.sqrt(1.0 / hidden_size))
        params[f"dec.{head}.b2"] = Value(np.zeros((1, width)))
    return params


def zero_output_layers(params: dict[str, Value]) -> None:
    """Zero every head's output layer (uniform-prediction sanity mode)."""
    for name, p in params.items():
        if name.startswith("dec.") and (".W2" in name or ".b2" in name):
            p.data[...] = 0.0


def _output_layer(hidden: Value, params: dict[str, Value], head: str) -> Value:
    return ad.add(ad.matmul(hidden, params[f"dec.{head}.W2"]),
                  params[f"dec.{head}.b2"])


def _head_forward(x: Value, params: dict[str, Value], head: str) -> Value:
    hidden = ad.relu(ad.add(ad.matmul(x, params[f"dec.{head}.W1"]),
                            params[f"dec.{head}.b1"]))
    return _output_layer(hidden, params, head)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500, 500)))


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
        note = {h: np.array(v.data) for h, v in self.note_logits.items()}
        staff_probs = staff_probabilities(note["staff"])
        voice = (_stable_sigmoid(self.voice_logits.data[:, 0])
                 if self.voice_logits is not None else np.zeros(0))
        chord = (_stable_sigmoid(self.chord_logits.data[:, 0])
                 if self.chord_logits is not None else np.zeros(0))
        return PredictionBundle(note_logits=note, staff_probs=staff_probs,
                                voice_pairs=self.voice_pairs, voice_probs=voice,
                                chord_pairs=self.chord_pairs, chord_probs=chord)


@dataclasses.dataclass
class PredictionBundle:
    """Plain-array predictions: per-note logits and per-pair probabilities."""

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


def decode_all(embeddings: Value, graph: ScoreGraph,
               params: dict[str, Value]) -> Predictions:
    note_logits = {head: _head_forward(embeddings, params, head)
                   for head in NODE_HEADS}

    def pair_logits(pairs, head):
        if not len(pairs):
            return None
        hidden = ad.pair_hidden(embeddings, params[f"dec.{head}.W1"],
                                params[f"dec.{head}.b1"],
                                pairs[:, 0], pairs[:, 1])
        return _output_layer(hidden, params, head)

    voice_pairs = graph.candidate_pairs
    chord_pairs = chord_candidate_pairs(graph)
    return Predictions(note_logits=note_logits,
                       voice_pairs=voice_pairs,
                       voice_logits=pair_logits(voice_pairs, "voice"),
                       chord_pairs=chord_pairs,
                       chord_logits=pair_logits(chord_pairs, "chord"))


def labels_to_classes(labels: LabelSet, n: int) -> dict[str, np.ndarray]:
    """Per-head class-index vectors from a LabelSet, range-checked."""
    try:
        classes = {
            "staff": np.array(labels.staff, dtype=np.int64),
            "spelling": np.array(labels.spelling, dtype=np.int64),
            "key": np.array([key_class(f) for f in labels.key_fifths],
                            dtype=np.int64),
            "stem": np.array(labels.stem, dtype=np.int64),
            "octave_shift": np.array(labels.octave_shift, dtype=np.int64),
            "clef": np.array(labels.clef, dtype=np.int64),
            "note_type": np.array(labels.note_type, dtype=np.int64),
            "dots": np.array(labels.dots, dtype=np.int64),
            "tuplet": np.array([tuplet_class(t) for t in labels.tuplet],
                               dtype=np.int64),
        }
    except ValueError as exc:
        raise LabelOutOfRange(str(exc)) from exc
    for head, vec in classes.items():
        if len(vec) != n:
            raise LabelOutOfRange(f"{head}: {len(vec)} labels for {n} notes")
        if len(vec) and (vec.min() < 0 or vec.max() >= HEAD_WIDTHS[head]):
            raise LabelOutOfRange(f"{head}: class outside [0, {HEAD_WIDTHS[head]})")
    return classes


@dataclasses.dataclass
class LossResult:
    total: Value
    per_head: dict[str, float]
    excluded_voice_edges: int


def total_loss(preds: Predictions, labels: LabelSet, n: int) -> LossResult:
    """Unweighted sum of per-head mean losses; finite by construction."""
    classes = labels_to_classes(labels, n)
    per_head: dict[str, float] = {}
    total: Optional[Value] = None

    def accumulate(term: Value, head: str) -> None:
        nonlocal total
        per_head[head] = term.item()
        total = term if total is None else ad.add(total, term)

    for head in NODE_HEADS:
        logp = ad.log_softmax_rows(preds.note_logits[head])
        picked = ad.take_per_row(logp, classes[head])
        accumulate(ad.affine(ad.mean_all(picked), -1.0), head)

    def bce(logits: Value, targets: np.ndarray) -> Value:
        y = Value(targets.reshape(-1, 1))
        return ad.mean_all(ad.sub(ad.softplus(logits), ad.mul(logits, y)))

    excluded = len(labels.voice_edges)
    if preds.voice_logits is not None:
        y = in_edges(preds.voice_pairs, labels.voice_edges, n)
        excluded -= int(y.sum())
        accumulate(bce(preds.voice_logits, y.astype(np.float64)), "voice")
    if preds.chord_logits is not None:
        y = in_edges(preds.chord_pairs, labels.chord_edges, n)
        accumulate(bce(preds.chord_logits, y.astype(np.float64)), "chord")

    if not np.isfinite(total.item()):
        from .optim import NonFiniteLoss
        raise NonFiniteLoss("total loss is not finite")
    return LossResult(total=total, per_head=per_head, excluded_voice_edges=excluded)
