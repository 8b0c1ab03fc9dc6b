"""Evaluation metrics: per-note accuracies and pairwise F1 scores.

Voice F1 is computed homophonically: ground-truth chords are collapsed to
single units (on both sides) and successor pairs are compared between units.
A unit pair counts as predicted if any of its member note pairs is predicted.
Chord F1 compares raw same-onset note pairs. Empty-set conventions: when both
the predicted and reference sets are empty the score is 1.0; when exactly one
is empty it is 0.0.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from .decoders import NODE_HEADS, labels_to_classes
from .graph import as_pairs, components
from .notes import LabelSet, Score


class LengthMismatch(ValueError):
    pass


ACCURACY_HEADS = NODE_HEADS + ("joint_duration",)
_JOINT_PARTS = ("note_type", "dots", "tuplet")


def collapse_units(n: int, chord_edges) -> list[int]:
    """Map each note id to its ground-truth chord unit (root = smallest id)."""
    return components(n, as_pairs(list(chord_edges))).tolist()


def _lift(pairs, unit_of) -> set:
    lifted = set()
    for u, w in pairs:
        a, b = unit_of[u], unit_of[w]
        if a != b:
            lifted.add((a, b))
    return lifted


def voice_pair_sets(bundle, labels: LabelSet, n: int,
                    threshold: float) -> tuple[set, set]:
    """(predicted, gold) successor pairs over collapsed chord units."""
    unit_of = collapse_units(n, labels.chord_edges)
    predicted = bundle.voice_pairs[bundle.voice_probs >= threshold].tolist()
    return _lift(predicted, unit_of), _lift(labels.voice_edges, unit_of)


def chord_pair_sets(bundle, labels: LabelSet,
                    threshold: float) -> tuple[set, set]:
    accepted = bundle.chord_pairs[bundle.chord_probs >= threshold]
    predicted = set(map(tuple, np.sort(accepted, axis=1).tolist()))
    return predicted, set(labels.chord_edges)


@dataclasses.dataclass
class PieceMetrics:
    name: str
    note_count: int
    # head -> (correct, total); totals are note counts
    accuracy_counts: dict
    # kind -> (|pred & gold|, |pred|, |gold|)
    voice_counts: tuple[int, int, int]
    chord_counts: tuple[int, int, int]

    def accuracy(self, head: str) -> float:
        correct, total = self.accuracy_counts[head]
        return correct / total if total else 1.0

    @property
    def voice_f1(self) -> float:
        return _counts_f1(self.voice_counts)[2]

    @property
    def chord_f1(self) -> float:
        return _counts_f1(self.chord_counts)[2]


def _counts_f1(counts: tuple[int, int, int]) -> tuple[float, float, float]:
    hit, n_pred, n_gold = counts
    if n_pred == 0 and n_gold == 0:
        return (1.0, 1.0, 1.0)
    if n_pred == 0 or n_gold == 0:
        return (0.0, 0.0, 0.0)
    precision, recall = hit / n_pred, hit / n_gold
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return (precision, recall, f1)


def evaluate_bundle(bundle, score: Score, threshold: float) -> PieceMetrics:
    """Score one prediction bundle against the piece's labels."""
    labels = score.labels
    if labels is None:
        raise ValueError(f"score {score.name!r} carries no labels")
    n = len(score.onset)
    if bundle.note_count != n:
        raise LengthMismatch(
            f"bundle has {bundle.note_count} notes, score has {n}")

    classes = labels_to_classes(labels, n)
    counts: dict[str, tuple[int, int]] = {}
    joint_ok = np.ones(n, dtype=bool)
    for head in NODE_HEADS:
        pred = bundle.staff() if head == "staff" else bundle.argmax(head)
        ok = pred == classes[head]
        counts[head] = (int(ok.sum()), n)
        if head in _JOINT_PARTS:
            joint_ok &= ok
    counts["joint_duration"] = (int(joint_ok.sum()), n)

    pred_v, gold_v = voice_pair_sets(bundle, labels, n, threshold)
    pred_c, gold_c = chord_pair_sets(bundle, labels, threshold)
    return PieceMetrics(
        name=score.name, note_count=n, accuracy_counts=counts,
        voice_counts=(len(pred_v & gold_v), len(pred_v), len(gold_v)),
        chord_counts=(len(pred_c & gold_c), len(pred_c), len(gold_c)))


@dataclasses.dataclass
class EvalReport:
    pieces: list

    def micro_accuracy(self, head: str) -> float:
        correct = sum(p.accuracy_counts[head][0] for p in self.pieces)
        total = sum(p.accuracy_counts[head][1] for p in self.pieces)
        return correct / total if total else 1.0

    def micro_f1(self, kind: str) -> tuple[float, float, float]:
        triples = [getattr(p, f"{kind}_counts") for p in self.pieces]
        summed = tuple(sum(t[k] for t in triples) for k in range(3))
        return _counts_f1(summed)

    def to_json(self) -> str:
        payload = {
            "pieces": [
                {
                    "name": p.name,
                    "notes": p.note_count,
                    "accuracy": {h: p.accuracy(h) for h in ACCURACY_HEADS},
                    "voice_f1": p.voice_f1,
                    "chord_f1": p.chord_f1,
                }
                for p in self.pieces
            ],
            "micro": {
                "accuracy": {h: self.micro_accuracy(h) for h in ACCURACY_HEADS},
                "voice_f1": self.micro_f1("voice")[2],
                "chord_f1": self.micro_f1("chord")[2],
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def table(self) -> str:
        """Fixed-width console table, one row per piece plus a micro row."""
        heads = list(ACCURACY_HEADS)
        name_w = max([len("piece"), len("micro")]
                     + [len(p.name) for p in self.pieces])
        header = (f"{'piece':<{name_w}}  "
                  + "  ".join(f"{h:>12}" for h in heads)
                  + f"  {'voice_f1':>9}  {'chord_f1':>9}")
        lines = [header, "-" * len(header)]
        for p in self.pieces:
            lines.append(
                f"{p.name:<{name_w}}  "
                + "  ".join(f"{p.accuracy(h):>12.4f}" for h in heads)
                + f"  {p.voice_f1:>9.4f}  {p.chord_f1:>9.4f}")
        lines.append(
            f"{'micro':<{name_w}}  "
            + "  ".join(f"{self.micro_accuracy(h):>12.4f}" for h in heads)
            + f"  {self.micro_f1('voice')[2]:>9.4f}"
            + f"  {self.micro_f1('chord')[2]:>9.4f}")
        return "\n".join(lines)
