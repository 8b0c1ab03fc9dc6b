"""Tests for evaluation metrics against brute-force counting oracles."""

import json

import numpy as np
import pytest

from notesetter.decoders import HEAD_WIDTHS, NODE_HEADS, PredictionBundle
from notesetter.graph import build_graph
from notesetter.metrics import (
    ACCURACY_HEADS,
    EvalReport,
    LengthMismatch,
    PieceMetrics,
    chord_pair_sets,
    collapse_units,
    evaluate_bundle,
    voice_pair_sets,
    _counts_f1,
)
from notesetter.notes import LabelSet, make_score
from notesetter.postprocess import perfect_bundle
from notesetter.synth import random_bundle, random_score


# --- helpers ---


def full_labels(n, voice_edges=(), chord_edges=(), **overrides):
    base = dict(
        staff=(0,) * n, spelling=(12,) * n, key_fifths=(0,) * n,
        stem=(0,) * n, octave_shift=(0,) * n, clef=(0,) * n,
        note_type=(3,) * n, dots=(0,) * n, tuplet=(1,) * n)
    base.update(overrides)
    return LabelSet(voice_edges=frozenset(voice_edges),
                    chord_edges=frozenset(chord_edges), **base)


def labelled_score(n, labels):
    return make_score(divisions=2, time_signatures=[(0, 4, 4)],
                      note_specs=[(2 * i, 2, 60 + i) for i in range(n)],
                      labels=labels, name="hand")


def manual_bundle(n, classes=None, staff_probs=None, voice=(), chord=()):
    """Build a bundle with one-hot logits for the given class choices."""
    classes = classes or {}
    logits = {}
    for head in NODE_HEADS:
        block = np.zeros((n, HEAD_WIDTHS[head]))
        for i, cls in enumerate(classes.get(head, [0] * n)):
            block[i, cls] = 5.0
        logits[head] = block
    voice = list(voice)
    chord = list(chord)
    return PredictionBundle(
        note_logits=logits,
        staff_probs=(np.asarray(staff_probs, dtype=float)
                     if staff_probs is not None else np.full(n, 0.1)),
        voice_pairs=tuple(pair for pair, _ in voice),
        voice_probs=np.array([p for _, p in voice], dtype=float),
        chord_pairs=tuple(pair for pair, _ in chord),
        chord_probs=np.array([p for _, p in chord], dtype=float),
    )


# --- unit collapse and pair lifting ---


def test_collapse_units_hand_case():
    # [DERIVED] union of (0,1),(1,2) merges 0..2 under root 0; (3,4) under 3.
    assert collapse_units(5, {(0, 1), (1, 2), (3, 4)}) == [0, 0, 0, 3, 3]


def test_collapse_units_empty_is_identity():
    assert collapse_units(4, set()) == [0, 1, 2, 3]


def test_collapse_units_transitive_chain():
    assert collapse_units(4, {(2, 3), (1, 2), (0, 1)}) == [0, 0, 0, 0]


def test_voice_pair_sets_lift_and_threshold():
    # Notes 0,1 form a gold chord; gold voice edge (1, 2) lifts to (0, 2).
    labels = full_labels(3, voice_edges={(1, 2)}, chord_edges={(0, 1)})
    bundle = manual_bundle(
        3, voice=[((0, 2), 0.9), ((0, 1), 0.95), ((1, 2), 0.2)])
    pred, gold = voice_pair_sets(bundle, labels, 3, 0.5)
    # (0,1) is inside one unit -> dropped; (1,2) below threshold -> dropped.
    assert pred == {(0, 2)}
    assert gold == {(0, 2)}


def test_voice_pair_sets_honors_threshold_argument():
    labels = full_labels(2, voice_edges={(0, 1)})
    bundle = manual_bundle(2, voice=[((0, 1), 0.4)])
    pred_half, _ = voice_pair_sets(bundle, labels, 2, threshold=0.5)
    pred_low, _ = voice_pair_sets(bundle, labels, 2, threshold=0.3)
    assert pred_half == set()
    assert pred_low == {(0, 1)}


def test_chord_pair_sets_sorts_pairs():
    labels = full_labels(3, chord_edges={(0, 1)})
    bundle = manual_bundle(3, chord=[((1, 0), 0.8), ((2, 1), 0.1)])
    pred, gold = chord_pair_sets(bundle, labels, 0.5)
    assert pred == {(0, 1)}
    assert gold == {(0, 1)}


# --- F1 conventions ---


def test_counts_f1_hand_value():
    # [DERIVED] hit=2, |pred|=4, |gold|=3: p=0.5, r=2/3, f1=2pr/(p+r)=4/7.
    precision, recall, f1 = _counts_f1((2, 4, 3))
    assert precision == 0.5
    assert recall == pytest.approx(2 / 3)
    assert f1 == pytest.approx(4 / 7)


def test_counts_f1_empty_conventions():
    assert _counts_f1((0, 0, 0)) == (1.0, 1.0, 1.0)
    assert _counts_f1((0, 5, 0)) == (0.0, 0.0, 0.0)
    assert _counts_f1((0, 0, 5)) == (0.0, 0.0, 0.0)


def test_counts_f1_zero_hits_nonempty():
    assert _counts_f1((0, 3, 2)) == (0.0, 0.0, 0.0)


# --- evaluate_bundle ---


def test_evaluate_bundle_perfect_on_fixture(fixture_a):
    score = fixture_a.score
    metrics = evaluate_bundle(perfect_bundle(score), score, 0.5)
    for head in ACCURACY_HEADS:
        assert metrics.accuracy(head) == 1.0, head
    assert metrics.voice_f1 == 1.0
    assert metrics.chord_f1 == 1.0
    assert metrics.note_count == 24
    assert metrics.name == "fixture_a"


def test_evaluate_bundle_staff_uses_probability():
    # Gold staff all 0, staff_probs >= 0.5 predicts staff 1 -> accuracy 0.
    labels = full_labels(2)
    score = labelled_score(2, labels)
    bundle = manual_bundle(2, staff_probs=[0.9, 0.5])
    metrics = evaluate_bundle(bundle, score, 0.5)
    assert metrics.accuracy_counts["staff"] == (0, 2)
    bundle2 = manual_bundle(2, staff_probs=[0.4, 0.49])
    assert evaluate_bundle(bundle2, score, 0.5).accuracy_counts["staff"] == (2, 2)


def test_evaluate_bundle_joint_duration():
    # Note 0: all three duration heads right. Note 1: dots wrong.
    # Note 2: type wrong. joint_duration = 1/3.
    labels = full_labels(3, note_type=(3, 3, 2), dots=(0, 1, 0),
                         tuplet=(1, 1, 1))
    score = labelled_score(3, labels)
    bundle = manual_bundle(
        3,
        classes={"note_type": [3, 3, 3], "dots": [0, 0, 0],
                 "tuplet": [0, 0, 0]},
        staff_probs=[0.1, 0.1, 0.1])
    metrics = evaluate_bundle(bundle, score, 0.5)
    assert metrics.accuracy_counts["note_type"] == (2, 3)
    assert metrics.accuracy_counts["dots"] == (2, 3)
    assert metrics.accuracy_counts["tuplet"] == (3, 3)
    assert metrics.accuracy_counts["joint_duration"] == (1, 3)


def test_evaluate_bundle_key_offset():
    # Gold fifths -1 -> class 6; a bundle predicting class 6 is correct.
    labels = full_labels(2, key_fifths=(-1, -1))
    score = labelled_score(2, labels)
    bundle = manual_bundle(2, classes={"key": [6, 7]},
                           staff_probs=[0.1, 0.1])
    assert evaluate_bundle(bundle, score, 0.5).accuracy_counts["key"] == (1, 2)


def test_evaluate_bundle_tuplet_class_mapping():
    labels = full_labels(3, tuplet=(1, 3, 5))
    score = labelled_score(3, labels)
    bundle = manual_bundle(3, classes={"tuplet": [0, 1, 2]},
                           staff_probs=[0.1] * 3)
    assert evaluate_bundle(bundle, score, 0.5).accuracy_counts["tuplet"] == (3, 3)


def test_evaluate_bundle_voice_counts():
    labels = full_labels(4, voice_edges={(0, 1), (1, 2)})
    score = labelled_score(4, labels)
    bundle = manual_bundle(
        4, voice=[((0, 1), 0.9), ((2, 3), 0.8)], staff_probs=[0.1] * 4)
    metrics = evaluate_bundle(bundle, score, 0.5)
    assert metrics.voice_counts == (1, 2, 2)
    # [DERIVED] p = r = 1/2 -> f1 = 1/2.
    assert metrics.voice_f1 == pytest.approx(0.5)


def test_evaluate_bundle_length_mismatch():
    labels = full_labels(3)
    score = labelled_score(3, labels)
    with pytest.raises(LengthMismatch):
        evaluate_bundle(manual_bundle(2), score, 0.5)


def test_evaluate_bundle_requires_labels():
    score = make_score(divisions=2, time_signatures=[(0, 4, 4)],
                       note_specs=[(0, 2, 60)])
    with pytest.raises(ValueError, match="labels"):
        evaluate_bundle(manual_bundle(1), score, 0.5)


# --- brute-force oracle comparison on random scores ---

_HEAD_TO_LABEL = {
    "staff": "staff", "spelling": "spelling", "stem": "stem",
    "octave_shift": "octave_shift", "clef": "clef",
    "note_type": "note_type", "dots": "dots",
}
_TUPLET_CLASS = {1: 0, 3: 1, 5: 2}


def brute_gold_class(labels, head, i):
    if head == "key":
        return labels.key_fifths[i] + 7
    if head == "tuplet":
        return _TUPLET_CLASS[labels.tuplet[i]]
    return getattr(labels, _HEAD_TO_LABEL[head])[i]


def brute_units(n, chord_edges):
    unit = list(range(n))
    changed = True
    while changed:
        changed = False
        for u, w in chord_edges:
            low = min(unit[u], unit[w])
            if unit[u] != low or unit[w] != low:
                unit[u] = unit[w] = low
                changed = True
    return unit


def brute_metrics(bundle, score, threshold=0.5):
    """Straight-line counting, written independently of metrics.py."""
    labels = score.labels
    n = len(score.notes)
    acc = {}
    for head in NODE_HEADS:
        correct = 0
        for i in range(n):
            if head == "staff":
                pred = 1 if bundle.staff_probs[i] >= 0.5 else 0
            else:
                row = bundle.note_logits[head][i]
                pred = max(range(len(row)), key=lambda k: row[k])
            if pred == brute_gold_class(labels, head, i):
                correct += 1
        acc[head] = (correct, n)
    joint = 0
    for i in range(n):
        ok = True
        for head in ("note_type", "dots", "tuplet"):
            row = bundle.note_logits[head][i]
            pred = max(range(len(row)), key=lambda k: row[k])
            ok = ok and pred == brute_gold_class(labels, head, i)
        joint += ok
    acc["joint_duration"] = (joint, n)

    unit = brute_units(n, labels.chord_edges)
    pred_v = set()
    for (u, w), p in zip(bundle.voice_pairs, bundle.voice_probs):
        if p >= threshold and unit[u] != unit[w]:
            pred_v.add((unit[u], unit[w]))
    gold_v = {(unit[u], unit[w]) for u, w in labels.voice_edges
              if unit[u] != unit[w]}
    pred_c = {tuple(sorted(pair))
              for pair, p in zip(bundle.chord_pairs, bundle.chord_probs)
              if p >= threshold}
    gold_c = set(labels.chord_edges)

    def f1(pred, gold):
        if not pred and not gold:
            return 1.0
        if not pred or not gold:
            return 0.0
        hit = len(pred & gold)
        precision = hit / len(pred)
        recall = hit / len(gold)
        if precision + recall == 0:
            return 0.0
        return 2 * precision * recall / (precision + recall)

    return acc, f1(pred_v, gold_v), f1(pred_c, gold_c)


@pytest.mark.parametrize("seed", range(12))
def test_evaluate_bundle_matches_brute_force(seed):
    score = random_score(seed, n_notes=10 + seed % 5)
    graph = build_graph(score)
    bundle = random_bundle(graph, seed + 1000)
    metrics = evaluate_bundle(bundle, score, 0.5)
    acc, voice_f1, chord_f1 = brute_metrics(bundle, score)
    for head in ACCURACY_HEADS:
        assert metrics.accuracy_counts[head] == acc[head], head
    assert metrics.voice_f1 == voice_f1
    assert metrics.chord_f1 == chord_f1


# --- EvalReport aggregation ---


def piece(name, correct, total, voice=(1, 2, 2), chord=(0, 0, 0)):
    counts = {h: (correct, total) for h in ACCURACY_HEADS}
    return PieceMetrics(name=name, note_count=total, accuracy_counts=counts,
                        voice_counts=voice, chord_counts=chord)


def test_micro_accuracy_pools_counts():
    report = EvalReport(pieces=[piece("a", 3, 4), piece("b", 1, 6)])
    # [DERIVED] micro = (3 + 1) / (4 + 6) = 0.4, not the mean of 0.75, 1/6.
    assert report.micro_accuracy("staff") == pytest.approx(0.4)


def test_micro_f1_pools_counts():
    report = EvalReport(pieces=[piece("a", 1, 1, voice=(1, 1, 2)),
                                piece("b", 1, 1, voice=(2, 3, 2))])
    # [DERIVED] pooled hit=3, pred=4, gold=4 -> p=r=0.75 -> f1=0.75.
    precision, recall, f1 = report.micro_f1("voice")
    assert (precision, recall, f1) == pytest.approx((0.75, 0.75, 0.75))


def test_micro_f1_empty_convention():
    report = EvalReport(pieces=[piece("a", 1, 1, chord=(0, 0, 0))])
    assert report.micro_f1("chord") == (1.0, 1.0, 1.0)


def test_report_json_shape():
    report = EvalReport(pieces=[piece("a", 3, 4), piece("b", 1, 6)])
    payload = json.loads(report.to_json())
    assert {p["name"] for p in payload["pieces"]} == {"a", "b"}
    assert set(payload["micro"]["accuracy"]) == set(ACCURACY_HEADS)
    assert payload["micro"]["accuracy"]["key"] == pytest.approx(0.4)
    # [DERIVED] default voice counts (1,2,2) pool to hit=2, pred=gold=4.
    assert payload["micro"]["voice_f1"] == pytest.approx(0.5)
    # stable formatting: sorted keys, two-space indent
    text = report.to_json()
    assert text.index('"micro"') < text.index('"pieces"')
    assert '\n  "micro"' in text


def test_report_table_layout():
    report = EvalReport(pieces=[piece("longer-name", 3, 4)])
    table = report.table()
    lines = table.splitlines()
    assert lines[0].startswith("piece")
    assert set(lines[1]) == {"-"}
    assert lines[2].startswith("longer-name")
    assert lines[-1].startswith("micro")
    assert all(len(line) == len(lines[0]) for line in (lines[1],))
    assert "voice_f1" in lines[0] and "chord_f1" in lines[0]
    assert "0.7500" in lines[2]


def test_piece_accuracy_empty_total():
    metrics = PieceMetrics(name="x", note_count=0,
                           accuracy_counts={"staff": (0, 0)},
                           voice_counts=(0, 0, 0), chord_counts=(0, 0, 0))
    assert metrics.accuracy("staff") == 1.0
