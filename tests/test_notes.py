"""Oracle tests for vocabularies, durations, features, and Score assembly."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from notesetter.decoders import HEAD_WIDTHS
from notesetter.notes import (ALTER_VALUES, DEFAULT_SPELLING_BY_PC, MAX_BARS,
                              MAX_DOTS, N_FEATURES, N_KEY_CLASSES, N_SPELLING,
                              NODE_HEADS, NODE_LABELS, NOTE_TYPE_NAMES,
                              NOTE_TYPE_QUARTERS, STEP_NAMES, STEP_TO_PC,
                              TUPLET_VALUES, LabelOutOfRange, LabelSet,
                              TimeSignature, bar_at, bar_length_div, bar_table,
                              labels_to_classes, node_features, make_score,
                              spelling_class, spelling_of, spelling_parts,
                              spelling_pitch_class, symbolic_duration_div)
from notesetter.synth import random_score


def test_spelling_class_oracle():
    # [DERIVED] class = 5*step_index + alter_index with steps A..G and
    # alters (-2,-1,0,1,2): C natural = 5*2+2 = 12, G natural = 5*6+2 = 32,
    # F sharp = 5*5+3 = 28, B flat = 5*1+1 = 6.
    assert spelling_of("C", 0) == 12
    assert spelling_of("G", 0) == 32
    assert spelling_of("A", 0) == 2
    assert spelling_of("F", 1) == 28
    assert spelling_of("B", -1) == 6
    assert spelling_class(0, 0) == 0  # A double-flat
    assert spelling_class(6, 4) == 34  # G double-sharp


def test_spelling_round_trip_and_pitch_class():
    for cls in range(N_SPELLING):
        step_i, alter_i = spelling_parts(cls)
        assert spelling_class(step_i, alter_i) == cls
        expected_pc = (STEP_TO_PC[STEP_NAMES[step_i]]
                       + ALTER_VALUES[alter_i]) % 12
        assert spelling_pitch_class(cls) == expected_pc
    # [DERIVED] spot checks: F#=6, Bb=10, Cb=11, E#=5.
    assert spelling_pitch_class(spelling_of("F", 1)) == 6
    assert spelling_pitch_class(spelling_of("B", -1)) == 10
    assert spelling_pitch_class(spelling_of("C", -1)) == 11
    assert spelling_pitch_class(spelling_of("E", 1)) == 5


def test_spelling_errors():
    with pytest.raises(ValueError):
        spelling_class(7, 0)
    with pytest.raises(ValueError):
        spelling_class(0, 5)
    with pytest.raises(ValueError):
        spelling_parts(35)


def test_default_spelling_covers_all_pitch_classes():
    for pc, (step, alter) in DEFAULT_SPELLING_BY_PC.items():
        assert (STEP_TO_PC[step] + alter) % 12 == pc
    assert set(DEFAULT_SPELLING_BY_PC) == set(range(12))


def first_labels(n, **overrides):
    """n notes' labels, each vector its row's first label unless overridden."""
    vectors = {field: (row[0],) * n for field, row in NODE_LABELS.values()}
    vectors.update(overrides)
    return LabelSet(voice_edges=frozenset(), chord_edges=frozenset(), **vectors)


def test_node_labels_table():
    # the head order is frozen: parameters, checkpoints and dumps follow it
    assert NODE_HEADS == ("staff", "spelling", "key", "stem", "octave_shift",
                          "clef", "note_type", "dots", "tuplet")
    assert tuple(NODE_LABELS) == NODE_HEADS
    for head, (field, row) in NODE_LABELS.items():
        assert HEAD_WIDTHS[head] == len(row), head
        assert list(row) == sorted(set(row)), head
        # every label maps to its position in the row, and back
        labels = first_labels(len(row), **{field: tuple(row)})
        classes = labels_to_classes(labels, len(row))[head]
        assert classes.dtype == np.int64
        assert classes.tolist() == list(range(len(row))), head
        assert [row[c] for c in classes.tolist()] == list(row), head
    # [DERIVED] key fifths -7..7 are classes 0..14; tuplet 1, 3, 5 are 0, 1, 2
    assert list(NODE_LABELS["key"][1]) == list(range(-7, 8))
    assert N_KEY_CLASSES == 15
    assert NODE_LABELS["tuplet"][1] == TUPLET_VALUES == (1, 3, 5)
    assert [len(row) for _, row in NODE_LABELS.values()] == [
        2, N_SPELLING, 15, 3, 4, 3, len(NOTE_TYPE_NAMES), MAX_DOTS + 1, 3]


@pytest.mark.parametrize("head", NODE_HEADS)
def test_make_score_refuses_a_label_outside_its_row(head):
    field, row = NODE_LABELS[head]
    triples = [(0, 4, 60), (4, 4, 62)]
    make_score(4, [(0, 4, 4)], triples, labels=first_labels(2))
    for bad in (min(row) - 1, max(row) + 1):
        labels = first_labels(2, **{field: (row[0], bad)})
        with pytest.raises(LabelOutOfRange, match=f"{head}: label {bad} "):
            make_score(4, [(0, 4, 4)], triples, labels=labels)


def test_random_score_labels_are_pinned():
    # the rows of NODE_LABELS, their order and one RNG draw per row decide
    # every synthetic label; sha256 of each piece's labels, edge sets sorted
    digest = hashlib.sha256()
    for seed in range(30):
        for n_notes in (4, 12, 30):
            labels = random_score(seed, n_notes=n_notes, n_bars=3).labels
            digest.update(json.dumps(
                {k: sorted(v) if isinstance(v, frozenset) else v
                 for k, v in dataclasses.asdict(labels).items()},
                sort_keys=True).encode())
    assert digest.hexdigest()[:16] == "56d181bf273aed5d"


def test_note_type_tables():
    assert NOTE_TYPE_NAMES.index("quarter") == 3
    assert NOTE_TYPE_QUARTERS[1] == 4  # whole
    assert NOTE_TYPE_QUARTERS[7] == pytest.approx(1 / 16)  # 64th
    assert MAX_DOTS == 3


QUARTER = NOTE_TYPE_NAMES.index("quarter")
EIGHTH = NOTE_TYPE_NAMES.index("eighth")
HALF = NOTE_TYPE_NAMES.index("half")
WHOLE = NOTE_TYPE_NAMES.index("whole")
BREVE = NOTE_TYPE_NAMES.index("breve")
SIXTEENTH = NOTE_TYPE_NAMES.index("16th")


def test_symbolic_duration_oracle():
    # [DERIVED] by hand: nominal quarters * divisions * dot factor
    # (2 - 2^-dots) * tuplet factor normal/actual.
    assert symbolic_duration_div(QUARTER, 0, 1, 4) == 4
    assert symbolic_duration_div(QUARTER, 1, 1, 4) == 6
    assert symbolic_duration_div(QUARTER, 2, 1, 4) == 7
    assert symbolic_duration_div(QUARTER, 3, 1, 4) is None  # 7.5 ticks
    assert symbolic_duration_div(EIGHTH, 0, 3, 6) == 2  # triplet eighth at 6
    assert symbolic_duration_div(SIXTEENTH, 0, 1, 2) is None  # half tick
    assert symbolic_duration_div(WHOLE, 0, 1, 1) == 4
    assert symbolic_duration_div(BREVE, 0, 1, 1) == 8
    assert symbolic_duration_div(QUARTER, 0, 5, 5) == 4  # quintuplet at 5
    assert symbolic_duration_div(QUARTER, 0, 5, 4) is None  # 16/5 ticks
    # dotted triplet half at 6: 12 * 1.5 * (2/3) = 12
    assert symbolic_duration_div(HALF, 1, 3, 6) == 12


def test_pitch_class_and_octave_oracle():
    # [DERIVED] midi 60 -> pc 0, octave 4 (C4); midi 21 -> A0 (pc 9);
    # midi 108 -> C8. The features derive both from the pitch column.
    score = make_score(4, [(0, 4, 4)], [(0, 4, 60), (4, 1, 21), (8, 1, 108)])
    f = node_features(score)
    assert f[:, :12].argmax(axis=1).tolist() == [0, 9, 0]
    assert f[:, 12].tolist() == [4.0, 0.0, 8.0]
    assert score.notes[0].offset_div == 4


def test_quantized_note_validation():
    for bad in ((0, 0, 60),       # zero duration
                (0, 4, 128),      # midi out of range
                (0, 4, -1),
                (-4, 4, 60)):     # onset before bar 0
        with pytest.raises(ValueError):
            make_score(4, [(0, 4, 4)], [(0, 4, 62), bad])
    with pytest.raises(ValueError, match="triples"):
        make_score(4, [(0, 4, 4)], [(0, 4)])
    with pytest.raises(ValueError, match="positive"):
        make_score(0, [(0, 4, 4)], [(0, 4, 60)])
    with pytest.raises(ValueError, match="bar 0"):
        make_score(4, [(1, 4, 4)], [(0, 4, 60)])
    # [DERIVED] 16 divisions per 4/4 bar: an offset of 16 * MAX_BARS fits,
    # one division more does not
    assert make_score(4, [(0, 4, 4)], [(16 * MAX_BARS - 1, 1, 60)]).num_bars \
        == MAX_BARS
    with pytest.raises(ValueError, match="bar limit"):
        make_score(4, [(0, 4, 4)], [(16 * MAX_BARS - 1, 2, 60)])
    # values beyond int64 are refused as ValueError, not OverflowError:
    # a note value, a bar length (4 * 2**62 divisions per 4/4 bar) and an
    # offset of 2**63 (onset 2**62 plus duration 2**62)
    for divisions, triple in ((4, (0, 2**63, 60)), (2**62, (0, 1, 60)),
                              (2**60, (2**62, 2**62, 60))):
        with pytest.raises(ValueError, match="64-bit"):
            make_score(divisions, [(0, 4, 4)], [triple])


def test_node_features_quarter_in_44():
    # [DERIVED] quarter at the downbeat of a 4/4 bar, divisions 1:
    # norm_duration = tanh(1/4) ~= 0.2449, onset_fraction 0, downbeat 1.
    f = node_features(make_score(1, [(0, 4, 4)], [(0, 1, 60)]))
    assert f.shape == (1, N_FEATURES) and N_FEATURES == 17
    assert f.dtype == np.float64
    row = tuple(f[0].tolist())
    assert row[:12] == tuple(1.0 if i == 0 else 0.0 for i in range(12))
    assert row[13] == pytest.approx(0.24491866240370913, abs=1e-12)
    assert row[12:] == (4.0, row[13], 0.0, 1.0, 0.0)


def test_node_features_formula_duplicate():
    # [DERIVED: duplicate-formula oracle] straight-line reimplementation,
    # one row per note in canonical order; bars of 8 divisions (4/4 at 2).
    specs = [(3, 2, 67, 0, 0, 8), (9, 6, 41, 1, 8, 8), (14, 1, 99, 1, 8, 8)]
    f = node_features(make_score(2, [(0, 4, 4)], [s[:3] for s in specs]))
    assert f.shape == (len(specs), 17)
    for row, (onset, dur, midi, bar_i, bar_on, bar_len) in zip(f, specs):
        assert row[midi % 12] == 1.0
        assert row[:12].sum() == 1.0
        assert row[12] == float(midi // 12 - 1)
        assert row[13] == math.tanh(dur / bar_len)
        assert row[14] == pytest.approx((onset - bar_on) / bar_len, abs=1e-15)
        assert row[15] == (1.0 if onset == bar_on else 0.0)
        assert row[16] == float(bar_i)
    assert node_features(make_score(2, [(0, 4, 4)], [])).shape == (0, 17)


def test_bar_length_div():
    assert bar_length_div(4, 4, 4) == 16
    assert bar_length_div(3, 4, 2) == 6
    assert bar_length_div(6, 8, 2) == 6
    assert bar_length_div(2, 2, 1) == 4
    with pytest.raises(ValueError):
        bar_length_div(1, 8, 1)  # half a division


def test_bar_table_with_signature_change():
    # [DERIVED] 4/4 then 3/4 from bar 2 at divisions 2: lengths 8,8,6,6.
    sigs = (TimeSignature(0, 4, 4), TimeSignature(2, 3, 4))
    assert bar_table(2, sigs, 4) == [(0, 8), (8, 8), (16, 6), (22, 6)]


def _bar_by_scan(bars, div):
    """The straight scan bar_at replaces: last bar whose onset <= div."""
    return next(i for i in reversed(range(len(bars))) if bars[i][0] <= div)


def test_bar_at_matches_straight_scan():
    for sigs, divisions in (((TimeSignature(0, 4, 4), TimeSignature(2, 3, 4),
                              TimeSignature(5, 6, 8), TimeSignature(7, 2, 2)),
                             2),
                            ((TimeSignature(0, 3, 8), TimeSignature(1, 5, 4)),
                             6)):
        bars = bar_table(divisions, sigs, 10)
        end = bars[-1][0] + bars[-1][1]
        for div in range(end + 3):  # every tick, barlines included
            assert bar_at(bars, div) == _bar_by_scan(bars, div)
        for onset, _ in bars:
            assert bars[bar_at(bars, onset)][0] == onset
        with pytest.raises(ValueError, match="before bar 0"):
            bar_at(bars, -1)
        # notes exactly on barlines land in the bar that starts there
        specs = [(onset, 1, 60) for onset, _ in bars] + [(end - 1, 1, 62)]
        score = make_score(divisions, sigs, specs)
        assert [n.bar_index for n in score.notes] == list(range(10)) + [9]
        assert score.num_bars == 10
        assert score.bars.tolist() == [list(bar) for bar in bars]
        for note in score.notes:
            assert note.bar_index == _bar_by_scan(bars, note.onset_div)


def test_make_score_sorts_and_numbers():
    score = make_score(2, [(0, 4, 4)],
                       [(8, 2, 60), (0, 4, 64), (0, 4, 60), (9, 1, 55)],
                       name="t")
    got = [(n.onset_div, n.duration_div, n.midi_pitch) for n in score.notes]
    assert got == [(0, 4, 60), (0, 4, 64), (8, 2, 60), (9, 1, 55)]
    assert [n.id for n in score.notes] == [0, 1, 2, 3]
    assert score.num_bars == 2
    assert score.notes[2].bar_index == 1
    assert score.bars.tolist() == [[0, 8], [8, 8]]
    # the columns are read-only, and a renamed copy shares their values
    renamed = dataclasses.replace(score, name="u")
    assert renamed.name == "u"
    for field in ("onset", "duration", "pitch", "bar", "bars"):
        column = getattr(score, field)
        assert column.dtype == np.int64
        with pytest.raises(ValueError):
            column[0] = 0
        np.testing.assert_array_equal(getattr(renamed, field), column)
    assert renamed.notes == score.notes
