"""Core score model: quantized notes, engraving label vocabularies, node features.

All timing is integer "divisions" (ticks); ``divisions_per_quarter`` fixes the
grid. Everything here is an immutable value object and safe to share across
threads.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Optional

import numpy as np

# --- label vocabularies (orders are frozen; checkpoints depend on them) ---

STEP_NAMES = ("A", "B", "C", "D", "E", "F", "G")
# semitone of the natural step above C
STEP_TO_PC = {"A": 9, "B": 11, "C": 0, "D": 2, "E": 4, "F": 5, "G": 7}
ALTER_VALUES = (-2, -1, 0, 1, 2)  # double-flat .. double-sharp
N_SPELLING = 35  # 7 steps x 5 alters

STEM_UP, STEM_DOWN, STEM_NONE = 0, 1, 2
CLEF_G, CLEF_F, CLEF_C = 0, 1, 2

NOTE_TYPE_NAMES = ("breve", "whole", "half", "quarter", "eighth", "16th", "32nd", "64th")
# length of each note type in quarter notes
NOTE_TYPE_QUARTERS = (
    Fraction(8), Fraction(4), Fraction(2), Fraction(1),
    Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 16),
)

MAX_DOTS = 3
TUPLET_VALUES = (1, 3, 5)  # no tuplet, triplet, quintuplet
# (actual, normal): a tuplet note lasts normal/actual of its nominal length
TUPLET_RATIOS = {1: (1, 1), 3: (3, 2), 5: (5, 4)}

KEY_MIN_FIFTHS, KEY_MAX_FIFTHS = -7, 7
N_KEY_CLASSES = 15


def spelling_class(step_index: int, alter_index: int) -> int:
    """Encode (step, alter) as one of 35 spelling classes."""
    if not 0 <= step_index < 7 or not 0 <= alter_index < 5:
        raise ValueError(f"bad spelling ({step_index}, {alter_index})")
    return 5 * step_index + alter_index

def spelling_parts(cls: int) -> tuple[int, int]:
    """Decode a spelling class back to (step_index, alter_index)."""
    if not 0 <= cls < N_SPELLING:
        raise ValueError(f"bad spelling class {cls}")
    return divmod(cls, 5)

def spelling_of(step: str, alter: int) -> int:
    return spelling_class(STEP_NAMES.index(step), ALTER_VALUES.index(alter))

def spelling_pitch_class(cls: int) -> int:
    """Sounding pitch class (0-11) implied by a spelling class."""
    step_i, alter_i = spelling_parts(cls)
    return (STEP_TO_PC[STEP_NAMES[step_i]] + ALTER_VALUES[alter_i]) % 12

# one default spelling per pitch class, used when a source gives no spelling
# or a predicted spelling contradicts the sounding pitch
DEFAULT_SPELLING_BY_PC = {
    0: ("C", 0), 1: ("C", 1), 2: ("D", 0), 3: ("E", -1), 4: ("E", 0), 5: ("F", 0),
    6: ("F", 1), 7: ("G", 0), 8: ("A", -1), 9: ("A", 0), 10: ("B", -1), 11: ("B", 0),
}

def key_class(fifths: int) -> int:
    if not KEY_MIN_FIFTHS <= fifths <= KEY_MAX_FIFTHS:
        raise ValueError(f"key fifths {fifths} outside [-7, 7]")
    return fifths - KEY_MIN_FIFTHS

def key_fifths(cls: int) -> int:
    return cls + KEY_MIN_FIFTHS

def tuplet_class(value: int) -> int:
    return TUPLET_VALUES.index(value)


def symbolic_duration_div(type_index: int, dots: int, tuplet: int,
                          divisions: int) -> Optional[int]:
    """Tick length of a (type, dots, tuplet) symbol; None if not integral."""
    length = NOTE_TYPE_QUARTERS[type_index] * divisions
    length = length * (Fraction(2) - Fraction(1, 2 ** dots))
    actual, normal = TUPLET_RATIOS[tuplet]
    length = length * Fraction(normal, actual)
    if length.denominator != 1 or length <= 0:
        return None
    return int(length)


# --- notes and scores ---

@dataclass(frozen=True)
class QuantizedNote:
    """One sounding note on the integer division grid, with bar context."""

    id: int
    onset_div: int
    duration_div: int
    midi_pitch: int
    pitch_class: int
    octave: int
    bar_index: int
    bar_onset_div: int
    bar_duration_div: int

    @property
    def offset_div(self) -> int:
        return self.onset_div + self.duration_div

    def validate(self) -> None:
        if self.duration_div <= 0:
            raise ValueError(f"note {self.id}: duration {self.duration_div} <= 0")
        if not 0 <= self.midi_pitch <= 127:
            raise ValueError(f"note {self.id}: midi pitch {self.midi_pitch}")
        if self.pitch_class != self.midi_pitch % 12:
            raise ValueError(f"note {self.id}: pitch class mismatch")
        if not (self.bar_onset_div <= self.onset_div
                < self.bar_onset_div + self.bar_duration_div):
            raise ValueError(f"note {self.id}: onset outside its bar")

    @staticmethod
    def make(id: int, onset_div: int, duration_div: int, midi_pitch: int,
             bar_index: int, bar_onset_div: int, bar_duration_div: int) -> "QuantizedNote":
        note = QuantizedNote(
            id=id, onset_div=onset_div, duration_div=duration_div,
            midi_pitch=midi_pitch, pitch_class=midi_pitch % 12,
            octave=midi_pitch // 12 - 1, bar_index=bar_index,
            bar_onset_div=bar_onset_div, bar_duration_div=bar_duration_div)
        note.validate()
        return note


N_FEATURES = 17


def node_features(notes) -> np.ndarray:
    """The (n, 17) input feature matrix, one row per note in order.

    Columns: pitch-class one-hot (12), octave, tanh(duration / bar length),
    onset fraction within the bar, downbeat flag, bar index. Each row
    depends only on its note, so an identical note gives a bit-identical row.
    """
    n = len(notes)
    cols = np.array([(x.pitch_class, x.octave, x.onset_div - x.bar_onset_div,
                      x.bar_duration_div, x.bar_index) for x in notes],
                    dtype=np.int64).reshape(n, 5)
    pitch_class, octave, rel_onset, bar_length, bar_index = cols.T
    features = np.zeros((n, N_FEATURES))
    features[np.arange(n), pitch_class] = 1.0
    features[:, 12] = octave
    features[:, 13] = [math.tanh(x.duration_div / x.bar_duration_div)
                       for x in notes]
    features[:, 14] = rel_onset / bar_length
    features[:, 15] = rel_onset == 0
    features[:, 16] = bar_index
    return features


@dataclass(frozen=True)
class LabelSet:
    """Ground-truth engraving labels for every note of a score.

    Per-note vectors are indexed by note id. Conventions:
      staff / stem / octave_shift / clef / note_type -> vocabulary index,
      spelling -> class 0..34, key -> signed fifths -7..7,
      dots -> count 0..3, tuplet -> ratio value in {1, 3, 5}.
    voice_edges are ordered (u, w) pairs: w immediately follows u in a voice.
    chord_edges are unordered pairs stored as (min, max).
    """

    staff: tuple[int, ...]
    spelling: tuple[int, ...]
    key_fifths: tuple[int, ...]
    stem: tuple[int, ...]
    octave_shift: tuple[int, ...]
    clef: tuple[int, ...]
    note_type: tuple[int, ...]
    dots: tuple[int, ...]
    tuplet: tuple[int, ...]
    voice_edges: frozenset[tuple[int, int]]
    chord_edges: frozenset[tuple[int, int]]

    def validate(self, n: int) -> None:
        for name in ("staff", "spelling", "key_fifths", "stem", "octave_shift",
                     "clef", "note_type", "dots", "tuplet"):
            vec = getattr(self, name)
            if len(vec) != n:
                raise ValueError(f"label vector {name} has length {len(vec)}, want {n}")
        for f in self.key_fifths:
            if not KEY_MIN_FIFTHS <= f <= KEY_MAX_FIFTHS:
                raise ValueError(f"key fifths {f} outside [-7, 7]")
        for t in self.tuplet:
            if t not in TUPLET_VALUES:
                raise ValueError(f"tuplet value {t}")
        for u, w in self.chord_edges:
            if u >= w:
                raise ValueError(f"chord edge ({u}, {w}) not (min, max)")


@dataclass(frozen=True)
class TimeSignature:
    bar_index: int
    numerator: int
    denominator: int


@dataclass(frozen=True)
class Score:
    """A quantized piece: notes in canonical order plus optional labels."""

    divisions_per_quarter: int
    time_signatures: tuple[TimeSignature, ...]
    notes: tuple[QuantizedNote, ...]
    labels: Optional[LabelSet] = None
    name: str = ""

    @property
    def num_bars(self) -> int:
        return max(n.bar_index for n in self.notes) + 1 if self.notes else 0

    def bar_table(self) -> list[tuple[int, int]]:
        """(onset_div, duration_div) of every bar up to the last used one."""
        return bar_table(self.divisions_per_quarter, self.time_signatures, self.num_bars)

    def validate(self) -> None:
        if self.divisions_per_quarter <= 0:
            raise ValueError("divisions_per_quarter must be positive")
        if not self.time_signatures or self.time_signatures[0].bar_index != 0:
            raise ValueError("first time signature must sit at bar 0")
        order = [(n.onset_div, n.midi_pitch) for n in self.notes]
        if order != sorted(order):
            raise ValueError("notes are not sorted by (onset, pitch)")
        if [n.id for n in self.notes] != list(range(len(self.notes))):
            raise ValueError("note ids must be 0..n-1 in canonical order")
        bars = self.bar_table()
        for note in self.notes:
            note.validate()
            onset, dur = bars[note.bar_index]
            if (note.bar_onset_div, note.bar_duration_div) != (onset, dur):
                raise ValueError(f"note {note.id}: bar fields disagree with "
                                 f"time signatures at bar {note.bar_index}")
        if self.labels is not None:
            self.labels.validate(len(self.notes))


def bar_length_div(numerator: int, denominator: int, divisions: int) -> int:
    length = Fraction(numerator * 4, denominator) * divisions
    if length.denominator != 1:
        raise ValueError(
            f"time signature {numerator}/{denominator} is not representable "
            f"at {divisions} divisions per quarter")
    return int(length)


def _bars(divisions: int, time_signatures):
    """(onset_div, duration_div) of bars 0, 1, 2, ... without end."""
    sigs = sorted(time_signatures, key=lambda t: t.bar_index)
    onset = 0
    cur = 0
    for b in itertools.count():
        if cur + 1 < len(sigs) and sigs[cur + 1].bar_index == b:
            cur += 1
        sig = sigs[cur]
        length = bar_length_div(sig.numerator, sig.denominator, divisions)
        if length <= 0:
            raise ValueError(f"bar {b} has length {length}")
        yield onset, length
        onset += length


def bar_table(divisions: int, time_signatures: tuple[TimeSignature, ...],
              num_bars: int) -> list[tuple[int, int]]:
    """Onset and length in divisions of bars 0..num_bars-1."""
    return list(itertools.islice(_bars(divisions, time_signatures), num_bars))


def bar_at(bars: list[tuple[int, int]], div: int) -> int:
    """Index of the bar holding division ``div``: the last bar of ``bars``
    (a bar table) whose onset is at or before it."""
    i = bisect.bisect_right(bars, div, key=itemgetter(0)) - 1
    if i < 0:
        raise ValueError(f"division {div} before bar 0")
    return i


# The most bars a score may span. It bounds what a score's note list (for
# instance a prediction dump's meta line) can make make_score allocate.
MAX_BARS = 10_000


def make_score(divisions: int, time_signatures, note_specs, labels=None,
               name: str = "") -> Score:
    """Build a canonical Score from (onset, duration, midi) triples.

    Notes may arrive in any order; they are sorted and re-numbered. Bar
    context is derived from the time signatures. ``labels``, when given,
    must already be indexed by the canonical order.
    """
    sigs = tuple(TimeSignature(*t) if not isinstance(t, TimeSignature) else t
                 for t in time_signatures)
    triples = sorted(note_specs, key=lambda t: (t[0], t[2]))
    max_offset = max((on + dur for on, dur, _ in triples), default=0)
    # enough bars to cover the last offset, and never more than MAX_BARS
    bars: list[tuple[int, int]] = []
    for onset, length in _bars(divisions, sigs):
        if len(bars) == MAX_BARS:
            raise ValueError(f"the notes end at division {max_offset}, "
                             f"beyond the {MAX_BARS}-bar limit")
        bars.append((onset, length))
        if onset + length >= max_offset:
            break
    notes = []
    for i, (onset, dur, midi) in enumerate(triples):
        bar_i = bar_at(bars, onset)
        notes.append(QuantizedNote.make(
            id=i, onset_div=onset, duration_div=dur, midi_pitch=midi,
            bar_index=bar_i, bar_onset_div=bars[bar_i][0],
            bar_duration_div=bars[bar_i][1]))
    score = Score(divisions_per_quarter=divisions, time_signatures=sigs,
                  notes=tuple(notes), labels=labels, name=name)
    score.validate()
    return score
