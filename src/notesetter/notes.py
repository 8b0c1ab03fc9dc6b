"""Core score model: note columns, engraving label vocabularies, node features.

All timing is integer "divisions" (ticks); ``divisions_per_quarter`` fixes the
grid. A ``Score`` holds each note fact once, as read-only int64 columns in
(onset, pitch) order: ``onset``, ``duration`` and ``pitch``, with each note's
``bar`` and the ``bars`` table derived once by ``make_score``, its one
constructor. Pitch class, octave and bar onset and length are computed where
they are used (``pitch % 12``, ``bars[bar]``). Everything here is an
immutable value object and safe to share across threads.
"""

from __future__ import annotations

import bisect
import functools
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
    """One note of a score, read off its columns by the ``Score`` view."""

    id: int
    onset_div: int
    duration_div: int
    midi_pitch: int
    bar_index: int

    @property
    def offset_div(self) -> int:
        return self.onset_div + self.duration_div


N_FEATURES = 17


def node_features(score: Score) -> np.ndarray:
    """The (n, 17) input feature matrix, one row per note in order.

    Columns: pitch-class one-hot (12), octave, tanh(duration / bar length),
    onset fraction within the bar, downbeat flag, bar index. Each row
    depends only on its note, so an identical note gives a bit-identical row.
    """
    n = len(score.pitch)
    bar_onset, bar_length = score.bars[score.bar].T
    rel_onset = score.onset - bar_onset
    features = np.zeros((n, N_FEATURES))
    features[np.arange(n), score.pitch % 12] = 1.0
    features[:, 12] = score.pitch // 12 - 1
    # math.tanh per value: np.tanh differs from it in the last bit on some
    # ratios, which would change the features
    features[:, 13] = [math.tanh(d / b) for d, b in
                       zip(score.duration.tolist(), bar_length.tolist())]
    features[:, 14] = rel_onset / bar_length
    features[:, 15] = rel_onset == 0
    features[:, 16] = score.bar
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


@dataclass(frozen=True, eq=False)
class Score:
    """A quantized piece: one read-only int64 column per note fact, in
    (onset, pitch) order, plus optional labels. ``make_score`` builds it.

    ``bar`` and ``bars`` are derived from the onsets and the time signatures:
    the bar holding each onset, and the (onset, length) in divisions of bars
    0 up to the bar of the last onset.
    """

    divisions_per_quarter: int
    time_signatures: tuple[TimeSignature, ...]
    onset: np.ndarray          # (n,) onset in divisions, >= 0
    duration: np.ndarray       # (n,) duration in divisions, > 0
    pitch: np.ndarray          # (n,) MIDI pitch, 0..127
    bar: np.ndarray            # (n,) index of the bar holding the onset
    bars: np.ndarray           # (num_bars, 2) onset and length of each bar
    labels: Optional[LabelSet] = None
    name: str = ""

    @property
    def num_bars(self) -> int:
        return len(self.bars)

    @functools.cached_property
    def notes(self) -> tuple[QuantizedNote, ...]:
        """The notes as objects, derived from the columns on first use."""
        return tuple(itertools.starmap(QuantizedNote, zip(
            itertools.count(), self.onset.tolist(), self.duration.tolist(),
            self.pitch.tolist(), self.bar.tolist())))


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


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _int64(values, what: str) -> np.ndarray:
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError as exc:
        raise ValueError(f"{what} do not fit in 64-bit integers") from exc


def make_score(divisions: int, time_signatures, note_specs, labels=None,
               name: str = "") -> Score:
    """Build a canonical Score from (onset, duration, midi) triples.

    Notes may arrive in any order; they are sorted by (onset, pitch), equal
    keys keeping their input order, and numbered 0..n-1 in that order. Bar
    context is derived from the time signatures. ``labels``, when given,
    must already be indexed by the canonical order.
    """
    sigs = tuple(TimeSignature(*t) if not isinstance(t, TimeSignature) else t
                 for t in time_signatures)
    if divisions <= 0:
        raise ValueError("divisions_per_quarter must be positive")
    if not sigs or sigs[0].bar_index != 0:
        raise ValueError("first time signature must sit at bar 0")
    specs = _int64(list(note_specs), "note values")
    if specs.size == 0:
        specs = specs.reshape(0, 3)
    if specs.ndim != 2 or specs.shape[1] != 3:
        raise ValueError("notes must be (onset, duration, midi) triples")
    order = np.lexsort((specs[:, 2], specs[:, 0]))
    onset, duration, pitch = _read_only(specs[order].T.copy())
    for bad, what in ((onset < 0, "onset before bar 0"),
                      (duration <= 0, "duration <= 0"),
                      ((pitch < 0) | (pitch > 127), "midi pitch outside 0..127")):
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"note {i} (onset {onset[i]}, duration "
                             f"{duration[i]}, midi {pitch[i]}): {what}")
    # both are non-negative here, so their uint64 sum cannot overflow
    offset = onset.view(np.uint64) + duration.view(np.uint64)
    max_offset = int(offset.max(initial=0))
    if max_offset > np.iinfo(np.int64).max:
        raise ValueError(f"the notes end at division {max_offset}, beyond "
                         f"64-bit integers")
    # enough bars to cover the last offset, and never more than MAX_BARS
    table: list[tuple[int, int]] = []
    for bar_onset, length in _bars(divisions, sigs):
        if len(table) == MAX_BARS:
            raise ValueError(f"the notes end at division {max_offset}, "
                             f"beyond the {MAX_BARS}-bar limit")
        table.append((bar_onset, length))
        if bar_onset + length >= max_offset:
            break
    bars = _int64(table, "bar onsets and lengths")
    bar = np.searchsorted(bars[:, 0], onset, side="right") - 1
    # the bars end at the bar of the last onset
    bars = bars[:bar[-1] + 1] if len(bar) else bars[:0]
    if labels is not None:
        labels.validate(len(onset))
    return Score(divisions_per_quarter=divisions, time_signatures=sigs,
                 onset=onset, duration=duration, pitch=pitch,
                 bar=_read_only(bar), bars=_read_only(bars), labels=labels,
                 name=name)
