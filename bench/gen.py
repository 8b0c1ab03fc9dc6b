"""Seeded benchmark inputs: voice-structured pieces, checkpoints, noisy bundles.

Every piece is a two-staff piano texture. Each staff carries one or two
continuous voices (every bar of every voice is filled with notes or chords,
so no rest is ever needed), voices on a staff use disjoint pitch ranges, and
every note sits inside one bar. Pieces are either on a sixteenth grid
(4 divisions per quarter) or on a triplet grid (6 divisions per quarter,
with eighth- and quarter-note triplets). A piece holds a fixed number of notes
(``notes_per_beat`` per voice), chords absorbing whatever the random rhythm
leaves over, so sizes do not vary with the seed. Ground-truth labels follow
from the construction; the files are written with the program's own
``engrave_from_labels`` + ``export_musicxml``, so the program reads back
exactly what the generator meant.

``self_check`` reads every generated file back through ``read_score_file``
and asserts that the notes and labels come back unchanged;
``check_perfect_export`` asserts that a piece's perfect bundle engraves and
exports. Noisy bundles add seeded Gaussian noise to a perfect bundle.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import random
from pathlib import Path

import numpy as np

from notesetter import checkpoint, postprocess
from notesetter.model import ModelConfig, init_params
from notesetter.musicxml import (export_musicxml, parse_musicxml,
                                 read_score_file, validate_subset)
from notesetter.notes import (DEFAULT_SPELLING_BY_PC, LabelSet, Score,
                              TUPLET_VALUES, NOTE_TYPE_NAMES, MAX_DOTS,
                              make_score, spelling_of, symbolic_duration_div)
from notesetter.rng import Rng

# Rhythm cells: (beats spanned, durations in divisions), with a draw weight.
# Sixteenth grid: 4 divisions per beat.
CELLS_4 = (
    (1, (4,), 3), (1, (2, 2), 4), (1, (1, 1, 1, 1), 1), (1, (2, 1, 1), 2),
    (1, (1, 1, 2), 2), (1, (3, 1), 2), (2, (8,), 1), (2, (6, 2), 2),
)
# Triplet grid: 6 divisions per beat; (2, 2, 2) and (4, 4, 4) are triplets.
CELLS_6 = (
    (1, (6,), 3), (1, (3, 3), 4), (1, (2, 2, 2), 4), (2, (4, 4, 4), 2),
    (2, (12,), 1), (2, (9, 3), 2),
)
# (low, high) MIDI range of each voice: [staff][voice count - 1][voice]
RANGES = (
    (((60, 84),), ((72, 88), (60, 71))),
    (((36, 59),), ((48, 59), (31, 47))),
)


@dataclasses.dataclass(frozen=True)
class PieceSpec:
    """Shape of one generated piece; the content comes from ``seed``."""

    name: str
    seed: int
    bars: int
    triplet: bool = False
    voices: tuple[int, int] = (2, 2)   # voices on the upper, lower staff
    notes_per_beat: float = 2.6        # per voice; chords fill up to it
    numerator: int = 4                 # beats per bar (x/4 time)

    @property
    def divisions(self) -> int:
        return 6 if self.triplet else 4


@functools.lru_cache(maxsize=None)
def _symbol(duration: int, divisions: int) -> tuple[int, int, int]:
    """(note type, dots, tuplet) of the plainest symbol with this length."""
    for tuplet in TUPLET_VALUES:
        for dots in range(MAX_DOTS + 1):
            for type_index in range(len(NOTE_TYPE_NAMES)):
                if symbolic_duration_div(type_index, dots, tuplet,
                                         divisions) == duration:
                    return type_index, dots, tuplet
    raise ValueError(f"no symbol lasts {duration} divisions at {divisions}")


def _fill_bar(rng: random.Random, beats: int, triplet: bool) -> list[int]:
    cells = CELLS_6 if triplet else CELLS_4
    out: list[int] = []
    left = beats
    while left:
        fitting = [c for c in cells if c[0] <= left]
        span, durations, _ = rng.choices(fitting, [c[2] for c in fitting])[0]
        out.extend(durations)
        left -= span
    return out


def make_piece(spec: PieceSpec) -> Score:
    """A labeled, voice-structured piece built from ``spec``."""
    rng = random.Random(spec.seed)
    divisions = spec.divisions
    bar_len = spec.numerator * divisions
    key = rng.randint(-3, 3)
    # rhythm first: (staff, stem, low, high, [(onset, duration), ...]) per voice
    rhythms = []
    for staff in (0, 1):
        count = spec.voices[staff]
        for v in range(count):
            low, high = RANGES[staff][count - 1][v]
            slots = []
            for bar in range(spec.bars):
                onset = bar * bar_len
                for duration in _fill_bar(rng, spec.numerator, spec.triplet):
                    slots.append((onset, duration))
                    onset += duration
            rhythms.append((staff, 0 if v == 0 else 1, low, high, slots))
    # then chords: extra notes land on random events until the piece holds
    # exactly the target count, so note counts do not vary with the seed
    events = [(r, k) for r, rhythm in enumerate(rhythms)
              for k in range(len(rhythm[4]))]
    target = round(spec.notes_per_beat * spec.numerator * spec.bars
                   * sum(spec.voices))
    extra = collections.Counter(
        rng.sample(events * 2, min(max(target - len(events), 0),
                                   2 * len(events))))

    # note: (onset, duration, midi, staff, stem); chords: per voice, lists of
    # note indices that sound together
    raw: list[tuple[int, int, int, int, int]] = []
    voices: list[list[list[int]]] = []
    for r, (staff, stem, low, high, slots) in enumerate(rhythms):
        chords = []
        for k, (onset, duration) in enumerate(slots):
            top = rng.randint(low + 7, high)
            pitches = {top}
            while len(pitches) < 1 + extra[(r, k)]:
                pitches.add(rng.randint(max(low, top - 9), top - 1))
            ids = []
            for midi in sorted(pitches):
                ids.append(len(raw))
                raw.append((onset, duration, midi, staff, stem))
            chords.append(ids)
        voices.append(chords)

    order = sorted(range(len(raw)), key=lambda i: (raw[i][0], raw[i][2]))
    new_id = {old: new for new, old in enumerate(order)}
    voice_edges = set()
    chord_edges = set()
    for chords in voices:
        for chord in chords:
            ids = sorted(new_id[i] for i in chord)
            chord_edges.update((a, b) for k, a in enumerate(ids)
                               for b in ids[k + 1:])
        for prev, nxt in zip(chords, chords[1:]):
            voice_edges.update((new_id[u], new_id[w])
                               for u in prev for w in nxt)
    notes = [raw[i] for i in order]
    symbols = [_symbol(n[1], divisions) for n in notes]
    labels = LabelSet(
        staff=tuple(n[3] for n in notes),
        spelling=tuple(spelling_of(*DEFAULT_SPELLING_BY_PC[n[2] % 12])
                       for n in notes),
        key_fifths=(key,) * len(notes),
        stem=tuple(n[4] for n in notes),
        octave_shift=(0,) * len(notes),
        clef=tuple(n[3] for n in notes),        # G clef upper, F clef lower
        note_type=tuple(s[0] for s in symbols),
        dots=tuple(s[1] for s in symbols),
        tuplet=tuple(s[2] for s in symbols),
        voice_edges=frozenset(voice_edges),
        chord_edges=frozenset(chord_edges))
    return make_score(divisions, ((0, spec.numerator, 4),),
                      [n[:3] for n in notes], labels=labels, name=spec.name)


def write_piece(spec: PieceSpec, out_dir: Path) -> tuple[Path, Score]:
    """Engrave the piece from its labels and write ``<name>.musicxml``."""
    score = make_piece(spec)
    path = Path(out_dir) / f"{spec.name}.musicxml"
    path.write_bytes(export_musicxml(postprocess.engrave_from_labels(score)))
    return path, score


def noisy_bundle(perfect, sigma: float, seed: int):
    """A copy of a perfect bundle with seeded Gaussian noise of scale
    ``sigma`` on every logit (pair probabilities are perturbed in logit
    space)."""
    gen = np.random.default_rng(seed)
    note_logits = {head: logits + sigma * gen.standard_normal(logits.shape)
                   for head, logits in perfect.note_logits.items()}
    staff = note_logits["staff"]
    staff_probs = np.exp(
        staff - np.logaddexp.reduce(staff, axis=1, keepdims=True))[:, 1]

    def perturb(probs: np.ndarray) -> np.ndarray:
        logit = np.log(probs) - np.log1p(-probs)
        logit = logit + sigma * gen.standard_normal(probs.shape)
        return 1.0 / (1.0 + np.exp(-logit))

    return dataclasses.replace(
        perfect, note_logits=note_logits, staff_probs=staff_probs,
        voice_probs=perturb(perfect.voice_probs),
        chord_probs=perturb(perfect.chord_probs))


def write_checkpoint(config: ModelConfig, seed: int, path: Path) -> Path:
    """A freshly initialised model, saved the way training saves one."""
    params = init_params(config, Rng(seed))
    checkpoint.save_checkpoint(
        path, {name: p.data for name, p in params.items()},
        meta={"model": config.shape_dict(), "epoch": 0,
              "selection_loss": 0.0, "seed": seed})
    return Path(path)


def self_check(path: Path, score: Score) -> None:
    """The written file reads back as the same notes and labels."""
    back = read_score_file(path).score
    want = [(n.onset_div, n.duration_div, n.midi_pitch) for n in score.notes]
    got = [(n.onset_div, n.duration_div, n.midi_pitch) for n in back.notes]
    if got != want:
        raise AssertionError(f"{path}: notes changed on read-back")
    if back.labels != score.labels:
        fields = [f.name for f in dataclasses.fields(LabelSet)
                  if getattr(back.labels, f.name) != getattr(score.labels, f.name)]
        raise AssertionError(f"{path}: labels changed on read-back: {fields}")


def check_perfect_export(score: Score, bundle) -> None:
    """The perfect bundle engraves, exports within the MusicXML subset, and
    the export parses back to the piece's (onset, duration, pitch) notes."""
    data = export_musicxml(postprocess.engrave(bundle, score))
    validate_subset(data)
    back = parse_musicxml(data).score.notes
    if (sorted((n.onset_div, n.duration_div, n.midi_pitch) for n in back)
            != sorted((n.onset_div, n.duration_div, n.midi_pitch)
                      for n in score.notes)):
        raise AssertionError(f"{score.name}: perfect bundle lost notes on export")
