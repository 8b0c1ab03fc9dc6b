"""Deterministic postprocessing: predictions to a musically valid score.

Four steps. (1) Chord pooling: accepted chord edges (probability at or above
the threshold, equal duration, equal predicted staff) are closed under
transitivity (connected components); each pooled head (note type, dots,
tuplet, stem) is decided once per pool, as the argmax of its members' mean
logits. (2) Voice assignment: per staff, sweep onset groups left to right
and match open voice ends against the new pooled nodes with the Hungarian
algorithm on -log(probability) costs, padded square with dummy rows/columns
priced at -log(threshold) — a dummy column ends a voice, a dummy row starts
one, and the pricing makes a real match win exactly when p >= threshold.
(3) Unpooling: members inherit their pool's voice and keep their own
predicted staff, which a pool's members share. Keys are smoothed to one per
measure (majority vote, ties toward the previous measure). Per staff, clefs
and octave shifts are voted once per onset group. Clefs are median-filtered
first (window 3, ends replicated); a clef tie keeps the previous group's
clef when it is among the tied, and otherwise takes the smallest. An octave
tie takes the smallest shift. Maximal runs of one value become clef regions
and, for non-zero shifts, octave brackets. (4) Rest infilling: every gap in
every active bar of every voice is filled greedily, largest symbol first,
never letting a rest start off its own-length grid within the bar (so
decompositions split at beat boundaries).
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import math
from typing import Optional

import numpy as np

from .decoders import (PredictionBundle, POOLED_HEADS, NODE_HEADS, HEAD_WIDTHS,
                       labels_to_classes, staff_probabilities)
from .graph import (build_graph, chord_candidate_pairs, components, in_edges,
                    pair_keys)
from .hungarian import hungarian
from .notes import (KEY_MIN_FIFTHS, LabelSet, MAX_DOTS, N_KEY_CLASSES,
                    NOTE_TYPE_NAMES, STEM_NONE, Score, TUPLET_VALUES, bar_at,
                    symbolic_duration_div)

# defaults of the two engraving settings (pair acceptance, pooled voice pairs)
DEFAULT_THRESHOLD = 0.5
DEFAULT_PAIR_AGG = "max"

_PROB_FLOOR = 1e-12


class UnfillableGap(RuntimeError):
    def __init__(self, voice: int, bar_index: int, start_div: int, length_div: int):
        super().__init__(
            f"voice {voice}, bar {bar_index}: gap of {length_div} divisions "
            f"at {start_div} is not expressible as rests")
        self.voice = voice
        self.bar_index = bar_index
        self.start_div = start_div
        self.length_div = length_div


@dataclasses.dataclass(frozen=True)
class PooledNode:
    """A chord (possibly a single note) treated as one unit."""

    ids: tuple[int, ...]
    onset_div: int
    duration_div: int
    staff: int
    note_type: int
    dots: int
    tuplet: int          # ratio value in {1, 3, 5}
    stem: int

    @property
    def offset_div(self) -> int:
        return self.onset_div + self.duration_div


@dataclasses.dataclass(frozen=True)
class EngravedEvent:
    """One time slot of one voice: a chord (note_ids) or a rest (empty)."""

    voice: int
    staff: int
    onset_div: int
    duration_div: int
    note_ids: tuple[int, ...]
    note_type: int
    dots: int
    tuplet: int          # ratio value in {1, 3, 5}
    stem: int

    @property
    def is_rest(self) -> bool:
        return not self.note_ids

    @property
    def offset_div(self) -> int:
        return self.onset_div + self.duration_div


@dataclasses.dataclass(frozen=True)
class EngravedScore:
    """The fully decided notation of one piece, ready for serialization."""

    score: Score
    staff: tuple[int, ...]           # per note
    spelling: tuple[int, ...]        # per note
    octave_shift: tuple[int, ...]    # per note, region-canonical
    clef: tuple[int, ...]            # per note, region-canonical
    events: tuple[EngravedEvent, ...]
    measure_keys: tuple[int, ...]    # fifths per bar
    clef_regions: dict               # staff -> ((start_div, clef_index), ...)
    octave_regions: dict             # staff -> ((start_div, end_div, shift), ...)
    voice_staff: dict                # voice number -> staff index

    def voice_events(self) -> dict:
        by_voice: dict[int, list[EngravedEvent]] = collections.defaultdict(list)
        for ev in self.events:
            by_voice[ev.voice].append(ev)
        return {v: sorted(evs, key=lambda e: e.onset_div)
                for v, evs in sorted(by_voice.items())}

    def validate(self) -> None:
        seen: list[int] = []
        for ev in self.events:
            seen.extend(ev.note_ids)
        if sorted(seen) != list(range(len(self.score.onset))):
            raise ValueError("events do not cover every note exactly once")
        bars = self.score.bars.tolist()
        for voice, evs in self.voice_events().items():
            totals: collections.Counter = collections.Counter()  # bar -> durations
            for ev in evs:
                bar_i = bar_at(bars, ev.onset_div)
                onset, length = bars[bar_i]
                if ev.onset_div < onset or ev.offset_div > onset + length:
                    raise ValueError(f"voice {voice}: event crosses a barline")
                totals[bar_i] += ev.duration_div
            for prev, nxt in zip(evs, evs[1:]):
                if prev.offset_div > nxt.onset_div:
                    raise ValueError(f"voice {voice}: overlapping events")
            for b in range(min(totals), max(totals) + 1):
                total, length = totals[b], bars[b][1]
                if total != length:
                    raise ValueError(
                        f"voice {voice}, bar {b}: durations sum to {total}, "
                        f"bar length is {length}")
        if len(self.measure_keys) != self.score.num_bars:
            raise ValueError("one key per measure required")
        for staff, regions in self.octave_regions.items():
            for start, end, shift in regions:
                if not (0 < shift < 4) or end <= start:
                    raise ValueError(f"bad octave region on staff {staff}")
            for (s1, e1, _), (s2, _, _) in zip(regions, regions[1:]):
                if s2 < e1:
                    raise ValueError(f"overlapping octave regions on staff {staff}")


# --- step 1: chord pooling ---

def pool_chords(bundle: PredictionBundle, score: Score,
                threshold: float) -> list[PooledNode]:
    n = len(score.onset)
    staff_pred = bundle.staff()
    u, w = bundle.chord_pairs[:, 0], bundle.chord_pairs[:, 1]
    accept = ((bundle.chord_probs >= threshold)
              & (score.duration[u] == score.duration[w])
              & (staff_pred[u] == staff_pred[w]))
    roots = components(n, bundle.chord_pairs[accept])
    # one run of ids per pool, each run in id order
    order = np.argsort(roots, kind="stable")
    starts = np.flatnonzero(np.diff(roots[order], prepend=-1))
    counts = np.diff(starts, append=n)
    # each pooled head decided once: the argmax of its members' mean logits
    decided = {head: (np.add.reduceat(bundle.note_logits[head][order], starts,
                                      axis=0) / counts[:, None]).argmax(axis=1)
               for head in POOLED_HEADS}
    decided["tuplet"] = np.asarray(TUPLET_VALUES)[decided["tuplet"]]
    # the pools in (onset, staff, first id) order, built from plain ints
    first = order[starts]
    staff, onset = staff_pred[first], score.onset[first]
    ids, begins = order.tolist(), starts.tolist()
    ends = (starts + counts).tolist()
    columns = {field: c.tolist() for field, c in dict(
        onset_div=onset, duration_div=score.duration[first], staff=staff,
        **decided).items()}
    return [PooledNode(ids=tuple(ids[begins[k]:ends[k]]),
                       **{field: c[k] for field, c in columns.items()})
            for k in np.lexsort((first, staff, onset)).tolist()]


# --- step 2: voice assignment ---

@dataclasses.dataclass
class VoiceStream:
    staff: int
    pool_indices: list[int]


def _pool_pair_probabilities(pools: list[PooledNode],
                             bundle: PredictionBundle, pair_agg: str) -> dict:
    """P(pool b follows pool a) by key ``a * len(pools) + b``: the max or
    mean over the voice probabilities of their member pairs, taken in (u, w)
    order, clamped to [floor, 1 - floor]. Pools with no candidate pair
    between them have no key."""
    n_pools = len(pools)
    pool_of = np.full(bundle.note_count, -1, dtype=np.int64)
    pool_of[np.fromiter(itertools.chain.from_iterable(p.ids for p in pools),
                        np.int64)] = np.repeat(np.arange(n_pools),
                                               [len(p.ids) for p in pools])
    pairs = bundle.voice_pairs
    pu, pw = pool_of[pairs[:, 0]], pool_of[pairs[:, 1]]
    inside = (pu >= 0) & (pw >= 0)
    keys = (pu * n_pools + pw)[inside]
    if not len(keys):
        return {}
    order = np.lexsort((pair_keys(pairs, bundle.note_count)[inside], keys))
    keys = keys[order]
    probs = bundle.voice_probs[inside][order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    if pair_agg == "max":
        agg = np.maximum.reduceat(probs, starts)
    else:
        agg = np.add.reduceat(probs, starts) / np.diff(starts, append=len(keys))
    agg = np.minimum(np.maximum(agg, _PROB_FLOOR), 1.0 - _PROB_FLOOR)
    return dict(zip(keys[starts].tolist(), agg.tolist()))


def assign_voices(pools: list[PooledNode], bundle: PredictionBundle,
                  threshold: float, pair_agg: str) -> list[VoiceStream]:
    """Chain pooled nodes into monophonic per-staff voice streams."""
    if pair_agg not in ("max", "mean"):
        raise ValueError(f"unknown pair aggregation {pair_agg!r}")
    pair_prob = _pool_pair_probabilities(pools, bundle, pair_agg)
    n_pools = len(pools)
    dummy_cost = -math.log(min(max(threshold, _PROB_FLOOR), 1.0 - _PROB_FLOOR))
    streams: list[VoiceStream] = []

    for staff in (0, 1):
        pool_ids = [i for i, p in enumerate(pools) if p.staff == staff]
        groups: "collections.OrderedDict[int, list[int]]" = collections.OrderedDict()
        for i in pool_ids:
            groups.setdefault(pools[i].onset_div, []).append(i)
        open_streams: list[VoiceStream] = []
        for onset, group in groups.items():
            eligible = [s for s in open_streams
                        if pools[s.pool_indices[-1]].offset_div <= onset]
            r, c = len(eligible), len(group)
            cost = np.full((r + c, r + c), dummy_cost)
            if r:
                cost[:r, :c] = [
                    [-math.log(pair_prob.get(s.pool_indices[-1] * n_pools + pi,
                                             _PROB_FLOOR)) for pi in group]
                    for s in eligible]
            col_of_row = hungarian(cost)
            row_of_col = {j: i for i, j in enumerate(col_of_row)}
            for i, stream in enumerate(eligible):
                if col_of_row[i] < c:
                    stream.pool_indices.append(group[col_of_row[i]])
                else:
                    open_streams.remove(stream)  # matched a dummy: voice ends
            for j, pi in enumerate(group):
                if row_of_col[j] >= r:           # dummy row: new voice starts
                    stream = VoiceStream(staff=staff, pool_indices=[pi])
                    streams.append(stream)
                    open_streams.append(stream)
    return streams


def number_voices(streams: list[VoiceStream], pools: list[PooledNode],
                  pitch: np.ndarray) -> dict[int, VoiceStream]:
    """Assign MusicXML voice numbers: 1.. on the upper staff, 5.. on the lower.

    Within a staff, voices are ordered by first onset, then by descending
    top ``pitch`` of the first chord (the melody gets the lowest number), with
    note ids as the final tiebreak. Numbers may exceed the 4-per-staff
    serialization budget; the exporter enforces that bound. When the upper
    staff overflows its block, the lower staff starts after it so numbers
    stay unique.
    """
    numbered: dict[int, VoiceStream] = {}
    upper_count = sum(1 for s in streams if s.staff == 0)
    for staff, base in ((0, 1), (1, max(5, upper_count + 1))):
        staff_streams = [s for s in streams if s.staff == staff]
        staff_streams.sort(key=lambda s: (
            pools[s.pool_indices[0]].onset_div,
            -int(pitch[list(pools[s.pool_indices[0]].ids)].max()),
            pools[s.pool_indices[0]].ids))
        for k, stream in enumerate(staff_streams):
            numbered[base + k] = stream
    return numbered


# --- step 4 helper: rest infilling ---

def _rest_vocabulary(divisions: int) -> list[tuple[int, int, int]]:
    """(duration_div, type_index, dots) of every plain rest symbol, longest first."""
    out = []
    for type_index in range(len(NOTE_TYPE_NAMES)):
        for dots in range(MAX_DOTS + 1):
            div = symbolic_duration_div(type_index, dots, 1, divisions)
            if div is not None:
                out.append((div, type_index, dots))
    out.sort(key=lambda t: -t[0])
    return out


def decompose_gap(start_div: int, length_div: int, bar_onset_div: int,
                  vocabulary: list[tuple[int, int, int]]) -> Optional[list[tuple[int, int, int]]]:
    """Split a gap into (duration_div, type_index, dots) rests.

    Greedy largest-first; a rest may only start at an integer multiple of
    its own length from the bar start, which makes decompositions break at
    beat boundaries. Returns None when the gap cannot be expressed.
    """
    rests = []
    pos = start_div
    remaining = length_div
    while remaining > 0:
        rel = pos - bar_onset_div
        for div, type_index, dots in vocabulary:
            if div <= remaining and rel % div == 0:
                rests.append((div, type_index, dots))
                pos += div
                remaining -= div
                break
        else:
            return None
    return rests


# --- step 3 + 4: unpooling, smoothing, infilling ---

def _group_votes(values: np.ndarray, group: np.ndarray, n_groups: int,
                 width: int) -> np.ndarray:
    """(groups x classes) vote counts: how many of each group's members
    (``group`` gives each member's group) hold each class in ``values``."""
    return np.bincount(group * width + values, minlength=n_groups * width
                       ).reshape(n_groups, width)


def unpool_and_finalize(numbered: dict[int, VoiceStream],
                        pools: list[PooledNode], bundle: PredictionBundle,
                        score: Score) -> EngravedScore:
    bars = score.bars.tolist()
    # a pool's notes share their predicted staff, so each note keeps its own
    staff = bundle.staff()
    clef_raw = bundle.argmax("clef")
    shift_raw = bundle.argmax("octave_shift")

    # per-measure key: majority vote, ties toward the previous measure
    measure_keys = []
    previous = 0
    for counts in _group_votes(bundle.argmax("key"), score.bar, len(bars),
                               N_KEY_CLASSES):
        top = counts.max()
        if top:
            tied = (np.flatnonzero(counts == top) + KEY_MIN_FIFTHS).tolist()
            if previous not in tied:
                previous = min(tied, key=lambda f: (abs(f - previous), f))
        measure_keys.append(previous)

    # clefs and octave shifts: one value per onset group of each staff
    clef = np.zeros_like(staff)
    octave_shift = np.zeros_like(staff)
    clef_regions: dict[int, tuple] = {}
    octave_regions: dict[int, tuple] = {}
    for s in (0, 1):
        ids = np.flatnonzero(staff == s)
        if not len(ids):
            continue
        # the ids are in onset order, so each onset group is a run
        onset = score.onset[ids]
        is_first = np.diff(onset, prepend=-1) > 0
        first = np.flatnonzero(is_first)
        group = np.cumsum(is_first) - 1
        group_onset = onset[first]

        # clef: median-3 filter, then the group majority; a tie keeps the
        # previous group's clef when it is among the tied, else the smallest
        padded = np.pad(clef_raw[ids], 1, mode="edge")
        filtered = np.sort([padded[:-2], padded[1:-1], padded[2:]], axis=0)[1]
        votes = _group_votes(filtered, group, len(first), HEAD_WIDTHS["clef"])
        value = votes.argmax(axis=1)
        tied = votes == votes.max(axis=1, keepdims=True)
        for g in np.flatnonzero(tied.sum(axis=1) > 1).tolist():
            if g and tied[g, value[g - 1]]:
                value[g] = value[g - 1]
        clef[ids] = value[group]
        runs = np.flatnonzero(np.diff(value, prepend=-1))
        starts = group_onset[runs]
        starts[0] = 0
        clef_regions[s] = tuple(zip(starts.tolist(), value[runs].tolist()))

        # octave shift: the group majority, ties to the smallest shift; a
        # bracket is a maximal run of one non-zero shift, ending at its notes'
        # last offset but no later than the next group's onset
        value = _group_votes(shift_raw[ids], group, len(first),
                             HEAD_WIDTHS["octave_shift"]).argmax(axis=1)
        octave_shift[ids] = value[group]
        runs = np.flatnonzero(np.diff(value, prepend=-1))
        ends = np.maximum.reduceat(onset + score.duration[ids], first[runs])
        ends[:-1] = np.minimum(ends[:-1], group_onset[runs[1:]])
        shifted = value[runs] != 0
        if shifted.any():
            octave_regions[s] = tuple(zip(group_onset[runs][shifted].tolist(),
                                          ends[shifted].tolist(),
                                          value[runs][shifted].tolist()))

    # events per voice + rest infilling over each voice's active bars
    vocabulary = _rest_vocabulary(score.divisions_per_quarter)
    events: list[EngravedEvent] = []
    voice_staff: dict[int, int] = {}
    for voice, stream in numbered.items():
        voice_staff[voice] = stream.staff
        pending = sorted((EngravedEvent(
            voice=voice, staff=stream.staff, onset_div=p.onset_div,
            duration_div=p.duration_div, note_ids=p.ids, note_type=p.note_type,
            dots=p.dots, tuplet=p.tuplet, stem=p.stem)
            for p in (pools[pi] for pi in stream.pool_indices)),
            key=lambda e: e.onset_div)
        first_bar = bar_at(bars, pending[0].onset_div)
        last_bar = bar_at(bars, pending[-1].onset_div)
        cursor = bars[first_bar][0]
        for b in range(first_bar, last_bar + 1):
            bar_onset, bar_len = bars[b]
            bar_end = bar_onset + bar_len
            while True:
                next_onset = (pending[0].onset_div
                              if pending and pending[0].onset_div < bar_end
                              else bar_end)
                if cursor < next_onset:
                    rests = decompose_gap(cursor, next_onset - cursor,
                                          bar_onset, vocabulary)
                    if rests is None:
                        raise UnfillableGap(voice, b, cursor, next_onset - cursor)
                    for div, type_index, dots in rests:
                        events.append(EngravedEvent(
                            voice=voice, staff=stream.staff, onset_div=cursor,
                            duration_div=div, note_ids=(), note_type=type_index,
                            dots=dots, tuplet=1, stem=STEM_NONE))
                        cursor += div
                if pending and pending[0].onset_div < bar_end:
                    ev = pending.pop(0)
                    events.append(ev)
                    cursor = ev.offset_div
                else:
                    break
        if pending:
            raise ValueError(f"voice {voice}: events outside its bar span")

    events.sort(key=lambda e: (e.voice, e.onset_div))
    engraved = EngravedScore(
        score=score, staff=tuple(staff.tolist()),
        spelling=tuple(bundle.argmax("spelling").tolist()),
        octave_shift=tuple(octave_shift.tolist()), clef=tuple(clef.tolist()),
        events=tuple(events), measure_keys=tuple(measure_keys),
        clef_regions=clef_regions, octave_regions=octave_regions,
        voice_staff=voice_staff)
    engraved.validate()
    return engraved


def engrave(bundle: PredictionBundle, score: Score,
            threshold: float = DEFAULT_THRESHOLD,
            pair_agg: str = DEFAULT_PAIR_AGG) -> EngravedScore:
    """The full decode pipeline: pool chords, chain voices, unpool, fill."""
    pools = pool_chords(bundle, score, threshold)
    streams = assign_voices(pools, bundle, threshold, pair_agg)
    numbered = number_voices(streams, pools, score.pitch)
    return unpool_and_finalize(numbered, pools, bundle, score)


# --- oracle-mode helpers ---

def perfect_bundle(score: Score) -> PredictionBundle:
    """The bundle a perfect model would emit for a labeled score: a logit
    margin of 20 on every true class, pair probabilities 0.99 and 0.01."""
    if score.labels is None:
        raise ValueError("perfect_bundle needs ground-truth labels")
    graph = build_graph(score)
    n = len(score.onset)
    classes = labels_to_classes(score.labels, n)
    note_logits = {}
    for head in NODE_HEADS:
        logits = np.zeros((n, HEAD_WIDTHS[head]))
        logits[np.arange(n), classes[head]] = 20.0
        note_logits[head] = logits
    staff_probs = staff_probabilities(note_logits["staff"])
    voice_pairs = graph.candidate_pairs
    chord_pairs = chord_candidate_pairs(graph)
    voice_probs = np.where(in_edges(voice_pairs, score.labels.voice_edges, n),
                           0.99, 0.01)
    chord_probs = np.where(in_edges(chord_pairs, score.labels.chord_edges, n),
                           0.99, 0.01)
    return PredictionBundle(note_logits=note_logits, staff_probs=staff_probs,
                            voice_pairs=voice_pairs, voice_probs=voice_probs,
                            chord_pairs=chord_pairs, chord_probs=chord_probs)


def engrave_from_labels(score: Score) -> EngravedScore:
    return engrave(perfect_bundle(score), score)


def labels_of(engraved: EngravedScore) -> LabelSet:
    """Read a LabelSet back off an engraved score (its implied ground truth)."""
    n = len(engraved.score.onset)
    voice_chords = [[e for e in evs if not e.is_rest]
                    for evs in engraved.voice_events().values()]
    chords = list(itertools.chain.from_iterable(voice_chords))
    members = np.fromiter(itertools.chain.from_iterable(
        e.note_ids for e in chords), np.int64)
    sizes = [len(e.note_ids) for e in chords]

    def per_note(field: str, default: int) -> tuple[int, ...]:
        values = np.full(n, default, dtype=np.int64)
        values[members] = np.repeat([getattr(e, field) for e in chords], sizes)
        return tuple(values.tolist())

    chord_edges = set()
    voice_edges = set()
    for ev in chords:
        chord_edges.update(itertools.combinations(sorted(ev.note_ids), 2))
    for evs in voice_chords:
        for prev, nxt in zip(evs, evs[1:]):
            voice_edges.update(itertools.product(prev.note_ids, nxt.note_ids))
    key = np.asarray(engraved.measure_keys, dtype=np.int64)[engraved.score.bar]
    return LabelSet(
        staff=engraved.staff, spelling=engraved.spelling,
        key_fifths=tuple(key.tolist()), stem=per_note("stem", STEM_NONE),
        octave_shift=engraved.octave_shift, clef=engraved.clef,
        note_type=per_note("note_type", 0), dots=per_note("dots", 0),
        tuplet=per_note("tuplet", 1),
        voice_edges=frozenset(voice_edges), chord_edges=frozenset(chord_edges))
