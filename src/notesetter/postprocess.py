"""Deterministic postprocessing: predictions to a musically valid score.

Four steps. (1) Chord pooling: accepted chord edges (probability at or above
the threshold, equal duration, equal predicted staff) are closed under
transitivity (connected components); each pooled head (note type, dots,
tuplet, stem) is decided once per pool, as the argmax of its members' mean
logits. (2) Voice assignment: per staff, each onset group matches its voice
ends against its pooled nodes: the minimum-cost assignment on
-log(probability) costs, padded square with dummy rows/columns priced at
d = -log(threshold) — a dummy column ends a voice, a dummy row starts one,
and the pricing makes a real match win exactly when p >= threshold. A
stream whose last pool is a is decided once, at a's end group (the first
group of its staff at or after a's offset), where it continues or ends; so
a group's voice ends are the pools whose end group it is, whatever was
decided before it, and the groups are independent: no sweep state is kept.
With r voice ends and c nodes, any padded assignment costs (r + c) * d plus
the sum of (cost - d) over its real matches. So when the pairs cheaper than
d form a matching (no voice end with two, no node claimed twice) and no pair
costs exactly d, they alone are the unique optimum and are linked directly.
Only the other groups, the conflicts, run the Hungarian algorithm (Kuhn
1955), with their voice ends in the order their streams began.
(3) Unpooling: members inherit their pool's voice and keep their own
predicted staff, which a pool's members share. Each note's written spelling
is its predicted class when that class sounds the note's pitch class, and
otherwise the pitch class's default spelling, so the exporter writes what it
is given and never moves a note by an octave. Keys are smoothed to one per
measure (majority vote, ties toward the previous measure). Per staff, clefs
and octave shifts are voted once per onset group. Clefs are median-filtered
first (window 3, ends replicated); a clef tie keeps the previous group's
clef when it is among the tied, and otherwise takes the smallest. An octave
tie takes the smallest shift. Maximal runs of one value become clef regions
and, for non-zero shifts, octave brackets. (4) Rest infilling: every gap in
every active bar of every voice is filled greedily, largest symbol first,
never letting a rest start off its own-length grid within the bar (so
decompositions split at beat boundaries).

Pools and events are tuple rows (``NamedTuple``) built in bulk from column
lists, and ``EngravedScore.validate`` checks the events as int64 columns in
one (voice, onset) order, which the exporter shares.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import operator
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .decoders import (PredictionBundle, POOLED_HEADS, HEAD_WIDTHS,
                       staff_probabilities)
from .graph import build_graph, components, in_edges
from .hungarian import hungarian
from .notes import (DEFAULT_SPELLING_BY_PC, KEY_FIFTHS, N_KEY_CLASSES,
                    N_SPELLING, NODE_HEADS, NODE_LABELS, STEM_NONE, Score,
                    bar_at, labels_to_classes, spelling_of,
                    spelling_pitch_class, symbolic_duration_div)

# defaults of the two engraving settings (pair acceptance, pooled voice pairs)
DEFAULT_THRESHOLD = 0.5
DEFAULT_PAIR_AGG = "max"
PAIR_AGGS = ("max", "mean")

_PROB_FLOOR = 1e-12
# the pitch class each spelling class sounds, and each pitch class's default
_SPELLING_PC = np.array([spelling_pitch_class(c) for c in range(N_SPELLING)])
_DEFAULT_SPELLING = np.array([spelling_of(*DEFAULT_SPELLING_BY_PC[pc])
                              for pc in range(12)])


def check_engraving_settings(threshold: float, pair_agg: str) -> None:
    """Refuse a pair threshold outside (0, 1) or an unknown pair
    aggregation with ValueError."""
    if not 0.0 < threshold < 1.0:   # false for NaN too
        raise ValueError(f"threshold must be finite and in (0, 1), "
                         f"got {threshold!r}")
    if pair_agg not in PAIR_AGGS:
        raise ValueError(f"pair_agg must be one of {PAIR_AGGS}, "
                         f"got {pair_agg!r}")


class UnfillableGap(RuntimeError):
    def __init__(self, voice: int, bar_index: int, start_div: int, length_div: int):
        super().__init__(
            f"voice {voice}, bar {bar_index}: gap of {length_div} divisions "
            f"at {start_div} is not expressible as rests")
        self.voice = voice
        self.bar_index = bar_index
        self.start_div = start_div
        self.length_div = length_div


class PooledNode(NamedTuple):
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


class EngravedEvent(NamedTuple):
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


# tuple rows built without a Python frame per row, as ``_make`` needs one
_pool_row = functools.partial(tuple.__new__, PooledNode)
_event_row = functools.partial(tuple.__new__, EngravedEvent)


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

    def __post_init__(self) -> None:
        self.validate()     # every instance, ``dataclasses.replace`` copies too

    def timeline(self) -> tuple[list[EngravedEvent], np.ndarray]:
        """The events in (voice, onset) order, ties in stored order, and a
        read-only (4, events) int64 array of their voice, onset, duration
        and bar (-1 before bar 0) in that order. Computed once per
        instance: validation and export share it."""
        return self._timeline

    @functools.cached_property
    def _timeline(self) -> tuple[list[EngravedEvent], np.ndarray]:
        n = len(self.events)
        columns = np.empty((4, n), dtype=np.int64)
        for k, field in enumerate((0, 2, 3)):         # voice, onset, duration
            columns[k] = np.fromiter(map(operator.itemgetter(field),
                                         self.events), np.int64, n)
        order = np.lexsort((columns[1], columns[0]))
        columns = columns[:, order]
        columns[3] = np.searchsorted(self.score.bars[:, 0], columns[1],
                                     side="right") - 1
        columns.flags.writeable = False
        return list(map(self.events.__getitem__, order.tolist())), columns

    def validate(self) -> None:
        """Raise ValueError on the first fault: a note not covered exactly
        once, then the events' faults (``_first_event_fault``), then the
        keys, spellings and octave regions."""
        ids = np.fromiter(itertools.chain.from_iterable(
            map(operator.itemgetter(4), self.events)), np.int64)
        if not np.array_equal(np.sort(ids), np.arange(len(self.score.onset))):
            raise ValueError("events do not cover every note exactly once")
        fault = _first_event_fault(self.timeline()[1], self.score.bars)
        if fault is not None:
            raise ValueError(fault)
        if len(self.measure_keys) != self.score.num_bars:
            raise ValueError("one key per measure required")
        # the exporter writes each spelling as given: another pitch class's
        # would write another pitch
        spelling = np.asarray(self.spelling, dtype=np.int64)
        pitch_class = self.score.pitch % 12
        if (spelling.shape != pitch_class.shape
                or ((spelling < 0) | (spelling >= N_SPELLING)).any()):
            raise ValueError("one spelling class per note required")
        wrong = np.flatnonzero(_SPELLING_PC[spelling] != pitch_class)
        if len(wrong):
            i = wrong[0]
            raise ValueError(f"note {i}: spelling {spelling[i]} does not "
                             f"sound pitch class {pitch_class[i]}")
        for staff, regions in self.octave_regions.items():
            for start, end, shift in regions:
                if not 0 < shift < HEAD_WIDTHS["octave_shift"] or end <= start:
                    raise ValueError(f"bad octave region on staff {staff}")
            for (s1, e1, _), (s2, _, _) in zip(regions, regions[1:]):
                if s2 < e1:
                    raise ValueError(f"overlapping octave regions on staff {staff}")


def _first_event_fault(columns: np.ndarray, bars: np.ndarray) -> Optional[str]:
    """The refusal for the first fault in the timeline ``columns`` (voice,
    onset, duration, bar) of a score with the bar table ``bars``, or None.

    Voices are checked lowest first. Within a voice an onset before bar 0
    comes first, then an event crossing a barline, then two overlapping
    events, then the first bar, from the voice's first to its last, whose
    durations do not sum to its length.
    """
    voice, onset, duration, bar = columns
    if not len(voice):
        return None
    offset = onset + duration
    new_voice = np.diff(voice, prepend=voice[0] - 1) != 0
    rank = np.cumsum(new_voice)            # each event's voice, lowest first
    faults = []                            # (voice rank, check, message)

    early = np.flatnonzero(bar < 0)
    if len(early):
        i = early[0]
        faults.append((rank[i], 0, f"division {onset[i]} before bar 0"))
    bar = np.maximum(bar, 0)               # refused above when negative
    crossing = np.flatnonzero(offset > bars[bar, 0] + bars[bar, 1])
    if len(crossing):
        i = crossing[0]
        faults.append((rank[i], 1,
                       f"voice {voice[i]}: event crosses a barline"))
    overlap = np.flatnonzero((offset[:-1] > onset[1:]) & ~new_voice[1:])
    if len(overlap):
        i = overlap[0]
        faults.append((rank[i], 2, f"voice {voice[i]}: overlapping events"))

    # per (voice, bar) with events: the durations' sum, and whether bars with
    # none follow before the voice's next bar with events
    starts = np.flatnonzero(new_voice | (np.diff(bar, prepend=-1) != 0))
    total = np.add.reduceat(duration, starts)
    at = bar[starts]
    short = total != bars[at, 1]
    skips = np.append((at[1:] > at[:-1] + 1) & ~new_voice[starts[1:]], False)
    bad = np.flatnonzero(short | skips)
    if len(bad):
        k = bad[0]
        b, got = (at[k], total[k]) if short[k] else (at[k] + 1, 0)
        faults.append((rank[starts[k]], 3,
                       f"voice {voice[starts[k]]}, bar {b}: durations sum to "
                       f"{got}, bar length is {bars[b, 1]}"))
    return min(faults)[2] if faults else None


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
    decided["tuplet"] = np.asarray(NODE_LABELS["tuplet"][1])[decided["tuplet"]]
    # the pools in (onset, staff, first id) order, built from plain ints
    first = order[starts]
    staff, onset = staff_pred[first], score.onset[first]
    place = np.lexsort((first, staff, onset))
    ids = order.tolist()
    runs = zip(starts[place].tolist(), (starts + counts)[place].tolist())
    return list(map(_pool_row, zip(
        [tuple(ids[begin:end]) for begin, end in runs],
        onset[place].tolist(), score.duration[first][place].tolist(),
        staff[place].tolist(),
        *(decided[head][place].tolist() for head in PooledNode._fields[4:]))))


# --- step 2: voice assignment ---

@dataclasses.dataclass
class VoiceStream:
    """One voice's pools, ``pool_indices`` ascending, so in onset order;
    finalize keeps their order, and validation refuses a stream out of it."""
    staff: int
    pool_indices: list[int]


def _pool_pair_probabilities(pools: list[PooledNode], bundle: PredictionBundle,
                             pair_agg: str, keep=None
                             ) -> tuple[np.ndarray, np.ndarray]:
    """P(pool b follows pool a) as ascending keys ``a * len(pools) + b`` and
    their probabilities: the max or mean over the voice probabilities of
    their member pairs, taken in (u, w) order, clamped to [floor,
    1 - floor]. Pools with no candidate pair between them have no key, and
    with ``keep`` (a mask from the member pairs' pool arrays a and b) no
    pair it drops. The bundle's voice pairs are ascending by (u, w), so one
    stable sort by key keeps each key's member pairs in that order."""
    n_pools = len(pools)
    ids = list(map(operator.itemgetter(0), pools))
    pool_of = np.full(bundle.note_count, -1, dtype=np.int64)
    pool_of[np.fromiter(itertools.chain.from_iterable(ids), np.int64)] = \
        np.repeat(np.arange(n_pools), list(map(len, ids)))
    pairs = bundle.voice_pairs
    pu, pw = pool_of[pairs[:, 0]], pool_of[pairs[:, 1]]
    inside = (pu >= 0) & (pw >= 0)
    if keep is not None:
        inside[inside] = keep(pu[inside], pw[inside])
    keys = (pu * n_pools + pw)[inside]
    if not len(keys):
        return keys, np.zeros(0)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    probs = bundle.voice_probs[inside][order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    if pair_agg == "max":
        agg = np.maximum.reduceat(probs, starts)
    else:
        agg = np.add.reduceat(probs, starts) / np.diff(starts, append=len(keys))
    return keys[starts], np.minimum(np.maximum(agg, _PROB_FLOOR),
                                    1.0 - _PROB_FLOOR)


def _conflict_assignment(lasts: list[int], group: list[int], pair_prob: dict,
                         n_pools: int, dummy_cost: float) -> list:
    """The exact assignment of one onset group: the Hungarian algorithm on
    -log(probability) costs between the eligible streams' last pools and the
    group's pools, padded square with dummies priced at ``dummy_cost``.
    Returns, per stream, the pool it continues to, or None when it ends."""
    r, c = len(lasts), len(group)
    cost = np.full((r + c, r + c), dummy_cost)
    cost[:r, :c] = [[-math.log(pair_prob.get(a * n_pools + b, _PROB_FLOOR))
                     for b in group] for a in lasts]
    return [group[j] if j < c else None for j in hungarian(cost)[:r]]


def assign_voices(pools: list[PooledNode], bundle: PredictionBundle,
                  threshold: float, pair_agg: str) -> list[VoiceStream]:
    """Chain pooled nodes into monophonic per-staff voice streams, ordered
    by (staff, first pool); ``pools`` come in onset order."""
    check_engraving_settings(threshold, pair_agg)
    n_pools = len(pools)
    if not n_pools:
        return []
    theta = min(max(threshold, _PROB_FLOOR), 1.0 - _PROB_FLOOR)
    dummy_cost = -math.log(theta)
    # the onset groups in (staff, onset) order, each a run of ``by_group``
    onset, duration, staff = map(np.array, list(zip(*pools))[1:4])
    by_group = np.lexsort((onset, staff))
    new = np.ones(n_pools, dtype=bool)
    new[1:] = (np.diff(staff[by_group]) != 0) | (np.diff(onset[by_group]) != 0)
    starts = np.flatnonzero(new)
    group_of = np.empty(n_pools, dtype=np.int64)
    group_of[by_group] = np.cumsum(new) - 1
    group_onset, group_staff = onset[by_group[starts]], staff[by_group[starts]]
    # a stream ending at pool a is decided at a's end group, the first group
    # of its staff at or after a's offset: it continues there or ends
    end_group = np.full(n_pools, -1)
    for s in (0, 1):
        low, high = np.searchsorted(group_staff, (s, s + 1))
        mine = staff == s
        g = low + np.searchsorted(group_onset[low:high],
                                  (onset + duration)[mine])
        end_group[mine] = np.where(g < high, g, -1)
    # only a pair into its first pool's end group can ever be matched
    keys, probs = _pool_pair_probabilities(
        pools, bundle, pair_agg, keep=lambda a, b: group_of[b] == end_group[a])

    # The pairs that beat the dummy or tie it. Below theta * (1 - 1e-9) a
    # pair costs more than the dummy by far more than rounding, and above
    # theta * (1 + 1e-9) less, so only the pairs between take their log. A
    # cost equal to the dummy's is a tie, which only the solver may break.
    a, b = np.divmod(keys, n_pools)
    near = probs >= theta * (1.0 - 1e-9)
    win = near & (probs > theta * (1.0 + 1e-9))
    tie = np.zeros_like(win)
    for k in np.flatnonzero(near & ~win).tolist():
        cost = -math.log(probs[k])
        win[k], tie[k] = cost < dummy_cost, cost == dummy_cost
    # Where no voice end has two winners, no pool is won twice and no pair
    # ties, the winners alone are the optimum; the other groups conflict.
    win_a, win_b = a[win], b[win]                    # win_a is ascending
    conflict = np.zeros(len(starts), dtype=bool)
    conflict[end_group[win_a[1:][win_a[1:] == win_a[:-1]]]] = True
    conflict[group_of[win_b[np.bincount(win_b, minlength=n_pools)[win_b]
                            > 1]]] = True
    conflict[group_of[b[tie]]] = True
    forced = ~conflict[group_of[win_b]]
    pred = np.full(n_pools, -1)
    pred[win_b[forced]] = win_a[forced]
    # each pool's chain of forced links, named by its first pool
    head = np.where(pred >= 0, pred, np.arange(n_pools))
    while not np.array_equal(hop := head[head], head):
        head = hop

    # The conflicts, earlier groups first, so each voice end's stream is
    # complete and the solver sees them in the order their streams began.
    # ``first`` names each chain's stream by its first pool.
    first = list(range(n_pools))
    if conflict.any():
        pair_prob = dict(zip(keys.tolist(), probs.tolist()))
        head_of = head.tolist()
        bounds = np.append(starts, n_pools).tolist()
        for g in np.flatnonzero(conflict).tolist():
            lasts = sorted(np.flatnonzero(end_group == g).tolist(),
                           key=lambda end: first[head_of[end]])
            group = by_group[bounds[g]:bounds[g + 1]].tolist()
            for last, nxt in zip(lasts, _conflict_assignment(
                    lasts, group, pair_prob, n_pools, dummy_cost)):
                if nxt is not None:
                    first[nxt] = first[head_of[last]]
    root = np.array(first)[head]
    order = np.lexsort((root, staff))           # chains keep onset order
    cuts = np.flatnonzero(np.diff(root[order], prepend=-1)).tolist()
    members = order.tolist()
    return [VoiceStream(staff=s, pool_indices=members[i:j])
            for s, i, j in zip(staff[order[cuts]].tolist(), cuts,
                               cuts[1:] + [n_pools])]


def number_voices(streams: list[VoiceStream], pools: list[PooledNode],
                  pitch: np.ndarray) -> dict[int, VoiceStream]:
    """Assign MusicXML voice numbers: 1.. on the upper staff, 5.. on the lower.

    Within a staff, voices are ordered by first onset, then by descending
    top ``pitch`` of the first chord (the melody gets the lowest number), with
    note ids as the final tiebreak. Numbers may exceed the 4-per-staff
    serialization budget; the exporter enforces that bound. When the upper
    staff overflows its block, the lower staff starts after it so numbers
    stay unique. The keys come in ascending order, the upper staff's first.
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

@functools.lru_cache(maxsize=8)
def _rest_vocabulary(divisions: int) -> tuple[tuple[int, int, int], ...]:
    """(duration_div, type_index, dots) of every plain rest symbol, longest
    first; computed once per ``divisions``."""
    out = []
    for type_index in NODE_LABELS["note_type"][1]:
        for dots in NODE_LABELS["dots"][1]:
            div = symbolic_duration_div(type_index, dots, 1, divisions)
            if div is not None:
                out.append((div, type_index, dots))
    out.sort(key=lambda t: -t[0])
    return tuple(out)


def decompose_gap(start_div: int, length_div: int, bar_onset_div: int,
                  vocabulary: tuple[tuple[int, int, int], ...]
                  ) -> Optional[list[tuple[int, int, int]]]:
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


def _voice_events(voice: int, staff: int, rows: Iterable[PooledNode],
                  bars: list, vocabulary: tuple[tuple[int, int, int], ...]
                  ) -> list[EngravedEvent]:
    """One voice's events: its pools ``rows`` in onset order, and the rests
    that fill the gaps before, between and after them, split at barlines,
    from the start of the first pool's bar to the end of the last one's."""
    ids, onset, duration, _, *heads = zip(*rows)
    notes = list(map(_event_row, zip(
        itertools.repeat(voice), itertools.repeat(staff), onset, duration,
        ids, *heads)))
    first_onset = bars[bar_at(bars, onset[0])][0]
    last_onset, last_length = bars[bar_at(bars, onset[-1])]
    span_end = last_onset + last_length
    # the gap before pool k is [starts[k], ends[k]); the last, after them all
    starts = [first_onset, *map(operator.add, onset, duration)]
    ends = [*onset, span_end]
    events: list[EngravedEvent] = []
    done = 0
    for k in itertools.compress(range(len(starts)),
                                map(operator.lt, starts, ends)):
        events += notes[done:k]
        done = k
        start, end = starts[k], min(ends[k], span_end)
        b = bar_at(bars, start)
        while start < end:
            bar_onset, bar_length = bars[b]
            stop = min(end, bar_onset + bar_length)
            rests = decompose_gap(start, stop - start, bar_onset, vocabulary)
            if rests is None:
                raise UnfillableGap(voice, b, start, stop - start)
            for div, type_index, dots in rests:
                events.append(_event_row((voice, staff, start, div, (),
                                          type_index, dots, 1, STEM_NONE)))
                start += div
            b += 1
    if onset[-1] >= span_end:
        raise ValueError(f"voice {voice}: events outside its bar span")
    return events + notes[done:]


# --- step 3 + 4: unpooling, smoothing, infilling ---

def _group_votes(values: np.ndarray, group: np.ndarray, n_groups: int,
                 width: int) -> np.ndarray:
    """(groups x classes) vote counts: how many of each group's members
    (``group`` gives each member's group) hold each class in ``values``."""
    return np.bincount(group * width + values, minlength=n_groups * width
                       ).reshape(n_groups, width)


def _measure_keys(counts: np.ndarray) -> tuple[int, ...]:
    """Each measure's key fifths from its row of (measures x key classes)
    vote ``counts``: the majority; on a tie the previous measure's key if
    tied, else the tied key nearest to it, the lower of two; a measure
    without votes keeps the previous key. The key before the first measure
    is 0. Only tied measures are decided one by one."""
    fifths = np.asarray(KEY_FIFTHS)
    top = counts.max(axis=1)
    keys = fifths[counts.argmax(axis=1)]
    # each measure's last measure with votes, itself included; -1 for none
    voted = np.flatnonzero(top)
    last = np.full(len(counts), -1)
    last[voted] = voted
    last = np.maximum.accumulate(last)
    tied = counts == top[:, None]
    for m in voted[tied[voted].sum(axis=1) > 1].tolist():
        before = last[m - 1] if m else -1
        previous = int(keys[before]) if before >= 0 else 0
        options = fifths[tied[m]].tolist()
        if previous not in options:
            previous = min(options, key=lambda f: (abs(f - previous), f))
        keys[m] = previous
    return tuple(np.where(last >= 0, keys[last], 0).tolist())


def unpool_and_finalize(numbered: dict[int, VoiceStream],
                        pools: list[PooledNode], bundle: PredictionBundle,
                        score: Score) -> EngravedScore:
    """Decide keys, clefs, octave shifts and spellings, and write each
    voice's events with its rests. The events come voice by voice in
    ``numbered``'s order, each voice in onset order, so numbers in ascending
    order, as ``number_voices`` gives them, store them in (voice, onset)
    order."""
    # a pool's notes share their predicted staff, so each note keeps its own
    staff = bundle.staff()
    clef_raw = bundle.argmax("clef")
    shift_raw = bundle.argmax("octave_shift")

    measure_keys = _measure_keys(_group_votes(
        bundle.argmax("key"), score.bar, score.num_bars, N_KEY_CLASSES))

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
        raw = clef_raw[ids]
        padded = np.concatenate((raw[:1], raw, raw[-1:]))
        low, high = padded[:-2], padded[2:]
        filtered = np.maximum(np.minimum(low, raw),
                              np.minimum(np.maximum(low, raw), high))
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
    bars = score.bars.tolist()
    vocabulary = _rest_vocabulary(score.divisions_per_quarter)
    events: list[EngravedEvent] = []
    voice_staff: dict[int, int] = {}
    for voice, stream in numbered.items():
        voice_staff[voice] = stream.staff
        events += _voice_events(voice, stream.staff,
                                map(pools.__getitem__, stream.pool_indices),
                                bars, vocabulary)

    # the written spelling: the predicted class if it sounds the pitch
    pitch_class = score.pitch % 12
    spelling = bundle.argmax("spelling")
    spelling = np.where(_SPELLING_PC[spelling] == pitch_class, spelling,
                        _DEFAULT_SPELLING[pitch_class])

    return EngravedScore(
        score=score, staff=tuple(staff.tolist()),
        spelling=tuple(spelling.tolist()),
        octave_shift=tuple(octave_shift.tolist()), clef=tuple(clef.tolist()),
        events=tuple(events), measure_keys=measure_keys,
        clef_regions=clef_regions, octave_regions=octave_regions,
        voice_staff=voice_staff)


def engrave(bundle: PredictionBundle, score: Score,
            threshold: float = DEFAULT_THRESHOLD,
            pair_agg: str = DEFAULT_PAIR_AGG) -> EngravedScore:
    """The full decode pipeline: pool chords, chain voices, unpool, fill.
    ``bundle`` must pass ``PredictionBundle.validate``; it is not checked
    again here."""
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
    voice_pairs, chord_pairs = graph.candidate_pairs, graph.chord_pairs
    voice_probs = np.where(in_edges(voice_pairs, score.labels.voice_edges, n),
                           0.99, 0.01)
    chord_probs = np.where(in_edges(chord_pairs, score.labels.chord_edges, n),
                           0.99, 0.01)
    return PredictionBundle(note_logits=note_logits, staff_probs=staff_probs,
                            voice_pairs=voice_pairs, voice_probs=voice_probs,
                            chord_pairs=chord_pairs, chord_probs=chord_probs)


def engrave_from_labels(score: Score) -> EngravedScore:
    return engrave(perfect_bundle(score), score)

