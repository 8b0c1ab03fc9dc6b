"""Score graph construction: typed edges, node features, voice candidates.

The input graph has four forward relations over notes, plus an inverse for
each (8 relation types). For ``offset(u) = onset(u) + duration(u)``:

* ``onset(u, v)``   — same onset; one forward edge per unordered pair
  (canonical order), mirrored by the inverse relation.
* ``during(u, v)``  — v starts strictly inside u: onset(u) < onset(v) < offset(u).
* ``follow(u, v)``  — v starts exactly where u ends: onset(v) = offset(u).
* ``silence(u, v)`` — v's onset is the first one after offset(u) and nothing
  sounds in between (edges across a true rest gap, first onset group only).

The voice-candidate set contains ordered pairs (u, w) with
``offset(u) <= onset(w)`` in the same bar, plus — with the cross-bar
extension on (default) — pairs where w sits on the downbeat of the next bar.
"""

from __future__ import annotations

import collections
import dataclasses
import heapq
import json

import numpy as np

from .notes import Score, compute_features

EDGE_TYPES = ("onset", "during", "follow", "silence")
RELATIONS = EDGE_TYPES + tuple(f"{t}_inv" for t in EDGE_TYPES)


class EmptyScore(ValueError):
    pass


def _empty_edges() -> tuple[np.ndarray, np.ndarray]:
    return (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))


@dataclasses.dataclass(frozen=True)
class ScoreGraph:
    """Typed adjacency + feature matrix + voice-candidate pairs for one score."""

    node_count: int
    features: np.ndarray                  # (node_count, 17)
    edges: dict                           # relation -> (src array, dst array)
    candidate_pairs: np.ndarray           # (m, 2) int64 voice candidates, by (u, w)
    note_order: np.ndarray                # permutation by (onset_div, midi_pitch)

    def validate(self) -> None:
        n = self.node_count
        if self.features.shape != (n, self.features.shape[1]):
            raise ValueError("feature matrix row count mismatch")
        if set(self.edges) != set(RELATIONS):
            raise ValueError("relation set mismatch")
        for rel in EDGE_TYPES:
            src, dst = self.edges[rel]
            isrc, idst = self.edges[f"{rel}_inv"]
            if len(src) != len(isrc):
                raise ValueError(f"|{rel}_inv| != |{rel}|")
            fwd = set(zip(src.tolist(), dst.tolist()))
            if fwd != set(zip(idst.tolist(), isrc.tolist())):
                raise ValueError(f"{rel}_inv is not the mirror of {rel}")
            for u, v in fwd:
                if not (0 <= u < n and 0 <= v < n):
                    raise ValueError(f"{rel} edge ({u},{v}) out of range")
                if u == v:
                    raise ValueError(f"{rel} self-loop at {u}")
        if sorted(self.note_order.tolist()) != list(range(n)):
            raise ValueError("note_order is not a permutation")


def as_pairs(pairs) -> np.ndarray:
    """Pairs of note ids as an (m, 2) int64 array (m may be 0)."""
    arr = np.asarray(pairs, dtype=np.int64)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"pairs must be (m, 2), got shape {arr.shape}")
    return arr


def pair_keys(pairs: np.ndarray, n: int) -> np.ndarray:
    """One integer per pair, u * n + w; sorted pairs give sorted keys."""
    return pairs[:, 0] * n + pairs[:, 1]


def in_edges(pairs: np.ndarray, edges, n: int) -> np.ndarray:
    """Whether each pair is one of ``edges``, (u, w) tuples of ids in [0, n)."""
    truth = as_pairs(list(edges))
    if truth.size and (truth.min() < 0 or truth.max() >= n):
        raise ValueError(f"an edge joins a note outside [0, {n})")
    return np.isin(pair_keys(pairs, n), pair_keys(truth, n))


def candidate_pairs(score: Score, cross_bar: bool = True) -> np.ndarray:
    """The candidate set: ordered (u, w) pairs a voice edge may connect.

    Notes are in onset order (``Score.validate``), so the partners of u are
    one run of ids: those with onset(w) in [offset(u), end of u's bar), plus
    with ``cross_bar`` the notes on the next bar's downbeat. Two
    ``searchsorted`` calls find every run; the result is (m, 2) int64 in
    (u, w) order, the same as the pairwise scan over all notes.
    """
    notes = score.notes
    onsets = np.array([x.onset_div for x in notes], dtype=np.int64)
    offsets = np.array([x.offset_div for x in notes], dtype=np.int64)
    bar_ends = np.array([x.bar_onset_div + x.bar_duration_div for x in notes],
                        dtype=np.int64)
    lo = np.searchsorted(onsets, offsets, side="left")
    hi = np.searchsorted(onsets, bar_ends, side="right" if cross_bar else "left")
    counts = np.maximum(hi - lo, 0)
    u = np.repeat(np.arange(len(notes), dtype=np.int64), counts)
    first = np.cumsum(counts) - counts          # where each run starts in w
    w = np.arange(len(u), dtype=np.int64) + np.repeat(lo - first, counts)
    return np.stack([u, w], axis=1)


def build_graph(score: Score, cross_bar: bool = True) -> ScoreGraph:
    notes = score.notes
    n = len(notes)
    if n == 0:
        raise EmptyScore("cannot build a graph from a score with no notes")

    features = np.array([compute_features(note).as_row() for note in notes])
    onsets = np.array([note.onset_div for note in notes])
    pitches = np.array([note.midi_pitch for note in notes])
    note_order = np.lexsort((pitches, onsets)).astype(np.int64)

    groups: "collections.OrderedDict[int, list[int]]" = collections.OrderedDict()
    for i in note_order.tolist():
        groups.setdefault(int(onsets[i]), []).append(i)

    onset_e: list[tuple[int, int]] = []
    during_e: list[tuple[int, int]] = []
    follow_e: list[tuple[int, int]] = []
    silence_e: list[tuple[int, int]] = []

    ends_at: dict[int, list[int]] = collections.defaultdict(list)
    sounding: list[tuple[int, int]] = []  # heap of (offset, id), onset < current
    prev_max_offset: int | None = None

    for t, group in groups.items():
        # same-onset pairs, one direction (id order = onset,pitch order)
        for a in range(len(group)):
            for b in range(a + 1, len(group)):
                onset_e.append((group[a], group[b]))
        # notes still sounding strictly across t
        while sounding and sounding[0][0] <= t:
            heapq.heappop(sounding)
        for _, u in sorted(sounding):
            for v in group:
                during_e.append((u, v))
        # first onset group after a truly silent gap
        if prev_max_offset is not None and prev_max_offset < t:
            for u in sorted(ends_at.get(prev_max_offset, ())):
                for v in group:
                    silence_e.append((u, v))
        for v in group:
            note = notes[v]
            heapq.heappush(sounding, (note.offset_div, v))
            ends_at[note.offset_div].append(v)
            prev_max_offset = (note.offset_div if prev_max_offset is None
                               else max(prev_max_offset, note.offset_div))

    onset_ids = set(groups)
    for u in range(n):
        if notes[u].offset_div in onset_ids:
            for v in groups[notes[u].offset_div]:
                follow_e.append((u, v))

    def pack(pairs: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
        if not pairs:
            return _empty_edges()
        arr = np.array(sorted(pairs), dtype=np.int64)
        return (arr[:, 0].copy(), arr[:, 1].copy())

    edges: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for rel, pairs in (("onset", onset_e), ("during", during_e),
                       ("follow", follow_e), ("silence", silence_e)):
        src, dst = pack(pairs)
        edges[rel] = (src, dst)
        edges[f"{rel}_inv"] = (dst.copy(), src.copy())

    graph = ScoreGraph(node_count=n, features=features, edges=edges,
                       candidate_pairs=candidate_pairs(score, cross_bar),
                       note_order=note_order)
    graph.validate()
    return graph


def chord_candidate_pairs(graph: ScoreGraph) -> np.ndarray:
    """All unordered same-onset pairs (u < v), i.e. the forward onset edges,
    as an (m, 2) int64 array in (u, v) order."""
    return np.stack(graph.edges["onset"], axis=1)


@dataclasses.dataclass(frozen=True)
class CandidateCoverage:
    """How many ground-truth voice edges the candidate set contains."""

    total_truth_edges: int
    covered: int
    missing: tuple[tuple[int, int], ...]

    @property
    def fraction(self) -> float:
        return self.covered / self.total_truth_edges if self.total_truth_edges else 1.0

    def __str__(self) -> str:
        return (f"candidate coverage: {self.covered}/{self.total_truth_edges} "
                f"({self.fraction:.1%}), missing={list(self.missing)}")


def coverage_report(score: Score, cross_bar: bool = True) -> CandidateCoverage:
    if score.labels is None:
        raise ValueError("coverage_report needs ground-truth labels")
    lam = set(map(tuple, candidate_pairs(score, cross_bar).tolist()))
    truth = sorted(score.labels.voice_edges)
    missing = tuple((u, w) for u, w in truth if (u, w) not in lam)
    return CandidateCoverage(total_truth_edges=len(truth),
                             covered=len(truth) - len(missing),
                             missing=missing)


def dump_graph_jsonl(graph: ScoreGraph) -> str:
    """One edge per line (relation, src, dst) for debugging."""
    lines = []
    for rel in RELATIONS:
        src, dst = graph.edges[rel]
        for u, v in zip(src.tolist(), dst.tolist()):
            lines.append(json.dumps({"relation": rel, "src": u, "dst": v}))
    return "\n".join(lines) + ("\n" if lines else "")
