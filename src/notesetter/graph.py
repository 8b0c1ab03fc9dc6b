"""Score graph: one typed edge list, node features, voice and chord candidates.

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
The chord-candidate set holds every unordered same-onset pair (u < w): the
forward onset edges, kept apart as ``ScoreGraph.chord_pairs`` when the graph
is built.

Every relation is built as index runs. ``make_score`` keeps notes in
(onset, pitch) order with ids 0..n-1, so for each u the partners of every
relation form one contiguous run of ids ``[lo[u], hi[u])``, found by
``np.searchsorted`` over the onsets; ``_runs`` expands the runs into (u, w)
arrays in (u, w) order. With ``on``/``off`` the onset and offset arrays:

* onset:   ``[u + 1, end of u's onset group)``
* during:  ``[end of u's onset group, first onset >= off[u])``
* follow:  ``[first onset >= off[u], first onset > off[u])``
* silence: the onset group right after ``off[u]``, when ``off[u]`` lies
  strictly before it and is the latest offset of every note starting
  before it (``np.maximum.accumulate(off)``): then nothing sounds in the gap.
* voice candidates: ``[first onset >= off[u], end of u's bar)``, with
  ``cross_bar`` up to the end of the next bar's downbeat group.
"""

from __future__ import annotations

import dataclasses
import functools
import json

import numpy as np

from .autodiff import ConvPlan, PairPlan
from .notes import Score, node_features

EDGE_TYPES = ("onset", "during", "follow", "silence")
RELATIONS = EDGE_TYPES + tuple(f"{t}_inv" for t in EDGE_TYPES)


class EmptyScore(ValueError):
    pass


@dataclasses.dataclass(frozen=True)
class ScoreGraph:
    """Typed edge list + feature matrix + candidate pairs for one score.

    Edge e runs from src[e] to dst[e] in relation ``RELATIONS[rel[e]]``. The
    forward relations come first, in ``RELATIONS`` order, each in (src, dst)
    order; then each inverse, as its forward edges swapped, in the same order.
    The pair heads read ``candidate_pairs`` (voice) and ``chord_pairs``
    (chord, the forward onset edges as pairs).
    """

    node_count: int
    features: np.ndarray                  # (node_count, 17)
    src: np.ndarray                       # (E,) int64 source note ids
    dst: np.ndarray                       # (E,) int64 destination note ids
    rel: np.ndarray                       # (E,) int64 index into RELATIONS
    candidate_pairs: np.ndarray           # (m, 2) int64 voice candidates, by (u, w)
    chord_pairs: np.ndarray               # (m, 2) int64 same-onset (u, w), u < w

    @functools.cached_property
    def conv_plan(self) -> ConvPlan:
        """The edge list grouped for the encoder's convolutions, built on
        first use and kept with the graph (training reuses it every epoch)."""
        return ConvPlan(self.src, self.dst, self.rel, self.node_count, len(RELATIONS))

    @functools.cached_property
    def pair_plans(self) -> tuple[PairPlan, PairPlan]:
        """The voice and the chord pairs planned for the pair heads, built on
        first use and kept with the graph, as ``conv_plan`` is."""
        return tuple(PairPlan(pairs[:, 0], pairs[:, 1])
                     for pairs in (self.candidate_pairs, self.chord_pairs))

    def edges(self, relation: str) -> tuple[np.ndarray, np.ndarray]:
        """One relation's (src, dst) arrays, in the order stored."""
        mask = self.rel == RELATIONS.index(relation)
        return self.src[mask], self.dst[mask]

    def validate(self) -> None:
        n = self.node_count
        if self.features.shape != (n, self.features.shape[1]):
            raise ValueError("feature matrix row count mismatch")
        if not len(self.src) == len(self.dst) == len(self.rel):
            raise ValueError("src, dst and rel differ in length")
        ids = np.concatenate([self.src, self.dst])
        if ids.size and (ids.min() < 0 or ids.max() >= n):
            raise ValueError(f"an edge joins a note outside [0, {n})")
        if self.rel.size and (self.rel.min() < 0 or self.rel.max() >= len(RELATIONS)):
            raise ValueError("a relation index is out of range")
        loops = self.src[self.src == self.dst]
        if loops.size:
            raise ValueError(f"self-loop at note {loops[0]}")


def as_pairs(pairs) -> np.ndarray:
    """Pairs of note ids as an (m, 2) int64 array (m may be 0)."""
    arr = np.asarray(pairs, dtype=np.int64)
    if arr.size == 0:
        return np.zeros((0, 2), np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"pairs must be (m, 2), got shape {arr.shape}")
    return arr


def components(n: int, pairs: np.ndarray) -> np.ndarray:
    """The smallest id in each of notes 0..n-1's connected component under
    the (m, 2) edge array ``pairs``: labels are lowered across edges and
    through one another until nothing changes."""
    u, w = pairs[:, 0], pairs[:, 1]
    label = np.arange(n)
    while True:
        low = np.minimum(label[u], label[w])
        lowered = label.copy()
        np.minimum.at(lowered, u, low)
        np.minimum.at(lowered, w, low)
        lowered = lowered[lowered]
        if (lowered == label).all():
            return label
        label = lowered


def pair_keys(pairs: np.ndarray, n: int) -> np.ndarray:
    """One integer per pair, u * n + w; sorted pairs give sorted keys."""
    return pairs[:, 0] * n + pairs[:, 1]


def in_edges(pairs: np.ndarray, edges, n: int) -> np.ndarray:
    """Whether each pair is one of ``edges``, (u, w) tuples of ids in [0, n)."""
    truth = as_pairs(list(edges))
    if truth.size and (truth.min() < 0 or truth.max() >= n):
        raise ValueError(f"an edge joins a note outside [0, {n})")
    return np.isin(pair_keys(pairs, n), pair_keys(truth, n))


def _runs(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (u, w) with w in [lo[u], hi[u]), as int64 arrays in (u, w)
    order; an empty or reversed range contributes nothing."""
    counts = np.maximum(hi - lo, 0)
    u = np.repeat(np.arange(len(lo), dtype=np.int64), counts)
    first = np.cumsum(counts) - counts          # where each run starts in w
    w = np.arange(len(u), dtype=np.int64) + np.repeat(lo - first, counts)
    return u, w


def _times(score: Score) -> tuple[np.ndarray, np.ndarray]:
    """Onset and offset of every note, as int64 arrays in id order."""
    return score.onset, score.onset + score.duration


def relation_edges(score: Score) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """The four forward relations, each as (src, dst) int64 arrays in
    (src, dst) order (see the module docstring for the runs)."""
    on, off = _times(score)
    group_end = np.searchsorted(on, on, side="right")
    next_on = np.searchsorted(on, off, side="left")    # first onset >= off[u]
    after_off = np.searchsorted(on, off, side="right")  # first onset > off[u]
    # silence: the group at next_on starts after off[u], and no note that
    # starts before that group ends after off[u]; next_on >= u + 1 >= 1, and
    # the clipped j fails on[j] > off[u] when no onset follows off[u]
    j = np.minimum(next_on, len(on) - 1)
    silent = (on[j] > off) & (np.maximum.accumulate(off)[next_on - 1] == off)
    silence_hi = np.where(silent, group_end[j], next_on)
    return {"onset": _runs(np.arange(1, len(on) + 1), group_end),
            "during": _runs(group_end, next_on),
            "follow": _runs(next_on, after_off),
            "silence": _runs(next_on, silence_hi)}


def candidate_pairs(score: Score, cross_bar: bool = True) -> np.ndarray:
    """The candidate set: ordered (u, w) pairs a voice edge may connect, as
    an (m, 2) int64 array in (u, w) order (runs: see the module docstring)."""
    onsets, offsets = _times(score)
    bar_ends = score.bars.sum(axis=1)[score.bar]
    lo = np.searchsorted(onsets, offsets, side="left")
    hi = np.searchsorted(onsets, bar_ends, side="right" if cross_bar else "left")
    return np.stack(_runs(lo, hi), axis=1)


def build_graph(score: Score, cross_bar: bool = True) -> ScoreGraph:
    if not len(score.onset):
        raise EmptyScore("cannot build a graph from a score with no notes")
    edges = relation_edges(score)
    forward = list(edges.values())
    counts = [len(src) for src, _ in forward]
    graph = ScoreGraph(
        node_count=len(score.onset), features=node_features(score),
        src=np.concatenate([src for src, _ in forward] + [dst for _, dst in forward]),
        dst=np.concatenate([dst for _, dst in forward] + [src for src, _ in forward]),
        rel=np.repeat(np.arange(len(RELATIONS), dtype=np.int64), counts + counts),
        candidate_pairs=candidate_pairs(score, cross_bar),
        chord_pairs=np.stack(edges["onset"], axis=1))
    graph.validate()
    return graph


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
    """One edge per line (relation, src, dst), in the order stored."""
    lines = [json.dumps({"relation": RELATIONS[r], "src": u, "dst": v})
             for r, u, v in zip(graph.rel.tolist(), graph.src.tolist(),
                                graph.dst.tolist())]
    return "\n".join(lines) + ("\n" if lines else "")
