"""Oracle tests for score-graph construction and voice candidates.

The seven-note score below was worked out entirely by hand; every edge set
is [DERIVED] from the frozen relation rules:
  onset(u,v)   iff onset(u) = onset(v), u != v
  during(u,v)  iff onset(u) < onset(v) < offset(u)
  follow(u,v)  iff offset(u) = onset(v), onset(v) minimal onset >= offset(u)
  silence(u,v) iff offset(u) < onset(v), onset(v) minimal onset > offset(u),
                nothing sounding in between
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from notesetter.graph import (EDGE_TYPES, RELATIONS, CandidateCoverage,
                              EmptyScore, build_graph, candidate_pairs,
                              components, coverage_report, dump_graph_jsonl)
from notesetter.notes import (LabelSet, TimeSignature, bar_table, make_score,
                              node_features)
from notesetter.pipeline import prediction_dump
from notesetter.postprocess import perfect_bundle
from notesetter.synth import random_score

# [DERIVED] hand score: divisions 2, 4/4 (bar = 8 divisions), 2 bars.
# id: (onset, dur, midi) after canonical sorting by (onset, midi):
#   0=(0,4,60) 1=(0,4,64) 2=(2,2,67) 3=(4,2,62) 4=(7,1,65)
#   5=(8,8,59) 6=(10,2,72)
HAND_TRIPLES = [(0, 4, 60), (0, 4, 64), (2, 2, 67), (4, 2, 62), (7, 1, 65),
                (8, 8, 59), (10, 2, 72)]

HAND_EDGES = {
    "onset": {(0, 1)},
    "during": {(0, 2), (1, 2), (5, 6)},
    "follow": {(0, 3), (1, 3), (2, 3), (4, 5)},
    "silence": {(3, 4)},
}

HAND_LAMBDA_CROSS = {(0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5),
                     (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)}
HAND_LAMBDA_STRICT = {(0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)}


def hand_score(labels=None):
    return make_score(2, [(0, 4, 4)], HAND_TRIPLES, labels=labels, name="hand")


def edge_set(graph, relation):
    src, dst = graph.edges(relation)
    return set(zip(src.tolist(), dst.tolist()))


def edge_list(graph, relation):
    """A relation's edges as (src, dst) tuples, in the order stored."""
    src, dst = graph.edges(relation)
    assert src.dtype == dst.dtype == np.int64
    return list(zip(src.tolist(), dst.tolist()))


def pair_set(pairs):
    """An (m, 2) pair array as a set of (u, w) tuples."""
    assert pairs.dtype == np.int64 and pairs.shape == (len(pairs), 2)
    return set(map(tuple, pairs.tolist()))


def test_relation_vocabulary():
    assert EDGE_TYPES == ("onset", "during", "follow", "silence")
    assert len(RELATIONS) == 8
    for rel in EDGE_TYPES:
        assert rel in RELATIONS
        assert f"{rel}_inv" in RELATIONS


def test_hand_score_edges():
    graph = build_graph(hand_score())
    assert graph.node_count == 7
    for rel, expected in HAND_EDGES.items():
        assert edge_set(graph, rel) == expected, rel
        inverse = {(b, a) for a, b in expected}
        assert edge_set(graph, f"{rel}_inv") == inverse, rel


def test_hand_score_candidates_cross_bar():
    assert pair_set(candidate_pairs(hand_score(), cross_bar=True)) \
        == HAND_LAMBDA_CROSS
    graph = build_graph(hand_score(), cross_bar=True)
    assert pair_set(graph.candidate_pairs) == HAND_LAMBDA_CROSS


def test_hand_score_candidates_strict():
    assert pair_set(candidate_pairs(hand_score(), cross_bar=False)) \
        == HAND_LAMBDA_STRICT


def test_feature_matrix_matches_node_features():
    score = hand_score()
    graph = build_graph(score)
    assert graph.features.shape == (7, 17)
    np.testing.assert_array_equal(graph.features, node_features(score))
    for note in score.notes:      # each row depends only on its own note
        alone = make_score(2, [(0, 4, 4)], [(note.onset_div, note.duration_div,
                                             note.midi_pitch)])
        np.testing.assert_array_equal(graph.features[note.id],
                                      node_features(alone)[0])


def test_single_note_score():
    score = make_score(2, [(0, 4, 4)], [(0, 4, 60)])
    graph = build_graph(score)
    assert graph.node_count == 1
    for rel in RELATIONS:
        assert edge_set(graph, rel) == set()
    assert graph.candidate_pairs.shape == (0, 2)
    assert graph.chord_pairs.shape == (0, 2)


def test_two_simultaneous_notes():
    # Equal onset/duration: one onset edge each direction via forward+inverse,
    # no candidates in either direction (offset > onset).
    score = make_score(2, [(0, 4, 4)], [(0, 4, 60), (0, 4, 64)])
    graph = build_graph(score)
    assert edge_set(graph, "onset") == {(0, 1)}
    assert edge_set(graph, "onset_inv") == {(1, 0)}
    assert pair_set(candidate_pairs(score)) == set()
    assert graph.chord_pairs.tolist() == [[0, 1]]


@pytest.mark.parametrize("change, message", [
    (dict(dst=np.array([0, 1, 7])), "outside"),
    (dict(src=np.array([0, -1, 2])), "outside"),
    (dict(rel=np.array([0, 8, 3])), "relation index"),
    (dict(dst=np.array([1, 2, 2])), "self-loop at note 2"),
    (dict(rel=np.array([0, 1])), "differ in length"),
], ids=["dst-range", "src-range", "rel-range", "self-loop", "length"])
def test_validate_rejects_malformed_edge_lists(change, message):
    good = dict(src=np.array([0, 1, 2]), dst=np.array([1, 2, 3]),
                rel=np.array([0, 1, 3]))
    graph = dataclasses.replace(build_graph(hand_score()), **good)
    graph.validate()
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(graph, **change).validate()


def test_empty_score_raises():
    with pytest.raises(EmptyScore):
        build_graph(make_score(2, [(0, 4, 4)], []))


def brute_force_lambda(score, cross_bar):
    """Independent enumeration of the candidate rule over all ordered pairs."""
    out = set()
    for u in score.notes:
        for w in score.notes:
            if u.id == w.id:
                continue
            same_bar = (u.bar_index == w.bar_index
                        and u.offset_div <= w.onset_div)
            next_bar = (cross_bar and w.bar_index == u.bar_index + 1
                        and w.onset_div == score.bars[w.bar_index][0]
                        and u.offset_div <= w.onset_div)
            if same_bar or next_bar:
                out.add((u.id, w.id))
    return out


def straight_scan_candidates(score, cross_bar):
    """The candidate rule as a scan over all ordered note pairs, sorted."""
    pairs = []
    for u in score.notes:
        for w in score.notes:
            if u.bar_index == w.bar_index:
                if u.offset_div <= w.onset_div:
                    pairs.append((u.id, w.id))
            elif cross_bar and w.bar_index == u.bar_index + 1:
                if (w.onset_div == score.bars[w.bar_index][0]
                        and u.offset_div <= w.onset_div):
                    pairs.append((u.id, w.id))
    return sorted(pairs)


def barline_score(seed):
    """Time-signature changes (4/4, 3/4, 6/8, 2/4) with many notes starting
    or ending on a barline, and some sustained across one."""
    sigs = [(0, 4, 4), (2, 3, 4), (3, 6, 8), (5, 2, 4)]
    bars = bar_table(4, tuple(TimeSignature(*t) for t in sigs), 8)
    rng = np.random.default_rng(seed)
    triples = set()
    for _ in range(40):
        onset, length = bars[int(rng.integers(len(bars)))]
        if rng.random() < 0.5:
            onset += int(rng.integers(length))
        end = onset + int(rng.integers(1, length + 1))
        if rng.random() < 0.3:                 # end on the next barline
            end = max(start + size for start, size in bars if start <= onset)
        triples.add((onset, max(end - onset, 1), int(rng.integers(48, 84))))
    return make_score(4, sigs, sorted(triples))


def test_candidate_pairs_match_straight_scan(parsed_fixtures):
    scores = [result.score for result in parsed_fixtures.values()]
    scores += [random_score(seed, n_notes=6 + 5 * seed, n_bars=1 + seed % 4,
                            numerator=(4, 3, 6)[seed % 3]) for seed in range(9)]
    scores += [barline_score(seed) for seed in range(4)]
    scores.append(make_score(2, [(0, 4, 4)], [(0, 4, 60)]))
    for score in scores:
        for cross in (True, False):
            got = candidate_pairs(score, cross_bar=cross)
            assert got.dtype == np.int64 and got.shape == (len(got), 2)
            assert got.tolist() == [list(p) for p in
                                    straight_scan_candidates(score, cross)], \
                (score.name, cross)


def brute_force_edges(score):
    """Independent enumeration of the four relation rules."""
    notes = score.notes
    onsets = sorted({n.onset_div for n in notes})
    edges = {rel: set() for rel in EDGE_TYPES}
    for u in notes:
        nxt_geq = min((o for o in onsets if o >= u.offset_div), default=None)
        nxt_gt = min((o for o in onsets if o > u.offset_div), default=None)
        for w in notes:
            if u.id == w.id:
                continue
            if u.onset_div == w.onset_div and u.id < w.id:
                edges["onset"].add((u.id, w.id))
            if u.onset_div < w.onset_div < u.offset_div:
                edges["during"].add((u.id, w.id))
            if (u.offset_div == w.onset_div and nxt_geq == w.onset_div):
                edges["follow"].add((u.id, w.id))
    # silence: the gap (offset(u), next onset) must be free of sounding notes.
    for u in notes:
        nxt_gt = min((o for o in onsets if o > u.offset_div), default=None)
        if nxt_gt is None:
            continue
        gap_lo, gap_hi = u.offset_div, nxt_gt
        sounding = any(v.onset_div < gap_hi and v.offset_div > gap_lo
                       for v in notes)
        if sounding:
            continue
        for w in notes:
            if w.onset_div == nxt_gt:
                edges["silence"].add((u.id, w.id))
    return edges


def test_random_scores_match_brute_force(parsed_fixtures):
    # Each relation is compared as an ordered array: forward edges in
    # (u, v) order, the inverse as the forward edges swapped, in the same order.
    scores = [result.score for result in parsed_fixtures.values()]
    scores += [random_score(seed, n_notes=10) for seed in range(12)]
    scores += [random_score(seed, n_notes=60, n_bars=4 + seed % 5,
                            numerator=(4, 3, 6)[seed % 3]) for seed in range(6)]
    scores += [barline_score(seed) for seed in range(6)]
    for score in scores:
        graph = build_graph(score)
        expected = brute_force_edges(score)
        for rel in EDGE_TYPES:
            want = sorted(expected[rel])
            assert edge_list(graph, rel) == want, (score.name, rel)
            assert edge_list(graph, f"{rel}_inv") == [(b, a) for a, b in want], \
                (score.name, rel)
        for cross in (True, False):
            assert pair_set(candidate_pairs(score, cross_bar=cross)) \
                == brute_force_lambda(score, cross), (score.name, cross)


def test_build_graph_is_input_order_invariant():
    # make_score canonicalizes ordering, so shuffled input gives identical
    # graphs; the canonical sort is part of the construction contract.
    trip_rev = list(reversed(HAND_TRIPLES))
    g1 = build_graph(make_score(2, [(0, 4, 4)], HAND_TRIPLES))
    g2 = build_graph(make_score(2, [(0, 4, 4)], trip_rev))
    for rel in RELATIONS:
        assert edge_set(g1, rel) == edge_set(g2, rel)
    np.testing.assert_array_equal(g1.features, g2.features)


def hand_labels(voice_edges, n=7):
    return LabelSet(
        staff=(0,) * n, spelling=(12,) * n, key_fifths=(0,) * n,
        stem=(0,) * n, octave_shift=(0,) * n, clef=(0,) * n,
        note_type=(3,) * n, dots=(0,) * n, tuplet=(1,) * n,
        voice_edges=frozenset(voice_edges), chord_edges=frozenset())


def test_coverage_report_full_and_shortfall():
    # Truth voice edges (2,3) same-bar and (4,5) cross-bar.
    score = hand_score(labels=hand_labels({(2, 3), (4, 5)}))
    full = coverage_report(score, cross_bar=True)
    assert isinstance(full, CandidateCoverage)
    assert (full.total_truth_edges, full.covered) == (2, 2)
    assert full.missing == ()
    assert full.fraction == 1.0

    strict = coverage_report(score, cross_bar=False)
    assert (strict.total_truth_edges, strict.covered) == (2, 1)
    assert strict.missing == ((4, 5),)
    assert strict.fraction == 0.5
    assert "1/2" in str(strict) or "50" in str(strict) or "0.5" in str(strict)


def smallest_reachable(n, pairs):
    """The straight search components() replaces: the smallest id each
    note reaches over the undirected edges."""
    neighbours = {i: set() for i in range(n)}
    for u, w in pairs:
        neighbours[u].add(w)
        neighbours[w].add(u)
    out = []
    for i in range(n):
        seen, todo = {i}, [i]
        while todo:
            for j in neighbours[todo.pop()] - seen:
                seen.add(j)
                todo.append(j)
        out.append(min(seen))
    return out


def test_components_match_straight_search():
    rng = np.random.default_rng(0)
    for n, m in ((1, 0), (5, 0), (6, 3), (20, 12), (40, 60), (60, 25)):
        pairs = rng.integers(0, n, size=(m, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        got = components(n, pairs)
        assert got.tolist() == smallest_reachable(n, pairs.tolist()), (n, m)
    # a long path takes several rounds of lowering
    path = np.array([[k, k + 1] for k in range(30)])[::-1]
    assert components(31, path).tolist() == [0] * 31


def test_chord_candidates_are_forward_onset_edges():
    score = make_score(2, [(0, 4, 4)],
                       [(0, 4, 60), (0, 4, 64), (0, 2, 67), (4, 4, 62)])
    graph = build_graph(score)
    assert graph.chord_pairs.dtype == np.int64
    assert graph.chord_pairs.shape == (3, 2)
    assert graph.chord_pairs.tolist() == [[0, 1], [0, 2], [1, 2]]
    np.testing.assert_array_equal(graph.chord_pairs,
                                  np.stack(graph.edges("onset"), axis=1))


def test_dump_graph_jsonl():
    graph = build_graph(hand_score())
    text = dump_graph_jsonl(graph)
    assert text.endswith("\n")
    lines = [json.loads(line) for line in text.splitlines()]
    rebuilt: dict[str, set] = {}
    for rec in lines:
        assert set(rec) == {"relation", "src", "dst"}
        rebuilt.setdefault(rec["relation"], set()).add((rec["src"], rec["dst"]))
    for rel, expected in HAND_EDGES.items():
        assert rebuilt.get(rel, set()) == expected
    total = sum(len(v) for v in HAND_EDGES.values())
    assert len(lines) == 2 * total  # forward + inverse


# --- golden digests of what the graph and the dump meta line are built from ---

# One sha256 per fixture over the dump_graph_jsonl text of build_graph(score),
# the bytes of candidate_pairs(score, cross_bar) for cross_bar True then False,
# and the meta line of prediction_dump(score, perfect_bundle(score)). Only
# integer data and JSON text are hashed, so no float rounding can move them.
GRAPH_GOLDEN_SHA256 = {
    "fixture_a":
        "a761f1bb5fbffdd7811eb535e330b8a8c226073a55f760b8abe833a5f1c0ce10",
    "fixture_b":
        "44ef9cf22d5abab99078f4b6df225620ced46735c41c9bbe321737d65348f10c",
    "grace_clip":
        "919bbcadcd71d6091733ab299b1e1e3e9a7b6023409fdd2ff0a662a25d1ea514",
    "single_whole":
        "cdb075865d537ac7ac9281098daf10fb727828c5d50aed31cfdbf4406195eb0a",
    "triplet_octave":
        "03ec78a469979f335a7bb38f01c1f04ae3796dbfe195e47ff305c4dd0783fd04",
}


def graph_and_meta_digest(score) -> str:
    digest = hashlib.sha256(dump_graph_jsonl(build_graph(score)).encode())
    for cross in (True, False):
        digest.update(candidate_pairs(score, cross_bar=cross).tobytes())
    digest.update(prediction_dump(score, perfect_bundle(score))
                  .split(b"\n", 1)[0])
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(GRAPH_GOLDEN_SHA256))
def test_graph_and_dump_meta_golden(parsed_fixtures, name):
    score = parsed_fixtures[name].score
    assert graph_and_meta_digest(score) == GRAPH_GOLDEN_SHA256[name]
    # the digest holds the chord pairs' count (meta line) and the onset edges
    # (graph text); the pairs themselves are those edges, in (u, w) order
    graph = build_graph(score)
    np.testing.assert_array_equal(graph.chord_pairs,
                                  np.stack(graph.edges("onset"), axis=1))
    meta = json.loads(prediction_dump(score, perfect_bundle(score))
                      .split(b"\n", 1)[0])
    assert meta["pairs"]["chord"] == len(graph.chord_pairs)
