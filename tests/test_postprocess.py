"""Oracle tests for the deterministic engraving decode.

Chord pooling, voice chaining, smoothing, and rest infilling are exercised
with hand-built bundles whose expected outputs are worked out by hand in the
comments ([DERIVED]).
"""

from __future__ import annotations

import collections
import dataclasses
import math
import re

import numpy as np
import pytest

from conftest import FIXTURE_NAMES
from notesetter import postprocess
from notesetter.musicxml import (export_musicxml, parse_musicxml,
                                 validate_subset)
from notesetter.decoders import HEAD_WIDTHS, NODE_HEADS, PredictionBundle
from notesetter.graph import build_graph
from notesetter.hungarian import hungarian
from notesetter.notes import (KEY_FIFTHS, N_KEY_CLASSES,
                              NOTE_TYPE_NAMES, STEM_NONE, LabelSet,
                              make_score)
from notesetter.postprocess import (EngravedEvent, PooledNode, UnfillableGap,
                                    VoiceStream, assign_voices, decompose_gap,
                                    engrave, engrave_from_labels,
                                    number_voices, perfect_bundle,
                                    pool_chords, _pool_pair_probabilities,
                                    _rest_vocabulary)
from notesetter.synth import random_bundle, random_score

QUARTER = NOTE_TYPE_NAMES.index("quarter")
HALF = NOTE_TYPE_NAMES.index("half")
WHOLE = NOTE_TYPE_NAMES.index("whole")


def full_labels(n, voice_edges=(), chord_edges=(), **overrides):
    base = dict(staff=(0,) * n, spelling=(12,) * n, key_fifths=(0,) * n,
                stem=(0,) * n, octave_shift=(0,) * n, clef=(0,) * n,
                note_type=(3,) * n, dots=(0,) * n, tuplet=(1,) * n)
    base.update(overrides)
    return LabelSet(voice_edges=frozenset(voice_edges),
                    chord_edges=frozenset(chord_edges), **base)


def zero_bundle(n, voice_pairs=(), voice_probs=(), chord_pairs=(),
                chord_probs=(), staff=None):
    """All-zero logits; staff may be forced per note via +-margin logits."""
    note_logits = {h: np.zeros((n, HEAD_WIDTHS[h])) for h in NODE_HEADS}
    if staff is not None:
        note_logits["staff"] = np.array(
            [[0.0, 10.0] if s else [10.0, 0.0] for s in staff])
    s = note_logits["staff"]
    staff_probs = np.exp(s - np.logaddexp.reduce(s, axis=1,
                                                 keepdims=True))[:, 1]
    return PredictionBundle(
        note_logits=note_logits, staff_probs=staff_probs,
        voice_pairs=tuple(voice_pairs), voice_probs=np.array(voice_probs,
                                                             dtype=float),
        chord_pairs=tuple(chord_pairs), chord_probs=np.array(chord_probs,
                                                             dtype=float))


# --- chord pooling ---

def chord_score():
    # Three simultaneous quarter notes + one later note; divisions 2, 4/4.
    return make_score(2, [(0, 4, 4)],
                      [(0, 2, 60), (0, 2, 64), (0, 2, 67), (4, 2, 62)])


def test_pool_chords_transitive_closure():
    score = chord_score()
    bundle = zero_bundle(4, chord_pairs=((0, 1), (1, 2), (0, 2)),
                         chord_probs=(0.9, 0.9, 0.1))
    pools = pool_chords(bundle, score, threshold=0.5)
    # [DERIVED] edges (0,1) and (1,2) accepted -> one pool {0,1,2}.
    assert sorted(p.ids for p in pools) == [(0, 1, 2), (3,)]


def test_pool_chords_below_threshold_stay_single():
    score = chord_score()
    bundle = zero_bundle(4, chord_pairs=((0, 1), (1, 2), (0, 2)),
                         chord_probs=(0.49, 0.2, 0.3))
    pools = pool_chords(bundle, score, threshold=0.5)
    assert sorted(p.ids for p in pools) == [(0,), (1,), (2,), (3,)]


def test_pool_chords_requires_equal_duration():
    score = make_score(2, [(0, 4, 4)], [(0, 2, 60), (0, 4, 64)])
    bundle = zero_bundle(2, chord_pairs=((0, 1),), chord_probs=(0.99,))
    pools = pool_chords(bundle, score, threshold=0.5)
    assert sorted(p.ids for p in pools) == [(0,), (1,)]


def test_pool_chords_requires_same_predicted_staff():
    score = chord_score()
    bundle = zero_bundle(4, chord_pairs=((0, 1),), chord_probs=(0.99,),
                         staff=[0, 1, 0, 0])
    pools = pool_chords(bundle, score, threshold=0.5)
    assert sorted(p.ids for p in pools) == [(0,), (1,), (2,), (3,)]


def test_pool_chords_decides_pooled_heads_from_the_mean():
    score = chord_score()
    bundle = zero_bundle(4, chord_pairs=((0, 1),), chord_probs=(0.9,))
    # member 0 alone would pick class 1, member 1 alone class 2
    bundle.note_logits["note_type"][0] = [0.0, 5.0, 0.0, 4.0, 0, 0, 0, 0]
    bundle.note_logits["note_type"][1] = [0.0, 0.0, 5.0, 4.0, 0, 0, 0, 0]
    # tuplet class 1 is the ratio 3; stem class 2 wins for note 3 alone
    bundle.note_logits["tuplet"][0] = [0.0, 3.0, 0.0]
    bundle.note_logits["tuplet"][1] = [0.0, 1.0, 1.5]
    bundle.note_logits["stem"][3] = [0.0, 1.0, 2.0]
    pools = pool_chords(bundle, score, threshold=0.5)
    pool = next(p for p in pools if p.ids == (0, 1))
    # [DERIVED] mean note_type row (0, 2.5, 2.5, 4, 0, ...) -> class 3, which
    # neither member picks; mean tuplet row (0, 2, 0.75) -> class 1 -> 3.
    assert (pool.note_type, pool.dots, pool.tuplet, pool.stem) == (3, 0, 3, 0)
    single = next(p for p in pools if p.ids == (3,))
    assert (single.note_type, single.dots, single.tuplet, single.stem) == (
        0, 0, 1, 2)
    assert all(type(v) is int for p in pools
               for v in (p.note_type, p.dots, p.tuplet, p.stem))


# --- voice assignment ---

def make_pools(specs):
    """specs: (ids, onset, duration, staff); every pool a plain quarter."""
    return [PooledNode(ids=tuple(ids), onset_div=onset, duration_div=dur,
                       staff=staff, note_type=QUARTER, dots=0, tuplet=1,
                       stem=STEM_NONE)
            for ids, onset, dur, staff in specs]


def pair_bundle(n, pairs, probs):
    return zero_bundle(n, voice_pairs=pairs, voice_probs=probs)


def test_assign_voices_chains_above_threshold():
    # [DERIVED] theta = 0.5; matching (stream, node) costs
    # -log p - log theta versus the double-dummy -2 log theta, so the chain
    # wins when p > theta; p == theta is a tie that the solver breaks toward
    # the chain (test_assign_voices_tie_with_dummy_stays_chained).
    pools = make_pools([((0,), 0, 2, 0), ((1,), 2, 2, 0)])
    streams = assign_voices(pools, pair_bundle(2, ((0, 1),), (0.51,)),
                            threshold=0.5, pair_agg="max")
    assert [s.pool_indices for s in streams] == [[0, 1]]

    streams_lo = assign_voices(pools, pair_bundle(2, ((0, 1),), (0.49,)),
                               threshold=0.5, pair_agg="max")
    assert sorted(s.pool_indices for s in streams_lo) == [[0], [1]]


def test_assign_voices_prefers_likelier_continuation():
    # Two streams compete for two new notes; the assignment must pick the
    # cost-minimal pairing, not the greedy one.
    pools = make_pools([((0,), 0, 2, 0), ((1,), 0, 2, 0),
                        ((2,), 2, 2, 0), ((3,), 2, 2, 0)])
    # [DERIVED] p(0->2)=0.9 p(0->3)=0.8 p(1->2)=0.6 p(1->3)=0.2:
    # pairing {0->2, 1->3} costs -ln.9-ln.2 = 1.715, {0->3, 1->2} costs
    # -ln.8-ln.6 = 0.734 -> the solver must cross over.
    bundle = pair_bundle(4, ((0, 2), (0, 3), (1, 2), (1, 3)),
                         (0.9, 0.8, 0.6, 0.2))
    streams = assign_voices(pools, bundle, threshold=0.1, pair_agg="max")
    chains = sorted(s.pool_indices for s in streams)
    assert chains == [[0, 3], [1, 2]]


def test_assign_voices_respects_monophony():
    # A stream whose last pool is still sounding cannot take a new node.
    pools = make_pools([((0,), 0, 4, 0), ((1,), 2, 2, 0)])
    bundle = pair_bundle(2, ((0, 1),), (0.99,))
    streams = assign_voices(pools, bundle, threshold=0.5, pair_agg="max")
    assert sorted(s.pool_indices for s in streams) == [[0], [1]]


def test_assign_voices_closed_stream_stays_closed():
    # Stream 0 takes a dummy at onset 2 (low p) and must not reopen at 4.
    pools = make_pools([((0,), 0, 2, 0), ((1,), 2, 2, 0), ((2,), 4, 2, 0)])
    bundle = pair_bundle(3, ((0, 1), (0, 2), (1, 2)), (0.01, 0.99, 0.01))
    streams = assign_voices(pools, bundle, threshold=0.5, pair_agg="max")
    assert sorted(s.pool_indices for s in streams) == [[0], [1], [2]]


def test_assign_voices_pair_aggregation_modes():
    # Chord pool {0,1} -> node 2 with member probabilities 0.9 and 0.1:
    # max -> 0.9 chains; mean -> 0.5 exactly, which loses the tie against
    # the dummy only by ordering, so use 0.45/0.95 for a clean split.
    pools = make_pools([((0, 1), 0, 2, 0), ((2,), 2, 2, 0)])
    bundle = pair_bundle(3, ((0, 2), (1, 2)), (0.95, 0.05))
    chained = assign_voices(pools, bundle, threshold=0.6, pair_agg="max")
    assert [s.pool_indices for s in chained] == [[0, 1]]
    # mean = 0.5 < 0.6 -> split.
    split = assign_voices(pools, bundle, threshold=0.6, pair_agg="mean")
    assert sorted(s.pool_indices for s in split) == [[0], [1]]


def test_assign_voices_unknown_pair_probability_is_floor():
    pools = make_pools([((0,), 0, 2, 0), ((1,), 2, 2, 0)])
    bundle = pair_bundle(2, (), ())
    streams = assign_voices(pools, bundle, threshold=0.5, pair_agg="max")
    assert sorted(s.pool_indices for s in streams) == [[0], [1]]


def test_assign_voices_staves_are_independent():
    pools = make_pools([((0,), 0, 2, 0), ((1,), 2, 2, 1)])
    bundle = pair_bundle(2, ((0, 1),), (0.99,))
    streams = assign_voices(pools, bundle, threshold=0.5, pair_agg="max")
    assert sorted((s.staff, s.pool_indices) for s in streams) \
        == [(0, [0]), (1, [1])]


def test_assign_voices_bad_pair_agg():
    with pytest.raises(ValueError):
        assign_voices([], zero_bundle(1), threshold=0.5, pair_agg="median")


@pytest.mark.parametrize("threshold", [math.nan, 0.0, -1.0, 1.0, 1.5,
                                       math.inf])
def test_assign_voices_bad_threshold(threshold, fixture_a):
    with pytest.raises(ValueError, match="threshold"):
        assign_voices([], zero_bundle(1), threshold=threshold, pair_agg="max")
    score = fixture_a.score
    with pytest.raises(ValueError, match="threshold"):
        engrave(random_bundle(build_graph(score), 1), score,
                threshold=threshold)


def reference_assign_voices(pools, bundle, threshold, pair_agg):
    """Oracle: every onset group solved by the Hungarian algorithm on the
    padded (r + c) square matrix of -log(probability) costs, dummies priced
    at -log(threshold), whether or not the group has a choice."""
    keys, probs = _pool_pair_probabilities(pools, bundle, pair_agg)
    pair_prob = dict(zip(keys.tolist(), probs.tolist()))
    n_pools = len(pools)
    dummy_cost = -math.log(min(max(threshold, 1e-12), 1.0 - 1e-12))
    streams = []
    for staff in (0, 1):
        groups = {}
        for i, p in enumerate(pools):
            if p.staff == staff:
                groups.setdefault(p.onset_div, []).append(i)
        open_streams = []
        for onset, group in groups.items():
            eligible = [s for s in open_streams
                        if pools[s.pool_indices[-1]].offset_div <= onset]
            r, c = len(eligible), len(group)
            cost = np.full((r + c, r + c), dummy_cost)
            if r:
                cost[:r, :c] = [
                    [-math.log(pair_prob.get(s.pool_indices[-1] * n_pools + pi,
                                             1e-12)) for pi in group]
                    for s in eligible]
            col_of_row = hungarian(cost)
            row_of_col = {j: i for i, j in enumerate(col_of_row)}
            for i, stream in enumerate(eligible):
                if col_of_row[i] < c:
                    stream.pool_indices.append(group[col_of_row[i]])
                else:
                    open_streams.remove(stream)
            for j, pi in enumerate(group):
                if row_of_col[j] >= r:
                    stream = VoiceStream(staff=staff, pool_indices=[pi])
                    streams.append(stream)
                    open_streams.append(stream)
    return streams


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_assign_voices_matches_padded_hungarian(name, parsed_fixtures):
    # Forced groups are decided without the solver; the streams must be the
    # ones the padded assignment of every group gives.
    score = parsed_fixtures[name].score
    graph = build_graph(score)
    for seed in range(40):
        bundle = random_bundle(graph, seed)
        for threshold in (0.3, 0.5, 0.7):
            pools = pool_chords(bundle, score, threshold)
            for pair_agg in ("max", "mean"):
                got = assign_voices(pools, bundle, threshold, pair_agg)
                want = reference_assign_voices(pools, bundle, threshold,
                                               pair_agg)
                assert [(s.staff, s.pool_indices) for s in got] \
                    == [(s.staff, s.pool_indices) for s in want], \
                    (seed, threshold, pair_agg)


@pytest.fixture
def solver_calls(monkeypatch):
    """The sizes of the matrices voice assignment hands to the solver."""
    calls = []

    def counted(cost):
        calls.append(len(cost))
        return hungarian(cost)

    monkeypatch.setattr(postprocess, "hungarian", counted)
    return calls


@pytest.mark.parametrize("p, chains, calls", [
    (0.5, [[0, 1]], [2]),
    (math.nextafter(0.5, 1.0), [[0, 1]], []),
    (math.nextafter(0.5, 0.0), [[0], [1]], [])])
def test_assign_voices_tie_with_dummy_stays_chained(p, chains, calls,
                                                    solver_calls):
    # [DERIVED] p == theta prices the match exactly as the dummies, a tie
    # left to the solver: hungarian([[d, d], [d, d]]) returns [0, 1], so the
    # chain holds. One ulp either side of theta is decided without it.
    pools = make_pools([((0,), 0, 2, 0), ((1,), 2, 2, 0)])
    streams = assign_voices(pools, pair_bundle(2, ((0, 1),), (p,)),
                            threshold=0.5, pair_agg="max")
    assert [s.pool_indices for s in streams] == chains
    assert solver_calls == calls


def test_assign_voices_two_winners_for_one_stream_call_solver(solver_calls):
    pools = make_pools([((0,), 0, 2, 0), ((1,), 2, 2, 0), ((2,), 2, 2, 0)])
    bundle = pair_bundle(3, ((0, 1), (0, 2)), (0.8, 0.9))
    streams = assign_voices(pools, bundle, threshold=0.5, pair_agg="max")
    assert [s.pool_indices for s in streams] == [[0, 2], [1]]
    assert solver_calls == [3]


def test_assign_voices_one_pool_won_twice_calls_solver(solver_calls):
    pools = make_pools([((0,), 0, 2, 0), ((1,), 0, 2, 0), ((2,), 2, 2, 0)])
    bundle = pair_bundle(3, ((0, 2), (1, 2)), (0.6, 0.9))
    streams = assign_voices(pools, bundle, threshold=0.5, pair_agg="max")
    assert [s.pool_indices for s in streams] == [[0], [1, 2]]
    assert solver_calls == [3]


@pytest.mark.parametrize("seed", [0, 1])
def test_assign_voices_matches_padded_hungarian_on_long_pieces(seed,
                                                               solver_calls):
    # a few hundred notes over 24 bars: long streams, and groups that wait
    # several onsets for their voice ends, with conflicts among them
    score = random_score(seed, n_notes=300, n_bars=24)
    bundle = random_bundle(build_graph(score), seed)
    for threshold in (0.3, 0.5, 0.7):
        pools = pool_chords(bundle, score, threshold)
        for pair_agg in ("max", "mean"):
            solver_calls.clear()
            got = assign_voices(pools, bundle, threshold, pair_agg)
            assert solver_calls, (threshold, pair_agg)    # conflicts ran
            want = reference_assign_voices(pools, bundle, threshold, pair_agg)
            assert [(s.staff, s.pool_indices) for s in got] \
                == [(s.staff, s.pool_indices) for s in want], \
                (threshold, pair_agg)


@pytest.mark.parametrize("p_first, chains", [
    (0.01, [[0], [1], [3], [4]]),
    (0.99, [[0, 3], [1], [4]])])
def test_assign_voices_stream_is_decided_at_its_first_eligible_group(
        p_first, chains, solver_calls):
    # Pool 0 (onset 0, offset 2) is first eligible at onset 3: onset 1 is
    # while it sounds and onset 2 is on the other staff. Without a winner
    # there it ends, though pair (0, 4) at the next group is 0.99.
    pools = make_pools([((0,), 0, 2, 0), ((1,), 1, 2, 0), ((2,), 2, 2, 1),
                        ((3,), 3, 1, 0), ((4,), 4, 2, 0)])
    bundle = pair_bundle(5, ((0, 2), (0, 3), (0, 4), (1, 3), (3, 4)),
                         (0.99, p_first, 0.99, 0.01, 0.01))
    streams = assign_voices(pools, bundle, threshold=0.5, pair_agg="max")
    assert [(s.staff, s.pool_indices) for s in streams] \
        == [(0, chain) for chain in chains] + [(1, [2])]
    assert solver_calls == []


def test_assign_voices_solver_sees_voice_ends_in_stream_order(solver_calls):
    # Streams [0, 3] and [1, 2] cross at onset 1, so at onset 2 the voice
    # end of the older stream (pool 3) comes after the other's (pool 2) by
    # index. Both want both new pools equally: the solver keeps its rows'
    # order on a tie (it returns [0, 1, 2, 3] here), so the first stream to
    # begin, not the lower voice end, takes pool 4.
    pools = make_pools([((0,), 0, 1, 0), ((1,), 0, 1, 0), ((2,), 1, 1, 0),
                        ((3,), 1, 1, 0), ((4,), 2, 1, 0), ((5,), 2, 1, 0)])
    bundle = pair_bundle(6, ((0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (2, 5),
                             (3, 4), (3, 5)),
                         (0.1, 0.9, 0.9, 0.1, 0.9, 0.9, 0.9, 0.9))
    streams = assign_voices(pools, bundle, threshold=0.5, pair_agg="max")
    assert [s.pool_indices for s in streams] == [[0, 3, 4], [1, 2, 5]]
    assert solver_calls == [4]


def test_assign_voices_forced_groups_skip_solver(solver_calls):
    # Each stream has one winner, each pool one claimant; the losing pairs
    # are below theta, so the crossing pairing is forced.
    pools = make_pools([((0,), 0, 2, 0), ((1,), 0, 2, 0),
                        ((2,), 2, 2, 0), ((3,), 2, 2, 0), ((4,), 4, 2, 0)])
    bundle = pair_bundle(5, ((0, 2), (0, 3), (1, 2), (1, 3), (2, 4)),
                         (0.2, 0.7, 0.9, 0.3, 0.1))
    streams = assign_voices(pools, bundle, threshold=0.5, pair_agg="max")
    assert [s.pool_indices for s in streams] == [[0, 3], [1, 2], [4]]
    assert solver_calls == []


# --- voice numbering ---

def test_number_voices_ordering_and_bases():
    score = make_score(2, [(0, 4, 4)],
                       [(0, 2, 60), (0, 2, 72), (0, 2, 40), (2, 2, 64)])
    pools = make_pools([((0,), 0, 2, 0), ((1,), 0, 2, 0), ((2,), 0, 2, 1),
                        ((3,), 2, 2, 0)])
    streams = [VoiceStream(staff=0, pool_indices=[0]),
               VoiceStream(staff=0, pool_indices=[1, 3]),
               VoiceStream(staff=1, pool_indices=[2])]
    numbered = number_voices(streams, pools, score.pitch)
    # [DERIVED] upper voices share onset 0: top pitches 60 vs 72, so the
    # 72-stream gets voice 1; lower staff starts at max(5, 2+1) = 5.
    assert numbered[1].pool_indices == [1, 3]
    assert numbered[2].pool_indices == [0]
    assert numbered[5].pool_indices == [2]
    assert set(numbered) == {1, 2, 5}


def test_number_voices_upper_overflow_pushes_lower_base():
    score = make_score(2, [(0, 4, 4)],
                       [(0, 2, 60 + i) for i in range(6)])
    pools = make_pools([((i,), 0, 2, 0) for i in range(5)]
                       + [((5,), 0, 2, 1)])
    streams = [VoiceStream(staff=0, pool_indices=[i]) for i in range(5)] \
        + [VoiceStream(staff=1, pool_indices=[5])]
    numbered = number_voices(streams, pools, score.pitch)
    # [DERIVED] five upper voices 1..5; lower base max(5, 5+1) = 6.
    assert sorted(v for v, s in numbered.items() if s.staff == 0) \
        == [1, 2, 3, 4, 5]
    assert sorted(v for v, s in numbered.items() if s.staff == 1) == [6]


# --- rest decomposition ---

def test_rest_vocabulary_at_divisions_4():
    vocab = _rest_vocabulary(4)
    assert _rest_vocabulary(4) is vocab      # computed once per divisions
    assert all(isinstance(t, tuple) and len(t) == 3 for t in vocab)
    divs = [t[0] for t in vocab]
    assert divs == sorted(divs, reverse=True)
    # [DERIVED] spot entries: whole = 16, dotted half = 12, 16th = 1;
    # nothing below one division survives the integrality filter.
    assert (16, WHOLE, 0) in vocab
    assert (12, HALF, 1) in vocab
    assert (1, NOTE_TYPE_NAMES.index("16th"), 0) in vocab
    assert min(divs) == 1


def test_decompose_gap_oracles():
    vocab = _rest_vocabulary(4)
    # [DERIVED] rel 4, len 12 in a 16-div bar: quarter (aligned at 4) then
    # half (aligned at 8).
    assert decompose_gap(4, 12, 0, vocab) == [(4, QUARTER, 0), (8, HALF, 0)]
    # [DERIVED] full 4/4 bar -> one whole rest.
    assert decompose_gap(0, 16, 0, vocab) == [(16, WHOLE, 0)]
    # [DERIVED] full 3/4 bar (12 div) -> one dotted-half rest.
    assert decompose_gap(0, 12, 0, vocab) == [(12, HALF, 1)]
    # Alignment counts from the bar onset, not absolute zero.
    assert decompose_gap(20, 12, 16, vocab) == [(4, QUARTER, 0), (8, HALF, 0)]
    assert decompose_gap(0, 0, 0, vocab) == []


def test_decompose_gap_unfillable():
    vocab = _rest_vocabulary(480)
    # [DERIVED] smallest plain rest at 480 div/quarter is a 64th = 30 divs;
    # a 7-div gap has no decomposition.
    assert min(t[0] for t in vocab) == 30
    assert decompose_gap(1913, 7, 0, vocab) is None


def test_engrave_unfillable_gap_raises():
    # One 4/4 bar at 480 divisions/quarter is 1920 divisions long.
    score = make_score(480, [(0, 4, 4)], [(0, 1913, 60)],
                       labels=full_labels(1))
    with pytest.raises(UnfillableGap) as exc_info:
        engrave_from_labels(score)
    err = exc_info.value
    assert err.bar_index == 0
    assert err.start_div == 1913
    assert err.length_div == 7


# --- smoothing, via hacked perfect bundles ---

def margin_logits(values, width, margin=20.0):
    out = np.zeros((len(values), width))
    out[np.arange(len(values)), values] = margin
    return out


def melody_score(n=5, labels=True, dur=2):
    triples = [(i * dur, dur, 60 + i) for i in range(n)]
    return make_score(2, [(0, 4, 4)], triples,
                      labels=full_labels(n) if labels else None)


def engrave_with(score, **head_values):
    bundle = perfect_bundle(score)
    for head, values in head_values.items():
        bundle.note_logits[head] = margin_logits(values, HEAD_WIDTHS[head])
    return engrave(bundle, score)


def test_key_majority_and_tie_rules():
    # Two notes per 8-division bar: onsets 0,2 in bar 0 and 8,10 in bar 1.
    triples = [(0, 2, 60), (2, 2, 62), (8, 2, 64), (10, 2, 66)]
    score = make_score(2, [(0, 4, 4)], triples, labels=full_labels(4))
    engraved = engrave_with(score, key=[k + 7 for k in (1, 2, 2, 1)])
    # [DERIVED] bar0 votes {1,2} tie, previous 0 not in tie -> closest to
    # previous = 1; bar1 votes {2,1} tie, previous 1 in tie -> stays 1.
    assert engraved.measure_keys == (1, 1)


def test_key_empty_bar_carries_previous():
    triples = [(0, 2, 60), (16, 2, 64)]  # bars 0 and 2; bar 1 empty
    score = make_score(2, [(0, 4, 4)], triples, labels=full_labels(2))
    engraved = engrave_with(score, key=[3 + 7, 3 + 7])
    assert engraved.measure_keys == (3, 3, 3)


def test_key_initial_default_is_natural():
    triples = [(8, 2, 60), (10, 2, 62)]  # first note in bar 1
    score = make_score(2, [(0, 4, 4)], triples, labels=full_labels(2))
    engraved = engrave_with(score, key=[3 + 7, 3 + 7])
    assert engraved.measure_keys == (0, 3)


def reference_measure_keys(counts):
    """The per-measure key vote as one loop over the measures."""
    keys, previous = [], 0
    for row in counts:
        top = row.max()
        if top:
            tied = (np.flatnonzero(row == top) + KEY_FIFTHS[0]).tolist()
            if previous not in tied:
                previous = min(tied, key=lambda f: (abs(f - previous), f))
        keys.append(previous)
    return tuple(keys)


def test_measure_keys_match_the_reference_loop():
    # [DERIVED] bar 0 ties -2 and 2 (equally near 0: the lower wins), bar 1
    # is empty, bar 2 ties -2 with the previous key -2, which stays; bar 3
    # ties 5 and 7 (5 is nearer to -2); bar 4 votes 0 alone
    counts = np.zeros((5, N_KEY_CLASSES), dtype=np.int64)
    counts[0, [5, 9]] = 1
    counts[2, [5, 12]] = 2
    counts[3, [12, 14]] = 3
    counts[4, 7] = 1
    assert postprocess._measure_keys(counts) == (-2, -2, -2, 5, 0)
    assert reference_measure_keys(counts) == (-2, -2, -2, 5, 0)
    assert postprocess._measure_keys(counts[:0]) == ()
    assert postprocess._measure_keys(counts[1:2]) == (0,)
    rng = np.random.default_rng(5)
    for _ in range(300):
        bars = int(rng.integers(1, 30))
        # few votes over few keys, so ties and empty bars are common
        counts = np.zeros((bars, N_KEY_CLASSES), dtype=np.int64)
        classes = rng.choice(N_KEY_CLASSES, size=int(rng.integers(1, 5)),
                             replace=False)
        counts[:, classes] = rng.integers(0, 3, size=(bars, len(classes)))
        counts[rng.random(bars) < 0.2] = 0
        assert (postprocess._measure_keys(counts)
                == reference_measure_keys(counts)), counts.tolist()


def test_clef_median_filter_kills_spikes():
    score = melody_score(5)
    engraved = engrave_with(score, clef=[0, 0, 2, 0, 0])
    # [DERIVED] median-3 turns the lone C clef into G; single region from 0.
    assert engraved.clef_regions[0] == ((0, 0),)

    # [DERIVED] with the ends replicated, a two-note staff passes unfiltered.
    engraved = engrave_with(melody_score(2), clef=[0, 2])
    assert engraved.clef_regions[0] == ((0, 0), (2, 2))


def test_clef_change_creates_region_at_group_onset():
    score = melody_score(5)
    engraved = engrave_with(score, clef=[1, 1, 2, 2, 2])
    # [DERIVED] change at note 2 (onset 4); first region forced to start 0.
    assert engraved.clef_regions[0] == ((0, 1), (4, 2))


def test_clef_chord_group_majority():
    # Two simultaneous notes vote on the group clef; tie goes to previous.
    triples = [(0, 2, 60), (2, 2, 60), (4, 2, 55), (4, 2, 67), (6, 2, 60)]
    score = make_score(2, [(0, 4, 4)], triples, labels=full_labels(5))
    engraved = engrave_with(score, clef=[0, 0, 0, 1, 0])
    # [DERIVED] onset-4 group votes {0,1} tie -> previous value 0 wins.
    assert engraved.clef_regions[0] == ((0, 0),)

    # A tie in the first group has no previous clef: the smallest wins.
    triples = [(0, 2, 55), (0, 2, 67), (2, 2, 60), (4, 2, 60)]
    score = make_score(2, [(0, 4, 4)], triples, labels=full_labels(4))
    engraved = engrave_with(score, clef=[2, 1, 1, 1])
    # [DERIVED] median-3 keeps (2, 1, 1, 1); onset-0 group votes {2,1} tie
    # -> 1.
    assert engraved.clef_regions[0] == ((0, 1),)

    # A tie without the previous clef among the tied: the smallest wins.
    triples = [(0, 2, 60), (2, 2, 60), (4, 2, 55), (4, 2, 67), (6, 2, 60),
               (8, 2, 60)]
    score = make_score(2, [(0, 4, 4)], triples, labels=full_labels(6))
    engraved = engrave_with(score, clef=[0, 0, 1, 2, 2, 2])
    # [DERIVED] median-3 keeps (0, 0, 1, 2, 2, 2); onset-4 group votes {1,2}
    # tie, previous 0 not tied -> 1; then 2 from onset 6.
    assert engraved.clef_regions[0] == ((0, 0), (4, 1), (6, 2))


def test_octave_region_extents():
    score = melody_score(4)
    engraved = engrave_with(score, octave_shift=[0, 1, 1, 0])
    # [DERIVED] run over notes 1-2 (onsets 2,4, duration 2): start 2,
    # natural end 6, next group onset 6 -> (2, 6, 1).
    assert engraved.octave_regions[0] == ((2, 6, 1),)

    triples = [(0, 2, 60), (0, 2, 64), (2, 2, 62)]
    score = make_score(2, [(0, 4, 4)], triples, labels=full_labels(3))
    engraved = engrave_with(score, octave_shift=[2, 1, 0])
    # [DERIVED] onset-0 group votes {2,1} tie -> smallest shift 1; the
    # bracket ends at the group's offset 2, the next group's onset.
    assert engraved.octave_regions[0] == ((0, 2, 1),)


def test_octave_region_not_extended_over_silence():
    triples = [(0, 2, 60), (8, 2, 62)]
    score = make_score(2, [(0, 4, 4)], triples, labels=full_labels(2))
    engraved = engrave_with(score, octave_shift=[1, 0])
    # [DERIVED] bracket closes at the note's own offset (2), well before
    # the next group at 8.
    assert engraved.octave_regions[0] == ((0, 2, 1),)


def test_octave_run_to_score_end():
    score = melody_score(2)
    engraved = engrave_with(score, octave_shift=[2, 2])
    assert engraved.octave_regions[0] == ((0, 4, 2),)


# --- engrave end-to-end on labels + validate ---

def two_voice_score():
    # Upper: quarters 0,2,4,6; lower: halves 0,4 (divisions 2, one 8-div bar
    # per 4/4). Two bars total.
    triples = [(0, 2, 72), (2, 2, 74), (4, 2, 76), (6, 2, 77),
               (0, 4, 48), (4, 4, 50),
               (8, 2, 79), (10, 2, 77), (12, 4, 76), (8, 8, 43)]
    n = len(triples)
    # canonical ids sorted by (onset, midi):
    # 0=(0,48) 1=(0,72) 2=(2,74) 3=(4,50) 4=(4,76) 5=(6,77)
    # 6=(8,43) 7=(8,79) 8=(10,77) 9=(12,76)
    labels = full_labels(
        n,
        staff=(1, 0, 0, 1, 0, 0, 1, 0, 0, 0),
        stem=(1, 0, 0, 1, 0, 0, 1, 0, 0, 0),
        note_type=(HALF, QUARTER, QUARTER, HALF, QUARTER, QUARTER,
                   WHOLE, QUARTER, QUARTER, HALF),
        voice_edges={(1, 2), (2, 4), (4, 5), (5, 7), (7, 8), (8, 9),
                     (0, 3), (3, 6)},
    )
    return make_score(2, [(0, 4, 4)], triples, labels=labels, name="duet")


def test_engrave_from_labels_round_trip():
    score = two_voice_score()
    engraved = engrave_from_labels(score)
    engraved.validate()
    assert engraved.score.num_bars == 2
    # Upper voice is 1, lower is 5; every note covered exactly once.
    assert {(e.voice, e.staff) for e in engraved.events} == {(1, 0), (5, 1)}
    recovered = parse_musicxml(export_musicxml(engraved)).score.labels
    assert recovered.voice_edges == score.labels.voice_edges
    assert recovered.chord_edges == score.labels.chord_edges
    assert recovered.staff == score.labels.staff
    assert recovered.note_type == score.labels.note_type
    assert recovered.stem == score.labels.stem


def test_engrave_inserts_rests_for_late_voice_entry():
    # Lower voice enters at division 4 of bar 0 -> a rest must precede it.
    # canonical ids: 0=(0,72) 1=(2,74) 2=(4,48) 3=(4,76) 4=(6,77)
    triples = [(0, 2, 72), (2, 2, 74), (4, 2, 76), (6, 2, 77), (4, 4, 48)]
    labels = full_labels(5, staff=(0, 0, 1, 0, 0),
                         note_type=(QUARTER, QUARTER, HALF, QUARTER, QUARTER),
                         voice_edges={(0, 1), (1, 3), (3, 4)})
    score = make_score(2, [(0, 4, 4)], triples, labels=labels)
    engraved = engrave_from_labels(score)
    evs = [e for e in engraved.timeline[0] if e.staff == 1]
    # [DERIVED] half rest at 0..4, then the half note at 4..8.
    assert [(e.onset_div, e.duration_div, e.is_rest) for e in evs] \
        == [(0, 4, True), (4, 4, False)]
    assert evs[0].note_type == HALF
    assert evs[0].stem == STEM_NONE


def test_event_and_pool_rows_print_their_fields():
    engraved = engrave_from_labels(two_voice_score())
    assert repr(engraved.events[0]) == (
        "EngravedEvent(voice=1, staff=0, onset_div=0, duration_div=2, "
        "note_ids=(1,), note_type=3, dots=0, tuplet=1, stem=0)")
    assert repr(make_pools([((0, 2), 4, 2, 1)])[0]) == (
        "PooledNode(ids=(0, 2), onset_div=4, duration_div=2, staff=1, "
        f"note_type={QUARTER}, dots=0, tuplet=1, stem={STEM_NONE})")


def test_timeline_and_export_ignore_stored_event_order():
    engraved = engrave_from_labels(two_voice_score())
    shuffled = dataclasses.replace(engraved, events=engraved.events[::-1])
    events, columns = shuffled.timeline
    assert events == list(engraved.events)
    # voice 1's quarters and half, then voice 5's halves and whole
    np.testing.assert_array_equal(columns, [
        [1, 1, 1, 1, 1, 1, 1, 5, 5, 5],
        [0, 2, 4, 6, 8, 10, 12, 0, 4, 8],
        [2, 2, 2, 2, 2, 2, 4, 4, 4, 8],
        [0, 0, 0, 0, 1, 1, 1, 0, 0, 1]])
    assert export_musicxml(shuffled) == export_musicxml(engraved)


@pytest.mark.parametrize("seed", [0, 1])
def test_engrave_stores_events_in_voice_then_onset_order(seed):
    # unpool_and_finalize does not sort: the events come in (voice, onset)
    # order because number_voices gives the numbers ascending, here with
    # dozens of voices on each staff and the lower block pushed past 5
    score = random_score(seed, n_notes=120, n_bars=8)
    engraved = engrave(random_bundle(build_graph(score), seed), score)
    assert min(e.voice for e in engraved.events if e.staff == 1) > 5
    assert list(engraved.events) == engraved.timeline[0]


def test_finalize_refuses_a_stream_out_of_onset_order():
    # _voice_events takes a stream's pools in the order given; a stream out
    # of onset order is refused when the engraved score validates
    score = two_voice_score()
    bundle = perfect_bundle(score)
    pools = pool_chords(bundle, score, 0.5)
    numbered = number_voices(assign_voices(pools, bundle, 0.5, "max"),
                             pools, score.pitch)
    numbered[1].pool_indices.reverse()
    with pytest.raises(ValueError, match="voice 1: overlapping events"):
        postprocess.unpool_and_finalize(numbered, pools, bundle, score)


def test_long_single_voice_engraves_and_exports():
    # 1,000 quarter notes, each followed by a quarter rest, in one chained
    # voice: 2,000 events over 500 bars
    n = 1000
    triples = [(4 * k, 2, 60 + k % 12) for k in range(n)]
    labels = full_labels(n, voice_edges={(k, k + 1) for k in range(n - 1)})
    score = make_score(2, [(0, 4, 4)], triples, labels=labels)
    engraved = engrave_from_labels(score)
    engraved.validate()
    events = engraved.timeline[0]
    assert {e.voice for e in events} == {1}
    assert len(events) == 2 * n
    assert [e.is_rest for e in events[:4]] == [False, True, False, True]
    data = export_musicxml(engraved)
    validate_subset(data)
    reparsed = parse_musicxml(data).score
    assert reparsed.num_bars == 500
    assert [(note.onset_div, note.duration_div, note.midi_pitch)
            for note in reparsed.notes] == triples


def test_validate_catches_missing_note():
    engraved = engrave_from_labels(two_voice_score())
    with pytest.raises(ValueError, match="events do not cover every note "
                                         "exactly once"):
        dataclasses.replace(engraved, events=tuple(
            e for e in engraved.events if 9 not in e.note_ids))


def with_edits(engraved, edits):
    """A copy of ``engraved``, validated as it is made, whose event at each
    (voice, onset_div) key of ``edits`` takes that value's field changes."""
    return dataclasses.replace(engraved, events=tuple(
        e._replace(**edits[e.voice, e.onset_div])
        if (e.voice, e.onset_div) in edits else e
        for e in engraved.events))


# two_voice_score's events, bars of 8 divisions: voice 1 has quarters at 0, 2,
# 4, 6, 8 and 10 and a half at 12; voice 5 halves at 0 and 4 and a whole at 8
@pytest.mark.parametrize("edits, message", [
    # 77 at 6 held to 9, over the barline at 8
    ({(1, 6): dict(duration_div=3)}, "voice 1: event crosses a barline"),
    ({(5, 4): dict(duration_div=5)}, "voice 5: event crosses a barline"),
    # the half at 12 moved to 16, past the end of the last bar
    ({(1, 12): dict(onset_div=16)}, "voice 1: event crosses a barline"),
    ({(1, 0): dict(onset_div=-2)}, "division -2 before bar 0"),
    # 72 at 0 held to 3, into 74 at 2
    ({(1, 0): dict(duration_div=3)}, "voice 1: overlapping events"),
    # note 2 (74 at 2) sounded again in the chord at 0
    ({(1, 0): dict(note_ids=(1, 2))},
     "events do not cover every note exactly once"),
    # note 9 (76 at 12) written as a note 10 the score does not have
    ({(1, 12): dict(note_ids=(10,))},
     "events do not cover every note exactly once"),
    ({(5, 8): dict(note_ids=(-1,))},
     "events do not cover every note exactly once"),
])
def test_validate_refusals(edits, message):
    engraved = engrave_from_labels(two_voice_score())
    with pytest.raises(ValueError, match=re.escape(message)):
        with_edits(engraved, edits)


@pytest.mark.parametrize("edits, message", [
    # the lowest voice first: a crossing in voice 5, a short bar in voice 1
    ({(5, 4): dict(duration_div=5), (1, 12): dict(duration_div=3)},
     "voice 1, bar 1: durations sum to 7, bar length is 8"),
    # within a voice the barline first, though the overlap comes earlier
    ({(1, 0): dict(duration_div=3), (1, 6): dict(duration_div=3)},
     "voice 1: event crosses a barline"),
    # then overlaps, though the short bar comes earlier
    ({(1, 0): dict(duration_div=1), (1, 8): dict(duration_div=3)},
     "voice 1: overlapping events"),
    # then the bar sums, the first short bar of the voice
    ({(1, 0): dict(duration_div=1), (1, 12): dict(duration_div=3)},
     "voice 1, bar 0: durations sum to 7, bar length is 8"),
    # an event before bar 0 before the crossings of its voice
    ({(5, 0): dict(onset_div=-1), (5, 4): dict(duration_div=5)},
     "division -1 before bar 0"),
    # coverage before every voice
    ({(1, 0): dict(note_ids=(1, 2)), (1, 6): dict(duration_div=3)},
     "events do not cover every note exactly once"),
])
def test_validate_reports_the_first_fault(edits, message):
    engraved = engrave_from_labels(two_voice_score())
    with pytest.raises(ValueError, match=re.escape(message)):
        with_edits(engraved, edits)


def reference_event_fault(score, events):
    """The first fault of ``events`` as a loop over voices and events finds
    it, the reference for validate's column checks: its message, or None."""
    seen = sorted(i for ev in events for i in ev.note_ids)
    if seen != list(range(len(score.onset))):
        return "events do not cover every note exactly once"
    bars = score.bars.tolist()
    by_voice = {}
    for ev in events:
        by_voice.setdefault(ev.voice, []).append(ev)
    for voice in sorted(by_voice):
        evs = sorted(by_voice[voice], key=lambda e: e.onset_div)
        totals = collections.Counter()
        for ev in evs:
            if ev.onset_div < bars[0][0]:
                return f"division {ev.onset_div} before bar 0"
            bar_i = max(b for b, (onset, _) in enumerate(bars)
                        if onset <= ev.onset_div)
            onset, length = bars[bar_i]
            if ev.offset_div > onset + length:
                return f"voice {voice}: event crosses a barline"
            totals[bar_i] += ev.duration_div
        for prev, nxt in zip(evs, evs[1:]):
            if prev.offset_div > nxt.onset_div:
                return f"voice {voice}: overlapping events"
        for b in range(min(totals), max(totals) + 1):
            if totals[b] != bars[b][1]:
                return (f"voice {voice}, bar {b}: durations sum to "
                        f"{totals[b]}, bar length is {bars[b][1]}")
    return None


def scrambled(events, rng, voices):
    """``events`` with one to three of them moved, resized, given another
    voice, given a note more or fewer, or dropped."""
    events = list(events)
    for k in rng.choice(len(events), size=rng.integers(1, 4)).tolist():
        ev = events[k]
        if ev is None:
            continue
        change = rng.choice(["drop", "fewer", "more", "voice", "voice",
                             "onset_div", "onset_div", "duration_div",
                             "duration_div"])
        if change == "drop":
            events[k] = None
        elif change == "fewer":
            events[k] = ev._replace(note_ids=ev.note_ids[:-1])
        elif change == "more":
            events[k] = ev._replace(
                note_ids=ev.note_ids + (int(rng.integers(-1, 3)),))
        elif change == "voice":
            events[k] = ev._replace(voice=int(rng.choice(voices)))
        else:
            events[k] = ev._replace(
                **{change: getattr(ev, change) + int(rng.integers(-3, 4))})
    return tuple(ev for ev in events if ev is not None)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_validate_matches_the_reference_loop(parsed_fixtures, name):
    engraved = engrave_from_labels(parsed_fixtures[name].score)
    rng = np.random.default_rng(7)
    voices = sorted({e.voice for e in engraved.events}) + [9]
    for _ in range(200):
        events = scrambled(engraved.events, rng, voices)
        expected = reference_event_fault(engraved.score, events)
        try:
            dataclasses.replace(engraved, events=events)
        except ValueError as exc:
            assert str(exc) == expected
        else:
            assert expected is None


def test_validate_catches_bar_sum_violation():
    engraved = engrave_from_labels(two_voice_score())

    def shorten(ev):
        if ev.is_rest or ev.onset_div != 0 or ev.voice != 1:
            return ev
        return ev._replace(duration_div=ev.duration_div - 1)

    with pytest.raises(ValueError, match="voice 1, bar 0: durations sum to "
                                         "7, bar length is 8"):
        dataclasses.replace(
            engraved, events=tuple(shorten(e) for e in engraved.events))


def test_validate_catches_short_bar_inside_a_voice():
    # One voice of whole notes over three bars (divisions 2, bar = 8).
    # Bar 1 sits strictly between the voice's first and last bar, so a
    # short total there, or no events there at all, must still raise.
    triples = [(0, 8, 72), (8, 8, 74), (16, 8, 76)]
    labels = full_labels(3, note_type=(WHOLE,) * 3,
                         voice_edges={(0, 1), (1, 2)})
    engraved = engrave_from_labels(
        make_score(2, [(0, 4, 4)], triples, labels=labels))
    engraved.validate()
    middle = [e for e in engraved.events if e.onset_div == 8]
    assert [e.note_ids for e in middle] == [(1,)]
    voice = middle[0].voice

    with pytest.raises(ValueError, match=fr"voice {voice}, bar 1: durations "
                                         r"sum to 7, bar length is 8"):
        dataclasses.replace(engraved, events=tuple(
            e._replace(duration_div=7) if e is middle[0] else e
            for e in engraved.events))

    with pytest.raises(ValueError, match=fr"voice {voice}, bar 1: durations "
                                         r"sum to 0, bar length is 8"):
        dataclasses.replace(engraved, events=tuple(
            e._replace(voice=voice + 1) if e is middle[0] else e
            for e in engraved.events))


def test_validate_catches_octave_region_errors():
    engraved = engrave_from_labels(two_voice_score())
    with pytest.raises(ValueError):
        dataclasses.replace(engraved, octave_regions={0: ((0, 4, 0),)})
    with pytest.raises(ValueError):
        dataclasses.replace(engraved, octave_regions={0: ((4, 4, 1),)})
    with pytest.raises(ValueError):
        dataclasses.replace(engraved,
                            octave_regions={0: ((0, 4, 1), (2, 6, 1))})


def test_validate_catches_wrong_measure_key_count():
    engraved = engrave_from_labels(two_voice_score())
    with pytest.raises(ValueError):
        dataclasses.replace(engraved, measure_keys=(0,))


def test_validate_catches_contradictory_spelling():
    engraved = engrave_from_labels(two_voice_score())
    # note 0 is midi 48, a C: D natural (class 17) would write a D
    assert engraved.spelling[0] == 12
    with pytest.raises(ValueError, match="note 0: spelling 17 does not "
                                         "sound pitch class 0"):
        dataclasses.replace(engraved,
                            spelling=(17,) + engraved.spelling[1:])
    for spelling in ((35,) + engraved.spelling[1:], engraved.spelling[1:]):
        with pytest.raises(ValueError, match="one spelling class per note"):
            dataclasses.replace(engraved, spelling=spelling)


def test_perfect_bundle_structure():
    score = two_voice_score()
    bundle = perfect_bundle(score)
    bundle.validate()
    graph = build_graph(score)
    assert bundle.voice_pairs.dtype == np.int64
    np.testing.assert_array_equal(bundle.voice_pairs, graph.candidate_pairs)
    assert set(np.round(bundle.voice_probs, 2)) <= {0.01, 0.99}
    for head in NODE_HEADS:
        assert bundle.note_logits[head].max() == 20.0
    with pytest.raises(ValueError):
        perfect_bundle(make_score(2, [(0, 4, 4)], [(0, 2, 60)]))
