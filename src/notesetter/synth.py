"""Synthetic scores and bundles for gradient checks and randomized tests.

Notes are confined to single bars (no barline crossings) so every generated
piece is engravable, and all class labels are drawn from the real
vocabularies so losses and metrics see realistic shapes.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .decoders import (HEAD_WIDTHS, NODE_HEADS, PredictionBundle, sigmoid,
                       staff_probabilities)
from .graph import ScoreGraph, candidate_pairs, relation_edges
from .notes import (LabelSet, NODE_LABELS, Score, TimeSignature, bar_table,
                    make_score)
from .rng import Rng


def random_score(seed: int, n_notes: int = 12, numerator: int = 4,
                 n_bars: int = 2) -> Score:
    """A random but valid labeled piece in ``numerator``/4, 4 divisions per
    quarter, named ``synth-<seed>``."""
    rng = Rng(seed)
    bars = bar_table(4, (TimeSignature(0, numerator, 4),), n_bars)
    triples = []
    seen = set()
    while len(triples) < n_notes:
        b = int(rng.integers(n_bars)[0])
        bar_onset, bar_len = bars[b]
        pos = int(rng.integers(bar_len)[0])
        onset = bar_onset + pos
        duration = 1 + int(rng.integers(bar_len - pos)[0])
        midi = 36 + int(rng.integers(48)[0])
        if (onset, midi) in seen:
            continue
        seen.add((onset, midi))
        triples.append((onset, duration, midi))
    score = make_score(4, ((0, numerator, 4),), triples, name=f"synth-{seed}")
    return dataclasses.replace(score, labels=random_labels(score, rng))


def random_labels(score: Score, rng: Rng) -> LabelSet:
    """Uniformly random labels over the ``NODE_LABELS`` rows, drawn row by
    row in table order; edges from candidates."""
    n = len(score.onset)
    candidates = candidate_pairs(score)
    keep_v = rng.uniform(max(len(candidates), 1))
    voice_edges = frozenset(
        map(tuple, candidates[keep_v[:len(candidates)] < 0.25].tolist()))
    same_onset = np.stack(relation_edges(score)["onset"], axis=1)  # u < w
    keep_c = rng.uniform(max(len(same_onset), 1))
    chord_edges = frozenset(
        map(tuple, same_onset[keep_c[:len(same_onset)] < 0.3].tolist()))
    return LabelSet(
        **{field: tuple(row[v] for v in rng.integers(len(row), n).tolist())
           for field, row in NODE_LABELS.values()},
        voice_edges=voice_edges, chord_edges=chord_edges)


def random_bundle(graph: ScoreGraph, seed: int) -> PredictionBundle:
    """Random logits/probabilities shaped for the graph's candidates, from
    normal draws times 2."""
    rng = Rng(seed)
    n = graph.node_count
    note_logits = {head: rng.normal(n, HEAD_WIDTHS[head]) * 2.0
                   for head in NODE_HEADS}
    staff_probs = staff_probabilities(note_logits["staff"])
    voice_pairs, chord_pairs = graph.candidate_pairs, graph.chord_pairs
    return PredictionBundle(
        note_logits=note_logits, staff_probs=staff_probs,
        voice_pairs=voice_pairs,
        voice_probs=sigmoid(rng.normal(len(voice_pairs)) * 2.0),
        chord_pairs=chord_pairs,
        chord_probs=sigmoid(rng.normal(len(chord_pairs)) * 2.0))
