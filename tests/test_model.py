"""Tests for the assembled model: params, forward, loss, inference."""

import dataclasses
import math

import numpy as np
import pytest

from notesetter.autodiff import backward, reset_tape, tape_size
from notesetter.decoders import (
    HEAD_WIDTHS,
    NODE_HEADS,
    PAIR_HEADS,
    zero_output_layers,
)
from notesetter.graph import build_graph
from notesetter.model import (
    MODEL_SHAPE_KEYS,
    ModelConfig,
    forward,
    graph_for,
    init_params,
    loss_for_score,
    predict_bundle,
)
from notesetter.rng import Rng
from notesetter.synth import random_score

from conftest import parse_fixture

CONFIG = ModelConfig(hidden_size=8, num_layers=2, dropout=0.0)


def test_shape_keys_cover_architecture():
    assert MODEL_SHAPE_KEYS == ("hidden_size", "num_layers", "aggregation",
                                "use_gru", "gru_on_initial_features")
    shape = CONFIG.shape_dict()
    assert shape == {"hidden_size": 8, "num_layers": 2, "aggregation": "sum",
                     "use_gru": True, "gru_on_initial_features": False}


def test_cross_bar_property():
    assert CONFIG.cross_bar is True
    strict = dataclasses.replace(CONFIG, strict_same_bar_candidates=True)
    assert strict.cross_bar is False


@pytest.mark.parametrize("bad", [
    dict(num_layers=-1), dict(dropout=-0.1), dict(aggregation=""),
    dict(num_layers=0), dict(dropout=1.0), dict(aggregation="max"),
    dict(hidden_size=0), dict(hidden_size=-3),
])
def test_config_validation(bad):
    with pytest.raises(ValueError):
        dataclasses.replace(CONFIG, **bad).validate()


def test_init_params_contains_encoder_and_decoder():
    params = init_params(CONFIG, Rng(0))
    names = set(params)
    assert "enc.proj.W" in names
    assert "enc.l1.conv.W0" in names and "enc.l2.conv.W0" in names
    for head in NODE_HEADS + PAIR_HEADS:
        for leaf in ("W1", "b1", "W2", "b2"):
            assert f"dec.{head}.{leaf}" in names
    # decoder widths follow the configured hidden size
    assert params["dec.voice.W1"].shape[0] == 16  # pair heads see [h_u; h_w]
    assert params["dec.clef.W2"].shape[1] == HEAD_WIDTHS["clef"]


def test_init_params_deterministic():
    a = init_params(CONFIG, Rng(5))
    b = init_params(CONFIG, Rng(5))
    assert set(a) == set(b)
    for name in a:
        assert np.array_equal(a[name].data, b[name].data), name


def test_init_params_validates_config():
    with pytest.raises(ValueError):
        init_params(dataclasses.replace(CONFIG, num_layers=0), Rng(0))


def test_graph_for_honors_strict_mode():
    score = random_score(3, n_notes=10)
    full = graph_for(score, CONFIG)
    strict = graph_for(
        score, dataclasses.replace(CONFIG, strict_same_bar_candidates=True))
    assert (set(map(tuple, strict.candidate_pairs.tolist()))
            <= set(map(tuple, full.candidate_pairs.tolist())))
    np.testing.assert_array_equal(
        full.candidate_pairs, build_graph(score, cross_bar=True).candidate_pairs)


def test_forward_produces_all_heads():
    score = random_score(1, n_notes=9)
    graph = graph_for(score, CONFIG)
    params = init_params(CONFIG, Rng(0))
    preds = forward(graph, params, CONFIG)
    for head in NODE_HEADS:
        assert preds.note_logits[head].shape == (9, HEAD_WIDTHS[head])
    assert preds.voice_logits is not None
    np.testing.assert_array_equal(preds.voice_pairs, graph.candidate_pairs)
    reset_tape()


def test_forward_eval_deterministic():
    score = random_score(2, n_notes=8)
    graph = graph_for(score, CONFIG)
    params = init_params(CONFIG, Rng(1))
    a = forward(graph, params, CONFIG, rng=None, train=False)
    b = forward(graph, params, CONFIG, rng=Rng(999), train=False)
    for head in NODE_HEADS:
        assert np.array_equal(a.note_logits[head].data,
                              b.note_logits[head].data)
    reset_tape()


def test_loss_for_score_requires_labels():
    score = dataclasses.replace(random_score(4, n_notes=6), labels=None)
    graph = build_graph(score)
    params = init_params(CONFIG, Rng(0))
    with pytest.raises(ValueError, match="labels"):
        loss_for_score(score, graph, params, CONFIG)
    reset_tape()


def test_loss_for_score_uniform_at_zero_output():
    """Zero output layers make every K-class head cost exactly ln K."""
    score = random_score(5, n_notes=10)
    graph = graph_for(score, CONFIG)
    params = init_params(CONFIG, Rng(0))
    zero_output_layers(params)
    result = loss_for_score(score, graph, params, CONFIG, train=False)
    for head in NODE_HEADS:
        assert result.per_head[head] == pytest.approx(
            math.log(HEAD_WIDTHS[head]), abs=1e-9), head
    reset_tape()


def test_loss_backward_reaches_all_used_params():
    score = random_score(6, n_notes=10)
    graph = graph_for(score, CONFIG)
    params = init_params(CONFIG, Rng(0))
    reset_tape()
    result = loss_for_score(score, graph, params, CONFIG, rng=Rng(7),
                            train=True)
    backward(result.total)
    for name, p in params.items():
        assert p.grad is not None, name
        assert np.all(np.isfinite(p.grad)), name
    reset_tape()


@pytest.mark.parametrize("name,nodes", [
    ("fixture_a", 68), ("fixture_b", 68), ("triplet_octave", 68),
    ("grace_clip", 64), ("single_whole", 60)])
def test_training_step_tape_length(name, nodes):
    # [DERIVED] a training step at the default three layers records the
    # projection and five nodes per layer (convolution, ReLU, dropout, GRU
    # sweep, layer norm), three per node head (linear, ReLU, linear), two per
    # pair head with pairs (pair_hidden, linear), one loss node per head and
    # one add per head after the first. grace_clip has no chord pair and
    # single_whole has no pair at all.
    heads = {"grace_clip": 10, "single_whole": 9}.get(name, 11)
    assert nodes == 16 + 3 * 9 + 2 * (heads - 9) + heads + heads - 1
    score = parse_fixture(name).score
    config = ModelConfig(hidden_size=8)
    reset_tape()
    loss_for_score(score, graph_for(score, config),
                   init_params(config, Rng(0)), config, rng=Rng(1), train=True)
    assert tape_size() == nodes
    reset_tape()


def test_predict_bundle_deterministic_and_clean():
    score = random_score(7, n_notes=12)
    params = init_params(CONFIG, Rng(3))
    reset_tape()
    a = predict_bundle(score, params, CONFIG)
    assert tape_size() == 0  # inference must not grow the tape
    b = predict_bundle(score, params, CONFIG)
    a.validate()
    for head in NODE_HEADS:
        assert np.array_equal(a.note_logits[head], b.note_logits[head])
    assert np.array_equal(a.voice_probs, b.voice_probs)
    np.testing.assert_array_equal(a.voice_pairs,
                                  graph_for(score, CONFIG).candidate_pairs)


def test_predict_bundle_dropout_ignored_at_inference():
    score = random_score(8, n_notes=10)
    heavy = dataclasses.replace(CONFIG, dropout=0.9)
    params = init_params(heavy, Rng(3))
    a = predict_bundle(score, params, heavy)
    b = predict_bundle(score, params, CONFIG)
    for head in NODE_HEADS:
        assert np.array_equal(a.note_logits[head], b.note_logits[head])
