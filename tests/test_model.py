"""Tests for the assembled model: params, forward, loss, inference."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from notesetter import model
from notesetter.autodiff import backward, no_grad, reset_tape, tape_size
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
    param_shapes,
    predict_bundle,
)
from notesetter.musicxml import TooManyVoices, UnrepresentableDuration
from notesetter.pipeline import engrave_bytes
from notesetter.postprocess import (DEFAULT_PAIR_AGG, DEFAULT_THRESHOLD,
                                    UnfillableGap)
from notesetter.rng import Rng
from notesetter.synth import random_score
from notesetter.trainer import TrainConfig, train

from conftest import FIXTURE_NAMES, parse_fixture

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


def params_digest(params) -> str:
    """sha256 over each parameter in dict order: name, repr(shape), data."""
    digest = hashlib.sha256()
    for name, p in params.items():
        digest.update(name.encode("utf-8"))
        digest.update(repr(p.data.shape).encode("utf-8"))
        digest.update(p.data.tobytes())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("config, want", [
    (ModelConfig(), "a94767216316d8f5"),
    (ModelConfig(hidden_size=8, num_layers=1), "de1a372d4f1a9deb"),
    (ModelConfig(hidden_size=5, num_layers=2, use_gru=False),
     "f9792587b5f61a5a"),
], ids=["default", "h8-l1", "h5-l2-nogru"])
def test_init_params_is_pinned(config, want):
    # names, shapes, order and drawn values, as the per-module draws made
    # them before the parameters were declared in one table
    assert params_digest(init_params(config, Rng(3))) == want


def test_param_shapes_is_what_init_params_draws():
    params = init_params(CONFIG, Rng(0))
    table = param_shapes(CONFIG)
    assert [(name, shape) for name, shape, _ in table] == \
        [(name, p.shape) for name, p in params.items()]
    for name, _, init in table:
        data = params[name].data
        if init == "normal":
            assert data.std() > 0.0, name
        else:
            assert np.all(data == (1.0 if init == "ones" else 0.0)), name
    assert {init for _, _, init in table} == {"normal", "zeros", "ones"}
    # only hidden_size and num_layers set shapes
    for other in (dict(aggregation="mean"), dict(use_gru=False),
                  dict(gru_on_initial_features=True), dict(dropout=0.1)):
        assert param_shapes(dataclasses.replace(CONFIG, **other)) == table


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
    # no rng, so no dropout: the same as a zero dropout rate
    a = forward(graph, params, CONFIG)
    b = forward(graph, params, dataclasses.replace(CONFIG, dropout=0.0),
                rng=Rng(999))
    for head in NODE_HEADS:
        assert np.array_equal(a.note_logits[head].data,
                              b.note_logits[head].data)
    reset_tape()


def test_loss_for_score_without_rng_has_no_dropout():
    # no rng means no dropout, whatever the configured rate
    score = random_score(5, n_notes=10)
    config = ModelConfig(hidden_size=8, num_layers=1)
    assert config.dropout == 0.5
    graph = graph_for(score, config)
    params = init_params(config, Rng(0))
    got = loss_for_score(score, graph, params, config).total.item()
    want = loss_for_score(score, graph, params,
                          dataclasses.replace(config, dropout=0.0)).total.item()
    reset_tape()
    assert got == want


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
    result = loss_for_score(score, graph, params, CONFIG)
    for head in NODE_HEADS:
        assert result.per_head[head] == pytest.approx(
            math.log(HEAD_WIDTHS[head]), abs=1e-9), head
    reset_tape()


def test_loss_backward_reaches_all_used_params():
    score = random_score(6, n_notes=10)
    graph = graph_for(score, CONFIG)
    params = init_params(CONFIG, Rng(0))
    reset_tape()
    result = loss_for_score(score, graph, params, CONFIG, rng=Rng(7))
    backward(result.total)
    for name, p in params.items():
        assert p.grad is not None, name
        assert np.all(np.isfinite(p.grad)), name
    reset_tape()


def _scatter_plans_built(graph) -> list[bool]:
    """Whether the convolution's and each pair head's scatter plan exist."""
    plans = (graph.conv_plan, *graph.pair_plans)
    return ["scatter" in vars(plan) for plan in plans]


def test_backward_builds_the_scatter_plans_and_repeats_bit_for_bit():
    # The first backward builds the graph's scatter plans, the second reuses
    # them: both give the same gradients, bit for bit.
    score = parse_fixture("fixture_a").score
    graph = graph_for(score, CONFIG)
    params = init_params(CONFIG, Rng(0))
    grads = []
    for _ in range(2):
        reset_tape()
        for p in params.values():
            p.grad = None
        backward(loss_for_score(score, graph, params, CONFIG,
                                rng=Rng(7)).total)
        assert _scatter_plans_built(graph) == [True, True, True]
        grads.append({name: p.grad.copy() for name, p in params.items()})
    reset_tape()
    for name in params:
        np.testing.assert_array_equal(grads[0][name], grads[1][name], name)


def test_predict_bundle_builds_no_scatter_plan(monkeypatch):
    score = parse_fixture("fixture_a").score
    graphs = []

    def recording_graph_for(*args):
        graphs.append(graph_for(*args))
        return graphs[-1]
    monkeypatch.setattr(model, "graph_for", recording_graph_for)
    predict_bundle(score, init_params(CONFIG, Rng(3)), CONFIG)
    (graph,) = graphs
    assert {"conv_plan", "pair_plans"} <= set(vars(graph))
    assert _scatter_plans_built(graph) == [False, False, False]


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
                   init_params(config, Rng(0)), config, rng=Rng(1))
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


@pytest.mark.parametrize("logit", [40.0, 30.0, 17.0, -40.0, -100.0])
def test_predict_bundle_is_float64_strictly_inside_0_1(logit):
    # In float32 the sigmoid of a logit of 17 or more rounds to 1.0, and of
    # -89 or less to 0.0; the bundle casts the logits to float64 first.
    score = parse_fixture("fixture_a").score
    params = init_params(CONFIG, Rng(4))
    for head in PAIR_HEADS:
        params[f"dec.{head}.W2"].data[...] = 0.0
        params[f"dec.{head}.b2"].data[...] = logit
    bundle = predict_bundle(score, params, CONFIG)
    for head in NODE_HEADS:
        assert bundle.note_logits[head].dtype == np.float64
    assert bundle.staff_probs.dtype == np.float64
    for probs in (bundle.voice_probs, bundle.chord_probs):
        assert probs.dtype == np.float64 and len(probs)
        assert ((probs > 0.0) & (probs < 1.0)).all()
        assert (probs > 0.5).all() == (logit > 0)
    bundle.validate()


@pytest.fixture(scope="module")
def trained_on_fixtures():
    """Acceptance criterion 2's model: hidden 32, dropout 0, 300 epochs on
    fixture_a and fixture_b."""
    config = ModelConfig(hidden_size=32, dropout=0.0)
    corpus = [parse_fixture(name).score for name in ("fixture_a", "fixture_b")]
    params, _result = train(corpus, config,
                            TrainConfig(epochs=300, lr=1e-3, weight_decay=0.0,
                                        seed=0, val_fraction=0.0))
    return config, params


def _engraved(score, bundle):
    """The engraved MusicXML bytes, or the class of the refusal."""
    try:
        return engrave_bytes(score, bundle, DEFAULT_THRESHOLD,
                             DEFAULT_PAIR_AGG)
    except (TooManyVoices, UnfillableGap, UnrepresentableDuration) as exc:
        return type(exc)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_float32_inference_decides_as_float64(name, trained_on_fixtures,
                                              monkeypatch):
    config, params = trained_on_fixtures
    score = parse_fixture(name).score
    kept = []

    def keep(*args, **kwargs):
        kept.append(forward(*args, **kwargs))
        return kept[-1]

    monkeypatch.setattr(model, "forward", keep)
    bundle = predict_bundle(score, params, config)
    (single,) = kept
    assert single.note_logits["staff"].data.dtype == np.float32
    with no_grad():
        double = forward(graph_for(score, config), params, config)
    oracle = double.bundle()

    for head in NODE_HEADS:
        np.testing.assert_array_equal(bundle.argmax(head), oracle.argmax(head))
        np.testing.assert_allclose(single.note_logits[head].data,
                                   double.note_logits[head].data,
                                   rtol=0, atol=1e-4)
    for head in PAIR_HEADS:
        got, want = (getattr(p, f"{head}_logits") for p in (single, double))
        if want is not None:
            np.testing.assert_allclose(got.data, want.data, rtol=0, atol=1e-4)
    for kind in ("staff", "voice", "chord"):
        got, want = (getattr(b, f"{kind}_probs") for b in (bundle, oracle))
        np.testing.assert_array_equal(got >= 0.5, want >= 0.5)
    assert _engraved(score, bundle) == _engraved(score, oracle)
