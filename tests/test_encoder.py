"""Oracle tests for the hybrid encoder.

The strongest checks reimplement one full block straight-line in numpy
(convolution, GRU sweep, layer norms) and demand near-bit equality with the
tape-based implementation.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from notesetter import autodiff as ad
from notesetter.encoder import encode
from notesetter.graph import RELATIONS, build_graph
from notesetter.model import ModelConfig, init_params
from notesetter.notes import make_score
from notesetter.rng import Rng
from notesetter.synth import random_score

from conftest import numpy_gru, numpy_layer_norm


def small_score():
    return make_score(2, [(0, 4, 4)],
                      [(0, 4, 60), (0, 4, 64), (2, 2, 67), (4, 2, 62),
                       (7, 1, 65), (8, 8, 59), (10, 2, 72)])


def small_graph():
    return build_graph(small_score())


def sweep_order(score):
    """Note ids in (onset, pitch) order, the order the GRU must sweep."""
    return np.lexsort(([x.midi_pitch for x in score.notes],
                       [x.onset_div for x in score.notes]))


def test_param_names_and_shapes():
    config = ModelConfig(hidden_size=4, num_layers=2, dropout=0.0)
    params = init_params(config, Rng(0))
    expected = {"enc.proj.W", "enc.proj.b"}
    for layer in (1, 2):
        pre = f"enc.l{layer}"
        expected.add(f"{pre}.conv.W0")
        expected.update(f"{pre}.conv.W.{rel}" for rel in RELATIONS)
        for gate in ("z", "r", "c"):
            expected.update({f"{pre}.gru.Wx{gate}", f"{pre}.gru.Wh{gate}",
                             f"{pre}.gru.b{gate}"})
        expected.update({f"{pre}.gru.ln.g", f"{pre}.gru.ln.b",
                         f"{pre}.ln.g", f"{pre}.ln.b"})
    assert {name for name in params if name.startswith("enc.")} == expected
    assert params["enc.proj.W"].shape == (17, 4)
    assert params["enc.proj.b"].shape == (1, 4)
    assert params["enc.l1.conv.W.onset_inv"].shape == (4, 4)
    assert params["enc.l2.gru.Wxz"].shape == (4, 4)
    np.testing.assert_array_equal(params["enc.l1.ln.g"].data, np.ones((1, 4)))
    np.testing.assert_array_equal(params["enc.l1.gru.bz"].data,
                                  np.zeros((1, 4)))


def test_init_determinism_and_scale():
    config = ModelConfig(hidden_size=64, num_layers=1)
    a = init_params(config, Rng(5))
    b = init_params(config, Rng(5))
    for name in a:
        np.testing.assert_array_equal(a[name].data, b[name].data)
    c = init_params(config, Rng(6))
    assert any(not np.array_equal(a[n].data, c[n].data) for n in a)
    # Weight scale ~ sqrt(1/fan_in): N(0, 1/rows) entries.
    w = a["enc.l1.conv.W0"].data
    assert abs(w.std() - math.sqrt(1 / 64)) < 0.2 * math.sqrt(1 / 64)
    wp = a["enc.proj.W"].data
    assert abs(wp.std() - math.sqrt(1 / 17)) < 0.25 * math.sqrt(1 / 17)


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(num_layers=0).validate()
    with pytest.raises(ValueError):
        ModelConfig(dropout=1.0).validate()
    with pytest.raises(ValueError):
        ModelConfig(aggregation="max").validate()


def test_encode_shape_and_eval_determinism():
    graph = small_graph()
    config = ModelConfig(hidden_size=8, num_layers=2, dropout=0.5)
    params = init_params(config, Rng(1))
    out1 = encode(graph, params, config, Rng(11), train=False)
    out2 = encode(graph, params, config, Rng(999), train=False)
    assert out1.shape == (7, 8)
    np.testing.assert_array_equal(out1.data, out2.data)  # rng unused in eval
    assert np.all(np.isfinite(out1.data))


def test_dropout_draws_differ_in_training():
    graph = small_graph()
    config = ModelConfig(hidden_size=8, num_layers=1, dropout=0.5)
    params = init_params(config, Rng(1))
    t1 = encode(graph, params, config, Rng(11), train=True)
    t2 = encode(graph, params, config, Rng(12), train=True)
    t1_again = encode(graph, params, config, Rng(11), train=True)
    assert not np.array_equal(t1.data, t2.data)
    np.testing.assert_array_equal(t1.data, t1_again.data)


def _numpy_conv(graph, hidden, params, pre, aggregation):
    n = graph.node_count
    mixed = hidden @ params[f"{pre}.conv.W0"].data
    for rel in RELATIONS:
        src, dst = graph.edges(rel)
        if len(src) == 0:
            continue
        agg = np.zeros_like(hidden)
        np.add.at(agg, dst, hidden[src])
        if aggregation == "mean":
            deg = np.bincount(dst, minlength=n).astype(float)
            agg = agg / np.maximum(deg, 1.0).reshape(-1, 1)
        mixed = mixed + agg @ params[f"{pre}.conv.W.{rel}"].data
    return np.maximum(mixed, 0.0)


@pytest.mark.parametrize("aggregation", ["sum", "mean"])
def test_no_gru_single_layer_matches_numpy(aggregation):
    # [DERIVED: duplicate-formula oracle] conv-only block:
    #   relu(h W0 + sum_r A_r h W_r) -> layer_norm
    graph = small_graph()
    config = ModelConfig(hidden_size=5, num_layers=1, dropout=0.0,
                           aggregation=aggregation, use_gru=False)
    params = init_params(config, Rng(3))
    got = encode(graph, params, config, Rng(0), train=False).data

    h0 = graph.features @ params["enc.proj.W"].data + params["enc.proj.b"].data
    conv = _numpy_conv(graph, h0, params, "enc.l1", aggregation)
    expected = numpy_layer_norm(conv, params["enc.l1.ln.g"].data,
                                 params["enc.l1.ln.b"].data)
    np.testing.assert_allclose(got, expected, atol=1e-12)


def _numpy_gru_sweep(seq, params, pre):
    def gate_params(*names):
        return [params[f"{pre}.{name}"].data for name in names]

    return numpy_gru(seq, gate_params("Wxz", "Wxr", "Wxc"),
                     gate_params("Whz", "Whr", "Whc"),
                     gate_params("bz", "br", "bc"),
                     *gate_params("ln.g", "ln.b"))


def test_gru_single_layer_matches_numpy():
    # [DERIVED: duplicate-formula oracle] full hybrid block with the GRU
    # swept in (onset, pitch) order, states mapped back to id order, then the
    # block norm.
    score = small_score()
    graph = build_graph(score)
    config = ModelConfig(hidden_size=3, num_layers=1, dropout=0.0,
                           aggregation="sum", use_gru=True)
    params = init_params(config, Rng(7))
    # Perturb the norm parameters so the oracle can't pass by symmetry.
    params["enc.l1.gru.ln.g"].data[...] = [[1.1, 0.9, 1.3]]
    params["enc.l1.gru.ln.b"].data[...] = [[0.05, -0.1, 0.2]]
    got = encode(graph, params, config, Rng(0), train=False).data

    h0 = graph.features @ params["enc.proj.W"].data + params["enc.proj.b"].data
    conv = _numpy_conv(graph, h0, params, "enc.l1", "sum")
    order = sweep_order(score)
    swept = _numpy_gru_sweep(conv[order], params, "enc.l1.gru")
    states = swept[np.argsort(order)]
    expected = numpy_layer_norm(states, params["enc.l1.ln.g"].data,
                                 params["enc.l1.ln.b"].data)
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_gru_on_initial_features_matches_numpy():
    score = small_score()
    graph = build_graph(score)
    config = ModelConfig(hidden_size=3, num_layers=1, dropout=0.0,
                           use_gru=True, gru_on_initial_features=True)
    params = init_params(config, Rng(9))
    got = encode(graph, params, config, Rng(0), train=False).data

    h0 = graph.features @ params["enc.proj.W"].data + params["enc.proj.b"].data
    conv = _numpy_conv(graph, h0, params, "enc.l1", "sum")
    order = sweep_order(score)
    swept = _numpy_gru_sweep(h0[order], params, "enc.l1.gru")
    states = swept[np.argsort(order)]
    expected = numpy_layer_norm(conv + states, params["enc.l1.ln.g"].data,
                                 params["enc.l1.ln.b"].data)
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_aggregation_modes_differ():
    graph = small_graph()
    base = dict(hidden_size=6, num_layers=1, dropout=0.0, use_gru=False)
    cfg_sum = ModelConfig(aggregation="sum", **base)
    cfg_mean = ModelConfig(aggregation="mean", **base)
    params = init_params(cfg_sum, Rng(4))
    out_sum = encode(graph, params, cfg_sum, Rng(0), train=False)
    out_mean = encode(graph, params, cfg_mean, Rng(0), train=False)
    assert not np.array_equal(out_sum.data, out_mean.data)


def test_multi_layer_random_scores_finite():
    config = ModelConfig(hidden_size=8, num_layers=3, dropout=0.25)
    params = init_params(config, Rng(10))
    for seed in range(4):
        graph = build_graph(random_score(seed, n_notes=9))
        out = encode(graph, params, config, Rng(seed), train=True)
        assert out.shape == (graph.node_count, 8)
        assert np.all(np.isfinite(out.data))


def test_gru_tape_size_independent_of_piece_length():
    # The convolution and the sweep are one tape node each per layer, so
    # the tape does not grow with the note count.
    config = ModelConfig(hidden_size=4, num_layers=2, dropout=0.25)
    params = init_params(config, Rng(0))
    sizes = []
    for n_notes, n_bars in ((20, 4), (80, 16)):
        graph = build_graph(random_score(0, n_notes=n_notes, n_bars=n_bars))
        assert graph.node_count == n_notes
        ad.reset_tape()
        encode(graph, params, config, Rng(0), train=True)
        sizes.append(ad.tape_size())
        ad.reset_tape()
        with ad.no_grad():
            encode(graph, params, config, Rng(0), train=True)
        assert ad.tape_size() == 0
    assert sizes[0] == sizes[1]
