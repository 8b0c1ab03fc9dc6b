"""Oracle tests for the reverse-mode tape.

Forward values are checked against hand/numpy computations; gradients are
checked against a local central-difference probe written here (independent
of optim.grad_check) so backward() is compared to a second implementation.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from notesetter import autodiff as ad
from notesetter.autodiff import ShapeMismatch, Value
from notesetter.graph import RELATIONS, build_graph
from notesetter.rng import Rng
from notesetter.synth import random_score

from conftest import (FIXTURE_NAMES, mul, numpy_gru, parse_fixture,
                      sum_all)


def central_diff(loss_fn, param: Value, eps: float = 1e-6) -> np.ndarray:
    """Finite-difference d(loss)/d(param) by perturbing param.data in place."""
    out = np.zeros_like(param.data)
    for i in range(param.data.shape[0]):
        for j in range(param.data.shape[1]):
            orig = param.data[i, j]
            param.data[i, j] = orig + eps
            hi = loss_fn().item()
            param.data[i, j] = orig - eps
            lo = loss_fn().item()
            param.data[i, j] = orig
            out[i, j] = (hi - lo) / (2 * eps)
    return out


def check_grads(loss_fn, params: list[Value], rtol: float = 1e-6,
                atol: float = 1e-7) -> None:
    """Run backward once and compare every param grad to central differences."""
    ad.reset_tape()
    for p in params:
        p.grad = None
    loss = loss_fn()
    ad.backward(loss)
    analytic = [np.array(p.grad) if p.grad is not None else np.zeros_like(p.data)
                for p in params]
    ad.reset_tape()
    for p, a in zip(params, analytic):
        fd = central_diff(loss_fn, p)
        np.testing.assert_allclose(a, fd, rtol=rtol, atol=atol)


def weighted_sum(x: Value, seed: int = 0) -> Value:
    """Reduce x to a scalar with fixed random weights (probes every entry)."""
    w = Value(Rng(seed).normal(*x.shape).reshape(x.shape))
    return sum_all(mul(x, w))


# --- Value basics ---

def test_value_shapes():
    assert Value(3.5).shape == (1, 1)
    assert Value(3.5).item() == 3.5
    assert Value([1.0, 2.0, 3.0]).shape == (1, 3)
    assert Value(np.ones((2, 4))).shape == (2, 4)
    with pytest.raises(ShapeMismatch):
        Value(np.ones((2, 2, 2)))
    with pytest.raises(ShapeMismatch):
        Value(np.ones((2, 2))).item()


def test_value_keeps_float32_and_converts_the_rest_to_float64():
    single = np.ones((2, 3), dtype=np.float32)
    assert Value(single).data is single
    for data in (np.arange(6).reshape(2, 3), [[1, 2], [3, 4]], [0.5, 1.5],
                 2.5, np.ones((2, 2), dtype=np.float16)):
        assert Value(data).data.dtype == np.float64


def test_tape_and_no_grad():
    ad.reset_tape()
    a = Value(1.0)
    b = Value(2.0)
    assert ad.tape_size() == 0  # leaves are not recorded
    c = ad.add(a, b)
    assert ad.tape_size() == 1
    with ad.no_grad():
        d = ad.add(c, b)
    assert ad.tape_size() == 1  # nothing recorded under no_grad
    assert d.item() == 5.0
    ad.reset_tape()
    assert ad.tape_size() == 0


def test_backward_requires_scalar():
    ad.reset_tape()
    x = Value(np.ones((2, 3)))
    y = ad.relu(x)
    with pytest.raises(ShapeMismatch):
        ad.backward(y)


def test_backward_accumulates_through_reuse():
    # loss = x*x + x  =>  dloss/dx = 2x + 1; at x=3 -> 7. [DERIVED]
    ad.reset_tape()
    x = Value(3.0)
    loss = ad.add(mul(x, x), x)
    ad.backward(loss)
    assert loss.item() == 12.0
    assert float(x.grad[0, 0]) == pytest.approx(7.0, abs=1e-12)


# --- linear layer and arithmetic ---

def test_linear_forward_and_grad():
    x = Value(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
    w = Value(np.array([[1.0, 0.0, 2.0], [0.0, 1.0, -1.0]]))
    b = Value(np.array([[0.5, -1.0, 0.25]]))
    out = ad.linear(x, w, b)
    np.testing.assert_array_equal(out.data, x.data @ w.data + b.data)
    check_grads(lambda: weighted_sum(ad.linear(x, w, b), seed=1), [x, w, b])
    # one row: the bias gradient is the row's own gradient
    row = Value(np.array([[0.3, -0.7]]))
    check_grads(lambda: weighted_sum(ad.linear(row, w, b), seed=2), [row, w, b])
    with pytest.raises(ShapeMismatch):
        ad.linear(x, Value(np.ones((3, 3))), b)
    with pytest.raises(ShapeMismatch):
        ad.linear(x, w, Value(np.ones((3, 3))))
    ad.reset_tape()


def test_linear_bias_grad_sums_over_rows():
    # (3,2) @ (2,2) + (1,2): the bias grad sums over rows. [DERIVED]
    x = Value(np.arange(6, dtype=float).reshape(3, 2))
    w = Value(np.eye(2))
    bias = Value(np.array([[10.0, 20.0]]))
    ad.reset_tape()
    loss = sum_all(ad.linear(x, w, bias))
    assert ad.tape_size() == 2
    ad.backward(loss)
    np.testing.assert_array_equal(bias.grad, [[3.0, 3.0]])
    np.testing.assert_array_equal(x.grad, np.ones((3, 2)))
    np.testing.assert_array_equal(w.grad, [[6.0, 6.0], [9.0, 9.0]])
    ad.reset_tape()


def test_add_and_mul():
    a = Value(np.array([[2.0, -1.0]]))
    b = Value(np.array([[0.5, 4.0]]))
    np.testing.assert_array_equal(ad.add(a, b).data, [[2.5, 3.0]])
    np.testing.assert_array_equal(mul(a, b).data, [[1.0, -4.0]])
    check_grads(lambda: weighted_sum(ad.add(a, b), 2), [a, b])
    check_grads(lambda: weighted_sum(mul(a, b), 3), [a, b])
    # a bias row is not broadcast: that is linear's job
    with pytest.raises(ShapeMismatch):
        ad.add(Value(np.ones((2, 2))), a)
    with pytest.raises(ShapeMismatch):
        mul(Value(np.ones((2, 2))), a)


# --- structural primitives ---

# Pairs with repeated ends on both sides, a reversed pair, and a note that
# appears as both u and w.
PAIR_U = np.array([0, 0, 2, 3, 3, 1, 4, 2])
PAIR_W = np.array([1, 2, 1, 1, 0, 0, 1, 3])
PAIRS = ad.PairPlan(PAIR_U, PAIR_W)
NO_PAIRS = ad.PairPlan(*np.zeros((2, 0), dtype=np.int64))


def _pair_inputs(seed, n=5, hid=4, hh=6):
    rng = Rng(seed)
    return (Value(rng.normal(n, hid).reshape(n, hid)),
            Value(rng.normal(2 * hid, hh).reshape(2 * hid, hh)),
            Value(rng.normal(1, hh).reshape(1, hh) * 0.5))


def numpy_pair_hidden(emb, w1, b1, u, w):
    """The concatenated form: relu([emb[u]; emb[w]] @ w1 + b1)."""
    x = np.concatenate([emb[u], emb[w]], axis=1)
    return np.maximum(x @ w1 + b1, 0.0)


def test_pair_hidden_matches_concatenated_form():
    emb, w1, b1 = _pair_inputs(40)
    ad.reset_tape()
    out = ad.pair_hidden(emb, w1, b1, PAIRS)
    assert ad.tape_size() == 1
    want = numpy_pair_hidden(emb.data, w1.data, b1.data, PAIR_U, PAIR_W)
    np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-12)
    assert (want == 0).any() and (want > 0).any()   # both sides of the ReLU
    with ad.no_grad():
        np.testing.assert_array_equal(
            ad.pair_hidden(emb, w1, b1, PAIRS).data, out.data)
    assert ad.tape_size() == 1
    assert ad.pair_hidden(emb, w1, b1, NO_PAIRS).shape == (0, 6)
    ad.reset_tape()


def test_pair_hidden_gradients():
    emb, w1, b1 = _pair_inputs(41)
    check_grads(lambda: weighted_sum(
        ad.pair_hidden(emb, w1, b1, PAIRS), 42), [emb, w1, b1])


def test_pair_hidden_empty_pair_set_gradients():
    # No pairs: the head adds nothing, and its backward adds zeros.
    emb, w1, b1 = _pair_inputs(43)
    check_grads(lambda: ad.add(
        weighted_sum(ad.pair_hidden(emb, w1, b1, NO_PAIRS), 44),
        weighted_sum(emb, 45)), [emb, w1, b1])
    ad.reset_tape()
    loss = ad.add(sum_all(ad.pair_hidden(emb, w1, b1, NO_PAIRS)),
                  sum_all(emb))
    w1.grad = b1.grad = emb.grad = None
    ad.backward(loss)
    np.testing.assert_array_equal(w1.grad, np.zeros_like(w1.data))
    np.testing.assert_array_equal(b1.grad, np.zeros_like(b1.data))
    np.testing.assert_array_equal(emb.grad, np.ones_like(emb.data))
    ad.reset_tape()


def test_pair_hidden_shape_checks():
    emb, w1, b1 = _pair_inputs(47)
    with pytest.raises(ShapeMismatch):
        ad.pair_hidden(emb, Value(w1.data[:7]), b1, PAIRS)
    with pytest.raises(ShapeMismatch):
        ad.pair_hidden(emb, w1, Value(b1.data[:, :5]), PAIRS)
    with pytest.raises(ShapeMismatch):
        ad.PairPlan(PAIR_U, PAIR_W[:-1])


def _apply_rank_steps(steps, values, rows):
    out = np.zeros((rows, values.shape[1]))
    for step_rows, items in steps:
        out[step_rows] += values[items]
    return out


def test_rank_steps_match_add_at():
    # [DERIVED: np.add.at oracle] duplicate indices accumulate in the order
    # given, rows no index names stay zero, and rows may exceed the largest
    # index; no step names a row twice, and the first names every row used.
    values = Rng(20).normal(5, 2).reshape(5, 2)
    idx = np.array([3, 0, 3, 1, 3])
    expected = np.zeros((6, 2))
    np.add.at(expected, idx, values)
    steps = ad._rank_steps(idx, np.arange(len(idx)))
    np.testing.assert_array_equal(_apply_rank_steps(steps, values, 6), expected)
    assert steps[0][0].tolist() == [0, 1, 3]
    assert all(len(set(rows.tolist())) == len(rows) for rows, _ in steps)
    np.testing.assert_array_equal(values, Rng(20).normal(5, 2).reshape(5, 2))


def test_rank_steps_empty_index():
    # A piece with no edges or no chord candidates sums zero rows.
    values = np.ones((3, 2))
    empty = np.array([], dtype=np.int64)
    steps = ad._rank_steps(empty, empty)
    np.testing.assert_array_equal(_apply_rank_steps(steps, values, 4),
                                  np.zeros((4, 2)))


# Five notes, three relations; relation 1 has no edges, and the edge 2 -> 0
# in relation 0 appears twice.
CONV_SRC = np.array([1, 2, 2, 4, 0, 3, 4])
CONV_DST = np.array([0, 0, 0, 0, 3, 1, 1])
CONV_REL = np.array([0, 0, 0, 2, 2, 2, 0])
CONV_PLAN = ad.ConvPlan(CONV_SRC, CONV_DST, CONV_REL, 5, 3)


def _conv_inputs(seed, n=5, d=3, hid=2, relations=3):
    rng = Rng(seed)
    h = Value(rng.normal(n, d).reshape(n, d))
    weights = [Value(rng.normal(d, hid).reshape(d, hid))
               for _ in range(relations + 1)]
    return h, weights


def _add_at_conv(h, weights, scale, src=CONV_SRC, dst=CONV_DST, rel=CONV_REL):
    """[DERIVED: np.add.at oracle] the convolution, one relation at a time."""
    out = h @ weights[0]
    for r in range(len(weights) - 1):
        mask = rel == r
        agg = np.zeros((h.shape[0], weights[0].shape[1]))
        np.add.at(agg, dst[mask], (h[src[mask]] @ weights[r + 1])
                  * scale[mask, None])
        out += agg
    return out


def _mean_scale(dst, rel, relations):
    """1 / in-degree of each edge's destination within its relation."""
    key = dst * relations + rel
    return 1.0 / np.bincount(key)[key]


@pytest.mark.parametrize("mean", [False, True], ids=["sum", "mean"])
def test_relational_conv_matches_add_at(mean):
    h, weights = _conv_inputs(31)
    key = CONV_DST * 3 + CONV_REL
    scale = 1.0 / np.bincount(key)[key] if mean else None
    ad.reset_tape()
    out = ad.relational_conv(h, weights, CONV_PLAN, mean)
    assert ad.tape_size() == 1
    expected = _add_at_conv(h.data, [w.data for w in weights],
                            np.ones(len(CONV_SRC)) if scale is None else scale)
    np.testing.assert_allclose(out.data, expected, atol=1e-14)
    ad.reset_tape()
    with ad.no_grad():
        ad.relational_conv(h, weights, CONV_PLAN, mean)
    assert ad.tape_size() == 0
    check_grads(lambda: weighted_sum(
        ad.relational_conv(h, weights, CONV_PLAN, mean),
        32), [h, *weights])


def _real_graphs():
    graphs = [build_graph(parse_fixture(name).score) for name in FIXTURE_NAMES]
    return graphs + [build_graph(random_score(5, n_notes=160, n_bars=2))]


@pytest.mark.parametrize("mean", [False, True], ids=["sum", "mean"])
def test_relational_conv_matches_add_at_on_real_graphs(mean):
    # Every fixture and one dense random piece (many overlapping notes).
    for i, graph in enumerate(_real_graphs()):
        relations = len(RELATIONS)
        h, weights = _conv_inputs(40 + i, n=graph.node_count, d=6, hid=5,
                                  relations=relations)
        scale = (_mean_scale(graph.dst, graph.rel, relations) if mean
                 else np.ones(len(graph.src)))
        with ad.no_grad():
            out = ad.relational_conv(h, weights, graph.conv_plan, mean)
        expected = _add_at_conv(h.data, [w.data for w in weights], scale,
                                graph.src, graph.dst, graph.rel)
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("mean", [False, True], ids=["sum", "mean"])
def test_relational_conv_gradients_with_shared_sources(mean):
    # Six notes, three relations: notes 4 and 5 have no in-edges, relation 1
    # is empty, note 0 feeds notes 1, 2 and 3 in relation 0, and note 3
    # feeds note 0 in relations 0 and 2.
    src = np.array([0, 0, 0, 1, 2, 3, 3, 4])
    dst = np.array([1, 2, 3, 2, 1, 0, 0, 2])
    rel = np.array([0, 0, 0, 2, 2, 0, 2, 0])
    plan = ad.ConvPlan(src, dst, rel, 6, 3)
    assert plan.blocks[1][0] == plan.blocks[1][1]
    h, weights = _conv_inputs(50, n=6)
    scale = _mean_scale(dst, rel, 3) if mean else np.ones(len(src))
    out = ad.relational_conv(h, weights, plan, mean)
    np.testing.assert_allclose(
        out.data, _add_at_conv(h.data, [w.data for w in weights], scale,
                               src, dst, rel), rtol=0, atol=1e-14)
    check_grads(lambda: weighted_sum(ad.relational_conv(h, weights, plan, mean),
                                     51), [h, *weights])


def test_relational_conv_without_edges_is_the_self_term():
    h, weights = _conv_inputs(33)
    empty = np.array([], dtype=np.int64)
    plan = ad.ConvPlan(empty, empty, empty, 5, 3)
    out = ad.relational_conv(h, weights, plan)
    np.testing.assert_array_equal(out.data, h.data @ weights[0].data)
    check_grads(lambda: weighted_sum(
        ad.relational_conv(h, weights, plan), 34), [h, *weights])


def test_relational_conv_shape_checks():
    h, weights = _conv_inputs(35)
    with pytest.raises(ShapeMismatch):
        ad.relational_conv(h, [*weights, Value(np.ones((2, 2)))],
                           CONV_PLAN)
    with pytest.raises(ShapeMismatch):
        ad.relational_conv(h, weights[:-1], CONV_PLAN)
    with pytest.raises(ShapeMismatch):
        ad.relational_conv(h, weights, ad.ConvPlan(CONV_SRC, CONV_DST,
                                                   CONV_REL, 6, 3))
    with pytest.raises(ShapeMismatch):
        ad.ConvPlan(CONV_SRC, CONV_DST[:-1], CONV_REL, 5, 3)
    with pytest.raises(ValueError, match="outside"):
        ad.ConvPlan(CONV_SRC, CONV_DST, CONV_REL, 4, 3)
    with pytest.raises(ValueError, match="outside"):
        ad.ConvPlan(CONV_SRC, CONV_DST, CONV_REL, 5, 2)


# --- nonlinearities ---

def test_relu():
    x = Value(np.array([[-2.0, 0.0, 3.0]]))
    np.testing.assert_array_equal(ad.relu(x).data, [[0.0, 0.0, 3.0]])
    y = Value(np.array([[-1.5, 2.5, 0.5]]))
    check_grads(lambda: weighted_sum(ad.relu(y), 10), [y])


# --- losses ---

def test_bce_with_logits_matches_softplus_oracle():
    x = Value(np.array([[0.0], [1.0], [-2.0]]))
    y = np.array([[1.0], [0.0], [1.0]])
    softplus = np.log1p(np.exp(-np.abs(x.data))) + np.maximum(x.data, 0.0)
    np.testing.assert_allclose(ad.bce_with_logits(x, y).item(),
                               (softplus - x.data * y).mean(),
                               rtol=0, atol=1e-15)
    # [DERIVED] zero logits: ln 2 whatever the targets
    assert ad.bce_with_logits(Value(np.zeros((2, 1))), [[0.0], [1.0]]).item() \
        == pytest.approx(math.log(2), abs=1e-15)
    pos = Value(np.array([[0.5], [1.0], [3.0]]))
    for v in (x, pos):
        check_grads(lambda v=v: ad.bce_with_logits(v, y), [v])
    wide = Value(np.array([[0.4, -1.1], [2.0, 0.3]]))
    check_grads(lambda: ad.bce_with_logits(wide, np.array([[1.0, 0.0],
                                                           [0.0, 1.0]])), [wide])
    with pytest.raises(ShapeMismatch):
        ad.bce_with_logits(x, y[:2])
    with pytest.raises(ShapeMismatch):
        ad.bce_with_logits(x, y[:, 0])
    ad.reset_tape()


def test_sigmoid_and_softplus_extremes_stay_finite():
    # Per entry the loss is softplus(x) - x*y: x and 0 exactly at x = +-1000.
    for x, y, loss in ((1000.0, 0.0, 1000.0), (-1000.0, 0.0, 0.0),
                       (1000.0, 1.0, 0.0), (-1000.0, 1.0, 1000.0)):
        logit = Value(np.array([[x]]))
        ad.reset_tape()
        out = ad.bce_with_logits(logit, [[y]])
        assert out.item() == loss
        ad.backward(out)
        # the gradient is sigmoid(x) - y, finite at the clipped extremes
        assert np.isfinite(logit.grad).all()
        assert logit.grad[0, 0] == pytest.approx((x > 0) - y, abs=1e-200)
    ad.reset_tape()


def test_take_per_row():
    # cross_entropy picks each row's own class: with one row at a time the
    # loss is -log softmax at that row's class, and rows never mix.
    x = Value(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
    classes = np.array([2, 0])
    logp = x.data - np.log(np.exp(x.data).sum(axis=1, keepdims=True))
    for i in range(2):
        row = Value(x.data[i:i + 1].copy())
        assert ad.cross_entropy(row, classes[i:i + 1]).item() \
            == pytest.approx(-logp[i, classes[i]], abs=1e-12)
    assert ad.cross_entropy(x, classes).item() \
        == pytest.approx(-(logp[0, 2] + logp[1, 0]) / 2, abs=1e-12)
    ad.reset_tape()
    check_grads(lambda: ad.cross_entropy(x, np.array([2, 0])), [x])
    with pytest.raises(ShapeMismatch):
        ad.cross_entropy(x, np.array([0]))
    ad.reset_tape()


def test_softmax_and_log_softmax():
    # cross_entropy is the mean of -log softmax at each row's class.
    x = Value(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]))
    classes = np.array([2, 0])
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    oracle = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    ad.reset_tape()
    loss = ad.cross_entropy(x, classes)
    assert ad.tape_size() == 1
    np.testing.assert_allclose(loss.item(), -oracle[[0, 1], classes].mean(),
                               rtol=0, atol=1e-12)
    # the gradient is (softmax - onehot) / rows, picked entries included
    ad.backward(loss)
    onehot = np.eye(3)[classes]
    np.testing.assert_allclose(x.grad, (np.exp(oracle) - onehot) / 2,
                               rtol=0, atol=1e-15)
    ad.reset_tape()
    # [DERIVED] zero logits -> uniform: ln K for any class.
    for k in (0, 2):
        assert ad.cross_entropy(Value(np.zeros((1, 3))), [k]).item() \
            == pytest.approx(math.log(3), abs=1e-15)
    # Stability: huge logits must not overflow, and stay exact.
    hot = Value(np.array([[1000.0, -1000.0]]))
    assert ad.cross_entropy(hot, [0]).item() == 0.0
    assert ad.cross_entropy(hot, [1]).item() == 2000.0
    y = Value(np.array([[0.3, -1.2, 0.8], [2.0, 2.0, -3.0]]))
    check_grads(lambda: ad.cross_entropy(y, np.array([1, 2])), [y])
    single = Value(np.array([[0.5, -0.25]]))
    check_grads(lambda: ad.cross_entropy(single, [1]), [single])
    with pytest.raises(ShapeMismatch):
        ad.cross_entropy(x, np.array([0]))
    ad.reset_tape()


def test_layer_norm_forward_oracle_and_grad():
    # [DERIVED] row [1,2,3]: mean 2, var 2/3, normalized (x-2)/sqrt(2/3+eps).
    x = Value(np.array([[1.0, 2.0, 3.0]]))
    gamma = Value(np.ones((1, 3)))
    beta = Value(np.zeros((1, 3)))
    out = ad.layer_norm(x, gamma, beta)
    denom = math.sqrt(2.0 / 3.0 + 1e-5)
    np.testing.assert_allclose(
        out.data, [[-1.0 / denom, 0.0, 1.0 / denom]], atol=1e-12)
    g = Value(np.array([[0.5, 2.0, -1.0]]))
    b = Value(np.array([[0.1, -0.2, 0.3]]))
    y = Value(np.array([[0.4, -1.1, 2.2], [0.0, 0.0, 1.0]]))
    check_grads(lambda: weighted_sum(ad.layer_norm(y, g, b), 17), [y, g, b],
                rtol=1e-5, atol=1e-6)
    with pytest.raises(ShapeMismatch):
        ad.layer_norm(y, Value(np.ones((1, 2))), Value(np.zeros((1, 2))))


def _gru_inputs(n: int, hidden: int, seed: int, scale: float = 1.0):
    """seq, [Wx], [Wh], [b], ln_g, ln_b with nonzero biases and norm params."""
    rng = Rng(seed)

    def mat(rows, cols, s=1.0):
        return Value(rng.normal(rows, cols).reshape(rows, cols) * s)

    seq = mat(n, hidden, scale)
    wx = [mat(hidden, hidden, 0.7) for _ in range(3)]
    wh = [mat(hidden, hidden, 0.7) for _ in range(3)]
    bias = [mat(1, hidden, 0.3) for _ in range(3)]
    ln_g = Value(np.array([[1.1, 0.9, 1.3]])[:, :hidden])
    ln_b = Value(np.array([[0.05, -0.1, 0.2]])[:, :hidden])
    return seq, wx, wh, bias, ln_g, ln_b


def test_gru_sweep_forward_matches_numpy():
    inputs = _gru_inputs(7, 3, seed=30)
    got = ad.gru_sweep(*inputs)
    seq, wx, wh, bias, ln_g, ln_b = inputs
    expected = numpy_gru(seq.data, [w.data for w in wx], [w.data for w in wh],
                         [b.data for b in bias], ln_g.data, ln_b.data)
    np.testing.assert_allclose(got.data, expected, atol=1e-12)
    with ad.no_grad():
        np.testing.assert_array_equal(ad.gru_sweep(*inputs).data, got.data)
    ad.reset_tape()


@pytest.mark.parametrize("n", [1, 6])
def test_gru_sweep_gradients(n):
    seq, wx, wh, bias, ln_g, ln_b = _gru_inputs(n, 3, seed=31 + n)
    every = [seq, *wx, *wh, *bias, ln_g, ln_b]
    check_grads(lambda: weighted_sum(ad.gru_sweep(seq, wx, wh, bias, ln_g,
                                                  ln_b), 32), every)


def _wide_gru_inputs(n: int, hidden: int, seed: int):
    """``_gru_inputs`` at any hidden size, with drawn norm gains and shifts
    and a candidate bias of 1e3: a large part common to every column, which
    the centering folded into the input rows and ``Whc`` must take out."""
    seq, wx, wh, bias, _, _ = _gru_inputs(n, hidden, seed)
    rng = Rng(seed + 1)
    bias[2].data += 1e3
    ln_g = Value(1.0 + 0.2 * rng.normal(1, hidden).reshape(1, hidden))
    ln_b = Value(0.1 * rng.normal(1, hidden).reshape(1, hidden))
    return seq, wx, wh, bias, ln_g, ln_b


def test_gru_sweep_at_hidden_64_matches_numpy():
    inputs = _wide_gru_inputs(50, 64, seed=38)
    seq, wx, wh, bias, ln_g, ln_b = inputs
    ad.reset_tape()
    got = ad.gru_sweep(*inputs).data
    with ad.no_grad():
        np.testing.assert_array_equal(ad.gru_sweep(*inputs).data, got)
    ad.reset_tape()
    want = numpy_gru(seq.data, [w.data for w in wx], [w.data for w in wh],
                     [b.data for b in bias], ln_g.data, ln_b.data)
    # relative to the states' scale: a few states lie near 1e-8
    np.testing.assert_allclose(got, want, rtol=1e-9,
                               atol=1e-9 * np.abs(want).max())


def test_gru_sweep_gradients_with_a_large_candidate_bias():
    seq, wx, wh, bias, ln_g, ln_b = _wide_gru_inputs(12, 8, seed=40)
    every = [seq, *wx, *wh, *bias, ln_g, ln_b]
    check_grads(lambda: weighted_sum(ad.gru_sweep(seq, wx, wh, bias, ln_g,
                                                  ln_b), 41), every)


def test_gru_sweep_keeps_float32_under_no_grad():
    seq, wx, wh, bias, ln_g, ln_b = _gru_inputs(12, 3, seed=37)

    def single(v):
        return Value(v.data.astype(np.float32))

    with ad.no_grad():
        double = ad.gru_sweep(seq, wx, wh, bias, ln_g, ln_b).data
        got = ad.gru_sweep(single(seq), [single(w) for w in wx],
                           [single(w) for w in wh], [single(b) for b in bias],
                           single(ln_g), single(ln_b)).data
    assert got.dtype == np.float32
    np.testing.assert_allclose(got, double, rtol=0, atol=1e-5)


@pytest.mark.parametrize("variant", [
    {}, dict(aggregation="mean"), dict(gru_on_initial_features=True),
    dict(use_gru=False)])
def test_predict_bundle_embeds_in_float32(variant, monkeypatch):
    # A NumPy without NEP 50 promotes float32 by other rules; an op that
    # upcast silently would show here as float64 embeddings.
    from notesetter import model

    config = model.ModelConfig(hidden_size=8, num_layers=2, **variant)
    params = model.init_params(config, Rng(0))
    seen = []
    decode_all = model.decode_all

    def spy(embeddings, graph, weights):
        seen.append(embeddings.data.dtype)
        seen.extend({p.data.dtype for p in weights.values()})
        return decode_all(embeddings, graph, weights)

    monkeypatch.setattr(model, "decode_all", spy)
    model.predict_bundle(random_score(5, n_notes=20), params, config)
    assert seen == [np.float32, np.float32]
    assert {p.data.dtype for p in params.values()} == {np.dtype(np.float64)}


def test_gru_sweep_is_one_tape_node():
    inputs = _gru_inputs(6, 3, seed=33)
    ad.reset_tape()
    ad.gru_sweep(*inputs)
    assert ad.tape_size() == 1
    with ad.no_grad():
        ad.gru_sweep(*inputs)
    assert ad.tape_size() == 1
    ad.reset_tape()


def test_gru_sweep_extremes_stay_finite():
    # Inputs of +-1e3 saturate every gate.
    seq, wx, wh, bias, ln_g, ln_b = _gru_inputs(4, 3, seed=34)
    seq.data[...] = np.where(seq.data > 0, 1e3, -1e3)
    every = [seq, *wx, *wh, *bias, ln_g, ln_b]
    ad.reset_tape()
    for p in every:
        p.grad = None
    out = ad.gru_sweep(seq, wx, wh, bias, ln_g, ln_b)
    ad.backward(weighted_sum(out, 35))
    assert np.all(np.isfinite(out.data))
    for p in every:
        assert np.all(np.isfinite(p.grad))
    ad.reset_tape()
    # Saturated gates: z = 1 exactly keeps the zero state, z = 0 takes c.
    eye = Value(np.eye(2))
    zero = Value(np.zeros((2, 2)))
    row = Value(np.zeros((1, 2)))
    big = Value(np.array([[1e3, -1e3]]))
    h = ad.gru_sweep(big, [eye, eye, eye], [zero] * 3, [row] * 3,
                     Value(np.ones((1, 2))), row)
    c = np.tanh(np.array([1e3, -1e3]) / np.sqrt(1e6 + 1e-5))
    assert h.data[0, 0] == 0.0
    assert h.data[0, 1] == pytest.approx(c[1], abs=1e-200)
    ad.reset_tape()


def test_gru_sweep_saturated_gates_are_exact():
    # z pre-activations of +-1e3 give z = 1 or 0 exactly: a unit with z = 1
    # keeps its state bit for bit, and a unit with z = 0 takes the candidate
    # c, which (with Whc = 0) depends only on the row, so it equals the state
    # of a sweep over that row alone. Inputs 0-1 feed c, inputs 2-3 feed z.
    zero = Value(np.zeros((2, 2)))
    wxz = Value(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    wxc = Value(np.array([[0.7, -0.4], [0.2, 0.9], [0.0, 0.0], [0.0, 0.0]]))
    wx = [wxz, Value(np.zeros((4, 2))), wxc]
    row = Value(np.zeros((1, 2)))
    ln = (Value(np.array([[1.1, 0.9]])), Value(np.array([[0.05, -0.1]])))
    seq = Value(np.array([[0.5, -1.0, 0.0, 0.0], [-0.3, 0.8, 1e3, -1e3]]))
    with ad.no_grad():
        out = ad.gru_sweep(seq, wx, [zero] * 3, [row] * 3, *ln).data
        alone = ad.gru_sweep(Value(seq.data[1:]), wx, [zero] * 3, [row] * 3,
                             *ln).data
    assert out[0, 0] != 0.0 and out[0, 1] != 0.0    # z = 0.5 exactly at row 0
    assert out[1, 0] == out[0, 0]                    # z = 1: state kept
    assert alone[0, 0] == 0.0                        # z = 1 keeps the zero state
    assert out[1, 1] == alone[0, 1] != out[0, 1]     # z = 0: state is c


def test_gru_sweep_shape_checks():
    seq, wx, wh, bias, ln_g, ln_b = _gru_inputs(2, 3, seed=36)
    with pytest.raises(ShapeMismatch):
        ad.gru_sweep(seq, wx[:2] + [Value(np.ones((2, 3)))], wh, bias, ln_g,
                     ln_b)
    with pytest.raises(ShapeMismatch):
        ad.gru_sweep(seq, wx, wh, bias, Value(np.ones((1, 2))), ln_b)


def test_dropout_train_matches_uniform_mask_oracle():
    # [DERIVED] inverted dropout: mask = (uniform >= p), scale 1/(1-p).
    p = 0.4
    x = Value(np.ones((3, 4)))
    seed = 11
    out = ad.dropout(x, p, Rng(seed))
    u = Rng(seed).uniform(3, 4)
    expected = np.where(u >= p, 1.0 / (1.0 - p), 0.0)
    np.testing.assert_allclose(out.data, expected, atol=1e-15)
    # Gradient flows only through kept entries, scaled.
    ad.reset_tape()
    x2 = Value(np.ones((3, 4)))
    loss = sum_all(ad.dropout(x2, p, Rng(seed)))
    ad.backward(loss)
    np.testing.assert_allclose(x2.grad, expected, atol=1e-15)
    ad.reset_tape()


def test_dropout_eval_and_p_zero_are_identity():
    # no rng (evaluation), or p = 0: the input itself, nothing recorded
    x = Value(np.arange(6, dtype=float).reshape(2, 3))
    ad.reset_tape()
    assert ad.dropout(x, 0.5, None) is x
    assert ad.dropout(x, 0.0, Rng(0)) is x
    assert ad.tape_size() == 0


def test_sum_all():
    x = Value(np.array([[1.0, 2.0], [3.0, 4.0]]))
    ad.reset_tape()
    loss = sum_all(x)
    assert loss.item() == 10.0
    ad.backward(loss)
    np.testing.assert_array_equal(x.grad, np.ones((2, 2)))
    ad.reset_tape()


def test_composite_mlp_gradient():
    # End-to-end: 2-layer MLP with relu + layer_norm + softmax CE shape.
    rng = Rng(404)
    x = Value(rng.normal(4, 3).reshape(4, 3))
    w1 = Value(rng.normal(3, 5).reshape(3, 5))
    b1 = Value(np.zeros((1, 5)))
    w2 = Value(rng.normal(5, 2).reshape(5, 2))
    b2 = Value(np.zeros((1, 2)))
    g = Value(np.ones((1, 5)))
    be = Value(np.zeros((1, 5)))

    def loss_fn():
        h = ad.relu(ad.linear(x, w1, b1))
        h = ad.layer_norm(h, g, be)
        return ad.cross_entropy(ad.linear(h, w2, b2), np.array([0, 1, 1, 0]))

    check_grads(loss_fn, [x, w1, b1, w2, b2, g, be], rtol=1e-5, atol=1e-6)
