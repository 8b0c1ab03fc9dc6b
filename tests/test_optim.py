"""Oracle tests for Adam, gradient clipping, and grad_check."""

from __future__ import annotations

import math

import numpy as np
import pytest

from notesetter import autodiff as ad
from notesetter.autodiff import Value
from notesetter.optim import (Adam, GradCheckReport, NonFiniteLoss,
                              clip_grad_norm, grad_check)
from notesetter.rng import Rng

from conftest import mul, sum_all


def test_adam_single_step_closed_form():
    # [DERIVED] p=1, g=0.5, lr=0.1, no decay:
    #   m1 = 0.1*0.5 = 0.05, v1 = 0.001*0.25 = 2.5e-4
    #   mhat = 0.5, vhat = 0.25 -> update = 0.5/(0.5+1e-8)
    p = Value(1.0)
    opt = Adam({"p": p}, lr=0.1)
    p.grad = np.array([[0.5]])
    opt.step()
    expected = 1.0 - 0.1 * (0.5 / (0.5 + 1e-8))
    assert p.data[0, 0] == pytest.approx(expected, abs=1e-15)


def test_adam_decoupled_weight_decay():
    # [DERIVED] decoupled: update += wd*p, so p' = base - lr*wd*p.
    p = Value(1.0)
    opt = Adam({"p": p}, lr=0.1, weight_decay=0.01)
    p.grad = np.array([[0.5]])
    opt.step()
    expected = 1.0 - 0.1 * (0.5 / (0.5 + 1e-8)) - 0.1 * 0.01 * 1.0
    assert p.data[0, 0] == pytest.approx(expected, abs=1e-15)


def _reference_adam(p0, grads, lr, b1, b2, eps, wd):
    """Independent scalar Adam reimplementation for multi-step oracles."""
    p, m, v = float(p0), 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        update = (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)
        update += wd * p
        p -= lr * update
    return p


def test_adam_multi_step_matches_reference():
    grads = [0.5, -1.25, 0.0, 3.0, 0.125]
    p = Value(2.0)
    opt = Adam({"p": p}, lr=0.05, beta1=0.8, beta2=0.95, eps=1e-8,
               weight_decay=0.02)
    for g in grads:
        p.grad = np.array([[g]])
        opt.step()
    expected = _reference_adam(2.0, grads, 0.05, 0.8, 0.95, 1e-8, 0.02)
    assert p.data[0, 0] == pytest.approx(expected, rel=1e-14)


def test_adam_missing_grad_is_zero():
    # A param with no grad gets a zero gradient; with decoupled decay it
    # still shrinks by lr*wd*p, without decay it must not move.
    p = Value(4.0)
    opt = Adam({"p": p}, lr=0.1)
    p.grad = None
    opt.step()
    assert p.data[0, 0] == 4.0
    q = Value(4.0)
    opt2 = Adam({"q": q}, lr=0.1, weight_decay=0.5)
    q.grad = None
    opt2.step()
    assert q.data[0, 0] == pytest.approx(4.0 - 0.1 * 0.5 * 4.0, abs=1e-15)


def test_adam_nonfinite_grad_raises():
    p = Value(1.0)
    opt = Adam({"p": p}, lr=0.1)
    p.grad = np.array([[float("nan")]])
    with pytest.raises(NonFiniteLoss):
        opt.step()


def test_adam_zero_grad_clears():
    p = Value(1.0)
    opt = Adam({"p": p})
    p.grad = np.array([[1.0]])
    opt.zero_grad()
    assert p.grad is None


def test_clip_grad_norm_oracle():
    # [DERIVED] grads 3 and 4 -> global norm 5; scaled to 0.6 / 0.8.
    a, b = Value(0.0), Value(0.0)
    a.grad = np.array([[3.0]])
    b.grad = np.array([[4.0]])
    returned = clip_grad_norm({"a": a, "b": b}, 1.0)
    assert returned == pytest.approx(5.0, abs=1e-12)
    assert a.grad[0, 0] == pytest.approx(0.6, abs=1e-12)
    assert b.grad[0, 0] == pytest.approx(0.8, abs=1e-12)


def test_clip_grad_norm_no_clip_below_max():
    a = Value(0.0)
    a.grad = np.array([[3.0]])
    returned = clip_grad_norm({"a": a}, 10.0)
    assert returned == pytest.approx(3.0, abs=1e-12)
    assert a.grad[0, 0] == 3.0


def test_clip_grad_norm_skips_missing_grads():
    a, b = Value(0.0), Value(0.0)
    a.grad = np.array([[6.0]])
    b.grad = None
    returned = clip_grad_norm({"a": a, "b": b}, 3.0)
    assert returned == pytest.approx(6.0, abs=1e-12)
    assert a.grad[0, 0] == pytest.approx(3.0, abs=1e-12)
    assert b.grad is None


def test_grad_check_quadratic_exact():
    # loss = sum(w * w): analytic grad 2w, finite differences agree to ~1e-9.
    w = Value(np.array([[0.5, -1.5], [2.0, 0.25]]))

    def loss_fn():
        ad.reset_tape()
        return sum_all(mul(w, w))

    report = grad_check(loss_fn, {"w": w}, eps=1e-5)
    assert isinstance(report, GradCheckReport)
    assert report.entries_checked == 4
    assert report.max_error < 1e-8
    assert report.passed(1e-4)
    assert "max_error" in str(report)
    assert set(report.per_param) == {"w"}
    assert w.grad is None  # grads are cleaned up afterwards


def test_grad_check_detects_wrong_gradient():
    # Half the computation is hidden from the tape, so the analytic grad is
    # wrong for u; grad_check must flag it with a large error on u.
    u = Value(np.array([[1.0]]))
    w = Value(np.array([[2.0]]))

    def loss_fn():
        ad.reset_tape()
        with ad.no_grad():
            broken = mul(u, u)
        return ad.add(mul(w, w), broken)

    report = grad_check(loss_fn, {"u": u, "w": w}, eps=1e-5)
    assert not report.passed(1e-4)
    assert report.worst_param == "u"
    # analytic 0 vs fd ~2: unit-floor relative error is exactly 1.0
    assert report.per_param["u"] == pytest.approx(1.0, abs=1e-6)
    assert report.per_param["w"] < 1e-8


def test_grad_check_entry_sampling_requires_rng():
    w = Value(np.zeros((2, 8)))

    def loss_fn():
        ad.reset_tape()
        return sum_all(mul(w, w))

    with pytest.raises(ValueError):
        grad_check(loss_fn, {"w": w}, entries_per_param=3)
    report = grad_check(loss_fn, {"w": w}, entries_per_param=3, rng=Rng(0))
    assert report.entries_checked == 3


def test_grad_check_nonfinite_loss_raises():
    w = Value(np.array([[float("inf")]]))

    def loss_fn():
        ad.reset_tape()
        return sum_all(w)

    with pytest.raises(NonFiniteLoss):
        grad_check(loss_fn, {"w": w})
