"""Adam optimizer, gradient clipping, and finite-difference gradient checking."""

from __future__ import annotations

import dataclasses
from typing import Callable, Mapping, Optional

import numpy as np

from . import autodiff
from .autodiff import Value
from .rng import Rng


class NonFiniteLoss(RuntimeError):
    """Raised when a loss or gradient stops being a finite number."""


class Adam:
    """Adam with bias correction and decoupled weight decay.

    Weight decay applies directly to the parameters (``p -= lr * wd * p``),
    independent of the adaptive step. Parameters are leaf Values mutated in
    place.
    """

    def __init__(self, params: Mapping[str, Value], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
                 weight_decay: float = 0.0):
        self.params = dict(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self._m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self._v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if not np.all(np.isfinite(g)):
                raise NonFiniteLoss(f"non-finite gradient for parameter {name!r}")
            m = self._m[name]
            v = self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.weight_decay:
                update = update + self.weight_decay * p.data
            p.data -= self.lr * update


def clip_grad_norm(params: Mapping[str, Value], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``."""
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= scale
    return norm


@dataclasses.dataclass
class GradCheckReport:
    max_error: float
    mean_error: float
    entries_checked: int
    worst_param: str
    worst_index: tuple[int, int]
    per_param: dict[str, float] = dataclasses.field(default_factory=dict)

    def passed(self, tolerance: float) -> bool:
        return self.max_error < tolerance

    def __str__(self) -> str:
        return (f"grad_check: max_error={self.max_error:.3e} "
                f"mean_error={self.mean_error:.3e} "
                f"entries={self.entries_checked} "
                f"worst={self.worst_param}{list(self.worst_index)}")


def grad_check(loss_fn: Callable[[], Value], params: Mapping[str, Value],
               eps: float = 1e-5, entries_per_param: Optional[int] = None,
               rng: Optional[Rng] = None) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    ``loss_fn`` must be deterministic across calls (rebuild any dropout
    masks from a fixed seed inside it) and return a scalar Value. The
    relative error uses a unit floor, ``|a - f| / max(1, |a|, |f|)``, so
    near-zero gradient entries are compared absolutely instead of blowing
    up the denominator.

    ``entries_per_param`` limits the number of entries probed per tensor
    (sampled with ``rng``); by default every entry is checked.
    """
    autodiff.reset_tape()
    loss = loss_fn()
    if not np.isfinite(loss.item()):
        raise NonFiniteLoss("grad_check: loss is not finite")
    autodiff.backward(loss)
    analytic = {name: (np.array(p.grad) if p.grad is not None
                       else np.zeros_like(p.data))
                for name, p in params.items()}
    autodiff.reset_tape()

    max_err = 0.0
    sum_err = 0.0
    checked = 0
    worst = ("", (0, 0))
    per_param: dict[str, float] = {}
    for name, p in params.items():
        per_param[name] = 0.0
        n = p.data.size
        if entries_per_param is not None and n > entries_per_param:
            if rng is None:
                raise ValueError("entries_per_param requires an rng")
            flat = rng.integers(n, entries_per_param)
        else:
            flat = np.arange(n)
        for f in flat:
            i, j = divmod(int(f), p.data.shape[1])
            orig = p.data[i, j]
            with autodiff.no_grad():
                p.data[i, j] = orig + eps
                hi = loss_fn().item()
                p.data[i, j] = orig - eps
                lo = loss_fn().item()
            p.data[i, j] = orig
            fd = (hi - lo) / (2.0 * eps)
            a = analytic[name][i, j]
            err = abs(a - fd) / max(1.0, abs(a), abs(fd))
            sum_err += err
            checked += 1
            per_param[name] = max(per_param[name], err)
            if err > max_err:
                max_err = err
                worst = (name, (i, j))
    for name, p in params.items():
        p.grad = None
    return GradCheckReport(max_error=max_err,
                           mean_error=sum_err / max(checked, 1),
                           entries_checked=checked,
                           worst_param=worst[0], worst_index=worst[1],
                           per_param=per_param)
