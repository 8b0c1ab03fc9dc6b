"""Reverse-mode automatic differentiation over dense 2-D matrices.

A dynamically recorded tape of 2-D ``Value`` nodes supplies exactly the
nodes the encoder and decoder heads need, one per layer or head loss
(:func:`linear`, :func:`cross_entropy`, :func:`bce_with_logits`, the fused
encoder kernels); :func:`add` sums equal shapes. The tests' smallest
scalar gradient probes, ``mul`` and ``sum_all``, live in
``tests/conftest.py``. The tape is a module-level list (one computation at
a time, single-threaded); call :func:`reset_tape` between independent
computations and :func:`backward` on a scalar loss. Inside
:func:`no_grad` nothing is recorded, which makes repeated forward
evaluation (finite differences, inference) cheap.

Matrices are float64, except that a float32 array given to ``Value`` is kept
as it is, and every op computes in the dtype of its inputs. Inference
(``model.predict_bundle``) runs the forward in float32 that way; training,
the gradient check and checkpoints only ever see float64.
"""

from __future__ import annotations

import contextlib
import functools
import math
from typing import Callable, Optional, Sequence

import numpy as np

from .rng import Rng


class ShapeMismatch(ValueError):
    def __init__(self, op: str, expected, got):
        super().__init__(f"{op}: expected shape {expected}, got {got}")
        self.expected = expected
        self.got = got


_TAPE: list["Value"] = []
_GRAD_ENABLED = True

# Added to the variance before the square root in every layer norm.
LN_EPS = 1e-5


def reset_tape() -> None:
    _TAPE.clear()


def tape_size() -> int:
    return len(_TAPE)


@contextlib.contextmanager
def no_grad():
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Value:
    """A matrix on the tape. ``data`` is write-once; ``grad`` is lazily allocated.

    A float32 ndarray is kept without a copy; anything else is converted to
    float64.
    """

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, parents: tuple = (),
                 backward: Optional[Callable[[np.ndarray], None]] = None):
        if isinstance(data, np.ndarray) and data.dtype == np.float32:
            arr = data
        else:
            arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        elif arr.ndim != 2:
            raise ShapeMismatch("Value", "2-D", arr.shape)
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        if _GRAD_ENABLED and backward is not None:
            self._parents = parents
            self._backward = backward
            _TAPE.append(self)
        else:
            self._parents = ()
            self._backward = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeMismatch("item", (1, 1), self.data.shape)
        return float(self.data[0, 0])

    def __repr__(self) -> str:
        return f"Value(shape={self.data.shape})"


def _accum(v: Value, g: np.ndarray) -> None:
    if v.grad is None:
        v.grad = g.copy()
    else:
        v.grad += g


def backward(loss: Value) -> None:
    """Accumulate gradients of a scalar loss into every reachable node."""
    if loss.shape != (1, 1):
        raise ShapeMismatch("backward", (1, 1), loss.shape)
    loss.grad = np.ones((1, 1))
    for node in reversed(_TAPE):
        if node.grad is not None and node._backward is not None:
            node._backward(node.grad)


# --- tape nodes ---

def linear(x: Value, w: Value, b: Value) -> Value:
    """The fully connected layer ``x @ w + b`` (``b`` one row), as one node."""
    if x.shape[1] != w.shape[0] or b.shape != (1, w.shape[1]):
        raise ShapeMismatch("linear", ((x.shape[1], "k"), (1, "k")),
                            (w.shape, b.shape))
    out_data = x.data @ w.data + b.data

    def bwd(g):
        _accum(b, g.sum(axis=0, keepdims=True))
        _accum(x, g @ w.data.T)
        _accum(w, x.data.T @ g)
    return Value(out_data, (x, w, b), bwd)


def add(a: Value, b: Value) -> Value:
    if a.shape != b.shape:
        raise ShapeMismatch("add", a.shape, b.shape)
    out_data = a.data + b.data

    def bwd(g):
        _accum(a, g)
        _accum(b, g)
    return Value(out_data, (a, b), bwd)


def _rank_steps(idx: np.ndarray, take: np.ndarray) -> tuple:
    """Pairs (rows, items) that together add item take[e] into row idx[e].

    Pair k holds the k-th occurrence of each row, in the order of ``idx``, so
    no pair names a row twice and an indexed ``out[rows] += values[items]``
    is exact; applied in order, the pairs add each row's items in the order
    given. The first pair names every row that occurs, in increasing order
    (and is empty when ``idx`` is).
    """
    order = np.argsort(idx, kind="stable")
    sorted_idx = idx[order]
    starts = np.flatnonzero(np.diff(sorted_idx, prepend=-1))
    rank = np.arange(len(idx)) - np.repeat(starts, np.diff(starts, append=len(idx)))
    by_rank = np.argsort(rank, kind="stable")
    cuts = np.cumsum(np.bincount(rank))[:-1]
    return tuple(zip(np.split(sorted_idx[by_rank], cuts),
                     np.split(take[order][by_rank], cuts)))


class ConvPlan:
    """An edge list grouped once for :func:`relational_conv`.

    Edge e runs from src[e] to dst[e] in relation rel[e] < ``relations``. Slot
    (r, v) holds the edges of relation r into note v; only occupied slots
    exist, ordered by (relation, destination), so each relation's slots are
    one block, the range ``blocks[r]`` of slot indices, with distinct
    destinations ``slot_dst``; ``size`` counts each slot's edges. ``gather``
    sums the sources into the slots and ``scatter`` sends slot gradients back
    to the sources, which may feed many slots (see :func:`_rank_steps`).
    Only a backward pass reads ``scatter``, so it is built on first use.
    """

    def __init__(self, src, dst, rel, nodes: int, relations: int):
        src, dst, rel = (np.asarray(a, dtype=np.int64) for a in (src, dst, rel))
        if not src.shape == dst.shape == rel.shape or src.ndim != 1:
            raise ShapeMismatch("ConvPlan edges", ("E",),
                                (src.shape, dst.shape, rel.shape))
        if src.size and (min(src.min(), dst.min(), rel.min()) < 0
                         or max(src.max(), dst.max()) >= nodes
                         or rel.max() >= relations):
            raise ValueError(f"an edge lies outside {nodes} notes and "
                             f"{relations} relations")
        keys, slot = np.unique(rel * nodes + dst, return_inverse=True)
        self.nodes = nodes
        self.slot_dst = keys % nodes
        bounds = np.searchsorted(keys // nodes, np.arange(relations + 1)).tolist()
        self.blocks = tuple(zip(bounds[:-1], bounds[1:]))
        self.size = np.bincount(slot, minlength=len(keys))
        self.gather = _rank_steps(slot, src)
        self._edges = (src, slot)

    @functools.cached_property
    def scatter(self) -> tuple:
        return _rank_steps(*self._edges)


class PairPlan:
    """Pairs of notes (u[k], w[k]) for :func:`pair_hidden`.

    ``scatter`` adds each pair's gradient into its u note and its w note. It
    acts on the (2n x hh) view of an (n x 2hh) matrix, in which row 2i is
    note i's u half and row 2i + 1 its w half, so one set of indexed adds
    (see :func:`_rank_steps`) serves both ends, and each half row sums its
    pairs in pair order. Only a backward pass reads it, so it is built on
    first use.
    """

    def __init__(self, u, w):
        self.u = np.ascontiguousarray(u, dtype=np.int64)
        self.w = np.ascontiguousarray(w, dtype=np.int64)
        if self.u.shape != self.w.shape or self.u.ndim != 1:
            raise ShapeMismatch("PairPlan", ("m",),
                                (self.u.shape, self.w.shape))

    def __len__(self) -> int:
        return len(self.u)

    @functools.cached_property
    def scatter(self) -> tuple:
        pairs = np.arange(len(self.u))
        return _rank_steps(np.concatenate([2 * self.u, 2 * self.w + 1]),
                           np.concatenate([pairs, pairs]))


def relational_conv(h: Value, weights: Sequence[Value], plan: ConvPlan,
                    mean: bool = False) -> Value:
    """The relation-typed graph convolution over a planned edge list, as one
    tape node.

    ``weights`` holds W0 and one (d x H) matrix per relation of ``plan``. Row v
    of the output is

        h[v] @ W0 + sum over relations r of S_r[v] @ W_{r + 1}

    where S_r[v] sums h[u] over the edges u -> v of relation r, divided by
    their count when ``mean`` is set (the R-GCN sum). Aggregate, then
    transform: the sources are summed into each occupied slot (r, v), each
    relation's block of slot sums is multiplied by its weight and added into
    its destinations, and one GEMM gives the self term. Backward runs the
    same steps transposed.
    """
    weights = tuple(weights)
    n, d = h.shape
    hid = weights[0].shape[1]
    for w in weights:
        if w.shape != (d, hid):
            raise ShapeMismatch("relational_conv W", (d, hid), w.shape)
    if (n, len(weights)) != (plan.nodes, len(plan.blocks) + 1):
        raise ShapeMismatch("relational_conv plan",
                            (plan.nodes, len(plan.blocks) + 1), (n, len(weights)))

    def slot_sums():
        sums = h.data[plan.gather[0][1]]    # the first pair fills every slot
        for rows, items in plan.gather[1:]:
            sums[rows] += h.data[items]
        if mean:
            sums /= plan.size[:, None]
        return sums

    sums = slot_sums()
    out_data = h.data @ weights[0].data
    for (a, b), w in zip(plan.blocks, weights[1:]):
        out_data[plan.slot_dst[a:b]] += sums[a:b] @ w.data

    def bwd(g):
        # recomputed rather than held on the tape: holding them raised the
        # peak RSS of bench training runs (hidden 64) by up to 4 MB
        sums = slot_sums()
        g_slots = g[plan.slot_dst]
        d_sums = np.empty_like(sums)
        _accum(weights[0], h.data.T @ g)
        for (a, b), w in zip(plan.blocks, weights[1:]):
            _accum(w, sums[a:b].T @ g_slots[a:b])
            d_sums[a:b] = g_slots[a:b] @ w.data.T
        if mean:
            d_sums /= plan.size[:, None]
        d_h = g @ weights[0].data.T
        for rows, items in plan.scatter:
            d_h[rows] += d_sums[items]
        _accum(h, d_h)
    return Value(out_data, (h, *weights), bwd)


def pair_hidden(emb: Value, w1: Value, b1: Value, plan: PairPlan) -> Value:
    """The ReLU first layer of a pair head, as one tape node.

    Row k is ``relu([emb[u[k]]; emb[w[k]]] @ w1 + b1)`` for the pairs of
    ``plan``. The layer is linear before the ReLU, and ``[h_u; h_w] @ w1 =
    h_u @ w1[:H] + h_w @ w1[H:]``, so one (n x 2hh) product per piece,
    ``emb @ [w1[:H] | w1[H:]]``, is gathered per pair. No (pairs x 2H)
    matrix is built, forward or backward: the backward pass adds each pair's
    gradient into its u note and its w note with the plan's ``scatter``.
    """
    n, hid = emb.shape
    if w1.shape[0] != 2 * hid or b1.shape != (1, w1.shape[1]):
        raise ShapeMismatch("pair_hidden", ((2 * hid, "hh"), (1, "hh")),
                            (w1.shape, b1.shape))
    hh = w1.shape[1]
    halves = np.concatenate([w1.data[:hid], w1.data[hid:]], axis=1)  # H x 2hh
    proj = emb.data @ halves            # row i: [h_i W1[:H] | h_i W1[H:]]
    out_data = np.take(proj[:, :hh], plan.u, axis=0)
    out_data += np.take(proj[:, hh:], plan.w, axis=0)
    out_data += b1.data
    np.maximum(out_data, 0.0, out=out_data)

    def bwd(g):
        d = g * (out_data > 0.0)
        d_proj = np.zeros((n, 2 * hh))
        d_ends = d_proj.reshape(2 * n, hh)     # the u and w half of each note
        for rows, items in plan.scatter:
            d_ends[rows] += d[items]
        _accum(emb, d_proj @ halves.T)
        d_halves = emb.data.T @ d_proj
        _accum(w1, np.concatenate([d_halves[:, :hh], d_halves[:, hh:]]))
        _accum(b1, d.sum(axis=0, keepdims=True))
    return Value(out_data, (emb, w1, b1), bwd)


def relu(x: Value) -> Value:
    out_data = np.maximum(x.data, 0.0)

    def bwd(g):
        _accum(x, g * (x.data > 0.0))
    return Value(out_data, (x,), bwd)


def dropout(x: Value, p: float, rng: Rng, train: bool) -> Value:
    """Inverted dropout: scales by 1/(1-p) in training, identity in eval."""
    if not train or p <= 0.0:
        return x
    keep = (rng.uniform(*x.shape) >= p) / (1.0 - p)
    out_data = x.data * keep

    def bwd(g):
        _accum(x, g * keep)
    return Value(out_data, (x,), bwd)


def layer_norm(x: Value, gamma: Value, beta: Value) -> Value:
    """Row-wise normalization with learnable scale and shift (single rows)."""
    if gamma.shape != (1, x.shape[1]) or beta.shape != (1, x.shape[1]):
        raise ShapeMismatch("layer_norm", (1, x.shape[1]),
                            (gamma.shape, beta.shape))
    mu = x.data.mean(axis=1, keepdims=True)
    centered = x.data - mu
    sd = np.sqrt((centered * centered).mean(axis=1, keepdims=True) + LN_EPS)
    norm = centered / sd
    out_data = norm * gamma.data + beta.data

    def bwd(g):
        _accum(gamma, (g * norm).sum(axis=0, keepdims=True))
        _accum(beta, g.sum(axis=0, keepdims=True))
        gy = g * gamma.data
        _accum(x, (gy - gy.mean(axis=1, keepdims=True)
                   - norm * (gy * norm).mean(axis=1, keepdims=True)) / sd)
    return Value(out_data, (x, gamma, beta), bwd)


def gru_sweep(seq: Value, wx: Sequence[Value], wh: Sequence[Value],
              bias: Sequence[Value], ln_g: Value, ln_b: Value) -> Value:
    """A GRU run over the rows of ``seq`` (in time order), as one tape node.

    ``wx``, ``wh`` and ``bias`` hold the (z, r, c) input weights (d x H),
    recurrent weights (H x H) and biases (1 x H). From a zero state, row t
    of the (n x H) output is the state h after

        z = sigmoid(x Wxz + bz + h Whz)     r = sigmoid(x Wxr + br + h Whr)
        c = tanh(layer_norm(x Wxc + bc + (r * h) Whc; ln_g, ln_b))
        h = (1 - z) * c + z * h

    The input projections are one GEMM before a plain NumPy loop over the
    rows. The layer norm's centering is linear, so it is folded out of the
    loop: each row of ``x Wxc + bc`` is centered once, and so is each row of
    ``Whc``, and their sum is the centered pre-activation. Each step writes
    its gates, norm and candidate into row buffers with ``out=``, 17 NumPy
    calls, and the same loop runs with and without the tape.

    The backward pass is backpropagation through time written by hand. The
    factors that do not depend on dh, the norm's gain / sd among them, are
    computed for all rows before the reverse loop. Each step fills one row
    [dh | drh], the gradients at the state and at r * h, so one product with
    [dz/dh | dr/drh] gives both gate gradients and one with [z | r] both
    carry terms: 11 NumPy calls. Inside the loop the candidate's gradient
    keeps its row mean, which the centered ``Whc``^T drops; it is
    subtracted once after the loop, before the few GEMMs that give every
    weight gradient. The state and the output take the dtype of ``seq``.
    """
    wx, wh, bias = tuple(wx), tuple(wh), tuple(bias)
    n, d = seq.shape
    hid = wh[0].shape[1]
    for w in wx:
        if w.shape != (d, hid):
            raise ShapeMismatch("gru_sweep Wx", (d, hid), w.shape)
    for w in wh:
        if w.shape != (hid, hid):
            raise ShapeMismatch("gru_sweep Wh", (hid, hid), w.shape)
    for b in (*bias, ln_g, ln_b):
        if b.shape != (1, hid):
            raise ShapeMismatch("gru_sweep bias", (1, hid), b.shape)

    dtype = seq.data.dtype
    wx_all = np.concatenate([w.data for w in wx], axis=1)          # d x 3H
    proj = seq.data @ wx_all + np.concatenate([b.data for b in bias], axis=1)
    whzr = np.concatenate([wh[0].data, wh[1].data], axis=1)         # H x 2H
    # sigmoid(x) = 0.5 tanh(x / 2) + 0.5; the halving is folded into the z|r
    # columns once, exactly, since it scales by a power of two
    proj[:, :2 * hid] *= 0.5
    half_whzr = 0.5 * whzr
    proj[:, 2 * hid:] -= proj[:, 2 * hid:].mean(axis=1, keepdims=True)
    whc = wh[2].data - wh[2].data.mean(axis=1, keepdims=True)
    gain, shift = ln_g.data[0], ln_b.data[0]
    out = np.empty((n, hid), dtype=dtype)
    zr_all = np.empty((n, 2 * hid), dtype=dtype)
    norm_all = np.empty((n, hid), dtype=dtype)
    c_all = np.empty((n, hid), dtype=dtype)
    sds = []                                    # each row's norm divisor
    rh = np.empty(hid, dtype=dtype)             # r * h
    kept = np.empty(hid, dtype=dtype)           # (1 - z) * c
    h = np.zeros(hid, dtype=dtype)
    # constants as arrays: a ufunc converts a Python float on every call
    half, ones = np.full(2 * hid, 0.5, dtype=dtype), np.ones(hid, dtype=dtype)
    rows = zip(zr_all, zr_all[:, :hid], zr_all[:, hid:], norm_all, c_all, out,
               proj[:, :2 * hid], proj[:, 2 * hid:])
    dot, multiply, tanh = np.dot, np.multiply, np.tanh
    for zr, z, r, norm, c, h_next, x_zr, x_c in rows:
        dot(h, half_whzr, zr)
        zr += x_zr
        tanh(zr, zr)
        zr *= half
        zr += half
        multiply(r, h, rh)
        dot(rh, whc, norm)               # centered, not yet scaled
        norm += x_c
        sd = math.sqrt(float(dot(norm, norm)) / hid + LN_EPS)
        sds.append(sd)
        norm /= sd
        multiply(norm, gain, c)
        c += shift
        tanh(c, c)
        np.subtract(ones, z, kept)
        kept *= c
        multiply(z, h, h_next)
        h_next += kept
        h = h_next
    if not _GRAD_ENABLED:
        return Value(out)

    def bwd(g):
        prev = np.zeros_like(out)           # the state each row starts from
        prev[1:] = out[:-1]
        # Factors that do not depend on dh, for all rows at once: from dh to
        # the layer-norm output, that times gain / sd (the norm's input,
        # before its mean is taken out), and from [dh | drh] to the z and r
        # pre-activations (the latter through the gradient at r * prev).
        dy_dh = (1.0 - zr_all[:, :hid]) * (1.0 - c_all * c_all)
        fold = dy_dh * (gain / np.array(sds)[:, None])
        gate = np.concatenate([prev - c_all, prev], axis=1)
        gate *= zr_all
        gate *= 1.0 - zr_all
        norm_mean = norm_all / hid
        hr_all = np.empty((n, 2 * hid))     # [dh | drh] at each row
        d_pre = np.empty((n, 3 * hid))      # dZ | dR | dP, pre-activation
        whzr_t, whc_t = whzr.T, whc.T
        carry = np.zeros(hid)               # dh from the rows after t
        scaled = np.empty(hid)              # norm * (dp . norm) / H
        both = np.empty(2 * hid)            # [dh * z | drh * r]
        both_z, both_r = both[:hid], both[hid:]
        back = slice(None, None, -1)
        hr_all[:, :hid] = g
        rows = zip(hr_all[back], hr_all[back, :hid], hr_all[back, hid:],
                   fold[back], norm_all[back], norm_mean[back],
                   gate[back], zr_all[back], d_pre[back, :2 * hid],
                   d_pre[back, 2 * hid:])
        dot, multiply = np.dot, np.multiply
        for hr, dh, drh, fold_t, norm, norm_t, gate_t, zr, d_zr, dp in rows:
            dh += carry
            multiply(dh, fold_t, dp)
            multiply(norm, dot(dp, norm_t), scaled)
            dp -= scaled
            dot(dp, whc_t, drh)
            multiply(hr, gate_t, d_zr)
            multiply(hr, zr, both)
            dot(d_zr, whzr_t, carry)
            carry += both_z
            carry += both_r
        d_zr, d_p = d_pre[:, :2 * hid], d_pre[:, 2 * hid:]
        d_p -= d_p.mean(axis=1, keepdims=True)
        d_y = hr_all[:, :hid] * dy_dh
        _accum(seq, d_pre @ wx_all.T)
        grads_x = seq.data.T @ d_pre
        grads_b = d_pre.sum(axis=0, keepdims=True)
        for k in range(3):
            cols = slice(k * hid, (k + 1) * hid)
            _accum(wx[k], grads_x[:, cols])
            _accum(bias[k], grads_b[:, cols])
        grads_hzr = prev.T @ d_zr
        _accum(wh[0], grads_hzr[:, :hid])
        _accum(wh[1], grads_hzr[:, hid:])
        _accum(wh[2], (zr_all[:, hid:] * prev).T @ d_p)
        _accum(ln_g, (d_y * norm_all).sum(axis=0, keepdims=True))
        _accum(ln_b, d_y.sum(axis=0, keepdims=True))
    return Value(out, (seq, *wx, *wh, *bias, ln_g, ln_b), bwd)


def cross_entropy(logits: Value, classes) -> Value:
    """Mean over rows of -log softmax(logits[i])[classes[i]], as one node.

    Rows are shifted by their maximum first, so large logits stay finite.
    """
    cls = np.asarray(classes, dtype=np.int64)
    n = logits.shape[0]
    if cls.shape != (n,):
        raise ShapeMismatch("cross_entropy classes", (n,), cls.shape)
    rows = np.arange(n)
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out_data = -1.0 * logp[rows, cls].mean()

    def bwd(g):    # (onehot - softmax) * v
        v = (-1.0 * g[0, 0]) / n
        onehot = np.zeros_like(logp)
        onehot[rows, cls] = v
        _accum(logits, onehot - np.exp(logp) * v)
    return Value(out_data, (logits,), bwd)


def bce_with_logits(logits: Value, targets) -> Value:
    """Mean of softplus(x) - x*y (binary cross-entropy of sigmoid(x)) over
    logits x and same-shaped targets y, as one node; softplus is stable for
    large |x|."""
    y = np.asarray(targets, dtype=np.float64)
    if y.shape != logits.shape:
        raise ShapeMismatch("bce_with_logits targets", logits.shape, y.shape)
    x = logits.data
    softplus = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    out_data = (softplus - x * y).mean()

    def bwd(g):    # (sigmoid(x) - y) * g / size
        each = np.full_like(x, g[0, 0] / x.size)
        d = (-each) * y
        d += each / (1.0 + np.exp(-np.clip(x, -500, 500)))
        _accum(logits, d)
    return Value(out_data, (logits,), bwd)
