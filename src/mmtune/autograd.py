"""Dense float arrays with reverse-mode differentiation.

Everything is numpy under the hood; the Tensor class just records enough
provenance to run a backward pass, and the backward pass consumes it.
Single threaded. Default dtype is float64 so gradients can be checked
against central finite differences.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import KernelTooLarge, NotAttached, ShapeMismatch


class Tensor:
    """A numpy array plus optional autograd provenance."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=(), backward_fn=None,
                 dtype=np.float64):
        self.data = np.asarray(data, dtype=dtype)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = tuple(parents)
        self._backward = backward_fn

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Accumulate gradients of this scalar into every reachable tensor.

        The walk consumes the graph: each intermediate (a tensor with
        parents, this one included) loses its grad, parents and closure once
        its closure has run, so a second backward raises NotAttached. Leaves
        keep their .grad."""
        if self.data.size != 1:
            raise ValueError("backward requires a scalar tensor")
        if not self._parents:
            raise NotAttached("tensor has no recorded provenance")
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        # dropping an intermediate's closure frees the activations it saved,
        # so memory falls as the walk goes instead of peaking at its end
        while topo:
            node = topo.pop()
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            if node._parents:
                node.grad, node._parents, node._backward = None, (), None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.grad is not None})"


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _accum(t: Tensor, g: np.ndarray):
    """Add g, summed down to t's shape, into t.grad."""
    if not (t.requires_grad or t._parents):
        return
    if g.shape != t.data.shape:
        g = _unbroadcast(g, t.data.shape)
    if t.grad is None:
        # a copy: add hands the same g to both parents, and transpose hands
        # on a view of it
        t.grad = g.copy()
    else:
        t.grad += g


def _scatter(t: Tensor, index, g: np.ndarray, repeats=False):
    """Add g into t.grad[index], allocating t.grad on first use. With
    `repeats` the index arrays may name one position more than once, and
    np.add.at sums every repeat."""
    if not (t.requires_grad or t._parents):
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    if repeats:
        np.add.at(t.grad, index, g)
    else:
        t.grad[index] += g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum g down to `shape` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


_grad_enabled = True


@contextmanager
def no_grad():
    """Inside this context ops record no provenance: every result is a plain
    tensor with no parents and no backward closure, as inference needs."""
    global _grad_enabled
    prev, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = prev


def _node(data, parents, backward_fn):
    if not _grad_enabled:
        return Tensor(data)
    return Tensor(data, parents=parents, backward_fn=backward_fn)


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data + b.data

    def bwd(g):
        _accum(a, g)
        _accum(b, g)

    return _node(out_data, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data * b.data

    def bwd(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return _node(out_data, (a, b), bwd)


def matmul(a, b) -> Tensor:
    """Matrix product, batched over leading dimensions that broadcast."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeMismatch(f"matmul needs 2-D or stacked operands, got {a.shape} @ {b.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeMismatch(f"inner extents differ: {a.shape} @ {b.shape}")
    try:
        out_data = a.data @ b.data
    except ValueError as e:
        raise ShapeMismatch(f"stack extents differ: {a.shape} @ {b.shape}") from e

    def bwd(g):
        _accum(a, g @ np.swapaxes(b.data, -1, -2))
        _accum(b, np.swapaxes(a.data, -1, -2) @ g)

    return _node(out_data, (a, b), bwd)


def transpose(a) -> Tensor:
    """Swap the last two axes."""
    a = _as_tensor(a)

    def bwd(g):
        _accum(a, np.swapaxes(g, -1, -2))

    return _node(np.swapaxes(a.data, -1, -2), (a,), bwd)


def sum_all(a) -> Tensor:
    a = _as_tensor(a)

    def bwd(g):
        _accum(a, np.full_like(a.data, float(g)))

    return _node(a.data.sum(), (a,), bwd)


def mean_all(a) -> Tensor:
    a = _as_tensor(a)
    n = a.data.size

    def bwd(g):
        _accum(a, np.full_like(a.data, float(g) / n))

    return _node(a.data.mean(), (a,), bwd)


def softmax_rows(m) -> Tensor:
    """Row-wise softmax with max subtraction for stability."""
    m = _as_tensor(m)
    z = m.data - m.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        _accum(m, y * (g - dot))

    return _node(y, (m,), bwd)


def log_softmax_rows(m) -> Tensor:
    m = _as_tensor(m)
    out = m.data - m.data.max(axis=-1, keepdims=True)
    lse = np.log(np.add.reduce(np.exp(out), axis=-1, keepdims=True))
    out -= lse

    def bwd(g):
        dm = np.exp(out)
        dm *= g.sum(axis=-1, keepdims=True)
        _accum(m, np.subtract(g, dm, out=dm))

    return _node(out, (m,), bwd)


# query rows per block of causal attention
_BLOCK = 64
# within a diagonal block, row i may not see the keys of rows after it
_AHEAD = np.triu(np.ones((_BLOCK, _BLOCK), dtype=bool), 1)


def attention(q, k, v, heads=1, causal=False) -> Tensor:
    """softmax(QK^T / sqrt(d_head)) V for q: n×d, k: m×d, v: m×d_v, as one node.

    The columns split into `heads` equal groups that run as one batched
    product. With `causal` the n queries are the last n of the m key
    positions, so query i sees keys [0, m - n + i]: a full sequence, a
    prefill and one KV-cached row all take the same call. Causal queries
    then run in row blocks of _BLOCK rows: block [r0, r1) scores only the
    c = m - n + r1 keys its last row can see and masks only its diagonal
    part, so the keys above the diagonal are never scored, exponentiated or
    saved. A non-causal call, or one of at most _BLOCK queries, is a single
    block. The node keeps each block's probabilities P and the split q, k
    and v. With G the output's gradient and s = 1/sqrt(d_head), the backward
    walks the same blocks: dP = G_blk V[:c]^T, dS = P * (dP - rowsum(dP * P)),
    dQ_blk = s dS K[:c], dK[:c] += s dS^T Q_blk and dV[:c] += P^T G_blk."""
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    (n, d), m = q.shape, k.shape[0]
    if d != k.shape[1]:
        raise ShapeMismatch(f"query dim {d} != key dim {k.shape[1]}")
    if m != v.shape[0]:
        raise ShapeMismatch(f"{m} keys vs {v.shape[0]} values")
    if d % heads or v.shape[1] % heads:
        raise ShapeMismatch(f"widths {d}, {v.shape[1]} not divisible by {heads} heads")
    if causal and n > m:
        raise ShapeMismatch(f"causal attention of {n} queries over {m} keys")

    def split(a):  # rows×(heads·w) -> heads×rows×w
        return a.reshape(a.shape[0], heads, -1).transpose(1, 0, 2)

    def merge(a):  # heads×rows×w -> rows×(heads·w)
        return a.transpose(1, 0, 2).reshape(a.shape[1], -1)

    # scale q, not the heads×n×m scores: one pass less over the largest array
    scale = 1.0 / math.sqrt(d // heads)
    qh, kh, vh = split(q.data * scale), split(k.data), split(v.data)
    # (r0, r1): query rows [r0, r1), which see keys [0, m - n + r1)
    blocks = ([(r0, min(r0 + _BLOCK, n)) for r0 in range(0, n, _BLOCK)]
              if causal and n > _BLOCK else [(0, n)])
    probs = []
    # rows-first in memory, like dq below, so that merge is a free reshape
    out = np.empty((n, heads, vh.shape[2])).transpose(1, 0, 2)
    for r0, r1 in blocks:
        c = m - n + r1
        p = qh[:, r0:r1] @ kh[:, :c].transpose(0, 2, 1)
        if causal:
            b = r1 - r0
            np.copyto(p[:, :, c - b:], -np.inf, where=_AHEAD[:b, :b])
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        np.matmul(p, vh[:, :c], out=out[:, r0:r1])
        if _grad_enabled:  # without a backward only the block in hand is needed
            probs.append(p)
        del p

    def bwd(g):
        gh = split(g)
        dq = np.empty_like(qh)
        dk = dv = None
        # the last block sees every key, so walking backwards its products
        # are the full-size dK and dV that earlier blocks add into
        for (r0, r1), p in zip(reversed(blocks), reversed(probs)):
            c = m - n + r1
            gb = gh[:, r0:r1]
            ds = gb @ vh[:, :c].transpose(0, 2, 1)
            ds -= (ds * p).sum(axis=-1, keepdims=True)
            ds *= p
            np.matmul(ds, kh[:, :c], out=dq[:, r0:r1])
            dk_b = ds.transpose(0, 2, 1) @ qh[:, r0:r1]
            dv_b = p.transpose(0, 2, 1) @ gb
            if dk is None:
                dk, dv = dk_b, dv_b
            else:
                dk[:, :c] += dk_b
                dv[:, :c] += dv_b
        _accum(q, merge(dq) * scale)
        _accum(k, merge(dk))
        _accum(v, merge(dv))

    return _node(merge(out), (q, k, v), bwd)


def gelu(a) -> Tensor:
    """tanh-approximation GELU; smooth, so finite differences stay honest.

    Forward and backward run in place on as few arrays as they can, in the
    operation order of the plain formulas, so results match them bitwise.
    0.5 * x * (1 + t) is formed as ((1 + t) * 0.5) * x: 1 + t is never
    subnormal, so its halving is exact, and where x is subnormal 1 + t is 1;
    so both orders round the same real product."""
    a = _as_tensor(a)
    c = math.sqrt(2.0 / math.pi)
    x = a.data
    t = x * x
    t *= x
    t *= 0.044715
    t += x
    t *= c
    np.tanh(t, out=t)
    out = t + 1.0
    out *= 0.5
    out *= x

    def bwd(g):
        # du = c * (1 + 3 * 0.044715 * x ** 2)
        d = np.square(x)
        d *= 3 * 0.044715
        d += 1.0
        d *= c
        # 0.5 * x * (1 - t ** 2) * du, halving 1 - t ** 2 as the forward does
        e = np.square(t)
        np.subtract(1.0, e, out=e)
        e *= 0.5
        e *= x
        e *= d
        # 0.5 * (1 + t) + that
        np.add(t, 1.0, out=d)
        d *= 0.5
        d += e
        d *= g
        _accum(a, d)

    return _node(out, (a,), bwd)


def layernorm_rows(x, gain, bias, eps=1e-5) -> Tensor:
    """Per-row layer normalization with learned gain and bias.

    Means are np.add.reduce(...) / n, as .mean() and .var() compute them, and
    the centred rows become xhat in place, so results match those bitwise."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    n = x.data.shape[-1]
    mu = np.add.reduce(x.data, axis=-1, keepdims=True)
    mu /= n
    xhat = x.data - mu
    var = np.add.reduce(np.square(xhat), axis=-1, keepdims=True)
    var /= n
    var += eps
    inv = np.divide(1.0, np.sqrt(var, out=var), out=var)
    xhat *= inv
    out = xhat * gain.data
    out += bias.data

    def bwd(g):
        lead = tuple(range(g.ndim - 1))
        # dx = inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))
        dx = g * gain.data
        p = dx * xhat
        m2 = np.add.reduce(p, axis=-1, keepdims=True)
        m2 /= n
        m1 = np.add.reduce(dx, axis=-1, keepdims=True)
        m1 /= n
        dx -= m1
        dx -= np.multiply(xhat, m2, out=p)
        dx *= inv
        _accum(x, dx)
        _accum(gain, np.multiply(g, xhat, out=p).sum(axis=lead))
        _accum(bias, g.sum(axis=lead))

    return _node(out, (x, gain, bias), bwd)


def embedding(table, ids) -> Tensor:
    """Row lookup into `table` (V×d). Gradient scatters back into the table."""
    table, idx = _as_tensor(table), np.asarray(ids, dtype=np.int64)
    return _node(table.data[idx], (table,),
                 lambda g: _scatter(table, idx, g, repeats=True))


def concat_rows(parts) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    out_data = np.concatenate([p.data for p in parts], axis=0)
    offsets = np.cumsum([0] + [p.data.shape[0] for p in parts])

    def bwd(g):
        for p, a, b in zip(parts, offsets[:-1], offsets[1:]):
            _accum(p, g[a:b])

    return _node(out_data, tuple(parts), bwd)


def concat_cols(parts) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    out_data = np.concatenate([p.data for p in parts], axis=1)
    offsets = np.cumsum([0] + [p.data.shape[1] for p in parts])

    def bwd(g):
        for p, a, b in zip(parts, offsets[:-1], offsets[1:]):
            _accum(p, g[:, a:b])

    return _node(out_data, tuple(parts), bwd)


def slice_rows(a, start, stop) -> Tensor:
    a, index = _as_tensor(a), np.s_[start:stop]
    return _node(a.data[index], (a,), lambda g: _scatter(a, index, g))


def slice_cols(a, start, stop) -> Tensor:
    a, index = _as_tensor(a), np.s_[:, start:stop]
    return _node(a.data[index], (a,), lambda g: _scatter(a, index, g))


def pick(a, row_idx, col_idx) -> Tensor:
    """Gather a[row_idx[i], col_idx[i]] into a 1-D tensor."""
    a = _as_tensor(a)
    index = (np.asarray(row_idx, dtype=np.int64), np.asarray(col_idx, dtype=np.int64))
    return _node(a.data[index], (a,), lambda g: _scatter(a, index, g, repeats=True))


def stop_gradient(a) -> Tensor:
    """Pass data through, block the gradient."""
    a = _as_tensor(a)
    return Tensor(a.data)


def conv1d(x, w, bias, stride=1) -> Tensor:
    """Valid (unpadded) 1-D convolution.

    x: L×d_in, w: k×d_in×d_out, bias: d_out. Output length
    floor((L-k)/stride)+1.
    """
    x, w, bias = _as_tensor(x), _as_tensor(w), _as_tensor(bias)
    L, d_in = x.data.shape
    k, wc_in, d_out = w.data.shape
    if wc_in != d_in:
        raise ShapeMismatch(f"conv1d channels: input {d_in}, kernel {wc_in}")
    if k > L:
        raise KernelTooLarge(f"kernel {k} exceeds input length {L}")
    if stride < 1:
        raise ValueError("stride must be positive")
    # windows: (L_out, d_in, k)
    win = np.lib.stride_tricks.sliding_window_view(x.data, k, axis=0)[::stride]
    out_data = np.einsum("pck,kco->po", win, w.data) + bias.data

    def bwd(g):
        l_out = g.shape[0]
        _accum(w, np.einsum("pck,po->kco", win[:l_out], g))
        _accum(bias, g.sum(axis=0))
        if x.requires_grad or x._parents:
            dx = np.zeros_like(x.data)
            starts = np.arange(l_out) * stride
            for t in range(k):
                # dx[p*stride+t, c] += sum_o w[t,c,o] g[p,o]
                np.add.at(dx, starts + t, g @ w.data[t].T)
            _accum(x, dx)

    return _node(out_data, (x, w, bias), bwd)


@dataclass
class GradCheckReport:
    """Outcome of a finite-difference gradient check."""

    max_rel_err: float
    passed: bool
    n_checked: int
    failures: list = field(default_factory=list)


def finite_diff_check(fn, params, h=1e-5, tol=1e-4, n_sample=None, rng=None):
    """Compare analytic gradients of fn(params) with central differences.

    fn maps the params dict to a scalar Tensor and must be deterministic.
    When n_sample is given, that many scalar coordinates are drawn uniformly
    across all parameters; otherwise every coordinate is checked.
    """
    rng = rng or np.random.default_rng(0)
    for t in params.values():
        t.zero_grad()
    loss = fn(params)
    loss.backward()
    analytic = {name: (t.grad.copy() if t.grad is not None
                       else np.zeros_like(t.data))
                for name, t in params.items()}

    coords = []
    names = sorted(params)
    if n_sample is None:
        for name in names:
            for flat in range(params[name].data.size):
                coords.append((name, flat))
    else:
        sizes = np.array([params[n].data.size for n in names])
        total = int(sizes.sum())
        chosen = rng.choice(total, size=min(n_sample, total), replace=False)
        bounds = np.cumsum(sizes)
        for c in sorted(chosen.tolist()):
            i = int(np.searchsorted(bounds, c, side="right"))
            offset = c - (0 if i == 0 else int(bounds[i - 1]))
            coords.append((names[i], offset))

    max_err = 0.0
    failures = []
    for name, flat in coords:
        t = params[name]
        orig = t.data.flat[flat]
        t.data.flat[flat] = orig + h
        up = float(fn(params).data)
        t.data.flat[flat] = orig - h
        down = float(fn(params).data)
        t.data.flat[flat] = orig
        numeric = (up - down) / (2.0 * h)
        a = analytic[name].flat[flat]
        err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
        max_err = max(max_err, err)
        if err > tol:
            failures.append((name, int(flat), float(a), float(numeric), float(err)))
    return GradCheckReport(max_rel_err=max_err, passed=not failures,
                           n_checked=len(coords), failures=failures)
