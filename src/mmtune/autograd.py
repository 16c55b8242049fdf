"""Dense float arrays with reverse-mode differentiation.

Everything is numpy under the hood; the Tensor class just records enough
provenance to run a backward pass, and the backward pass consumes it.
Single threaded. Every array is float64, so gradients can be checked
against central finite differences. Products are of matrices, and operands
broadcast only against constants.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import KernelTooLarge, NotAttached, ShapeMismatch

_F64 = np.dtype(np.float64)  # Tensor keeps such an array without asarray's cost
_LN_EPS = 1e-5  # layernorm_rows' epsilon


class Tensor:
    """A numpy array plus optional autograd provenance."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=(), backward_fn=None):
        self.data = (data if type(data) is np.ndarray and data.dtype is _F64
                     else np.asarray(data, dtype=np.float64))
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = tuple(parents)
        self._backward = backward_fn

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Accumulate gradients of this scalar into every reachable tensor.

        The walk consumes the graph: each intermediate (a tensor with
        parents, this one included) loses its grad, parents and closure once
        its closure has run, so a second backward raises NotAttached. Leaves
        keep their .grad.

        A node's .grad is an array that it alone holds (_accum copies any
        gradient it is not handed to own), and the walk drops it right after
        the node's closure, so a closure may write into the gradient it is
        given or hand it on: attention divides it in place, and matmul gives
        it to its residual."""
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


def _accum(t: Tensor, g: np.ndarray, fresh=False):
    """Add g into t.grad; g must have t's shape.

    Operands broadcast only against constants, which take no gradient, so a
    gradient of another shape is an error. t.grad is later added into in
    place, so it takes g itself only when g is `fresh`, an array a kernel
    made for t alone; otherwise a copy: add hands the same g to both
    parents, and transpose and the slicing ops hand on views of it."""
    if not (t.requires_grad or t._parents):
        return
    if g.shape != t.data.shape:
        raise ShapeMismatch(f"gradient {g.shape} for a tensor of shape {t.shape}; "
                            "only constants may be broadcast")
    if t.grad is None:
        t.grad = g if fresh else g.copy()
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


_grad_enabled = True


@contextmanager
def no_grad():
    """Inside this context ops record no provenance: every result is a plain
    tensor with no parents and no backward closure, as inference needs. Each
    op returns it before it defines its closure, so none is ever made."""
    global _grad_enabled
    prev, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = prev


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data + b.data
    if not _grad_enabled:
        return Tensor(out_data)

    def bwd(g):
        _accum(a, g)
        _accum(b, g)

    return Tensor(out_data, parents=(a, b), backward_fn=bwd)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data * b.data
    if not _grad_enabled:
        return Tensor(out_data)

    def bwd(g):
        _accum(a, g * b.data, fresh=True)
        _accum(b, g * a.data, fresh=True)

    return Tensor(out_data, parents=(a, b), backward_fn=bwd)


def matmul(a, b, bias=None, residual=None) -> Tensor:
    """a @ b for an n×k `a` and a k×m `b`, plus the length-m `bias` row, if
    given, added in place to every row, then the n×m `residual`, if given,
    added in place: one node for a linear layer and its skip connection."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatch(f"matmul needs n×k @ k×m, got {a.shape} @ {b.shape}")
    out_data = a.data @ b.data
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.data.shape != out_data.shape[1:]:
            raise ShapeMismatch(f"bias {bias.shape} for {b.shape[1]} columns")
        out_data += bias.data
    if residual is not None:
        residual = _as_tensor(residual)
        if residual.data.shape != out_data.shape:
            raise ShapeMismatch(f"residual {residual.shape} for {out_data.shape}")
        out_data += residual.data
    if not _grad_enabled:
        return Tensor(out_data)

    def bwd(g):
        _accum(a, g @ b.data.T, fresh=True)
        _accum(b, a.data.T @ g, fresh=True)
        if bias is not None:
            _accum(bias, g.sum(axis=0), fresh=True)
        if residual is not None:  # the walk then drops g, so the residual may own it
            _accum(residual, g, fresh=True)

    return Tensor(out_data, backward_fn=bwd,
                  parents=[t for t in (a, b, bias, residual) if t is not None])


def transpose(a) -> Tensor:
    """The transpose of a matrix."""
    a = _as_tensor(a)
    out = a.data.T
    if not _grad_enabled:
        return Tensor(out)
    return Tensor(out, parents=(a,), backward_fn=lambda g: _accum(a, g.T))


def sum_all(a) -> Tensor:
    a = _as_tensor(a)
    out = a.data.sum()
    if not _grad_enabled:
        return Tensor(out)

    def bwd(g):
        _accum(a, np.full_like(a.data, float(g)), fresh=True)

    return Tensor(out, parents=(a,), backward_fn=bwd)


def softmax_rows(m) -> Tensor:
    """Row-wise softmax with max subtraction for stability."""
    m = _as_tensor(m)
    z = m.data - m.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)
    if not _grad_enabled:
        return Tensor(y)

    def bwd(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        _accum(m, y * (g - dot), fresh=True)

    return Tensor(y, parents=(m,), backward_fn=bwd)


def log_softmax_rows(m) -> Tensor:
    m = _as_tensor(m)
    out = m.data - m.data.max(axis=-1, keepdims=True)
    lse = np.log(np.add.reduce(np.exp(out), axis=-1, keepdims=True))
    out -= lse
    if not _grad_enabled:
        return Tensor(out)

    def bwd(g):
        dm = np.exp(out)
        dm *= g.sum(axis=-1, keepdims=True)
        _accum(m, np.subtract(g, dm, out=dm), fresh=True)

    return Tensor(out, parents=(m,), backward_fn=bwd)


# query rows per block of causal attention
_BLOCK = 64
# within a diagonal block, row i may not see the keys of rows after it
_AHEAD = np.triu(np.ones((_BLOCK, _BLOCK), dtype=bool), 1)


def _split(a, heads):  # rows×(heads·w) -> heads×rows×w
    return a.reshape(a.shape[0], heads, -1).transpose(1, 0, 2)


def _merge(a):  # heads×rows×w -> rows×(heads·w)
    return a.transpose(1, 0, 2).reshape(a.shape[1], -1)


def _causal_blocks(n, m, segments, tails):
    """The row blocks (r0, r1, k0, c) of a causal call: query rows [r0, r1)
    see keys [k0, c), where k0 is the first row of their segment and c the
    position after the last row's own."""
    blocks, r0, k0, fits = [], 0, 0, len(tails) == len(segments)
    for length, tail in zip(segments, tails):
        fits &= 0 < tail <= length
        end, c = r0 + tail, k0 + length
        for b in range(r0, end, _BLOCK):
            r1 = min(b + _BLOCK, end)
            blocks.append((b, r1, k0, c - end + r1))
        r0, k0 = end, c
    if not (fits and r0 == n and k0 == m):
        raise ShapeMismatch(f"causal attention of {n} queries over {m} keys "
                            f"as tails {list(tails)} of segments {list(segments)}")
    return blocks


def attention(q, k, v, heads=1, causal=False, segments=None, tails=None) -> Tensor:
    """softmax(QK^T / sqrt(d_head)) V for q: n×d, k: m×d, v: m×d_v, as one node.

    The columns split into `heads` equal groups that run as one batched
    product. A causal call follows one rule: the m keys are consecutive
    segments of lengths `segments` (one when None), the n queries are, in
    order, the last tails[j] rows of each segment j, and a query sees its
    segment's keys up to its own position. `tails` defaults to all n
    queries in the one segment, or to every row of each segment, so a full
    sequence, a pack, a prefill and a KV-cached row (n queries as the last n
    of m keys) take the same call as the rows a loss reads. Each tail runs
    in row blocks of _BLOCK queries: block [r0, r1) scores only the keys
    [k0, c) of its segment that its last row can see and masks only its
    diagonal part, so the keys above the diagonal are never scored,
    exponentiated or saved; its masked scores reach exp as 0, not -inf, and
    leave it as 0.0. A non-causal call is one block over every key, and so
    is one query row over one segment (a decode row, a prefill's last row),
    which takes it without the planning loop and forms its output and row
    sums as they come, not into preallocated arrays.

    A block's exponentials stay unnormalised, P = exp(S - rowmax), and their
    row sums l go to one heads×n×1 array; after the loop the output rows are
    divided by l once (FlashAttention-2, Dao 2023, 3.1). The node keeps each
    block's P, the split q, k and v, l and the output O. With G the output's
    gradient, G' = G / l (formed in G's own buffer) and s = 1/sqrt(d_head),
    the backward walks the same blocks, last to first, into dK and dV that
    start at zero: dS = P * (G'_blk V[k0:c]^T - D'), dQ_blk = s dS K[k0:c],
    dK[k0:c] += s dS^T Q_blk, dV[k0:c] += P^T G'_blk, where D' = rowsum(G' *
    O) per query row and head is found once per call. A key or value that
    takes no gradient, such as a frozen embedding matrix, gets no dK or dV."""
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    (n, d), (m, d_k), (m_v, d_v) = q.data.shape, k.data.shape, v.data.shape
    if d != d_k:
        raise ShapeMismatch(f"query dim {d} != key dim {d_k}")
    if m != m_v:
        raise ShapeMismatch(f"{m} keys vs {m_v} values")
    if d % heads or d_v % heads:
        raise ShapeMismatch(f"widths {d}, {d_v} not divisible by {heads} heads")
    if not causal and (segments is not None or tails is not None):
        raise ShapeMismatch("segments and tails need a causal call")
    tails = tails or ([n] if segments is None else segments)
    segments = segments or [m]
    if not causal or (n == 1 and len(segments) == len(tails) == 1
                      and tails[0] == 1 and segments[0] == m > 0):
        blocks = [(0, n, 0, m)]
    else:
        blocks = _causal_blocks(n, m, segments, tails)
    # scale q, not the heads×n×m scores: one pass less over the largest array
    scale = 1.0 / math.sqrt(d // heads)
    qh, kh, vh = (_split(q.data * scale, heads), _split(k.data, heads),
                  _split(v.data, heads))
    if n == 1:  # one block, with no key ahead of its row
        p = qh @ kh.transpose(0, 2, 1)
        p -= np.maximum.reduce(p, axis=-1, keepdims=True)
        np.exp(p, out=p)
        sums = np.add.reduce(p, axis=-1, keepdims=True)
        out = p @ vh
        probs = [p]
    else:
        probs = []
        # rows-first in memory, like dq below, so that merge is a free reshape
        out = np.empty((n, heads, vh.shape[2])).transpose(1, 0, 2)
        sums = np.empty((heads, n, 1))
        for r0, r1, k0, c in blocks:
            p = qh[:, r0:r1] @ kh[:, k0:c].transpose(0, 2, 1)
            b = r1 - r0
            # a one-row block has no key ahead of it; in a longer one the keys
            # ahead are -inf for the row max, then 0 through exp, whose -inf
            # path is slow, and 0.0 after it, which is exactly exp(-inf)
            ahead = _AHEAD[:b, :b] if causal and b > 1 else None
            if ahead is not None:
                np.copyto(p[:, :, c - k0 - b:], -np.inf, where=ahead)
            p -= np.maximum.reduce(p, axis=-1, keepdims=True)
            if ahead is not None:
                np.copyto(p[:, :, c - k0 - b:], 0.0, where=ahead)
            np.exp(p, out=p)
            if ahead is not None:
                np.copyto(p[:, :, c - k0 - b:], 0.0, where=ahead)
            np.add.reduce(p, axis=-1, keepdims=True, out=sums[:, r0:r1])
            np.matmul(p, vh[:, k0:c], out=out[:, r0:r1])
            if _grad_enabled:  # without a backward only the block in hand is needed
                probs.append(p)
            del p
    out /= sums
    if not _grad_enabled:
        return Tensor(_merge(out))

    def bwd(g):
        # g is this node's own, and nothing reads it after this
        gh = _split(g, heads)
        gh /= sums
        rowsum = (gh * out).sum(axis=-1, keepdims=True)
        dq = np.empty_like(qh)
        # heads-first, not kh's rows-first layout, in which += runs strided
        dk, dv = (np.zeros(a.shape) if t.requires_grad or t._parents else None
                  for t, a in ((k, kh), (v, vh)))
        for (r0, r1, k0, c), p in zip(reversed(blocks), reversed(probs)):
            gb = gh[:, r0:r1]
            ds = gb @ vh[:, k0:c].transpose(0, 2, 1)
            ds -= rowsum[:, r0:r1]
            ds *= p
            np.matmul(ds, kh[:, k0:c], out=dq[:, r0:r1])
            if dk is not None:
                dk[:, k0:c] += ds.transpose(0, 2, 1) @ qh[:, r0:r1]
            if dv is not None:
                dv[:, k0:c] += p.transpose(0, 2, 1) @ gb
        _accum(q, _merge(dq) * scale, fresh=True)
        for t, dt in ((k, dk), (v, dv)):
            if dt is not None:
                _accum(t, _merge(dt), fresh=True)

    return Tensor(_merge(out), parents=(q, k, v), backward_fn=bwd)


def gelu(a) -> Tensor:
    """tanh-approximation GELU; smooth, so finite differences stay honest.

    Forward and backward run in place on as few arrays as they can, in the
    operation order of the plain formulas, so results match them bitwise.
    0.5 * x * (1 + t) is formed as ((1 + t) * 0.5) * x: 1 + t is never
    subnormal, so its halving is exact, and where x is subnormal 1 + t is 1;
    so both orders round the same real product. Without a tape the output
    is formed in t's own buffer, which no backward needs."""
    a = _as_tensor(a)
    c = math.sqrt(2.0 / math.pi)
    x = a.data
    t = x * x
    t *= x
    t *= 0.044715
    t += x
    t *= c
    np.tanh(t, out=t)
    out = np.add(t, 1.0, out=None if _grad_enabled else t)
    out *= 0.5
    out *= x
    if not _grad_enabled:
        return Tensor(out)

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
        _accum(a, d, fresh=True)

    return Tensor(out, parents=(a,), backward_fn=bwd)


def layernorm_rows(x, gain, bias) -> Tensor:
    """Per-row layer normalization with learned gain and bias, eps 1e-5.

    Means are np.add.reduce(...) / n, as .mean() and .var() compute them, and
    the centred rows become xhat in place, so results match those bitwise.

    A single row, as in every KV-cached decode step, keeps its mean,
    variance and inverse deviation as Python floats, not 1×1 arrays: five
    ufunc calls fewer. The sums are numpy's own reductions over the same
    contiguous row, and Python, like numpy, rounds division and square root
    correctly, so both paths give the same bits. With eps fixed the variance
    is at least eps, or NaN, so math.sqrt neither raises nor differs from
    numpy on it: the one-row path needs no numpy fallback. Without a tape
    the output is formed in xhat's own buffer, which no backward needs."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    n = x.data.shape[-1]
    if x.data.shape[:-1] == (1,):
        mu = float(np.add.reduce(x.data[0])) / n
        xhat = x.data - mu
        var = float(np.add.reduce(np.square(xhat[0]))) / n + _LN_EPS
        inv = 1.0 / math.sqrt(var)
    else:
        mu = np.add.reduce(x.data, axis=-1, keepdims=True)
        mu /= n
        xhat = x.data - mu
        var = np.add.reduce(np.square(xhat), axis=-1, keepdims=True)
        var /= n
        var += _LN_EPS
        inv = np.divide(1.0, np.sqrt(var, out=var), out=var)
    xhat *= inv
    out = np.multiply(xhat, gain.data, out=None if _grad_enabled else xhat)
    out += bias.data
    if not _grad_enabled:
        return Tensor(out)

    def bwd(g):
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
        _accum(x, dx, fresh=True)
        _accum(gain, np.multiply(g, xhat, out=p).sum(axis=0), fresh=True)
        _accum(bias, g.sum(axis=0), fresh=True)

    return Tensor(out, parents=(x, gain, bias), backward_fn=bwd)


def embedding(table, ids) -> Tensor:
    """Row lookup into `table` (V×d). Gradient scatters back into the table."""
    table, idx = _as_tensor(table), np.asarray(ids, dtype=np.int64)
    out = table.data[idx]
    if not _grad_enabled:
        return Tensor(out)
    return Tensor(out, parents=(table,),
                  backward_fn=lambda g: _scatter(table, idx, g, repeats=True))


def concat_rows(parts) -> Tensor:
    """The parts' rows in order; a lone part is returned as it is."""
    parts = [_as_tensor(p) for p in parts]
    if len(parts) == 1:
        return parts[0]
    out_data = np.concatenate([p.data for p in parts], axis=0)
    if not _grad_enabled:
        return Tensor(out_data)
    offsets = np.cumsum([0] + [p.data.shape[0] for p in parts])

    def bwd(g):
        for p, a, b in zip(parts, offsets[:-1], offsets[1:]):
            _accum(p, g[a:b])

    return Tensor(out_data, parents=tuple(parts), backward_fn=bwd)


def concat_cols(parts) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    out_data = np.concatenate([p.data for p in parts], axis=1)
    if not _grad_enabled:
        return Tensor(out_data)
    offsets = np.cumsum([0] + [p.data.shape[1] for p in parts])

    def bwd(g):
        for p, a, b in zip(parts, offsets[:-1], offsets[1:]):
            _accum(p, g[:, a:b])

    return Tensor(out_data, parents=tuple(parts), backward_fn=bwd)


def take_rows(a, index) -> Tensor:
    """a[index] for a slice or an array of distinct row numbers."""
    a = _as_tensor(a)
    out = a.data[index]
    if not _grad_enabled:
        return Tensor(out)
    return Tensor(out, parents=(a,), backward_fn=lambda g: _scatter(a, index, g))


def slice_cols(a, start, stop) -> Tensor:
    a, index = _as_tensor(a), np.s_[:, start:stop]
    out = a.data[index]
    if not _grad_enabled:
        return Tensor(out)
    return Tensor(out, parents=(a,), backward_fn=lambda g: _scatter(a, index, g))


def pick(a, row_idx, col_idx) -> Tensor:
    """Gather a[row_idx[i], col_idx[i]] into a 1-D tensor."""
    a = _as_tensor(a)
    index = (np.asarray(row_idx, dtype=np.int64), np.asarray(col_idx, dtype=np.int64))
    out = a.data[index]
    if not _grad_enabled:
        return Tensor(out)
    return Tensor(out, parents=(a,),
                  backward_fn=lambda g: _scatter(a, index, g, repeats=True))


def stop_gradient(a) -> Tensor:
    """Pass data through, block the gradient."""
    a = _as_tensor(a)
    return Tensor(a.data)


def conv1d(x, w, bias, stride=1) -> Tensor:
    """Valid (unpadded) 1-D convolution.

    x: L×d_in, w: k×d_in×d_out, bias: d_out. Output length
    floor((L-k)/stride)+1. The input is a constant, the features of a frozen
    encoder: only the kernel and the bias take gradients.
    """
    x, w, bias = _as_tensor(x), _as_tensor(w), _as_tensor(bias)
    if x.requires_grad or x._parents:
        raise ValueError("conv1d takes no gradient for its input")
    L, d_in = x.data.shape
    k, wc_in, d_out = w.data.shape
    if wc_in != d_in:
        raise ShapeMismatch(f"conv1d channels: input {d_in}, kernel {wc_in}")
    if k > L:
        raise KernelTooLarge(f"kernel {k} exceeds input length {L}")
    if stride < 1:
        raise ValueError("stride must be positive")
    # the L_out×(k·d_in) matrix of windows, gathered with one index array,
    # times the kernel as a (k·d_in)×d_out matrix
    win = x.data[np.arange(0, L - k + 1, stride)[:, None]
                 + np.arange(k)].reshape(-1, k * d_in)
    out_data = win @ w.data.reshape(k * d_in, d_out)
    out_data += bias.data
    if not _grad_enabled:
        return Tensor(out_data)

    def bwd(g):
        _accum(w, (win.T @ g).reshape(w.shape), fresh=True)
        _accum(bias, g.sum(axis=0), fresh=True)

    return Tensor(out_data, parents=(w, bias), backward_fn=bwd)


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
