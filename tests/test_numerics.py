import contextlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mmtune import autograd as ag
from mmtune.autograd import Tensor, finite_diff_check
from mmtune.errors import KernelTooLarge, NotAttached, ShapeMismatch


def matmul_oracle(a, b):
    """Reference triple loop."""
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


class TestMatmul:
    def test_identity(self):
        a = np.random.default_rng(0).normal(size=(3, 5))
        out = ag.matmul(Tensor(np.eye(3)), Tensor(a))
        np.testing.assert_array_equal(out.data, a)

    def test_hand_example(self):
        out = ag.matmul(Tensor([[1, 2], [3, 4]]), Tensor([[5], [6]]))
        np.testing.assert_array_equal(out.data, [[17], [39]])

    def test_against_triple_loop(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(4, 6)), rng.normal(size=(6, 3))
        np.testing.assert_allclose(ag.matmul(Tensor(a), Tensor(b)).data,
                                   matmul_oracle(a, b), rtol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            ag.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_stack_mismatch(self):
        with pytest.raises(ShapeMismatch):
            ag.matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 4, 5))))

    def test_bias_matches_composed_add_bitwise(self, monkeypatch):
        # the oracle is the composed form add(matmul(x, w), b), whose bias
        # gradient is summed down to b's shape as _accum once did for every
        # operand broadcast against another
        rng = np.random.default_rng(3)
        data = {"x": rng.normal(size=(37, 5)), "w": rng.normal(size=(5, 7)),
                "b": rng.normal(size=7)}
        upstream = Tensor(rng.normal(size=(37, 7)))

        def run(op):
            p = {n: Tensor(a.copy(), requires_grad=True) for n, a in data.items()}
            out = op(p["x"], p["w"], p["b"])
            ag.sum_all(ag.mul(out, upstream)).backward()
            return out.data, {n: t.grad for n, t in p.items()}

        got_out, got = run(ag.matmul)
        accum = ag._accum

        def unbroadcasting_accum(t, g, fresh=False):
            if g.shape != t.data.shape:
                g, fresh = g.sum(axis=0), True
            accum(t, g, fresh)

        monkeypatch.setattr(ag, "_accum", unbroadcasting_accum)
        want_out, want = run(lambda x, w, b: ag.add(ag.matmul(x, w), b))
        assert np.array_equal(got_out, want_out)
        for n in data:
            assert np.array_equal(got[n], want[n]), n

    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("tape", [False, True])
    def test_residual_matches_composed_add_bitwise(self, bias, tape):
        # the oracle adds the residual in its own node; the residual is an
        # intermediate that a second op also reads, as the decoder's x is
        rng = np.random.default_rng(4)
        data = {"x": rng.normal(size=(9, 5)), "w": rng.normal(size=(5, 6)),
                "b": rng.normal(size=6), "r": rng.normal(size=(9, 6))}
        upstream = Tensor(rng.normal(size=(9, 6)))

        def run(op):
            p = {n: Tensor(a.copy(), requires_grad=True) for n, a in data.items()}
            with contextlib.nullcontext() if tape else ag.no_grad():
                r = ag.gelu(p["r"])
                out = op(p["x"], p["w"], p["b"] if bias else None, r)
                loss = ag.sum_all(ag.mul(ag.add(out, r), upstream))
            if tape:
                loss.backward()
            return [out.data] + [p[n].grad for n in data]

        got = run(lambda x, w, b, r: ag.matmul(x, w, b, residual=r))
        want = run(lambda x, w, b, r: ag.add(r, ag.matmul(x, w, b)))
        assert got[0].tobytes() == want[0].tobytes()
        for n, g, w in zip(data, got[1:], want[1:]):
            if not tape or (n == "b" and not bias):
                assert g is None and w is None, n
            else:
                assert g.tobytes() == w.tobytes(), n

    def test_residual_matches_finite_diff(self):
        rng = np.random.default_rng(5)
        params = {n: Tensor(rng.normal(size=s), requires_grad=True)
                  for n, s in (("x", (4, 3)), ("w", (3, 5)), ("b", (5,)),
                               ("r", (4, 5)))}
        weights = Tensor(rng.normal(size=(4, 5)))

        def fn(p):
            r = ag.gelu(p["r"])
            out = ag.matmul(p["x"], p["w"], p["b"], residual=r)
            return ag.sum_all(ag.mul(ag.layernorm_rows(out, np.ones(5),
                                                       np.zeros(5)), weights))

        rep = finite_diff_check(fn, params, h=1e-5, tol=1e-4)
        assert rep.passed, rep.failures[:3]

    def test_residual_of_another_shape(self):
        with pytest.raises(ShapeMismatch, match="residual"):
            ag.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))),
                      residual=Tensor(np.ones(4)))

    def test_bias_of_another_width(self):
        with pytest.raises(ShapeMismatch, match="bias"):
            ag.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))),
                      Tensor(np.ones(3)))

    def test_associativity(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = rng.normal(size=(4, 5))
            b = rng.normal(size=(5, 6))
            c = rng.normal(size=(6, 3))
            left = (a @ b) @ c
            right = a @ (b @ c)
            rel = np.abs(left - right) / np.maximum(np.abs(left), 1e-30)
            assert rel.max() < 1e-9


class TestSoftmaxRows:
    def test_uniform_row(self):
        out = ag.softmax_rows(Tensor([[0.0, 0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[0.25] * 4], atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        row = rng.normal(size=(1, 7))
        a = ag.softmax_rows(Tensor(row)).data
        b = ag.softmax_rows(Tensor(row + 123.456)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_stability(self):
        out = ag.softmax_rows(Tensor([[1000.0, 0.0]])).data
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, (3, 6),
                  elements=st.floats(-50, 50, allow_nan=False)))
    def test_rows_sum_to_one(self, m):
        out = ag.softmax_rows(Tensor(m)).data
        assert (out >= 0).all()
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)


# The plain formulas of the row kernels, forward and backward, as the
# bitwise oracles of the in-place kernels: each returns the output and the
# input gradients for an output gradient g.

def gelu_oracle(x, g):
    c = math.sqrt(2.0 / math.pi)
    u = c * (x + 0.044715 * (x * x * x))
    t = np.tanh(u)
    out = 0.5 * x * (1.0 + t)
    du = c * (1.0 + 3 * 0.044715 * x ** 2)
    d = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t ** 2) * du
    return out, g * d


def layernorm_oracle(x, gain, bias, g, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    out = xhat * gain + bias
    dxhat = g * gain
    dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    return out, dx, (g * xhat).sum(axis=0), g.sum(axis=0)


def log_softmax_oracle(m, g):
    z = m - m.max(axis=-1, keepdims=True)
    out = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    return out, g - np.exp(out) * g.sum(axis=-1, keepdims=True)


def run_kernel(op, g, *inputs):
    """op's output and the gradients of its inputs for output gradient g."""
    ts = [Tensor(a.copy(), requires_grad=True) for a in inputs]
    y = op(*ts)
    out = y.data.copy()
    ag.sum_all(ag.mul(y, Tensor(g))).backward()
    return (out, *(t.grad for t in ts))


class TestRowKernels:
    SHAPES = [(1, 64), (33, 64), (480, 256)]

    def assert_bitwise(self, got, want):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_gelu_matches_formula_bitwise(self, shape):
        rng = np.random.default_rng(21)
        x, g = 3.0 * rng.normal(size=shape), rng.normal(size=shape)
        self.assert_bitwise(run_kernel(ag.gelu, g, x), gelu_oracle(x, g))

    def test_gelu_extremes_match_formula_bitwise(self):
        x = np.array([[0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-20, -8.0,
                       -40.0, 40.0, 1e100, 1.5e308, -1.5e308]])
        g = np.linspace(-1.0, 1.0, x.size).reshape(x.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = run_kernel(ag.gelu, g, x), gelu_oracle(x, g)
        for a, b in zip(got, want):
            assert np.array_equal(a, b, equal_nan=True)
            assert np.array_equal(np.signbit(a), np.signbit(b))

    # one row takes its statistics as Python floats; (1, 130) and (1, 256)
    # sum in more than one of numpy's 128-element pairwise blocks
    @pytest.mark.parametrize("shape", SHAPES + [(1, 130), (1, 256)])
    def test_layernorm_matches_formula_bitwise(self, shape):
        rng = np.random.default_rng(22)
        x = 2.0 * rng.normal(size=shape) + 0.5
        gain, bias = rng.normal(size=shape[1]), rng.normal(size=shape[1])
        g = rng.normal(size=shape)
        self.assert_bitwise(run_kernel(ag.layernorm_rows, g, x, gain, bias),
                            layernorm_oracle(x, gain, bias, g))

    @pytest.mark.parametrize("row", [
        np.full(64, 0.3), np.where(np.arange(64) % 3, 1e200, -1e200),
        np.where(np.arange(64) == 5, np.nan, np.linspace(-1.0, 1.0, 64))],
        ids=["constant", "1e200", "nan"])
    def test_layernorm_one_row_extremes_match_array_path(self, row):
        # the same row twice takes the array path: its output and input
        # gradient rows, and half its gain and bias gradients, must be the
        # one row's to the bit, with the same RuntimeWarnings
        rng = np.random.default_rng(26)
        gain, bias, g = rng.normal(size=64), rng.normal(size=64), rng.normal(size=64)

        def run(rows):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = run_kernel(ag.layernorm_rows, np.tile(g, (rows, 1)),
                                 np.tile(row, (rows, 1)), gain, bias)
            return got, {(w.category, str(w.message)) for w in caught}

        (out, dx, dgain, dbias), seen = run(1)
        (out2, dx2, dgain2, dbias2), seen2 = run(2)
        assert seen == seen2
        pairs = [(out, out2[:1]), (out, out2[1:]), (dx, dx2[:1]), (dx, dx2[1:]),
                 (2 * dgain, dgain2), (2 * dbias, dbias2)]
        for a, b in pairs:
            assert a.tobytes() == b.tobytes()
            assert np.array_equal(np.signbit(a), np.signbit(b))

    @pytest.mark.parametrize("shape", [(13, 260), (430, 260)])
    def test_log_softmax_matches_formula_bitwise(self, shape):
        rng = np.random.default_rng(23)
        m, g = 4.0 * rng.normal(size=shape), rng.normal(size=shape)
        self.assert_bitwise(run_kernel(ag.log_softmax_rows, g, m),
                            log_softmax_oracle(m, g))

    # the formulas' temporaries peak at 4.0 (GELU) and 3.08 (layernorm)
    # input-sized arrays; the kernels hold two, t or xhat and the output
    @pytest.mark.parametrize("op,extra", [
        (ag.gelu, ()), (ag.layernorm_rows, (np.ones(256), np.zeros(256)))],
        ids=["gelu", "layernorm_rows"])
    def test_forward_peak(self, op, extra):
        x = np.random.default_rng(24).normal(size=(480, 256))
        inputs = [Tensor(a, requires_grad=True) for a in (x, *extra)]
        tracemalloc.start()
        try:
            op(*inputs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * x.nbytes, peak / x.nbytes

    # a backward keeps the gradient its kernel made as the input's .grad:
    # with a copy of it the peaks were 4.0, 3.0 and 4.0 input-sized arrays
    @pytest.mark.parametrize("op,extra,bound", [
        (ag.gelu, (), 3.5), (ag.log_softmax_rows, (), 2.5),
        (ag.layernorm_rows, (np.ones(256), np.zeros(256)), 3.5)],
        ids=["gelu", "log_softmax_rows", "layernorm_rows"])
    def test_backward_peak(self, op, extra, bound):
        x = Tensor(np.random.default_rng(25).normal(size=(480, 256)),
                   requires_grad=True)
        loss = ag.sum_all(op(x, *extra))
        tracemalloc.start()
        try:
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * x.data.nbytes, peak / x.data.nbytes


def conv_oracle(x, w, b, stride):
    """Direct sliding-window sum."""
    L, d_in = x.shape
    k, _, d_out = w.shape
    l_out = (L - k) // stride + 1
    y = np.zeros((l_out, d_out))
    for p in range(l_out):
        for o in range(d_out):
            y[p, o] = b[o]
            for t in range(k):
                for c in range(d_in):
                    y[p, o] += x[p * stride + t, c] * w[t, c, o]
    return y


class TestConv1d:
    def test_full_window(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 3))
        w = rng.normal(size=(5, 3, 2))
        out = ag.conv1d(Tensor(x), Tensor(w), Tensor(np.zeros(2)), stride=1)
        assert out.shape == (1, 2)

    def test_length_formula(self):
        x = np.zeros((6, 1))
        w = np.zeros((2, 1, 1))
        out = ag.conv1d(Tensor(x), Tensor(w), Tensor(np.zeros(1)), stride=2)
        assert out.shape == (3, 1)

    def test_sliding_window_sum(self):
        x = np.array([[1.0], [2.0], [3.0]])
        w = np.array([[[1.0]], [[1.0]]])
        out = ag.conv1d(Tensor(x), Tensor(w), Tensor(np.zeros(1)), stride=1)
        np.testing.assert_array_equal(out.data, [[3.0], [5.0]])

    def test_kernel_too_large(self):
        with pytest.raises(KernelTooLarge):
            ag.conv1d(Tensor(np.zeros((2, 1))), Tensor(np.zeros((3, 1, 1))),
                      Tensor(np.zeros(1)))

    def test_channel_mismatch(self):
        with pytest.raises(ShapeMismatch, match="input 2, kernel 3"):
            ag.conv1d(Tensor(np.zeros((4, 2))), Tensor(np.zeros((2, 3, 1))),
                      Tensor(np.zeros(1)))

    def test_stride_zero(self):
        with pytest.raises(ValueError, match="stride must be positive"):
            ag.conv1d(Tensor(np.zeros((4, 2))), Tensor(np.zeros((2, 2, 1))),
                      Tensor(np.zeros(1)), stride=0)

    def test_against_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(9, 4))
        w = rng.normal(size=(3, 4, 2))
        b = rng.normal(size=2)
        out = ag.conv1d(Tensor(x), Tensor(w), Tensor(b), stride=2)
        np.testing.assert_allclose(out.data, conv_oracle(x, w, b, 2), rtol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 30), st.integers(1, 30), st.integers(1, 5))
    def test_length_law(self, L, k, stride):
        if k > L:
            return
        out = ag.conv1d(Tensor(np.zeros((L, 1))), Tensor(np.zeros((k, 1, 1))),
                        Tensor(np.zeros(1)), stride=stride)
        assert out.shape[0] == (L - k) // stride + 1

    @pytest.mark.parametrize("L,l_prime", [(16, 4), (24, 4), (10, 4), (7, 3)],
                             ids=["apart", "apart-wide", "overlap", "overlap-odd"])
    def test_matches_a_sliding_window_einsum(self, L, l_prime):
        # the default geometry tiles L with windows that do not overlap
        # (stride = kernel); L=10 to L'=4 takes stride 2 and kernel 4
        stride = L // l_prime
        k = L - (l_prime - 1) * stride
        assert (k == stride) == (L % l_prime == 0)
        rng = np.random.default_rng(L)
        x, b = rng.normal(size=(L, 5)), rng.normal(size=3)
        w = rng.normal(size=(k, 5, 3))
        g = rng.normal(size=(l_prime, 3))
        wt, bt = Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)
        out = ag.conv1d(Tensor(x), wt, bt, stride=stride)
        ag.sum_all(ag.mul(out, g)).backward()
        win = np.lib.stride_tricks.sliding_window_view(x, k, axis=0)[::stride]
        np.testing.assert_allclose(out.data,
                                   np.einsum("pck,kco->po", win, w) + b,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(wt.grad, np.einsum("pck,po->kco", win, g),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(bt.grad, g.sum(axis=0), rtol=0, atol=1e-12)

    def test_input_with_gradient_raises(self):
        w, b = Tensor(np.ones((2, 3, 1)), requires_grad=True), Tensor(np.zeros(1))
        leaf = Tensor(np.ones((4, 3)), requires_grad=True)
        for x in (leaf, ag.add(leaf, leaf)):
            with pytest.raises(ValueError, match="input"):
                ag.conv1d(x, w, b)
        out = ag.conv1d(Tensor(np.ones((4, 3))), w, b)
        assert out._parents == (w, b)


class TestBackward:
    def test_sum_of_squares(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = ag.sum_all(ag.mul(x, x))
        loss.backward()
        np.testing.assert_allclose(x.grad, [2.0, 4.0], atol=1e-12)

    def test_softmax_nll_closed_form(self):
        z = Tensor([[0.3, -1.2, 2.0]], requires_grad=True)
        target = 1
        loss = ag.mul(ag.pick(ag.log_softmax_rows(z), [0], [target]), -1.0)
        loss.backward()
        sm = np.exp(z.data[0] - z.data[0].max())
        sm /= sm.sum()
        onehot = np.zeros(3)
        onehot[target] = 1.0
        np.testing.assert_allclose(z.grad[0], sm - onehot, atol=1e-12)

    def test_not_attached(self):
        with pytest.raises(NotAttached):
            Tensor(1.0, requires_grad=True).backward()

    def test_non_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = ag.mul(x, x)
        with pytest.raises(ValueError, match="scalar"):
            y.backward()
        assert x.grad is None

    def test_unreachable_param_grad_is_none(self):
        x = Tensor([1.0], requires_grad=True)
        y = Tensor([2.0], requires_grad=True)
        ag.sum_all(ag.mul(x, x)).backward()
        assert y.grad is None

    def test_backward_consumes_the_tape(self):
        x = Tensor([[1.0, -2.0]], requires_grad=True)
        w = Tensor([[0.5], [3.0]], requires_grad=True)
        h = ag.matmul(x, w)
        y = ag.gelu(h)
        loss = ag.sum_all(y)
        loss.backward()
        for t in (h, y, loss):
            assert t.grad is None and t._parents == () and t._backward is None
        assert float(loss.data) == float(y.data.sum())  # data outlives the tape
        assert x.grad.shape == (1, 2) and w.grad.shape == (2, 1)
        with pytest.raises(NotAttached):
            loss.backward()

    def test_first_gradient_not_shared_across_add(self):
        x1 = Tensor([1.0, 2.0], requires_grad=True)
        x2 = Tensor([3.0, 4.0], requires_grad=True)
        ag.sum_all(ag.mul(ag.add(x1, x2), Tensor([5.0, 6.0]))).backward()
        assert x1.grad is not x2.grad
        x1.grad += 1.0
        np.testing.assert_array_equal(x1.grad, [6.0, 7.0])
        np.testing.assert_array_equal(x2.grad, [5.0, 6.0])

    def test_first_gradient_not_shared_through_views(self):
        # add hands one array to both branches; transpose hands on a view
        # of it, which must not become a's gradient
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        b = Tensor(np.zeros((3, 2)), requires_grad=True)
        c = Tensor(np.arange(1.0, 7.0).reshape(3, 2))
        ag.sum_all(ag.mul(ag.add(ag.transpose(a), b), c)).backward()
        assert not np.shares_memory(a.grad, b.grad)
        np.testing.assert_array_equal(b.grad, c.data)
        np.testing.assert_array_equal(a.grad, c.data.T)
        b.grad[:] = 0.0
        np.testing.assert_array_equal(a.grad, c.data.T)

    def test_gradient_of_a_broadcast_operand_raises(self):
        x = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones(4), requires_grad=True)
        loss = ag.sum_all(ag.add(x, b))
        with pytest.raises(ShapeMismatch, match="broadcast"):
            loss.backward()

    def test_constants_broadcast(self):
        x = Tensor(np.ones((3, 4)), requires_grad=True)
        ag.sum_all(ag.mul(ag.add(x, np.arange(4.0)), 2.0)).backward()
        np.testing.assert_array_equal(x.grad, np.full((3, 4), 2.0))

    def test_gradients_match_copying_accumulation_bitwise(self, monkeypatch):
        # every op with a backward; the reference copies each first
        # gradient, as _accum once did for all of them
        rng = np.random.default_rng(8)
        shapes = {"x": (6, 4), "u": (6, 4), "w": (4, 4), "g": (4,), "b": (4,),
                  "e": (9, 4), "k": (3, 4, 4), "cb": (4,)}
        data = {n: rng.normal(size=s) for n, s in shapes.items()}

        def grads():
            p = {n: Tensor(a.copy(), requires_grad=True) for n, a in data.items()}
            h = ag.add(p["x"], p["u"])
            h = ag.gelu(ag.matmul(h, p["w"], p["b"]))
            h = ag.layernorm_rows(h, p["g"], p["b"])
            # conv1d's input is a constant, as a frozen encoder's features are
            c = ag.conv1d(Tensor(data["x"]), p["k"], p["cb"])
            h = ag.add(h, ag.concat_rows([c, ag.take_rows(h, np.s_[0:2])]))
            h = ag.attention(h, p["e"], p["e"], heads=2)
            h = ag.attention(h, h, h, heads=2, causal=True, segments=[2, 4])
            z = ag.matmul(h, ag.transpose(p["e"]))
            y = ag.add(ag.sum_all(ag.softmax_rows(z)),
                       ag.sum_all(ag.pick(ag.log_softmax_rows(z), [0, 5], [1, 8])))
            rows = ag.take_rows(ag.embedding(p["e"], [2, 2, 7]), [0, 2])
            ag.mul(y, ag.sum_all(rows)).backward()
            return {n: t.grad for n, t in p.items()}

        got = grads()

        def copying_accum(t, g, fresh=False):
            if not (t.requires_grad or t._parents):
                return
            if t.grad is None:
                t.grad = g.copy()
            else:
                t.grad += g

        monkeypatch.setattr(ag, "_accum", copying_accum)
        want = grads()
        # the two parents of the first add, the one array handed to both
        assert not np.shares_memory(got["x"], got["u"])
        for n in shapes:
            assert np.array_equal(got[n], want[n]), n

    def test_composed_ops_match_finite_diff(self):
        rng = np.random.default_rng(6)
        params = {"a": Tensor(rng.normal(size=(3, 4)), requires_grad=True),
                  "w": Tensor(rng.normal(size=(4, 3)), requires_grad=True),
                  "g": Tensor(np.ones(3), requires_grad=True),
                  "b": Tensor(np.zeros(3), requires_grad=True)}
        col_weights = Tensor(rng.normal(size=(3, 1)))

        def fn(p):
            h = ag.gelu(ag.matmul(p["a"], p["w"]))
            h = ag.layernorm_rows(h, p["g"], p["b"])
            return ag.sum_all(ag.matmul(ag.softmax_rows(h), col_weights))

        rep = finite_diff_check(fn, params, h=1e-5, tol=1e-4)
        assert rep.passed, rep.failures[:3]


class TestTensor:
    @pytest.mark.parametrize("data", [np.arange(3), np.ones(3, dtype=np.float32),
                                      [1, 2.5, 3], 2, np.float32(0.1),
                                      np.ones(3, dtype=">f8")])
    def test_stores_float64(self, data):
        # an op's float64 array is kept as it is; anything else is converted
        t = Tensor(data)
        assert type(t.data) is np.ndarray and t.data.dtype == np.float64
        assert t.data.dtype.isnative
        np.testing.assert_array_equal(t.data, np.asarray(data, dtype=np.float64))

    def test_keeps_a_float64_array(self):
        a = np.ones((2, 3))
        assert Tensor(a).data is a


class TestNoGrad:
    def test_outputs_record_no_tape(self):
        x = Tensor([[1.0, -2.0]], requires_grad=True)
        with ag.no_grad():
            y = ag.sum_all(ag.gelu(ag.matmul(x, ag.transpose(x))))
        assert y._parents == () and y._backward is None
        with pytest.raises(NotAttached):
            y.backward()
        ag.sum_all(ag.mul(x, x)).backward()  # recording resumes on exit
        np.testing.assert_allclose(x.grad, [[2.0, -4.0]], atol=1e-12)

    def test_restored_after_exception(self):
        with pytest.raises(ShapeMismatch):
            with ag.no_grad():
                ag.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
        x = Tensor([3.0], requires_grad=True)
        assert ag.mul(x, x)._parents


class TestFiniteDiffCheck:
    def test_sum_of_squares_passes(self):
        params = {"x": Tensor([1.0, -2.0, 0.5], requires_grad=True)}
        rep = finite_diff_check(lambda p: ag.sum_all(ag.mul(p["x"], p["x"])),
                                params, h=1e-5)
        assert rep.passed
        assert rep.max_rel_err < 1e-8

    def test_detects_wrong_gradient(self):
        # op with a deliberately doubled backward
        def bad_square(t):
            out_data = t.data ** 2

            def bwd(g):
                t.grad = (t.grad if t.grad is not None else 0) + 2 * (2 * t.data * g)

            return Tensor(out_data, parents=(t,), backward_fn=bwd)

        params = {"x": Tensor([1.0, 2.0], requires_grad=True)}
        rep = finite_diff_check(lambda p: ag.sum_all(bad_square(p["x"])), params)
        assert not rep.passed
