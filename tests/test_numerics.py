import math
import tracemalloc

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

    @pytest.mark.parametrize("shape", SHAPES)
    def test_layernorm_matches_formula_bitwise(self, shape):
        rng = np.random.default_rng(22)
        x = 2.0 * rng.normal(size=shape) + 0.5
        gain, bias = rng.normal(size=shape[1]), rng.normal(size=shape[1])
        g = rng.normal(size=shape)
        self.assert_bitwise(run_kernel(ag.layernorm_rows, g, x, gain, bias),
                            layernorm_oracle(x, gain, bias, g))

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
        assert loss.item() == float(y.data.sum())  # data outlives the tape
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
            return ag.mean_all(ag.matmul(ag.softmax_rows(h), col_weights))

        rep = finite_diff_check(fn, params, h=1e-5, tol=1e-4)
        assert rep.passed, rep.failures[:3]

    def test_stacked_ops_match_finite_diff(self):
        # 3-D matmul (stack @ stack and stack @ broadcast matrix) and the
        # transpose of a stack
        rng = np.random.default_rng(7)
        params = {"a": Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True),
                  "b": Tensor(rng.normal(size=(4, 5)), requires_grad=True),
                  "c": Tensor(rng.normal(size=(2, 3, 6)), requires_grad=True)}

        def fn(p):
            x = ag.transpose(ag.matmul(p["a"], p["b"]))
            y = ag.matmul(ag.transpose(p["a"]), p["c"])
            return ag.add(ag.mean_all(ag.mul(x, x)), ag.mean_all(ag.gelu(y)))

        rep = finite_diff_check(fn, params, h=1e-5, tol=1e-4)
        assert rep.passed, rep.failures[:3]


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
