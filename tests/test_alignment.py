import tracemalloc

import numpy as np
import pytest

from mmtune import autograd as ag
from mmtune.alignment import (align, derive_stride_kernel, init_transform,
                              transform)
from mmtune.autograd import Tensor, attention, finite_diff_check
from mmtune.errors import BadLength, MissingText, ShapeMismatch
from conftest import assemble_one


def causal_mask(n, m):
    """Additive mask for n queries that are the last n of m key positions."""
    return np.triu(np.full((n, m), -1e9), k=m - n + 1)


def attention_oracle(q, k, v, heads=1, causal=False):
    """Independent numpy computation of scaled dot-product attention, one
    head at a time over equal column groups."""
    mask = causal_mask(q.shape[0], k.shape[0]) if causal else None
    outs = []
    for qh, kh, vh in zip(np.split(q, heads, axis=1), np.split(k, heads, axis=1),
                          np.split(v, heads, axis=1)):
        scores = qh @ kh.T / np.sqrt(qh.shape[1])
        if mask is not None:
            scores = scores + mask
        scores = scores - scores.max(axis=1, keepdims=True)
        w = np.exp(scores)
        w /= w.sum(axis=1, keepdims=True)
        outs.append(w @ vh)
    return np.concatenate(outs, axis=1)


def rule_mask(n, m, segments=None, tails=None):
    """Additive mask of causal attention's rule, one query row at a time:
    the m keys are segments of these lengths (one when None), the n queries
    are each segment's last tails[j] rows (all n in one segment, or every
    row of each segment, when None), and a query sees its own segment's
    keys up to its own position."""
    tails = list(tails or ([n] if segments is None else segments))
    segments = list(segments or [m])
    mask = np.full((n, m), -1e9)
    row, k0 = 0, 0
    for length, tail in zip(segments, tails):
        for i in range(tail):
            mask[row + i, k0:k0 + length - tail + i + 1] = 0.0
        row, k0 = row + tail, k0 + length
    return mask


def composed_attention(q, k, v, heads=1, causal=False, segments=None,
                       tails=None):
    """Attention composed from elementary autograd ops, one head at a time:
    the gradient oracle for the single attention node. Products with 0/1
    selector matrices pick each head's columns and put its output back."""
    mask = (Tensor(rule_mask(q.shape[0], k.shape[0], segments, tails))
            if causal else None)

    def selector(width, h):  # width×(width/heads), the h-th column group
        w = width // heads
        return Tensor(np.eye(width)[:, h * w:(h + 1) * w])

    out = None
    for h in range(heads):
        sq, sv = selector(q.shape[1], h), selector(v.shape[1], h)
        qh = ag.mul(ag.matmul(q, sq), 1.0 / np.sqrt(sq.shape[1]))
        scores = ag.matmul(qh, ag.transpose(ag.matmul(k, sq)))
        if mask is not None:
            scores = ag.add(scores, mask)
        head = ag.matmul(ag.matmul(ag.softmax_rows(scores), ag.matmul(v, sv)),
                         ag.transpose(sv))
        out = head if out is None else ag.add(out, head)
    return out


def masked_exp_attention(q, k, v, g, heads, segments=None, tails=None):
    """Causal attention's output and q, k, v gradients for output gradient
    g, by its row-block loop with the keys ahead of each row at -inf through
    exp, as it ran before exp was kept off -inf: the operations, their order
    and their buffers are those of `attention`, so the results should agree
    bit for bit."""
    n, m, d = q.shape[0], k.shape[0], q.shape[1]
    tails = tails or ([n] if segments is None else segments)
    segments = segments or [m]
    blocks, r0, k0 = [], 0, 0
    for length, tail in zip(segments, tails):
        end, c = r0 + tail, k0 + length
        for b in range(r0, end, ag._BLOCK):
            r1 = min(b + ag._BLOCK, end)
            blocks.append((b, r1, k0, c - end + r1))
        r0, k0 = end, c

    def split(a):
        return a.reshape(a.shape[0], heads, -1).transpose(1, 0, 2)

    def merge(a):
        return a.transpose(1, 0, 2).reshape(a.shape[1], -1)

    scale = 1.0 / np.sqrt(d // heads)
    qh, kh, vh = split(q * scale), split(k), split(v)
    probs = []
    out = np.empty((n, heads, vh.shape[2])).transpose(1, 0, 2)
    sums = np.empty((heads, n, 1))
    for r0, r1, k0, c in blocks:
        p = qh[:, r0:r1] @ kh[:, k0:c].transpose(0, 2, 1)
        b = r1 - r0
        np.copyto(p[:, :, c - k0 - b:], -np.inf, where=ag._AHEAD[:b, :b])
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        np.add.reduce(p, axis=-1, keepdims=True, out=sums[:, r0:r1])
        np.matmul(p, vh[:, k0:c], out=out[:, r0:r1])
        probs.append(p)
    out /= sums
    gh = split(g) / sums
    rowsum = (gh * out).sum(axis=-1, keepdims=True)
    dq = np.empty_like(qh)
    # zeroed heads-first buffers that every block adds into
    dk, dv = np.zeros(kh.shape), np.zeros(vh.shape)
    for (r0, r1, k0, c), p in zip(reversed(blocks), reversed(probs)):
        gb = gh[:, r0:r1]
        ds = gb @ vh[:, k0:c].transpose(0, 2, 1)
        ds -= rowsum[:, r0:r1]
        ds *= p
        np.matmul(ds, kh[:, k0:c], out=dq[:, r0:r1])
        dk[:, k0:c] += ds.transpose(0, 2, 1) @ qh[:, r0:r1]
        dv[:, k0:c] += p.transpose(0, 2, 1) @ gb
    return merge(out), merge(dq) * scale, merge(dk), merge(dv)


class TestAttention:
    def test_single_key(self):
        rng = np.random.default_rng(0)
        q = rng.normal(size=(5, 3))
        v = rng.normal(size=(1, 4))
        out = attention(Tensor(q), Tensor(rng.normal(size=(1, 3))), Tensor(v))
        for row in out.data:
            np.testing.assert_allclose(row, v[0], atol=1e-12)

    def test_zero_query_gives_mean(self):
        rng = np.random.default_rng(1)
        k = rng.normal(size=(6, 3))
        v = rng.normal(size=(6, 2))
        out = attention(Tensor(np.zeros((2, 3))), Tensor(k), Tensor(v))
        np.testing.assert_allclose(out.data[0], v.mean(axis=0), atol=1e-12)

    def test_two_key_example(self):
        q = np.array([[1.0, 0.0]])
        k = np.array([[1.0, 0.0], [0.0, 1.0]])
        v = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = attention(Tensor(q), Tensor(k), Tensor(v))
        expected = attention_oracle(q, k, v)
        # weights softmax([1/sqrt(2), 0]) ~ [0.6698, 0.3302]
        np.testing.assert_allclose(expected[0], [1.660477, 2.660477], atol=1e-5)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    @pytest.mark.parametrize("causal", [False, True], ids=["nomask", "causal"])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_matches_oracle_random(self, heads, causal):
        rng = np.random.default_rng(2)
        q, k, v = rng.normal(size=(5, 8)), rng.normal(size=(7, 8)), rng.normal(size=(7, 4))
        out = attention(Tensor(q), Tensor(k), Tensor(v), heads, causal=causal)
        np.testing.assert_allclose(out.data, attention_oracle(q, k, v, heads, causal),
                                   atol=1e-12)

    @staticmethod
    def check_against_composed(heads, causal, n, m):
        rng = np.random.default_rng(12)
        data = {"q": rng.normal(size=(n, 8)), "k": rng.normal(size=(m, 8)),
                "v": rng.normal(size=(m, 4))}
        upstream = rng.normal(size=(n, 4))
        results = []
        for op in (attention, composed_attention):
            p = {name: Tensor(a, requires_grad=True) for name, a in data.items()}
            out = op(p["q"], p["k"], p["v"], heads, causal=causal)
            ag.sum_all(ag.mul(out, upstream)).backward()
            results.append([out.data] + [p[name].grad for name in "qkv"])
        for got, want in zip(*results):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("n,m", [(7, 7), (4, 7), (1, 7), (1, 1)],
                             ids=["n=m", "n<m", "one-row", "one-key"])
    @pytest.mark.parametrize("causal", [False, True], ids=["nomask", "causal"])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_matches_composed_ops(self, heads, causal, n, m):
        # n < m is a prefill or decode step after a cache of m - n positions
        self.check_against_composed(heads, causal, n, m)

    @pytest.mark.parametrize("n,m", [(63, 63), (64, 64), (65, 65), (130, 130),
                                     (200, 213), (70, 200)])
    @pytest.mark.parametrize("heads", [1, 4])
    def test_row_blocks_match_composed_ops(self, heads, n, m):
        # causal queries run in blocks of ag._BLOCK rows: one block short of,
        # at and just past one block, several blocks, and a prefill after a
        # cache with a partial last block
        self.check_against_composed(heads, True, n, m)

    @pytest.mark.parametrize("segments", [(5, 9, 1), (33, 33, 33), (70, 3),
                                          (2, 130, 64)])
    @pytest.mark.parametrize("heads", [1, 4])
    def test_segments_match_separate_calls(self, heads, segments):
        # a pack of sequences in one call equals each sequence in its own,
        # forward and backward; segments of over ag._BLOCK rows run in
        # several row blocks of their own
        rng = np.random.default_rng(16)
        n = sum(segments)
        data = {"q": rng.normal(size=(n, 8)), "k": rng.normal(size=(n, 8)),
                "v": rng.normal(size=(n, 12))}
        upstream = Tensor(rng.normal(size=(n, 12)))
        p = {name: Tensor(a, requires_grad=True) for name, a in data.items()}
        out = attention(p["q"], p["k"], p["v"], heads, causal=True,
                        segments=segments)
        ag.sum_all(ag.mul(out, upstream)).backward()
        bounds = np.cumsum((0,) + segments)
        for a, b in zip(bounds[:-1], bounds[1:]):
            s = {name: Tensor(x[a:b], requires_grad=True)
                 for name, x in data.items()}
            want = attention(s["q"], s["k"], s["v"], heads, causal=True)
            ag.sum_all(ag.mul(want, Tensor(upstream.data[a:b]))).backward()
            np.testing.assert_allclose(out.data[a:b], want.data, rtol=0,
                                       atol=1e-12)
            for name in "qkv":
                np.testing.assert_allclose(p[name].grad[a:b], s[name].grad,
                                           rtol=0, atol=1e-12)

    def test_segments_match_composed_ops(self):
        rng = np.random.default_rng(17)
        q, k, v = (Tensor(rng.normal(size=(9, 4))) for _ in range(3))
        got = attention(q, k, v, 2, causal=True, segments=[4, 5]).data
        want = composed_attention(q, k, v, 2, causal=True, segments=[4, 5]).data
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("segments,tails", [
        ((33, 33, 33), (1, 1, 1)), ((33, 33, 33), (13, 2, 33)),
        ((150,), (90,)), ((130, 20), (100, 7)), ((5, 70), (5, 70))],
        ids=["last-row", "some-rows", "lone-over-a-block", "over-a-block",
             "all-rows"])
    @pytest.mark.parametrize("heads", [1, 4])
    def test_tails_match_all_rows_and_composed_ops(self, heads, segments,
                                                   tails):
        # the queries of a tail call are the same rows of the all-rows call,
        # forward and backward, and the composed chain under the rule's mask
        # agrees with both
        rng = np.random.default_rng(18)
        m = sum(segments)
        rows = np.concatenate([np.arange(e - t, e) for e, t in
                               zip(np.cumsum(segments), tails)])
        data = {"q": rng.normal(size=(m, 8)), "k": rng.normal(size=(m, 8)),
                "v": rng.normal(size=(m, 12))}
        upstream = np.zeros((m, 12))
        upstream[rows] = rng.normal(size=(rows.size, 12))
        results = []
        for op, queries, tail in ((attention, slice(None), None),
                                  (attention, rows, tails),
                                  (composed_attention, rows, tails)):
            p = {name: Tensor(a, requires_grad=True) for name, a in data.items()}
            q = Tensor(data["q"][queries], requires_grad=True)
            out = op(q, p["k"], p["v"], heads, causal=True, segments=segments,
                     tails=tail)
            ag.sum_all(ag.mul(out, upstream[queries])).backward()
            results.append([out.data[rows if tail is None else slice(None)],
                            q.grad[rows if tail is None else slice(None)],
                            p["k"].grad, p["v"].grad])
        for want in results[1:]:
            for got, exp in zip(results[0], want):
                np.testing.assert_allclose(got, exp, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n,m,causal,segments,tails", [
        (6, 6, False, [3, 3], None), (4, 6, True, [2, 2], None),
        (6, 6, True, [3, 2], None), (2, 6, False, None, [2]),
        (5, 6, True, [3, 3], [1, 4]), (3, 6, True, [3, 3], [0, 3]),
        (4, 6, True, [3, 3], [2, 1]), (2, 6, True, [3, 3], [2])],
        ids=["not-causal", "after-a-cache", "short-sum", "tails-not-causal",
             "tail-over-its-segment", "empty-tail", "tails-short-sum",
             "one-tail-for-two-segments"])
    def test_segments_need_a_causal_call_over_its_own_rows(self, n, m, causal,
                                                           segments, tails):
        # the rule's rejections: segments and tails only in a causal call,
        # the segments cover the keys, and each segment has a tail of 1 to
        # all of its rows, the tails together covering the queries
        with pytest.raises(ShapeMismatch):
            attention(Tensor(np.ones((n, 4))), Tensor(np.ones((m, 4))),
                      Tensor(np.ones((m, 4))), causal=causal, segments=segments,
                      tails=tails)

    PARITY_CASES = pytest.mark.parametrize("n,m,segments,tails", [
        (99, 99, [33, 33, 33], None), (420, 420, None, None),
        (1, 40, [40], [1]), (30, 99, [33, 33, 33], [13, 2, 15]),
        (150, 150, [70, 80], None)],
        ids=["pack", "lone-over-seven-blocks", "one-row-tail", "some-rows",
             "pack-over-two-blocks-each"])

    @PARITY_CASES
    @pytest.mark.parametrize("heads", [1, 4])
    def test_matches_masked_exp_bitwise(self, heads, n, m, segments, tails):
        # keeping the masked scores off exp's -inf path changes no bit of
        # the output or of the q, k and v gradients
        rng = np.random.default_rng(19)
        data = {"q": rng.normal(size=(n, 16)), "k": rng.normal(size=(m, 16)),
                "v": rng.normal(size=(m, 8))}
        upstream = rng.normal(size=(n, 8))
        p = {name: Tensor(a, requires_grad=True) for name, a in data.items()}
        out = attention(p["q"], p["k"], p["v"], heads, causal=True,
                        segments=segments, tails=tails)
        ag.sum_all(ag.mul(out, upstream)).backward()
        want = masked_exp_attention(data["q"], data["k"], data["v"], upstream,
                                    heads, segments, tails)
        for got, exp in zip([out.data] + [p[name].grad for name in "qkv"],
                            want):
            assert np.array_equal(got, exp)
            # array_equal takes -0.0 for 0.0; the bytes tell them apart
            assert got.tobytes() == exp.tobytes()

    @PARITY_CASES
    def test_exp_never_sees_minus_inf(self, monkeypatch, n, m, segments,
                                      tails):
        rng = np.random.default_rng(20)
        q, k, v = (Tensor(rng.normal(size=(r, 16)), requires_grad=True)
                   for r in (n, m, m))
        exp, inputs = np.exp, []

        def recording_exp(x, *args, **kwargs):
            inputs.append(bool(np.isneginf(x).any()))
            return exp(x, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(ag.np, "exp", recording_exp)
            attention(q, k, v, 4, causal=True, segments=segments, tails=tails)
        assert inputs and not any(inputs)

    @staticmethod
    def assert_one_path(heads, n, m, causal, segments=None, tails=None):
        rng = np.random.default_rng(21)
        q, k, v = (rng.normal(size=(r, 16)) for r in (n, m, m))
        taped = attention(*(Tensor(a, requires_grad=True) for a in (q, k, v)),
                          heads, causal=causal, segments=segments, tails=tails)
        with ag.no_grad():
            bare = attention(Tensor(q), Tensor(k), Tensor(v), heads,
                             causal=causal, segments=segments, tails=tails)
        assert taped._backward is not None and bare._backward is None
        assert bare.data.tobytes() == taped.data.tobytes()

    @PARITY_CASES
    @pytest.mark.parametrize("heads", [1, 4])
    def test_no_grad_output_equals_tape_output(self, heads, n, m, segments,
                                               tails):
        # inference and training run one path: a call without a tape
        # returns the same bits as the call that keeps one
        self.assert_one_path(heads, n, m, True, segments, tails)

    @pytest.mark.parametrize("m", [1, 2, 63, 64, 65, 240, 512])
    @pytest.mark.parametrize("heads", [1, 4])
    def test_one_row_matches_the_block_loop_bitwise(self, heads, m):
        # one query row over one segment (a decode row, a prefill's last
        # row) skips the block plan and forms its output and row sums as
        # they come: the bits of the block loop into preallocated arrays,
        # with or without a tape, and the same gradients
        rng = np.random.default_rng(27)
        data = {"q": rng.normal(size=(1, 16)), "k": rng.normal(size=(m, 16)),
                "v": rng.normal(size=(m, 8))}
        upstream = rng.normal(size=(1, 8))
        want = masked_exp_attention(data["q"], data["k"], data["v"], upstream,
                                    heads, [m], [1])
        with ag.no_grad():
            for segments, tails in ((None, None), ([m], [1])):
                bare = attention(*(Tensor(data[name]) for name in "qkv"), heads,
                                 causal=True, segments=segments, tails=tails)
                assert bare._backward is None
                assert bare.data.tobytes() == want[0].tobytes()
        p = {name: Tensor(a, requires_grad=True) for name, a in data.items()}
        out = attention(p["q"], p["k"], p["v"], heads, causal=True,
                        segments=[m], tails=[1])
        ag.sum_all(ag.mul(out, upstream)).backward()
        for got, exp in zip([out.data] + [p[name].grad for name in "qkv"],
                            want):
            assert got.tobytes() == exp.tobytes()

    @pytest.mark.parametrize("segments,tails", [(None, None), ([0], [1])])
    def test_one_row_over_no_keys_raises(self, segments, tails):
        with pytest.raises(ShapeMismatch):
            attention(Tensor(np.ones((1, 4))), Tensor(np.ones((0, 4))),
                      Tensor(np.ones((0, 4))), causal=True, segments=segments,
                      tails=tails)

    def test_no_grad_align_output_equals_tape_output(self):
        # the non-causal shape of an align call
        self.assert_one_path(1, 12, 260, False)

    @pytest.mark.parametrize("causal,segments", [(False, None),
                                                 (True, [33, 33, 33])],
                             ids=["not-causal", "pack"])
    def test_saturated_scores(self, causal, segments):
        # at scores near 1e5 in magnitude each row's exponentials still hold
        # its max as exp(0) = 1, so its sum is at least 1: nothing overflows
        # or divides by 0 (a RuntimeWarning fails the test)
        rng = np.random.default_rng(22)
        q, k = (300.0 * rng.normal(size=(99, 16)) for _ in range(2))
        v = rng.normal(size=(99, 8))
        scores = q[:, :8] @ k[:, :8].T / np.sqrt(8)
        assert 5e4 < np.abs(scores).max() < 1e6
        p = {name: Tensor(a, requires_grad=True)
             for name, a in zip("qkv", (q, k, v))}
        out = attention(p["q"], p["k"], p["v"], 2, causal=causal,
                        segments=segments)
        want = composed_attention(Tensor(q), Tensor(k), Tensor(v), 2,
                                  causal=causal, segments=segments).data
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-12)
        ag.sum_all(ag.mul(out, rng.normal(size=(99, 8)))).backward()
        for name in "qkv":
            assert np.isfinite(p[name].grad).all()

    def test_constant_keys_take_no_gradient_buffers(self):
        # a frozen embedding matrix as keys and values takes no gradient:
        # the backward forms no key-sized dK or dV for it, so its peak stays
        # below one keys×width array
        rng = np.random.default_rng(23)
        m, d = 2000, 64
        e = ag.stop_gradient(Tensor(rng.normal(size=(m, d))))
        q = Tensor(rng.normal(size=(4, d)), requires_grad=True)
        loss = ag.sum_all(attention(q, e, e))
        tracemalloc.start()
        try:
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert q.grad is not None and e.grad is None
        assert peak < m * d * 8, peak / (m * d * 8)

    @staticmethod
    def causal_finite_diff(n, m, segments=None, tails=None):
        rng = np.random.default_rng(13)
        params = {"q": Tensor(rng.normal(size=(n, 4)), requires_grad=True),
                  "k": Tensor(rng.normal(size=(m, 4)), requires_grad=True),
                  "v": Tensor(rng.normal(size=(m, 6)), requires_grad=True)}
        weights = Tensor(rng.normal(size=(n, 6)))

        def fn(p):
            out = attention(p["q"], p["k"], p["v"], heads=2, causal=True,
                            segments=segments, tails=tails)
            return ag.sum_all(ag.mul(out, weights))

        rep = finite_diff_check(fn, params, h=1e-5, tol=1e-4)
        assert rep.passed, rep.failures[:3]

    def test_causal_finite_diff(self):
        self.causal_finite_diff(3, 5)

    def test_causal_finite_diff_across_blocks(self):
        self.causal_finite_diff(70, 75)

    def test_tail_finite_diff_across_blocks(self):
        # the first segment's tail of 68 queries runs in two row blocks
        self.causal_finite_diff(71, 84, segments=[75, 9], tails=[68, 3])

    def test_causal_node_keeps_lower_blocks_only(self):
        # what one causal node holds for its backward: each row block's
        # probabilities over the keys it can see, about half of the
        # heads x n x n scores at 480 rows, plus the scaled q and the output
        heads, n = 4, 480
        rng = np.random.default_rng(14)
        q, k, v = (Tensor(rng.normal(size=(n, 16)), requires_grad=True)
                   for _ in range(3))
        tracemalloc.start()
        try:
            out = attention(q, k, v, heads, causal=True)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out._backward is not None
        assert held < 0.75 * heads * n * n * 8, held / (heads * n * n * 8)

    def test_no_grad_keeps_one_probability_block(self):
        # without a backward, each row block's probabilities are dropped once
        # its output rows are written: the peak stays under two blocks
        heads, n = 4, 480
        rng = np.random.default_rng(15)
        q, k, v = (Tensor(rng.normal(size=(n, 64))) for _ in range(3))
        block = heads * ag._BLOCK * n * 8
        with ag.no_grad():
            tracemalloc.start()
            try:
                attention(q, k, v, heads, causal=True)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 2 * block, peak / block

    def test_backward_divides_its_gradient_in_place(self):
        # G / l is formed in the output gradient's own buffer: the walk of a
        # 480-row causal call peaks at 11.0 q-sized arrays, and at 12.0 with
        # G / l held as one more
        rng = np.random.default_rng(16)
        q, k, v = (Tensor(rng.normal(size=(480, 64)), requires_grad=True)
                   for _ in range(3))
        loss = ag.sum_all(attention(q, k, v, 4, causal=True))
        tracemalloc.start()
        try:
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 11.5 * q.data.nbytes, peak / q.data.nbytes

    def test_causal_more_queries_than_keys(self):
        with pytest.raises(ShapeMismatch):
            attention(Tensor(np.ones((3, 4))), Tensor(np.ones((2, 4))),
                      Tensor(np.ones((2, 4))), causal=True)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            attention(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))),
                      Tensor(np.ones((2, 4))))

    def test_keys_and_values_differ_in_rows(self):
        with pytest.raises(ShapeMismatch, match="5 keys vs 4 values"):
            attention(Tensor(np.ones((2, 4))), Tensor(np.ones((5, 4))),
                      Tensor(np.ones((4, 4))))

    def test_indivisible_width(self):
        with pytest.raises(ShapeMismatch):
            attention(Tensor(np.ones((2, 6))), Tensor(np.ones((3, 6))),
                      Tensor(np.ones((3, 5))), heads=2)

    def test_row_stochastic_weights(self):
        rng = np.random.default_rng(3)
        q, k = rng.normal(size=(5, 4)), rng.normal(size=(9, 4))
        scores = q @ k.T / 2.0
        w = ag.softmax_rows(Tensor(scores)).data
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-6)


class TestTransform:
    def test_stride_kernel_derivation(self):
        assert derive_stride_kernel(16, 4) == (4, 4)
        assert derive_stride_kernel(5, 5) == (1, 1)

    def test_bad_length(self):
        with pytest.raises(BadLength):
            derive_stride_kernel(3, 4)

    def test_output_shape(self):
        rng = np.random.default_rng(4)
        w = init_transform(16, 8, 12, 4, rng)
        feats = rng.normal(size=(16, 8))
        assert transform(feats, w, 4).shape == (4, 12)

    def test_pointwise_case(self):
        rng = np.random.default_rng(5)
        w = init_transform(4, 8, 12, 4, rng)
        feats = rng.normal(size=(4, 8))
        assert transform(feats, w, 4).shape == (4, 12)

    def test_sliding_window_oracle(self):
        # 3x1 features [1,2,3], L'=2 (s=1, k=2), conv [[1],[1]], identity linear
        w = {"conv_w": Tensor(np.ones((2, 1, 1))), "conv_b": Tensor(np.zeros(1)),
             "lin_w": Tensor(np.eye(1)), "lin_b": Tensor(np.zeros(1))}
        feats = np.array([[1.0], [2.0], [3.0]])
        out = transform(feats, w, 2)
        np.testing.assert_array_equal(out.data, [[3.0], [5.0]])

    def test_length_law_across_inputs(self):
        rng = np.random.default_rng(6)
        l_prime = 3
        for L in range(l_prime, 64 * l_prime + 1, 7):
            w = init_transform(L, 4, 6, l_prime, rng)
            feats = rng.normal(size=(L, 4))
            assert transform(feats, w, l_prime).shape == (l_prime, 6)

    def test_kernel_built_for_another_length(self):
        # 16 rows to 4 need kernel 4; this one was built for 18 rows (kernel 6)
        rng = np.random.default_rng(11)
        w = init_transform(18, 4, 6, 4, rng)
        with pytest.raises(ShapeMismatch, match="different input length"):
            transform(rng.normal(size=(16, 4)), w, 4)


class TestAlign:
    def test_single_embedding_row(self):
        rng = np.random.default_rng(7)
        e = rng.normal(size=(1, 6))
        out = align(Tensor(rng.normal(size=(3, 6))), Tensor(e))
        for row in out.data:
            np.testing.assert_allclose(row, e[0], atol=1e-12)

    def test_convex_hull_reconstruction(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            h = rng.normal(size=(3, 5))
            e = rng.normal(size=(11, 5))
            out = align(Tensor(h), Tensor(e)).data
            w = attention_oracle_weights(h, e)
            assert (w >= -1e-9).all()
            np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-6)
            np.testing.assert_allclose(out, w @ e, atol=1e-10)

    def test_shared_arithmetic_with_attention(self):
        h = np.array([[1.0, 0.0]])
        e = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = align(Tensor(h), Tensor(e)).data
        np.testing.assert_allclose(out, attention_oracle(h, e, e), atol=1e-12)

    @pytest.mark.parametrize("projected,heads", [(False, 1), (True, 2)],
                             ids=["plain", "projected-2heads"])
    def test_gradient_reaches_embedding_matrix(self, projected, heads):
        rng = np.random.default_rng(9)
        params = {"h": Tensor(rng.normal(size=(2, 4)), requires_grad=True),
                  "E": Tensor(rng.normal(size=(6, 4)), requires_grad=True)}
        names = ("wq", "wk", "wv", "wo") if projected else ()
        for n in names:
            params[n] = Tensor(rng.normal(size=(4, 4)), requires_grad=True)

        def fn(p):
            proj = {n: p[n] for n in names} or None
            return ag.sum_all(align(p["h"], p["E"], proj=proj, heads=heads))

        rep = finite_diff_check(fn, params, h=1e-5, tol=1e-4)
        assert rep.passed, rep.failures[:3]
        fn(params).backward()
        assert np.abs(params["E"].grad).max() > 0

    def test_width_other_than_the_embeddings(self):
        rng = np.random.default_rng(12)
        with pytest.raises(ShapeMismatch, match="soft-token width 5"):
            align(Tensor(rng.normal(size=(2, 5))), Tensor(rng.normal(size=(6, 4))))

    def test_freeze_embedding_blocks_gradient(self):
        rng = np.random.default_rng(10)
        e = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        h = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        ag.sum_all(align(h, e, freeze_embedding=True)).backward()
        assert e.grad is None
        assert h.grad is not None


def attention_oracle_weights(h, e):
    scores = h @ e.T / np.sqrt(e.shape[1])
    scores = scores - scores.max(axis=1, keepdims=True)
    w = np.exp(scores)
    return w / w.sum(axis=1, keepdims=True)


class TestAssemblePrefix:
    def embed(self, d_e=6):
        rng = np.random.default_rng(11)
        table = rng.normal(size=(260, d_e))
        return lambda ids: Tensor(table[np.asarray(ids)])

    def toks(self, n, d_e=6, kind="image"):
        rng = np.random.default_rng(hash(kind) % 2 ** 31)
        return Tensor(rng.normal(size=(n, d_e)))

    def test_full_combination_length(self):
        seq = assemble_one({k: self.toks(4, kind=k) for k in ("image", "video", "audio")},
                           list(range(10)), self.embed(), response_ids=list(range(6)))
        assert seq.length == 12 + 16

    def test_all_presence_combinations(self):
        l_prime = 3
        for bits in range(8):
            mods = {k: self.toks(l_prime, kind=k)
                    for i, k in enumerate(("image", "video", "audio")) if bits >> i & 1}
            seq = assemble_one(mods, [10, 11], self.embed(), response_ids=[12])
            m = bin(bits).count("1")
            assert seq.length == m * l_prime + 3

    def test_text_only(self):
        seq = assemble_one({}, [5, 6, 7], self.embed())
        assert seq.length == 3
        assert [t for t, _, _ in seq.spans] == ["instruction-text"]

    def test_modality_order(self):
        seq = assemble_one({k: self.toks(2, kind=k) for k in ("audio", "video", "image")},
                           [1], self.embed())
        assert [t for t, _, _ in seq.spans] == ["image", "video", "audio",
                                                "instruction-text"]

    def test_missing_text(self):
        with pytest.raises(MissingText):
            assemble_one({}, [], self.embed())

    def test_ids_mark_soft_positions(self):
        seq = assemble_one({"image": self.toks(2)}, [8, 9], self.embed(),
                           response_ids=[4])
        assert list(seq.ids) == [-1, -1, 8, 9, 4]
        assert seq.span("response-text") == (4, 5)
