import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest

from mmtune import autograd as ag
from mmtune import cognitive
from mmtune.alignment import InstructionSequence
from mmtune.autograd import Tensor
from mmtune.cognitive import (DecoderConfig, KVCache, ModelParams, embed_tokens,
                              forward, generate_greedy, init_params)
from mmtune.dataset import InstructionExample
from mmtune.errors import InvalidId, SequenceTooLong, ShapeMismatch
from mmtune.tokenizer import EOS, N_IDS, Vocab
from mmtune.training import build_sequence
from conftest import assemble_one
from test_alignment import composed_attention


def text_sequence(ids, params):
    return assemble_one({}, list(ids),
                        lambda i: embed_tokens(i, params))


class TestEmbedTokens:
    def test_row_lookup(self, tiny_params):
        out = embed_tokens([0], tiny_params)
        np.testing.assert_array_equal(out.data[0], tiny_params["E"].data[0])

    def test_shape(self, tiny_params):
        assert embed_tokens(list(range(10)), tiny_params).shape == (10, 16)

    def test_invalid_id(self, tiny_params):
        with pytest.raises(InvalidId):
            embed_tokens([N_IDS], tiny_params)

    def test_invalid_id_names_the_first_bad_id(self, tiny_params):
        with pytest.raises(InvalidId, match=rf"token id -2 outside \[0, {N_IDS}\)"):
            embed_tokens([3, -2, N_IDS], tiny_params)

    def test_one_embedding_row_per_tokenizer_id(self, tiny_params):
        assert tiny_params["E"].shape == (N_IDS, 16)


class TestForward:
    def test_logit_shape(self, tiny_params, tiny_dec_cfg):
        seq = text_sequence(range(4, 16), tiny_params)
        assert forward(seq, tiny_params, tiny_dec_cfg).shape == (12, 260)

    def test_logit_softmax_rows_sum_to_one(self, tiny_params, tiny_dec_cfg):
        seq = text_sequence([5, 6, 7], tiny_params)
        logits = forward(seq, tiny_params, tiny_dec_cfg)
        sm = ag.softmax_rows(logits).data
        np.testing.assert_allclose(sm.sum(axis=1), 1.0, atol=1e-6)

    def test_sequence_too_long(self, tiny_params, tiny_dec_cfg):
        seq = text_sequence([4] * (tiny_dec_cfg.max_seq_len + 1), tiny_params)
        with pytest.raises(SequenceTooLong):
            forward(seq, tiny_params, tiny_dec_cfg)

    def test_causality_fuzz(self, tiny_params, tiny_dec_cfg):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(3, 20))
            ids = rng.integers(4, 260, size=n).tolist()
            j = int(rng.integers(1, n))
            base = forward(text_sequence(ids, tiny_params), tiny_params,
                           tiny_dec_cfg).data
            seq = text_sequence(ids, tiny_params)
            zeroed = seq.embedded.data.copy()
            zeroed[j] = 0.0
            pert = forward(InstructionSequence(embedded=Tensor(zeroed),
                                               spans=seq.spans, ids=seq.ids),
                           tiny_params, tiny_dec_cfg).data
            np.testing.assert_array_equal(base[:j], pert[:j])

    def test_row_blocks_match_composed_attention(self, tiny_mod_cfg,
                                                 monkeypatch):
        # 150 tokens run each layer's attention in three row blocks, the last
        # one partial; the composed per-head chain is the oracle
        cfg = DecoderConfig(d_e=16, layers=2, heads=4, d_ff=32, max_seq_len=160)
        params = init_params(cfg, tiny_mod_cfg, np.random.default_rng(1))
        rng = np.random.default_rng(2)
        ids = rng.integers(4, 260, size=150).tolist()
        weights = Tensor(rng.normal(size=(150, 260)))

        def run():
            params.zero_grad()
            logits = forward(text_sequence(ids, params), params, cfg)
            ag.sum_all(ag.mul(logits, weights)).backward()
            return logits.data, {n: params[n].grad.copy() for n in params.names()
                                 if params[n].grad is not None}

        logits, grads = run()
        monkeypatch.setattr(ag, "attention", composed_attention)
        want_logits, want_grads = run()
        np.testing.assert_allclose(logits, want_logits, rtol=0, atol=1e-10)
        assert grads.keys() == want_grads.keys()
        for name in grads:
            np.testing.assert_allclose(grads[name], want_grads[name], rtol=0,
                                       atol=1e-10, err_msg=name)

    @staticmethod
    def packed(id_lists, params):
        seqs = [text_sequence(ids, params) for ids in id_lists]
        return InstructionSequence(
            embedded=ag.concat_rows([s.embedded for s in seqs])), seqs

    def test_segments_match_separate_forwards(self, tiny_params, tiny_dec_cfg):
        # positions restart in each segment, and the 70-row one runs its
        # attention in two row blocks
        rng = np.random.default_rng(3)
        lengths = [5, 70, 9]
        packed, seqs = self.packed(
            [rng.integers(4, 260, size=n).tolist() for n in lengths], tiny_params)
        packed.segments = lengths
        got = forward(packed, tiny_params, tiny_dec_cfg).data
        start = 0
        for seq in seqs:
            want = forward(seq, tiny_params, tiny_dec_cfg).data
            np.testing.assert_allclose(got[start:start + seq.length], want,
                                       rtol=0, atol=1e-12)
            start += seq.length

    def test_changing_one_segment_leaves_the_others_bitwise(self, tiny_params,
                                                           tiny_dec_cfg):
        rng = np.random.default_rng(4)
        lengths = [7, 12, 5]
        ids = [rng.integers(4, 260, size=n).tolist() for n in lengths]
        bounds = np.cumsum([0] + lengths)

        def logits(id_lists):
            packed = self.packed(id_lists, tiny_params)[0]
            packed.segments = lengths
            return forward(packed, tiny_params, tiny_dec_cfg).data

        base = logits(ids)
        for j, n in enumerate(lengths):
            other = list(ids)
            other[j] = rng.integers(4, 260, size=n).tolist()
            changed = logits(other)
            for i in range(len(lengths)):
                rows = slice(bounds[i], bounds[i + 1])
                same = np.array_equal(changed[rows], base[rows])
                assert same == (i != j), (i, j)

    def test_sequence_too_long_checks_each_segment(self, tiny_params,
                                                   tiny_dec_cfg):
        limit = tiny_dec_cfg.max_seq_len
        packed, _ = self.packed([[4] * 60, [5] * 60], tiny_params)
        packed.segments = [60, 60]
        assert forward(packed, tiny_params, tiny_dec_cfg).shape == (120, 260)
        packed, _ = self.packed([[4] * 3, [5] * (limit + 1)], tiny_params)
        packed.segments = [3, limit + 1]
        with pytest.raises(SequenceTooLong):
            forward(packed, tiny_params, tiny_dec_cfg)

    @pytest.mark.parametrize("tails", ["last", "some", "all"])
    @pytest.mark.parametrize("segments", [None, [5, 7]], ids=["one", "packed"])
    @pytest.mark.parametrize("layers", [1, 2])
    def test_tails_equal_full_logits_at_their_rows(self, tiny_mod_cfg, layers,
                                                   segments, tails):
        # the last layer runs Q onwards on each segment's tail alone; in a
        # one-layer model that is its only layer
        cfg = DecoderConfig(d_e=16, layers=layers, heads=2, d_ff=32,
                            max_seq_len=96)
        params = init_params(cfg, tiny_mod_cfg, np.random.default_rng(5))
        seq = text_sequence(range(20, 32), params)
        lengths = segments or [12]
        tails = {"last": [1] * len(lengths), "some": [4, 6][:len(lengths)],
                 "all": lengths}[tails]
        seq.segments = lengths
        full = forward(seq, params, cfg).data
        got = forward(seq, params, cfg, tails=tails).data
        rows = cognitive.tail_rows(lengths, tails)
        np.testing.assert_allclose(got, full[rows], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("segments,tails", [
        ([300], [1]), ([12], [12]), ([40], [7]), ([5, 7], [1, 1]),
        ([33, 34, 35, 33], [13, 14, 12, 13]), ([480, 470], [400, 1])])
    def test_tail_rows_match_running_sums(self, segments, tails):
        ends = np.cumsum(segments)
        want = np.concatenate([np.arange(e - t, e) for e, t in zip(ends, tails)])
        got = cognitive.tail_rows(segments, tails)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("tails", ["last", "some", "all"])
    @pytest.mark.parametrize("segments", [None, [5, 7], [3, 4, 5]])
    def test_no_grad_logits_equal_tape_logits(self, tiny_params, tiny_dec_cfg,
                                              segments, tails):
        # ops skip their backward closures without a tape, and nothing else
        # about the forward may change: eval and decode share train's path
        seq = text_sequence(range(20, 32), tiny_params)
        lengths = segments or [12]
        seq.segments = lengths
        tails = {"last": [1] * len(lengths), "some": [2, 4, 3][:len(lengths)],
                 "all": lengths}[tails]
        taped = forward(seq, tiny_params, tiny_dec_cfg, tails=tails)
        with ag.no_grad():
            plain = forward(seq, tiny_params, tiny_dec_cfg, tails=tails)
        assert taped._parents and not plain._parents
        assert plain.data.tobytes() == taped.data.tobytes()

    def test_tails_must_fit_their_segments(self, tiny_params, tiny_dec_cfg):
        seq = text_sequence(range(20, 32), tiny_params)
        for segments, tails in (([5, 7], [6, 1]), ([5, 7], [2]), (None, [0])):
            seq.segments = segments
            with pytest.raises(ShapeMismatch):
                forward(seq, tiny_params, tiny_dec_cfg, tails=tails)

    def test_soft_token_equals_embedded_token(self, tiny_params, tiny_dec_cfg):
        # a soft token identical to an embedding row produces identical logits
        ids = [7, 42, 99]
        via_ids = forward(text_sequence(ids, tiny_params), tiny_params,
                          tiny_dec_cfg).data
        rows = tiny_params["E"].data[ids].copy()
        soft = InstructionSequence(embedded=Tensor(rows),
                                   spans=[("instruction-text", 0, 3)],
                                   ids=np.array(ids))
        via_soft = forward(soft, tiny_params, tiny_dec_cfg).data
        np.testing.assert_array_equal(via_ids, via_soft)


def eos_always_params(cfg, mod_cfg):
    """Degenerate parameters whose argmax token is always EOS."""
    params = init_params(cfg, mod_cfg, np.random.default_rng(0))
    e = np.zeros_like(params["E"].data)
    e[EOS] = 1.0  # logits_EOS = sum(ln_f output) = d_e with g=1, b=1
    params.tensors["E"] = Tensor(e, requires_grad=True)
    params.tensors["ln_f.g"] = Tensor(np.ones(cfg.d_e), requires_grad=True)
    params.tensors["ln_f.b"] = Tensor(np.ones(cfg.d_e), requires_grad=True)
    return params


class TestGenerateGreedy:
    def test_deterministic(self, tiny_params, tiny_dec_cfg):
        seq = text_sequence([1, 50, 60, 3], tiny_params)
        a = generate_greedy(seq, 8, tiny_params, tiny_dec_cfg)
        seq2 = text_sequence([1, 50, 60, 3], tiny_params)
        b = generate_greedy(seq2, 8, tiny_params, tiny_dec_cfg)
        assert a == b

    def test_decode_memory_bounded(self, tiny_params, tiny_dec_cfg):
        # an 80-token decode keeps neither its KV cache nor any attention
        # probabilities once it returns: less than a quarter of the cache's
        # bytes stays allocated
        seq = text_sequence([1, 50, 60, 3], tiny_params)
        tracemalloc.start()
        try:
            generate_greedy(seq, 80, tiny_params, tiny_dec_cfg, eos_id=-1)
            gc.collect()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < KVCache.empty(tiny_dec_cfg,
                                     tiny_dec_cfg.max_seq_len).kv.nbytes / 4

    def test_prompt_allocates_only_its_own_rows(self, tiny_mod_cfg):
        # a prompt-only request on 512-row buffers writes its 5 rows: its
        # peak stays under a quarter of a max_seq_len cache
        cfg = DecoderConfig()
        params = init_params(cfg, tiny_mod_cfg, np.random.default_rng(0))
        seq = text_sequence([1, 50, 60, 70, 3], params)
        full = KVCache.empty(cfg, cfg.max_seq_len).kv.nbytes
        tracemalloc.start()
        try:
            generate_greedy(seq, 1, params, cfg, eos_id=-1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < full / 4, peak / full

    def test_no_new_tokens(self, tiny_params, tiny_dec_cfg):
        seq = text_sequence([1, 50, 60, 3], tiny_params)
        assert generate_greedy(seq, 0, tiny_params, tiny_dec_cfg) == []

    def test_eos_model_generates_nothing(self, tiny_dec_cfg, tiny_mod_cfg):
        params = eos_always_params(tiny_dec_cfg, tiny_mod_cfg)
        seq = text_sequence([1, 10, 3], params)
        assert generate_greedy(seq, 8, params, tiny_dec_cfg) == []

    def test_too_long(self, tiny_params, tiny_dec_cfg):
        seq = text_sequence([4, 5], tiny_params)
        with pytest.raises(SequenceTooLong):
            generate_greedy(seq, tiny_dec_cfg.max_seq_len, tiny_params,
                            tiny_dec_cfg)

    def test_rejects_response_span(self, tiny_params, tiny_dec_cfg):
        seq = assemble_one({}, [1, 5, 3],
                           lambda i: embed_tokens(i, tiny_params),
                           response_ids=[9, 2])
        with pytest.raises(ValueError):
            generate_greedy(seq, 4, tiny_params, tiny_dec_cfg)


def generate_full_recompute(prefix, max_new, params, cfg, eos_id=EOS):
    """Reference decoder: the whole forward again over the grown sequence
    for every new token. Returns the ids and each step's last-row logits."""
    embedded, ids, rows = prefix.embedded, [], []
    seq = prefix
    for _ in range(max_new):
        logits = forward(seq, params, cfg)
        rows.append(logits.data[-1])
        next_id = int(np.argmax(logits.data[-1]))
        if next_id == eos_id:
            break
        ids.append(next_id)
        embedded = ag.concat_rows([embedded, embed_tokens([next_id], params)])
        seq = InstructionSequence(embedded=embedded, spans=prefix.spans)
    return ids, rows


def recording_forward(monkeypatch):
    """Wrap the module-level forward that generate_greedy calls; the list
    returned fills with (input rows, last-row logits) per call."""
    calls = []
    inner = cognitive.forward

    def wrapper(seq, *args, **kwargs):
        out = inner(seq, *args, **kwargs)
        calls.append((seq.length, out.data[-1].copy()))
        return out

    monkeypatch.setattr(cognitive, "forward", wrapper)
    return calls


class TestKVCache:
    @pytest.fixture(params=[1, 4], ids=["heads1", "heads4"])
    def model(self, request, tiny_mod_cfg):
        cfg = DecoderConfig(d_e=16, layers=2, heads=request.param, d_ff=32,
                            max_seq_len=96)
        return cfg, init_params(cfg, tiny_mod_cfg, np.random.default_rng(0))

    @pytest.fixture(params=["text", "media"])
    def prefix(self, request, model, tiny_mod_cfg):
        cfg, params = model
        if request.param == "text":
            return text_sequence([1, 50, 60, 70, 3], params)
        media = tuple({"kind": k, "path": f"clip.{k}"}
                      for k in ("image", "video", "audio"))
        ex = InstructionExample(id="q", media=media, instruction="what is here",
                                response="-", source="test")
        return build_sequence(ex, params, cfg, tiny_mod_cfg, Vocab(),
                              with_response=False)

    def check_against_oracle(self, monkeypatch, prefix, max_new, params, cfg,
                             eos_id):
        want_ids, want_rows = generate_full_recompute(prefix, max_new, params,
                                                      cfg, eos_id)
        calls = recording_forward(monkeypatch)
        assert generate_greedy(prefix, max_new, params, cfg, eos_id) == want_ids
        assert len(calls) == len(want_rows)
        for (_, got), want in zip(calls, want_rows):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
        return want_ids

    def test_fills_max_seq_len(self, monkeypatch, model, prefix):
        # the last new token is never fed back, so one more than the free
        # rows still fits
        cfg, params = model
        free = cfg.max_seq_len - prefix.length
        for max_new in (free, free + 1):
            with monkeypatch.context() as patch:
                ids = self.check_against_oracle(patch, prefix, max_new, params,
                                                cfg, eos_id=-1)
            assert len(ids) == max_new

    def test_early_eos(self, monkeypatch, model, prefix):
        cfg, params = model
        ids, _ = generate_full_recompute(prefix, 12, params, cfg, eos_id=-1)
        eos = next(i for i in ids if i != ids[0])  # first stops after >= 1 id
        got = self.check_against_oracle(monkeypatch, prefix, 12, params, cfg,
                                        eos_id=eos)
        assert got == ids[:ids.index(eos)]

    @pytest.mark.parametrize("max_new", [1, 12])
    def test_one_forward_per_token(self, monkeypatch, tiny_params,
                                   tiny_dec_cfg, max_new):
        seq = text_sequence([1, 50, 60, 3], tiny_params)
        calls = recording_forward(monkeypatch)
        ids = generate_greedy(seq, max_new, tiny_params, tiny_dec_cfg, eos_id=-1)
        assert len(calls) == len(ids) == max_new
        assert [rows for rows, _ in calls] == [seq.length] + [1] * (max_new - 1)

    def test_chunks_match_full_forward(self, model):
        cfg, params = model
        ids = list(range(4, 24))
        full = forward(text_sequence(ids, params), params, cfg).data
        cache, rows = KVCache.empty(cfg, cfg.max_seq_len), []
        with ag.no_grad():
            for a, b in ((0, 7), (7, 8), (8, 20)):
                chunk = InstructionSequence(embedded=embed_tokens(ids[a:b], params))
                rows.append(forward(chunk, params, cfg, cache).data)
                assert cache.t == b
        np.testing.assert_allclose(np.concatenate(rows), full, rtol=0, atol=1e-10)

    def test_cache_overflow(self, tiny_params, tiny_dec_cfg):
        cache = dataclasses.replace(KVCache.empty(tiny_dec_cfg,
                                                  tiny_dec_cfg.max_seq_len),
                                    t=tiny_dec_cfg.max_seq_len)
        with ag.no_grad(), pytest.raises(SequenceTooLong):
            forward(text_sequence([4], tiny_params), tiny_params, tiny_dec_cfg,
                    cache)

    def test_overflow_of_a_request_sized_cache(self, tiny_params, tiny_dec_cfg):
        # the buffer's own rows bound a forward, not only max_seq_len
        cache = KVCache.empty(tiny_dec_cfg, rows=4)
        assert cache.kv.shape[2] == 4
        with ag.no_grad():
            with pytest.raises(SequenceTooLong):
                forward(text_sequence([4, 5, 6, 7, 8], tiny_params),
                        tiny_params, tiny_dec_cfg, cache)
            forward(text_sequence([4, 5, 6], tiny_params), tiny_params,
                    tiny_dec_cfg, cache)
            forward(text_sequence([7], tiny_params), tiny_params,
                    tiny_dec_cfg, cache)
            with pytest.raises(SequenceTooLong):
                forward(text_sequence([8], tiny_params), tiny_params,
                        tiny_dec_cfg, cache)
        assert cache.t == 4


def test_config_rejects_indivisible_heads():
    with pytest.raises(ValueError):
        DecoderConfig(d_e=10, heads=4)


def test_group_returns_the_tensors_now_held(tiny_params):
    # group() finds a prefix's names once, but a tensor replaced in
    # params.tensors after that is the one it returns
    group = tiny_params.group("transform.image")
    assert sorted(group) == ["conv_b", "conv_w", "lin_b", "lin_w"]
    assert group["lin_w"] is tiny_params["transform.image.lin_w"]
    new = Tensor(np.zeros_like(group["lin_w"].data), requires_grad=True)
    tiny_params.tensors["transform.image.lin_w"] = new
    assert tiny_params.group("transform.image")["lin_w"] is new
    assert tiny_params.group("align.image") == {}
