import gc
import tracemalloc

import numpy as np
import pytest

from mmtune import autograd as ag
from mmtune.alignment import InstructionSequence, assemble_prefix
from mmtune.autograd import Tensor
from mmtune.cognitive import (DecoderConfig, ModelParams, embed_tokens, forward,
                              generate_greedy, init_params)
from mmtune.errors import InvalidId, SequenceTooLong
from mmtune.tokenizer import EOS


def text_sequence(ids, params):
    return assemble_prefix(None, None, None, list(ids),
                           lambda i: embed_tokens(i, params))


class TestEmbedTokens:
    def test_row_lookup(self, tiny_params):
        out = embed_tokens([0], tiny_params)
        np.testing.assert_array_equal(out.data[0], tiny_params["E"].data[0])

    def test_shape(self, tiny_params):
        assert embed_tokens(list(range(10)), tiny_params).shape == (10, 16)

    def test_invalid_id(self, tiny_params, tiny_dec_cfg):
        with pytest.raises(InvalidId):
            embed_tokens([tiny_dec_cfg.vocab_size], tiny_params)


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
        # an 80-token decode may leave at most about one max_seq_len² mask
        seq = text_sequence([1, 50, 60, 3], tiny_params)
        tracemalloc.start()
        try:
            generate_greedy(seq, 80, tiny_params, tiny_dec_cfg, eos_id=-1)
            gc.collect()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 2 * tiny_dec_cfg.max_seq_len ** 2 * 8

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
        seq = assemble_prefix(None, None, None, [1, 5, 3],
                              lambda i: embed_tokens(i, tiny_params),
                              response_ids=[9, 2])
        with pytest.raises(ValueError):
            generate_greedy(seq, 4, tiny_params, tiny_dec_cfg)


def test_config_rejects_indivisible_heads():
    with pytest.raises(ValueError):
        DecoderConfig(d_e=10, heads=4)
