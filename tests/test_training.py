import dataclasses
import json
import math
import os
import struct
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from mmtune import autograd as ag
from mmtune import encoders, training
from mmtune.alignment import align, assemble_prefix, transform
from mmtune.autograd import Tensor
from mmtune.cognitive import (DecoderConfig, ModelParams, embed_tokens, forward,
                              init_params, tail_rows)
from mmtune.dataset import InstructionExample
from mmtune.encoders import KINDS, MediaRef, ModalityConfig, encode
from mmtune.errors import (BadMagic, ConfigError, CorruptPayload,
                           EmptyDataset, NoResponseSpan, SchemaError,
                           SequenceTooLong, VersionMismatch)
from mmtune.training import (AdamState, Checkpoint, TrainConfig,
                             _batch_loss_and_grads, build_pack,
                             build_sequence, evaluate, fit, frame,
                             load_checkpoint, lr_at, response_nll,
                             save_checkpoint, total_optimizer_steps, train_step)
from mmtune.tokenizer import BOS, EOS, SEP, Vocab
from conftest import (assemble_one, bogus_decoder_key, drop_dataset_key,
                      make_examples, rewrite_ckpt_config, set_header,
                      set_header_key, to_format_4, to_format_5)


def seq_with_response(params, instr_ids=(1, 10, 11, 3), resp_ids=(20, 21, 2)):
    return assemble_one({}, list(instr_ids),
                        lambda i: embed_tokens(i, params),
                        response_ids=list(resp_ids))


def record_forward_lengths(monkeypatch):
    """The row count of every sequence training.forward is called on."""
    lengths = []

    def recording(seq, *args, **kwargs):
        lengths.append(seq.length)
        return forward(seq, *args, **kwargs)

    monkeypatch.setattr(training, "forward", recording)
    return lengths


class TestResponseNLL:
    def test_uniform_logits(self, tiny_params):
        seq = seq_with_response(tiny_params)
        logits = Tensor(np.zeros((seq.length, 260)))
        loss = response_nll(logits, seq)
        assert loss.data == pytest.approx(math.log(260), rel=1e-12)

    def test_confident_logits(self, tiny_params):
        seq = seq_with_response(tiny_params)
        a, b = seq.span("response-text")
        logits = np.zeros((seq.length, 260))
        for pos in range(a, b):
            logits[pos - 1, seq.ids[pos]] = 20.0
        assert response_nll(Tensor(logits), seq).data < 1e-6

    def test_instruction_targets_do_not_matter(self, tiny_params):
        rng = np.random.default_rng(0)
        seq = seq_with_response(tiny_params)
        logits = Tensor(rng.normal(size=(seq.length, 260)))
        base = float(response_nll(logits, seq).data)
        ins_a, ins_b = seq.span("instruction-text")
        for _ in range(20):
            fuzzed = seq.ids.copy()
            fuzzed[ins_a:ins_b] = rng.integers(0, 260, size=ins_b - ins_a)
            seq.ids = fuzzed
            assert float(response_nll(logits, seq).data) == base

    def test_no_response_span(self, tiny_params):
        seq = assemble_one({}, [1, 5],
                           lambda i: embed_tokens(i, tiny_params))
        with pytest.raises(NoResponseSpan):
            response_nll(Tensor(np.zeros((2, 260))), seq)

    def test_sum_reduction(self, tiny_params):
        seq = seq_with_response(tiny_params)
        logits = Tensor(np.zeros((seq.length, 260)))
        n_resp = seq.span("response-text")[1] - seq.span("response-text")[0]
        total = response_nll(logits, seq, reduction="sum")
        assert total.data == pytest.approx(n_resp * math.log(260), rel=1e-12)

    @pytest.mark.parametrize("reduction", ["mean", "sum"])
    def test_tail_rows_of_a_mixed_pack(self, monkeypatch, tiny_params,
                                       reduction):
        # three 33-row segments whose tails are 13, 2 and 33 rows: tails-only
        # logits are read at the rows a search of the tails' absolute rows
        # finds, and give the full logits' loss and gradients, bit for bit
        rng = np.random.default_rng(7)
        texts = [(list(rng.integers(4, 260, size=33 - r)),
                  list(rng.integers(4, 260, size=r))) for r in (12, 1, 32)]
        seq = assemble_prefix([], [], texts, lambda i: embed_tokens(i, tiny_params))
        assert (seq.segments, seq.tails) == ([33, 33, 33], [13, 2, 33])
        rows, pick = [], ag.pick

        def recording_pick(a, row_idx, col_idx):
            rows.append(np.asarray(row_idx))
            return pick(a, row_idx, col_idx)

        monkeypatch.setattr(ag, "pick", recording_pick)
        kept = tail_rows(seq.segments, seq.tails)
        full = Tensor(rng.normal(size=(99, 260)), requires_grad=True)
        tails = Tensor(full.data[kept], requires_grad=True)
        want = response_nll(full, seq, reduction)
        got = response_nll(tails, seq, reduction)
        assert np.array_equal(rows[1], np.searchsorted(kept, rows[0]))
        assert got.data.tobytes() == want.data.tobytes()
        want.backward()
        got.backward()
        assert tails.grad.tobytes() == full.grad[kept].tobytes()
        assert not np.delete(full.grad, kept, axis=0).any()


class TestLrSchedule:
    CFG = TrainConfig(lr_peak=3e-5, warmup_ratio=0.03)

    def test_boundaries(self):
        total = 1000
        warmup = round(0.03 * total)
        assert lr_at(0, total, self.CFG) == 0.0
        assert lr_at(warmup, total, self.CFG) == pytest.approx(3e-5, rel=1e-12)
        mid = warmup + (total - warmup) // 2
        assert lr_at(mid, total, self.CFG) == pytest.approx(1.5e-5, rel=1e-12)
        assert lr_at(total, total, self.CFG) == pytest.approx(0.0, abs=1e-20)

    def test_continuous_at_warmup_boundary(self):
        total = 400
        warmup = round(0.03 * total)
        before = lr_at(warmup - 1, total, self.CFG)
        at = lr_at(warmup, total, self.CFG)
        assert abs(at - before) < self.CFG.lr_peak / warmup + 1e-18

    def test_nonincreasing_after_warmup(self):
        total = 500
        warmup = round(0.03 * total)
        values = [lr_at(s, total, self.CFG) for s in range(warmup, total + 1)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_zero_after_total(self):
        total = 100
        assert lr_at(total + 10, total, self.CFG) == 0.0

    def test_total_steps_formula(self):
        cfg = TrainConfig(epochs=5, micro_batch=4, grad_accum=3)
        assert total_optimizer_steps(150, cfg) == 65


class TestGradAccumulation:
    def test_micro_batches_match_single_batch(self, tiny_dec_cfg, tiny_mod_cfg,
                                              vocab, tiny_params):
        examples = make_examples(12)
        cfg_a = TrainConfig(micro_batch=4, grad_accum=3, max_seq_len=96)
        cfg_b = TrainConfig(micro_batch=12, grad_accum=1, max_seq_len=96)
        loss_a, grads_a = _batch_loss_and_grads(
            frame(examples, tiny_mod_cfg, vocab), tiny_params, tiny_dec_cfg,
            tiny_mod_cfg, cfg_a)
        loss_b, grads_b = _batch_loss_and_grads(
            frame(examples, tiny_mod_cfg, vocab), tiny_params, tiny_dec_cfg,
            tiny_mod_cfg, cfg_b)
        assert loss_a == pytest.approx(loss_b, abs=1e-12)
        for name in grads_a:
            np.testing.assert_allclose(grads_a[name], grads_b[name], atol=1e-10)

    @pytest.mark.parametrize("micro", [1, 2])
    def test_small_micro_batches_match_single_batch(self, tiny_dec_cfg,
                                                    tiny_mod_cfg, vocab,
                                                    tiny_params, micro):
        # other packs than one micro-batch of 12 builds, the same mean
        records = frame(make_examples(12), tiny_mod_cfg, vocab)

        def run(micro_batch):
            return _batch_loss_and_grads(
                records, tiny_params, tiny_dec_cfg, tiny_mod_cfg,
                TrainConfig(micro_batch=micro_batch,
                            grad_accum=12 // micro_batch, max_seq_len=96))

        loss_a, grads_a = run(micro)
        loss_b, grads_b = run(12)
        assert loss_a == pytest.approx(loss_b, abs=1e-12)
        for name in grads_a:
            np.testing.assert_allclose(grads_a[name], grads_b[name], atol=1e-10)

    def test_grads_are_the_parameters_own(self, tiny_dec_cfg, tiny_mod_cfg,
                                          vocab):
        # the step's gradients live in .grad alone; a parameter the batch
        # does not reach, such as the transform of an absent kind, gets zeros
        params = init_params(tiny_dec_cfg, tiny_mod_cfg, np.random.default_rng(3))
        examples = frame(make_examples(6, kinds=("image",)), tiny_mod_cfg, vocab)
        _, grads = _batch_loss_and_grads(
            examples, params, tiny_dec_cfg, tiny_mod_cfg,
            TrainConfig(max_seq_len=96))
        assert list(grads) == params.names()
        for name in params.names():
            assert grads[name] is params[name].grad, name
        for kind in ("video", "audio"):
            for name, t in params.group(f"transform.{kind}").items():
                assert t.grad.shape == t.shape and not t.grad.any(), name
        assert params["transform.image.lin_w"].grad.any()

    @pytest.mark.parametrize("reduction", ["mean", "sum"])
    def test_packs_match_one_example_per_backward(self, tiny_dec_cfg,
                                                  tiny_mod_cfg, vocab,
                                                  tiny_params, monkeypatch,
                                                  reduction):
        examples = make_examples(12)
        cfg = TrainConfig(micro_batch=4, grad_accum=3, max_seq_len=96,
                          loss_reduction=reduction)
        lengths = record_forward_lengths(monkeypatch)
        records = frame(examples, tiny_mod_cfg, vocab)
        loss, grads = _batch_loss_and_grads(
            records, tiny_params, tiny_dec_cfg, tiny_mod_cfg, cfg)
        assert len(lengths) == 4 and max(lengths) <= 96, lengths
        # the reference: full logits, one example per forward and backward
        tiny_params.zero_grad()
        want_loss = 0.0
        for ex in examples:
            seq = build_sequence(ex, tiny_params, tiny_dec_cfg, tiny_mod_cfg,
                                 vocab, cfg)
            nll = response_nll(forward(seq, tiny_params, tiny_dec_cfg), seq,
                               reduction=reduction)
            one = ag.mul(nll, 1.0 / len(examples))
            one.backward()
            want_loss += float(one.data)
        assert loss == pytest.approx(want_loss, abs=1e-10)
        for name, g in grads.items():
            want = tiny_params[name].grad
            np.testing.assert_allclose(g, 0.0 if want is None else want,
                                       rtol=0, atol=1e-10, err_msg=name)

    @pytest.mark.parametrize("limit", [20, 39, 60, 99, 128, 200])
    def test_no_pack_exceeds_the_limit(self, tiny_mod_cfg, vocab, limit):
        # 38-41 rows each; an example longer than the limit runs alone
        examples = frame([dataclasses.replace(ex, instruction=ex.instruction * 2)
                          for ex in make_examples(9)], tiny_mod_cfg, vocab)
        for most in (1, 2, 3, 9):
            packs = list(training._packs(examples, limit, most))
            assert [ex for pack in packs for ex in pack] == examples
            totals = [sum(ex.rows for ex in pack) for pack in packs]
            for pack, total in zip(packs, totals):
                assert total <= limit or len(pack) == 1
                assert len(pack) <= most
            # greedy: each pack is closed by an example that would not fit,
            # or by the cap on its examples
            for pack, total, nxt in zip(packs, totals, packs[1:]):
                assert total + nxt[0].rows > limit or len(pack) == most

    @staticmethod
    def short_examples(n):
        """The benchmark's short workload: 33-row examples under the tiny
        modality config."""
        return [dataclasses.replace(ex, instruction="i" * 16, response="r" * 12)
                for ex in make_examples(n)]

    def test_short_micro_batch_packs_3_and_1(self, tiny_mod_cfg, vocab):
        # the benchmark's short workload: 33-row examples, a limit of 128
        examples = frame(self.short_examples(4), tiny_mod_cfg, vocab)
        assert {ex.rows for ex in examples} == {33}
        packs = training._packs(examples, 128, 4)
        assert [len(p) for p in packs] == [3, 1]

    def test_micro_batch_caps_a_pack_under_a_wide_limit(self, tiny_mod_cfg,
                                                         vocab):
        # twelve 33-row examples would fit one 512-row pack; micro_batch
        # keeps each pack no larger than one micro-batch
        examples = frame(self.short_examples(12), tiny_mod_cfg, vocab)
        packs = training._packs(examples, 512, 4)
        assert [len(p) for p in packs] == [4, 4, 4]

    @staticmethod
    def short_dec_cfg():
        return DecoderConfig(d_e=16, layers=1, heads=2, d_ff=32,
                             max_seq_len=128)

    def test_short_step_fills_packs_across_micro_batches(self, tiny_mod_cfg,
                                                         vocab, monkeypatch):
        # 16 examples at micro 4: six packs of 3, 3, 3, 3, 3 and 1, not one
        # micro-batch at a time as 3, 1, 3, 1, ... in eight
        dec_cfg = self.short_dec_cfg()
        params = init_params(dec_cfg, tiny_mod_cfg, np.random.default_rng(0))
        cfg = TrainConfig(micro_batch=4, grad_accum=4, max_seq_len=128)
        lengths = record_forward_lengths(monkeypatch)
        _batch_loss_and_grads(frame(self.short_examples(16), tiny_mod_cfg,
                                    vocab), params, dec_cfg, tiny_mod_cfg, cfg)
        assert lengths == [99] * 5 + [33], lengths

    def test_fit_runs_the_same_packs_at_micro_4_and_16(self, tiny_mod_cfg,
                                                       vocab):
        # under 128 rows a pack holds three 33-row examples either way, so a
        # step of 16 runs the same packs at micro 4 x accum 4 and at micro
        # 16 x accum 1, and the runs agree bitwise
        dec_cfg = self.short_dec_cfg()
        runs = []
        for micro, accum in ((4, 4), (16, 1)):
            cfg = TrainConfig(lr_peak=1e-3, epochs=2, micro_batch=micro,
                              grad_accum=accum, max_seq_len=128, seed=3)
            params = init_params(dec_cfg, tiny_mod_cfg,
                                 np.random.default_rng(0))
            ckpt, metrics = fit(self.short_examples(32), dec_cfg, tiny_mod_cfg,
                                vocab, cfg, params=params)
            runs.append(([(m["loss"].hex(), m["grad_norm"].hex())
                          for m in metrics],
                         [ckpt.params[n].data.tobytes()
                          for n in ckpt.params.names()]))
        assert len(runs[0][0]) == 4
        assert runs[0] == runs[1]

    @staticmethod
    def tape_bound_setup(mod_cfg):
        """A config where the tape dominates: ~220-token sequences whose
        attention probabilities (4 heads, each the blocked lower part of
        n x n, about 0.6 n²) dwarf the parameters."""
        dec_cfg = DecoderConfig(d_e=32, layers=1, heads=4, d_ff=64,
                                max_seq_len=256)
        params = init_params(dec_cfg, mod_cfg, np.random.default_rng(0))
        examples = [dataclasses.replace(ex, response=((ex.response + " ") * 40)[:200])
                    for ex in make_examples(4)]
        return dec_cfg, params, examples

    def test_peak_memory_bounded_by_one_example(self, tiny_mod_cfg, vocab):
        dec_cfg, params, examples = self.tape_bound_setup(tiny_mod_cfg)
        cfg = TrainConfig(micro_batch=4, grad_accum=1, max_seq_len=256)

        def peak(micro):
            micro = frame(micro, tiny_mod_cfg, vocab)
            tracemalloc.start()
            try:
                _batch_loss_and_grads(micro, params, dec_cfg, tiny_mod_cfg,
                                      cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, four = peak(examples[:1]), peak(examples)
        assert four < 1.5 * one, (one, four)

    def test_backward_releases_the_tape(self, tiny_mod_cfg, vocab):
        dec_cfg, params, examples = self.tape_bound_setup(tiny_mod_cfg)
        ex = examples[0]
        tracemalloc.start()
        try:
            seq = build_sequence(ex, params, dec_cfg, tiny_mod_cfg, vocab)
            loss = response_nll(forward(seq, params, dec_cfg), seq)
            tape = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            loss.backward()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # gradients are freed as the walk goes, and with the closures gone
        # the root and the sequence the caller holds keep no activations
        assert peak < 1.75 * tape, (tape, peak)
        assert held < 0.15 * tape, (tape, held)


class TestBuildSequence:
    def test_freeze_embedding_with_alignment_heads(self, tiny_dec_cfg,
                                                   tiny_mod_cfg, vocab):
        dec_cfg = dataclasses.replace(tiny_dec_cfg, alignment_heads=2)
        params = init_params(dec_cfg, tiny_mod_cfg, np.random.default_rng(3))
        seq = build_sequence(make_examples(1)[0], params, dec_cfg, tiny_mod_cfg,
                             vocab, TrainConfig(freeze_embedding=True))
        a, b = seq.span("image")
        ag.sum_all(ag.take_rows(seq.embedded, np.s_[a:b])).backward()
        grad = params.embedding.grad
        assert grad is None or not grad.any()
        assert params["align.image.wq"].grad.any()

    @pytest.mark.parametrize("heads", [1, 2])
    def test_second_item_of_a_kind_is_skipped(self, tiny_dec_cfg, tiny_mod_cfg,
                                              vocab, heads):
        dec_cfg = dataclasses.replace(tiny_dec_cfg, alignment_heads=heads)
        params = init_params(dec_cfg, tiny_mod_cfg, np.random.default_rng(4))
        one, two = (InstructionExample(id="d", media=media, instruction="what",
                                       response="a cat", source="s")
                    for media in [({"kind": "image", "path": "a"},),
                                  ({"kind": "image", "path": "a"},
                                   {"kind": "image", "path": "b"})])
        seqs = [build_sequence(ex, params, dec_cfg, tiny_mod_cfg, vocab)
                for ex in (one, two)]
        np.testing.assert_array_equal(seqs[0].ids, seqs[1].ids)
        assert seqs[0].spans == seqs[1].spans
        a, b = (forward(seq, params, dec_cfg).data for seq in seqs)
        assert a.tobytes() == b.tobytes()


def per_example_pack(pack, params, dec_cfg, mod_cfg, train_cfg):
    """The oracle for build_pack: each example built alone, with one align
    per media item, and the sequences joined by concat_rows. Returns (rows,
    spans, ids, segment lengths)."""
    freeze, heads = train_cfg.freeze_embedding, dec_cfg.alignment_heads
    rows, spans, ids, segments = [], [], [], []
    for ex in pack:
        soft = {}
        for m in ex.media:
            kind = m["kind"]
            if kind not in soft:
                feats = encode(MediaRef.from_path(kind, m["path"],
                                                  frames=m.get("frames")), mod_cfg)
                h = transform(feats, params.group(f"transform.{kind}"),
                              mod_cfg.l_prime)
                soft[kind] = align(h, params.embedding, freeze_embedding=freeze,
                                   heads=heads, proj=params.group(f"align.{kind}")
                                   if heads > 1 else None)
        instr = [BOS] + Vocab().encode(ex.instruction) + [SEP]
        resp = Vocab().encode(ex.response) + [EOS]
        parts = [(kind, soft[kind], [-1] * mod_cfg.l_prime)
                 for kind in KINDS if kind in soft]
        parts += [("instruction-text", embed_tokens(instr, params), instr),
                  ("response-text", embed_tokens(resp, params), resp)]
        start = len(ids)
        for tag, t, part in parts:
            spans.append((tag, len(ids), len(ids) + len(part)))
            rows.append(t)
            ids += part
        segments.append(len(ids) - start)
    return ag.concat_rows(rows), spans, ids, segments


def media_packs(seed):
    """Packs of 1-3 examples with 0-3 media each, kinds drawn with repeats."""
    rng = np.random.default_rng(seed)
    examples = make_examples(9)
    out = []
    for p, size in enumerate((1, 2, 3, 3)):
        pack = []
        for i in range(size):
            ex = examples[int(rng.integers(len(examples)))]
            kinds = rng.choice(KINDS, size=(p + i) % 4)
            media = tuple({"kind": str(k), "path": f"m{int(rng.integers(5))}",
                           "frames": int(rng.integers(1, 30))} for k in kinds)
            pack.append(dataclasses.replace(ex, media=media))
        out.append(pack)
    return out


class TestBuildPack:
    @staticmethod
    def built(build, pack, params, *args):
        """((rows, spans, ids, segments), parameter gradients) of one build,
        whose rows are weighted by fixed random numbers and summed."""
        params.zero_grad()
        out = build(pack, params, *args)
        if build is build_pack:
            out = out.embedded, out.spans, list(out.ids), out.segments
        weights = np.random.default_rng(9).normal(size=out[0].shape)
        ag.sum_all(ag.mul(out[0], weights)).backward()
        return ((out[0].data,) + out[1:],
                {name: params[name].grad for name in params.names()})

    @pytest.mark.parametrize("freeze", [False, True], ids=["train-E", "freeze-E"])
    @pytest.mark.parametrize("heads", [1, 2])
    def test_matches_per_example_builds(self, tiny_dec_cfg, tiny_mod_cfg,
                                        vocab, heads, freeze):
        dec_cfg = dataclasses.replace(tiny_dec_cfg, alignment_heads=heads)
        params = init_params(dec_cfg, tiny_mod_cfg, np.random.default_rng(5))
        args = (dec_cfg, tiny_mod_cfg, TrainConfig(freeze_embedding=freeze))
        packs = media_packs(heads + 2 * freeze)
        assert {len(p) for p in packs} == {1, 2, 3}
        assert {len(ex.media) for p in packs for ex in p} == {0, 1, 2, 3}
        for pack in packs:
            (rows, *layout), grads = self.built(
                build_pack, frame(pack, tiny_mod_cfg, vocab), params, *args)
            (want_rows, *want_layout), want_grads = self.built(
                per_example_pack, pack, params, *args)
            np.testing.assert_allclose(rows, want_rows, rtol=0, atol=1e-12)
            assert layout == want_layout
            assert sum(layout[2]) == rows.shape[0]
            for name, want in want_grads.items():
                if want is None:
                    assert grads[name] is None or not grads[name].any(), name
                else:
                    np.testing.assert_allclose(grads[name], want, rtol=0,
                                               atol=1e-12, err_msg=name)


def response_tails(seq):
    """The oracle for assemble_prefix's tails, as training worked them out
    from the spans: per segment, the count of its last rows from the row
    that predicts its first response token to its end (1 without one)."""
    ends = np.cumsum(seq.segments)
    starts = np.array([a for tag, a, _ in seq.spans if tag == "response-text"],
                      dtype=np.int64)
    first = ends.copy()
    np.minimum.at(first, np.searchsorted(ends, starts, side="right"), starts)
    return (ends - first + 1).tolist()


class TestFrame:
    @pytest.mark.parametrize("kinds,with_response", [
        ((), True), (("audio",), True), (("image", "video"), True),
        (KINDS, True), (("image", "image"), True), (("video", "audio"), False)],
        ids=["0-kinds", "1-kind", "2-kinds", "3-kinds", "2-of-a-kind", "prompt"])
    def test_rows_match_the_layout(self, tiny_params, tiny_dec_cfg,
                                   tiny_mod_cfg, vocab, kinds, with_response):
        media = tuple({"kind": k, "path": f"m{j}"} for j, k in enumerate(kinds))
        ex = dataclasses.replace(make_examples(1)[0], media=media)
        [record] = frame([ex], tiny_mod_cfg, vocab, with_response)
        seq = build_pack([record], tiny_params, tiny_dec_cfg, tiny_mod_cfg)
        assert record.rows == seq.length

    @staticmethod
    def count_resolutions(monkeypatch):
        """Count MediaRef.from_path, encoders.encode ("features"),
        encoders.load_features and Vocab.encode calls from here on."""
        calls = Counter()
        from_path = MediaRef.from_path.__func__

        def counting_from_path(cls, *args, **kwargs):
            calls["from_path"] += 1
            return from_path(cls, *args, **kwargs)

        def counted(key, fn):
            def counting(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return counting

        monkeypatch.setattr(MediaRef, "from_path",
                            classmethod(counting_from_path))
        monkeypatch.setattr(encoders, "encode",
                            counted("features", encoders.encode))
        monkeypatch.setattr(encoders, "load_features",
                            counted("load_features", encoders.load_features))
        monkeypatch.setattr(Vocab, "encode", counted("encode", Vocab.encode))
        return calls

    @staticmethod
    def short_fit_examples(paths):
        """The benchmark's short fit: 48 examples over the 12 media `paths`,
        whose kinds cycle through KINDS."""
        return [InstructionExample(
            id=f"s{i}", instruction="i" * 14, response="r" * 12,
            media=({"kind": KINDS[i % 3], "path": str(paths[i % 12])},),
            source="synthetic") for i in range(48)]

    def fit_and_evaluate(self, examples, dec_cfg, mod_cfg, vocab, calls):
        """The calls counted in a 4 x 4 a step, 4 epoch fit of `examples`,
        then in an evaluate of them."""
        cfg = TrainConfig(epochs=4, micro_batch=4, grad_accum=4, max_seq_len=128)
        dec_cfg = dataclasses.replace(dec_cfg, max_seq_len=128)
        ckpt, metrics = fit(examples, dec_cfg, mod_cfg, vocab, cfg)
        assert len(metrics) == 12
        in_fit = Counter(calls)
        calls.clear()
        evaluate(examples, ckpt)
        return in_fit, Counter(calls)

    def test_each_example_is_framed_once_per_call(self, tiny_dec_cfg,
                                                  tiny_mod_cfg, vocab,
                                                  tmp_path, monkeypatch):
        # each file is read and encoded and each text encoded once a call,
        # not once an epoch and use
        paths = [tmp_path / f"m{i}.bin" for i in range(12)]
        for i, p in enumerate(paths):
            p.write_bytes(bytes([i]) * 64)
        calls = self.count_resolutions(monkeypatch)
        in_fit, in_eval = self.fit_and_evaluate(
            self.short_fit_examples(paths), tiny_dec_cfg, tiny_mod_cfg, vocab,
            calls)
        assert in_fit == {"from_path": 12, "features": 12, "encode": 96}
        assert in_eval == {"from_path": 12, "features": 12, "encode": 96}

    def test_a_feature_file_is_read_once_per_call(self, tiny_dec_cfg,
                                                  tiny_mod_cfg, vocab,
                                                  tmp_path, monkeypatch):
        paths = [tmp_path / f"m{i}.mcwf" for i in range(12)]
        for i, p in enumerate(paths):
            kind = KINDS[i % 3]
            encoders.save_features(str(p), kind, np.full(
                (tiny_mod_cfg.length(kind), tiny_mod_cfg.dim(kind)), i / 12))
        calls = self.count_resolutions(monkeypatch)
        in_fit, in_eval = self.fit_and_evaluate(
            self.short_fit_examples(paths), tiny_dec_cfg, tiny_mod_cfg, vocab,
            calls)
        for counted in (in_fit, in_eval):
            assert counted == {"from_path": 12, "features": 12,
                               "load_features": 12, "encode": 96}

    def test_a_shared_feature_file_is_opened_once(self, tiny_mod_cfg, vocab,
                                                  tmp_path, monkeypatch):
        # the bytes MediaRef.from_path fingerprints are the bytes encode
        # loads: one open for a file three examples share, not two
        path = str(tmp_path / "m.mcwf")
        encoders.save_features(path, "audio", np.full(
            (tiny_mod_cfg.length("audio"), tiny_mod_cfg.dim("audio")), 0.25))
        opened, real_open = [], open

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        examples = [dataclasses.replace(ex, media=({"kind": "audio", "path": path},))
                    for ex in make_examples(3)]
        monkeypatch.setattr("builtins.open", counting_open)
        records = frame(examples, tiny_mod_cfg, vocab)
        monkeypatch.undo()
        assert opened.count(path) == 1, opened
        for r in records:
            np.testing.assert_array_equal(r.media["audio"], 0.25)

    def test_a_recurring_item_runs_the_stub_once_per_call(self, tiny_mod_cfg,
                                                          vocab, monkeypatch):
        runs = []

        def counted(media, cfg, fn=encoders.stub_encode):
            runs.append(media.kind)
            return fn(media, cfg)
        monkeypatch.setattr(encoders, "stub_encode", counted)
        media = ({"kind": "image", "path": "m"},
                 {"kind": "video", "path": "m", "frames": 40},
                 {"kind": "audio", "path": "m"})
        examples = [dataclasses.replace(ex, media=media)
                    for ex in make_examples(3)]
        first = frame(examples, tiny_mod_cfg, vocab)
        assert sorted(runs) == sorted(KINDS)
        for r in first[1:]:
            for kind in KINDS:
                assert r.media[kind] is first[0].media[kind]
        # the next call encodes again, to the same features
        again = frame(examples, tiny_mod_cfg, vocab)
        assert len(runs) == 6
        for kind in KINDS:
            np.testing.assert_array_equal(again[0].media[kind],
                                          first[0].media[kind])


class TestPackLayout:
    @pytest.mark.parametrize("with_response", [True, False],
                             ids=["response", "prompt"])
    @pytest.mark.parametrize("heads", [1, 2])
    def test_tails_match_the_spans(self, tiny_dec_cfg, tiny_mod_cfg, vocab,
                                   heads, with_response):
        dec_cfg = dataclasses.replace(tiny_dec_cfg, alignment_heads=heads)
        params = init_params(dec_cfg, tiny_mod_cfg, np.random.default_rng(5))
        for pack in media_packs(heads):
            seq = build_pack(frame(pack, tiny_mod_cfg, vocab, with_response),
                             params, dec_cfg, tiny_mod_cfg)
            assert seq.tails == response_tails(seq)
            if not with_response:
                assert seq.tails == [1] * len(pack)

    def test_forward_keeps_the_examples_of_a_pack_apart(self, tiny_dec_cfg,
                                                        tiny_mod_cfg, vocab):
        # forward reads the pack's segments itself: called with nothing
        # else, each example's rows are those of its own forward
        params = init_params(tiny_dec_cfg, tiny_mod_cfg, np.random.default_rng(6))
        packs = [p for p in media_packs(7) if len(p) > 1]
        assert {len(p) for p in packs} == {2, 3}
        for pack in packs:
            seq = build_pack(frame(pack, tiny_mod_cfg, vocab), params,
                             tiny_dec_cfg, tiny_mod_cfg)
            got = forward(seq, params, tiny_dec_cfg).data
            start = 0
            for ex in pack:
                one = build_sequence(ex, params, tiny_dec_cfg, tiny_mod_cfg,
                                     vocab)
                want = forward(one, params, tiny_dec_cfg).data
                np.testing.assert_allclose(got[start:start + one.length], want,
                                           rtol=0, atol=1e-12)
                start += one.length
            assert start == seq.length


def adam_oracle(p, m, v, g, t, lr, cfg):
    """One AdamW step by the plain formulas, as new (p, m, v): the bitwise
    oracle for the in-place adam_update."""
    m = 0.9 * m + (1 - 0.9) * g
    v = 0.999 * v + (1 - 0.999) * g * g
    mhat = m / (1 - 0.9 ** t)
    vhat = v / (1 - 0.999 ** t)
    return p - lr * (mhat / (np.sqrt(vhat) + 1e-8) + cfg.weight_decay * p), m, v


class TestAdam:
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_matches_formula_bitwise(self, weight_decay):
        rng = np.random.default_rng(31)
        shapes = {"a": (5, 7), "b": (4,), "c": (3, 2, 2)}
        want = {n: [rng.normal(size=s), np.zeros(s), np.zeros(s)]
                for n, s in shapes.items()}
        want["b"][0][:2] = [0.0, -0.0]  # zero parameters with zero gradients
        params = ModelParams({n: Tensor(w[0].copy(), requires_grad=True)
                              for n, w in want.items()})
        state, cfg = AdamState.init(params), TrainConfig(weight_decay=weight_decay)
        for t in range(1, 6):
            grads = {n: rng.normal(size=s) for n, s in shapes.items()}
            grads["b"][:2] = 0.0
            lr = 1e-3 * t
            training.adam_update(params, {n: g.copy() for n, g in grads.items()},
                                 state, lr, cfg)
            for n, g in grads.items():
                want[n] = adam_oracle(*want[n], g, t, lr, cfg)
        assert state.t == 5
        for n, (p, m, v) in want.items():
            for got, w in ((params[n].data, p), (state.m[n], m), (state.v[n], v)):
                assert np.array_equal(got, w)
                assert np.array_equal(np.signbit(got), np.signbit(w))


class TestTrainStep:
    def test_loss_decreases_on_fixed_batch(self, tiny_dec_cfg, tiny_mod_cfg, vocab):
        params = init_params(tiny_dec_cfg, tiny_mod_cfg, np.random.default_rng(0))
        batch = frame(make_examples(4), tiny_mod_cfg, vocab)
        cfg = TrainConfig(lr_peak=3e-3, micro_batch=4, grad_accum=1,
                          max_seq_len=96)
        state = AdamState.init(params)
        losses = []
        for _ in range(21):
            m = train_step(batch, params, state, cfg, tiny_dec_cfg,
                           tiny_mod_cfg, lr=cfg.lr_peak)
            losses.append(m["loss"])
        assert all(a > b for a, b in zip(losses[:20], losses[1:21]))

    def test_deterministic_metrics(self, tiny_dec_cfg, tiny_mod_cfg, vocab):
        batch = frame(make_examples(4), tiny_mod_cfg, vocab)
        cfg = TrainConfig(lr_peak=1e-3, micro_batch=2, grad_accum=2,
                          max_seq_len=96)

        def run():
            params = init_params(tiny_dec_cfg, tiny_mod_cfg,
                                 np.random.default_rng(1))
            state = AdamState.init(params)
            return [train_step(batch, params, state, cfg, tiny_dec_cfg,
                               tiny_mod_cfg, lr=1e-3)
                    for _ in range(3)]

        assert run() == run()

    def grads_given_to_adam(self, monkeypatch, dec_cfg, mod_cfg, vocab, cfg):
        """The grads one train_step hands to adam_update, from fixed params."""
        seen = []
        monkeypatch.setattr(training, "adam_update",
                            lambda params, grads, *rest: seen.append(grads))
        params = init_params(dec_cfg, mod_cfg, np.random.default_rng(2))
        m = train_step(frame(make_examples(4), mod_cfg, vocab), params,
                       AdamState.init(params), cfg, dec_cfg, mod_cfg, lr=1e-3)
        return m["grad_norm"], seen[0]

    def test_max_grad_norm(self, monkeypatch, tiny_dec_cfg, tiny_mod_cfg, vocab):
        cfg = TrainConfig(micro_batch=2, grad_accum=2, max_seq_len=96)
        args = (monkeypatch, tiny_dec_cfg, tiny_mod_cfg, vocab)
        norm, raw = self.grads_given_to_adam(*args, cfg)
        for limit in (0.5 * norm, 2.0 * norm):
            capped = dataclasses.replace(cfg, max_grad_norm=limit)
            got_norm, grads = self.grads_given_to_adam(*args, capped)
            assert got_norm == norm  # the metric reports the norm before clipping
            clipped = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
            if limit < norm:
                assert clipped == pytest.approx(limit, rel=0, abs=1e-12)
            else:
                for name in raw:
                    np.testing.assert_array_equal(grads[name], raw[name])

    def test_sum_reduction_passes_finite_diff(self, tiny_dec_cfg, tiny_mod_cfg,
                                              vocab):
        from mmtune.autograd import finite_diff_check
        examples = frame(make_examples(3), tiny_mod_cfg, vocab)
        cfg = TrainConfig(loss_reduction="sum", max_seq_len=96, micro_batch=2)
        params = init_params(tiny_dec_cfg, tiny_mod_cfg, np.random.default_rng(4))

        def fn(p):
            # the root hands the accumulated grads to the params on backward,
            # so the check compares them with differences of the summed loss
            loss, grads = _batch_loss_and_grads(
                examples, ModelParams(p), tiny_dec_cfg, tiny_mod_cfg, cfg)

            def bwd(g):
                for name, t in p.items():
                    t.grad = grads[name]

            return Tensor(loss, parents=tuple(p.values()), backward_fn=bwd)

        rep = finite_diff_check(fn, params.tensors, h=1e-5, tol=1e-4,
                                n_sample=60, rng=np.random.default_rng(5))
        assert rep.passed, rep.failures[:5]


class TestFit:
    def small_cfg(self, **kw):
        base = dict(lr_peak=1e-3, epochs=2, micro_batch=2, grad_accum=2,
                    max_seq_len=96, seed=7)
        base.update(kw)
        return TrainConfig(**base)

    def test_empty_dataset(self, tiny_dec_cfg, tiny_mod_cfg, vocab):
        with pytest.raises(EmptyDataset):
            fit([], tiny_dec_cfg, tiny_mod_cfg, vocab, self.small_cfg())

    @pytest.mark.parametrize("dec_len,train_len", [(44, 96), (96, 44)],
                             ids=["model-limit", "train-limit"])
    def test_too_long_example_fails_before_step_0(self, tiny_dec_cfg,
                                                  tiny_mod_cfg, vocab, tmp_path,
                                                  dec_len, train_len):
        dec_cfg = dataclasses.replace(tiny_dec_cfg, max_seq_len=dec_len)
        long = InstructionExample(
            id="long", source="s", instruction="describe", response="r" * 30,
            media=({"kind": "audio", "path": "a"}, {"kind": "image", "path": "b"},
                   {"kind": "audio", "path": "c"}))
        params = init_params(dec_cfg, tiny_mod_cfg, np.random.default_rng(0))
        # 2 kinds x l_prime 2, BOS + 8 + SEP, 30 + EOS
        assert build_sequence(long, params, dec_cfg, tiny_mod_cfg,
                              vocab).length == 45
        data, logged = make_examples(5) + [long], []
        with pytest.raises(SequenceTooLong, match="'long'.* 45 > .* 44"):
            fit(data, dec_cfg, tiny_mod_cfg, vocab,
                self.small_cfg(max_seq_len=train_len), out_dir=str(tmp_path),
                log_fn=logged.append)
        assert logged == [] and os.listdir(tmp_path) == []
        # one more position on each limit lets the same data through
        fit(data, dataclasses.replace(dec_cfg, max_seq_len=dec_len + 1),
            tiny_mod_cfg, vocab, self.small_cfg(max_seq_len=train_len + 1),
            max_steps=0)

    def test_zero_epochs(self, tiny_dec_cfg, tiny_mod_cfg, vocab, tmp_path):
        cfg = self.small_cfg(epochs=0)
        params = init_params(tiny_dec_cfg, tiny_mod_cfg, np.random.default_rng(3))
        before = {n: params[n].data.copy() for n in params.names()}
        ckpt, metrics = fit(make_examples(4), tiny_dec_cfg, tiny_mod_cfg, vocab,
                            cfg, params=params, out_dir=str(tmp_path))
        assert metrics == []
        for n in before:
            np.testing.assert_array_equal(ckpt.params[n].data, before[n])
        assert (tmp_path / "final.ckpt").exists()

    def test_step_count(self, tiny_dec_cfg, tiny_mod_cfg, vocab):
        cfg = self.small_cfg(epochs=2)  # macro=4, N=6 -> 2 steps/epoch
        ckpt, metrics = fit(make_examples(6), tiny_dec_cfg, tiny_mod_cfg,
                            vocab, cfg)
        assert ckpt.step == 4
        assert [m["step"] for m in metrics] == [0, 1, 2, 3]

    def test_seeded_determinism_bitwise(self, tiny_dec_cfg, tiny_mod_cfg, vocab,
                                        tmp_path):
        data = make_examples(6)
        outs = []
        for run in ("a", "b"):
            d = tmp_path / run
            d.mkdir()
            fit(data, tiny_dec_cfg, tiny_mod_cfg, vocab, self.small_cfg(),
                out_dir=str(d))
            outs.append((d / "final.ckpt").read_bytes())
        assert outs[0] == outs[1]

    def test_resume_matches_uninterrupted(self, tiny_dec_cfg, tiny_mod_cfg,
                                          vocab, tmp_path):
        data = make_examples(6)
        cfg = self.small_cfg(epochs=3)
        full_dir = tmp_path / "full"
        full_dir.mkdir()
        _, full_metrics = fit(data, tiny_dec_cfg, tiny_mod_cfg, vocab, cfg,
                              out_dir=str(full_dir))
        resumed, resumed_metrics = fit(
            data, tiny_dec_cfg, tiny_mod_cfg, vocab, cfg,
            resume_from=load_checkpoint(str(full_dir / "epoch1.ckpt")))
        steps_per_epoch = 2
        assert resumed_metrics == full_metrics[steps_per_epoch:]

    def test_resume_from_every_step(self, tiny_dec_cfg, tiny_mod_cfg, vocab,
                                    tmp_path):
        data = make_examples(5)
        cfg = self.small_cfg(epochs=3, micro_batch=1, grad_accum=2)
        total = total_optimizer_steps(len(data), cfg)
        assert total == 9  # 3 steps an epoch, the last one a single example
        full_dir = tmp_path / "full"
        full_dir.mkdir()
        _, full = fit(data, tiny_dec_cfg, tiny_mod_cfg, vocab, cfg,
                      out_dir=str(full_dir))
        want = (full_dir / "final.ckpt").read_bytes()
        for k in range(total + 1):
            stop_dir, resume_dir = tmp_path / f"stop{k}", tmp_path / f"resume{k}"
            stop_dir.mkdir()
            resume_dir.mkdir()
            fit(data, tiny_dec_cfg, tiny_mod_cfg, vocab, cfg,
                out_dir=str(stop_dir), max_steps=k)
            _, metrics = fit(data, tiny_dec_cfg, tiny_mod_cfg, vocab, cfg,
                             out_dir=str(resume_dir),
                             resume_from=load_checkpoint(
                                 str(stop_dir / "final.ckpt")))
            assert metrics == full[k:], k
            assert (resume_dir / "final.ckpt").read_bytes() == want, k

    def test_resume_rejects_other_config(self, tiny_dec_cfg, tiny_mod_cfg,
                                         vocab):
        data = make_examples(4)
        cfg = self.small_cfg(epochs=1)
        ckpt, _ = fit(data, tiny_dec_cfg, tiny_mod_cfg, vocab, cfg, max_steps=1)
        for dec, mod, train in [
                (tiny_dec_cfg, tiny_mod_cfg, self.small_cfg(epochs=1, seed=8)),
                (tiny_dec_cfg, tiny_mod_cfg, self.small_cfg(epochs=1, lr_peak=2e-3)),
                (dataclasses.replace(tiny_dec_cfg, alignment_heads=2),
                 tiny_mod_cfg, cfg),
                (tiny_dec_cfg, dataclasses.replace(tiny_mod_cfg, l_prime=3), cfg)]:
            with pytest.raises(ConfigError):
                fit(data, dec, mod, vocab, train, resume_from=ckpt)

    def test_resume_rejects_other_dataset(self, tiny_dec_cfg, tiny_mod_cfg,
                                          vocab):
        data = make_examples(8)
        cfg = self.small_cfg(micro_batch=1, grad_accum=2)
        ckpt, _ = fit(data, tiny_dec_cfg, tiny_mod_cfg, vocab, cfg, max_steps=3)
        for other in (data[:3], data[::-1]):
            with pytest.raises(ConfigError, match="dataset"):
                fit(other, tiny_dec_cfg, tiny_mod_cfg, vocab, cfg,
                    resume_from=ckpt)

    def test_a_resumed_checkpoint_object_is_the_run_state(
            self, tiny_dec_cfg, tiny_mod_cfg, vocab, tmp_path):
        # fit trains the checkpoint it resumes in place, so its step must
        # advance with its params and Adam state, or a second resume from
        # it runs again on trained params
        data = make_examples(8)
        cfg = self.small_cfg(micro_batch=1, grad_accum=2)
        total = total_optimizer_steps(len(data), cfg)
        assert total == 8
        fit(data, tiny_dec_cfg, tiny_mod_cfg, vocab, cfg, out_dir=str(tmp_path))
        ck, _ = fit(data, tiny_dec_cfg, tiny_mod_cfg, vocab, cfg, max_steps=2)
        resumed, metrics = fit(data, tiny_dec_cfg, tiny_mod_cfg, vocab, cfg,
                               resume_from=ck)
        assert resumed is ck and len(metrics) == total - 2
        assert ck.step == ck.opt_state.t == total
        _, metrics = fit(data, tiny_dec_cfg, tiny_mod_cfg, vocab, cfg,
                         resume_from=ck)
        assert metrics == [] and ck.step == ck.opt_state.t == total
        save_checkpoint(str(tmp_path / "resumed.ckpt"), ck)
        assert ((tmp_path / "resumed.ckpt").read_bytes()
                == (tmp_path / "final.ckpt").read_bytes())

    def test_a_bad_feature_file_fails_before_step_0(self, tiny_dec_cfg,
                                                    tiny_mod_cfg, vocab,
                                                    tmp_path):
        # features of 5 rows for an image item, whose configured rows are 6,
        # named by the last of 8 one-example steps' examples
        feats = tmp_path / "f.mcwf"
        encoders.save_features(str(feats), "image", np.zeros((5, 5)))
        bad = InstructionExample(id="bad", source="s", instruction="what",
                                 response="x",
                                 media=({"kind": "image", "path": str(feats)},))
        out, logged = tmp_path / "run", []
        out.mkdir()
        with pytest.raises(SchemaError, match=r"\(5, 5\)"):
            fit(make_examples(7) + [bad], tiny_dec_cfg, tiny_mod_cfg, vocab,
                self.small_cfg(epochs=1, micro_batch=1, grad_accum=1),
                out_dir=str(out), log_fn=logged.append)
        assert logged == [] and os.listdir(out) == []

    def test_max_steps_stop_writes_no_epoch_checkpoint(
            self, tiny_dec_cfg, tiny_mod_cfg, vocab, tmp_path):
        cfg = self.small_cfg(micro_batch=1, grad_accum=1)
        fit(make_examples(4), tiny_dec_cfg, tiny_mod_cfg, vocab, cfg,
            out_dir=str(tmp_path), max_steps=2)
        assert os.listdir(tmp_path) == ["final.ckpt"]

    @staticmethod
    def counted_saves(monkeypatch):
        saves = []

        def counting(path, ckpt):
            saves.append(os.path.basename(path))
            real_save(path, ckpt)

        real_save = training.save_checkpoint
        monkeypatch.setattr(training, "save_checkpoint", counting)
        return saves

    @pytest.mark.parametrize("links", [True, False], ids=["link", "no-links"])
    def test_last_epoch_checkpoint_written_once(
            self, tiny_dec_cfg, tiny_mod_cfg, vocab, tmp_path, monkeypatch,
            links):
        saves = self.counted_saves(monkeypatch)
        if not links:  # a filesystem without hard links
            def refuse(src, dst):
                raise PermissionError("hard links not supported")
            monkeypatch.setattr(os, "link", refuse)
        ckpt, _ = fit(make_examples(6), tiny_dec_cfg, tiny_mod_cfg, vocab,
                      self.small_cfg(), out_dir=str(tmp_path))
        want = ["epoch1.ckpt", "epoch2.ckpt"] + ([] if links else ["final.ckpt"])
        assert saves == want
        final = (tmp_path / "final.ckpt").read_bytes()
        assert final == (tmp_path / "epoch2.ckpt").read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["epoch1.ckpt", "epoch2.ckpt",
                                                "final.ckpt"]
        assert load_checkpoint(str(tmp_path / "final.ckpt")).step == ckpt.step == 4

    @pytest.mark.parametrize("max_steps,saves_want", [
        (2, ["epoch1.ckpt"]), (3, ["epoch1.ckpt", "final.ckpt"])],
        ids=["at-epoch-end", "mid-epoch"])
    def test_max_steps_final_checkpoint(self, tiny_dec_cfg, tiny_mod_cfg,
                                        vocab, tmp_path, monkeypatch,
                                        max_steps, saves_want):
        # 2 steps an epoch: a stop at step 2 lands on the epoch checkpoint,
        # a stop at step 3 is past it and needs its own final.ckpt
        saves = self.counted_saves(monkeypatch)
        fit(make_examples(6), tiny_dec_cfg, tiny_mod_cfg, vocab,
            self.small_cfg(), out_dir=str(tmp_path), max_steps=max_steps)
        assert saves == saves_want
        final = load_checkpoint(str(tmp_path / "final.ckpt"))
        assert final.step == max_steps
        same = ((tmp_path / "final.ckpt").read_bytes()
                == (tmp_path / "epoch1.ckpt").read_bytes())
        assert same == (max_steps == 2)

    def test_evaluate_records_no_tape(self, tiny_dec_cfg, tiny_mod_cfg, vocab,
                                      monkeypatch):
        ckpt, _ = fit(make_examples(4), tiny_dec_cfg, tiny_mod_cfg, vocab,
                      self.small_cfg(epochs=1))
        ex = make_examples(1)[0]
        seq = build_sequence(ex, ckpt.params, tiny_dec_cfg, tiny_mod_cfg, vocab)
        want = float(response_nll(forward(seq, ckpt.params, tiny_dec_cfg), seq).data)
        seen = []

        def recording(*args, **kwargs):
            seen.append(forward(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(training, "forward", recording)
        rep = evaluate([ex], ckpt)
        assert [t._parents for t in seen] == [()]
        assert rep["mean_response_nll"] == want

    def test_packed_evaluate_matches_one_at_a_time(self, tiny_dec_cfg,
                                                   tiny_mod_cfg, vocab,
                                                   monkeypatch):
        ckpt, _ = fit(make_examples(4), tiny_dec_cfg, tiny_mod_cfg, vocab,
                      self.small_cfg(epochs=1))
        examples = make_examples(10)
        nlls = []
        for ex in examples:
            seq = build_sequence(ex, ckpt.params, tiny_dec_cfg, tiny_mod_cfg,
                                 vocab)
            logits = forward(seq, ckpt.params, tiny_dec_cfg)
            nlls.append(float(response_nll(logits, seq).data))
        lengths = record_forward_lengths(monkeypatch)
        rep = evaluate(examples, ckpt)
        assert len(lengths) < len(examples)
        assert max(lengths) <= min(ckpt.train_cfg.max_seq_len,
                                   tiny_dec_cfg.max_seq_len)
        assert rep["mean_response_nll"] == pytest.approx(np.mean(nlls),
                                                          rel=0, abs=1e-12)

    def test_evaluate_matches_tape_forwards_bitwise(self, tiny_dec_cfg,
                                                    tiny_mod_cfg, vocab):
        # evaluate runs without a tape and training with one; the same packs
        # through taped forwards give evaluate's mean NLL to the last bit
        ckpt, _ = fit(make_examples(4), tiny_dec_cfg, tiny_mod_cfg, vocab,
                      self.small_cfg(epochs=1))
        examples = make_examples(10)
        nlls = list(training._pack_nlls(
            frame(examples, ckpt.mod_cfg, ckpt.vocab), ckpt.params,
            ckpt.dec_cfg, ckpt.mod_cfg, ckpt.train_cfg, "mean", len(examples)))
        assert len(nlls) > 1 and all(nll._parents for nll in nlls)
        want = sum(float(nll.data) for nll in nlls) / len(examples)
        assert evaluate(examples, ckpt)["mean_response_nll"] == want

    def test_evaluate_report(self, tiny_dec_cfg, tiny_mod_cfg, vocab):
        cfg = self.small_cfg(epochs=1)
        ckpt, _ = fit(make_examples(4), tiny_dec_cfg, tiny_mod_cfg, vocab, cfg)
        rep = evaluate(make_examples(4), ckpt)
        assert rep["perplexity"] == pytest.approx(
            math.exp(rep["mean_response_nll"]))
        with pytest.raises(EmptyDataset):
            evaluate([], ckpt)

    def test_too_long_example_fails_before_any_forward(self, tiny_dec_cfg,
                                                        tiny_mod_cfg, vocab,
                                                        monkeypatch):
        # 2 kinds x l_prime 2, BOS + 8 + SEP, 30 + EOS: 45 rows, after three
        # short examples that would each have run a pack first
        long = InstructionExample(
            id="long", source="s", instruction="describe", response="r" * 30,
            media=({"kind": "audio", "path": "a"}, {"kind": "image", "path": "b"}))
        data = make_examples(3) + [long]
        dec_cfg = dataclasses.replace(tiny_dec_cfg, max_seq_len=45)
        ckpt, _ = fit(make_examples(2), dec_cfg, tiny_mod_cfg, vocab,
                      self.small_cfg(epochs=1, max_seq_len=30))
        short = dataclasses.replace(
            ckpt, dec_cfg=dataclasses.replace(dec_cfg, max_seq_len=44))
        lengths = record_forward_lengths(monkeypatch)
        with pytest.raises(SequenceTooLong, match="'long'.* 45 > .* 44"):
            evaluate(data, short)
        assert lengths == []
        # the model's limit decides: over train.max_seq_len, a record runs
        # as a pack alone
        assert evaluate(data, ckpt)["n_examples"] == 4
        assert lengths[-1] == 45


class TestCheckpoint:
    def make_ckpt(self, tiny_dec_cfg, tiny_mod_cfg, vocab):
        params = init_params(tiny_dec_cfg, tiny_mod_cfg, np.random.default_rng(5))
        return Checkpoint(tiny_dec_cfg, TrainConfig(), tiny_mod_cfg, vocab,
                          params, AdamState.init(params), step=17)

    def test_save_load_save_byte_identical(self, tiny_dec_cfg, tiny_mod_cfg,
                                           vocab, tmp_path):
        ckpt = self.make_ckpt(tiny_dec_cfg, tiny_mod_cfg, vocab)
        p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        save_checkpoint(p1, ckpt)
        save_checkpoint(p2, load_checkpoint(p1))
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_load_holds_one_copy_of_payload(self, tmp_path):
        # the default config's checkpoint is about 4 MB; reading the whole
        # file and copying each tensor out of it peaked at twice that
        dec_cfg, mod_cfg = DecoderConfig(), ModalityConfig()
        params = init_params(dec_cfg, mod_cfg, np.random.default_rng(5))
        p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        save_checkpoint(p1, Checkpoint(dec_cfg, TrainConfig(), mod_cfg, Vocab(),
                                       params, AdamState.init(params), step=3))
        size = os.path.getsize(p1)
        tracemalloc.start()
        try:
            loaded = load_checkpoint(p1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * size, peak / size
        save_checkpoint(p2, loaded)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_roundtrip_preserves_everything(self, tiny_dec_cfg, tiny_mod_cfg,
                                            vocab, tmp_path):
        ckpt = self.make_ckpt(tiny_dec_cfg, tiny_mod_cfg, vocab)
        p = str(tmp_path / "c.ckpt")
        save_checkpoint(p, ckpt)
        loaded = load_checkpoint(p)
        assert loaded.step == 17
        assert loaded.dec_cfg == tiny_dec_cfg
        assert loaded.train_cfg == TrainConfig()
        assert loaded.vocab == vocab
        for n in ckpt.params.names():
            np.testing.assert_array_equal(loaded.params[n].data,
                                          ckpt.params[n].data)

    def test_layout(self, tiny_dec_cfg, tiny_mod_cfg, vocab, tmp_path):
        ckpt = self.make_ckpt(tiny_dec_cfg, tiny_mod_cfg, vocab)
        names = ckpt.params.names()
        for i, name in enumerate(names):
            ckpt.opt_state.m[name] = ckpt.opt_state.m[name] + i + 0.25
            ckpt.opt_state.v[name] = ckpt.opt_state.v[name] + i + 0.5
        p = tmp_path / "l.ckpt"
        save_checkpoint(str(p), ckpt)
        raw = p.read_bytes()
        assert raw[:4] == b"MCWC"
        version, n = struct.unpack_from("<II", raw, 4)
        assert version == 6
        head = json.loads(raw[12:12 + n])
        assert raw[12:12 + n] == json.dumps(
            head, sort_keys=True, separators=(",", ":")).encode("utf-8")
        assert set(head) == {"decoder", "train", "modality", "dataset", "step",
                             "adam_t", "shapes"}
        assert head["shapes"] == [[name, list(ckpt.params[name].shape)]
                                  for name in names]
        size = sum(ckpt.params[name].data.size for name in names)
        assert len(raw) - 12 - n == 3 * 8 * size
        want = np.concatenate(
            [ckpt.params[name].data.ravel() for name in names]
            + [ckpt.opt_state.m[name].ravel() for name in names]
            + [ckpt.opt_state.v[name].ravel() for name in names])
        np.testing.assert_array_equal(np.frombuffer(raw, "<f8", offset=12 + n),
                                      want)

    def test_loaded_arrays_share_no_memory(self, tiny_dec_cfg, tiny_mod_cfg,
                                           vocab, tmp_path):
        p = str(tmp_path / "s.ckpt")
        save_checkpoint(p, self.make_ckpt(tiny_dec_cfg, tiny_mod_cfg, vocab))
        loaded = load_checkpoint(p)
        names = loaded.params.names()
        arrays = ([loaded.params[name].data for name in names]
                  + [loaded.opt_state.m[name] for name in names]
                  + [loaded.opt_state.v[name] for name in names])
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("failing", ["write", "replace"])
    def test_failed_save_keeps_previous_checkpoint(
            self, tiny_dec_cfg, tiny_mod_cfg, vocab, tmp_path, monkeypatch,
            failing):
        p = str(tmp_path / "h.ckpt")
        ckpt = self.make_ckpt(tiny_dec_cfg, tiny_mod_cfg, vocab)
        save_checkpoint(p, ckpt)
        before = open(p, "rb").read()
        ckpt.step = 18
        real_open = open

        class HalfWrite:
            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, b):
                self.f.write(bytes(b)[:len(b) // 2])
                raise OSError("disk full")

        def replace(src, dst):
            raise OSError("rename failed")

        if failing == "write":
            monkeypatch.setattr(training, "open",
                                lambda *a, **k: HalfWrite(real_open(*a, **k)),
                                raising=False)
        else:
            monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError):
            save_checkpoint(p, ckpt)
        monkeypatch.undo()
        assert open(p, "rb").read() == before
        assert load_checkpoint(p).step == 17
        assert os.listdir(tmp_path) == ["h.ckpt"]

    def test_save_through_stale_link_keeps_other_checkpoint(
            self, tiny_dec_cfg, tiny_mod_cfg, vocab, tmp_path):
        # a crash between linking final.ckpt.tmp to an epoch checkpoint and
        # the rename leaves the link behind; the next save must not write
        # through it into the epoch checkpoint
        ckpt = self.make_ckpt(tiny_dec_cfg, tiny_mod_cfg, vocab)
        epoch, final = str(tmp_path / "epoch1.ckpt"), str(tmp_path / "final.ckpt")
        save_checkpoint(epoch, ckpt)
        before = open(epoch, "rb").read()
        os.link(epoch, final + ".tmp")
        ckpt.step = 18
        save_checkpoint(final, ckpt)
        assert open(epoch, "rb").read() == before
        assert load_checkpoint(final).step == 18
        assert sorted(os.listdir(tmp_path)) == ["epoch1.ckpt", "final.ckpt"]

    def test_failed_link_rename_keeps_target(self, tmp_path, monkeypatch):
        src, final = tmp_path / "epoch1.ckpt", tmp_path / "final.ckpt"
        src.write_bytes(b"epoch")
        final.write_bytes(b"older final")

        def replace(a, b):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError, match="rename failed"):
            training._link_checkpoint(str(src), str(final))
        monkeypatch.undo()
        assert sorted(os.listdir(tmp_path)) == ["epoch1.ckpt", "final.ckpt"]
        assert final.read_bytes() == b"older final"
        assert src.read_bytes() == b"epoch" and src.stat().st_nlink == 1

    def test_truncated(self, tiny_dec_cfg, tiny_mod_cfg, vocab, tmp_path):
        p = str(tmp_path / "d.ckpt")
        save_checkpoint(p, self.make_ckpt(tiny_dec_cfg, tiny_mod_cfg, vocab))
        raw = open(p, "rb").read()
        open(p, "wb").write(raw[:len(raw) // 2])
        with pytest.raises(CorruptPayload):
            load_checkpoint(p)

    def test_truncated_in_version(self, tmp_path):
        p = tmp_path / "t.ckpt"
        p.write_bytes(b"MCWC\x04\x00")
        with pytest.raises(CorruptPayload):
            load_checkpoint(str(p))

    def test_trailing_garbage(self, tiny_dec_cfg, tiny_mod_cfg, vocab, tmp_path):
        p = str(tmp_path / "e.ckpt")
        save_checkpoint(p, self.make_ckpt(tiny_dec_cfg, tiny_mod_cfg, vocab))
        with open(p, "ab") as f:
            f.write(b"xx")
        with pytest.raises(CorruptPayload):
            load_checkpoint(p)

    # the last three parse, but their configs do not give the shapes held:
    # tiny_dec_cfg has 1 layer and d_ff 32, tiny_mod_cfg l_prime 2
    @pytest.mark.parametrize("edit", [
        bogus_decoder_key, drop_dataset_key, set_header("decoder", "layers", 2),
        set_header("decoder", "d_ff", 64), set_header("modality", "l_prime", 3)],
        ids=["extra-key", "missing-dataset", "layers", "d_ff", "l_prime"])
    def test_bad_config_block(self, tiny_dec_cfg, tiny_mod_cfg, vocab, tmp_path,
                              edit):
        p = str(tmp_path / "i.ckpt")
        save_checkpoint(p, self.make_ckpt(tiny_dec_cfg, tiny_mod_cfg, vocab))
        rewrite_ckpt_config(p, edit)
        with pytest.raises(CorruptPayload):
            load_checkpoint(p)

    # the step and Adam's step count are ints >= 0 (a bool is none), and the
    # dataset hash a string
    @pytest.mark.parametrize("key,value", [
        ("step", -1), ("step", "1"), ("step", True), ("step", 1.0),
        ("step", None), ("adam_t", -5), ("adam_t", "3"), ("adam_t", False),
        ("dataset", 5), ("dataset", None)],
        ids=["step--1", "step-str", "step-bool", "step-float", "step-null",
             "adam_t--5", "adam_t-str", "adam_t-bool", "dataset-int",
             "dataset-null"])
    def test_bad_counts_or_hash(self, tiny_dec_cfg, tiny_mod_cfg, vocab,
                                tmp_path, key, value):
        p = str(tmp_path / "c.ckpt")
        save_checkpoint(p, self.make_ckpt(tiny_dec_cfg, tiny_mod_cfg, vocab))
        rewrite_ckpt_config(p, set_header_key(key, value))
        with pytest.raises(CorruptPayload, match=key):
            load_checkpoint(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "f.ckpt"
        p.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(BadMagic):
            load_checkpoint(str(p))

    def test_version_mismatch(self, tiny_dec_cfg, tiny_mod_cfg, vocab, tmp_path):
        p = str(tmp_path / "g.ckpt")
        save_checkpoint(p, self.make_ckpt(tiny_dec_cfg, tiny_mod_cfg, vocab))
        raw = bytearray(open(p, "rb").read())
        raw[4] = 99
        open(p, "wb").write(bytes(raw))
        with pytest.raises(VersionMismatch):
            load_checkpoint(p)

    def test_format_5_rejected(self, tiny_dec_cfg, tiny_mod_cfg, vocab, tmp_path):
        p = str(tmp_path / "v5.ckpt")
        save_checkpoint(p, self.make_ckpt(tiny_dec_cfg, tiny_mod_cfg, vocab))
        to_format_5(p)
        with pytest.raises(VersionMismatch, match="version 5"):
            load_checkpoint(p)

    def test_format_4_rejected(self, tiny_dec_cfg, tiny_mod_cfg, vocab, tmp_path):
        p = str(tmp_path / "v4.ckpt")
        save_checkpoint(p, self.make_ckpt(tiny_dec_cfg, tiny_mod_cfg, vocab))
        to_format_4(p)
        with pytest.raises(VersionMismatch, match="version 4"):
            load_checkpoint(p)


class TestPipelineGradients:
    @staticmethod
    def check(dec_cfg, mod_cfg, vocab):
        from mmtune.autograd import finite_diff_check
        ex = make_examples(1)[0]
        params = init_params(dec_cfg, mod_cfg, np.random.default_rng(8))
        cfg = TrainConfig(max_seq_len=96)

        def fn(p):
            mp = ModelParams(p)
            seq = build_sequence(ex, mp, dec_cfg, mod_cfg, vocab, cfg)
            return response_nll(forward(seq, mp, dec_cfg), seq)

        rep = finite_diff_check(fn, params.tensors, h=1e-5, tol=1e-4,
                                n_sample=100, rng=np.random.default_rng(9))
        assert rep.passed, rep.failures[:5]

    def test_full_pipeline_finite_diff(self, tiny_dec_cfg, tiny_mod_cfg, vocab):
        self.check(tiny_dec_cfg, tiny_mod_cfg, vocab)

    def test_alignment_heads_2_finite_diff(self, tiny_dec_cfg, tiny_mod_cfg,
                                           vocab):
        dec_cfg = dataclasses.replace(tiny_dec_cfg, alignment_heads=2)
        self.check(dec_cfg, tiny_mod_cfg, vocab)


def directional_errors(records, params, dec_cfg, mod_cfg, cfg, k, seed,
                       h=1e-5, skip=()):
    """The error of the analytic directional derivative of
    _batch_loss_and_grads' loss, ∇L·u, against the central difference
    (L(θ + hu) − L(θ − hu)) / 2h, along each of k seeded unit Rademacher
    directions u over every parameter but those named in `skip`.

    A direction sums every coordinate at once, so a tiny gradient cannot
    drown in the loss's roundoff as one coordinate can. Each error is
    relative to the larger of |∇L·u|, the difference and the RMS of ∇L·u
    over such directions, ||∇L|| / sqrt(N) on the N coordinates u covers: a
    direction nearly orthogonal to ∇L then reads no larger than a typical
    one."""
    _, grads = _batch_loss_and_grads(records, params, dec_cfg, mod_cfg, cfg)
    names = [n for n in params.names() if n not in skip]
    base = {n: params[n].data.copy() for n in names}
    size = sum(a.size for a in base.values())
    rms = math.sqrt(sum(float(np.square(grads[n]).sum()) for n in names) / size)
    rng = np.random.default_rng(seed)
    errors = []
    for _ in range(k):
        u = {n: rng.choice([-1.0, 1.0], size=a.shape) / math.sqrt(size)
             for n, a in base.items()}
        analytic = sum(float((grads[n] * u[n]).sum()) for n in names)
        losses = []
        for step in (h, -h):
            for n in names:
                np.add(base[n], step * u[n], out=params[n].data)
            losses.append(_batch_loss_and_grads(records, params, dec_cfg,
                                                mod_cfg, cfg)[0])
        for n in names:
            params[n].data[...] = base[n]
        numeric = (losses[0] - losses[1]) / (2 * h)
        errors.append(abs(analytic - numeric)
                      / max(abs(analytic), abs(numeric), rms))
    return errors


class TestDirectionalDerivative:
    """The gradient of a whole training step, checked along random
    directions: three examples of the three kinds, packed as one pack or as
    two. Over 40 parameter seeds × 8 directions on each path below, the
    worst error read 1.3e-8, so the tolerance is 1e-6; the per-coordinate
    gates use 1e-4."""

    TOL = 1e-6

    def errors(self, dec_cfg, mod_cfg, vocab, skip=(), **train):
        records = frame(make_examples(3), mod_cfg, vocab)
        params = init_params(dec_cfg, mod_cfg, np.random.default_rng(4))
        cfg = TrainConfig(max_seq_len=96, **train)
        return directional_errors(records, params, dec_cfg, mod_cfg, cfg,
                                  k=8, seed=5, skip=skip)

    @pytest.mark.parametrize("micro_batch", [2, 3])
    @pytest.mark.parametrize("reduction", ["sum", "mean"])
    def test_packs(self, tiny_dec_cfg, tiny_mod_cfg, vocab, reduction,
                   micro_batch):
        errors = self.errors(tiny_dec_cfg, tiny_mod_cfg, vocab,
                             loss_reduction=reduction, micro_batch=micro_batch)
        assert max(errors) < self.TOL, errors

    def test_alignment_heads_2(self, tiny_dec_cfg, tiny_mod_cfg, vocab):
        dec_cfg = dataclasses.replace(tiny_dec_cfg, alignment_heads=2)
        errors = self.errors(dec_cfg, tiny_mod_cfg, vocab, micro_batch=3)
        assert max(errors) < self.TOL, errors

    def test_freeze_embedding(self, tiny_dec_cfg, tiny_mod_cfg, vocab):
        # stop_gradient cuts E's path through align by design, so E's
        # gradient is not the loss's: with E in u the errors reach 3e-2
        frozen = dict(micro_batch=3, freeze_embedding=True)
        errors = self.errors(tiny_dec_cfg, tiny_mod_cfg, vocab, skip=("E",),
                             **frozen)
        assert max(errors) < self.TOL, errors
        errors = self.errors(tiny_dec_cfg, tiny_mod_cfg, vocab, **frozen)
        assert max(errors) > 1e-3, errors

    def test_detects_wrong_backward(self, tiny_dec_cfg, tiny_mod_cfg, vocab,
                                    monkeypatch):
        # GELU with a doubled backward, as test_detects_wrong_gradient uses
        gelu = ag.gelu

        def bad_gelu(a):
            out = gelu(a)
            bwd = out._backward
            out._backward = lambda g: bwd(2 * g)
            return out

        monkeypatch.setattr(ag, "gelu", bad_gelu)
        errors = self.errors(tiny_dec_cfg, tiny_mod_cfg, vocab, micro_batch=3)
        assert min(errors) > 1e-3, errors
