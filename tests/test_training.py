import dataclasses
import json
import math
import os
import struct
import tracemalloc

import numpy as np
import pytest

from mmtune import autograd as ag
from mmtune import training
from mmtune.alignment import assemble_prefix
from mmtune.autograd import Tensor
from mmtune.cognitive import (DecoderConfig, ModelParams, embed_tokens, forward,
                              init_params)
from mmtune.dataset import InstructionExample
from mmtune.errors import (BadMagic, ConfigError, CorruptPayload,
                           EmptyDataset, NoResponseSpan, SequenceTooLong,
                           VersionMismatch)
from mmtune.training import (AdamState, Checkpoint, TrainConfig,
                             _batch_loss_and_grads, build_sequence, evaluate,
                             fit, load_checkpoint, lr_at, response_nll,
                             save_checkpoint, total_optimizer_steps, train_step)
from conftest import (bogus_decoder_key, drop_dataset_key, make_examples,
                      rewrite_ckpt_config, to_format_4)


def seq_with_response(params, instr_ids=(1, 10, 11, 3), resp_ids=(20, 21, 2)):
    return assemble_prefix({}, list(instr_ids),
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
        seq = assemble_prefix({}, [1, 5],
                              lambda i: embed_tokens(i, tiny_params))
        with pytest.raises(NoResponseSpan):
            response_nll(Tensor(np.zeros((2, 260))), seq)

    def test_sum_reduction(self, tiny_params):
        seq = seq_with_response(tiny_params)
        logits = Tensor(np.zeros((seq.length, 260)))
        n_resp = seq.span("response-text")[1] - seq.span("response-text")[0]
        total = response_nll(logits, seq, reduction="sum")
        assert total.data == pytest.approx(n_resp * math.log(260), rel=1e-12)


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
        cfg = TrainConfig(micro_batch=4, grad_accum=3, max_seq_len=96)
        micros = [examples[i:i + 4] for i in range(0, 12, 4)]
        loss_a, grads_a = _batch_loss_and_grads(
            examples, tiny_params, tiny_dec_cfg, tiny_mod_cfg, vocab, cfg, micros)
        loss_b, grads_b = _batch_loss_and_grads(
            examples, tiny_params, tiny_dec_cfg, tiny_mod_cfg, vocab, cfg,
            [examples])
        assert loss_a == pytest.approx(loss_b, abs=1e-12)
        for name in grads_a:
            np.testing.assert_allclose(grads_a[name], grads_b[name], atol=1e-10)

    @pytest.mark.parametrize("reduction", ["mean", "sum"])
    def test_packs_match_one_example_per_backward(self, tiny_dec_cfg,
                                                  tiny_mod_cfg, vocab,
                                                  tiny_params, monkeypatch,
                                                  reduction):
        examples = make_examples(12)
        cfg = TrainConfig(micro_batch=4, grad_accum=3, max_seq_len=96,
                          loss_reduction=reduction)
        lengths = record_forward_lengths(monkeypatch)
        loss, grads = _batch_loss_and_grads(
            examples, tiny_params, tiny_dec_cfg, tiny_mod_cfg, vocab, cfg,
            [examples[i:i + 4] for i in range(0, 12, 4)])
        assert len(lengths) == 6 and max(lengths) <= 96, lengths
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
        examples = [dataclasses.replace(ex, instruction=ex.instruction * 2)
                    for ex in make_examples(9)]
        lengths = {ex.id: training._sequence_length(ex, tiny_mod_cfg, vocab)
                   for ex in examples}
        packs = list(training._packs(examples, limit, tiny_mod_cfg, vocab))
        assert [ex for pack in packs for ex in pack] == examples
        totals = [sum(lengths[ex.id] for ex in pack) for pack in packs]
        for pack, total in zip(packs, totals):
            assert total <= limit or len(pack) == 1
        # greedy: each pack is closed by an example that would not fit
        for total, nxt in zip(totals, packs[1:]):
            assert total + lengths[nxt[0].id] > limit

    def test_short_micro_batch_packs_3_and_1(self, tiny_mod_cfg, vocab):
        # the benchmark's short workload: 33-row examples, a limit of 128
        examples = [dataclasses.replace(ex, instruction="i" * 16,
                                        response="r" * 12)
                    for ex in make_examples(4)]
        assert {training._sequence_length(ex, tiny_mod_cfg, vocab)
                for ex in examples} == {33}
        packs = training._packs(examples, 128, tiny_mod_cfg, vocab)
        assert [len(p) for p in packs] == [3, 1]

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
            tracemalloc.start()
            try:
                _batch_loss_and_grads(micro, params, dec_cfg, tiny_mod_cfg,
                                      vocab, cfg, [micro])
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
        ag.sum_all(ag.slice_rows(seq.embedded, a, b)).backward()
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


def adam_oracle(p, m, v, g, t, lr, cfg):
    """One AdamW step by the plain formulas, as new (p, m, v): the bitwise
    oracle for the in-place adam_update."""
    b1, b2 = cfg.beta1, cfg.beta2
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * g * g
    mhat = m / (1 - b1 ** t)
    vhat = v / (1 - b2 ** t)
    return p - lr * (mhat / (np.sqrt(vhat) + cfg.eps) + cfg.weight_decay * p), m, v


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
        batch = make_examples(4)
        cfg = TrainConfig(lr_peak=3e-3, micro_batch=4, grad_accum=1,
                          max_seq_len=96)
        state = AdamState.init(params)
        losses = []
        for _ in range(21):
            m = train_step(batch, params, state, cfg, tiny_dec_cfg,
                           tiny_mod_cfg, vocab, lr=cfg.lr_peak)
            losses.append(m["loss"])
        assert all(a > b for a, b in zip(losses[:20], losses[1:21]))

    def test_deterministic_metrics(self, tiny_dec_cfg, tiny_mod_cfg, vocab):
        batch = make_examples(4)
        cfg = TrainConfig(lr_peak=1e-3, micro_batch=2, grad_accum=2,
                          max_seq_len=96)

        def run():
            params = init_params(tiny_dec_cfg, tiny_mod_cfg,
                                 np.random.default_rng(1))
            state = AdamState.init(params)
            return [train_step(batch, params, state, cfg, tiny_dec_cfg,
                               tiny_mod_cfg, vocab, lr=1e-3)
                    for _ in range(3)]

        assert run() == run()

    def grads_given_to_adam(self, monkeypatch, dec_cfg, mod_cfg, vocab, cfg):
        """The grads one train_step hands to adam_update, from fixed params."""
        seen = []
        monkeypatch.setattr(training, "adam_update",
                            lambda params, grads, *rest: seen.append(grads))
        params = init_params(dec_cfg, mod_cfg, np.random.default_rng(2))
        m = train_step(make_examples(4), params, AdamState.init(params), cfg,
                       dec_cfg, mod_cfg, vocab, lr=1e-3)
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
        examples = make_examples(3)
        cfg = TrainConfig(loss_reduction="sum", max_seq_len=96)
        params = init_params(tiny_dec_cfg, tiny_mod_cfg, np.random.default_rng(4))

        def fn(p):
            # the root hands the accumulated grads to the params on backward,
            # so the check compares them with differences of the summed loss
            loss, grads = _batch_loss_and_grads(
                examples, ModelParams(p), tiny_dec_cfg, tiny_mod_cfg, vocab, cfg,
                [examples[:2], examples[2:]])

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
            resume_from=str(full_dir / "epoch1.ckpt"))
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
                             resume_from=str(stop_dir / "final.ckpt"))
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

    def test_evaluate_report(self, tiny_dec_cfg, tiny_mod_cfg, vocab):
        cfg = self.small_cfg(epochs=1)
        ckpt, _ = fit(make_examples(4), tiny_dec_cfg, tiny_mod_cfg, vocab, cfg)
        rep = evaluate(make_examples(4), ckpt)
        assert rep["perplexity"] == pytest.approx(
            math.exp(rep["mean_response_nll"]))
        with pytest.raises(EmptyDataset):
            evaluate([], ckpt)


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
        assert version == 5
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

    @pytest.mark.parametrize("edit", [bogus_decoder_key, drop_dataset_key],
                             ids=["extra-key", "missing-dataset"])
    def test_bad_config_block(self, tiny_dec_cfg, tiny_mod_cfg, vocab, tmp_path,
                              edit):
        p = str(tmp_path / "i.ckpt")
        save_checkpoint(p, self.make_ckpt(tiny_dec_cfg, tiny_mod_cfg, vocab))
        rewrite_ckpt_config(p, edit)
        with pytest.raises(CorruptPayload):
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
