"""End-to-end acceptance checks, one per release criterion.

Each test prints a single [PASS]/[FAIL] line so the suite's verdict can be
read off a plain `pytest -s tests/test_acceptance.py` run.
"""

import functools
import json
import math
import os
import time

import numpy as np
import pytest

from mmtune import dataset as ds
from mmtune.alignment import align, init_transform, transform
from mmtune.autograd import Tensor, finite_diff_check
from mmtune.cli import dispatch
from mmtune.cognitive import (DecoderConfig, embed_tokens, forward,
                              generate_greedy, init_params)
from mmtune.config import load_config
from mmtune.dataset import InstructionExample
from mmtune.encoders import ModalityConfig
from mmtune.tokenizer import Vocab
from mmtune.training import (TrainConfig, _batch_loss_and_grads, build_sequence,
                             evaluate, fit, frame, lr_at, response_nll)
from conftest import assemble_one, make_examples

DATA = os.path.join(os.path.dirname(__file__), "data")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def criterion(num, name):
    """Print one pass/fail line per acceptance criterion."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] {num}. {name}")
                raise
            print(f"[PASS] {num}. {name}")
        return wrapper
    return deco


class TestAcceptance:
    @criterion(1, "analytic gradients match finite differences end to end")
    def test_gradient_fidelity(self, vocab):
        start = time.monotonic()
        dec_cfg = DecoderConfig(d_e=16, layers=2, heads=2, d_ff=32,
                                max_seq_len=96)
        mod_cfg = ModalityConfig(l_prime=4, image_len=16, image_dim=6,
                                 video_frames=8, video_dim=6, audio_len=12,
                                 audio_dim=6)
        ex = InstructionExample(
            id="acc1", media=({"kind": "image", "path": "a"},
                              {"kind": "video", "path": "b"},
                              {"kind": "audio", "path": "c"}),
            instruction="what", response="dog", source="synthetic")
        params = init_params(dec_cfg, mod_cfg, np.random.default_rng(11))

        # finite_diff_check perturbs the shared Tensor objects in place, so
        # the loss can always be built from the full parameter set even when
        # only a subset of tensors is being checked
        def fn(_p):
            seq = build_sequence(ex, params, dec_cfg, mod_cfg, vocab)
            return response_nll(forward(seq, params, dec_cfg), seq)

        rep = finite_diff_check(fn, params.tensors, h=1e-5, tol=1e-4,
                                n_sample=200, rng=np.random.default_rng(12))
        assert rep.n_checked == 200
        assert len(rep.failures) <= 2, rep.failures[:5]  # >= 99% of 200

        # embedding matrix and conv kernels specifically
        subset = {n: params[n] for n in params.names()
                  if n == "E" or n.endswith("conv_w")}
        rep2 = finite_diff_check(fn, subset, h=1e-5, tol=1e-4, n_sample=24,
                                 rng=np.random.default_rng(13))
        assert len(rep2.failures) <= 1, rep2.failures[:5]
        assert time.monotonic() - start < 60.0

    @criterion(2, "aligned tokens are convex combinations of embedding rows")
    def test_alignment_convexity(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            h = rng.normal(size=(3, 5))
            e = rng.normal(size=(11, 5))
            out = align(Tensor(h), Tensor(e)).data
            s = h @ e.T / math.sqrt(5)
            w = np.exp(s - s.max(axis=1, keepdims=True))
            w /= w.sum(axis=1, keepdims=True)
            assert (w >= -1e-9).all()
            assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-6
            np.testing.assert_allclose(out, w @ e, atol=1e-10)

    @criterion(3, "transform emits L' rows and prefix length is m*L' + T")
    def test_shape_laws(self):
        rng = np.random.default_rng(31)
        l_prime = 4
        for length in (4, 5, 7, 16, 30, 64, 257):
            w = init_transform(length, 6, 8, l_prime, rng)
            feats = rng.normal(size=(length, 6))
            assert transform(feats, w, l_prime).shape == (l_prime, 8)

        e = Tensor(rng.normal(size=(40, 8)))
        instr_ids = [1, 10, 11, 12, 3]
        tokens = {k: align(Tensor(rng.normal(size=(l_prime, 8))), e)
                  for k in ("image", "video", "audio")}
        for bits in range(1, 8):
            present = {k: tokens[k] for i, k in enumerate(("image", "video", "audio"))
                       if (bits >> i) & 1}
            m = len(present)
            seq = assemble_one(present, instr_ids,
                               lambda ids: Tensor(e.data[ids]))
            assert seq.length == m * l_prime + len(instr_ids)

    @criterion(4, "16-example overfit: NLL < 0.1 and >= 14/16 exact responses")
    def test_learnability(self, vocab):
        start = time.monotonic()
        examples = make_examples(16)
        dec_cfg = DecoderConfig(max_seq_len=128)
        mod_cfg = ModalityConfig()
        cfg = TrainConfig(lr_peak=3e-3, epochs=300, micro_batch=4,
                          grad_accum=4, max_seq_len=128, seed=3)
        ckpt, _metrics = fit(examples, dec_cfg, mod_cfg, vocab, cfg,
                             max_steps=300)
        assert ckpt.step <= 300
        report = evaluate(examples, ckpt)
        assert report["mean_response_nll"] < 0.1, report

        exact = 0
        for ex in examples:
            seq = build_sequence(ex, ckpt.params, dec_cfg, mod_cfg, vocab,
                                 with_response=False)
            ids = generate_greedy(seq, len(vocab.encode(ex.response)) + 6,
                                  ckpt.params, dec_cfg)
            exact += vocab.decode(ids) == ex.response
        assert exact >= 14, f"only {exact}/16 responses reproduced exactly"
        assert time.monotonic() - start < 300.0

    @criterion(5, "learning-rate schedule boundary values")
    def test_schedule_fidelity(self):
        cfg = TrainConfig(lr_peak=3e-5, warmup_ratio=0.03)
        total = 1000
        warmup = round(cfg.warmup_ratio * total)
        assert lr_at(0, total, cfg) == 0.0
        assert lr_at(warmup, total, cfg) == pytest.approx(3e-5, rel=1e-12)
        mid = warmup + (total - warmup) // 2
        assert lr_at(mid, total, cfg) == pytest.approx(1.5e-5, rel=1e-12)
        assert lr_at(total, total, cfg) == pytest.approx(0.0, abs=1e-20)

    @criterion(6, "shipped default config and accumulation equivalence")
    def test_config_fidelity(self, tiny_dec_cfg, tiny_mod_cfg, vocab,
                             tiny_params):
        cfg = load_config(os.path.join(ROOT, "configs", "default.json"))
        train = cfg["objects"]["train"]
        assert train.lr_peak == 3e-5
        assert train.warmup_ratio == 0.03
        assert train.epochs == 5
        assert train.micro_batch == 4
        assert train.grad_accum == 3
        assert train.max_seq_len == 512

        examples = make_examples(12)
        tcfg_a = TrainConfig(micro_batch=4, grad_accum=3, max_seq_len=96)
        tcfg_b = TrainConfig(micro_batch=12, grad_accum=1, max_seq_len=96)
        loss_a, grads_a = _batch_loss_and_grads(
            frame(examples, tiny_mod_cfg, vocab), tiny_params, tiny_dec_cfg,
            tiny_mod_cfg, tcfg_a)
        loss_b, grads_b = _batch_loss_and_grads(
            frame(examples, tiny_mod_cfg, vocab), tiny_params, tiny_dec_cfg,
            tiny_mod_cfg, tcfg_b)
        assert loss_a == pytest.approx(loss_b, abs=1e-10)
        for name in grads_a:
            np.testing.assert_allclose(grads_a[name], grads_b[name],
                                       atol=1e-10)

    @criterion(7, "dataset pipeline reproduces the golden build")
    def test_dataset_pipeline(self, tmp_path):
        captions = ds.read_captions(os.path.join(DATA, "captions.jsonl"))
        assert len(captions) == 5
        client = ds.MockGenerationClient(os.path.join(DATA, "fixtures"))
        examples, report = ds.generate_examples(captions, client)
        assert len(examples) == 50 and not report.skipped
        built = tmp_path / "built.jsonl"
        ds.write_examples(str(built), examples)
        golden = open(os.path.join(DATA, "golden_build.jsonl"), "rb").read()
        assert built.read_bytes() == golden

        dialogue = ("Q: Can you describe the color of the river in the image?\n"
                    "A: The river in the image appears to be a tranquil shade"
                    " of blue.\n\nQ: What type of boat is the man in the image"
                    " paddling?\nA: The man in the image is paddling a kayak.\n")
        assert ds.parse_qa_pairs(dialogue)[0] == (
            "Can you describe the color of the river in the image?",
            "The river in the image appears to be a tranquil shade of blue.")

        hand = [InstructionExample(id=f"h{i}", media=(),
                                   instruction="count the red apples",
                                   response="there are three red apples here",
                                   source="hand")
                for i in range(4)]
        table = ds.stats(hand)
        assert table == {"hand": {"items": 4, "ins_len": 4.0, "res_len": 6.0}}

        # published corpus sizes are not reproducible offline: format only
        rendered = ds.format_stats_table(
            {"COCO": {"items": 69314, "ins_len": 10.1, "res_len": 15.7},
             "Charades/AVSD": {"items": 50656, "ins_len": 10.2,
                               "res_len": 14.9}})
        assert "69,314" in rendered and "50,656" in rendered

    @criterion(8, "seeded end-to-end runs are bitwise identical")
    def test_determinism(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"model": {"d_e": 16, "layers": 1, "heads": 2, "d_ff": 32,
                       "max_seq_len": 128},
             "modality": {"l_prime": 2, "image_len": 6, "image_dim": 5,
                          "video_frames": 4, "video_dim": 5, "audio_len": 6,
                          "audio_dim": 5},
             "train": {"epochs": 1, "micro_batch": 2, "grad_accum": 2,
                       "lr_peak": 1e-3, "max_seq_len": 128}}))

        def run(tag):
            out = tmp_path / tag
            built = out / "built.jsonl"
            out.mkdir()
            assert dispatch(["dataset-build", "--data",
                             os.path.join(DATA, "captions.jsonl"),
                             "--out", str(built),
                             "--fixtures", os.path.join(DATA, "fixtures")]) == 0
            assert dispatch(["train", "--config", str(cfg_path),
                             "--data", str(built), "--out", str(out / "run"),
                             "--seed", "7", "--max-steps", "3"]) == 0
            capsys.readouterr()
            assert dispatch(["eval", "--checkpoint",
                             str(out / "run" / "final.ckpt"),
                             "--data", str(built)]) == 0
            return {"built": built.read_bytes(),
                    "ckpt": (out / "run" / "final.ckpt").read_bytes(),
                    "metrics": (out / "run" / "metrics.jsonl").read_bytes(),
                    "eval": capsys.readouterr().out}

        a, b = run("a"), run("b")
        assert a == b

    @criterion(9, "decoder causality and response-only loss masking")
    def test_causality_and_masking(self, tiny_params, tiny_dec_cfg):
        rng = np.random.default_rng(91)
        for _ in range(20):
            n = int(rng.integers(3, 20))
            ids = list(rng.integers(4, 260, size=n))
            j = int(rng.integers(1, n))
            seq = assemble_one({}, ids,
                               lambda i: embed_tokens(i, tiny_params))
            base = forward(seq, tiny_params, tiny_dec_cfg).data
            zeroed = seq.embedded.data.copy()
            zeroed[j] = 0.0
            pert = forward(
                type(seq)(embedded=Tensor(zeroed), spans=seq.spans,
                          ids=seq.ids),
                tiny_params, tiny_dec_cfg).data
            np.testing.assert_array_equal(base[:j], pert[:j])

        seq = assemble_one({}, [1, 10, 11, 3],
                           lambda i: embed_tokens(i, tiny_params),
                           response_ids=[20, 21, 2])
        logits = Tensor(rng.normal(size=(seq.length, 260)))
        base = float(response_nll(logits, seq).data)
        ins_a, ins_b = seq.span("instruction-text")
        for _ in range(20):
            fuzzed = seq.ids.copy()
            fuzzed[ins_a:ins_b] = rng.integers(0, 260, size=ins_b - ins_a)
            seq.ids = fuzzed
            assert float(response_nll(logits, seq).data) == base
