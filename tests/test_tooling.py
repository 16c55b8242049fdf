import dataclasses
import importlib.util
import os
import sys
from collections import Counter

import numpy as np

from mmtune import autograd, cognitive
from mmtune.cognitive import DecoderConfig, generate_greedy, init_params
from mmtune.dataset import InstructionExample
from mmtune.encoders import MediaRef, ModalityConfig
from mmtune.tokenizer import Vocab
from mmtune.training import (TrainConfig, _batch_loss_and_grads, build_pack,
                             build_sequence, frame, response_nll)
from conftest import make_examples

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def load_tracer(monkeypatch):
    """The benchmark's tracer module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer_mod)
    spec.loader.exec_module(tracer_mod)
    return tracer_mod


def test_benchmark_tracer_wraps_existing_names(monkeypatch):
    # Tracer() looks up every function the traced benchmark run wraps, so a
    # rename or deletion in src/ fails here instead of inside the benchmark;
    # one build_sequence call then shows each stage is wrapped where it is
    # called from, so its per-layer metrics do not silently read 0
    tracer_mod = load_tracer(monkeypatch)
    dec_cfg, mod_cfg = DecoderConfig(d_e=16, heads=2, d_ff=32), ModalityConfig()
    params = init_params(dec_cfg, mod_cfg, np.random.default_rng(0))
    ex = InstructionExample(id="t", media=({"kind": "video", "path": "v",
                                            "frames": 9},),
                            instruction="what", response="a bell", source="s")
    matmul = autograd.matmul
    tracer = tracer_mod.Tracer()
    tracer.start()
    try:
        assert autograd.matmul is not matmul
        build_sequence(ex, params, dec_cfg, mod_cfg, Vocab())
    finally:
        record = tracer.stop()
    assert autograd.matmul is matmul
    for name in ("encoders.encode", "alignment.transform", "alignment.align",
                 "alignment.assemble_prefix"):
        assert record.calls[name] == 1, (name, record.calls[name])
    # one encode each for the instruction and the response
    assert record.calls["tokenizer.Vocab.encode"] == 2
    # encoders.encode.unique_ratio counts these, read off encode's arguments
    fingerprint = MediaRef.from_path("video", "v").fingerprint
    assert record.media == {("video", fingerprint, 9)}


def test_benchmark_tracer_sees_each_pack_of_a_step(monkeypatch):
    # two packs of three, each a micro-batch: a training step calls the
    # layout, the model and the loss once a pack, each under the name the
    # tracer wraps, so the benchmark's per-layer view of training does not
    # silently read 0
    tracer = load_tracer(monkeypatch).Tracer()
    pack, params, dec_cfg, mod_cfg = short_pack()
    examples = frame(pack + [dataclasses.replace(ex, id=ex.id + "b")
                             for ex in pack], mod_cfg, Vocab())
    tracer.start()
    try:
        _batch_loss_and_grads(examples, params, dec_cfg, mod_cfg,
                              TrainConfig(micro_batch=3))
    finally:
        record = tracer.stop()
    for name in ("alignment.assemble_prefix", "cognitive.forward",
                 "training.response_nll"):
        assert record.calls[name] == 2, (name, record.calls[name])


def test_no_add_in_the_model_broadcasts(monkeypatch, tiny_mod_cfg):
    # the backward sums no gradient down to an operand's shape, so every add
    # in a training step and a decode joins operands of one shape: a bias
    # belongs inside matmul
    shapes = []
    add = autograd.add

    def recording_add(a, b):
        shapes.append((np.shape(getattr(a, "data", a)),
                       np.shape(getattr(b, "data", b))))
        return add(a, b)

    monkeypatch.setattr(autograd, "add", recording_add)
    dec_cfg = DecoderConfig(d_e=16, layers=2, heads=2, d_ff=32, max_seq_len=96,
                            alignment_heads=2)
    params = init_params(dec_cfg, tiny_mod_cfg, np.random.default_rng(0))
    examples = make_examples(6)
    records = frame(examples, tiny_mod_cfg, Vocab())
    _batch_loss_and_grads(records, params, dec_cfg, tiny_mod_cfg,
                          TrainConfig(max_seq_len=96))
    seq = build_sequence(examples[0], params, dec_cfg, tiny_mod_cfg, Vocab(),
                         with_response=False)
    generate_greedy(seq, 2, params, dec_cfg, eos_id=-1)
    assert shapes
    assert all(a == b for a, b in shapes), sorted(set(shapes))


def tape_nodes(t):
    """The distinct tensors with recorded parents that `t` was made from,
    itself included: the nodes a backward from it would walk."""
    seen, stack = {}, [t]
    while stack:
        node = stack.pop()
        if node._parents and id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return len(seen)


def short_pack():
    """The benchmark's short workload: packs of three one-media examples,
    kinds cycling image/video/audio, 12-byte responses."""
    dec_cfg, mod_cfg = DecoderConfig(max_seq_len=128), ModalityConfig()
    params = init_params(dec_cfg, mod_cfg, np.random.default_rng(0))
    pack = [InstructionExample(id=f"s{i}", media=({"kind": kind, "path": f"m{i}"},),
                               instruction="i" * 14, response="r" * 12,
                               source="synthetic")
            for i, kind in enumerate(("image", "video", "audio"))]
    return pack, params, dec_cfg, mod_cfg


def test_a_short_pack_builds_in_eleven_nodes():
    # per item a conv1d and a matmul; then one concat of the queries, one
    # align, one text lookup, and the concat and the gather that lay the
    # rows out
    pack, params, dec_cfg, mod_cfg = short_pack()
    seq = build_pack(frame(pack, mod_cfg, Vocab()), params, dec_cfg, mod_cfg,
                     TrainConfig())
    assert seq.segments == [33, 33, 33]
    assert tape_nodes(seq.embedded) <= 11


def test_a_prompt_builds_no_tape():
    # a prompt has no loss, so nothing will differentiate it; the same
    # example with its response is still recorded
    pack, params, dec_cfg, mod_cfg = short_pack()
    prompt = build_sequence(pack[0], params, dec_cfg, mod_cfg, Vocab(),
                            with_response=False)
    assert prompt.embedded._parents == ()
    assert prompt.embedded._backward is None
    full = build_sequence(pack[0], params, dec_cfg, mod_cfg, Vocab())
    assert tape_nodes(full.embedded) > 1


def test_residual_adds_join_their_projections_on_the_tape(monkeypatch):
    # the oracle splits each skip connection back out of its matmul into an
    # add node, as the decoder once recorded it: two nodes more a layer
    pack, params, dec_cfg, mod_cfg = short_pack()
    records = frame(pack, mod_cfg, Vocab())

    def loss_nodes():
        seq = build_pack(records, params, dec_cfg, mod_cfg, TrainConfig())
        logits = cognitive.forward(seq, params, dec_cfg, tails=seq.tails)
        return tape_nodes(response_nll(logits, seq))

    joined = loss_nodes()
    matmul = autograd.matmul

    def split_residual(a, b, bias=None, residual=None):
        out = matmul(a, b, bias)
        return out if residual is None else autograd.add(residual, out)

    monkeypatch.setattr(autograd, "matmul", split_residual)
    assert joined == loss_nodes() - 2 * dec_cfg.layers


def gelu_rows(monkeypatch):
    """Record the rows of each gelu input from here on."""
    rows = []
    gelu = autograd.gelu

    def recording_gelu(a):
        rows.append(a.shape[0])
        return gelu(a)

    monkeypatch.setattr(autograd, "gelu", recording_gelu)
    return rows


def test_last_layer_runs_only_the_rows_a_loss_reads(monkeypatch):
    # of each 33-row example, the 13 rows that predict its response and its
    # final row; the layer before runs on all 99
    pack, params, dec_cfg, mod_cfg = short_pack()
    pack = frame(pack, mod_cfg, Vocab())
    rows = gelu_rows(monkeypatch)
    _batch_loss_and_grads(pack, params, dec_cfg, mod_cfg, TrainConfig())
    assert rows[0] == 99
    assert rows[-1] <= 42, rows


def test_prefill_last_layer_runs_one_row(monkeypatch):
    pack, params, dec_cfg, mod_cfg = short_pack()
    seq = build_sequence(pack[0], params, dec_cfg, mod_cfg, Vocab(),
                         with_response=False)
    rows = gelu_rows(monkeypatch)
    generate_greedy(seq, 1, params, dec_cfg, eos_id=-1)
    assert rows == [seq.length, 1]


def test_decode_step_makes_the_same_op_calls(monkeypatch):
    # a one-row step after the prefill asks for its only row, so it takes no
    # row selection: its op calls are those of a plain two-layer forward
    dec_cfg, mod_cfg = DecoderConfig(), ModalityConfig()
    params = init_params(dec_cfg, mod_cfg, np.random.default_rng(0))
    ex = make_examples(1)[0]
    seq = build_sequence(ex, params, dec_cfg, mod_cfg, Vocab(),
                         with_response=False)
    calls, after_each_forward = Counter(), []
    for name, fn in vars(autograd).items():
        if (callable(fn) and not isinstance(fn, type) and name[0] != "_"
                and fn.__module__ == autograd.__name__ and name != "no_grad"):
            def counting(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(autograd, name, counting)
    forward = cognitive.forward

    def recording_forward(*args, **kwargs):
        out = forward(*args, **kwargs)
        after_each_forward.append(Counter(calls))
        return out

    monkeypatch.setattr(cognitive, "forward", recording_forward)
    generate_greedy(seq, 2, params, dec_cfg, eos_id=-1)
    step = after_each_forward[1] - after_each_forward[0]
    # each residual add joins its projection's matmul, and the position and
    # the fed token's rows are plain row slices of their tables
    assert step == Counter(matmul=13, layernorm_rows=5, add=1, attention=2,
                           gelu=2, take_rows=2, transpose=1), step
