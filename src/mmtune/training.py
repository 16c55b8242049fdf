"""One-stage fine-tuning: masked NLL over the response span, AdamW with a
linear-warmup cosine schedule, gradient accumulation, and a binary
checkpoint format that restores training bitwise.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autograd as ag
from . import encoders
from .alignment import InstructionSequence, align, assemble_prefix, transform
from .autograd import Tensor
from .cognitive import DecoderConfig, ModelParams, embed_tokens, forward
from .dataset import example_to_line
from .encoders import MediaRef, ModalityConfig, check_field_types
from .errors import (BadMagic, ConfigError, CorruptPayload, EmptyDataset,
                     NoResponseSpan, VersionMismatch)
from .tokenizer import BOS, EOS, SEP, Vocab

_CKPT_MAGIC = b"MCWC"
_CKPT_VERSION = 4


@dataclass(frozen=True)
class TrainConfig:
    lr_peak: float = 3e-5
    warmup_ratio: float = 0.03
    epochs: int = 5
    micro_batch: int = 4
    grad_accum: int = 3
    max_seq_len: int = 512
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    loss_reduction: str = "mean"   # per-example mean or sum over response tokens
    freeze_embedding: bool = False
    max_grad_norm: float | None = None

    def __post_init__(self):
        check_field_types(self)
        if not 0.0 < self.warmup_ratio < 1.0:
            raise ValueError("warmup_ratio must lie in (0, 1)")
        for name in ("lr_peak", "micro_batch", "grad_accum", "max_seq_len",
                     "eps"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("beta1", "beta2"):  # bias correction divides by 1 - beta**t
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.loss_reduction not in ("mean", "sum"):
            raise ValueError("loss_reduction must be 'mean' or 'sum'")
        if self.max_grad_norm is not None and self.max_grad_norm <= 0:
            raise ValueError("max_grad_norm must be None or positive")


def frame_text_ids(vocab: Vocab, instruction: str, response: str | None):
    """Token framing: [BOS] instruction [SEP], response as y [EOS]."""
    instr = [BOS] + vocab.encode(instruction) + [SEP]
    resp = vocab.encode(response) + [EOS] if response is not None else None
    return instr, resp


def build_sequence(example, params: ModelParams, dec_cfg: DecoderConfig,
                   mod_cfg: ModalityConfig, vocab: Vocab, train_cfg=None,
                   with_response: bool = True) -> InstructionSequence:
    """Encode media, transform/align them into soft tokens, and assemble the
    full input sequence for one dataset example."""
    freeze = bool(train_cfg and train_cfg.freeze_embedding)
    aligned = {"image": None, "video": None, "audio": None}
    for m in example.media:
        ref = m if isinstance(m, MediaRef) else MediaRef.from_path(
            m["kind"], m["path"], frames=m.get("frames"))
        if aligned[ref.kind] is not None:
            continue
        feats = encoders.encode(ref, mod_cfg)
        h_prime = transform(feats, params.transform_weights(ref.kind),
                            mod_cfg.l_prime)
        proj = ({n: params[f"align.{ref.kind}.{n}"] for n in ("wq", "wk", "wv", "wo")}
                if dec_cfg.alignment_heads > 1 else None)
        aligned[ref.kind] = align(h_prime, params.embedding, ref.kind,
                                  freeze_embedding=freeze, proj=proj,
                                  heads=dec_cfg.alignment_heads)
    instr_ids, resp_ids = frame_text_ids(
        vocab, example.instruction,
        example.response if with_response else None)
    return assemble_prefix(aligned["image"], aligned["video"], aligned["audio"],
                           instr_ids, lambda ids: embed_tokens(ids, params),
                           response_ids=resp_ids)


def response_nll(logits: Tensor, seq: InstructionSequence,
                 reduction: str = "mean") -> Tensor:
    """NLL over response-span targets only; every other position is masked
    out by construction. Target at position p is predicted from logits[p-1]."""
    span = seq.span("response-text")
    if span is None:
        raise NoResponseSpan("sequence has no response span")
    a, b = span
    targets = seq.ids[a:b]
    lsm = ag.log_softmax_rows(ag.slice_rows(logits, a - 1, b - 1))
    picked = ag.pick(lsm, np.arange(b - a), targets)
    agg = ag.mean_all(picked) if reduction == "mean" else ag.sum_all(picked)
    return ag.mul(agg, -1.0)


def lr_at(step: int, total_steps: int, cfg: TrainConfig) -> float:
    """Linear warmup from 0 to lr_peak, then cosine decay to 0, which holds
    from total_steps on."""
    if step >= total_steps:
        return 0.0
    warmup = round(cfg.warmup_ratio * total_steps)
    if step < warmup:
        return cfg.lr_peak * step / warmup
    return cfg.lr_peak * 0.5 * (1.0 + math.cos(
        math.pi * (step - warmup) / (total_steps - warmup)))


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0

    @classmethod
    def init(cls, params: ModelParams) -> "AdamState":
        return cls(m={n: np.zeros_like(params[n].data) for n in params.names()},
                   v={n: np.zeros_like(params[n].data) for n in params.names()})


def adam_update(params: ModelParams, grads: dict, state: AdamState, lr: float,
                cfg: TrainConfig) -> None:
    """AdamW step, p -= lr * (mhat / (sqrt(vhat) + eps) + weight_decay * p),
    updating m, v and p in place through two temporary arrays per parameter in
    the operation order of that formula, so results match it bitwise."""
    state.t += 1
    b1, b2 = cfg.beta1, cfg.beta2
    c1, c2 = 1 - b1 ** state.t, 1 - b2 ** state.t
    for name in params.names():
        g, m, v, p = grads[name], state.m[name], state.v[name], params[name].data
        tmp = np.multiply(g, 1 - b1)
        m *= b1
        m += tmp
        np.multiply(g, 1 - b2, out=tmp)
        tmp *= g
        v *= b2
        v += tmp
        np.divide(v, c2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += cfg.eps
        step = m / c1
        step /= tmp
        # kept at weight_decay 0 as well, as in the formula: 0 * inf is NaN
        step += np.multiply(p, cfg.weight_decay, out=tmp)
        step *= lr
        p -= step


def _batch_loss_and_grads(examples, params, dec_cfg, mod_cfg, vocab, cfg,
                          micro_batches):
    """Accumulate gradients of the mean loss over `examples`, computed in
    micro-batch chunks. Returns (loss value, grads dict).

    Each example runs its own backward, so at most one example's tape is
    alive at a time whatever the micro-batch size."""
    n_total = len(examples)
    grads = {name: np.zeros_like(params[name].data) for name in params.names()}
    total_loss = 0.0
    for micro in micro_batches:
        params.zero_grad()
        for ex in micro:
            seq = build_sequence(ex, params, dec_cfg, mod_cfg, vocab, cfg)
            logits = forward(seq, params, dec_cfg)
            # normalized by the full batch size, so grads accumulated over
            # examples and micros equal the single-batch mean gradient
            loss = ag.mul(response_nll(logits, seq, reduction=cfg.loss_reduction),
                          1.0 / n_total)
            loss.backward()
            total_loss += float(loss.data)
        for name in params.names():
            g = params[name].grad
            if g is not None:
                grads[name] += g
    return total_loss, grads


def train_step(batch, params: ModelParams, opt_state: AdamState,
               cfg: TrainConfig, dec_cfg: DecoderConfig,
               mod_cfg: ModalityConfig, vocab: Vocab, lr: float) -> dict:
    """One optimizer update from one macro-batch (micro_batch*grad_accum
    examples, possibly fewer at the epoch tail)."""
    micros = [batch[i:i + cfg.micro_batch]
              for i in range(0, len(batch), cfg.micro_batch)]
    loss, grads = _batch_loss_and_grads(batch, params, dec_cfg, mod_cfg,
                                        vocab, cfg, micros)
    norm = math.sqrt(sum(float((g * g).sum()) for _, g in sorted(grads.items())))
    if cfg.max_grad_norm is not None and norm > cfg.max_grad_norm:
        scale = cfg.max_grad_norm / norm
        grads = {n: g * scale for n, g in grads.items()}
    adam_update(params, grads, opt_state, lr, cfg)
    return {"loss": loss, "grad_norm": norm, "lr": lr}


@dataclass
class Checkpoint:
    dec_cfg: DecoderConfig
    train_cfg: TrainConfig
    mod_cfg: ModalityConfig
    vocab: Vocab
    params: ModelParams
    opt_state: AdamState
    step: int
    dataset_hash: str = ""


def _dataset_hash(dataset) -> str:
    """blake2b over the examples' JSONL lines, in the order given."""
    h = hashlib.blake2b(digest_size=16)
    for ex in dataset:
        h.update(example_to_line(ex).encode("utf-8") + b"\n")
    return h.hexdigest()


def total_optimizer_steps(n_examples: int, cfg: TrainConfig) -> int:
    per_epoch = math.ceil(n_examples / (cfg.micro_batch * cfg.grad_accum))
    return cfg.epochs * per_epoch


def fit(dataset, dec_cfg: DecoderConfig, mod_cfg: ModalityConfig,
        vocab: Vocab, cfg: TrainConfig, params: ModelParams | None = None,
        out_dir=None, resume_from: "Checkpoint | str | None" = None,
        max_steps: int | None = None, log_fn=None):
    """Run the full training loop; returns (Checkpoint, metrics list).

    Per-epoch checkpoints (and the final one) are written under out_dir when
    given; when no step ran after the last epoch checkpoint, final.ckpt is a
    hard link to it rather than a second copy of the same bytes. Epoch e
    visits the examples in the order drawn from (cfg.seed, e), so a
    checkpoint's step alone says where training stands: resume_from
    restarts from a checkpoint saved at any step and reproduces the
    uninterrupted run bitwise. Configs or a dataset (its examples and their
    order) that differ from the checkpoint's raise ConfigError.
    """
    dataset = list(dataset)
    if not dataset:
        raise EmptyDataset("cannot fit on an empty dataset")
    n = len(dataset)
    macro = cfg.micro_batch * cfg.grad_accum
    per_epoch = math.ceil(n / macro)
    total = cfg.epochs * per_epoch
    data_hash = _dataset_hash(dataset)

    if resume_from is not None:
        ckpt = (load_checkpoint(resume_from) if isinstance(resume_from, str)
                else resume_from)
        if (ckpt.dec_cfg, ckpt.mod_cfg, ckpt.train_cfg) != (dec_cfg, mod_cfg, cfg):
            raise ConfigError("run config does not match the checkpoint's "
                              "decoder, modality and train configs")
        if ckpt.dataset_hash != data_hash:
            raise ConfigError("dataset does not match the one the checkpoint "
                              "was trained on")
        params, opt_state, step = ckpt.params, ckpt.opt_state, ckpt.step
    else:
        if params is None:
            from .cognitive import init_params
            params = init_params(dec_cfg, mod_cfg, np.random.default_rng(cfg.seed))
        opt_state = AdamState.init(params)
        step = 0

    metrics = []
    saved = None  # (path, step) of the last epoch checkpoint written
    for epoch in range(step // per_epoch, cfg.epochs):
        perm = np.random.default_rng([cfg.seed, epoch]).permutation(n)
        for i in range((step - epoch * per_epoch) * macro, n, macro):
            if max_steps is not None and step >= max_steps:
                break
            batch = [dataset[j] for j in perm[i:i + macro]]
            lr = lr_at(step, total, cfg)
            m = train_step(batch, params, opt_state, cfg, dec_cfg, mod_cfg,
                           vocab, lr)
            m["step"] = step
            metrics.append(m)
            if log_fn:
                log_fn(m)
            step += 1
        else:  # only an epoch that ran to its end gets a checkpoint
            if out_dir is not None:
                ckpt = Checkpoint(dec_cfg, cfg, mod_cfg, vocab, params,
                                  opt_state, step, data_hash)
                saved = (os.path.join(out_dir, f"epoch{epoch + 1}.ckpt"), step)
                save_checkpoint(saved[0], ckpt)
        if max_steps is not None and step >= max_steps:
            break
    final = Checkpoint(dec_cfg, cfg, mod_cfg, vocab, params, opt_state, step,
                       data_hash)
    if out_dir is not None:
        path = os.path.join(out_dir, "final.ckpt")
        if saved is not None and saved[1] == step:
            # no step ran since the epoch checkpoint: it holds these bytes
            try:
                _link_checkpoint(saved[0], path)
            except OSError:  # a filesystem without hard links
                save_checkpoint(path, final)
        else:
            save_checkpoint(path, final)
    return final, metrics


def evaluate(dataset, ckpt: Checkpoint) -> dict:
    """Mean response NLL and perplexity over a dataset."""
    dataset = list(dataset)
    if not dataset:
        raise EmptyDataset("cannot evaluate an empty dataset")
    nlls = []
    with ag.no_grad():
        for ex in dataset:
            seq = build_sequence(ex, ckpt.params, ckpt.dec_cfg, ckpt.mod_cfg,
                                 ckpt.vocab)
            logits = forward(seq, ckpt.params, ckpt.dec_cfg)
            nlls.append(float(response_nll(logits, seq).data))
    mean_nll = float(np.mean(nlls))
    return {"mean_response_nll": mean_nll, "perplexity": math.exp(mean_nll),
            "n_examples": len(dataset)}


# ---------------------------------------------------------------------------
# checkpoint serialization
# ---------------------------------------------------------------------------

def save_checkpoint(path: str, ckpt: Checkpoint) -> None:
    """Write magic, version and header length, then a JSON header and the
    <f8 payload: every parameter, then every Adam m, then every Adam v, each
    in the sorted-name order of the header's shapes."""
    names = ckpt.params.names()
    params = [ckpt.params[name].data for name in names]
    header = json.dumps(
        {"decoder": asdict(ckpt.dec_cfg), "train": asdict(ckpt.train_cfg),
         "modality": asdict(ckpt.mod_cfg), "dataset": ckpt.dataset_hash,
         "vocab": ckpt.vocab.to_dict(), "step": ckpt.step,
         "adam_t": ckpt.opt_state.t,
         "shapes": [[name, list(a.shape)] for name, a in zip(names, params)]},
        sort_keys=True, separators=(",", ":")).encode("utf-8")
    tensors = (params + [ckpt.opt_state.m[name] for name in names]
               + [ckpt.opt_state.v[name] for name in names])
    # stream into a file beside the target and rename it over the target, so
    # a crash mid-write leaves the previous file at `path` intact
    tmp = _fresh_tmp(path)
    try:
        with open(tmp, "wb") as f:
            f.write(_CKPT_MAGIC + struct.pack("<II", _CKPT_VERSION, len(header)))
            f.write(header)
            for a in tensors:
                f.write(np.ascontiguousarray(a, dtype="<f8"))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _fresh_tmp(path: str) -> str:
    """The temporary name beside `path`, with any file a crash left there
    removed: it may be a hard link to another checkpoint, and writing
    through it would change that checkpoint."""
    tmp = path + ".tmp"
    if os.path.lexists(tmp):
        os.remove(tmp)
    return tmp


def _link_checkpoint(src: str, path: str) -> None:
    """Give `path` the bytes of the checkpoint file `src` without writing
    them again: a hard link under a temporary name, renamed over `path`."""
    tmp = _fresh_tmp(path)
    os.link(src, tmp)
    try:
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != _CKPT_MAGIC:
        raise BadMagic(f"{path}: bad checkpoint magic {raw[:4]!r}")
    if len(raw) < 8:
        raise CorruptPayload(f"{path}: checkpoint truncated")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != _CKPT_VERSION:
        raise VersionMismatch(f"{path}: checkpoint version {version}")
    try:
        (n,) = struct.unpack_from("<I", raw, 8)
        head = json.loads(raw[12:12 + n])
        names = [name for name, _ in head["shapes"]]
        shapes = [shape for _, shape in head["shapes"]] * 3
        sizes = [math.prod(shape) for shape in shapes]
        if len(raw) - 12 - n != 8 * sum(sizes):
            raise ValueError(f"{len(raw) - 12 - n} payload bytes, "
                             f"expected {8 * sum(sizes)}")
        parts = np.split(np.frombuffer(raw, dtype="<f8", offset=12 + n),
                         np.cumsum(sizes)[:-1])
        # a copy each: views of the file's bytes are read-only, and
        # adam_update writes parameters, m and v in place
        arrays = [part.reshape(shape).copy() for part, shape in zip(parts, shapes)]
        k = len(names)
        params = {name: Tensor(a, requires_grad=True)
                  for name, a in zip(names, arrays[:k])}
        state = AdamState(m=dict(zip(names, arrays[k:2 * k])),
                          v=dict(zip(names, arrays[2 * k:])), t=head["adam_t"])
        return Checkpoint(dec_cfg=DecoderConfig(**head["decoder"]),
                          train_cfg=TrainConfig(**head["train"]),
                          mod_cfg=ModalityConfig(**head["modality"]),
                          vocab=Vocab.from_dict(head["vocab"]),
                          params=ModelParams(params), opt_state=state,
                          step=head["step"], dataset_hash=head["dataset"])
    except Exception as e:
        raise CorruptPayload(f"{path}: {e!r}") from e
