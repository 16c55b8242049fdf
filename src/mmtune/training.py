"""One-stage fine-tuning: masked NLL over the response span, AdamW with a
linear-warmup cosine schedule, gradient accumulation, and a binary
checkpoint format that restores training bitwise.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field
from itertools import accumulate

import numpy as np

from . import autograd as ag
from . import encoders
from .alignment import InstructionSequence, align, assemble_prefix, transform
from .autograd import Tensor
from .cognitive import (DecoderConfig, ModelParams, embed_tokens, forward,
                        init_params)
from .dataset import example_lines
from .encoders import KINDS, MediaRef, ModalityConfig, check_field_types
from .errors import (BadMagic, ConfigError, CorruptPayload, EmptyDataset,
                     NoResponseSpan, SequenceTooLong, VersionMismatch)
from .tokenizer import BOS, EOS, SEP, Vocab

_CKPT_MAGIC = b"MCWC"
_CKPT_VERSION = 5


@dataclass(frozen=True)
class TrainConfig:
    """A step takes micro_batch * grad_accum examples, which fill packs in
    order of at most micro_batch examples, one forward and backward each."""

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
        for name in ("weight_decay", "epochs", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.loss_reduction not in ("mean", "sum"):
            raise ValueError("loss_reduction must be 'mean' or 'sum'")
        if self.max_grad_norm is not None and self.max_grad_norm <= 0:
            raise ValueError("max_grad_norm must be None or positive")


@dataclass(frozen=True)
class Framed:
    """One example as the model reads it: the L×d_h features of the first
    media item of each kind (kind -> array), [BOS] instruction [SEP],
    response [EOS] or None in a prompt, and its rows: l_prime soft tokens per
    kind, then that text."""

    media: dict
    instr: list
    resp: list | None
    rows: int


def frame(examples, mod_cfg: ModalityConfig, vocab: Vocab,
          with_response: bool = True) -> list:
    """The Framed record of each example, in order. Each (kind, path, frames)
    is fingerprinted and encoded once per call however many examples share
    it, and again by the next call; a `.mcwf` file is opened twice for it,
    by MediaRef.from_path to fingerprint it and by encode to load it."""
    @functools.cache
    def features(kind, path, frames):
        return encoders.encode(MediaRef.from_path(kind, path, frames), mod_cfg)

    out = []
    for ex in examples:
        first = {m["kind"]: m for m in reversed(ex.media)}
        media = {kind: features(kind, m["path"], m.get("frames"))
                 for kind, m in first.items()}
        instr = [BOS] + vocab.encode(ex.instruction) + [SEP]
        resp = vocab.encode(ex.response) + [EOS] if with_response else None
        out.append(Framed(media, instr, resp, mod_cfg.l_prime * len(media)
                          + len(instr) + len(resp or ())))
    return out


def build_pack(pack, params: ModelParams, dec_cfg: DecoderConfig,
               mod_cfg: ModalityConfig, train_cfg=None) -> InstructionSequence:
    """The input rows of a pack of Framed records, back to back. Each media
    item is transformed alone, then one `align` call makes the soft tokens
    of all of them (one per kind with alignment_heads > 1, whose projections
    are per kind), and assemble_prefix lays them out. Records without
    responses make a prompt, which no loss reads: it is built without a
    tape."""
    prompt = all(r.resp is None for r in pack)
    with ag.no_grad() if prompt else contextlib.nullcontext():
        freeze = bool(train_cfg and train_cfg.freeze_embedding)
        items, queries, soft = [], [], []
        for kind in KINDS:
            for j, r in enumerate(pack):
                if kind in r.media:
                    items.append((j, kind))
                    queries.append(transform(r.media[kind], params.group(
                        f"transform.{kind}"), mod_cfg.l_prime))
        for kind in KINDS if dec_cfg.alignment_heads > 1 else [None]:
            q = [h for h, (_, k) in zip(queries, items) if kind in (None, k)]
            if q:
                soft.append(align(
                    ag.concat_rows(q), params.embedding,
                    freeze_embedding=freeze, heads=dec_cfg.alignment_heads,
                    proj=params.group(f"align.{kind}") if kind else None))
        return assemble_prefix(soft, items, [(r.instr, r.resp) for r in pack],
                               lambda i: embed_tokens(i, params))


def build_sequence(example, params: ModelParams, dec_cfg: DecoderConfig,
                   mod_cfg: ModalityConfig, vocab: Vocab, train_cfg=None,
                   with_response: bool = True) -> InstructionSequence:
    """The input sequence of one dataset example: a pack of one. Without
    its response it is a prompt, built without a tape."""
    return build_pack(frame([example], mod_cfg, vocab, with_response), params,
                      dec_cfg, mod_cfg, train_cfg)


def _response_spans(seq: InstructionSequence) -> list:
    spans = [(a, b) for tag, a, b in seq.spans if tag == "response-text"]
    if not spans:
        raise NoResponseSpan("sequence has no response span")
    return spans


def response_nll(logits: Tensor, seq: InstructionSequence,
                 reduction: str = "mean") -> Tensor:
    """NLL over response-span targets only; every other position is masked
    out by construction. Target at position p is predicted from logits[p-1].

    `logits` has a row per position of `seq`, or only each segment's tail,
    as forward(..., tails=seq.tails) returns them: a response ends its
    segment, so its rows open its segment's tail, which follows the rows of
    the earlier tails. A packed `seq` gives the sum, over its examples'
    response spans, of each span's NLL: the mean or the sum over its targets."""
    spans = _response_spans(seq)
    first = ({b: a - 1 for a, b in spans} if logits.shape[0] == seq.length else
             dict(zip(accumulate(seq.segments), accumulate([0] + seq.tails))))
    rows = np.concatenate([np.arange(first[b], first[b] + b - a) for a, b in spans])
    counts = [b - a for a, b in spans]
    targets = np.concatenate([seq.ids[a:b] for a, b in spans])
    picked = ag.pick(ag.log_softmax_rows(logits), rows, targets)
    weights = np.repeat([-1.0 / c if reduction == "mean" else -1.0
                         for c in counts], counts)
    return ag.sum_all(ag.mul(picked, weights))


def _packs(records, limit: int, most: int):
    """Yield the Framed `records`, in order, as packs of at most `most`
    records whose rows total at most `limit`; a record longer than that is a
    pack alone."""
    pack, rows = [], 0
    for r in records:
        if pack and (rows + r.rows > limit or len(pack) == most):
            yield pack
            pack, rows = [], 0
        pack.append(r)
        rows += r.rows
    if pack:
        yield pack


def _pack_nlls(records, params, dec_cfg, mod_cfg, cfg, reduction, most):
    """Yield the response NLL of each pack of the Framed `records`, in
    order: its rows are built when it runs and go through one forward, in
    which each example attends only to itself."""
    limit = min(cfg.max_seq_len, dec_cfg.max_seq_len)
    for pack in _packs(records, limit, most):
        seq = build_pack(pack, params, dec_cfg, mod_cfg, cfg)
        logits = forward(seq, params, dec_cfg, tails=seq.tails)
        yield response_nll(logits, seq, reduction=reduction)


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


def _batch_loss_and_grads(records, params, dec_cfg, mod_cfg, cfg):
    """Accumulate gradients of the mean loss over the Framed `records`.
    Returns (loss value, grads dict), whose arrays are the parameters' own
    .grad, zeros where a parameter got no gradient.

    The records fill packs in order, each of at most cfg.micro_batch
    examples whose rows total at most min(cfg.max_seq_len,
    dec_cfg.max_seq_len), one backward a pack. So at most one pack's tape is
    alive at a time, and it is no larger than one a micro-batch of
    max-length examples would make."""
    n_total = len(records)
    params.zero_grad()
    total_loss = 0.0
    for nll in _pack_nlls(records, params, dec_cfg, mod_cfg, cfg,
                          cfg.loss_reduction, cfg.micro_batch):
        # normalized by the full batch size, so grads accumulated over
        # packs equal the single-batch mean gradient
        loss = ag.mul(nll, 1.0 / n_total)
        loss.backward()
        total_loss += float(loss.data)
    for t in params.tensors.values():
        if t.grad is None:
            t.grad = np.zeros_like(t.data)
    return total_loss, {name: params[name].grad for name in params.names()}


def train_step(batch, params: ModelParams, opt_state: AdamState,
               cfg: TrainConfig, dec_cfg: DecoderConfig,
               mod_cfg: ModalityConfig, lr: float) -> dict:
    """One optimizer update from one macro-batch of Framed records
    (micro_batch*grad_accum, possibly fewer at the epoch tail), run as the
    packs _batch_loss_and_grads fills across micro-batch boundaries."""
    loss, grads = _batch_loss_and_grads(batch, params, dec_cfg, mod_cfg, cfg)
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
    for line in example_lines(dataset):
        h.update(line.encode("utf-8") + b"\n")
    return h.hexdigest()


def total_optimizer_steps(n_examples: int, cfg: TrainConfig) -> int:
    per_epoch = math.ceil(n_examples / (cfg.micro_batch * cfg.grad_accum))
    return cfg.epochs * per_epoch


def _check_rows(dataset, records, limit: int):
    """Raise SequenceTooLong, naming the example and its length, for the
    first Framed record of more than `limit` rows."""
    for ex, r in zip(dataset, records):
        if r.rows > limit:
            raise SequenceTooLong(f"example {ex.id!r}: sequence length "
                                  f"{r.rows} > max_seq_len {limit}")


def fit(dataset, dec_cfg: DecoderConfig, mod_cfg: ModalityConfig,
        vocab: Vocab, cfg: TrainConfig, params: ModelParams | None = None,
        out_dir=None, resume_from: "Checkpoint | None" = None,
        max_steps: int | None = None, log_fn=None):
    """Run the full training loop; returns (Checkpoint, metrics list).

    Per-epoch checkpoints (and the final one) are written under out_dir when
    given; when the last step run saved an epoch checkpoint, final.ckpt is a
    hard link to it rather than a second copy of the same bytes. Epoch e
    visits the examples in the order drawn from (cfg.seed, e), so a
    checkpoint's step alone says where training stands: resume_from
    restarts from a checkpoint saved at any step and reproduces the
    uninterrupted run bitwise. The run's state is one Checkpoint: the one
    resumed from, trained in place, or a fresh one around `params`; its
    step advances with each update, and it is what is saved and returned.
    Before step 0, configs or a dataset (its examples and their order) that
    differ from the checkpoint's raise ConfigError, a media item that cannot
    be encoded raises its own error, and an example over either max_seq_len
    SequenceTooLong.
    """
    dataset = list(dataset)
    if not dataset:
        raise EmptyDataset("cannot fit on an empty dataset")
    data_hash = _dataset_hash(dataset)
    ckpt = resume_from
    if ckpt is not None:
        if (ckpt.dec_cfg, ckpt.mod_cfg, ckpt.train_cfg) != (dec_cfg, mod_cfg, cfg):
            raise ConfigError("run config does not match the checkpoint's "
                              "decoder, modality and train configs")
        if ckpt.dataset_hash != data_hash:
            raise ConfigError("dataset does not match the one the checkpoint "
                              "was trained on")
    else:
        if params is None:
            params = init_params(dec_cfg, mod_cfg, np.random.default_rng(cfg.seed))
        ckpt = Checkpoint(dec_cfg, cfg, mod_cfg, vocab, params,
                          AdamState.init(params), 0, data_hash)
    records = frame(dataset, mod_cfg, vocab)
    _check_rows(dataset, records, min(cfg.max_seq_len, dec_cfg.max_seq_len))
    n = len(dataset)
    macro = cfg.micro_batch * cfg.grad_accum
    per_epoch = math.ceil(n / macro)
    total = total_optimizer_steps(n, cfg)

    metrics = []
    while ckpt.step < total and (max_steps is None or ckpt.step < max_steps):
        epoch, k = divmod(ckpt.step, per_epoch)
        perm = np.random.default_rng([cfg.seed, epoch]).permutation(n)
        batch = [records[j] for j in perm[k * macro:(k + 1) * macro]]
        m = train_step(batch, ckpt.params, ckpt.opt_state, cfg, dec_cfg,
                       mod_cfg, lr_at(ckpt.step, total, cfg))
        m["step"] = ckpt.step
        metrics.append(m)
        if log_fn:
            log_fn(m)
        ckpt.step += 1
        if out_dir is not None and ckpt.step % per_epoch == 0:
            save_checkpoint(os.path.join(out_dir, f"epoch{epoch + 1}.ckpt"),
                            ckpt)
    if out_dir is not None:
        path = os.path.join(out_dir, "final.ckpt")
        if metrics and ckpt.step % per_epoch == 0:
            # the last step saved an epoch checkpoint holding these bytes
            try:
                _link_checkpoint(os.path.join(
                    out_dir, f"epoch{ckpt.step // per_epoch}.ckpt"), path)
            except OSError:  # a filesystem without hard links
                save_checkpoint(path, ckpt)
        else:
            save_checkpoint(path, ckpt)
    return ckpt, metrics


def evaluate(dataset, ckpt: Checkpoint) -> dict:
    """Mean response NLL and perplexity over a dataset, run in packs filled
    by rows alone: no forward here keeps a tape, so micro_batch does not
    cap them. Before the first forward, an example over the model's
    max_seq_len raises SequenceTooLong."""
    dataset = list(dataset)
    if not dataset:
        raise EmptyDataset("cannot evaluate an empty dataset")
    records = frame(dataset, ckpt.mod_cfg, ckpt.vocab)
    _check_rows(dataset, records, ckpt.dec_cfg.max_seq_len)
    with ag.no_grad():
        total = sum(float(nll.data) for nll in _pack_nlls(
            records, ckpt.params, ckpt.dec_cfg, ckpt.mod_cfg, ckpt.train_cfg,
            "mean", len(dataset)))
    mean_nll = total / len(dataset)
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
         "step": ckpt.step, "adam_t": ckpt.opt_state.t,
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
    """Read a checkpoint into the tensors its header's configs give, each
    straight into its own array, so a load holds one copy of the payload.
    A header whose shapes are not those tensors' is corrupt."""
    with open(path, "rb") as f:
        prefix = f.read(12)
        if prefix[:4] != _CKPT_MAGIC:
            raise BadMagic(f"{path}: bad checkpoint magic {prefix[:4]!r}")
        if len(prefix) < 8:
            raise CorruptPayload(f"{path}: checkpoint truncated")
        (version,) = struct.unpack_from("<I", prefix, 4)
        if version != _CKPT_VERSION:
            raise VersionMismatch(f"{path}: checkpoint version {version}")
        try:
            (n,) = struct.unpack_from("<I", prefix, 8)
            head = json.loads(f.read(n))
            expected = 3 * 8 * sum(math.prod(shape)
                                   for _, shape in head["shapes"])
            payload = os.fstat(f.fileno()).st_size - 12 - n
            if payload != expected:
                raise ValueError(f"{payload} payload bytes, expected {expected}")
            dec_cfg = DecoderConfig(**head["decoder"])
            train_cfg = TrainConfig(**head["train"])
            mod_cfg = ModalityConfig(**head["modality"])
            # the values drawn are overwritten by the payload
            params = init_params(dec_cfg, mod_cfg, np.random.default_rng(0))
            state = AdamState.init(params)
            names = params.names()
            if head["shapes"] != [[name, list(params[name].shape)]
                                  for name in names]:
                raise ValueError("shapes do not match the header's configs")
            for a in ([params[name].data for name in names]
                      + [state.m[name] for name in names]
                      + [state.v[name] for name in names]):
                if f.readinto(a) != a.nbytes:
                    raise ValueError("payload ends early")
            state.t = head["adam_t"]
            return Checkpoint(dec_cfg=dec_cfg, train_cfg=train_cfg,
                              mod_cfg=mod_cfg, vocab=Vocab(), params=params,
                              opt_state=state, step=head["step"],
                              dataset_hash=head["dataset"])
        except Exception as e:
            raise CorruptPayload(f"{path}: {e!r}") from e
