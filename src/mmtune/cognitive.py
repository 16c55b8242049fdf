"""Toy decoder-only causal language model.

Pre-norm residual blocks, learned positional embeddings, output projection
tied to the embedding matrix. Soft tokens enter the sequence verbatim; the
forward pass has no modality-conditional branch.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .alignment import InstructionSequence, init_transform
from .autograd import Tensor
from .encoders import KINDS, ModalityConfig, check_field_types
from .errors import InvalidId, SequenceTooLong
from .tokenizer import EOS, N_IDS


@dataclass(frozen=True)
class DecoderConfig:
    d_e: int = 64
    layers: int = 2
    heads: int = 4
    d_ff: int = 256
    max_seq_len: int = 512
    alignment_heads: int = 1

    def __post_init__(self):
        check_field_types(self)
        for name in ("d_e", "layers", "heads", "d_ff", "max_seq_len",
                     "alignment_heads"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("heads", "alignment_heads"):
            if self.d_e % getattr(self, name):
                raise ValueError(f"d_e must be divisible by {name}")


class ModelParams:
    """Flat name->Tensor map holding every trainable parameter, including
    the per-modality transform weights."""

    def __init__(self, tensors: dict):
        self.tensors = dict(tensors)
        self._groups = {}  # prefix -> [(name, full name)]
        for full in self.tensors:
            prefix, _, name = full.rpartition(".")
            self._groups.setdefault(prefix, []).append((name, full))

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    @property
    def embedding(self) -> Tensor:
        return self.tensors["E"]

    def group(self, prefix: str) -> dict:
        """The tensors named `prefix.<name>`, keyed by `<name>`, which holds
        no dot. The names are indexed once; the tensors are looked up."""
        return {name: self.tensors[full]
                for name, full in self._groups.get(prefix, ())}

    def names(self) -> list:
        return sorted(self.tensors)

    def zero_grad(self):
        for t in self.tensors.values():
            t.zero_grad()


def init_params(cfg: DecoderConfig, mod_cfg: ModalityConfig,
                rng: np.random.Generator) -> ModelParams:
    d = cfg.d_e

    def w(*shape):
        # fan-in scaling; at toy widths a flat 0.02 would strangle gradient
        # flow through stacked projections
        return Tensor(rng.normal(0.0, 1.0 / math.sqrt(shape[0]), size=shape),
                      requires_grad=True)

    def emb(*shape):
        # embeddings stay small so initial logits are near uniform
        return Tensor(rng.normal(0.0, 0.02, size=shape), requires_grad=True)

    def zeros(*shape):
        return Tensor(np.zeros(shape), requires_grad=True)

    def ones(*shape):
        return Tensor(np.ones(shape), requires_grad=True)

    tensors = {"E": emb(N_IDS, d), "pos": emb(cfg.max_seq_len, d),
               "ln_f.g": ones(d), "ln_f.b": zeros(d)}
    for i in range(cfg.layers):
        p = f"layers.{i}"
        tensors[f"{p}.ln1.g"] = ones(d)
        tensors[f"{p}.ln1.b"] = zeros(d)
        tensors[f"{p}.attn.wq"] = w(d, d)
        tensors[f"{p}.attn.wk"] = w(d, d)
        tensors[f"{p}.attn.wv"] = w(d, d)
        tensors[f"{p}.attn.wo"] = w(d, d)
        tensors[f"{p}.ln2.g"] = ones(d)
        tensors[f"{p}.ln2.b"] = zeros(d)
        tensors[f"{p}.ffn.w1"] = w(d, cfg.d_ff)
        tensors[f"{p}.ffn.b1"] = zeros(cfg.d_ff)
        tensors[f"{p}.ffn.w2"] = w(cfg.d_ff, d)
        tensors[f"{p}.ffn.b2"] = zeros(d)
    for kind in KINDS:
        tw = init_transform(mod_cfg.length(kind), mod_cfg.dim(kind), d,
                            mod_cfg.l_prime, rng)
        tensors.update({f"transform.{kind}.{n}": t for n, t in tw.items()})
    if cfg.alignment_heads > 1:
        for kind in KINDS:
            for name in ("wq", "wk", "wv", "wo"):
                tensors[f"align.{kind}.{name}"] = w(d, d)
    return ModelParams(tensors)


def embed_tokens(ids, params: ModelParams) -> Tensor:
    """Row lookup into E; positional terms are added inside forward()."""
    rows = params.embedding.shape[0]
    bad = next((i for i in ids if not 0 <= i < rows), None)
    if bad is not None:
        raise InvalidId(f"token id {bad} outside [0, {rows})")
    return ag.embedding(params.embedding, np.asarray(ids, dtype=np.int64))


@dataclass
class KVCache:
    """Per-layer keys and values of the first `t` positions, in buffers of
    `rows` rows, which the caller sizes to the rows it will write. No
    gradient flows through these plain arrays, so use a cache under
    `autograd.no_grad()`."""

    kv: np.ndarray  # layers × 2 × rows × d_e
    t: int = 0

    @classmethod
    def empty(cls, cfg: DecoderConfig, rows: int) -> "KVCache":
        return cls(np.zeros((cfg.layers, 2, rows, cfg.d_e)))


def tail_rows(segments, tails) -> np.ndarray:
    """The numbers of the last tails[j] rows of each segment j, in order."""
    ends = np.cumsum(segments)
    return np.concatenate([np.arange(e - t, e) for e, t in zip(ends, tails)])


@functools.cache
def _layer_tensors(i: int):
    """A getter of layer i's twelve tensors from a name->Tensor dict, in the
    order forward unpacks them; made once per layer index, the tensors
    themselves are looked up on every call."""
    return operator.itemgetter(*(f"layers.{i}.{name}" for name in (
        "ln1.g", "ln1.b", "attn.wq", "attn.wk", "attn.wv", "attn.wo",
        "ln2.g", "ln2.b", "ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2")))


def forward(seq: InstructionSequence, params: ModelParams,
            cfg: DecoderConfig, cache: KVCache | None = None,
            tails=None) -> Tensor:
    """Causal decoder over the assembled sequence; returns its logits.

    Without a cache, each of the sequences packed into `seq` (its
    `segments`) attends only to itself, with positions from 0, so its rows
    come out as if it ran alone. With a `cache` of the first cache.t
    positions, `seq` is one segment of the rows after them, and their keys
    and values join the cache. `tails`, one count per segment, returns only
    the logits of each segment's last tails[j] rows (every row's when None).
    The last layer then runs ln1 and the K and V projections on every row,
    which those rows attend to, and Q onwards on those rows alone. Training,
    eval, prefill and decode take this one path, with or without a tape;
    each skip connection is added inside its projection's matmul node."""
    t = cache.t if cache is not None else 0
    lengths = (seq.segments if cache is None else None) or [seq.length]
    n = t + max(lengths)  # with a cache, the rows it holds after this call
    limit = cfg.max_seq_len if cache is None else min(cfg.max_seq_len,
                                                      cache.kv.shape[2])
    if n > limit:
        raise SequenceTooLong(f"sequence length {n} > max {limit}")
    pos = params["pos"]
    x = ag.add(seq.embedded, ag.take_rows(pos, np.s_[t:n]) if len(lengths) == 1
               else ag.embedding(pos, np.concatenate([np.arange(s) for s in lengths])))
    last = cfg.layers - 1 if tails and list(tails) != lengths else None
    for i in range(cfg.layers):
        (ln1_g, ln1_b, wq, wk, wv, wo, ln2_g, ln2_b,
         w1, b1, w2, b2) = _layer_tensors(i)(params.tensors)
        h = ag.layernorm_rows(x, ln1_g, ln1_b)
        rows = tail_rows(lengths, tails) if i == last else None
        q = ag.matmul(h if rows is None else ag.take_rows(h, rows), wq)
        k = ag.matmul(h, wk)
        v = ag.matmul(h, wv)
        if cache is not None:
            cache.kv[i, 0, t:n] = k.data
            cache.kv[i, 1, t:n] = v.data
            k, v = Tensor(cache.kv[i, 0, :n]), Tensor(cache.kv[i, 1, :n])
        a = ag.attention(q, k, v, cfg.heads, causal=True,
                         segments=None if cache is not None else lengths,
                         tails=tails if i == last else None)
        x = ag.matmul(a, wo, residual=x if rows is None else ag.take_rows(x, rows))
        h = ag.layernorm_rows(x, ln2_g, ln2_b)
        h = ag.gelu(ag.matmul(h, w1, b1))
        x = ag.matmul(h, w2, b2, x)
    if cache is not None:
        cache.t = n
    x = ag.layernorm_rows(x, params["ln_f.g"], params["ln_f.b"])
    return ag.matmul(x, ag.transpose(params.embedding))


def generate_greedy(prefix: InstructionSequence, max_new: int,
                    params: ModelParams, cfg: DecoderConfig,
                    eos_id: int = EOS) -> list:
    """Deterministic argmax decoding; stops at EOS or max_new tokens. Runs
    without a tape: the prefix runs once for its last row, then one row per
    token, its row of E taken unchecked. The last new token is returned but
    never fed back, so the prefix and max_new - 1 tokens must fit in
    max_seq_len, and the KV cache holds those rows and no more."""
    if prefix.span("response-text") is not None:
        raise ValueError("prefix must not contain a response span")
    rows = prefix.length + max_new - 1
    if rows > cfg.max_seq_len:
        raise SequenceTooLong(f"prefix {prefix.length} + max_new {max_new} "
                              f"- 1 > max {cfg.max_seq_len}")
    if max_new < 1:
        return []
    cache = KVCache.empty(cfg, rows)
    generated: list = []
    seq = prefix
    with ag.no_grad():
        for _ in range(max_new):
            logits = forward(seq, params, cfg, cache, tails=[1])
            next_id = int(logits.data[-1].argmax())
            if next_id == eos_id:
                break
            generated.append(next_id)
            seq = InstructionSequence(embedded=ag.take_rows(params.embedding, [next_id]))
    return generated
