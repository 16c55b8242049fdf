"""Toy decoder-only causal language model.

Pre-norm residual blocks, learned positional embeddings, output projection
tied to the embedding matrix. Soft tokens enter the sequence verbatim; the
forward pass has no modality-conditional branch.
"""

from __future__ import annotations

import math
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
        for name in ("d_e", "heads", "d_ff", "max_seq_len", "alignment_heads"):
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

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    @property
    def embedding(self) -> Tensor:
        return self.tensors["E"]

    def group(self, prefix: str) -> dict:
        """The tensors named `prefix.<name>`, keyed by `<name>`."""
        p = prefix + "."
        return {n[len(p):]: t for n, t in self.tensors.items() if n.startswith(p)}

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
    idx = np.asarray(list(ids), dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= rows):
        bad = idx[(idx < 0) | (idx >= rows)][0]
        raise InvalidId(f"token id {bad} outside [0, {rows})")
    return ag.embedding(params.embedding, idx)


@dataclass
class KVCache:
    """Per-layer keys and values of the first `t` positions, in buffers of
    max_seq_len rows. No gradient flows through these plain arrays, so use a
    cache under `autograd.no_grad()`."""

    kv: np.ndarray  # layers × 2 × max_seq_len × d_e
    t: int = 0

    @classmethod
    def empty(cls, cfg: DecoderConfig) -> "KVCache":
        return cls(np.zeros((cfg.layers, 2, cfg.max_seq_len, cfg.d_e)))


def _self_attention(x: Tensor, params: ModelParams, layer: int,
                    cfg: DecoderConfig, cache: KVCache | None,
                    segments) -> Tensor:
    p = f"layers.{layer}.attn"
    q = ag.matmul(x, params[f"{p}.wq"])
    k = ag.matmul(x, params[f"{p}.wk"])
    v = ag.matmul(x, params[f"{p}.wv"])
    if cache is not None:
        t, n = cache.t, cache.t + x.shape[0]
        cache.kv[layer, 0, t:n] = k.data
        cache.kv[layer, 1, t:n] = v.data
        k, v = Tensor(cache.kv[layer, 0, :n]), Tensor(cache.kv[layer, 1, :n])
    return ag.matmul(ag.attention(q, k, v, cfg.heads, causal=True,
                                  segments=segments),
                     params[f"{p}.wo"])


def forward(seq: InstructionSequence, params: ModelParams,
            cfg: DecoderConfig, cache: KVCache | None = None,
            segments=None, rows=None) -> Tensor:
    """Causal decoder over the assembled sequence; returns S×V logits.

    With a `cache` of the first cache.t positions, `seq` holds only the rows
    after them, and their keys and values join the cache. Without a cache,
    `segments` gives the lengths of sequences packed one after another into
    `seq`: each attends only to itself, with positions from 0, so its rows
    come out as if it ran alone. `rows`, a slice or an array of distinct row
    numbers, limits the final norm and the logits to those rows."""
    if segments is None:
        t = cache.t if cache is not None else 0
        n = t + seq.length
        if n > cfg.max_seq_len:
            raise SequenceTooLong(f"sequence length {n} > max {cfg.max_seq_len}")
        pos = ag.slice_rows(params["pos"], t, n)
    else:
        if max(segments) > cfg.max_seq_len:
            raise SequenceTooLong(f"sequence length {max(segments)} > max "
                                  f"{cfg.max_seq_len}")
        pos = ag.embedding(params["pos"],
                           np.concatenate([np.arange(s) for s in segments]))
    x = ag.add(seq.embedded, pos)
    for i in range(cfg.layers):
        p = f"layers.{i}"
        h = ag.layernorm_rows(x, params[f"{p}.ln1.g"], params[f"{p}.ln1.b"])
        x = ag.add(x, _self_attention(h, params, i, cfg, cache, segments))
        h = ag.layernorm_rows(x, params[f"{p}.ln2.g"], params[f"{p}.ln2.b"])
        h = ag.matmul(ag.gelu(ag.add(ag.matmul(h, params[f"{p}.ffn.w1"]),
                                     params[f"{p}.ffn.b1"])),
                      params[f"{p}.ffn.w2"])
        x = ag.add(x, ag.add(h, params[f"{p}.ffn.b2"]))
    if cache is not None:
        cache.t = n
    if rows is not None:
        x = ag.take_rows(x, rows)
    x = ag.layernorm_rows(x, params["ln_f.g"], params["ln_f.b"])
    return ag.matmul(x, ag.transpose(params.embedding))


def generate_greedy(prefix: InstructionSequence, max_new: int,
                    params: ModelParams, cfg: DecoderConfig,
                    eos_id: int = EOS) -> list:
    """Deterministic argmax decoding; stops at EOS or max_new tokens. Runs
    without a tape: one forward over the prefix, then one row per token."""
    if prefix.span("response-text") is not None:
        raise ValueError("prefix must not contain a response span")
    if prefix.length + max_new > cfg.max_seq_len:
        raise SequenceTooLong(
            f"prefix {prefix.length} + max_new {max_new} > max {cfg.max_seq_len}")
    cache = KVCache.empty(cfg)
    generated: list = []
    seq = prefix
    with ag.no_grad():
        for _ in range(max_new):
            logits = forward(seq, params, cfg, cache)
            next_id = int(np.argmax(logits.data[-1]))
            if next_id == eos_id:
                break
            generated.append(next_id)
            seq = InstructionSequence(embedded=embed_tokens([next_id], params))
    return generated
