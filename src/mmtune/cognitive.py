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
from .alignment import (InstructionSequence, TransformWeights,
                        init_transform_weights)
from .autograd import Tensor
from .encoders import ModalityConfig, check_field_types
from .errors import InvalidId, SequenceTooLong
from .tokenizer import EOS


@dataclass(frozen=True)
class DecoderConfig:
    d_e: int = 64
    layers: int = 2
    heads: int = 4
    d_ff: int = 256
    vocab_size: int = 260
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

    def __contains__(self, name: str) -> bool:
        return name in self.tensors

    @property
    def embedding(self) -> Tensor:
        return self.tensors["E"]

    def transform_weights(self, kind: str) -> TransformWeights:
        p = f"transform.{kind}"
        return TransformWeights(conv_w=self.tensors[f"{p}.conv_w"],
                                conv_b=self.tensors[f"{p}.conv_b"],
                                lin_w=self.tensors[f"{p}.lin_w"],
                                lin_b=self.tensors[f"{p}.lin_b"])

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

    tensors = {"E": emb(cfg.vocab_size, d), "pos": emb(cfg.max_seq_len, d),
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
    for kind in ("image", "video", "audio"):
        tw = init_transform_weights(mod_cfg.length(kind), mod_cfg.dim(kind),
                                    d, mod_cfg.l_prime, rng)
        tensors.update(tw.named(f"transform.{kind}"))
    if cfg.alignment_heads > 1:
        for kind in ("image", "video", "audio"):
            for name in ("wq", "wk", "wv", "wo"):
                tensors[f"align.{kind}.{name}"] = w(d, d)
    return ModelParams(tensors)


def embed_tokens(ids, params: ModelParams) -> Tensor:
    """Row lookup into E; positional terms are added inside forward()."""
    vocab_size = params.embedding.shape[0]
    idx = np.asarray(list(ids), dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= vocab_size):
        bad = idx[(idx < 0) | (idx >= vocab_size)][0]
        raise InvalidId(f"token id {bad} outside [0, {vocab_size})")
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
                    cfg: DecoderConfig, cache: KVCache | None) -> Tensor:
    p = f"layers.{layer}.attn"
    q = ag.matmul(x, params[f"{p}.wq"])
    k = ag.matmul(x, params[f"{p}.wk"])
    v = ag.matmul(x, params[f"{p}.wv"])
    if cache is not None:
        t, n = cache.t, cache.t + x.shape[0]
        cache.kv[layer, 0, t:n] = k.data
        cache.kv[layer, 1, t:n] = v.data
        k, v = Tensor(cache.kv[layer, 0, :n]), Tensor(cache.kv[layer, 1, :n])
    return ag.matmul(ag.attention(q, k, v, cfg.heads, causal=True),
                     params[f"{p}.wo"])


def forward(seq: InstructionSequence, params: ModelParams,
            cfg: DecoderConfig, cache: KVCache | None = None) -> Tensor:
    """Causal decoder over the assembled sequence; returns S×V logits.

    With a `cache` of the first cache.t positions, `seq` holds only the rows
    after them, and their keys and values join the cache."""
    t = cache.t if cache is not None else 0
    n = t + seq.length
    if n > cfg.max_seq_len:
        raise SequenceTooLong(f"sequence length {n} > max {cfg.max_seq_len}")
    x = ag.add(seq.embedded, ag.slice_rows(params["pos"], t, n))
    for i in range(cfg.layers):
        p = f"layers.{i}"
        h = ag.layernorm_rows(x, params[f"{p}.ln1.g"], params[f"{p}.ln1.b"])
        x = ag.add(x, _self_attention(h, params, i, cfg, cache))
        h = ag.layernorm_rows(x, params[f"{p}.ln2.g"], params[f"{p}.ln2.b"])
        h = ag.matmul(ag.gelu(ag.add(ag.matmul(h, params[f"{p}.ffn.w1"]),
                                     params[f"{p}.ffn.b1"])),
                      params[f"{p}.ffn.w2"])
        x = ag.add(x, ag.add(h, params[f"{p}.ffn.b2"]))
    if cache is not None:
        cache.t = n
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
