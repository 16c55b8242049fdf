"""Soft-token construction: compress modality features to a fixed length,
project into the embedding width, attend against the embedding matrix, and
concatenate with the embedded instruction text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .encoders import KINDS
from .errors import BadLength, MissingText, ShapeMismatch


def derive_stride_kernel(length: int, l_prime: int) -> tuple[int, int]:
    """Stride and kernel size that force conv output length == l_prime."""
    if length < l_prime:
        raise BadLength(f"input length {length} < target length {l_prime}")
    stride = length // l_prime
    kernel = length - (l_prime - 1) * stride
    return stride, kernel


def init_transform(length: int, d_h: int, d_e: int, l_prime: int,
                   rng: np.random.Generator) -> dict:
    """Conv1D + Linear weights for one modality: "conv_w" (k×d_h×d_h),
    "conv_b" (d_h), "lin_w" (d_h×d_e) and "lin_b" (d_e)."""
    _, kernel = derive_stride_kernel(length, l_prime)
    # fan-in scaling keeps soft-token magnitudes (and their gradients) at a
    # sane scale regardless of kernel size and feature width
    conv_scale = 1.0 / math.sqrt(kernel * d_h)
    lin_scale = 1.0 / math.sqrt(d_h)
    return {
        "conv_w": Tensor(rng.normal(0.0, conv_scale, size=(kernel, d_h, d_h)), requires_grad=True),
        "conv_b": Tensor(np.zeros(d_h), requires_grad=True),
        "lin_w": Tensor(rng.normal(0.0, lin_scale, size=(d_h, d_e)), requires_grad=True),
        "lin_b": Tensor(np.zeros(d_e), requires_grad=True),
    }


def transform(features: np.ndarray, w: dict, l_prime: int) -> Tensor:
    """Conv1D (stride/kernel derived from L and L') over the L×d_h features,
    then a linear map to d_e, with `w` as init_transform returns it."""
    length = features.shape[0]
    stride, kernel = derive_stride_kernel(length, l_prime)
    if w["conv_w"].shape[0] != kernel:
        raise ShapeMismatch(
            f"kernel {w['conv_w'].shape[0]} was built for a different input "
            f"length (need {kernel} for L={length}, L'={l_prime})")
    h = ag.conv1d(Tensor(features), w["conv_w"], w["conv_b"], stride=stride)
    return ag.matmul(h, w["lin_w"], w["lin_b"])


def align(h_prime: Tensor, embed_matrix: Tensor, freeze_embedding: bool = False,
          proj: dict | None = None, heads: int = 1) -> Tensor:
    """Attend the transformed features against the embedding matrix; returns
    the L'×d_e soft tokens.

    Without `proj` each soft token is a convex combination of embedding rows.
    `proj` holds learned d_e×d_e "wq", "wk", "wv" and "wo" maps around
    `heads`-head attention. With freeze_embedding the embedding matrix
    receives no gradient from this path (it still trains through token
    lookup and the output projection).
    """
    if h_prime.shape[1] != embed_matrix.shape[1]:
        raise ShapeMismatch(
            f"soft-token width {h_prime.shape[1]} != embedding width {embed_matrix.shape[1]}")
    e = ag.stop_gradient(embed_matrix) if freeze_embedding else embed_matrix
    if proj is None:
        return ag.attention(h_prime, e, e, heads)
    out = ag.attention(ag.matmul(h_prime, proj["wq"]), ag.matmul(e, proj["wk"]),
                       ag.matmul(e, proj["wv"]), heads)
    return ag.matmul(out, proj["wo"])


@dataclass
class InstructionSequence:
    """The assembled model input: soft tokens then embedded text."""

    embedded: Tensor               # S×d_e
    spans: list = field(default_factory=list)   # (tag, start, stop)
    ids: np.ndarray = None         # length S; -1 at soft-token positions

    @property
    def length(self) -> int:
        return self.embedded.shape[0]

    def span(self, tag: str):
        for t, a, b in self.spans:
            if t == tag:
                return (a, b)
        return None


def assemble_prefix(soft: dict, instruction_ids, embed,
                    response_ids=None) -> InstructionSequence:
    """Concatenate [image : video : audio : embedded text] and record spans.

    `soft` maps each present modality kind to its L'×d_e soft tokens, which
    go in encoders.KINDS order. `embed` maps an id list to an |ids|×d_e
    tensor. Ids are used exactly as given; BOS/SEP/EOS framing is the caller's.
    """
    instruction_ids = list(instruction_ids)
    if not instruction_ids:
        raise MissingText("instruction ids must be non-empty")
    parts, spans, ids = [], [], []
    pos = 0
    for tag in KINDS:
        if tag not in soft:
            continue
        n = soft[tag].shape[0]
        parts.append(soft[tag])
        spans.append((tag, pos, pos + n))
        ids.extend([-1] * n)
        pos += n
    parts.append(embed(instruction_ids))
    spans.append(("instruction-text", pos, pos + len(instruction_ids)))
    ids.extend(instruction_ids)
    pos += len(instruction_ids)
    if response_ids is not None:
        response_ids = list(response_ids)
        parts.append(embed(response_ids))
        spans.append(("response-text", pos, pos + len(response_ids)))
        ids.extend(response_ids)
        pos += len(response_ids)
    return InstructionSequence(embedded=ag.concat_rows(parts), spans=spans,
                                ids=np.asarray(ids, dtype=np.int64))
