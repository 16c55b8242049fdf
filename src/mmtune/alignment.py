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
from .encoders import ModalityFeatures
from .errors import BadLength, MissingText, ShapeMismatch

MODALITY_ORDER = ("image", "video", "audio")


def derive_stride_kernel(length: int, l_prime: int) -> tuple[int, int]:
    """Stride and kernel size that force conv output length == l_prime."""
    if length < l_prime:
        raise BadLength(f"input length {length} < target length {l_prime}")
    stride = length // l_prime
    kernel = length - (l_prime - 1) * stride
    return stride, kernel


@dataclass
class TransformWeights:
    """Conv1D + Linear weights for one modality."""

    conv_w: Tensor  # k×d_h×d_h
    conv_b: Tensor  # d_h
    lin_w: Tensor   # d_h×d_e
    lin_b: Tensor   # d_e

    def named(self, prefix: str) -> dict:
        return {f"{prefix}.conv_w": self.conv_w, f"{prefix}.conv_b": self.conv_b,
                f"{prefix}.lin_w": self.lin_w, f"{prefix}.lin_b": self.lin_b}


def init_transform_weights(length: int, d_h: int, d_e: int, l_prime: int,
                           rng: np.random.Generator) -> TransformWeights:
    _, kernel = derive_stride_kernel(length, l_prime)
    # fan-in scaling keeps soft-token magnitudes (and their gradients) at a
    # sane scale regardless of kernel size and feature width
    conv_scale = 1.0 / math.sqrt(kernel * d_h)
    lin_scale = 1.0 / math.sqrt(d_h)
    return TransformWeights(
        conv_w=Tensor(rng.normal(0.0, conv_scale, size=(kernel, d_h, d_h)), requires_grad=True),
        conv_b=Tensor(np.zeros(d_h), requires_grad=True),
        lin_w=Tensor(rng.normal(0.0, lin_scale, size=(d_h, d_e)), requires_grad=True),
        lin_b=Tensor(np.zeros(d_e), requires_grad=True),
    )


def transform(features: ModalityFeatures | Tensor, w: TransformWeights,
              l_prime: int) -> Tensor:
    """Conv1D (stride/kernel derived from L and L') then a linear map to d_e."""
    x = features if isinstance(features, Tensor) else Tensor(features.matrix)
    length = x.shape[0]
    stride, kernel = derive_stride_kernel(length, l_prime)
    if w.conv_w.shape[0] != kernel:
        raise ShapeMismatch(
            f"kernel {w.conv_w.shape[0]} was built for a different input "
            f"length (need {kernel} for L={length}, L'={l_prime})")
    h = ag.conv1d(x, w.conv_w, w.conv_b, stride=stride)
    return ag.add(ag.matmul(h, w.lin_w), w.lin_b)


@dataclass
class AlignedTokens:
    """Soft tokens: convex combinations of embedding rows."""

    matrix: Tensor  # L'×d_e
    kind: str


def align(h_prime: Tensor, embed_matrix: Tensor, kind: str = "image",
          freeze_embedding: bool = False, proj: dict | None = None,
          heads: int = 1) -> AlignedTokens:
    """Attend the transformed features against the embedding matrix.

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
        return AlignedTokens(matrix=ag.attention(h_prime, e, e, heads), kind=kind)
    out = ag.attention(ag.matmul(h_prime, proj["wq"]), ag.matmul(e, proj["wk"]),
                       ag.matmul(e, proj["wv"]), heads)
    return AlignedTokens(matrix=ag.matmul(out, proj["wo"]), kind=kind)


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


def assemble_prefix(image: AlignedTokens | None, video: AlignedTokens | None,
                    audio: AlignedTokens | None, instruction_ids,
                    embed, response_ids=None) -> InstructionSequence:
    """Concatenate [image : video : audio : embedded text] and record spans.

    `embed` maps an id list to an |ids|×d_e tensor. Ids are used exactly as
    given; any BOS/SEP/EOS framing is the caller's responsibility.
    """
    instruction_ids = list(instruction_ids)
    if not instruction_ids:
        raise MissingText("instruction ids must be non-empty")
    parts, spans, ids = [], [], []
    pos = 0
    for tag, tok in zip(MODALITY_ORDER, (image, video, audio)):
        if tok is None:
            continue
        n = tok.matrix.shape[0]
        parts.append(tok.matrix)
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
