"""Soft-token construction: compress modality features to a fixed length,
project into the embedding width, attend against the embedding matrix, and
lay the soft tokens out with the embedded text.
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
    """The model input of one sequence or a pack: soft tokens, then text.
    Per packed sequence, `segments` holds its length and `tails` the count
    of its last rows that its loss reads: from the row that predicts its
    first response token to its end, or its last row alone."""

    embedded: Tensor               # S×d_e
    spans: list = field(default_factory=list)   # (tag, start, stop)
    ids: np.ndarray = None         # length S; -1 at soft-token positions
    segments: list = None          # one sequence of seq.length when None
    tails: list = None             # len(response) + 1, or 1 without one

    @property
    def length(self) -> int:
        return self.embedded.shape[0]

    def span(self, tag: str):
        return next(((a, b) for t, a, b in self.spans if t == tag), None)


def assemble_prefix(soft: list, items: list, texts: list,
                    embed) -> InstructionSequence:
    """Lay out a pack of sequences back to back, one per (instruction ids,
    response ids or None) in `texts`, each as [image : video : audio :
    instruction text : response text]; ids are used exactly as given.

    The rows of the tensors in `soft`, stacked, hold an equal block of soft
    tokens for each (sequence index, kind) of `items`, in that order. `embed`
    maps ids to their rows; it runs once, on all the text ids, and one gather
    then places the soft and the text rows. It records each sequence's
    length and loss tail."""
    n_soft = sum(t.shape[0] for t in soft)
    block = n_soft // max(len(items), 1)
    rank = {item: b for b, item in enumerate(items)}
    order, ids, text, spans, segments, tails = [], [], [], [], [], []
    for j, (instr, resp) in enumerate(texts):
        if not len(instr):
            raise MissingText("instruction ids must be non-empty")
        # (tag, first row in the source, ids); text rows follow the soft rows
        parts = [(kind, rank[j, kind] * block, [-1] * block)
                 for kind in KINDS if (j, kind) in rank]
        for tag, part in (("instruction-text", instr), ("response-text", resp)):
            if part is not None:
                parts.append((tag, n_soft + len(text), part))
                text += part
        for tag, first, part in parts:
            spans.append((tag, len(ids), len(ids) + len(part)))
            order += range(first, first + len(part))
            ids += part
        segments.append(sum(len(part) for _, _, part in parts))
        tails.append(len(resp) + 1 if resp is not None else 1)
    rows = ag.concat_rows(soft + [embed(text)])
    if order != list(range(len(order))):  # else laid out already
        rows = ag.take_rows(rows, np.array(order))
    return InstructionSequence(embedded=rows, spans=spans, segments=segments,
                               tails=tails, ids=np.array(ids, dtype=np.int64))
