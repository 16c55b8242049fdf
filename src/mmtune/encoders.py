"""Modality feature producers.

Real vision/audio backbones are out of scope; features, plain L×d_h float64
arrays, come either from a deterministic stub (seeded by a content
fingerprint) or from a precomputed feature file. The binary feature format is
little-endian: magic "MCWF", version u32, kind u8 (the kind's index in KINDS),
rows u32, cols u32, then rows*cols float32 values row-major.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import BadMagic, SchemaError, TruncatedFile, UnknownKind

# in soft-token order; a kind's index is its .mcwf kind byte
KINDS = ("image", "video", "audio")

_MAGIC = b"MCWF"
_VERSION = 1


def check_field_types(cfg) -> None:
    """Raise TypeError unless each field of the dataclass `cfg` holds a value
    of its default's type, and ValueError for a NaN or infinite float. A bool
    is no int, an int is a float, and a field that defaults to None takes
    None or a float."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if value is None and f.default is None:
            continue
        want = float if f.default is None else type(f.default)
        # bool subclasses int, but a flag is no count
        ok = (isinstance(value, bool) == (want is bool)
              and isinstance(value, (int, float) if want is float else want))
        if not ok:
            raise TypeError(f"{type(cfg).__name__}.{f.name} must be "
                            f"{want.__name__}, got {value!r}")
        # json.load reads NaN and Infinity, and NaN passes every range check
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{type(cfg).__name__}.{f.name} must be "
                             f"finite, got {value!r}")


# kind -> (row-count field, width field) of ModalityConfig
_KIND_FIELDS = {"image": ("image_len", "image_dim"),
                "video": ("video_frames", "video_dim"),
                "audio": ("audio_len", "audio_dim")}


@dataclass(frozen=True)
class ModalityConfig:
    """Per-modality feature geometry plus the shared compressed length."""

    l_prime: int = 4
    image_len: int = 16
    image_dim: int = 32
    video_frames: int = 8          # rows of the video feature matrix
    video_dim: int = 32
    audio_len: int = 24
    audio_dim: int = 32
    source_frames_default: int = 32  # assumed raw frame count when unknown

    def __post_init__(self):
        check_field_types(self)
        if self.l_prime < 1:
            raise ValueError("l_prime must be >= 1")
        for length, dim in _KIND_FIELDS.values():
            if getattr(self, length) < self.l_prime:
                raise ValueError(f"{length} must be >= l_prime")
            if getattr(self, dim) < 1:
                raise ValueError(f"{dim} must be >= 1")
        if self.source_frames_default < 1:
            raise ValueError("source_frames_default must be >= 1")

    def length(self, kind: str) -> int:
        return getattr(self, _KIND_FIELDS[kind][0])

    def dim(self, kind: str) -> int:
        return getattr(self, _KIND_FIELDS[kind][1])


def fingerprint_bytes(data: bytes) -> int:
    """64-bit content fingerprint."""
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


@dataclass(frozen=True)
class MediaRef:
    """Reference to one media input: a kind plus a content fingerprint."""

    kind: str
    fingerprint: int
    path: str | None = None
    frames: int | None = None  # raw frame count, video only
    # the file's bytes as fingerprinted, when kept for encode to load from
    content: bytes | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise UnknownKind(self.kind)

    @classmethod
    def from_path(cls, kind: str, path: str, frames=None, keep=False):
        """Fingerprint file content when the path exists, else the path text.

        Nonexistent paths keep synthetic datasets usable offline: the path
        string itself is the content. With `keep` the ref holds the file's
        bytes, and encode loads a feature file from them, not from a second
        read; without it encode reads the file as it is then.
        """
        data, content = path.encode("utf-8"), None
        if os.path.isfile(path):
            with open(path, "rb") as f:
                data = content = f.read()
        return cls(kind, fingerprint_bytes(data), path=path, frames=frames,
                   content=content if keep else None)


def _uniform(seeds, out: np.ndarray) -> np.ndarray:
    """Fill the C-contiguous `out`, as len(seeds) equal row blocks, with
    uniform [-1, 1) draws, block j seeded by seeds[j]. Each block is the
    draws of default_rng(SeedSequence([seed])).uniform(-1, 1) to the bit:
    PCG64 seeds itself through the same SeedSequence, uniform forms
    -1 + 2 * r from the same r, and doubling is exact."""
    for seed, block in zip(seeds, out.reshape(len(seeds), -1)):
        np.random.Generator(np.random.PCG64(seed)).random(out=block)
    out *= 2.0
    out -= 1.0
    return out


def stub_encode(media: MediaRef, cfg: ModalityConfig) -> np.ndarray:
    """Deterministic stand-in encoder: uniform [-1, 1] features seeded by
    the media fingerprint."""
    shape = (cfg.length(media.kind), cfg.dim(media.kind))
    return _uniform([media.fingerprint], np.empty(shape))


def sample_frames(frame_count: int, target: int) -> list[int]:
    """Evenly spaced frame indices: floor(j*N/F) for j in 0..F-1."""
    if frame_count < 1 or target < 1:
        raise ValueError("frame_count and target must be >= 1")
    return [(j * frame_count) // target for j in range(target)]


def frame_fingerprint(fingerprint: int, frame_index: int) -> int:
    """Per-frame fingerprint derived from the video fingerprint."""
    payload = struct.pack("<QQ", fingerprint & (2 ** 64 - 1), frame_index)
    return fingerprint_bytes(payload)


def encode_video(media: MediaRef, cfg: ModalityConfig) -> np.ndarray:
    """One pooled feature row per sampled frame, each drawn straight into
    its row of the F×d_h result."""
    idx = sample_frames(media.frames or cfg.source_frames_default, cfg.video_frames)
    return _uniform([frame_fingerprint(media.fingerprint, i) for i in idx],
                    np.empty((cfg.video_frames, cfg.video_dim)))


def encode(media: MediaRef, cfg: ModalityConfig) -> np.ndarray:
    """The L×d_h features of `media`: read from its `.mcwf` file when its
    path names one (from the bytes the ref holds, if it holds them), else
    from the stub encoder for its kind."""
    if (media.path and media.path.endswith(".mcwf")
            and (media.content is not None or os.path.isfile(media.path))):
        kind, matrix = load_features(media.path, media.content)
        expect = (media.kind, (cfg.length(media.kind), cfg.dim(media.kind)))
        if (kind, matrix.shape) != expect:
            raise SchemaError(f"{media.path}: feature kind and shape {kind} "
                              f"{matrix.shape} != configured {expect}")
        return matrix
    return (encode_video if media.kind == "video" else stub_encode)(media, cfg)


def save_features(path: str, kind: str, matrix: np.ndarray) -> None:
    """Write the rows×cols features `matrix` of `kind`, rounded to float32."""
    rows, cols = matrix.shape
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<IBII", _VERSION, KINDS.index(kind), rows, cols))
        f.write(matrix.astype("<f4").tobytes(order="C"))


def load_features(path: str, raw: bytes | None = None) -> tuple[str, np.ndarray]:
    """The (kind, float64 matrix) a feature file holds; `raw`, when given,
    is the file's bytes, already read."""
    if raw is None:
        with open(path, "rb") as f:
            raw = f.read()
    if raw[:4] != _MAGIC:
        raise BadMagic(f"{path}: bad magic {raw[:4]!r}")
    header = raw[4:4 + struct.calcsize("<IBII")]
    if len(header) < struct.calcsize("<IBII"):
        raise TruncatedFile(f"{path}: header incomplete")
    version, kind_code, rows, cols = struct.unpack("<IBII", header)
    if version != _VERSION:
        raise BadMagic(f"{path}: unsupported version {version}")
    if kind_code >= len(KINDS):
        raise UnknownKind(f"{path}: kind code {kind_code}")
    body = raw[4 + struct.calcsize("<IBII"):]
    need = rows * cols * 4
    if len(body) < need:
        raise TruncatedFile(f"{path}: expected {need} payload bytes, got {len(body)}")
    matrix = np.frombuffer(body[:need], dtype="<f4").reshape(rows, cols)
    return KINDS[kind_code], matrix.astype(np.float64)
