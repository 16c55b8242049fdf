"""Byte-level reversible tokenizer, the one place that fixes the vocabulary.

Ids 0..3 are the special ids PAD/BOS/EOS/SEP; ids 4..259 map one-to-one onto
byte values, so decode(encode(s)) == s for any UTF-8 string and there is
never an OOV token. The embedding matrix has one row per id, N_IDS in all.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidId

PAD = 0
BOS = 1
EOS = 2
SEP = 3

_BYTE_OFFSET = 4
N_IDS = _BYTE_OFFSET + 256


@dataclass(frozen=True)
class Vocab:  # no state: every Vocab() is equal to every other
    def encode(self, text: str) -> list[int]:
        """One id per UTF-8 byte; no BOS/EOS framing (caller's job)."""
        return [b + _BYTE_OFFSET for b in text.encode("utf-8")]

    def decode(self, ids) -> str:
        """Map byte ids back to text, dropping special ids; a malformed
        UTF-8 sequence becomes U+FFFD, as a model's output may hold one."""
        out = bytearray()
        for i in ids:
            i = int(i)
            if i in (PAD, BOS, EOS, SEP):
                continue
            if not _BYTE_OFFSET <= i < N_IDS:
                raise InvalidId(f"id {i} outside byte range [{_BYTE_OFFSET}, {N_IDS})")
            out.append(i - _BYTE_OFFSET)
        return out.decode("utf-8", errors="replace")
