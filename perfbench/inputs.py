"""Seeded inputs for the benchmark workloads.

Every generator seeds its own ``random.Random`` from the workload seed and
a tag, and returns plain dataset records, so the library only ever sees
generated inputs.
Text is ASCII, so one character is one byte-level token, and every length
below is fixed: a different seed changes the content, never the amount of
work.
"""

from __future__ import annotations

import os
import random

from mmtune import dataset
from mmtune.dataset import CaptionRecord, InstructionExample

WORDS = ("red blue green tall small old new wide dark warm cold fast slow soft "
         "hard thin grey pale deep loud ball cube tree tower dog boat car river "
         "cave sun moon hawk snail cloud rock wire wolf star lake bell man girl "
         "kite road hill field street table chair").split()
KINDS = ("image", "video", "audio")

# Media paths name no file, so MediaRef fingerprints the path text itself
# (the library's synthetic-dataset mode); the prefix keeps them clear of
# real files in the checkout.
MEDIA_ROOT = "synthetic-media"


def text(rng: random.Random, n_chars: int) -> str:
    """Random words cut to exactly n_chars characters, never ending in a space."""
    s = ""
    while len(s) < n_chars:   # words average over 4 characters with the space
        s += " ".join(rng.choices(WORDS, k=n_chars // 4 + 1)) + " "
    s = s[:n_chars]
    return s[:-1] + "x" if s.endswith(" ") else s


def media_item(kind: str, tag: str) -> dict:
    m = {"kind": kind, "path": f"{MEDIA_ROOT}/{tag}.{kind}"}
    if kind == "video":
        m["frames"] = 64
    return m


def short_examples(seed: int, unit: int, n: int, n_media: int,
                   instr_chars: int, resp_chars: int) -> list:
    """n ~30-token examples with one media item each, kinds cycling
    image/video/audio, drawn from a pool of n_media items so each recurs."""
    rng = random.Random(f"short:{seed}:{unit}")
    pool = [media_item(KINDS[j % 3], f"s{seed}-u{unit}-m{j}") for j in range(n_media)]
    return [InstructionExample(id=f"u{unit}-{i}", media=(pool[i % n_media],),
                               instruction=text(rng, instr_chars),
                               response=text(rng, resp_chars), source="synthetic")
            for i in range(n)]


def response_lengths(n: int, lo: int, hi: int) -> list:
    """n >= 2 lengths evenly spread over [lo, hi]."""
    return [lo + round(k * (hi - lo) / (n - 1)) for k in range(n)]


def long_examples(seed: int, tag: str, n: int, instr_chars: int,
                  resp_lo: int, resp_hi: int) -> list:
    """n long examples, each with its own video+audio pair, response lengths
    spread evenly over [resp_lo, resp_hi] in seeded order."""
    rng = random.Random(f"long:{seed}:{tag}")
    lengths = response_lengths(n, resp_lo, resp_hi)
    rng.shuffle(lengths)
    out = []
    for i, r in enumerate(lengths):
        media = (media_item("video", f"l{seed}-{tag}-{i}"),
                 media_item("audio", f"l{seed}-{tag}-{i}"))
        out.append(InstructionExample(id=f"{tag}-{i}", media=media,
                                      instruction=text(rng, instr_chars),
                                      response=text(rng, r), source="synthetic"))
    return out


def request(seed: int, index: int, instr_chars: int) -> InstructionExample:
    """A generation request: an instruction plus image, video and audio.
    The response field is a placeholder; it is never used."""
    rng = random.Random(f"request:{seed}:{index}")
    media = tuple(media_item(k, f"r{seed}-{index}") for k in KINDS)
    return InstructionExample(id=f"req-{index}", media=media,
                              instruction=text(rng, instr_chars), response="-",
                              source="request")


def _completion(rng: random.Random, pairs: int) -> str:
    lines = []
    for _ in range(pairs):
        lines.append("Q: " + text(rng, 40) + "?")
        lines.append("A: " + text(rng, 90) + ".")
    return "\n".join(lines) + "\n"


def write_caption_pool(seed: int, n: int, unparseable_every: int,
                       fixtures_dir: str) -> list:
    """Write n captions' fixture completions; returns the caption records.

    Even captions are images (source coco), odd ones video+audio (source
    avsd). Caption i with i % unparseable_every == unparseable_every - 1
    gets prose with no Q:/A: lines, which the pipeline must skip; every
    other completion holds exactly ten pairs.
    """
    rng = random.Random(f"captions:{seed}")
    os.makedirs(fixtures_dir, exist_ok=True)
    captions = []
    for i in range(n):
        if i % 2 == 0:
            media, source = (media_item("image", f"c{seed}-{i}"),), "coco"
        else:
            media = (media_item("video", f"c{seed}-{i}"),
                     media_item("audio", f"c{seed}-{i}"))
            source = "avsd"
        cap = CaptionRecord(id=f"cap{i}", media=media, caption=text(rng, 60),
                            source=source)
        if i % unparseable_every == unparseable_every - 1:
            body = "I am sorry, but " + text(rng, 120) + ".\n"
        else:
            body = _completion(rng, dataset.MAX_PAIRS_PER_COMPLETION)
        key = dataset.prompt_key(dataset.build_prompt(cap))
        with open(os.path.join(fixtures_dir, key + ".txt"), "w", encoding="utf-8") as f:
            f.write(body)
        captions.append(cap)
    return captions
