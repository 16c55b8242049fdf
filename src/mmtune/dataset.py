"""Caption-to-instruction dataset pipeline.

Captions go into a fixed prompt template, a generation service returns
Q:/A: pairs, and each parsed pair becomes one training example carrying the
caption's media references. The service is abstracted behind a client
interface; the shipped implementation is an offline mock that replays
fixture completions keyed by prompt hash.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field

from .encoders import KINDS
from .errors import (ClientError, EmptyCaption, EmptyDataset, NoPairsFound,
                     SchemaError, SourceTooSmall)

FIXTURES_ENV = "MACAW_FIXTURES"

MAX_PAIRS_PER_COMPLETION = 10

_PROMPT_TEMPLATE = (
    "This is the caption of {article} {kind}: {caption}. This {kind} contains "
    "important information that needs to be conveyed through high-quality "
    "instructions.\n\n"
    "Your task is to provide ten pairs of instructions and responses that are "
    "related to the content of the {kind} caption like dialogue concentrating "
    "on the content of the {kind} without explicitly mentioning the caption "
    "or the word 'caption'.\n\n"
    "Your focus should be on describing, explaining, or analyzing various "
    "aspects of the {kind}, as well as providing some QA pairs. The purpose "
    "of this exercise is to fine-tune a language model so that it can "
    "generate accurate and relevant responses.\n\n"
    "In each pair, the first line should start with \"Q:\" and contain an "
    "instruction related to the {kind}, while the second line should start "
    "with \"A:\" and provide a response to the instruction.\n\n"
    "Please ensure that your instructions are diverse and of high quality, "
    "accurately reflecting the content of the image and providing useful "
    "information to the language model:")


@dataclass(frozen=True)
class CaptionRecord:
    id: str
    media: tuple            # dicts: {kind, path, frames?}
    caption: str
    source: str

    def primary_kind(self) -> str:
        return self.media[0]["kind"]

    @classmethod
    def from_dict(cls, d: dict) -> "CaptionRecord":
        media = _check_record(d, ("caption",))
        if not media:
            raise SchemaError(f"record {d['id']!r}: empty media list")
        if not d["caption"].strip():  # build_prompt would reject it mid-build
            raise SchemaError(f"record {d['id']!r}: caption is blank")
        return cls(id=str(d["id"]), media=media, caption=d["caption"],
                   source=str(d["source"]))


@dataclass(frozen=True)
class InstructionExample:
    id: str
    media: tuple
    instruction: str
    response: str
    source: str

    def to_dict(self) -> dict:
        return {"id": self.id, "source": self.source,
                "media": [dict(m) for m in self.media],
                "instruction": self.instruction, "response": self.response}

    @classmethod
    def from_dict(cls, d: dict) -> "InstructionExample":
        media = _check_record(d, ("instruction", "response"))
        return cls(id=str(d["id"]), media=media, instruction=d["instruction"],
                   response=d["response"], source=str(d["source"]))


def _check_record(d: dict, texts: tuple) -> tuple:
    """The checked media of `d`, a record with non-empty strings in `texts`."""
    for key in ("id", "source", "media") + texts:
        if key not in d:
            raise SchemaError(f"record missing key {key!r}")
    for key in texts:
        if type(d[key]) is not str or not d[key]:
            raise SchemaError(f"record {d['id']!r}: {key} must be a non-empty "
                              f"string, got {d[key]!r}")
    return check_media(d["media"], d["id"])


def check_media(media, owner) -> tuple:
    """Copies of the `{kind, path[, frames]}` media entries of record `owner`."""
    if type(media) is not list:
        raise SchemaError(f"record {owner!r}: media must be a list, got {media!r}")
    out = []
    for m in media:
        if type(m) is not dict or type(m.get("path")) is not str or not m["path"]:
            raise SchemaError(f"record {owner!r}: media entry {m!r} must be an "
                              "object with a non-empty string path")
        if m.get("kind") not in KINDS:
            raise SchemaError(f"record {owner!r}: unknown media kind "
                              f"{m.get('kind')!r}")
        frames = m.get("frames", 1)
        if type(frames) is not int or frames < 1:  # a bool is no frame count
            raise SchemaError(f"record {owner!r}: frames must be an integer "
                              f">= 1, got {frames!r}")
        out.append(dict(m))
    return tuple(out)


def build_prompt(caption: CaptionRecord) -> str:
    """Fill the generation prompt, choosing image/video wording by kind."""
    if not caption.caption.strip():
        raise EmptyCaption(f"caption {caption.id!r} is empty")
    kind = "video" if caption.primary_kind() in ("video", "audio") else "image"
    article = "a" if kind == "video" else "an"
    return _PROMPT_TEMPLATE.format(article=article, kind=kind,
                                   caption=caption.caption.strip())


def parse_qa_pairs(completion: str) -> list:
    """Extract up to 10 (instruction, response) pairs from Q:/A: lines."""
    pairs = []
    pending = None
    for line in completion.splitlines():
        s = line.strip()
        if s.startswith("Q:"):
            pending = s[2:].strip()
        elif s.startswith("A:") and pending is not None:
            answer = s[2:].strip()
            if pending and answer:
                pairs.append((pending, answer))
            pending = None
        elif s:
            pending = None  # interleaved prose breaks the pair
    if not pairs:
        raise NoPairsFound("no Q:/A: pairs in completion")
    return pairs[:MAX_PAIRS_PER_COMPLETION]


def prompt_key(prompt: str) -> str:
    """Filename stem identifying a prompt in the fixtures directory."""
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()[:16]


class GenerationClient:
    """Interface to a text-generation service."""

    def complete(self, prompt: str) -> str:
        raise NotImplementedError


class MockGenerationClient(GenerationClient):
    """Offline client replaying fixture files named <prompt_key>.txt."""

    def __init__(self, fixtures_dir: str | None = None):
        self.fixtures_dir = fixtures_dir or os.environ.get(FIXTURES_ENV)
        if not self.fixtures_dir:
            raise ClientError(
                f"no fixtures directory; set {FIXTURES_ENV} or pass one explicitly")

    def complete(self, prompt: str) -> str:
        key = prompt_key(prompt)
        try:
            with open(os.path.join(self.fixtures_dir, key + ".txt"),
                      encoding="utf-8") as f:
                return f.read()
        except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
            raise ClientError(f"no fixture for prompt key {key}") from None


@dataclass
class SkipReport:
    skipped: list = field(default_factory=list)  # (caption id, reason)

    def count(self) -> int:
        return len(self.skipped)


def generate_examples(captions, client: GenerationClient):
    """One query per caption, in order; every parsed pair becomes an example.

    Captions whose completion fails to parse are skipped and reported. A
    client failure that survives two retries aborts with the examples built
    from the captions before it attached to the raised ClientError.
    """
    examples = []
    report = SkipReport()
    for caption in captions:
        prompt = build_prompt(caption)
        for _ in range(3):  # a try and two retries
            try:
                completion = client.complete(prompt)
                break
            except ClientError as e:
                last = e
        else:
            raise ClientError(f"caption {caption.id!r}: {last}", partial=examples)
        try:
            pairs = parse_qa_pairs(completion)
        except NoPairsFound:
            report.skipped.append((caption.id, "no Q/A pairs parsed"))
            continue
        for k, (q, a) in enumerate(pairs):
            examples.append(InstructionExample(
                id=f"{caption.id}-{k}", media=caption.media,
                instruction=q, response=a, source=caption.source))
    return examples, report


def mix(sources: dict, n_per_source: int, seed: int) -> list:
    """Sample n examples without replacement from each source, concatenate,
    then shuffle globally; fully determined by the seed."""
    rng = random.Random(seed)
    combined = []
    for name in sorted(sources):
        pool = list(sources[name])
        if len(pool) < n_per_source:
            raise SourceTooSmall(
                f"source {name!r} has {len(pool)} < {n_per_source} examples")
        combined.extend(rng.sample(pool, n_per_source))
    rng.shuffle(combined)
    return combined


def stats(examples) -> dict:
    """Per-source item counts and average instruction/response word lengths
    (whitespace tokens, one decimal)."""
    examples = list(examples)
    if not examples:
        raise EmptyDataset("no examples to summarize")
    acc: dict = {}
    for ex in examples:
        row = acc.setdefault(ex.source, {"items": 0, "ins_words": 0, "res_words": 0})
        row["items"] += 1
        row["ins_words"] += len(ex.instruction.split())
        row["res_words"] += len(ex.response.split())
    return {src: {"items": row["items"],
                  "ins_len": round(row["ins_words"] / row["items"], 1),
                  "res_len": round(row["res_words"] / row["items"], 1)}
            for src, row in sorted(acc.items())}


def format_stats_table(table: dict) -> str:
    lines = [f"{'Dataset':<16}{'Items':>10}{'Ins. Len.':>12}{'Res. Len.':>12}"]
    for src, row in table.items():
        lines.append(f"{src:<16}{row['items']:>10,}{row['ins_len']:>12.1f}"
                     f"{row['res_len']:>12.1f}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# JSONL interchange
# ---------------------------------------------------------------------------

_encode = json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode
_LINE = ('{"id": %s, "instruction": %s, "media": %s, "response": %s, '
         '"source": %s}')


def example_lines(examples):
    """Each example's JSONL line, without its newline: exactly
    json.dumps(ex.to_dict(), ensure_ascii=False, sort_keys=True). A run of
    examples holding one media tuple (a caption's pairs) encodes it once;
    the last tuple is kept, so a freed tuple is never matched."""
    last, media = None, None
    for ex in examples:
        if ex.media is not last:
            last, media = ex.media, _encode(ex.media)
        yield _LINE % (_encode(ex.id), _encode(ex.instruction), media,
                       _encode(ex.response), _encode(ex.source))


def write_examples(path: str, examples) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for line in example_lines(examples):
            f.write(line + "\n")


def _jsonl_records(path: str, parse) -> list:
    """parse(d) for the JSON object d on each non-blank line of a JSONL file;
    a SchemaError names the file and line."""
    out = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                d = json.loads(line)
                if not isinstance(d, dict):
                    raise SchemaError("not a JSON object")
                out.append(parse(d))
            except json.JSONDecodeError as e:
                raise SchemaError(f"{path}:{lineno}: invalid JSON ({e})") from e
            except SchemaError as e:
                raise SchemaError(f"{path}:{lineno}: {e}") from e
    return out


def read_examples(path: str) -> list:
    return _jsonl_records(path, InstructionExample.from_dict)


def read_captions(path: str) -> list:
    return _jsonl_records(path, CaptionRecord.from_dict)
