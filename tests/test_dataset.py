import json
import os
import re
import shutil
import types

import pytest

from mmtune.dataset import (CaptionRecord, InstructionExample,
                            MockGenerationClient, build_prompt, example_lines,
                            format_stats_table, generate_examples, mix,
                            parse_qa_pairs, prompt_key, read_captions,
                            read_examples, stats, write_examples)
from mmtune.errors import (ClientError, EmptyCaption, EmptyDataset,
                           NoPairsFound, SchemaError, SourceTooSmall)
from mmtune.training import _dataset_hash

DATA = os.path.join(os.path.dirname(__file__), "data")


def caption(kind="image", cid="c1", text="A man paddles a kayak."):
    return CaptionRecord(id=cid, media=({"kind": kind, "path": f"{cid}.bin"},),
                         caption=text, source="COCO")


class TestBuildPrompt:
    def test_contains_ten_pairs_phrase(self):
        assert "ten pairs of instructions and responses" in build_prompt(caption())

    def test_kind_wording(self):
        assert "caption of an image:" in build_prompt(caption("image"))
        assert "caption of a video:" in build_prompt(caption("video"))
        assert "image" not in build_prompt(caption("video")).split(
            "Please ensure")[0]

    def test_caption_substituted(self):
        p = build_prompt(caption(text="A dog on a field."))
        assert "A dog on a field." in p

    def test_qa_line_format_instructions(self):
        p = build_prompt(caption())
        assert 'start with "Q:"' in p
        assert 'start with "A:"' in p

    def test_empty_caption(self):
        with pytest.raises(EmptyCaption):
            build_prompt(caption(text="   "))


CANONICAL_DIALOGUE = """Q: Can you describe the color of the river in the image?
A: The river in the image appears to be a tranquil shade of blue.

Q: What type of boat is the man in the image paddling?
A: The man in the image is paddling a kayak.

Q: How do you think the man in the image is feeling while paddling down the river?
A: Judging by the peaceful surroundings and the calm pace of the paddling, it's likely that the man in the image is feeling relaxed and at ease.
"""


class TestParseQaPairs:
    def test_canonical_form(self):
        assert parse_qa_pairs("Q: a\nA: b\n\nQ: c\nA: d") == [("a", "b"), ("c", "d")]

    def test_dialogue_first_pair(self):
        pairs = parse_qa_pairs(CANONICAL_DIALOGUE)
        assert pairs[0] == (
            "Can you describe the color of the river in the image?",
            "The river in the image appears to be a tranquil shade of blue.")
        assert len(pairs) == 3

    def test_no_pairs(self):
        with pytest.raises(NoPairsFound):
            parse_qa_pairs("no markers here")

    def test_interleaved_prose_breaks_pair(self):
        with pytest.raises(NoPairsFound):
            parse_qa_pairs("Q: a\nsome prose\nA: b")

    @pytest.mark.parametrize("n", range(1, 16))
    def test_cap_at_ten(self, n):
        text = "\n".join(f"Q: q{i}\nA: a{i}" for i in range(n))
        assert len(parse_qa_pairs(text)) == min(n, 10)


class TestGenerateExamples:
    def test_five_captions_fifty_examples(self):
        caps = read_captions(os.path.join(DATA, "captions.jsonl"))
        client = MockGenerationClient(os.path.join(DATA, "fixtures"))
        examples, report = generate_examples(caps, client)
        assert len(examples) == 50
        assert report.count() == 0

    def test_matches_golden_jsonl(self, tmp_path):
        caps = read_captions(os.path.join(DATA, "captions.jsonl"))
        client = MockGenerationClient(os.path.join(DATA, "fixtures"))
        examples, _ = generate_examples(caps, client)
        out = tmp_path / "built.jsonl"
        write_examples(str(out), examples)
        golden = open(os.path.join(DATA, "golden_build.jsonl"), "rb").read()
        assert out.read_bytes() == golden

    def test_idempotent(self):
        caps = read_captions(os.path.join(DATA, "captions.jsonl"))
        client = MockGenerationClient(os.path.join(DATA, "fixtures"))
        a, _ = generate_examples(caps, client)
        b, _ = generate_examples(caps, client)
        assert a == b

    def test_malformed_completion_skipped(self, tmp_path):
        caps = read_captions(os.path.join(DATA, "captions.jsonl"))
        fixdir = tmp_path / "fixtures"
        fixdir.mkdir()
        for f in os.listdir(os.path.join(DATA, "fixtures")):
            shutil.copy(os.path.join(DATA, "fixtures", f), fixdir / f)
        # corrupt one caption's completion
        bad_key = prompt_key(build_prompt(caps[0]))
        (fixdir / f"{bad_key}.txt").write_text("nothing to parse here")
        examples, report = generate_examples(caps, MockGenerationClient(str(fixdir)))
        assert len(examples) == 40
        assert report.count() == 1
        assert report.skipped[0][0] == caps[0].id

    def test_client_error_carries_partials(self, tmp_path):
        caps = read_captions(os.path.join(DATA, "captions.jsonl"))
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(ClientError) as exc:
            generate_examples(caps, MockGenerationClient(str(empty)))
        assert exc.value.partial == []

    def test_client_error_keeps_earlier_captions(self, tmp_path):
        caps = read_captions(os.path.join(DATA, "captions.jsonl"))
        fixdir = tmp_path / "fixtures"
        fixdir.mkdir()
        for c in caps[:2]:
            name = prompt_key(build_prompt(c)) + ".txt"
            shutil.copy(os.path.join(DATA, "fixtures", name), fixdir / name)
        want, _ = generate_examples(
            caps[:2], MockGenerationClient(os.path.join(DATA, "fixtures")))
        with pytest.raises(ClientError, match=caps[2].id) as exc:
            generate_examples(caps, MockGenerationClient(str(fixdir)))
        assert len(want) == 20
        assert exc.value.partial == want

    def test_retries_then_success(self):
        calls = {"n": 0}

        class Flaky(MockGenerationClient):
            def __init__(self):
                self.fixtures_dir = "unused"

            def complete(self, prompt):
                calls["n"] += 1
                if calls["n"] < 3:
                    raise ClientError("transient")
                return "Q: q\nA: a"

        examples, _ = generate_examples([caption()], Flaky())
        assert len(examples) == 1
        assert calls["n"] == 3


class TestMockClient:
    @staticmethod
    def no_fixture(tmp_path, as_dir):
        """A fixtures directory without the fixture for caption(); when
        `as_dir`, a directory stands at the fixture's path."""
        key = prompt_key(build_prompt(caption()))
        if as_dir:
            (tmp_path / f"{key}.txt").mkdir()
        return key, str(tmp_path)

    @pytest.mark.parametrize("as_dir", [False, True], ids=["missing", "directory"])
    def test_no_fixture_names_key(self, tmp_path, as_dir):
        key, fixtures = self.no_fixture(tmp_path, as_dir)
        with pytest.raises(ClientError, match=f"^no fixture for prompt key {key}$"):
            MockGenerationClient(fixtures).complete(build_prompt(caption()))

    def test_fixtures_path_not_a_directory(self, tmp_path):
        (tmp_path / "file").write_text("x")
        with pytest.raises(ClientError, match="no fixture for prompt key"):
            MockGenerationClient(str(tmp_path / "file")).complete("p")

    @pytest.mark.parametrize("as_dir", [False, True], ids=["missing", "directory"])
    def test_retried_then_partial_attached(self, tmp_path, as_dir):
        _, fixtures = self.no_fixture(tmp_path, as_dir)
        calls = []

        class Counting(MockGenerationClient):
            def complete(self, prompt):
                calls.append(prompt)
                return super().complete(prompt)

        with pytest.raises(ClientError, match="c1") as exc:
            generate_examples([caption()], Counting(fixtures))
        assert len(calls) == 3
        assert exc.value.partial == []


def ex(i, source="s", instruction="what is this", response="a thing"):
    return InstructionExample(id=f"e{i}", media=({"kind": "image", "path": "p"},),
                              instruction=instruction, response=response,
                              source=source)


class TestMix:
    def test_full_take_is_permutation(self):
        srcs = {"a": [ex(i, "a") for i in range(5)],
                "b": [ex(i + 10, "b") for i in range(5)]}
        out = mix(srcs, 5, seed=1)
        assert sorted(e.id for e in out) == sorted(
            e.id for e in srcs["a"] + srcs["b"])

    def test_deterministic(self):
        srcs = {"a": [ex(i, "a") for i in range(20)]}
        assert mix(srcs, 10, seed=3) == mix(srcs, 10, seed=3)

    def test_source_too_small(self):
        with pytest.raises(SourceTooSmall):
            mix({"a": [ex(i) for i in range(49)]}, 50, seed=0)

    def test_size_and_no_duplicates(self):
        srcs = {"a": [ex(i, "a") for i in range(30)],
                "b": [ex(i + 100, "b") for i in range(40)]}
        out = mix(srcs, 25, seed=9)
        assert len(out) == 50
        assert len({e.id for e in out}) == 50


class TestStats:
    def test_hand_computed_average(self):
        examples = [ex(0, instruction="one two three four"),
                    ex(1, instruction="one two three four five six")]
        table = stats(examples)
        assert table["s"]["items"] == 2
        assert table["s"]["ins_len"] == 5.0

    def test_table_layout(self):
        text = format_stats_table(stats([ex(0), ex(1, "t")]))
        header = text.splitlines()[0]
        for col in ("Dataset", "Items", "Ins. Len.", "Res. Len."):
            assert col in header

    def test_empty(self):
        with pytest.raises(EmptyDataset):
            stats([])


def json_dumps_line(ex):
    """The line format example_lines must reproduce byte for byte."""
    return json.dumps(ex.to_dict(), ensure_ascii=False, sort_keys=True)


BASE = dict(id="e0", media=({"kind": "image", "path": "a.jpg"},),
            instruction="q", response="a", source="s")


class TestExampleLines:
    @pytest.mark.parametrize("fields", [
        dict(instruction="Qu'est-ce que c'est ? 这是什么",
             response="Ünïcödé — ✓ 🙂"),
        dict(instruction='say "hi" \\ there\nnext',
             response="tab\there\r\x00\x1f\x7f"),
        dict(media=({"kind": "video", "path": "v.mp4", "frames": 8},)),
        dict(media=({"path": "b.jpg", "kind": "image"},
                    {"path": "c.wav", "kind": "audio", "extra": [1, "x"]})),
        dict(media=()),
        dict(id=7),
        dict(source="Ä\u2028\u2029"),
    ], ids=["non-ascii", "escapes", "video-frames", "unsorted-extra-key",
            "empty-media", "int-id", "source-separators"])
    def test_matches_json_dumps(self, fields):
        ex = InstructionExample(**{**BASE, **fields})
        assert list(example_lines([ex])) == [json_dumps_line(ex)]

    def test_shared_and_equal_media_runs(self):
        shared = ({"kind": "video", "path": "v.mp4", "frames": 3},)
        equal = ({"kind": "video", "path": "v.mp4", "frames": 3},)
        other = ({"path": "p.jpg", "kind": "image"},)

        def make(i, media):
            return InstructionExample(id=f"e{i}", media=media, instruction=f"q{i}",
                                      response=f"a{i}", source="s")

        examples = [make(0, shared), make(1, shared), make(2, equal),
                    make(3, other), make(4, shared), make(5, shared),
                    make(6, ())]
        assert list(example_lines(examples)) == [json_dumps_line(e)
                                                 for e in examples]

    def test_freed_media_not_matched(self):
        # one record whose media tuple is freed before the next is made, so
        # the next may land at the freed tuple's address: an id()-keyed
        # cache would match it and repeat the previous encoding
        rec, want = types.SimpleNamespace(instruction="q", response="a",
                                          source="s"), []

        def records():
            for i in range(50):
                rec.media = None
                rec.id, rec.media = f"e{i}", ({"kind": "image",
                                               "path": f"{i}.jpg"},)
                want.append(json.dumps(vars(rec), ensure_ascii=False,
                                       sort_keys=True))
                yield rec

        assert list(example_lines(records())) == want

    def test_dataset_hash_pinned(self):
        # blake2b-128 of the golden file's bytes: checkpoints written before
        # the line builder changed keep resuming on the same data
        examples = read_examples(os.path.join(DATA, "golden_build.jsonl"))
        assert _dataset_hash(examples) == "a46afeb75dc8109f059c7b5569c822a8"
        caps = read_captions(os.path.join(DATA, "captions.jsonl"))
        built, _ = generate_examples(
            caps, MockGenerationClient(os.path.join(DATA, "fixtures")))
        assert _dataset_hash(built) == "a46afeb75dc8109f059c7b5569c822a8"


class TestJsonl:
    def test_roundtrip(self, tmp_path):
        examples = [ex(i) for i in range(3)]
        p = str(tmp_path / "x.jsonl")
        write_examples(p, examples)
        assert read_examples(p) == examples

    def test_schema_errors(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text(json.dumps({"id": "x", "source": "s"}) + "\n")
        with pytest.raises(SchemaError):
            read_examples(str(p))
        p.write_text("{not json\n")
        with pytest.raises(SchemaError):
            read_examples(str(p))

    @pytest.mark.parametrize("reader", [read_examples, read_captions])
    @pytest.mark.parametrize("line", ["5", "[1, 2]", '"text"', "null"])
    def test_non_object_line_names_file_and_line(self, tmp_path, reader, line):
        p = tmp_path / "bad.jsonl"
        p.write_text("\n" + line + "\n")
        with pytest.raises(SchemaError) as exc:
            reader(str(p))
        assert str(exc.value) == f"{p}:2: not a JSON object"

    def test_example_schema_error_names_file_and_line(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text(json.dumps(ex(0).to_dict()) + "\n"
                     + json.dumps({"id": "x", "source": "s"}) + "\n")
        with pytest.raises(SchemaError, match="^" + str(p) + ":2: "):
            read_examples(str(p))

    @pytest.mark.parametrize("frames", [-3, 0, "12", True, 2.5, None],
                             ids=["negative", "zero", "string", "bool", "float",
                                  "null"])
    def test_frames_must_be_positive_int(self, tmp_path, frames):
        media = [{"kind": "video", "path": "v.mp4", "frames": frames}]
        p = tmp_path / "bad.jsonl"
        p.write_text(json.dumps(dict(ex(0).to_dict(), media=media)) + "\n")
        with pytest.raises(SchemaError, match=":1: .*frames"):
            read_examples(str(p))
        p.write_text(json.dumps({"id": "c", "media": media, "caption": "a dog",
                                 "source": "s"}) + "\n")
        with pytest.raises(SchemaError, match=":1: .*frames"):
            read_captions(str(p))

    @pytest.mark.parametrize("field,value", [
        ("media", 5), ("media", [5]), ("media", [None]),
        ("media", [{"kind": "image", "path": 3}]),
        ("media", [{"kind": "image", "path": ""}]),
        ("media", [{"kind": "image", "path": None}]),
        ("instruction", 7), ("response", ["a"]), ("caption", 7)],
        ids=["media-int", "item-int", "item-null", "path-int", "path-empty",
             "path-null", "instruction-int", "response-list", "caption-int"])
    def test_field_types_checked(self, tmp_path, field, value):
        if field == "caption":
            rec, reader = {"id": "c", "media": [{"kind": "image", "path": "p"}],
                           "caption": value, "source": "s"}, read_captions
        else:
            rec, reader = dict(ex(0).to_dict(), **{field: value}), read_examples
        p = tmp_path / "bad.jsonl"
        p.write_text(json.dumps(rec) + "\n")
        with pytest.raises(SchemaError, match=f"^{re.escape(str(p))}:1: "):
            reader(str(p))

    def test_positive_frames_accepted(self, tmp_path):
        media = [{"kind": "video", "path": "v.mp4", "frames": 1}]
        p = tmp_path / "ok.jsonl"
        p.write_text(json.dumps(dict(ex(0).to_dict(), media=media)) + "\n")
        assert read_examples(str(p))[0].media[0]["frames"] == 1

    def test_text_only_examples_allowed(self, tmp_path):
        # text instruction data travels through the same schema with no media
        rec = {"id": "t1", "source": "alpaca", "media": [],
               "instruction": "say hi", "response": "hi"}
        p = tmp_path / "t.jsonl"
        p.write_text(json.dumps(rec) + "\n")
        loaded = read_examples(str(p))
        assert loaded[0].media == ()
