import json
import os
import shutil

import numpy as np
import pytest

from mmtune import cli, errors
from mmtune import dataset as ds
from mmtune.cli import dispatch
from mmtune.config import default_config, load_config, validate_config
from mmtune.encoders import save_features
from mmtune.errors import ConfigError
from mmtune.training import _dataset_hash, load_checkpoint
from conftest import (bogus_decoder_key, drop_dataset_key, rewrite_ckpt_config,
                      set_header, set_header_key, to_format_4, to_format_5)

DATA = os.path.join(os.path.dirname(__file__), "data")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TINY_MODEL = {"model": {"d_e": 16, "layers": 1, "heads": 2, "d_ff": 32,
                        "max_seq_len": 128},
              "modality": {"l_prime": 2, "image_len": 6, "image_dim": 5,
                           "video_frames": 4, "video_dim": 5, "audio_len": 6,
                           "audio_dim": 5}}


def write_cfg(tmp_path, name="cfg.json", **extra):
    cfg = json.loads(json.dumps(TINY_MODEL))
    for k, v in extra.items():
        cfg.setdefault(k, {}).update(v)
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


class TestConfig:
    def test_defaults_match_shipped_file(self):
        shipped = json.load(open(os.path.join(ROOT, "configs", "default.json")))
        merged = validate_config(shipped)
        t = merged["train"]
        assert t["lr_peak"] == 3e-5
        assert t["warmup_ratio"] == 0.03
        assert t["epochs"] == 5
        assert t["micro_batch"] == 4
        assert t["grad_accum"] == 3
        assert t["max_seq_len"] == 512
        assert shipped == default_config()

    def test_unknown_key_names_path(self):
        with pytest.raises(ConfigError, match="train.learnig_rate"):
            validate_config({"train": {"learnig_rate": 1}})

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="optimzer"):
            validate_config({"optimzer": {}})

    def test_int_for_float_field(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"train": {"lr_peak": 1, "max_grad_norm": 2}}))
        train = load_config(str(p))["objects"]["train"]
        assert (train.lr_peak, train.max_grad_norm) == (1, 2)

    def test_seed_override(self, tmp_path):
        p = write_cfg(tmp_path)
        cfg = load_config(p, seed=123)
        assert cfg["train"]["seed"] == 123
        assert "seed" not in cfg["data"]


class TestDispatchBasics:
    def test_help_exits_zero(self, capsys):
        assert dispatch(["--help"]) == 0
        out = capsys.readouterr().out
        for cmd in ("dataset-build", "dataset-stats", "train", "eval",
                    "generate"):
            assert cmd in out

    def test_no_command(self):
        assert dispatch([]) == 1

    def test_unknown_command(self):
        assert dispatch(["frobnicate"]) == 1

    def test_missing_required_flag(self):
        assert dispatch(["dataset-stats"]) == 1


# the exit code of every package error class: a new class must be given one
EXIT_CODES = {
    "ConfigError": 2,
    "DataError": 3, "SchemaError": 3, "EmptyDataset": 3, "SourceTooSmall": 3,
    "BadMagic": 3, "TruncatedFile": 3, "UnknownKind": 3, "CorruptPayload": 3,
    "VersionMismatch": 3,
    "MMTuneError": 4, "ShapeMismatch": 4, "KernelTooLarge": 4,
    "NotAttached": 4, "InvalidId": 4, "BadLength": 4, "MissingText": 4,
    "SequenceTooLong": 4, "NoResponseSpan": 4, "EmptyCaption": 4,
    "NoPairsFound": 4, "ClientError": 4}


class TestExitCodes:
    def test_every_error_class_has_an_exit_code(self):
        assert set(EXIT_CODES) == {
            name for name, c in vars(errors).items()
            if isinstance(c, type) and issubclass(c, errors.MMTuneError)}

    @pytest.mark.parametrize("name,code",
                             sorted(EXIT_CODES.items()) + [("OSError", 3)])
    def test_error_class_exit_code(self, monkeypatch, capsys, name, code):
        exc = OSError if name == "OSError" else getattr(errors, name)

        def read_examples(path):
            raise exc("boom")

        monkeypatch.setattr(ds, "read_examples", read_examples)
        assert dispatch(["dataset-stats", "--data", "x"]) == code
        prefix = {2: "config error", 3: "data error", 4: "error"}[code]
        assert capsys.readouterr().err == f"{prefix}: boom\n"


class TestDatasetCommands:
    def test_build_matches_golden(self, tmp_path, capsys):
        out = tmp_path / "built.jsonl"
        code = dispatch(["dataset-build", "--data",
                         os.path.join(DATA, "captions.jsonl"),
                         "--out", str(out),
                         "--fixtures", os.path.join(DATA, "fixtures")])
        assert code == 0
        assert "wrote 50 examples" in capsys.readouterr().out
        golden = open(os.path.join(DATA, "golden_build.jsonl"), "rb").read()
        assert out.read_bytes() == golden

    def test_build_fixtures_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MACAW_FIXTURES", os.path.join(DATA, "fixtures"))
        out = tmp_path / "built.jsonl"
        assert dispatch(["dataset-build", "--data",
                         os.path.join(DATA, "captions.jsonl"),
                         "--out", str(out)]) == 0

    def test_build_takes_no_config_or_seed(self, tmp_path):
        for flag, value in (("--config", write_cfg(tmp_path)), ("--seed", "1")):
            assert dispatch(["dataset-build", "--data",
                             os.path.join(DATA, "captions.jsonl"),
                             "--out", str(tmp_path / "built.jsonl"),
                             flag, value]) == 1

    def test_stats_table(self, capsys):
        code = dispatch(["dataset-stats", "--data",
                         os.path.join(DATA, "golden_build.jsonl")])
        assert code == 0
        out = capsys.readouterr().out
        assert "Dataset" in out and "Ins. Len." in out
        assert "COCO" in out

    def test_stats_missing_file(self):
        assert dispatch(["dataset-stats", "--data", "no/such.jsonl"]) == 3

    def test_stats_bad_schema(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"id": "x"}\n')
        assert dispatch(["dataset-stats", "--data", str(p)]) == 3

    def test_stats_non_object_line(self, tmp_path, capsys):
        p = tmp_path / "bad.jsonl"
        p.write_text("5\n")
        assert dispatch(["dataset-stats", "--data", str(p)]) == 3
        assert f"{p}:1: not a JSON object" in capsys.readouterr().err

    def test_stats_directory(self, tmp_path):
        assert dispatch(["dataset-stats", "--data", str(tmp_path)]) == 3

    @pytest.mark.parametrize("path", ["loop", "long"],
                             ids=["symlink-loop", "name-too-long"])
    def test_stats_unreadable_path(self, tmp_path, capsys, path):
        if path == "loop":
            p = tmp_path / "loop.jsonl"
            p.symlink_to(p)
        else:
            p = tmp_path / ("x" * 5000)
        assert dispatch(["dataset-stats", "--data", str(p)]) == 3
        assert capsys.readouterr().err.startswith("data error: ")

    def test_train_rejects_negative_frames(self, tmp_path, capsys):
        rec = {"id": "v", "source": "s", "instruction": "what", "response": "x",
               "media": [{"kind": "video", "path": "v.mp4", "frames": -3}]}
        p = tmp_path / "bad.jsonl"
        p.write_text(json.dumps(rec) + "\n")
        code = dispatch(["train", "--config", write_cfg(tmp_path), "--data",
                         str(p), "--out", str(tmp_path / "run"),
                         "--max-steps", "1"])
        assert code == 3
        assert "frames" in capsys.readouterr().err

    @pytest.mark.parametrize("kind,rows,match", [
        ("image", 6, "kind code 3"),   # the kind byte names no kind
        ("audio", 6, "audio"),         # features of another kind
        ("image", 5, r"(5, 5)"),       # a shape other than the configured one
        ("image", 6, "header incomplete"),
        ("image", 6, "unsupported version 2"),
        ("image", 6, "feature values must be finite")],
        ids=["kind-byte-3", "other-kind", "other-shape", "short-header",
             "version-2", "nan"])
    def test_train_bad_feature_file_exits_3(self, tmp_path, capsys, kind, rows,
                                            match):
        feats = tmp_path / "f.mcwf"
        save_features(str(feats), kind, np.zeros((rows, 5)))
        raw = bytearray(feats.read_bytes())
        if match == "kind code 3":
            raw[8] = 3  # after the magic and the u32 version
        elif match == "header incomplete":
            del raw[10:]  # of the header's 17 bytes
        elif match == "unsupported version 2":
            raw[4] = 2  # the u32 version's low byte
        elif match == "feature values must be finite":
            raw[-4:] = np.float32(np.nan).tobytes()  # the last value
        feats.write_bytes(bytes(raw))
        rec = {"id": "f", "source": "s", "instruction": "what", "response": "x",
               "media": [{"kind": "image", "path": str(feats)}]}
        p = tmp_path / "data.jsonl"
        p.write_text(json.dumps(rec) + "\n")
        code = dispatch(["train", "--config", write_cfg(tmp_path), "--data",
                         str(p), "--out", str(tmp_path / "run"),
                         "--max-steps", "1"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith(f"data error: {feats}: ") and match in err

    def test_build_empty_media_list_exits_3(self, tmp_path, capsys):
        p = tmp_path / "captions.jsonl"
        p.write_text(json.dumps({"caption": "a kayak", "id": "c", "media": [],
                                 "source": "COCO"}) + "\n")
        out = tmp_path / "built.jsonl"
        code = dispatch(["dataset-build", "--data", str(p), "--out", str(out),
                         "--fixtures", os.path.join(DATA, "fixtures")])
        assert code == 3
        assert "empty media list" in capsys.readouterr().err
        assert not out.exists()

    def test_build_without_fixtures_exits_4(self, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.delenv(ds.FIXTURES_ENV, raising=False)
        code = dispatch(["dataset-build", "--data",
                         os.path.join(DATA, "captions.jsonl"),
                         "--out", str(tmp_path / "built.jsonl")])
        assert code == 4
        assert "no fixtures directory" in capsys.readouterr().err

    def test_build_reports_an_unparseable_completion(self, tmp_path, capsys):
        captions = os.path.join(DATA, "captions.jsonl")
        fixtures = tmp_path / "fixtures"
        shutil.copytree(os.path.join(DATA, "fixtures"), fixtures)
        caption = ds.read_captions(captions)[1]
        key = ds.prompt_key(ds.build_prompt(caption))
        # prose with no Q:/A: pair in place of the caption's completion
        (fixtures / f"{key}.txt").write_text("A tennis player, seen mid-swing.")
        code = dispatch(["dataset-build", "--data", captions, "--out",
                         str(tmp_path / "built.jsonl"), "--fixtures",
                         str(fixtures)])
        captured = capsys.readouterr()
        assert code == 0
        assert "(1 captions skipped)" in captured.out
        assert captured.err == f"skipped {caption.id}: no Q/A pairs parsed\n"

    def test_build_blank_caption_exits_3(self, tmp_path, capsys):
        lines = open(os.path.join(DATA, "captions.jsonl"),
                     encoding="utf-8").read().splitlines()
        p = tmp_path / "captions.jsonl"
        p.write_text(lines[0] + "\n"
                     + json.dumps(dict(json.loads(lines[1]), caption=" \t"))
                     + "\n")
        out = tmp_path / "built.jsonl"
        code = dispatch(["dataset-build", "--data", str(p), "--out", str(out),
                         "--fixtures", os.path.join(DATA, "fixtures")])
        assert code == 3
        assert f"{p}:2: " in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A tiny trained checkpoint shared by train/eval/generate tests."""
    tmp = tmp_path_factory.mktemp("cli_train")
    cfg_path = write_cfg(tmp, train={"epochs": 2, "micro_batch": 2,
                                     "grad_accum": 2, "lr_peak": 1e-3,
                                     "max_seq_len": 128})
    data = os.path.join(DATA, "golden_build.jsonl")
    out = tmp / "run"
    code = dispatch(["train", "--config", cfg_path, "--data", data,
                     "--out", str(out), "--seed", "5", "--max-steps", "4"])
    assert code == 0
    return {"out": out, "cfg": cfg_path, "data": data}


class TestTrainEvalGenerate:
    def test_train_artifacts(self, trained):
        assert (trained["out"] / "final.ckpt").exists()
        lines = (trained["out"] / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 4
        rec = json.loads(lines[0])
        assert set(rec) == {"step", "loss", "lr", "grad_norm"}

    def test_resume_keeps_log(self, trained, tmp_path):
        out = tmp_path / "run"
        base = ["train", "--config", trained["cfg"], "--data", trained["data"],
                "--out", str(out), "--seed", "5"]
        assert dispatch(base + ["--max-steps", "1"]) == 0
        first = (out / "metrics.jsonl").read_text().splitlines()
        assert dispatch(base + ["--max-steps", "2", "--resume",
                                str(out / "final.ckpt")]) == 0
        lines = (out / "metrics.jsonl").read_text().splitlines()
        assert len(first) == 1 and len(lines) == 2
        assert lines[0] == first[0] and json.loads(lines[1])["step"] == 1

    def test_resume_from_an_earlier_checkpoint_rewrites_its_steps(
            self, trained, tmp_path):
        # 50 examples at 25 a step: two steps an epoch. Resuming from the
        # first epoch's checkpoint runs steps 2 and 3 again, and their lines
        # replace the ones already logged rather than follow them
        cfg = write_cfg(tmp_path, train={"epochs": 2, "micro_batch": 5,
                                         "grad_accum": 5, "lr_peak": 1e-3,
                                         "max_seq_len": 128})
        out = tmp_path / "run"
        base = ["train", "--config", cfg, "--data", trained["data"],
                "--out", str(out)]
        assert dispatch(base) == 0
        first = (out / "metrics.jsonl").read_text().splitlines()
        assert dispatch(base + ["--resume", str(out / "epoch1.ckpt")]) == 0
        lines = (out / "metrics.jsonl").read_text().splitlines()
        assert [json.loads(line)["step"] for line in lines] == [0, 1, 2, 3]
        assert lines == first  # the resume reproduces the run bitwise

    def test_failed_train_keeps_previous_log(self, trained, tmp_path):
        # the second run fails at its first step, on a feature file that
        # holds audio features for an image item
        out = tmp_path / "run"
        assert dispatch(["train", "--config", trained["cfg"], "--data",
                         trained["data"], "--out", str(out),
                         "--max-steps", "3"]) == 0
        feats = tmp_path / "f.mcwf"
        save_features(str(feats), "audio", np.zeros((6, 5)))
        rec = {"id": "f", "source": "s", "instruction": "what", "response": "x",
               "media": [{"kind": "image", "path": str(feats)}]}
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(rec) + "\n")
        assert dispatch(["train", "--config", trained["cfg"], "--data",
                         str(bad), "--out", str(out)]) == 3
        assert len((out / "metrics.jsonl").read_text().splitlines()) == 3

    def test_a_bad_feature_file_fails_train_before_step_0(self, trained,
                                                          tmp_path, capsys):
        # the last of 8 one-example steps' examples names features of 5 rows
        # for an image item, whose configured rows are 6
        out = tmp_path / "run"
        assert dispatch(["train", "--config", trained["cfg"], "--data",
                         trained["data"], "--out", str(out),
                         "--max-steps", "3"]) == 0
        log, files = (out / "metrics.jsonl").read_bytes(), os.listdir(out)
        feats = tmp_path / "f.mcwf"
        save_features(str(feats), "image", np.zeros((5, 5)))
        rec = {"id": "f", "source": "s", "instruction": "what", "response": "x",
               "media": [{"kind": "image", "path": str(feats)}]}
        lines = open(trained["data"], encoding="utf-8").read().splitlines()
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines[:7] + [json.dumps(rec)]) + "\n")
        cfg = write_cfg(tmp_path, name="steps.json",
                        train={"epochs": 1, "micro_batch": 1, "grad_accum": 1,
                               "max_seq_len": 128})
        capsys.readouterr()
        assert dispatch(["train", "--config", cfg, "--data", str(bad),
                         "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith(f"data error: {feats}: ")
        assert (out / "metrics.jsonl").read_bytes() == log
        assert sorted(os.listdir(out)) == sorted(files)

    def test_zero_steps_leave_an_empty_log(self, trained, tmp_path):
        out = tmp_path / "run"
        base = ["train", "--config", trained["cfg"], "--data", trained["data"],
                "--out", str(out)]
        assert dispatch(base + ["--max-steps", "2"]) == 0
        assert dispatch(base + ["--max-steps", "0"]) == 0
        assert (out / "metrics.jsonl").read_text() == ""

    @pytest.mark.parametrize("value", ["-2", "x"])
    def test_max_steps_below_0_is_a_usage_error(self, trained, tmp_path,
                                                capsys, value):
        out = tmp_path / "run"
        code = dispatch(["train", "--config", trained["cfg"], "--data",
                         trained["data"], "--out", str(out),
                         "--max-steps", value])
        assert code == 1
        assert "argument --max-steps" in capsys.readouterr().err
        assert not out.exists()

    def test_example_over_max_seq_len_exits_4(self, trained, tmp_path, capsys):
        # the tiny model's max_seq_len is 128; this response alone is longer
        rec = {"id": "long", "source": "s", "instruction": "say it all",
               "response": "a very long answer " * 10,
               "media": [{"kind": "image", "path": "p.jpg"}]}
        data = tmp_path / "long.jsonl"
        data.write_text(json.dumps(rec) + "\n")
        out = tmp_path / "run"
        code = dispatch(["train", "--config", trained["cfg"], "--data",
                         str(data), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.err.startswith("error: ") and "128" in captured.err
        assert captured.out == ""
        assert (out / "metrics.jsonl").read_text() == ""
        assert not list(out.glob("*.ckpt"))

    def test_n_per_source_trains_on_n_examples_per_source(self, trained,
                                                          tmp_path, capsys):
        # the build holds 30 COCO, 10 Charades and 10 AVSD examples
        cfg = write_cfg(tmp_path, data={"mix": {"n_per_source": 2}},
                        train={"epochs": 1, "micro_batch": 2, "grad_accum": 1,
                               "max_seq_len": 128})
        out = tmp_path / "run"
        assert dispatch(["train", "--config", cfg, "--data", trained["data"],
                         "--out", str(out), "--seed", "3"]) == 0
        assert "trained 3 steps" in capsys.readouterr().out
        by_source: dict = {}
        for ex in ds.read_examples(trained["data"]):
            by_source.setdefault(ex.source, []).append(ex)
        mixed = ds.mix(by_source, 2, 3)
        assert sorted(ex.source for ex in mixed) == ["AVSD"] * 2 + [
            "COCO"] * 2 + ["Charades"] * 2
        ckpt = load_checkpoint(str(out / "final.ckpt"))
        assert ckpt.dataset_hash == _dataset_hash(mixed)

    def test_n_per_source_mixes_with_the_train_seed(self, trained, tmp_path):
        # without --seed, the mix draws with train.seed, as the run does
        cfg = write_cfg(tmp_path, data={"mix": {"n_per_source": 2}},
                        train={"epochs": 1, "micro_batch": 2, "grad_accum": 1,
                               "max_seq_len": 128, "seed": 3})
        out = tmp_path / "run"
        assert dispatch(["train", "--config", cfg, "--data", trained["data"],
                         "--out", str(out), "--max-steps", "0"]) == 0
        by_source: dict = {}
        for ex in ds.read_examples(trained["data"]):
            by_source.setdefault(ex.source, []).append(ex)
        ckpt = load_checkpoint(str(out / "final.ckpt"))
        assert ckpt.dataset_hash == _dataset_hash(ds.mix(by_source, 2, 3))
        assert ckpt.dataset_hash != _dataset_hash(ds.mix(by_source, 2, 0))

    def test_source_smaller_than_n_exits_3(self, trained, tmp_path, capsys):
        cfg = write_cfg(tmp_path, data={"mix": {"n_per_source": 11}})
        out = tmp_path / "run"
        code = dispatch(["train", "--config", cfg, "--data", trained["data"],
                         "--out", str(out)])
        assert code == 3
        assert "has 10 < 11 examples" in capsys.readouterr().err
        assert not list(out.glob("*.ckpt"))

    def test_resume_with_other_config_exits_2(self, trained, tmp_path, capsys):
        code = dispatch(["train", "--config", trained["cfg"], "--data",
                         trained["data"], "--out", str(tmp_path), "--seed", "6",
                         "--resume", str(trained["out"] / "final.ckpt")])
        assert code == 2
        assert "does not match the checkpoint" in capsys.readouterr().err

    def test_resume_with_other_data_exits_2(self, trained, tmp_path, capsys):
        lines = open(trained["data"], encoding="utf-8").read().splitlines()
        data = tmp_path / "fewer.jsonl"
        data.write_text("\n".join(lines[:3]) + "\n")
        code = dispatch(["train", "--config", trained["cfg"], "--data",
                         str(data), "--out", str(tmp_path / "run"), "--seed", "5",
                         "--resume", str(trained["out"] / "final.ckpt")])
        assert code == 2
        assert "dataset does not match" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [100, 260, 2000])
    def test_vocab_size_is_an_unknown_key(self, trained, tmp_path, capsys,
                                          value):
        # the tokenizer alone fixes the vocabulary
        code = dispatch(["train", "--config",
                         write_cfg(tmp_path, model={"vocab_size": value}),
                         "--data", trained["data"], "--out",
                         str(tmp_path / "run"), "--max-steps", "1"])
        assert code == 2
        assert "unknown config key: model.vocab_size" in capsys.readouterr().err

    # constants, not settings: Adam's beta1, beta2 and eps and the stub's
    # raw frame count for a video that gives none; the mix draws with
    # train.seed
    @pytest.mark.parametrize("section,key,value", [
        ("train", "beta1", 0.9), ("train", "beta2", 0.999), ("train", "eps", 1e-8),
        ("modality", "source_frames_default", 32), ("data", "seed", 0)])
    def test_removed_setting_is_an_unknown_key(self, tmp_path, capsys, section,
                                               key, value):
        p = tmp_path / "old.json"
        p.write_text(json.dumps({section: {key: value}}))
        code = dispatch(["train", "--config", str(p), "--data", "x",
                         "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: unknown config key: {section}.{key}\n")

    @pytest.mark.parametrize("config", ["missing", "directory", "not-utf8"])
    def test_unreadable_config_exits_2(self, trained, tmp_path, capsys, config):
        p = tmp_path / "cfg.json"
        if config == "directory":
            p.mkdir()
        elif config == "not-utf8":
            p.write_bytes(b'{"seed": "\xff"}')
        code = dispatch(["train", "--config", str(p), "--data", trained["data"],
                         "--out", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("out", ["f", "f/run"], ids=["file", "under-a-file"])
    def test_train_out_over_a_file_exits_3(self, trained, tmp_path, capsys, out):
        (tmp_path / "f").write_text("not a directory")
        code = dispatch(["train", "--config", trained["cfg"], "--data",
                         trained["data"], "--out", str(tmp_path / out),
                         "--max-steps", "1"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("data error: ") and err.count("\n") == 1

    def test_config_error_exit_code(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"train": {"learnig_rate": 1}}))
        code = dispatch(["train", "--config", str(p), "--data", "x",
                         "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("section,key,value", [
        ("model", "d_e", 64.9), ("modality", "l_prime", 4.7),
        ("train", "micro_batch", 2.5), ("train", "freeze_embedding", "false"),
        ("train", "max_grad_norm", -1), ("model", "alignment_heads", 0),
        ("model", "heads", 0), ("model", "layers", True),
        ("train", "lr_peak", "3e-5"),
        # non-finite floats, which json.load accepts
        ("train", "lr_peak", float("nan")),
        ("train", "max_grad_norm", float("inf")),
        ("train", "weight_decay", float("-inf")),
        ("train", "weight_decay", -0.01),
        # modality geometry
        ("modality", "l_prime", 0), ("modality", "image_len", 0),
        ("modality", "video_frames", 3), ("modality", "audio_dim", 0),
        # decoder geometry
        ("model", "alignment_heads", 3), ("model", "d_e", 0),
        ("model", "d_ff", 0), ("model", "max_seq_len", 0),
        # the data section: the per-source sample count (a dict value's id
        # is positional, so these name theirs)
        pytest.param("data", "mix", {"n_per_source": -1},
                     id="data-mix-value28"),
        pytest.param("data", "mix", {"n_per_source": 0},
                     id="data-mix-value29"),
        pytest.param("data", "mix", {"n_per_source": "3"},
                     id="data-mix-value30"),
        pytest.param("data", "mix", {"n_per_source": True},
                     id="data-mix-value31"),
        # numpy's generators take no negative seed; a decoder needs a layer
        ("train", "seed", -1), ("model", "layers", 0),
        # the schedule's warm-up share and the loss reduction
        ("train", "warmup_ratio", 0), ("train", "warmup_ratio", 1),
        ("train", "loss_reduction", "max")])
    def test_mistyped_or_out_of_range_value_exits_2(self, tmp_path, section,
                                                    key, value, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({section: {key: value}}))
        code = dispatch(["train", "--config", str(p), "--data", "x",
                         "--out", str(tmp_path)])
        assert code == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("user,match", [
        ([1], "config root must be a JSON object"),
        ({"train": 5}, "config key train must be an object")],
        ids=["root-list", "section-int"])
    def test_config_not_an_object_exits_2(self, tmp_path, capsys, user, match):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(user))
        code = dispatch(["train", "--config", str(p), "--data", "x",
                         "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == f"config error: {match}\n"

    def test_negative_seed_flag_exits_2(self, tmp_path, capsys):
        code = dispatch(["train", "--data", "x", "--out", str(tmp_path),
                         "--seed", "-1"])
        assert code == 2
        assert "seed must be >= 0" in capsys.readouterr().err

    def test_eval_report(self, trained, capsys):
        code = dispatch(["eval", "--checkpoint",
                         str(trained["out"] / "final.ckpt"),
                         "--data", trained["data"]])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert set(rep) == {"mean_response_nll", "perplexity", "n_examples"}

    def test_eval_bad_checkpoint(self, tmp_path, trained):
        p = tmp_path / "junk.ckpt"
        p.write_bytes(b"JUNKJUNK")
        assert dispatch(["eval", "--checkpoint", str(p),
                         "--data", trained["data"]]) == 3

    def test_eval_checkpoint_directory(self, tmp_path, trained):
        assert dispatch(["eval", "--checkpoint", str(tmp_path),
                         "--data", trained["data"]]) == 3

    @pytest.mark.parametrize("edit", [bogus_decoder_key, drop_dataset_key,
                                      set_header("decoder", "layers", 2)],
                             ids=["extra-key", "missing-dataset", "layers"])
    def test_eval_bad_config_block(self, tmp_path, trained, edit):
        p = tmp_path / "cfg.ckpt"
        p.write_bytes((trained["out"] / "final.ckpt").read_bytes())
        rewrite_ckpt_config(str(p), edit)
        assert dispatch(["eval", "--checkpoint", str(p),
                         "--data", trained["data"]]) == 3

    def test_eval_format_4_checkpoint_exits_3(self, tmp_path, trained, capsys):
        p = tmp_path / "v4.ckpt"
        p.write_bytes((trained["out"] / "final.ckpt").read_bytes())
        to_format_4(str(p))
        assert dispatch(["eval", "--checkpoint", str(p),
                         "--data", trained["data"]]) == 3
        assert "checkpoint version 4" in capsys.readouterr().err

    def test_eval_format_5_checkpoint_exits_3(self, tmp_path, trained, capsys):
        p = tmp_path / "v5.ckpt"
        p.write_bytes((trained["out"] / "final.ckpt").read_bytes())
        to_format_5(str(p))
        assert dispatch(["eval", "--checkpoint", str(p),
                         "--data", trained["data"]]) == 3
        assert "checkpoint version 5" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        set_header_key("step", -1), set_header_key("step", "1"),
        set_header_key("adam_t", -5)], ids=["step--1", "step-str", "adam_t--5"])
    def test_resume_from_a_bad_step_count_exits_3(self, tmp_path, trained,
                                                  capsys, edit):
        p = tmp_path / "bad.ckpt"
        p.write_bytes((trained["out"] / "final.ckpt").read_bytes())
        rewrite_ckpt_config(str(p), edit)
        code = dispatch(["train", "--config", trained["cfg"], "--data",
                         trained["data"], "--out", str(tmp_path / "run"),
                         "--seed", "5", "--resume", str(p)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith(f"data error: {p}: ")
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["eval", "generate"])
    def test_non_finite_features_exit_3(self, tmp_path, trained, capsys,
                                        command):
        feats = tmp_path / "f.mcwf"
        save_features(str(feats), "image", np.full((6, 5), np.inf))
        ckpt = str(trained["out"] / "final.ckpt")
        if command == "eval":
            rec = {"id": "f", "source": "s", "instruction": "what",
                   "response": "x", "media": [{"kind": "image",
                                               "path": str(feats)}]}
            p = tmp_path / "data.jsonl"
            p.write_text(json.dumps(rec) + "\n")
            argv = ["eval", "--checkpoint", ckpt, "--data", str(p)]
        else:
            argv = ["generate", "--checkpoint", ckpt, "--instruction", "what",
                    "--media", f"image:{feats}", "--max-new", "2"]
        assert dispatch(argv) == 3
        assert capsys.readouterr().err == (f"data error: {feats}: feature "
                                           f"values must be finite\n")

    def test_generate_runs(self, trained, capsys):
        code = dispatch(["generate", "--checkpoint",
                         str(trained["out"] / "final.ckpt"),
                         "--instruction", "describe the scene",
                         "--media", "image:some/pic.jpg",
                         "--max-new", "8"])
        assert code == 0

    @pytest.mark.parametrize("spec,error", [
        ("bogus:x", "kind 'bogus'"),
        # a kind with an empty path is checked as such, not taken as an image
        ("audio:", "non-empty string path"), ("bogus:", "non-empty string path")],
        ids=["bogus:x", "audio:", "bogus:"])
    def test_generate_unknown_media_kind_exits_3(self, trained, capsys, spec,
                                                 error):
        code = dispatch(["generate", "--checkpoint",
                         str(trained["out"] / "final.ckpt"),
                         "--instruction", "hi", "--media", spec])
        assert code == 3
        assert error in capsys.readouterr().err

    def test_generate_media_without_kind_is_an_image(self, trained, capsys,
                                                     monkeypatch):
        seen = []
        build_sequence = cli.build_sequence

        def recording_build(ex, *args, **kwargs):
            seen.append(ex.media)
            return build_sequence(ex, *args, **kwargs)

        monkeypatch.setattr(cli, "build_sequence", recording_build)
        code = dispatch(["generate", "--checkpoint",
                         str(trained["out"] / "final.ckpt"),
                         "--instruction", "hi", "--media", "photo.jpg",
                         "--max-new", "2"])
        assert code == 0
        assert seen == [({"kind": "image", "path": "photo.jpg"},)]

    def test_max_new_over_the_room_exits_4(self, trained, capsys):
        code = dispatch(["generate", "--checkpoint",
                         str(trained["out"] / "final.ckpt"),
                         "--instruction", "hi", "--max-new", "1000"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.err.startswith("error: ") and "max 128" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["-5", "0"])
    def test_max_new_below_1_is_a_usage_error(self, trained, capsys, value):
        code = dispatch(["generate", "--checkpoint",
                         str(trained["out"] / "final.ckpt"),
                         "--instruction", "hi", "--max-new", value])
        captured = capsys.readouterr()
        assert code == 1
        assert "argument --max-new: must be >= 1" in captured.err
        assert captured.out == ""

    def test_generate_deterministic(self, trained, capsys):
        argv = ["generate", "--checkpoint", str(trained["out"] / "final.ckpt"),
                "--instruction", "hello", "--max-new", "8"]
        assert dispatch(argv) == 0
        a = capsys.readouterr().out
        assert dispatch(argv) == 0
        assert capsys.readouterr().out == a
