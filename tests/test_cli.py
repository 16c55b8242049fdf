import json
import os

import pytest

from mmtune.cli import dispatch
from mmtune.config import default_config, load_config, validate_config
from mmtune.errors import ConfigError
from conftest import bogus_decoder_key, drop_dataset_key, rewrite_ckpt_config

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
        assert cfg["data"]["seed"] == 123


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
        # Adam's ranges: bias correction divides by 1 - beta**t
        ("train", "beta1", 1.0), ("train", "beta2", -0.1), ("train", "eps", 0),
        ("train", "weight_decay", -0.01),
        # modality geometry
        ("modality", "l_prime", 0), ("modality", "image_len", 0),
        ("modality", "video_frames", 3), ("modality", "audio_dim", 0),
        ("modality", "source_frames_default", 0),
        # decoder geometry
        ("model", "alignment_heads", 3), ("model", "d_e", 0),
        ("model", "d_ff", 0), ("model", "max_seq_len", 0)])
    def test_mistyped_or_out_of_range_value_exits_2(self, tmp_path, section,
                                                    key, value, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({section: {key: value}}))
        code = dispatch(["train", "--config", str(p), "--data", "x",
                         "--out", str(tmp_path)])
        assert code == 2
        assert key in capsys.readouterr().err

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

    @pytest.mark.parametrize("edit", [bogus_decoder_key, drop_dataset_key],
                             ids=["extra-key", "missing-dataset"])
    def test_eval_bad_config_block(self, tmp_path, trained, edit):
        p = tmp_path / "cfg.ckpt"
        p.write_bytes((trained["out"] / "final.ckpt").read_bytes())
        rewrite_ckpt_config(str(p), edit)
        assert dispatch(["eval", "--checkpoint", str(p),
                         "--data", trained["data"]]) == 3

    def test_generate_runs(self, trained, capsys):
        code = dispatch(["generate", "--checkpoint",
                         str(trained["out"] / "final.ckpt"),
                         "--instruction", "describe the scene",
                         "--media", "image:some/pic.jpg",
                         "--max-new", "8"])
        assert code == 0

    def test_generate_deterministic(self, trained, capsys):
        argv = ["generate", "--checkpoint", str(trained["out"] / "final.ckpt"),
                "--instruction", "hello", "--max-new", "8"]
        assert dispatch(argv) == 0
        a = capsys.readouterr().out
        assert dispatch(argv) == 0
        assert capsys.readouterr().out == a
