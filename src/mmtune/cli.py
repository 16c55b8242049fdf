"""Command-line entry point.

Exit codes: 0 success, 1 usage error, 2 ConfigError, 3 DataError or
OSError, 4 any other MMTuneError. Reports go to stdout, diagnostics to
stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import dataset as ds
from . import training
from .cognitive import generate_greedy
from .config import load_config
from .errors import ConfigError, DataError, MMTuneError
from .tokenizer import Vocab
from .training import build_sequence, evaluate, fit, load_checkpoint


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _int_from(low: int):
    """An argparse type: an int of at least `low`."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in its messages
    return parse


def _build_parser() -> _Parser:
    p = _Parser(prog="mmtune",
                description="Multi-modal instruction tuning at desk scale.")
    sub = p.add_subparsers(dest="command", metavar="COMMAND")

    def common(sp, *names):
        if "config" in names:
            sp.add_argument("--config", metavar="PATH", help="JSON run config")
        if "seed" in names:
            sp.add_argument("--seed", type=int, help="override the config seed")
        if "data" in names:
            sp.add_argument("--data", metavar="PATH", required=True)
        if "out" in names:
            sp.add_argument("--out", metavar="DIR_OR_PATH", required=True)
        if "checkpoint" in names:
            sp.add_argument("--checkpoint", metavar="PATH", required=True)

    sp = sub.add_parser("dataset-build",
                        help="build instruction examples from captions")
    common(sp, "data", "out")
    sp.add_argument("--fixtures", metavar="DIR",
                    help="mock-client fixtures directory "
                         f"(default ${ds.FIXTURES_ENV})")

    sp = sub.add_parser("dataset-stats", help="per-source dataset statistics")
    common(sp, "data")

    sp = sub.add_parser("train", help="fine-tune on an examples JSONL")
    common(sp, "config", "seed", "data", "out")
    sp.add_argument("--max-steps", type=_int_from(0), default=None)
    sp.add_argument("--resume", metavar="CKPT", default=None)

    sp = sub.add_parser("eval", help="response NLL and perplexity")
    common(sp, "checkpoint", "data")

    sp = sub.add_parser("generate", help="greedy decoding for one instruction")
    common(sp, "checkpoint")
    sp.add_argument("--instruction", required=True)
    sp.add_argument("--media", action="append", default=[],
                    metavar="KIND:PATH", help="repeatable; image:, video:, audio:")
    sp.add_argument("--max-new", type=_int_from(1), default=64)
    return p


def _cmd_dataset_build(args) -> int:
    captions = ds.read_captions(args.data)
    client = ds.MockGenerationClient(args.fixtures)
    examples, report = ds.generate_examples(captions, client)
    ds.write_examples(args.out, examples)
    print(f"wrote {len(examples)} examples to {args.out}"
          f" ({report.count()} captions skipped)")
    for cid, reason in report.skipped:
        print(f"skipped {cid}: {reason}", file=sys.stderr)
    return 0


def _cmd_dataset_stats(args) -> int:
    examples = ds.read_examples(args.data)
    print(ds.format_stats_table(ds.stats(examples)))
    return 0


def _cmd_train(args) -> int:
    cfg = load_config(args.config, seed=args.seed)
    objs = cfg["objects"]
    examples = ds.read_examples(args.data)
    n = cfg["data"]["mix"]["n_per_source"]
    if n is not None:
        by_source: dict = {}
        for ex in examples:
            by_source.setdefault(ex.source, []).append(ex)
        examples = ds.mix(by_source, n, objs["train"].seed)
    resume = load_checkpoint(args.resume) if args.resume else None
    start = resume.step if resume else 0
    os.makedirs(args.out, exist_ok=True)
    log_path = os.path.join(args.out, "metrics.jsonl")
    # a run keeps the log lines of the steps before its first, and only once
    # it has run a step or saved its checkpoint, so a run that fails before
    # then leaves the log of the run already there
    with open(log_path, "a+", encoding="utf-8") as log:
        def log_fn(m):
            if m["step"] == start:
                log.seek(0)
                kept = [line for line in log
                        if start and json.loads(line)["step"] < start]
                log.truncate(0)
                log.writelines(kept)
            log.write(json.dumps({"step": m["step"], "loss": m["loss"],
                                  "lr": m["lr"], "grad_norm": m["grad_norm"]},
                                 sort_keys=True) + "\n")

        ckpt, metrics = fit(examples, objs["model"], objs["modality"], Vocab(),
                            objs["train"], out_dir=args.out,
                            resume_from=resume, max_steps=args.max_steps,
                            log_fn=log_fn)
        if not (metrics or resume):
            log.truncate(0)
    print(f"trained {ckpt.step} steps; final loss "
          f"{metrics[-1]['loss']:.6f}" if metrics else
          f"trained {ckpt.step} steps (no optimizer updates)")
    print(f"checkpoint: {args.out}/final.ckpt; metrics: {log_path}")
    return 0


def _cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    examples = ds.read_examples(args.data)
    report = evaluate(examples, ckpt)
    print(json.dumps(report, sort_keys=True))
    return 0


def _cmd_generate(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    media = []
    for spec in args.media:
        kind, sep, path = spec.partition(":")
        if not sep:
            kind, path = "image", spec
        media.append({"kind": kind, "path": path})
    ex = ds.InstructionExample(id="cli", media=ds.check_media(media, "cli"),
                               instruction=args.instruction, response="-",
                               source="cli")
    seq = build_sequence(ex, ckpt.params, ckpt.dec_cfg, ckpt.mod_cfg,
                         ckpt.vocab, with_response=False)
    ids = generate_greedy(seq, args.max_new, ckpt.params, ckpt.dec_cfg)
    print(ckpt.vocab.decode(ids))
    return 0


_COMMANDS = {"dataset-build": _cmd_dataset_build,
             "dataset-stats": _cmd_dataset_stats,
             "train": _cmd_train,
             "eval": _cmd_eval,
             "generate": _cmd_generate}


def dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:  # --help
        return 0 if e.code in (0, None) else 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    # an OSError comes from a path the command was given or its data names
    except (DataError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except MMTuneError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
