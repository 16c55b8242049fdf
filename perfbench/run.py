"""mmtune benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload short --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``. Each workload runs the whole user pipeline at one input scale:
one set-up, then generate, fine-tune, evaluate, dataset-build and repeated
set-up units interleaved, each unit kind taking a fixed share of
``--seconds``:

* ``short``: the learnability setup (max_seq_len 128, micro 4 x accum 4,
  lr 3e-3), ~30-token examples whose media recur across epochs, 80-token
  decodes. Per-call Python overhead and per-media encode/align dominate.
* ``long``: the shipped configs/default.json (max_seq_len 512, micro 4 x
  accum 3, lr 3e-5), 350-480-token examples with unique video+audio,
  one epoch with checkpoint writes, 400-token decodes. O(n^2) attention,
  backward and decode recompute dominate.

The first prompt group and the first decode run before any training, so
the memory high-water mark after them is that of generation alone.

Units of different kinds are interleaved so that every kind samples the
whole run. A shared machine's speed drifts by tens of percent over
minutes, and whole runs fall in slow or fast stretches, so untraced runs
interleave a yardstick too, fixed work that uses no library code, and
report every time and rate at the yardstick's nominal speed: each unit is
scaled by the time of a yardstick part around it over that part's
YARDSTICK_S. A library change still moves a scaled figure by the same
factor as the raw one.

With ``--trace 1`` the units of each kind alternate untraced and traced;
the first traced unit of each kind gives the per-layer calls and self
times, and the traced/untraced wall ratio gives the tracing overhead. The
last stdout line is the result JSON; the line before it holds the
machine, sample counts and operation counts, and perfbench/out/ keeps both
(and the spans of a traced run). Every check that fails counts its
operations as failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")
SETUP_UNITS = 11   # at least; more if the set-up share allows
MIN_UNITS = 2
LATENCY_GROUPS = 10  # untraced prompt groups at least: 200 requests, 20 beyond p90
# about the yardstick parts' median times on the machine in BASELINE.md
YARDSTICK_S = {"model": 0.04, "text": 0.02}
YARD_NEAR = 9        # yardstick runs nearest a unit give the speed around it

# Unit-kind shares of --seconds, and the input sizes of one unit.
WORKLOADS = {
    "short": {
        "config": {"model": {"max_seq_len": 128},
                   "train": {"lr_peak": 3e-3, "epochs": 4, "micro_batch": 4,
                             "grad_accum": 4, "max_seq_len": 128}},
        "shares": {"fit": 0.32, "eval": 0.1, "prompt": 0.1, "decode": 0.18,
                   "dataset": 0.14, "setup": 0.08, "yardstick": 0.08},
        "fit_examples": 48, "fit_media": 12, "instr_chars": 14, "resp_chars": 12,
        "long_inputs": False, "loss_must_drop": True,
        "prompt_group": 20, "max_new": 80, "decode_pool": 3, "request_chars": 24,
        "captions": 200, "unparseable_every": 8,
    },
    "long": {
        "config": {"train": {"epochs": 1}},
        # two decodes take about 23 s whatever the decode share
        "shares": {"fit": 0.26, "eval": 0.1, "prompt": 0.1, "decode": 0.24,
                   "dataset": 0.14, "setup": 0.08, "yardstick": 0.08},
        # response lengths 299..429 give 350..480-token sequences with the
        # 8 soft tokens, BOS, 40 instruction bytes, SEP and EOS
        # one optimizer step a unit, so a run has about ten to take the median of
        "fit_examples": 12, "eval_examples": 8, "instr_chars": 40,
        "resp_lo": 299, "resp_hi": 429,
        "long_inputs": True, "loss_must_drop": False,
        "prompt_group": 20, "max_new": 400, "decode_pool": 1, "request_chars": 24,
        "captions": 200, "unparseable_every": 8,
    },
}

END_TO_END = {  # name -> unit
    "setup_s": "s", "peak_rss_mb": "MB", "generate_peak_rss_mb": "MB",
    "train_examples_per_s": "1/s", "train_loss_final": "nats",
    "eval_examples_per_s": "1/s", "eval_nll": "nats",
    "decode_tokens_per_s": "1/s", "first_token_ms_p50": "ms",
    "first_token_ms_p90": "ms",
    "build_captions_per_s": "1/s", "read_examples_per_s": "1/s",
}


def pin_blas() -> None:
    """One BLAS thread, matching the library's one-core design; must run
    before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


@dataclass
class Unit:
    ops: int                 # operations attempted: steps, examples, requests, captions
    failed: int = 0
    values: dict = field(default_factory=dict)
    t: float = 0.0           # perf_counter at the middle of the unit


@dataclass
class Kind:
    """One kind of unit: prepare(i) builds its inputs untimed, run(i, inputs)
    does and checks the work and returns a Unit."""

    name: str
    ops: int
    prepare: object
    run: object
    min_units: int = MIN_UNITS
    share: float = 0.0
    used: float = 0.0
    units: list = field(default_factory=list)   # (wall s, Unit, traced)
    record: object = None                       # first traced unit's Record
    record_wall: float = 0.0
    rss_mb: float = 0.0                         # peak RSS after unit 0
    yard: str = "model"                         # the yardstick part scaling it

    def due(self, seconds: float, tracing: bool) -> bool:
        n = len(self.units)
        return (n < self.min_units or self.used < self.share * seconds
                or (tracing and n % 2 == 1))

    def passed(self) -> list:
        """Every untraced unit that passed its checks; every untraced unit
        when none passed (the run then reports correct: false)."""
        units = [u for _, u, traced in self.units if not traced]
        return [u for u in units if not u.failed] or units


def run_kinds(kinds, seconds, tracer, log) -> None:
    """Interleave units, always running the kind furthest behind its share,
    until every kind has used its share (and has MIN_UNITS units, and whole
    untraced/traced pairs when tracing)."""
    tracing = tracer is not None
    while True:
        due = [k for k in kinds if k.due(seconds, tracing)]
        if not due:
            return
        k = min(due, key=lambda k: k.used / k.share)
        i = len(k.units)
        traced = tracing and i % 2 == 1
        t0 = time.perf_counter()
        inputs = k.prepare(i)
        if traced:
            tracer.op += 1
            tracer.start()
        t1 = time.perf_counter()
        try:
            unit = k.run(i, inputs)
        except Exception:
            log.append(f"{k.name} unit {i}:\n{traceback.format_exc()}")
            unit = Unit(k.ops, k.ops)
        wall = time.perf_counter() - t1
        unit.t = t1 + wall / 2
        if traced:
            rec = tracer.stop()
            if k.record is None:
                k.record, k.record_wall = rec, wall
        k.units.append((wall, unit, traced))
        k.used += time.perf_counter() - t0
        if i == 0:
            k.rss_mb = peak_rss_mb()


def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def is_float64(params) -> bool:
    """Every parameter is float64: speed must not come from changed arithmetic."""
    import numpy as np
    return all(params[n].data.dtype == np.float64 for n in params.names())


class Node:
    """A node of the yardstick's object loop."""
    __slots__ = ("value", "parent", "grad_fn")

    def __init__(self, value, parent, grad_fn):
        self.value, self.parent, self.grad_fn = value, parent, grad_fn


def make_yardstick():
    """Fixed work that uses no library code and whose time tracks the
    machine's speed, in two timed parts. The model part: small-array numpy
    ops in a Python loop (the pattern of the autograd), six 192x192 matmuls,
    and Python objects, closures and dicts (the autograd's bookkeeping).
    The text part: random words, JSON written and parsed (the pattern of
    the dataset layer, whose time swings more than model code's between
    the machine's slow and fast stretches). Chosen by measuring: on this
    benchmark's units, over 45-second stretches, the scaled times spread
    2-6 times less than the raw ones (BASELINE.md)."""
    import numpy as np
    from inputs import WORDS
    rng = np.random.default_rng(0)
    a, w = rng.standard_normal((32, 64)), rng.standard_normal((64, 64)) * 0.1
    b = rng.standard_normal((192, 192))

    def run() -> tuple:
        """Returns the seconds of the model part and of the text part. The
        garbage collector is off meanwhile, so that the size of the
        library's heap does not change the yardstick's time."""
        gc.disable()
        try:
            return parts()
        finally:
            gc.enable()

    def parts() -> tuple:
        t0 = time.perf_counter()
        x = a
        for _ in range(150):
            h = x @ w
            h = 0.5 * h * (1 + np.tanh(0.7978845608 * (h + 0.044715 * h ** 3)))
            e = np.exp(h - h.max(axis=1, keepdims=True))
            x = e / e.sum(axis=1, keepdims=True)
        for _ in range(6):
            np.exp(-np.abs(b @ b.T) * 1e-3)
        nodes, index = [None], {}
        for i in range(10000):
            node = Node(i * 0.5, nodes[-1], lambda g, i=i: g * i)
            nodes.append(node)
            index[i & 255] = node
            node.grad_fn(1.0)
        sorted(index.values(), key=lambda n: -n.value)
        t1 = time.perf_counter()
        words = random.Random(0)
        rows = [json.dumps({"id": i, "text": " ".join(words.choices(WORDS, k=20))})
                for i in range(1500)]
        sum(len(json.loads(r)["text"].split()) for r in rows)
        return t1 - t0, time.perf_counter() - t1

    return run


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        from mmtune import cognitive, config, dataset, training
        from mmtune.tokenizer import Vocab
        import inputs
        from tracer import Tracer

        self.cognitive, self.config = cognitive, config
        self.dataset, self.training, self.inputs = dataset, training, inputs
        self.vocab = Vocab()
        self.w, self.seed = WORKLOADS[workload], seed
        self.seconds = seconds
        self.tracer = Tracer() if trace else None
        self.work = os.path.join(OUT_DIR, f"work-{workload}-{seed}-{os.getpid()}")
        self.log = []          # tracebacks and failed checks
        self.ops = {}          # operation -> [attempted, failed]
        self.samples = {}
        self.yard = []         # the yardstick's units

    # -- set-up -------------------------------------------------------------

    def setup(self, k: int) -> dict:
        """Config, the dataset fixtures and a generation checkpoint, written
        and loaded back: what a user prepares before the first call. Times
        the text phase (config and fixtures) and the model phase apart, to
        be scaled by the matching yardstick part."""
        w, inp, tr = self.w, self.inputs, self.training
        t0 = time.perf_counter()
        d = os.path.join(self.work, f"setup{k}")
        os.makedirs(d)
        with open(os.path.join(ROOT, "configs", "default.json"), encoding="utf-8") as f:
            cfg = json.load(f)
        for section, values in w["config"].items():
            cfg[section].update(values)
        cfg_path = os.path.join(d, "config.json")
        with open(cfg_path, "w", encoding="utf-8") as f:
            json.dump(cfg, f)
        objs = self.config.load_config(cfg_path, seed=self.seed)["objects"]
        dec, mod, train = objs["model"], objs["modality"], objs["train"]
        captions = inp.write_caption_pool(self.seed, w["captions"],
                                          w["unparseable_every"],
                                          os.path.join(d, "fixtures"))
        t1 = time.perf_counter()
        macro = train.micro_batch * train.grad_accum
        warm = inp.short_examples(self.seed, -1, macro, 3, 14, 12)
        tr.fit(warm, dec, mod, self.vocab, train, out_dir=d, max_steps=1)
        ckpt = tr.load_checkpoint(os.path.join(d, "final.ckpt"))
        if not is_float64(ckpt.params):
            raise RuntimeError("generation checkpoint is not float64")
        times = {"text": t1 - t0, "model": time.perf_counter() - t1}
        return {"dir": d, "dec": dec, "mod": mod, "train": train,
                "captions": captions, "gen_ckpt": ckpt, "times": times}

    # -- unit kinds ---------------------------------------------------------

    def fit_kind(self, s, fitted) -> Kind:
        tr, w, inp = self.training, self.w, self.inputs
        train = s["train"]
        steps = tr.total_optimizer_steps(w["fit_examples"], train)

        def prepare(i):
            if not w["long_inputs"]:
                return inp.short_examples(self.seed, i, w["fit_examples"],
                                          w["fit_media"], w["instr_chars"],
                                          w["resp_chars"]), None
            out = os.path.join(s["dir"], f"fit{i}")
            os.makedirs(out)
            return inp.long_examples(self.seed, f"fit{i}", w["fit_examples"],
                                     w["instr_chars"], w["resp_lo"],
                                     w["resp_hi"]), out

        def run(i, args):
            examples, out = args
            t0 = time.perf_counter()
            ckpt, metrics = tr.fit(examples, s["dec"], s["mod"], self.vocab, train,
                                   out_dir=out)
            dt = time.perf_counter() - t0
            if out:
                shutil.rmtree(out)
            losses = [m["loss"] for m in metrics]
            last = statistics.fmean(losses[-(steps // train.epochs):])
            ok = (len(losses) == steps and all(0 < x < math.inf for x in losses)
                  and (not w["loss_must_drop"] or last < losses[0])
                  and is_float64(ckpt.params))
            if not ok:
                self.log.append(f"fit unit {i}: {len(losses)} steps, losses {losses}, "
                                f"float64 {is_float64(ckpt.params)}")
            if i == 0:
                fitted.update(ckpt=ckpt, examples=examples)
            return Unit(steps, 0 if ok else steps,
                        {"rate": len(examples) * train.epochs / dt, "loss": last})

        return Kind("fit", steps, prepare, run)

    def eval_kind(self, fitted) -> Kind:
        import numpy as np
        tr, w, inp = self.training, self.w, self.inputs
        n = w["eval_examples"] if w["long_inputs"] else w["fit_examples"]

        def prepare(i):
            if w["long_inputs"]:
                return inp.long_examples(self.seed, f"eval{i}", n, w["instr_chars"],
                                         w["resp_lo"], w["resp_hi"])
            return fitted["examples"]   # the training set, so its media recur

        def run(i, examples):
            ckpt = fitted["ckpt"]
            t0 = time.perf_counter()
            report = tr.evaluate(examples, ckpt)
            dt = time.perf_counter() - t0
            nll = report["mean_response_nll"]
            ok = report["n_examples"] == n and 0 < nll < math.inf
            if i == 0:   # the logits evaluate scores are float64 too
                seq = tr.build_sequence(examples[0], ckpt.params, ckpt.dec_cfg,
                                        ckpt.mod_cfg, ckpt.vocab)
                logits = self.cognitive.forward(seq, ckpt.params, ckpt.dec_cfg)
                ok = ok and logits.data.dtype == np.float64
            if not ok:
                self.log.append(f"eval unit {i}: {report}")
            return Unit(n, 0 if ok else n, {"rate": n / dt, "nll": nll})

        return Kind("eval", n, prepare, run)

    def request(self, s, index: int, max_new: int):
        """One closed-loop generation request; returns (ids, seconds)."""
        ckpt = s["gen_ckpt"]
        ex = self.inputs.request(self.seed, index, self.w["request_chars"])
        if self.tracer:
            self.tracer.op += 1
        t0 = time.perf_counter()
        seq = self.training.build_sequence(ex, ckpt.params, ckpt.dec_cfg,
                                           ckpt.mod_cfg, ckpt.vocab,
                                           with_response=False)
        # eos_id -1 never wins the argmax, so every decode has max_new ids
        ids = self.cognitive.generate_greedy(seq, max_new, ckpt.params,
                                             ckpt.dec_cfg, eos_id=-1)
        return ids, time.perf_counter() - t0

    def generate_kinds(self, s, heads) -> list:
        """Prompt-only requests (max_new=1) in groups, and long decodes.
        Even request indices are prompt-only, odd ones decodes. Decodes
        cycle through a pool of decode_pool requests, and every repeat must
        return the ids of the request's first decode; heads keeps the first
        ids of requests 0 and 1 for the end-of-run repeat check."""
        group, max_new = self.w["prompt_group"], self.w["max_new"]
        pool, decoded = self.w["decode_pool"], {}

        def prompts(i, _):
            lat, failed = [], 0
            for k in range(group):
                index = 2 * (i * group + k)
                ids, dt = self.request(s, index, 1)
                lat.append(dt * 1e3)
                failed += len(ids) != 1
                if index == 0:
                    heads[0] = ids
            return Unit(group, failed, {"ms": lat})

        def decode(i, _):
            index = 2 * (i % pool) + 1
            ids, dt = self.request(s, index, max_new)
            first = decoded.setdefault(index, ids)
            ok = len(ids) == max_new and ids == first
            if not ok:
                self.log.append(f"decode {i} (request {index}): {len(ids)} ids, "
                                f"want {max_new}, same as first {ids == first}")
            if i == 0:
                heads[1] = ids[:1]
            return Unit(1, 0 if ok else 1, {"rate": len(ids) / dt})

        return [Kind("prompt", group, lambda i: None, prompts,
                     min_units=2 * LATENCY_GROUPS),
                Kind("decode", 1, lambda i: None, decode)]

    def repeat_check(self, s, heads) -> int:
        """A repeated request must return identical ids: prompt-only request
        0 again, and decode 0's prompt alone must give the decode's first id.
        Returns the number of mismatches."""
        failed = 0
        for index in (0, 1):
            ids, _ = self.request(s, index, 1)
            if ids != heads[index]:
                failed += 1
                self.log.append(f"request {index} repeated: {ids} != {heads[index]}")
        return failed

    def dataset_kind(self, s) -> Kind:
        """Each unit builds the whole caption pool into examples and reads
        them back."""
        ds, every = self.dataset, self.w["unparseable_every"]
        captions = s["captions"]
        bad = sum(1 for k in range(len(captions)) if k % every == every - 1)
        client = ds.MockGenerationClient(os.path.join(s["dir"], "fixtures"))

        def prepare(i):
            return os.path.join(s["dir"], f"examples{i}.jsonl")

        def run(i, path):
            t0 = time.perf_counter()
            examples, report = ds.generate_examples(captions, client)
            ds.write_examples(path, examples)
            t1 = time.perf_counter()
            back = ds.read_examples(path)
            table = ds.stats(back)
            t2 = time.perf_counter()
            os.remove(path)
            want = ds.MAX_PAIRS_PER_COMPLETION * (len(captions) - bad)
            ok = (len(examples) == want and report.count() == bad
                  and [e.to_dict() for e in back] == [e.to_dict() for e in examples]
                  and sum(r["items"] for r in table.values()) == want)
            if not ok:
                self.log.append(f"dataset unit {i}: {len(examples)} examples "
                                f"(want {want}), {report.count()} skipped (want {bad})")
            return Unit(len(captions), 0 if ok else len(captions),
                        {"build_rate": len(captions) / (t1 - t0),
                         "read_rate": len(back) / (t2 - t1)})

        return Kind("dataset", len(captions), prepare, run, yard="text")

    # -- running ------------------------------------------------------------

    def run(self) -> dict:
        os.makedirs(self.work)
        try:
            return self._run()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)

    def setup_kind(self) -> tuple:
        """Set-up once for the other units, then again as units of its own,
        interleaved with the rest, so that set-up time samples the whole run
        as the other kinds do. Returns (set-up, kind)."""
        def run(i, _):
            s = self.setup(i)
            shutil.rmtree(s["dir"])
            return Unit(1, 0, s["times"])

        k = Kind("setup", 1, lambda i: None, run, min_units=SETUP_UNITS)
        t0 = time.perf_counter()
        s = self.setup(0)
        wall = time.perf_counter() - t0
        k.units.append((wall, Unit(1, 0, s["times"], t0 + wall / 2), False))
        k.used, k.rss_mb = wall, peak_rss_mb()
        return s, k

    def yardstick_kind(self) -> Kind:
        yardstick = make_yardstick()

        def run(i, _):
            model, text = yardstick()
            return Unit(0, 0, {"model": model, "text": text})

        return Kind("yardstick", 0, lambda i: None, run, min_units=YARD_NEAR)

    def slowness(self, t: float, part: str) -> float:
        """The machine's slowness around time t: the median time of a
        yardstick part over the YARD_NEAR yardstick runs nearest t, over
        the part's YARDSTICK_S."""
        near = sorted(self.yard, key=lambda u: abs(u.t - t))[:YARD_NEAR]
        return statistics.median(u.values[part] for u in near) / YARDSTICK_S[part]

    def scaled(self, kind: Kind, key: str, rate: bool) -> list:
        """key of each passed unit of kind at the yardstick's nominal speed:
        a rate times, a time over, the slowness around the unit. A key
        holding a list (the latencies of a prompt group) gives every item."""
        out = []
        for u in kind.passed():
            f = self.slowness(u.t, kind.yard)
            v = u.values[key]
            out += [x * f if rate else x / f for x in (v if isinstance(v, list) else [v])]
        return out

    def _run(self) -> dict:
        s, setup = self.setup_kind()
        fitted, heads = {}, {}
        # Order matters where units of several kinds have used none of their
        # share: the first prompt group and decode run before any training,
        # and fit unit 0 trains the checkpoint the eval units use.
        kinds = [*self.generate_kinds(s, heads), self.fit_kind(s, fitted),
                 self.eval_kind(fitted), self.dataset_kind(s), setup]
        if not self.tracer:   # traced runs report raw, unscaled times
            kinds.append(self.yardstick_kind())
        for k in kinds:
            k.share = self.w["shares"][k.name]
        run_kinds(kinds, self.seconds, self.tracer, self.log)
        repeat_failed = self.repeat_check(s, heads)
        by = {k.name: k for k in kinds}

        def count(op, *names, extra=(0, 0)):
            units = [u for n in names for _, u, _ in by[n].units]
            self.ops[op] = [sum(u.ops for u in units) + extra[0],
                            sum(u.failed for u in units) + extra[1]]

        count("setups", "setup")
        count("fit_steps", "fit")
        count("eval_examples", "eval")
        count("requests", "prompt", "decode", extra=(2, repeat_failed))
        count("captions", "dataset")
        self.samples = {"units_passed": {k.name: sum(1 for _, u, t in k.units
                                                     if not t and not u.failed)
                                         for k in kinds},
                        "unit_s": {k.name: [round(w, 4) for w, _, _ in k.units]
                                   for k in kinds},
                        "peak_rss_mb_after_unit0": {k.name: round(k.rss_mb, 1)
                                                    for k in kinds}}
        if self.tracer:
            return self.layer_metrics(kinds)
        self.yard = by["yardstick"].passed()
        lat = self.scaled(by["prompt"], "ms", rate=False)
        yard_ms = {p: [1e3 * u.values[p] for u in self.yard] for p in YARDSTICK_S}
        self.samples.update(
            setup_s=len(by["setup"].passed()), first_token_ms=len(lat),
            yardstick_runs=len(self.yard),
            yardstick_ms={p: {"min": min(v), "p50": statistics.median(v), "max": max(v)}
                          for p, v in yard_ms.items()})
        med = lambda kind, key, rate: statistics.median(self.scaled(by[kind], key, rate))
        # each phase of a set-up scaled by its yardstick part
        setup_s = [sum(x / self.slowness(u.t, part) for part, x in u.values.items())
                   for u in by["setup"].passed()]
        return {
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_rss_mb(),
            # set-up, one prompt group and one decode; no training yet
            "generate_peak_rss_mb": by["decode"].rss_mb,
            "train_examples_per_s": med("fit", "rate", True),
            "train_loss_final": by["fit"].units[0][1].values["loss"],
            "eval_examples_per_s": med("eval", "rate", True),
            "eval_nll": by["eval"].units[0][1].values["nll"],
            "decode_tokens_per_s": med("decode", "rate", True),
            "first_token_ms_p50": statistics.median(lat),
            "first_token_ms_p90": statistics.quantiles(lat, n=10)[8],
            "build_captions_per_s": med("dataset", "build_rate", True),
            "read_examples_per_s": med("dataset", "read_rate", True),
        }

    def layer_metrics(self, kinds) -> dict:
        """Per-layer calls/self_ms summed over the first traced unit of
        each kind."""
        from tracer import ENCODE, names
        records = [(k.name, k.record, k.record_wall) for k in kinds]
        # overhead: each traced unit against the untraced unit before it
        untraced = traced = 0.0
        for k in kinds:
            for (wu, _, _), (wt, _, _) in zip(k.units[0::2], k.units[1::2]):
                untraced += wu
                traced += wt

        out, total_self, media = {}, 0.0, set()
        for name in names():
            self_s = sum(rec.self_s.get(name, 0.0) for _, rec, _ in records)
            out[f"{name}.calls"] = sum(rec.calls[name] for _, rec, _ in records)
            out[f"{name}.self_ms"] = self_s * 1e3
            total_self += self_s
        for _, rec, _ in records:
            media |= rec.media
        out[f"{ENCODE}.unique_ratio"] = len(media) / max(1, out[f"{ENCODE}.calls"])
        decode = next(k for k in kinds if k.name == "decode").record
        gaps = [(t1 - t0) * 1e3 for _, _, _, name, t0, t1 in decode.spans
                if name == "cognitive.forward"]
        out["cognitive.forward.gap_ms_p50"] = statistics.median(gaps)
        out["cognitive.forward.gap_ms_p99"] = statistics.quantiles(gaps, n=100)[98]
        out["trace.overhead_ratio"] = traced / untraced
        out["trace.uncovered_share"] = 1.0 - total_self / sum(w for _, _, w in records)
        self.samples["forward_gaps"] = len(gaps)
        self.spans = [(label, rec.spans) for label, rec, _ in records]
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for label, spans in self.spans:
                for sid, parent, op, name, t0, t1 in spans:
                    f.write(json.dumps([label, sid, parent, op, name,
                                        round(t0 * 1e6), round(t1 * 1e6)]) + "\n")


def machine(seed: int) -> dict:
    import platform

    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],  # set by pin_blas
            "git_commit": git_commit(), "seed": seed}


def git_commit() -> str:
    """HEAD of the checkout, or 'unknown' outside a git work tree. The
    ceiling keeps git from looking for a repository above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                           capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "mmtune")):
        print(f"error: no src/mmtune under {ROOT}; run from a source checkout",
              file=sys.stderr)
        return 2
    pin_blas()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(ROOT)

    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = bench.run()
    result_metrics = {}
    for name, value in metrics.items():
        unit = END_TO_END.get(name) or layer_unit(name)
        result_metrics[name] = {"value": value, "unit": unit}
        print(f"{name:48s} {value:14.6g} {unit}")
    for entry in bench.log:
        print(entry, file=sys.stderr)
    attempted = sum(a for a, _ in bench.ops.values())
    failed = sum(f for _, f in bench.ops.values())
    info = {"workload": args.workload, "trace": args.trace,
            "machine": machine(args.seed), "ops": bench.ops,
            "samples": bench.samples, "failures": len(bench.log)}
    result = {"correct": failed == 0 and not bench.log, "attempted": attempted,
              "failed": failed, "metrics": result_metrics}
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        bench.write_spans(stem + ".spans.jsonl")
    with open(stem + ".json", "w", encoding="utf-8") as f:
        json.dump({**info, "result": result}, f, indent=1)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if "_ms" in name:
        return "ms"
    return "ratio"


if __name__ == "__main__":
    sys.exit(main())
