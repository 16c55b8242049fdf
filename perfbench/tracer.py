"""Span tracer for the benchmark's traced runs.

`Tracer.start` swaps a timing wrapper in for every layer function listed in
`_targets`, under each name its callers look it up by (`training` binds
`forward`, `align`, `transform` and `assemble_prefix` at import;
`generate_greedy` calls the `cognitive` module global; ops are called as
`ag.<op>`). `Tracer.stop` puts the originals back and returns what was
recorded. Spans stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

STEP = "training.train_step"
ENCODE = "encoders.encode"


def _targets():
    """(metric name, [(owner, attribute), ...]) for every wrapped function."""
    from mmtune import (alignment, autograd, cognitive, config, dataset,
                        encoders, tokenizer, training)
    ops = ("matmul", "gelu", "softmax_rows", "log_softmax_rows", "layernorm_rows",
           "add", "mul", "slice_cols", "concat_cols", "conv1d", "embedding")
    out = [(ENCODE, [(encoders, "encode")])]
    out += [(f"alignment.{f}", [(training, f), (alignment, f)])
            for f in ("transform", "align", "assemble_prefix")]
    out += [(f"autograd.{op}", [(autograd, op)]) for op in ops]
    out.append(("autograd.Tensor.backward", [(autograd.Tensor, "backward")]))
    out += [(f"cognitive.{f}", [(training, f), (cognitive, f)])
            for f in ("forward", "embed_tokens")]
    out.append(("cognitive.generate_greedy", [(cognitive, "generate_greedy")]))
    out += [(f"training.{f}", [(training, f)])
            for f in ("build_sequence", "response_nll", "adam_update",
                      "save_checkpoint", "load_checkpoint", "train_step")]
    out.append(("tokenizer.Vocab.encode", [(tokenizer.Vocab, "encode")]))
    out += [(f"dataset.{f}", [(dataset, f)])
            for f in ("build_prompt", "parse_qa_pairs", "write_examples",
                      "read_examples", "stats")]
    out.append(("dataset.MockGenerationClient.complete",
                [(dataset.MockGenerationClient, "complete")]))
    out.append(("config.load_config", [(config, "load_config")]))
    return out


def names() -> list:
    return [name for name, _ in _targets()]


@dataclass
class Record:
    """What one traced stretch of work recorded."""

    spans: list = field(default_factory=list)   # (id, parent, op, name, start_s, end_s)
    calls: Counter = field(default_factory=Counter)
    self_s: defaultdict = field(default_factory=lambda: defaultdict(float))
    media: set = field(default_factory=set)     # distinct (kind, fingerprint, frames)


class Tracer:
    """Records a span for each call of a wrapped function.

    A span's self time is its duration minus the durations of the wrapped
    calls made inside it. `op` groups spans: the benchmark sets it per
    request or unit, and each `training.train_step` call starts a new one.
    """

    def __init__(self):
        self.op = 0
        self._rec = Record()
        self._stack = []   # [child seconds, span id] per open call
        self._next_id = 0
        self._patches = []
        for name, owners in _targets():
            for owner, attr in owners:
                orig = owner.__dict__[attr]
                self._patches.append((owner, attr, orig, self._wrap(name, orig)))

    def _wrap(self, name, fn):
        tracer = self
        perf = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == STEP:
                tracer.op += 1
            elif name == ENCODE:
                m = args[0]
                tracer._rec.media.add((m.kind, m.fingerprint, m.frames))
            tracer._next_id += 1
            sid = tracer._next_id
            parent = stack[-1][1] if stack else 0
            op = tracer.op
            frame = [0.0, sid]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                rec = tracer._rec
                rec.calls[name] += 1
                rec.self_s[name] += dur - frame[0]
                rec.spans.append((sid, parent, op, name, t0, t1))

        return wrapper

    def start(self) -> None:
        self._rec = Record()
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def stop(self) -> Record:
        for owner, attr, orig, _ in self._patches:
            setattr(owner, attr, orig)
        self._stack.clear()
        return self._rec
