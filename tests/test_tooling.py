import importlib.util
import os
import sys

from mmtune import autograd

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def test_benchmark_tracer_wraps_existing_names(monkeypatch):
    # Tracer() looks up every function the traced benchmark run wraps, so a
    # rename or deletion in src/ fails here instead of inside the benchmark
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer_mod)
    spec.loader.exec_module(tracer_mod)
    matmul = autograd.matmul
    tracer = tracer_mod.Tracer()
    tracer.start()
    try:
        assert autograd.matmul is not matmul
    finally:
        tracer.stop()
    assert autograd.matmul is matmul
