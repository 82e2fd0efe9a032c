"""The benchmark's tracer must find every function it wraps.

bench/tracing.py resolves each target with ``vars(owner)[name]``, so a
method inherited from a base class, or a function no longer bound in its
module, breaks ``bench/run.py --trace 1``; this test fails first.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves(monkeypatch):
    tracing = load_tracing(monkeypatch)
    tracer = tracing.Tracer()
    targets = [(module, path) for _, module, path, _ in tracing.TARGETS]
    for module, path in [*targets, tracing.TURN_COUNTER]:
        importlib.import_module(f"{tracing.PACKAGE}.{module}")
        assert callable(tracer._lookup(module, path)), (module, path)

