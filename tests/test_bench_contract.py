"""The benchmark wraps library functions by name; a rename must fail here
instead of silently dropping per-layer metrics from a benchmark run."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import waringcert


def test_benchmark_tracer_finds_every_target():
    for info in pkgutil.iter_modules(waringcert.__path__):
        importlib.import_module(f"waringcert.{info.name}")
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.Tracer().absent == []
