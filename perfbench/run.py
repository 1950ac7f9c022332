"""waringcert benchmark: one command, three workloads, every verdict checked.

    python3 perfbench/run.py --workload octic14_roundtrip --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout; the library is imported from
./src.  --trace 0 measures the end-to-end metrics with nothing wrapped.
--trace 1 replays a fixed number of passes twice, untraced and traced in
alternation, and reports the per-layer metrics from the traced copy plus
the tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# One thread for every numeric library, before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy  # noqa: E402

from speed import SpeedTrack  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, PassAborted, Recorder  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7

# name -> unit; printed and reported with --trace 0
END_TO_END = {
    "setup_s": "s",
    "check_per_s": "1/s",
    "check_p50_ms": "ms",
    "check_tail_ms": "ms",
    "recheck_p50_ms": "ms",
    "gen_per_s": "1/s",
    "gen_tail_ms": "ms",
    "audit_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metrics reported in the JSON line with --trace 1: those that
# every workload reaches.  The printed table has all of them.
PER_LAYER = (
    "ffield.rank_mod.calls", "ffield.rank_mod.self_s",
    "ffield.row_echelon.calls", "ffield.row_echelon.self_s",
    "ffield.matmul_mod.self_s", "ffield.elim_ops",
    "points.kruskal.calls", "points.kruskal.total_s", "points.kruskal.self_s",
    "points.kruskal.rank_calls", "points.kruskal.cache_hit_share",
    "points.kruskal.check_share",
    "points.evaluation_matrix.calls", "points.evaluation_matrix.self_s",
    "points.pointset_init.self_s", "points.cb_check.total_s",
    "points.hilbert_profile.total_s",
    "criteria.range.total_s", "criteria.ranger.total_s", "criteria.kruskal.total_s",
    "criteria.inconclusive_share", "criteria.inconclusive_s",
    "storage.parse_instance.self_s", "storage.build_report.self_s",
    "driver.run_criteria.self_s",
    "trace.overhead_share",
)


def _unit(name: str) -> str:
    if name.endswith(("_s", ".self_s", ".total_s")):
        return "s"
    if name.endswith(("share", "ratio")):
        return "ratio"
    return "count"


def _load_library():
    """Import waringcert from ./src of this checkout, or exit 2."""
    src = ROOT / "src"
    if not (src / "waringcert" / "__init__.py").is_file():
        sys.exit(f"error: no waringcert sources under {src}")
    sys.path.insert(0, str(src))
    import waringcert
    from waringcert import criteria, driver, ffield, generate, octic14, points, storage
    if Path(waringcert.__file__).resolve().parent != (src / "waringcert").resolve():
        sys.exit(f"error: imported waringcert from {waringcert.__file__}, not {src}")
    return SimpleNamespace(ffield=ffield, points=points, criteria=criteria,
                           octic14=octic14, generate=generate, storage=storage,
                           driver=driver)


TAIL_CAP = 99.0


def _tail(xs):
    """The highest percentile, at most TAIL_CAP, with at least ten samples
    beyond it: (value, percentile, sample count).  The max below 11."""
    s = sorted(xs)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, n
    k = min(n - 10, math.ceil(n * TAIL_CAP / 100))  # samples at or below
    return s[k - 1], 100.0 * k / n, n


def _setup_seconds(args, speed) -> list[tuple[float, float]]:
    """(start, end) from spawning a fresh interpreter to the point where
    it would start its first timed op, once per probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    out = []
    for _ in range(SETUP_PROBES):
        speed.sample()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            sys.exit(f"error: setup probe failed with exit code {code}")
        out.append((t0, t1))
    return out


def _passes(workload, rec, seconds: float) -> int:
    t_end = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < t_end:
        try:
            workload.run_pass(i, rec)
        except PassAborted:
            pass
        i += 1
    return i


def _untraced(args, workload):
    speed = SpeedTrack()
    setup = _setup_seconds(args, speed)
    rec = Recorder(speed=speed)
    passes = _passes(workload, rec, args.seconds)
    speed.sample()
    if not all(rec.samples.values()):
        sys.exit("error: a pass did not complete in the time given")
    raw = {kind: [t1 - t0 for t0, t1 in spans] for kind, spans in rec.samples.items()}
    raw["setup"] = [t1 - t0 for t0, t1 in setup]
    scaled = {kind: [(t1 - t0) * speed.factor(t0, t1) for t0, t1 in spans]
              for kind, spans in list(rec.samples.items()) + [("setup", setup)]}

    def timings(s):
        check_tail, check_pct, check_n = _tail(s["check"])
        gen_tail, gen_pct, gen_n = _tail(s["gen"])
        values = {
            "setup_s": statistics.median(s["setup"]),
            "check_per_s": len(s["check"]) / sum(s["check"]),
            "check_p50_ms": 1000 * statistics.median(s["check"]),
            "check_tail_ms": 1000 * check_tail,
            "recheck_p50_ms": 1000 * statistics.median(s["recheck"]),
            "gen_per_s": len(s["gen"]) / sum(s["gen"]),
            "gen_tail_ms": 1000 * gen_tail,
            "audit_p50_ms": 1000 * statistics.median(s["audit"]),
        }
        notes = {
            "setup_s": f"median of {len(s['setup'])} fresh processes",
            "check_tail_ms": f"p{check_pct:.1f} of {check_n}",
            "gen_tail_ms": f"p{gen_pct:.1f} of {gen_n}",
            "check_p50_ms": f"{len(s['check'])} checks",
            "recheck_p50_ms": f"{len(s['recheck'])} rechecks",
            "audit_p50_ms": f"{len(s['audit'])} audits",
        }
        return values, notes

    metrics, notes = timings(scaled)
    wall, _ = timings(raw)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall["peak_rss_mb"] = metrics["peak_rss_mb"]
    print(f"passes {passes}")
    print(f"speed factor {speed.median_factor():.4f} (median of {len(speed.kernel)} "
          f"calibrations; timings below are at reference speed, raw wall after)")
    for name, unit in END_TO_END.items():
        print(f"metric {name} {metrics[name]:.6g} {unit} raw {wall[name]:.6g} "
              f"{notes.get(name, '')}".rstrip())
    print(f"metric wrong_verdicts {rec.wrong} count")
    print(f"metric failed_share {rec.failed / rec.attempted:.6g} ratio "
          f"{rec.failed} of {rec.attempted} ops")
    result = {name: {"value": metrics[name], "unit": unit}
              for name, unit in END_TO_END.items()}
    return rec.wrong == 0, rec.attempted, rec.failed, result


def _traced(args, workload):
    tr = Tracer()
    plain, traced = Recorder(), Recorder(tr)
    for i in range(workload.trace_passes):
        order = [(plain, False), (traced, True)]
        if i % 2:
            order.reverse()
        for rec, wrapped in order:
            try:
                if wrapped:
                    with tr.installed():
                        workload.run_pass(i, rec)
                else:
                    workload.run_pass(i, rec)
            except PassAborted:
                pass
    metrics, checks = layer_metrics(tr, traced.op_seconds)
    metrics["trace.overhead_share"] = traced.wall() / plain.wall() - 1
    same = plain.outcomes == traced.outcomes
    out = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    tr.write_spans(out)

    print(f"passes {workload.trace_passes} untraced + {workload.trace_passes} traced")
    print(f"spans {len(tr.spans)} written to {out.relative_to(ROOT)}")
    for name in sorted(metrics):
        print(f"layer {name} {metrics[name]:.6g} {_unit(name)}")
    for name in tr.absent:
        print(f"absent {name}")
    for key, value in checks.items():
        print(f"selfcheck {key} {value}")
    print(f"selfcheck traced_verdicts_equal_untraced {same}")
    if not checks:
        print("selfcheck skipped: no elimination kernel to wrap")
    ok = (same and checks.get("cold_checks_without_elimination", 0) == 0
          and checks.get("recheck_kruskal_misses", 0) == 0
          and plain.wrong == 0 and traced.wrong == 0)
    result = {name: {"value": metrics[name], "unit": _unit(name)}
              for name in PER_LAYER if name in metrics}
    return (ok, plain.attempted + traced.attempted, plain.failed + traced.failed,
            result)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    wc = _load_library()
    workload = WORKLOADS[args.workload](wc, ROOT, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print(f"env nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__} primes={','.join(map(str, workload.primes))} "
          f"threads=1 callers=1")
    if args.trace:
        ok, attempted, failed, metrics = _traced(args, workload)
    else:
        ok, attempted, failed, metrics = _untraced(args, workload)
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
