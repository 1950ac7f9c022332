"""Outside-in tracer for the waringcert library.

The library is not changed.  Its public functions are wrapped from here,
in every module namespace that bound them by name (``points.rank_mod``,
``octic14.rank_mod`` and ``generate.rank_mod`` are three bindings of
``ffield.rank_mod``), so every call becomes a span: name, start, end,
parent span and op id.  Spans stay in memory; ``write_spans`` dumps them
once the run is over.  A target that no longer exists, for example after
``rank_mod`` is merged into ``row_echelon``, is recorded as absent and
its metrics are reported as absent instead of crashing the run.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from contextlib import contextmanager

import numpy as np

# span name -> (module, attribute); "Class.method" patches the class.
TARGETS = {
    "ffield.rank_mod": ("waringcert.ffield", "rank_mod"),
    "ffield.row_echelon": ("waringcert.ffield", "row_echelon"),
    "ffield.matmul_mod": ("waringcert.ffield", "matmul_mod"),
    "polys.det_poly": ("waringcert.polys", "det_poly"),
    "polys.mult_map": ("waringcert.polys", "mult_map"),
    "points.pointset_init": ("waringcert.points", "PointSet.__init__"),
    "points.evaluation_matrix": ("waringcert.points", "evaluation_matrix"),
    "points.kruskal_rank": ("waringcert.points", "kruskal_rank"),
    "points.kruskal_rank_detail": ("waringcert.points", "kruskal_rank_detail"),
    "points.kruskal_rank_at_least": ("waringcert.points", "kruskal_rank_at_least"),
    "points.cb_check": ("waringcert.points", "cb_check"),
    "points.hilbert_profile": ("waringcert.points", "hilbert_profile"),
    "criteria.range": ("waringcert.criteria", "range_certify"),
    "criteria.ranger": ("waringcert.criteria", "ranger_certify"),
    "criteria.kruskal": ("waringcert.criteria", "reshaped_kruskal_certify"),
    "criteria.mo": ("waringcert.criteria", "mo_certify"),
    "octic14.certify": ("waringcert.octic14", "certify_octic14"),
    "octic14.preconditions": ("waringcert.octic14", "check_preconditions"),
    "octic14.hilbert_burch": ("waringcert.octic14", "hilbert_burch"),
    "octic14.normalization": ("waringcert.octic14", "normalization_check"),
    "octic14.residual_family": ("waringcert.octic14", "residual_family"),
    "octic14.system": ("waringcert.octic14", "second_decomposition_system"),
    "octic14.witness": ("waringcert.octic14", "verify_witness"),
    "generate.gen_identifiable": ("waringcert.generate", "gen_identifiable"),
    "generate.gen_unidentifiable": ("waringcert.generate", "gen_unidentifiable"),
    "generate.admissible": ("waringcert.generate", "random_admissible_pointset"),
    "generate.recover_residual_points": ("waringcert.generate", "recover_residual_points"),
    "storage.parse_instance": ("waringcert.storage", "parse_instance"),
    "storage.build_report": ("waringcert.storage", "build_report"),
    "driver.run_criteria": ("waringcert.driver", "run_criteria"),
}

KRUSKAL = frozenset({"points.kruskal_rank", "points.kruskal_rank_detail",
                     "points.kruskal_rank_at_least"})
ELIMINATION = frozenset({"ffield.rank_mod", "ffield.row_echelon"})
CRITERIA = ("criteria.range", "criteria.ranger", "criteria.kruskal", "criteria.mo")
GENERATORS = frozenset({"generate.gen_identifiable", "generate.gen_unidentifiable"})


def _shape_info(args, out):
    a = args[0]
    shape = getattr(a, "shape", None)
    return tuple(shape) if shape is not None else np.shape(a)


# What a span keeps besides its times: matrix shapes for the elimination
# kernels, the verdict of a criterion, the attempt count of a generator.
_INFO = {
    "ffield.rank_mod": _shape_info,
    "ffield.row_echelon": _shape_info,
    **{name: (lambda args, out: out.verdict) for name in CRITERIA},
    **{name: (lambda args, out: out.attempts) for name in GENERATORS},
}

# span fields
NAME, START, END, PARENT, OP, INFO = range(6)


class Tracer:
    """Spans of wrapped library calls, grouped by op."""

    def __init__(self):
        self.spans: list[list] = []
        self.ops: list[str] = []   # op id -> op kind
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._op = -1
        self._bindings = self._find_bindings()

    def _find_bindings(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "waringcert" or name.startswith("waringcert.")]
        bindings = []
        for span_name, (modname, attr) in TARGETS.items():
            mod = sys.modules.get(modname)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            orig = None
            if owner is not None:
                orig = (vars(owner).get(method) if owner_name
                        else getattr(owner, method, None))
            if orig is None:
                self.absent.append(span_name)
                continue
            wrapper = self._wrap(span_name, orig)
            if owner_name:
                bindings.append((owner, method, orig, wrapper))
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        bindings.append((m, key, orig, wrapper))
        return bindings

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        info = _INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self._op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()
            if info is not None:
                span[INFO] = info(args, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Patch every binding; restore the originals on exit."""
        for owner, key, _orig, wrapper in self._bindings:
            setattr(owner, key, wrapper)
        try:
            yield self
        finally:
            for owner, key, orig, _wrapper in reversed(self._bindings):
                setattr(owner, key, orig)

    def begin_op(self, kind: str) -> None:
        self._op = len(self.ops)
        self.ops.append(kind)

    def end_op(self) -> None:
        self._op = -1

    def write_spans(self, path) -> None:
        """One JSON array per line: name, start, end, parent, op, info."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"ops": self.ops, "absent": self.absent}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span, default=str) + "\n")


def layer_metrics(tracer: Tracer, op_seconds: dict[int, float]) -> tuple[dict, dict]:
    """Per-layer metrics from the spans, plus the self-check results.

    op_seconds maps op id to its measured duration.  Returns (metrics,
    checks); a metric that needs an absent target is left out.
    """
    spans, ops = tracer.spans, tracer.ops
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * n
    kr_top = [-1] * n  # outermost Kruskal span enclosing span i, or -1
    for i, s in enumerate(spans):
        parent = s[PARENT]
        if parent >= 0:
            child[parent] += dur[i]
            kr_top[i] = kr_top[parent]
        if s[NAME] in KRUSKAL and kr_top[i] < 0:
            kr_top[i] = i

    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    for i, s in enumerate(spans):
        name = s[NAME]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]
        parent = s[PARENT]
        # count only outermost spans of a name, so recursion is not doubled
        if parent < 0 or not _has_ancestor(spans, parent, name):
            total_s[name] = total_s.get(name, 0.0) + dur[i]

    kr_outer = [i for i in range(n) if kr_top[i] == i]
    eliminated = set()
    rank_calls_in_kr = 0
    elim_ops_with_kr = set()
    elim_ops = 0
    for i, s in enumerate(spans):
        if s[NAME] in ELIMINATION:
            if kr_top[i] >= 0:
                eliminated.add(kr_top[i])
                elim_ops_with_kr.add(s[OP])
            if s[INFO] is not None and len(s[INFO]) == 2:
                m, c = s[INFO]
                elim_ops += m * c * min(m, c)
        if s[NAME] == "ffield.rank_mod" and kr_top[i] >= 0:
            rank_calls_in_kr += 1

    kr_time_by_op: dict[int, float] = {}
    kr_ops = set()
    for i in kr_outer:
        op = spans[i][OP]
        kr_ops.add(op)
        kr_time_by_op[op] = kr_time_by_op.get(op, 0.0) + dur[i]

    crit = [i for i, s in enumerate(spans) if s[NAME] in CRITERIA]
    inconclusive = [i for i in crit if spans[i][INFO] == "inconclusive"]
    gens = [i for i, s in enumerate(spans) if s[NAME] in GENERATORS
            and s[INFO] is not None]

    def op_share(kind):
        ids = [op for op, k in enumerate(ops) if k == kind and op in op_seconds]
        wall = sum(op_seconds[op] for op in ids)
        return sum(kr_time_by_op.get(op, 0.0) for op in ids) / wall if wall else 0.0

    absent = set(tracer.absent)
    m: dict[str, float] = {}

    def put(key, value, needs):
        if not absent.intersection(needs):
            m[key] = value

    rm, re_, mm = "ffield.rank_mod", "ffield.row_echelon", "ffield.matmul_mod"
    put("ffield.rank_mod.calls", calls.get(rm, 0), [rm])
    put("ffield.rank_mod.self_s", self_s.get(rm, 0.0), [rm])
    put("ffield.row_echelon.calls", calls.get(re_, 0), [re_])
    put("ffield.row_echelon.self_s", self_s.get(re_, 0.0), [re_])
    put("ffield.matmul_mod.self_s", self_s.get(mm, 0.0), [mm])
    put("ffield.elim_ops", elim_ops, [rm, re_])
    kr = sorted(KRUSKAL)
    put("points.kruskal.calls", len(kr_outer), kr)
    put("points.kruskal.total_s", sum(dur[i] for i in kr_outer), kr)
    put("points.kruskal.self_s", sum(self_s.get(k, 0.0) for k in KRUSKAL), kr)
    put("points.kruskal.rank_calls", rank_calls_in_kr, kr + [rm])
    put("points.kruskal.cache_hit_share",
        (len(kr_outer) - len(eliminated)) / len(kr_outer) if kr_outer else 0.0,
        kr + [rm, re_])
    put("points.kruskal.check_share", op_share("check"), kr)
    put("points.kruskal.recheck_share", op_share("recheck"), kr)
    for name in ("points.evaluation_matrix",):
        put(name + ".calls", calls.get(name, 0), [name])
        put(name + ".self_s", self_s.get(name, 0.0), [name])
    put("points.pointset_init.self_s", self_s.get("points.pointset_init", 0.0),
        ["points.pointset_init"])
    for name in ("points.cb_check", "points.hilbert_profile", "criteria.range",
                 "criteria.ranger", "criteria.kruskal", "criteria.mo",
                 "octic14.preconditions", "octic14.hilbert_burch",
                 "octic14.normalization", "octic14.residual_family",
                 "octic14.system", "octic14.witness", "generate.admissible",
                 "generate.recover_residual_points"):
        put(name + ".total_s", total_s.get(name, 0.0), [name])
    put("criteria.inconclusive_share",
        len(inconclusive) / len(crit) if crit else 0.0, list(CRITERIA))
    put("criteria.inconclusive_s", sum(dur[i] for i in inconclusive), list(CRITERIA))
    put("octic14.witness.calls", calls.get("octic14.witness", 0), ["octic14.witness"])
    put("polys.det_poly.calls", calls.get("polys.det_poly", 0), ["polys.det_poly"])
    put("polys.det_poly.self_s", self_s.get("polys.det_poly", 0.0), ["polys.det_poly"])
    put("polys.mult_map.self_s", self_s.get("polys.mult_map", 0.0), ["polys.mult_map"])
    attempts = sum(spans[i][INFO] for i in gens)
    put("generate.attempts", attempts, sorted(GENERATORS))
    put("generate.accept_ratio", len(gens) / attempts if attempts else 0.0,
        sorted(GENERATORS))
    for name in ("storage.parse_instance", "storage.build_report", "driver.run_criteria"):
        put(name + ".self_s", self_s.get(name, 0.0), [name])

    # Cold-cache self-check: every cold check whose criteria asked for a
    # Kruskal rank must have eliminated at least once inside Kruskal, and
    # every Kruskal call of a warm recheck must be a cache hit.  Without
    # any wrapped elimination kernel there is nothing to check.
    if ELIMINATION <= absent:
        return m, {}
    cold_leaks = [op for op, kind in enumerate(ops)
                  if kind == "check" and op in kr_ops and op not in elim_ops_with_kr]
    warm_misses = [i for i in kr_outer
                   if ops[spans[i][OP]] == "recheck" and i in eliminated]
    checks = {
        "cold_checks_with_kruskal": sum(1 for op, kind in enumerate(ops)
                                        if kind == "check" and op in kr_ops),
        "cold_checks_without_elimination": len(cold_leaks),
        "recheck_kruskal_calls": sum(1 for i in kr_outer
                                     if ops[spans[i][OP]] == "recheck"),
        "recheck_kruskal_misses": len(warm_misses),
    }
    return m, checks


def _has_ancestor(spans, i, name) -> bool:
    while i >= 0:
        if spans[i][NAME] == name:
            return True
        i = spans[i][PARENT]
    return False
