"""The three benchmark workloads and the checks on every op they run.

A workload is a closed loop with one caller: ``run_pass(i, rec)`` runs
pass i, timing each library call as an op through the recorder and
checking its outcome outside the timed region.  Pass i depends only on
the workload seed and i, so a pass can be replayed exactly; the traced
run relies on that.  Op kinds:

  gen      build an instance (generator or constructor) and its JSON text
  check    cold certification from JSON text: parse_instance, the
           criteria, build_report; no cache of an earlier op carries over
  recheck  the same Instance certified again (warm caches, other mode)
  audit    Hilbert function and Cayley-Bacharach facts of the point set,
           and for the small prime the residual points of the witness

The library is reached only through module attributes (``wc.storage``,
``wc.driver``...), never through names bound here, so the tracer's
patches see every call.  ``jobs`` is never passed.
"""

from __future__ import annotations

import random
import sys
import time
import traceback
from functools import partial
from math import comb
from pathlib import Path

import oracle

FULL, PAPER13 = "full", "paper13"
OP_KINDS = ("gen", "check", "recheck", "audit")


class PassAborted(Exception):
    """An op raised, so the rest of its pass cannot run."""


class Recorder:
    """Op timings, failure and wrong-verdict counts, and op outcomes."""

    def __init__(self, tracer=None, speed=None):
        self.tracer = tracer
        self.speed = speed  # SpeedTrack sampled between ops, or None
        self.samples = {kind: [] for kind in OP_KINDS}  # (start, end)
        self.op_seconds: dict[int, float] = {}  # tracer op id -> seconds
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.outcomes: list = []

    def op(self, kind, fn, *args):
        self.attempted += 1
        if self.speed is not None:
            self.speed.maybe_sample()
        if self.tracer is not None:
            self.tracer.begin_op(kind)
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception:
            self.failed += 1
            print(f"op {kind} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            raise PassAborted(kind) from None
        finally:
            t1 = time.perf_counter()
            if self.tracer is not None:
                self.op_seconds[len(self.tracer.ops) - 1] = t1 - t0
                self.tracer.end_op()
        self.samples[kind].append((t0, t1))
        return out

    def wall(self) -> float:
        return sum(t1 - t0 for spans in self.samples.values() for t0, t1 in spans)

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.wrong += 1
            print(f"wrong: {what}", file=sys.stderr)

    def degenerate(self, verdict: str, what: str) -> None:
        """An unexpected Degenerate verdict counts as a failed op."""
        if verdict.startswith("Degenerate"):
            self.failed += 1
            print(f"unexpected {verdict}: {what}", file=sys.stderr)

    def outcome(self, value) -> None:
        self.outcomes.append(value)


def _certify_text(wc, text: str):
    """Cold check: parse, run all criteria in full mode, build the report."""
    inst, metadata = wc.storage.parse_instance(text)
    final, results = wc.driver.run_criteria(inst, "all", mode=FULL)
    report = wc.storage.build_report(
        final, results, flags={"mode": FULL, "criteria": "all"},
        input_digest=wc.storage.sha256_hex(text.encode("utf-8")),
        input_metadata=metadata)
    return inst, report


def _recertify(wc, inst):
    """Warm recheck of the same Instance in the other octic14 mode."""
    final, results = wc.driver.run_criteria(inst, "all", mode=PAPER13)
    return wc.storage.build_report(final, results,
                                   flags={"mode": PAPER13, "criteria": "all"},
                                   input_digest="")


def _serialize(wc, inst, metadata=None) -> str:
    return wc.storage.canonical_json(wc.storage.instance_to_obj(inst, metadata))


def _check_recheck(rec, what, expected, check, recheck):
    """Check op check(), then recheck op recheck(inst) on the same
    Instance; expected(report) judges the check.  Returns the Instance."""
    inst, report = rec.op("check", check)
    verdict, rank = report["verdict"], report["rank"]
    rec.outcome(("check", what, verdict, rank))
    rec.degenerate(verdict, what)
    rec.expect(expected(report), f"{what}: check gave {verdict}")
    again = rec.op("recheck", recheck, inst)
    rec.outcome(("recheck", what, again["verdict"], again["rank"]))
    rec.expect((again["verdict"], again["rank"]) == (verdict, rank),
               f"{what}: recheck gave {again['verdict']} after {verdict}")
    return inst


# --- octic14_roundtrip -----------------------------------------------------

# Every admissible fourteen-point set has h = (1,3,6,10,14,14,...) and,
# since any ten of its points impose independent conditions on cubics,
# satisfies Cayley-Bacharach in degree 3.
ADMISSIBLE_HILBERT = (1, 3, 6, 10, 14, 14, 14, 14, 14)


def _admissible_audit(wc, pointset):
    profile = wc.points.hilbert_profile(pointset, 8)
    return profile.values, wc.points.cb_check(pointset, 3)


class Octic14Roundtrip:
    """Generate, serialize and certify fourteen-point octics at p=31991,
    plus the two shipped reference instances in every pass."""

    name = "octic14_roundtrip"
    primes = (31991,)
    trace_passes = 4
    FIXTURES = (("optics_T1.json", "IdentifiableOfRank(14)"),
                ("optics_T2.json", "NotIdentifiable"))

    def __init__(self, wc, root: Path, seed: int):
        self.wc = wc
        self.base = seed * 1000
        self.fixtures = [(name, (root / "fixtures" / name).read_text(), verdict)
                         for name, verdict in self.FIXTURES]

    def _gen(self, identifiable: bool, s: int):
        gen = (self.wc.generate.gen_identifiable if identifiable
               else self.wc.generate.gen_unidentifiable)
        g = gen(s)
        return g, _serialize(self.wc, g.instance, {"seed": g.seed})

    def run_pass(self, i: int, rec: Recorder) -> None:
        s = self.base + i
        todo = []
        for identifiable in (True, False):
            g, text = rec.op("gen", self._gen, identifiable, s)
            truth = "expected_identifiable" if identifiable else "known_unidentifiable"
            rec.expect(g.ground_truth == truth, f"seed {s}: ground truth {g.ground_truth}")
            want = "IdentifiableOfRank(14)" if identifiable else "NotIdentifiable"
            todo.append((f"{'id' if identifiable else 'un'}-seed {s}", text, want))
        for what, text, want in todo + self.fixtures:
            inst = _check_recheck(
                rec, what, lambda r, want=want: (r["verdict"], r["rank"]) == (want, 14),
                partial(_certify_text, self.wc, text),
                partial(_recertify, self.wc))
            values, cb3 = rec.op("audit", _admissible_audit, self.wc, inst.pointset)
            rec.outcome(("audit", what, values, cb3))
            rec.expect(values == ADMISSIBLE_HILBERT and cb3,
                       f"{what}: Hilbert {values}, CB(3) {cb3}")


# --- hilbert_lowrank -------------------------------------------------------

HILBERT_PRIME = 31991

# (n, degree, lengths).  Plane lengths run from 3 to a little past the
# range and ranger caps where the reshaped Kruskal fallback stays cheap,
# so every plane verdict occurs: IdentifiableOfRank, ComputesRank and
# Inconclusive.  d=8 stops short of 14, the octic14 case.  P^3 sets go
# to mo_certify, one past its bound.
LOWRANK_SHAPES = (
    (2, 3, range(3, 6)), (2, 4, range(3, 8)), (2, 5, range(3, 9)),
    (2, 6, range(3, 10)), (2, 7, range(3, 12)), (2, 8, range(3, 13)),
    (2, 9, range(3, 17)),
    (3, 5, range(4, 6)), (3, 6, range(4, 13)), (3, 7, range(4, 13)),
    (3, 8, range(4, 23, 2)), (3, 9, range(4, 23, 2)),
)


def _random_points(rng: random.Random, n: int, ell: int, p: int):
    """ell projectively distinct random points of P^n(Z_p)."""
    seen, points = set(), []
    while len(points) < ell:
        pt = [rng.randrange(p) for _ in range(n + 1)]
        lead = next((c for c in pt if c), 0)
        if not lead:
            continue
        inv = pow(lead, p - 2, p)
        key = tuple(c * inv % p for c in pt)
        if key not in seen:
            seen.add(key)
            points.append(pt)
    return points


class HilbertLowrank:
    """Many small random point sets: per-call overhead, few subsets."""

    name = "hilbert_lowrank"
    primes = (HILBERT_PRIME,)
    trace_passes = 940  # ten cycles of the 94-entry pool

    def __init__(self, wc, root: Path, seed: int):
        self.wc = wc
        rng = random.Random(f"{self.name}:{seed}")
        self.pool = []
        for n, d, lengths in LOWRANK_SHAPES:
            for ell in lengths:
                points = _random_points(rng, n, ell, HILBERT_PRIME)
                lam = [rng.randrange(1, HILBERT_PRIME) for _ in range(ell)]
                self.pool.append((n, d, points, lam))
        rng.shuffle(self.pool)
        self._expected: dict[int, tuple] = {}

    def _gen(self, n, d, points, lam):
        ctx = self.wc.ffield.PrimeContext(HILBERT_PRIME)
        inst = self.wc.criteria.Instance(self.wc.points.PointSet(ctx, points), d, lam)
        return _serialize(self.wc, inst)

    def _mo_check(self, text):
        inst, _ = self.wc.storage.parse_instance(text)
        return inst, self._mo_recheck(inst, self.wc.storage.sha256_hex(text.encode("utf-8")))

    def _mo_recheck(self, inst, digest=""):
        cert = self.wc.criteria.mo_certify(inst)
        return self.wc.storage.build_report(cert, [("mo", cert)],
                                            flags={"criteria": "mo"}, input_digest=digest)

    def _audit(self, pointset, d):
        m = d // 2
        return (self.wc.points.hilbert_profile(pointset, m + 1).values,
                self.wc.points.cb_check(pointset, m),
                len(self.wc.points.ideal_piece(pointset, m)))

    def expected(self, index: int):
        """Verdict, rank and audit facts from the plain-integer oracle,
        computed once per pool entry and never inside a timed op."""
        if index not in self._expected:
            n, d, points, _ = self.pool[index]
            facts = oracle.PointFacts(points, HILBERT_PRIME)
            verdict, rank = oracle.expected_verdict(facts, d)
            m = d // 2
            audit = (tuple(facts.h(j) for j in range(m + 2)), facts.cb(m),
                     comb(m + n, n) - facts.h(m))
            self._expected[index] = (verdict, rank, audit)
        return self._expected[index]

    def run_pass(self, i: int, rec: Recorder) -> None:
        index = i % len(self.pool)
        n, d, points, lam = self.pool[index]
        what = f"P^{n} d={d} ell={len(points)} #{index}"
        text = rec.op("gen", self._gen, n, d, points, lam)
        verdict, rank, audit = self.expected(index)
        if n == 2:
            check = partial(_certify_text, self.wc, text)
            recheck = partial(_recertify, self.wc)
        else:
            check, recheck = partial(self._mo_check, text), self._mo_recheck
        inst = _check_recheck(
            rec, f"{what}, expected {verdict}",
            lambda r: (_verdict_kind(r["verdict"]), r["rank"]) == (verdict, rank),
            check, recheck)
        facts = rec.op("audit", self._audit, inst.pointset, d)
        rec.outcome(("audit", what) + facts)
        rec.expect(facts == audit, f"{what}: audit {facts}, expected {audit}")


def _verdict_kind(display: str) -> str:
    for prefix, kind in (("IdentifiableOfRank", oracle.IDENTIFIABLE),
                         ("ComputesRank", oracle.COMPUTES_RANK),
                         ("Inconclusive", oracle.INCONCLUSIVE),
                         ("Degenerate", oracle.DEGENERATE)):
        if display.startswith(prefix):
            return kind
    return display


# --- smallprime_residual ---------------------------------------------------

SMALL_PRIME = 101
# Dh of a complete intersection of a quartic and a septic (28 points).
UNION_DIFFERENCES = (1, 2, 3, 4, 4, 4, 4, 3, 2, 1, 0)


def _smallprime_verdict_ok(report) -> bool:
    """Never IdentifiableOfRank for a known-unidentifiable form.  octic14
    either finds the second decomposition or stops at precondition 3
    (k_3 < 10, the usual case at p=101), leaving ranger's ComputesRank."""
    octic = next((c for c in report["criteria"] if c["name"] == "octic14"), None)
    if octic is None:
        return False
    if octic["verdict"] == "NotIdentifiable":
        return report["verdict"] == "NotIdentifiable" and report["rank"] == 14
    stopped_at_3 = (octic["verdict"].startswith("Degenerate")
                    and ["failed_test", 3] in octic["evidence"])
    return stopped_at_3 and report["verdict"] == "ComputesRank(14)" and report["rank"] == 14


class SmallprimeResidual:
    """Rational-residual unidentifiable octics over Z_101 and the audit of
    their 28-point complete intersection."""

    name = "smallprime_residual"
    primes = (SMALL_PRIME,)
    trace_passes = 12
    # A check costs about eight generations.  Four instances per pass,
    # each generated and audited, the first also checked, give the
    # heavy-tailed generator about 150 samples per run and the check
    # about 37.
    GENS_PER_PASS = 4

    def __init__(self, wc, root: Path, seed: int):
        self.wc = wc
        self.base = seed * 1000

    def _gen(self, s):
        g = self.wc.generate.gen_unidentifiable(s, prime=SMALL_PRIME,
                                                 rational_residual=True)
        return g, _serialize(self.wc, g.instance, {"seed": g.seed})

    def _audit(self, pointset, a):
        """demos/residual_points.py: recover B from the witness, then the
        union's Cayley-Bacharach and Hilbert profile."""
        wc = self.wc
        fam = wc.octic14.residual_family(wc.octic14.hilbert_burch(pointset))
        quintics = [pm.specialize(a) for pm in fam.param_minors]
        found = wc.generate.recover_residual_points(fam.base.Q, quintics, pointset)
        union = pointset.union(wc.points.PointSet(pointset.ctx, found))
        return (found, len(union), wc.points.cb_check(union, 8),
                wc.points.hilbert_profile(union, 10).differences)

    def run_pass(self, i: int, rec: Recorder) -> None:
        first = None
        for j in range(self.GENS_PER_PASS):
            s = self.base + self.GENS_PER_PASS * i + j
            what = f"p=101 seed {s}"
            g, text = rec.op("gen", self._gen, s)
            rec.expect(g.ground_truth == "known_unidentifiable",
                       f"{what}: ground truth {g.ground_truth}")
            found, size, cb8, diffs = rec.op("audit", self._audit, g.instance.pointset,
                                             g.witness_data["a"])
            residual = sorted(tuple(pt) for pt in g.witness_data["residual_points"])
            rec.outcome(("audit", what, sorted(found), size, cb8, diffs))
            rec.expect(sorted(found) == residual, f"{what}: recovered {len(found)} points")
            rec.expect(size == 28 and cb8 and diffs == UNION_DIFFERENCES,
                       f"{what}: union {size} points, CB(8) {cb8}, Dh {diffs}")
            first = first or (what, text)
        what, text = first
        _check_recheck(rec, what, _smallprime_verdict_ok,
                       partial(_certify_text, self.wc, text),
                       partial(_recertify, self.wc))


WORKLOADS = {w.name: w for w in (Octic14Roundtrip, HilbertLowrank, SmallprimeResidual)}
