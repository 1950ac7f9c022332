"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; the
generated batteries are built once per module and shared.
"""

import time

import numpy as np
import pytest

from waringcert import (
    FULL,
    PAPER13,
    Instance,
    PointSet,
    PrimeContext,
    cb_check,
    certify_octic14,
    evaluation_matrix,
    gen_identifiable,
    gen_unidentifiable,
    hilbert_burch,
    hilbert_profile,
    normalization_check,
    range_certify,
    ranger_certify,
    recover_residual_points,
    residual_family,
    span_intersection_dim,
)
from waringcert.errors import WaringError
from waringcert.ffield import matmul_mod, rank_mod
from waringcert.polys import det_poly, mult_map

from conftest import fixture_instance, random_instance, random_pointset, six_point_sets
from test_points import cap_formula_dim

CI_DIFFERENCES = (1, 2, 3, 4, 4, 4, 4, 3, 2, 1, 0)
BATCH = 50
TIMINGS = {}


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def unident_batch():
    t0 = time.perf_counter()
    batch = [gen_unidentifiable(seed) for seed in range(BATCH)]
    TIMINGS["gen_unident"] = time.perf_counter() - t0
    return batch


@pytest.fixture(scope="module")
def ident_batch():
    t0 = time.perf_counter()
    batch = [gen_identifiable(1000 + seed) for seed in range(BATCH)]
    TIMINGS["gen_ident"] = time.perf_counter() - t0
    return batch


@pytest.fixture(scope="module")
def full_certs(unident_batch, ident_batch):
    t0 = time.perf_counter()
    certs = {
        "unident": [certify_octic14(g.instance, mode=FULL) for g in unident_batch],
        "ident": [certify_octic14(g.instance, mode=FULL) for g in ident_batch],
    }
    TIMINGS["certify_full"] = time.perf_counter() - t0
    return certs


@pytest.fixture(scope="module")
def paper13_certs(unident_batch, ident_batch):
    return {
        "unident": [certify_octic14(g.instance, mode=PAPER13) for g in unident_batch],
        "ident": [certify_octic14(g.instance, mode=PAPER13) for g in ident_batch],
    }


@pytest.fixture(scope="module")
def rational_batch():
    return [gen_unidentifiable(seed, prime=101, rational_residual=True)
            for seed in (3, 5, 11)]


def test_criterion_1_reference_identifiable():
    t0 = time.perf_counter()
    inst = fixture_instance("optics_T1")
    cert = certify_octic14(inst, mode=FULL)
    elapsed = time.perf_counter() - t0
    ev = cert.evidence_dict()
    ranks = (ev.get("rank_ev8"), ev.get("hilbert_4"), ev.get("kruskal_3"))
    ok = (
        ranks == (14, 14, 10)
        and ev.get("kruskal_3_subsets") == 1001
        and ev.get("system_rank") == 12
        and cert.display() == "IdentifiableOfRank(14)"
        and elapsed < 5.0
    )
    report(1, ok, f"tests 1-3 ranks {ranks}, system rank "
                  f"{ev.get('system_rank')}, verdict {cert.display()}, "
                  f"{elapsed:.2f}s")


def test_criterion_2_reference_unidentifiable():
    t0 = time.perf_counter()
    inst = fixture_instance("optics_T2")
    cert = certify_octic14(inst, mode=FULL)
    elapsed = time.perf_counter() - t0
    ev = cert.evidence_dict()
    ok = (
        ev.get("system_rank") == 11
        and cert.display() == "NotIdentifiable"
        and cert.witness is not None
        and ev.get("orthogonal_generators") == 55
        and ev.get("ideal_sum_dim_8") == 44
        and elapsed < 5.0
    )
    report(2, ok, f"system rank {ev.get('system_rank')}, witness verified, "
                  f"verdict {cert.display()}, {elapsed:.2f}s")


def test_criterion_3_mode_equivalence(full_certs, paper13_certs):
    t1 = fixture_instance("optics_T1")
    t2 = fixture_instance("optics_T2")
    agree = (
        certify_octic14(t1, mode=FULL).verdict
        == certify_octic14(t1, mode=PAPER13).verdict
        and certify_octic14(t2, mode=FULL).verdict
        == certify_octic14(t2, mode=PAPER13).verdict
    )
    mismatches = 0
    for kind in ("unident", "ident"):
        for a, b in zip(full_certs[kind], paper13_certs[kind]):
            if a.verdict != b.verdict:
                mismatches += 1
    ok = agree and mismatches == 0
    report(3, ok, f"reference pair plus {2 * BATCH} generated instances, "
                  f"{mismatches} verdict mismatches between modes")


def test_criterion_4_generator_round_trip(full_certs):
    n_unident = sum(c.display() == "NotIdentifiable" for c in full_certs["unident"])
    n_ident = sum(c.display() == "IdentifiableOfRank(14)" for c in full_certs["ident"])
    witnesses_ok = all(
        c.witness is not None and c.evidence_dict().get("ideal_sum_dim_8") == 44
        for c in full_certs["unident"]
    )
    total = TIMINGS.get("gen_unident", 0) + TIMINGS.get("gen_ident", 0) \
        + TIMINGS.get("certify_full", 0)
    ok = (n_unident == BATCH and n_ident == BATCH and witnesses_ok
          and total < 180.0)
    report(4, ok, f"{n_unident}/{BATCH} not-identifiable with verified "
                  f"witnesses, {n_ident}/{BATCH} identifiable, {total:.1f}s total")


def test_criterion_5_hilbert_property_suite(ctx):
    rng = np.random.default_rng(2024)
    checked = 0
    failures = []
    while checked < 200:
        n = int(rng.integers(2, 4))
        count = int(rng.integers(2, 21))
        z = random_pointset(ctx, rng, count, n=n)
        j_top = max(12, count)
        prof = hilbert_profile(z, j_top)
        if prof.dh(-1) != 0:
            failures.append("item1")
        if prof.values[0] != 1 or prof.differences[0] != 1:
            failures.append("item2")
        if any(d < 0 for d in prof.differences):
            failures.append("item3")
        if any(prof.values[i] != sum(prof.differences[:i + 1])
               for i in range(j_top + 1)):
            failures.append("item4")
        if prof.values[-1] != count or prof.differences[-1] != 0:
            failures.append("items5-6")
        if sum(prof.differences) != count:
            failures.append("item7")
        if count > 2:
            keep = sorted(rng.choice(count, size=count - 1, replace=False))
            sub = hilbert_profile(PointSet(z.ctx, [z.points[i] for i in keep]), j_top)
            if any(sub.values[j] > prof.values[j] for j in range(j_top + 1)):
                failures.append("inclusion-h")
            if any(sub.differences[j] > prof.differences[j]
                   for j in range(j_top + 1)):
                failures.append("inclusion-Dh")
        for i in range(1, j_top):
            if prof.dh(i) <= i and prof.dh(i + 1) > prof.dh(i):
                failures.append("nonincreasing")
        checked += 1
    report(5, not failures,
           f"200 random point sets, violations: {failures or 'none'}")


def test_criterion_6_cap_oracle_equivalence(ctx):
    rng = np.random.default_rng(77)
    checked = 0
    overlapping = 0
    mismatches = 0
    while checked < 100:
        n = int(rng.integers(2, 4))
        a = random_pointset(ctx, rng, int(rng.integers(2, 9)), n=n)
        extra = random_pointset(ctx, rng, int(rng.integers(2, 9)), n=n)
        n_overlap = int(rng.integers(0, len(a) + 1)) if checked % 2 else 0
        overlap = [a.points[i] for i in
                   rng.choice(len(a), size=min(n_overlap, len(a)), replace=False)]
        try:
            b = PointSet(ctx, overlap + list(extra.points)) if overlap else extra
        except WaringError:
            continue
        d = int(rng.integers(1, 7))
        # the closed form needs both sets independent in degree d
        if evaluation_matrix(a, d).rank() != len(a):
            continue
        if evaluation_matrix(b, d).rank() != len(b):
            continue
        if set(a.canonical_keys()) & set(b.canonical_keys()):
            overlapping += 1
        if span_intersection_dim(a, b, d) != cap_formula_dim(a, b, d):
            mismatches += 1
        checked += 1
    ok = mismatches == 0 and overlapping >= 20
    report(6, ok, f"100 triples ({overlapping} overlapping), "
                  f"{mismatches} mismatches")


def test_criterion_7_cayley_bacharach_suite(rational_batch):
    sets = six_point_sets()
    tables = {
        "general": ((1, 3, 6, 6), (1, 2, 3, 0), 3),
        "on_conic": ((1, 3, 5, 6, 6), (1, 2, 2, 1, 0), 4),
        "five_aligned": ((1, 3, 4, 5, 6, 6), (1, 2, 1, 1, 1, 0), 5),
    }
    table_ok = all(
        hilbert_profile(sets[name], j).values == h
        and hilbert_profile(sets[name], j).differences == dh
        for name, (h, dh, j) in tables.items()
    )
    cb_ok = (
        cb_check(sets["on_conic"], 2) and cb_check(sets["on_conic"], 1)
        and not cb_check(sets["general"], 2) and cb_check(sets["general"], 1)
        and not cb_check(sets["five_aligned"], 1)
    )
    union_ok = True
    for g in rational_batch:
        inst = g.instance
        fam = residual_family(hilbert_burch(inst.pointset))
        astar = np.array(g.witness_data["a"], dtype=np.int64)
        quintics = [pm.specialize(astar) for pm in fam.param_minors]
        found = recover_residual_points(fam.base.Q, quintics, inst.pointset)
        if len(found) != 14:
            union_ok = False
            continue
        union = inst.pointset.union(PointSet(inst.ctx, found))
        prof = hilbert_profile(union, 10)
        if prof.differences != CI_DIFFERENCES or not cb_check(union, 8):
            union_ok = False
        for j in range(10):
            low = sum(prof.dh(i) for i in range(j + 1))
            high = sum(prof.dh(i) for i in range(9 - j, 10))
            if low > high:
                union_ok = False
    ok = table_ok and cb_ok and union_ok
    report(7, ok, f"six-point tables {'ok' if table_ok else 'BAD'}, "
                  f"verdicts {'ok' if cb_ok else 'BAD'}, "
                  f"{len(rational_batch)} recovered 28-point unions "
                  f"{'ok' if union_ok else 'BAD'}")


def test_criterion_8_hilbert_burch_structure(ident_batch):
    pointsets = [fixture_instance("optics_T1").pointset] \
        + [g.instance.pointset for g in ident_batch]
    bad = 0
    for ps in pointsets:
        p = ps.ctx.p
        try:
            hb = hilbert_burch(ps)
        except WaringError:
            bad += 1
            continue
        phi = np.hstack([mult_map(hb.Q, 6)] + [mult_map(q, 6) for q in hb.quintics])
        cols = np.array([
            np.concatenate([hb.M[0][k].coeffs]
                           + [hb.M[1 + j][k].coeffs for j in range(4)])
            for k in range(4)
        ]).T
        if rank_mod(cols.T, p) != 4:
            bad += 1
            continue
        if np.any(matmul_mod(phi, cols, p)):
            bad += 1
            continue
        minor = det_poly([list(row) for row in hb.M[1:]])
        mu_candidates = [
            int(a) * pow(int(b), p - 2, p) % p
            for a, b in zip(minor.coeffs, hb.Q.coeffs) if b
        ]
        if len(set(mu_candidates)) != 1 or mu_candidates[0] == 0:
            bad += 1
            continue
        if normalization_check(hb)[1] != 12:
            bad += 1
    report(8, bad == 0,
           f"{len(pointsets)} point sets (reference + {len(ident_batch)} "
           f"random admissible), {bad} structural failures")


def test_criterion_9_general_criteria(ctx):
    rng = np.random.default_rng(99)
    c_range = range_certify(random_instance(ctx, rng, 13, 8))
    c_ranger = ranger_certify(fixture_instance("optics_T1"))
    c_sylvester = range_certify(random_instance(ctx, rng, 7, 5))
    c_sextic = ranger_certify(random_instance(ctx, rng, 10, 6))
    ok = (
        c_range.display() == "IdentifiableOfRank(13)"
        and c_ranger.display() == "ComputesRank(14)"
        and c_sylvester.display() == "IdentifiableOfRank(7)"
        and c_sextic.display() == "ComputesRank(10)"
    )
    report(9, ok, f"range(13,d8)={c_range.display()}, "
                  f"ranger(ref)={c_ranger.display()}, "
                  f"range(7,d5)={c_sylvester.display()}, "
                  f"ranger(10,d6)={c_sextic.display()}")


def test_criterion_10_non_soundness_guard(ctx):
    rng = np.random.default_rng(1234)
    identifiable_claims = 0
    outcomes = {"degenerate": 0, "rejected_input": 0, "other": 0}

    def certify_raw(points, lam):
        nonlocal identifiable_claims
        try:
            inst = Instance(PointSet(ctx, points), 8, lam)
            cert = certify_octic14(inst)
        except WaringError:
            outcomes["rejected_input"] += 1
            return
        if cert.verdict == "identifiable":
            identifiable_claims += 1
            outcomes["other"] += 1
        elif cert.verdict == "degenerate":
            outcomes["degenerate"] += 1
        else:
            outcomes["other"] += 1

    for i in range(334):  # a zero coefficient somewhere
        pts = rng.integers(1, ctx.p, size=(14, 3))
        lam = rng.integers(1, ctx.p, size=14)
        lam[rng.integers(0, 14)] = 0
        certify_raw(pts, lam)
    for i in range(333):  # a duplicated point
        pts = rng.integers(1, ctx.p, size=(14, 3))
        j, k = rng.choice(14, size=2, replace=False)
        scale = int(rng.integers(1, ctx.p))
        pts[j] = pts[k] * scale % ctx.p
        certify_raw(pts, rng.integers(1, ctx.p, size=14))
    for i in range(333):  # eleven points crowded onto a conic
        ts = rng.choice(ctx.p, size=11, replace=False)
        pts = [(1, int(t), int(t) * int(t) % ctx.p) for t in ts]
        pts += [tuple(int(c) for c in row)
                for row in rng.integers(1, ctx.p, size=(3, 3))]
        certify_raw(pts, rng.integers(1, ctx.p, size=14))

    ok = identifiable_claims == 0
    report(10, ok, f"1000 degenerate perturbations, "
                   f"{identifiable_claims} false identifiability claims "
                   f"(outcomes: {outcomes})")
