import importlib.util
import time
from math import prod
from pathlib import Path

import numpy as np
import pytest

from waringcert import (
    DenseMatrix,
    GradedPoly,
    Instance,
    PointSet,
    PrimeContext,
    evaluation_matrix,
    gen_identifiable,
    gen_unidentifiable,
    kruskal_rank,
    mo_certify,
    monomial_basis,
    range_certify,
    ranger_certify,
    reshaped_kruskal_certify,
    run_criteria,
    veronese_vector,
)
from waringcert import criteria as criteria_module
from waringcert import octic14 as octic14_module
from waringcert import points as points_module
from waringcert.criteria import admissible_splits, check_nonredundant
from waringcert.errors import BadSplit, NotConcise, RedundancyDetected
from waringcert.storage import canonical_json, instance_to_obj, parse_instance

from conftest import fact_degrees, fixture_instance, random_instance, random_pointset


def test_admissible_splits_order():
    assert admissible_splits(8)[0] == (3, 3, 2)
    assert set(admissible_splits(8)) == {
        (3, 3, 2), (4, 2, 2), (4, 3, 1), (5, 2, 1), (6, 1, 1)}
    assert admissible_splits(3) == [(1, 1, 1)]


def test_nonredundancy_rejects_zero_lambda(ctx):
    rng = np.random.default_rng(0)
    ps = random_pointset(ctx, rng, 5, n=2)
    lam = [1, 2, 0, 4, 5]
    with pytest.raises(RedundancyDetected):
        check_nonredundant(Instance(ps, 4, lam))


def test_nonredundancy_rejects_dependent_images(ctx):
    # 4 collinear points are dependent already in degree 1
    ps = PointSet(ctx, [(1, t, 0) for t in range(4)])
    with pytest.raises(RedundancyDetected):
        check_nonredundant(Instance(ps, 1, [1, 1, 1, 1]))


# -------------------------------------------------------------------- instance

@pytest.mark.parametrize("p", [3, 101, 31991, 2**31 - 1])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_coeff_vector_matches_the_plain_int_sum(p, n):
    # T = sum_i lambda_i * v_d(P_i), coefficient by coefficient in Python ints
    rng = np.random.default_rng(p + n)
    ps = random_pointset(PrimeContext(p), rng, 3, n=n)
    lam = [int(x) for x in rng.integers(-10 * p, 10 * p, size=3)]
    d = 4
    inst = Instance(ps, d, lam)
    expected = [sum(c * prod(x ** k for x, k in zip(q, e)) for c, q in zip(lam, ps)) % p
                for e in monomial_basis(n, d).exponents]
    assert inst.coeff_vector.tolist() == expected


def test_coeff_vector_is_a_read_only_memo(ctx):
    inst = random_instance(ctx, np.random.default_rng(0), 5, 4)
    t = inst.coeff_vector
    assert not t.flags.writeable
    assert inst.coeff_vector is t
    with pytest.raises(ValueError):
        t[0] = 1
    for name in ("coeff_vector", "_coeff_vector", "lam", "degree", "pointset", "other"):
        with pytest.raises(AttributeError):
            setattr(inst, name, None)
    assert inst.coeff_vector is t


def test_mo_builds_no_evaluation_matrix_in_the_form_degree(ctx):
    # 20 points of P^3 at d = 9: mo reads h_A up to 4, never the 20 x 220 ev(A, 9)
    inst = random_instance(ctx, np.random.default_rng(0), 20, 9, n=3)
    assert mo_certify(inst).display() == "IdentifiableOfRank(20)"
    assert 9 not in fact_degrees(inst.pointset, "ev")


def test_precondition_3_stop_reads_no_octic():
    # a p = 101 rational-residual octic fails k_3(A) >= 10 before the
    # octic14 system, the one reader of T, so ev(A, 8) is never built
    gen = gen_unidentifiable(0, 101, rational_residual=True)
    inst, _ = parse_instance(canonical_json(instance_to_obj(gen.instance, {})))
    _, results = run_criteria(inst, "all")
    assert dict(results)["octic14"].reason.startswith("k_3(A) < 10")
    assert fact_degrees(inst.pointset, "ev") == [3, 4]


def test_gen_identifiable_builds_no_octic():
    inst = gen_identifiable(0).instance
    assert fact_degrees(inst.pointset, "ev") == [3, 4, 5]


# What a cold check computed, as the fact keys it leaves on the point set.
OCTIC_FACTS = {("ev", 3), ("ev", 4), ("ev", 5), ("ev", 8), ("h", 4), ("h", 8),
               ("level", 3, 10), ("transform",), ("hilbert_burch",), ("point_stages",)}


def rational_101(seed):
    """A fresh parse of the p = 101 rational-residual octic of this seed."""
    gen = gen_unidentifiable(seed, 101, rational_residual=True)
    return parse_instance(canonical_json(instance_to_obj(gen.instance, {})))[0]


@pytest.mark.parametrize("name, facts", [
    ("optics_T1", OCTIC_FACTS),
    ("optics_T2", OCTIC_FACTS),
    ("six_general", {("ev", 1), ("ev", 2), ("h", 1), ("h", 2)}),
    # stops at precondition 3, so G is built at d0 = 4 and read by no stage
    ("rational_101_seed0", {("ev", 3), ("ev", 4), ("h", 4), ("h", 8), ("level", 3, 10),
                            ("transform",)}),
])
def test_cold_check_leaves_exactly_these_facts(name, facts):
    inst = rational_101(0) if name == "rational_101_seed0" else fixture_instance(name)
    run_criteria(inst, "all")
    assert inst.pointset._facts.keys() == facts


def test_cold_check_where_hilbert_burch_raises_keeps_no_stage(monkeypatch):
    # a syzygy kernel of the wrong dimension fails Hilbert-Burch once the
    # preconditions have passed: neither stage is stored, nor is ev(A, 8),
    # as the system that reads T is never reached
    monkeypatch.setattr(octic14_module, "kernel_mod", lambda a, p: [])
    inst = fixture_instance("optics_T1")
    _, results = run_criteria(inst, "all")
    assert dict(results)["octic14"].reason.startswith("SyzygyDimension")
    assert inst.pointset._facts.keys() == OCTIC_FACTS - {
        ("hilbert_burch",), ("point_stages",), ("ev", 8)}


@pytest.mark.parametrize("lam", [
    [True, 2, 3],
    [1, np.bool_(False), 3],
    np.array([True, True, False]),
])
def test_instance_refuses_bool_coefficients(ctx, lam):
    # as do matrix entries, form coefficients and an evaluation point
    ps = PointSet(ctx, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    for read in (lambda: Instance(ps, 2, lam), lambda: DenseMatrix(ctx, [lam]),
                 lambda: GradedPoly(ctx, monomial_basis(2, 1), lam),
                 lambda: veronese_vector(ctx, lam, 2)):
        with pytest.raises(TypeError, match="bool"):
            read()


# --------------------------------------------------------------- reshaped bound

def test_kruskal_certifies_11_points_degree8(ctx):
    rng = np.random.default_rng(1)
    inst = random_instance(ctx, rng, 11, 8)
    cert = reshaped_kruskal_certify(inst)
    assert cert.display() == "IdentifiableOfRank(11)"
    ev = cert.evidence_dict()
    # (3, 3, 2) is the most balanced split of 8, so it is tried first
    assert "kruskal_bound_3_3_2" in ev and ev["certifying_split"] == "3+3+2"


def test_kruskal_inconclusive_at_14(ctx, t1):
    cert = reshaped_kruskal_certify(t1)
    assert cert.verdict == "inconclusive"
    # the best split bound is (14 + 10 + 1 - 2)/2 = 25/2 < 14
    assert "25/2" in cert.reason


def test_kruskal_records_cap_bounds_at_14(t1):
    ev = reshaped_kruskal_certify(t1).evidence_dict()
    assert ev["kruskal_cap_bound_4_3_1"] == "(14+10+3-2)/2 = 25/2"
    assert not any(key.startswith("kruskal_bound_") for key in ev)


def no_subsets(*_):
    raise AssertionError("a Kruskal level was enumerated")


def test_cap_first_criteria_compute_no_kruskal_rank(monkeypatch):
    # r = 14 is past range's cap 13 and every split's cap bound, so the
    # verdict follows from the caps before any subset is enumerated
    inst = fixture_instance("optics_T1")
    monkeypatch.setattr(points_module, "_first_dependent_subset", no_subsets)
    cert = range_certify(inst)
    assert cert.evidence_dict()["skipped"] == "kruskal_3: r = 14 > rank_cap = 13"
    assert reshaped_kruskal_certify(inst).verdict == "inconclusive"


def test_ranger_odd_degree_over_cap_skips_kruskal(ctx, monkeypatch):
    # degree 7: cap 12, so 13 points are decided by the cap alone
    rng = np.random.default_rng(12)
    inst = random_instance(ctx, rng, 13, 7)
    monkeypatch.setattr(points_module, "_first_dependent_subset", no_subsets)
    cert = ranger_certify(inst)
    assert cert.verdict == "inconclusive"
    assert cert.evidence_dict()["rank_cap"] == 12


def test_range_stops_at_the_floor_on_a_collinear_tail(ctx):
    # eight collinear points put k_5 far below its cap 21; an exact rank
    # would descend through every size from 21 to 6, the floor test stops
    # at the first dependent 21-subset
    rng = np.random.default_rng(0)
    pts = [tuple(int(c) for c in row) for row in rng.integers(1, ctx.p, size=(14, 3))]
    pts += [(1, t, 0) for t in range(1, 9)]
    inst = Instance(PointSet(ctx, pts), 12, rng.integers(1, ctx.p, size=22))
    t0 = time.perf_counter()
    cert = range_certify(inst)
    assert time.perf_counter() - t0 < 1.0
    assert cert.verdict == "inconclusive"
    assert cert.evidence_dict()["kruskal_5"] == "< 21"


def test_reshaped_kruskal_stops_at_its_floors_on_a_collinear_tail(ctx):
    # the same set through every criterion: each split that passes its
    # caps ends at its first floor instead of descending to exact ranks
    rng = np.random.default_rng(0)
    pts = [tuple(int(c) for c in row) for row in rng.integers(1, ctx.p, size=(14, 3))]
    pts += [(1, t, 0) for t in range(1, 9)]
    inst = Instance(PointSet(ctx, pts), 12, rng.integers(1, ctx.p, size=22))
    t0 = time.perf_counter()
    final, results = run_criteria(inst)
    assert time.perf_counter() - t0 < 1.0
    assert final.verdict == "inconclusive"
    cert = dict(results)["kruskal"]
    ev = cert.evidence_dict()
    assert ev["kruskal_bound_5_4_3"] == "(<21+15+10-2)/2 < 22"
    assert ev["kruskal_bound_5_5_2"] == "(<19+21+6-2)/2 < 22"
    assert ev["kruskal_bound_6_5_1"] == "(<22+21+3-2)/2 < 22"
    assert cert.reason == "ell(A) = 22 exceeds every split bound (best 43/2)"


def test_reshaped_kruskal_decides_each_level_once_across_splits(ctx, monkeypatch):
    # 5+4+3 and 5+5+2 both descend k_5 from its cap 21, to floors 21 and
    # 19: the second split reads the level the first one decided from the
    # point set
    rng = np.random.default_rng(0)
    pts = [tuple(int(c) for c in row) for row in rng.integers(1, ctx.p, size=(14, 3))]
    pts += [(1, t, 0) for t in range(1, 9)]
    inst = Instance(PointSet(ctx, pts), 12, rng.integers(1, ctx.p, size=22))
    asked, decided = [], []
    detail, first_dependent = (criteria_module.kruskal_rank_detail,
                               points_module._first_dependent_subset)

    def asking(Z, d, floor):
        asked.append((d, floor))
        return detail(Z, d, floor)

    def deciding(mat, p, k):
        decided.append((mat.shape[1], k))
        return first_dependent(mat, p, k)

    monkeypatch.setattr(criteria_module, "kruskal_rank_detail", asking)
    monkeypatch.setattr(points_module, "_first_dependent_subset", deciding)
    cert = reshaped_kruskal_certify(inst)
    assert cert.evidence_dict()["kruskal_bound_5_5_2"] == "(<19+21+6-2)/2 < 22"
    assert asked == [(5, 21), (5, 19), (6, 22)] and decided.count((21, 21)) == 1
    assert len(set(decided)) == len(decided)


def load_bench_oracle():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("bench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("d", (5, 6, 7, 8))
def test_run_criteria_matches_the_plain_int_oracle_on_collinear_tails(ctx, d):
    # the reshaped floors must not change a verdict: random plane sets,
    # some with points on one line, against the benchmark's oracle
    oracle = load_bench_oracle()
    rng = np.random.default_rng(d)
    floors_hit = 0
    for ell in range(5, 14):
        for tail in (0, 3, 5):
            pts = [tuple(int(c) for c in row)
                   for row in rng.integers(1, ctx.p, size=(ell - tail, 3))]
            pts += [(1, int(t), 0) for t in rng.choice(ctx.p, size=tail, replace=False)]
            expect = oracle.expected_verdict(oracle.PointFacts(pts, ctx.p), d)
            if expect[0] == oracle.DEGENERATE:
                continue
            inst = Instance(PointSet(ctx, pts), d, rng.integers(1, ctx.p, size=ell))
            final, results = run_criteria(inst)
            assert (final.verdict, final.rank) == expect, (d, ell, tail)
            kruskal = dict(results).get("kruskal")
            floors_hit += kruskal is not None and any(
                key.startswith("kruskal_bound_") and "<" in value
                for key, value in kruskal.evidence)
    assert floors_hit


def test_reshaped_kruskal_descends_to_a_rank_below_its_cap(ctx):
    # four collinear points: k_2 = 3 < 6 while k_3 stays at its cap
    rng = np.random.default_rng(5)
    line = [(1, t, 0) for t in (2, 3, 5, 7)]
    for ell, expect in ((10, "(10+10+3-2)/2 = 21/2"), (11, "(10+10+<4-2)/2 < 11")):
        pts = line + [tuple(int(c) for c in row)
                      for row in rng.integers(1, ctx.p, size=(ell - 4, 3))]
        inst = Instance(PointSet(ctx, pts), 8, rng.integers(1, ctx.p, size=ell))
        cert = reshaped_kruskal_certify(inst)
        assert cert.evidence_dict()["kruskal_bound_3_3_2"] == expect
        assert kruskal_rank(inst.pointset, 2) == 3
        assert cert.verdict == ("identifiable" if ell == 10 else "inconclusive")


def test_driver_skips_plane_criteria_in_p3(ctx):
    rng = np.random.default_rng(20)
    inst = random_instance(ctx, rng, 20, 6, n=3)
    final, results = run_criteria(inst)
    assert final.verdict == "inconclusive"
    assert [name for name, _ in results] == ["range", "ranger", "kruskal"]
    for _, cert in results[:2]:
        assert cert.verdict == "inconclusive"
        assert cert.evidence_dict()["skipped"] == "stated for plane point sets, got n = 3"


def test_driver_skips_kruskal_below_degree_3():
    # six general points in degree 2: no criterion decides, so the run
    # ends inconclusive instead of on the reshaped criterion's BadSplit
    final, results = run_criteria(fixture_instance("six_general"))
    assert final.verdict == "inconclusive"
    kruskal = dict(results)["kruskal"]
    assert kruskal.verdict == "inconclusive"
    assert kruskal.evidence_dict()["skipped"] == "stated for degree >= 3, got d = 2"


def test_kruskal_inconclusive_small_degree(ctx):
    rng = np.random.default_rng(2)
    inst = random_instance(ctx, rng, 5, 3)
    cert = reshaped_kruskal_certify(inst)
    assert cert.verdict == "inconclusive"


def test_kruskal_bad_split(ctx):
    # no split d1 >= d2 >= d3 >= 1 of a degree below 3
    rng = np.random.default_rng(3)
    inst = random_instance(ctx, rng, 5, 2)
    with pytest.raises(BadSplit):
        reshaped_kruskal_certify(inst)


# ----------------------------------------------------------------------- range

def test_range_13_generic_points_degree8(ctx):
    rng = np.random.default_rng(4)
    inst = random_instance(ctx, rng, 13, 8)
    cert = range_certify(inst)
    assert cert.display() == "IdentifiableOfRank(13)"
    ev = cert.evidence_dict()
    assert ev["kruskal_3"] == 10 and ev["hilbert_4"] == 13


def test_range_inconclusive_at_14(t1):
    cert = range_certify(t1)
    assert cert.verdict == "inconclusive"
    assert cert.evidence_dict()["rank_cap"] == 13


def test_range_sylvester_degree5(ctx):
    rng = np.random.default_rng(5)
    inst = random_instance(ctx, rng, 7, 5)
    cert = range_certify(inst)
    assert cert.display() == "IdentifiableOfRank(7)"
    ev = cert.evidence_dict()
    assert ev["kruskal_2"] == 6 and ev["hilbert_3"] == 7 and ev["rank_cap"] == 7


# ---------------------------------------------------------------------- ranger

def test_ranger_reference_set(t1):
    cert = ranger_certify(t1)
    assert cert.display() == "ComputesRank(14)"
    assert cert.evidence_dict()["hilbert_4"] == 14


def test_ranger_generic_rank_degree6(ctx):
    rng = np.random.default_rng(6)
    inst = random_instance(ctx, rng, 10, 6)
    cert = ranger_certify(inst)
    assert cert.display() == "ComputesRank(10)"


def test_ranger_16_points_inconclusive(ctx):
    rng = np.random.default_rng(7)
    inst = random_instance(ctx, rng, 16, 8)
    cert = ranger_certify(inst)
    assert cert.verdict == "inconclusive"


def test_ranger_odd_degree(ctx):
    # degree 7 = 2*3+1: cap C(5,2) + ceil(3/2) = 12
    rng = np.random.default_rng(8)
    inst = random_instance(ctx, rng, 12, 7)
    cert = ranger_certify(inst)
    assert cert.display() == "ComputesRank(12)"
    assert cert.evidence_dict()["rank_cap"] == 12


# -------------------------------------------------------------------------- mo

def test_mo_nine_points_degree6_in_p3(ctx):
    rng = np.random.default_rng(9)
    inst = random_instance(ctx, rng, 9, 6, n=3)
    cert = mo_certify(inst)
    assert cert.display() == "IdentifiableOfRank(9)"
    ev = cert.evidence_dict()
    assert ev["hilbert_2"] == 9


def test_mo_small_coordinate_general(ctx):
    # r <= n+1 points, even degree, zero defect
    rng = np.random.default_rng(10)
    inst = random_instance(ctx, rng, 3, 4, n=2)
    cert = mo_certify(inst)
    assert cert.display() == "IdentifiableOfRank(3)"


def test_mo_degenerate_set_not_concise(ctx):
    # five points inside the plane x3 = 0 of P^3 cannot be concise
    pts = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 0), (1, 2, 3, 0)]
    inst = Instance(PointSet(ctx, pts), 4, [1] * 5)
    with pytest.raises(NotConcise):
        mo_certify(inst)


def test_mo_odd_degree_requires_kruskal(ctx):
    rng = np.random.default_rng(11)
    # d = 7 (m = 3), 6 general points in P^3: defect bound min(1, 1) = 1,
    # h(2) = 6 >= 5, and k_3 = 6 must hold
    inst = random_instance(ctx, rng, 6, 7, n=3)
    cert = mo_certify(inst)
    assert cert.display() == "IdentifiableOfRank(6)"
    assert cert.evidence_dict()["kruskal_3"] == 6


def test_certificates_are_pure(t1):
    a = ranger_certify(t1)
    b = ranger_certify(t1)
    assert a.evidence == b.evidence and a.display() == b.display()


@pytest.mark.parametrize("verdict, rank, reason", [
    (criteria_module.IDENTIFIABLE, 14, None),
    (criteria_module.COMPUTES_RANK, 9, None),
    (criteria_module.INCONCLUSIVE, None, "length 15 exceeds the cap 14"),
])
def test_equal_verdicts_display_as_one_shared_string(verdict, rank, reason):
    # a caller that keeps many reports keeps one copy of each verdict text
    a = criteria_module.Certificate(verdict, rank, reason)
    b = criteria_module.Certificate(verdict, rank, reason)
    assert a.display() == b.display() and a.display() is b.display()


def test_bound_arithmetic_against_monomial_counts():
    # the binomial caps used by the criteria equal dimensions counted by
    # enumerating monomials, for every degree in range
    from math import comb

    from waringcert import monomial_basis

    for d in range(3, 13):
        m = d // 2
        assert comb(m + 2, 2) == len(monomial_basis(2, m).exponents)
        if m >= 1:
            assert comb(m + 1, 2) == len(monomial_basis(2, m - 1).exponents)


def test_range_inconclusive_on_generated_unidentifiable():
    # soundness: ground-truth unidentifiable instances must never be
    # certified by the rank/Hilbert criterion (their length exceeds its cap)
    from waringcert import gen_unidentifiable, reshaped_kruskal_certify

    for seed in (0, 1, 2):
        inst = gen_unidentifiable(seed).instance
        assert range_certify(inst).verdict == "inconclusive"
        assert reshaped_kruskal_certify(inst).verdict == "inconclusive"
