import sys
import threading
from itertools import combinations, product
from math import comb, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waringcert import (
    Instance,
    PointSet,
    PrimeContext,
    cb_check,
    evaluation_matrix,
    h1_defect,
    hilbert_profile,
    ideal_piece,
    kruskal_rank,
    kruskal_rank_detail,
    mo_certify,
    range_certify,
    span_intersection_dim,
)
from waringcert import ffield as ffield_module
from waringcert import generate as generate_module
from waringcert import monomial_basis, run_criteria
from waringcert import octic14 as octic14_module
from waringcert.errors import DuplicatePoint, ZeroPoint
from waringcert import points as points_module
from waringcert.ffield import kernel_mod, matmul_mod, rank_mod
from waringcert.points import (MAX_EVALUATION_ENTRIES, hilbert_value, kruskal_level,
                               kruskal_rank_at_least,
                               projectively_equal)

from conftest import fixture_instance, random_pointset, six_point_sets
from test_ffield import oracle_kernel, oracle_rank, oracle_rref


def conic_points(ctx, ts):
    """Points (1, t, t^2) of the irreducible conic x0*x2 = x1^2."""
    return PointSet(ctx, [(1, t, t * t % ctx.p) for t in ts])


def line_points(ctx, ts):
    return PointSet(ctx, [(1, t, 0) for t in ts])


# ---------------------------------------------------------------- construction

def test_rejects_zero_point(ctx):
    with pytest.raises(ZeroPoint):
        PointSet(ctx, [(1, 2, 3), (0, 0, 0)])


def test_rejects_projective_duplicates(ctx):
    with pytest.raises(DuplicatePoint):
        PointSet(ctx, [(1, 2, 3), (2, 4, 6)])


@pytest.mark.parametrize("bad", ((1.5, 0, 0), (1, 0j, 0), (True, 0, 1),
                                 np.array([1.0, 2.0, 3.0]), np.array([True, False, True])))
def test_rejects_coordinates_that_are_not_integers(ctx, bad):
    with pytest.raises(TypeError):
        PointSet(ctx, [(0, 1, 0), bad])


def test_accepts_numpy_integer_coordinates(ctx):
    rows = np.array([[1, -2, 3], [0, 1, 40000]], dtype=np.int64)
    want = ((1, ctx.p - 2, 3), (0, 1, 40000 - ctx.p))
    assert PointSet(ctx, rows).points == want
    assert PointSet(ctx, [[np.int64(1), np.int32(-2), np.uint8(3)], rows[1]]).points == want
    assert all(type(c) is int for pt in PointSet(ctx, rows).points for c in pt)


def test_projective_equality_by_minors(ctx):
    assert projectively_equal((1, 2, 3), (7, 14, 21), ctx.p)
    assert not projectively_equal((1, 2, 3), (1, 2, 4), ctx.p)


def test_union_and_intersection(ctx):
    a = PointSet(ctx, [(1, 0, 0), (0, 1, 0), (1, 1, 1)])
    b = PointSet(ctx, [(2, 2, 2), (0, 0, 5), (0, 1, 1)])
    u = a.union(b)
    assert len(u) == 5  # (2,2,2) ~ (1,1,1)
    assert len(set(a.canonical_keys()) & set(b.canonical_keys())) == 1


# ------------------------------------------------------------------ evaluation

def test_evaluation_matrix_coordinate_points(ctx):
    z = PointSet(ctx, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    m = evaluation_matrix(z, 1)
    assert np.array_equal(m.a, np.eye(3, dtype=np.int64))


def test_reference_evaluation_ranks(ref_points):
    assert evaluation_matrix(ref_points, 3).rank() == 10
    assert evaluation_matrix(ref_points, 4).rank() == 14
    assert evaluation_matrix(ref_points, 8).rank() == 14


def test_ideal_piece_is_kernel(ref_points):
    quartics = ideal_piece(ref_points, 4)
    assert len(quartics) == 1
    ev = evaluation_matrix(ref_points, 4)
    assert not np.any((ev.a @ quartics[0]) % ref_points.ctx.p)


# ------------------------------------------------------------ hilbert profiles

def test_six_general_profile(ctx):
    prof = hilbert_profile(six_point_sets()["general"], 3)
    assert prof.values == (1, 3, 6, 6)
    assert prof.differences == (1, 2, 3, 0)


def test_six_on_conic_profile(ctx):
    prof = hilbert_profile(six_point_sets()["on_conic"], 4)
    assert prof.values == (1, 3, 5, 6, 6)
    assert prof.differences == (1, 2, 2, 1, 0)


def test_six_five_aligned_profile(ctx):
    prof = hilbert_profile(six_point_sets()["five_aligned"], 5)
    assert prof.values == (1, 3, 4, 5, 6, 6)
    assert prof.differences == (1, 2, 1, 1, 1, 0)


def test_profile_elementary_invariants(ctx):
    from math import comb

    rng = np.random.default_rng(11)
    for n in (2, 3):
        for _ in range(10):
            count = int(rng.integers(2, 15))
            z = random_pointset(ctx, rng, count, n=n)
            prof = hilbert_profile(z, count)
            assert prof.dh(-1) == 0
            assert prof.values[0] == prof.differences[0] == 1
            assert all(d >= 0 for d in prof.differences)
            assert all(
                prof.values[i] == sum(prof.differences[: i + 1])
                for i in range(count + 1)
            )
            assert all(
                prof.values[j] <= min(comb(n + j, n), count)
                for j in range(count + 1)
            )
            assert prof.values[-1] == count
            assert sum(prof.differences) == count


def projective_space(p, n):
    """Every point of P^n over Z_p, first nonzero coordinate 1."""
    return np.array([pt for pt in product(range(p), repeat=n + 1)
                     if any(pt) and pt[np.flatnonzero(pt)[0]] == 1])


def random_subset(ctx, rng, count, n):
    """count distinct points; drawn from all of P^n when p is small."""
    space = projective_space(ctx.p, n) if ctx.p < 11 else None
    if space is None or count > len(space):
        return random_pointset(ctx, rng, count, n=n)
    return PointSet(ctx, space[rng.choice(len(space), count, replace=False)])


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("p", (3, 5))
def test_profile_saturation_matches_ranking_every_degree(p, n):
    # Over Z_3 and Z_5 these sets meet every hyperplane, so no linear form
    # misses them and the profile's shortcut after h = ell rests on field
    # extension alone; it must agree with ranking each degree.
    ctx = PrimeContext(p)
    space = projective_space(p, n)
    rng = np.random.default_rng(10 * p + n)
    # a whole line meets every hyperplane and keeps Delta h at 1 for p degrees
    on_line = np.flatnonzero(~space[:, 2:].any(axis=1))
    off_line = np.setdiff1d(np.arange(len(space)), on_line)
    checked = 0
    for count in (3 * p, len(space) // 2, len(space) // 2, len(space), 0, 2, 4):
        if count > 4:
            coords = space[rng.choice(len(space), count, replace=False)]
        else:
            coords = space[np.concatenate([on_line, rng.choice(off_line, count, replace=False)])]
            count += len(on_line)
        # hyperplanes are indexed by the same canonical vectors
        if not (coords @ space.T % p == 0).any(axis=0).all():
            continue
        j_max = 15
        expect = tuple(rank_mod(evaluation_matrix(PointSet(ctx, coords), j).a, p)
                       for j in range(j_max + 1))
        assert expect[-1] == count
        assert hilbert_profile(PointSet(ctx, coords), j_max).values == expect
        checked += 1
    assert checked >= 5


def plain_ev(points, j, n, p):
    """ev(Z, j) as plain ints: one row of degree-j monomials per point."""
    exps = monomial_basis(n, j).exponents
    return [[prod(pow(int(c), e, p) for c, e in zip(pt, ex)) % p for ex in exps]
            for pt in points]


def blocking_coords(p, n, rng, extra):
    """A point on every hyperplane x0 + t*x1 + ... + t^n*xn = 0, t in Z_p,
    plus up to `extra` random points, with projective duplicates dropped."""
    rows = []
    for t in range(p):
        tail = rng.integers(0, p, size=n)
        tail[0] = tail[0] or 1
        rows.append([-sum(pow(t, k + 1, p) * int(c) for k, c in enumerate(tail)) % p,
                     *tail.tolist()])
    rows += rng.integers(0, p, size=(extra, n + 1)).tolist()
    keys = {}
    for r in rows:
        if any(r):
            keys.setdefault(tuple(points_module._canonical_point(tuple(r), p)), r)
    return list(keys.values())


@pytest.mark.parametrize("p", (3, 5, 7, 101, 31991))
def test_profile_matches_oracle_in_every_chart(p):
    # sets missing x0 = 0, sets the profile shears, and (for p <= 7) sets
    # meeting every L_t, which fall back to ranking each degree
    ctx = PrimeContext(p)
    rng = np.random.default_rng(p)
    seen = {"x0": 0, "shear": 0, "fallback": 0}
    for n in (1, 2, 3):
        if p <= 7:
            space = projective_space(p, n)
            off, on = space[space[:, 0] != 0], space[space[:, 0] == 0]
        else:
            off = rng.integers(1, p, size=(40, n + 1))
            on = np.column_stack([np.zeros(40, dtype=np.int64), off[:, 1:]])
        for trial in range(12):
            pick = off[rng.choice(len(off), int(rng.integers(1, min(len(off), 10) + 1)),
                                  replace=False)]
            if trial % 3 == 0:
                coords = pick
            elif trial % 3 == 1 or p > 7:
                coords = np.vstack([on[rng.choice(len(on), min(2, len(on)), replace=False)],
                                    pick])
            else:
                coords = blocking_coords(p, n, rng, int(rng.integers(0, 4)))
            try:
                z = PointSet(ctx, coords)
            except DuplicatePoint:
                continue
            chart = points_module._chart(z)
            seen["fallback" if chart is None else "x0" if chart[0] == 0 else "shear"] += 1
            j_max = min(len(z) + 1, 9)
            expect = tuple(oracle_rank(plain_ev(z.points, j, n, p), p)
                           for j in range(j_max + 1))
            assert hilbert_profile(z, j_max).values == expect
    assert seen["x0"] and seen["shear"]
    assert seen["fallback"] or p > 7


def count_eliminations(monkeypatch):
    """Shapes of every row_echelon call from here on, through every
    module that binds it."""
    shapes = []
    real = ffield_module.row_echelon

    def counting(a, p):
        shapes.append(np.shape(a))
        return real(a, p)

    for module in (ffield_module, points_module, octic14_module, generate_module):
        monkeypatch.setattr(module, "row_echelon", counting)
    return shapes


@pytest.mark.parametrize("lead", ("any", "zero"))
def test_profile_is_one_elimination_with_a_chart(ctx, monkeypatch, lead):
    rng = np.random.default_rng(19)
    for n in (1, 2, 3):
        for count in (1, 5, 14, 30):
            z = random_pointset(ctx, rng, count, n=n)
            if lead == "zero":
                z = PointSet(ctx, [(0,) + z.points[0][1:], *z.points[1:]])
                assert points_module._chart(z)[0] != 0
            d0 = next(d for d in range(count + 1) if comb(d + n, n) >= count)
            shapes = count_eliminations(monkeypatch)
            prof = hilbert_profile(z, count)
            assert shapes == [(count, comb(d0 + n, n))] and prof.values[-1] == count


def test_profile_after_a_cold_check_eliminates_nothing(monkeypatch):
    inst = fixture_instance("optics_T1")
    run_criteria(inst)
    shapes = count_eliminations(monkeypatch)
    assert hilbert_profile(inst.pointset, 8).values == (1, 3, 6, 10, 14, 14, 14, 14, 14)
    assert shapes == []


def test_profile_of_collinear_points(ctx, monkeypatch):
    # D doubles from 14, the least d with C(d+2, 2) >= 120, until
    # h(D) = 120 or D = 120
    z = line_points(ctx, range(120))
    shapes = count_eliminations(monkeypatch)
    assert hilbert_profile(z, 120).values == tuple(min(j + 1, 120) for j in range(121))
    assert shapes == [(120, comb(D + 2, 2)) for D in (14, 28, 56, 112, 120)]


def test_profile_memoises_only_the_first_degree_it_tries(ctx):
    # D goes 7, 14, 28, 30 on 30 collinear points; each doubled ev(Z, D)
    # is read once, so only ev(Z, 7) and its echelon form stay on Z
    z = line_points(ctx, range(30))
    assert hilbert_profile(z, 30).values == tuple(min(j + 1, 30) for j in range(31))
    assert sorted(z._ev_cache) == [7]


def test_profile_refuses_degrees_past_the_evaluation_bound(ref_points):
    assert hilbert_profile(ref_points, MAX_EVALUATION_ENTRIES).values[-1] == 14
    for j_max in (-1, MAX_EVALUATION_ENTRIES + 1, 10**9):
        with pytest.raises(ValueError, match="j_max"):
            hilbert_profile(ref_points, j_max)


def test_large_profile_stops_at_the_first_degree_reaching_ell(ctx, monkeypatch):
    z = random_pointset(ctx, np.random.default_rng(300), 300)
    d0 = next(d for d in range(300) if comb(d + 2, 2) >= 300)
    shapes = count_eliminations(monkeypatch)
    prof = hilbert_profile(z, 300)
    assert prof.values == tuple(min(comb(j + 2, 2), 300) for j in range(301))
    assert shapes and max(c for _, c in shapes) <= 2 * comb(d0 + 2, 2)


# ------------------------------------------------------------ hilbert memo

def memo_test_set(ctx, n, rng):
    """Random points, with a repeated line or conic (n >= 2) or, over
    Z_3..Z_7, a point on every hyperplane L_t = 0, so no chart exists."""
    p = ctx.p
    extra = rng.integers(0, p, size=(int(rng.integers(1, 8)), n + 1)).tolist()
    shape = int(rng.integers(4))
    ts = range(int(rng.integers(2, 9)))
    if shape == 1:
        rows = [[1, t] + [0] * (n - 1) for t in ts] + extra
    elif shape == 2 and n >= 2:
        rows = [[1, t, t * t] + [0] * (n - 2) for t in ts] + extra
    elif shape == 3 and p <= 7:
        rows = blocking_coords(p, n, rng, len(extra))
    else:
        rows = extra
    keys = {}
    for r in rows:
        if any(c % p for c in r):
            keys.setdefault(points_module._canonical_point(tuple(c % p for c in r), p), r)
    # every drawn row may be zero mod p, and a point set needs a point
    return PointSet(ctx, list(keys.values()) or [[1] + [0] * n])


@given(st.sampled_from((3, 5, 7, 101, 31991)), st.integers(1, 3),
       st.integers(0, 2**32 - 1))
@settings(max_examples=80)
def test_hilbert_value_matches_a_fresh_rank_in_any_order(p, n, seed):
    # every feeder of the memo runs in a random order of degrees, and
    # each answer must equal the rank of ev(Z, j) on a fresh point set
    ctx = PrimeContext(p)
    rng = np.random.default_rng(seed)
    z = memo_test_set(ctx, n, rng)
    ell = len(z)
    fresh = [evaluation_matrix(PointSet(ctx, z.points), j).rank() for j in range(ell + 1)]
    for j in rng.permutation(ell + 1):
        j = int(j)
        feeder = int(rng.integers(4))
        if feeder == 1 and ell >= 2:
            cb_check(z, j)
        elif feeder == 2 and ell <= comb(j + n, n):
            kruskal_level(z, j, ell)
        elif feeder == 3:
            assert hilbert_profile(z, j).values == tuple(fresh[:j + 1])
        assert hilbert_value(z, j) == fresh[j]
    assert [hilbert_value(z, j) for j in range(ell + 1)] == fresh


@given(st.sampled_from((3, 5, 7, 101, 31991, 2**31 - 1)), st.integers(1, 3),
       st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=60)
def test_row_transform_agrees_with_elimination(p, n, seed, x0_zero):
    # h_Z(d0) reduces [ev(Z, d0) | I] where x0 vanishes nowhere.  Past d0,
    # once h_Z(d0) = ell, the RREF of ev(Z, d) comes from its right block G;
    # at d <= d0 (ell > C(d+n, n) below d0) the rows of G past h_Z(d), column
    # i scaled by x0_i^(d0-d), are the dependencies cb_check reads.  Each
    # must equal what a plain-int elimination gives.
    ctx = PrimeContext(p)
    rng = np.random.default_rng(seed)
    z = memo_test_set(ctx, n, rng)
    if x0_zero:
        z = z.union(PointSet(ctx, [(0, 1) + tuple(int(c) for c in rng.integers(0, p, n - 1))]))
    ell = len(z)
    d0 = next(d for d in range(ell + 1) if comb(d + n, n) >= ell)
    assert hilbert_value(z, d0) == oracle_rank(plain_ev(z.points, d0, n, p), p)
    transform = z._memo.get("transform")
    assert (transform is not None) == all(q[0] for q in z.points)
    assert transform is None or transform[0] == d0
    for d in range(d0 + 3):
        ev = plain_ev(z.points, d, n, p)
        rref, pivots = oracle_rref(ev, p)
        fresh = PointSet(ctx, z.points)
        assert [v.tolist() for v in ideal_piece(z, d)] == oracle_kernel(ev, len(ev[0]), p)
        r, piv = evaluation_matrix(z, d)._reduced()
        assert r.tolist() == rref and list(piv) == pivots
        if transform is not None and d <= d0:
            G = transform[1]
            deps = G[len(pivots):] * [pow(q[0], d0 - d, p) for q in z.points] % p
            assert not matmul_mod(deps, np.array(ev, dtype=np.int64), p).any()
            kernel = kernel_mod(np.array(ev, dtype=np.int64).T, p)
            assert rank_mod(deps, p) == len(kernel) == ell - len(pivots)
            if kernel:
                assert rank_mod(np.vstack([deps, np.array(kernel)]), p) == len(kernel)
        if ell >= 2:
            assert cb_check(z, d) == cb_check(fresh, d)
        assert hilbert_value(z, d) == hilbert_value(fresh, d) == len(pivots)


def test_row_transform_skips_the_quintic_elimination(monkeypatch):
    # with h_A(4) = 14 and x0 nowhere zero, ev(A, 5) gets its RREF from G
    # and Cayley-Bacharach in degree 3 reads the rows of G past h_A(3)
    A = fixture_instance("optics_T1").pointset
    shapes = count_eliminations(monkeypatch)
    assert hilbert_value(A, 4) == 14 and shapes == [(14, 29)]
    assert len(ideal_piece(A, 5)) == 7 and cb_check(A, 3)
    assert shapes == [(14, 29)] and hilbert_value(A, 3) == 10


@pytest.mark.parametrize("name, count", (("optics_T1", 6), ("optics_T2", 9)))
def test_cold_octic_check_eliminations(monkeypatch, name, count):
    # h_A(4) = 14 answers rank(ev(A, 8)) = 14, so no 14 x 45 elimination;
    # ev(A, 4) is reduced once as [ev | I], whose row transform gives ev(A, 5)
    # its RREF (no 14 x 21), and the quintics past Q * S_1 are picked in
    # the kernel's free coordinates (3 x 7, not 21 x 10)
    inst = fixture_instance(name)
    shapes = count_eliminations(monkeypatch)
    run_criteria(inst)
    assert len(shapes) == count and shapes.count((14, 29)) == 1 and (3, 7) in shapes
    assert not {(14, 45), (14, 15), (14, 21), (21, 10)} & set(shapes)


def test_lowest_degree_first_in_range_and_mo(ctx, monkeypatch):
    rng = np.random.default_rng(8)
    plane = Instance(random_pointset(ctx, rng, 9), 8, [1] * 9)
    shapes = count_eliminations(monkeypatch)
    # the one 9-subset of cubic images passes, so h_A(4) = h_A(8) = 9
    assert range_certify(plane).display() == "IdentifiableOfRank(9)"
    assert shapes == [(9, 10)]
    space = Instance(random_pointset(ctx, rng, 20, n=3), 9, [1] * 20)
    shapes.clear()
    # h_A(3) = 20 answers nonredundancy in degree 9
    assert mo_certify(space).display() == "IdentifiableOfRank(20)"
    assert len(shapes) == 3 and all(c < 220 for _, c in shapes)


def test_cb_check_reads_a_full_hilbert_value(monkeypatch):
    z = fixture_instance("optics_T1").pointset
    assert hilbert_value(z, 4) == 14
    monkeypatch.setattr(points_module, "kernel_mod", no_elimination)
    monkeypatch.setattr(points_module, "evaluation_matrix", no_elimination)
    assert not cb_check(z, 8)
    assert hilbert_value(z, 6) == 14


def test_profile_starts_past_the_degrees_the_memo_has_below_ell(monkeypatch):
    # six points on a conic: cb_check leaves h(2) = 5 < 6 in the memo, so
    # the profile starts at D = 3 instead of trying ev(Z, 2) first
    z = six_point_sets()["on_conic"]
    assert cb_check(z, 2)
    shapes = count_eliminations(monkeypatch)
    assert hilbert_profile(z, 4).values == (1, 3, 5, 6, 6)
    assert shapes == [(6, 10)]


@pytest.mark.parametrize("case", ("general", "collinear", "chartless"))
def test_profile_memo_stops_at_the_first_degree_at_ell(case):
    ctx = PrimeContext(3 if case == "chartless" else 31991)
    z = {"general": lambda: fixture_instance("optics_T1").pointset,
         "collinear": lambda: line_points(ctx, range(30)),
         "chartless": lambda: PointSet(ctx, blocking_coords(3, 2, np.random.default_rng(4), 3)),
         }[case]()
    assert (points_module._chart(z) is None) == (case == "chartless")
    values = hilbert_profile(z, MAX_EVALUATION_ENTRIES).values
    first = values.index(len(z))
    assert len(z._hilbert) <= first + 1
    assert all(z._hilbert[j] == values[j] for j in z._hilbert)


def test_hilbert_memo_is_shared_safely_across_threads(ctx):
    # three threads fill one memo while a fourth reads it over and over,
    # with a short switch interval: none may trip over another's insert,
    # and every answer is the fresh one (h_Z(30) = 40, so CB(30) fails)
    rng = np.random.default_rng(12)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            z = random_pointset(ctx, rng, 40)
            fresh = PointSet(ctx, z.points)
            expect = {j: evaluation_matrix(fresh, j).rank() for j in range(12)}
            seen, errors = [], []

            def run(calls):
                try:
                    seen.extend((f, j, f(z, j)) for f, j in calls)
                except Exception as e:  # reported below, with the others
                    errors.append(e)

            threads = [threading.Thread(target=run, args=(
                [(hilbert_value, j) for j in range(k, 12, 3)],)) for k in range(3)]
            threads.append(threading.Thread(target=run, args=([(cb_check, 30)] * 300,)))
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads) and errors == []
            assert all(h == (expect[j] if f is hilbert_value else False) for f, j, h in seen)
    finally:
        sys.setswitchinterval(interval)


def test_kruskal_records_do_not_depend_on_the_hilbert_memo(ctx):
    rng = np.random.default_rng(41)
    for p, count, n in ((7, 9, 2), (101, 12, 2), (31991, 8, 3)):
        z = random_pointset(PrimeContext(p), rng, count, n=n)
        for j in range(count):
            hilbert_value(z, j)
        hilbert_profile(z, count)
        for d in (1, 2, 3):
            mat = evaluation_matrix(z, d).a
            for k in range(1, min(mat.shape) + 1):
                assert kruskal_level(z, d, k) == first_dependent_by_ranks(mat, p, k)


# ---------------------------------------------------------------- kruskal rank

def test_kruskal_coordinate_points(ctx):
    z = PointSet(ctx, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert kruskal_rank(z, 1) == 3


def test_kruskal_collinear(ctx):
    z = line_points(ctx, [0, 1, 2])
    assert kruskal_rank(z, 1) == 2


def test_kruskal_reference_detail(ref_points):
    k, examined = kruskal_rank_detail(ref_points, 3)
    assert k == 10
    assert examined == 1001


def test_kruskal_at_least_gate(ctx):
    z = line_points(ctx, [0, 1, 2])
    assert kruskal_rank_at_least(z, 1, 2)
    assert not kruskal_rank_at_least(z, 1, 3)
    assert not kruskal_rank_at_least(z, 1, 4)  # above the hard cap


def test_kruskal_at_least_holds_for_nonpositive_floors(ctx, monkeypatch):
    # k_d(Z) >= 0 always, so floors 0 and below are answered without
    # evaluating or enumerating anything
    z = line_points(ctx, [0, 1, 2])
    monkeypatch.setattr(points_module, "evaluation_matrix", no_elimination)
    monkeypatch.setattr(points_module, "_first_dependent_subset", no_elimination)
    for k in (0, -1, -5):
        assert kruskal_rank_at_least(z, 1, k)


def test_kruskal_brute_force_agreement(ctx):
    # exhaustive oracle: largest k with every k-subset of full row rank
    from itertools import combinations

    from waringcert.ffield import kernel_mod, matmul_mod, rank_mod

    rng = np.random.default_rng(23)
    for _ in range(5):
        z = random_pointset(ctx, rng, 6, n=2)
        mat = evaluation_matrix(z, 1).a
        brute = 0
        for k in range(1, 7):
            if all(rank_mod(mat[list(s)], ctx.p) == k
                   for s in combinations(range(6), k)):
                brute = k
        assert kruskal_rank(z, 1) == brute


def loop_kruskal_detail(mat, p, floor=1):
    """Kruskal rank and subsets examined by the plain per-subset loop on
    plain ints: descend from the cap, stop a size at its first dependent
    subset, and give (0, examined) once every size down to floor failed."""
    ell, cols = len(mat), len(mat[0])
    examined = 0
    for k in range(min(ell, cols), max(floor, 1) - 1, -1):
        for sub in combinations(range(ell), k):
            examined += 1
            if oracle_rank([mat[i] for i in sub], p) != k:
                break
        else:
            return k, examined
    return 0, examined


@pytest.mark.parametrize("p", (5, 7, 101))
def test_kruskal_detail_matches_subset_loop(p):
    # small primes make dependent subsets common, so most cases take the
    # failure path and the examined prefix ends inside a stacked chunk.
    # The queries run in a seeded random order on one point set, and each
    # must answer as on a fresh one, whatever was asked before it
    ctx = PrimeContext(p)
    rng = np.random.default_rng(p)
    counts = (6, 9) if p == 5 else (6, 9, 14)  # the plane over Z_5 has 31 points
    failures = 0
    for count in counts:
        for d in (1, 2, 3):
            z = random_pointset(ctx, rng, count, n=2)
            mat = evaluation_matrix(z, d).a
            cap = min(mat.shape)
            expect = loop_kruskal_detail(mat, p)
            failures += expect[0] < cap
            queries = ([(kruskal_rank_detail, (), expect)] * 2
                       + [(kruskal_rank_at_least, (k,), k <= expect[0])
                          for k in range(-1, cap + 2)]
                       + [(kruskal_level, (k,), first_dependent_by_ranks(mat, p, k))
                          for k in range(1, cap + 1)])
            for i in rng.permutation(len(queries)):
                query, args, oracle = queries[i]
                fresh = PointSet(ctx, z.points)
                assert query(z, d, *args) == query(fresh, d, *args) == oracle
    assert failures > 0


@given(st.sampled_from((5, 7, 13, 101, 31991)), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=40)
def test_kruskal_descent_with_a_floor_matches_subset_loop(p, n, d, seed, data):
    # every floor in 1..cap+1 of the descent and every gate k in -1..cap+1,
    # asked of one point set in an order hypothesis picks, must each answer
    # as the plain-int loop does, whatever was asked before
    ctx = PrimeContext(p)
    z = memo_test_set(ctx, n, np.random.default_rng(seed))
    z = PointSet(ctx, z.points[:9])  # the line or conic points come first
    mat = plain_ev(z.points, d, n, p)
    cap = min(len(z), comb(n + d, n))
    k_d = loop_kruskal_detail(mat, p)[0]
    queries = ([(kruskal_rank_detail, f, loop_kruskal_detail(mat, p, f))
                for f in range(1, cap + 2)]
               + [(kruskal_rank_at_least, k, k_d >= k) for k in range(-1, cap + 2)])
    for query, arg, oracle in data.draw(st.permutations(queries)):
        assert query(z, d, arg) == oracle
    assert kruskal_rank_detail(z, d) == loop_kruskal_detail(mat, p)


def test_kruskal_at_least_records_only_the_level_it_decides(ctx, monkeypatch):
    # a pass below the cap is not the exact rank; a pass at the cap is
    z = fixture_instance("optics_T1").pointset
    assert kruskal_rank_at_least(z, 2, 5)
    assert kruskal_rank_at_least(z, 3, 10)
    monkeypatch.setattr(points_module, "_first_dependent_subset", no_elimination)
    assert kruskal_level(z, 2, 5) == (comb(14, 5), None)
    assert kruskal_level(z, 3, 10) == (1001, None)
    assert kruskal_rank_detail(z, 3) == (10, 1001)
    assert kruskal_rank_at_least(z, 2, 5)  # level 5's own record answers 5
    with pytest.raises(AssertionError, match="eliminating again"):
        kruskal_rank_at_least(z, 2, 4)  # level 4 is undecided
    with pytest.raises(AssertionError, match="eliminating again"):
        kruskal_rank_detail(z, 2)  # its cap, level 6, is undecided


def no_elimination(*_):
    raise AssertionError("answered by eliminating again")


def test_fresh_reference_floor_proves_the_cap(ctx, monkeypatch):
    # at the cap the floor test is the whole of the exact rank, so the
    # exact detail that check_preconditions reports is a cache hit
    z = fixture_instance("optics_T1").pointset
    assert kruskal_rank_at_least(z, 3, 10)
    monkeypatch.setattr(points_module, "rank_mod", no_elimination)
    monkeypatch.setattr(points_module, "row_echelon", no_elimination)
    assert kruskal_level(z, 3, 10) == (1001, None)
    assert kruskal_rank_detail(z, 3) == (10, 1001)


def test_failed_floor_is_answered_from_the_cache(ctx, monkeypatch):
    # five collinear points: their cubic images span only 4 dimensions
    pts = [(1, t, 0) for t in range(5)] + [(1, 3, 7), (2, 5, 1), (4, 1, 9),
                                           (1, 8, 2), (3, 2, 11), (5, 4, 6)]
    z = PointSet(ctx, pts)
    assert not kruskal_rank_at_least(z, 3, 10)
    examined, subset = kruskal_level(z, 3, 10)
    assert len(subset) == 10
    assert rank_mod(evaluation_matrix(z, 3).a[list(subset)], ctx.p) < 10
    monkeypatch.setattr(points_module, "rank_mod", no_elimination)
    monkeypatch.setattr(points_module, "row_echelon", no_elimination)
    assert not kruskal_rank_at_least(z, 3, 10)
    assert kruskal_level(z, 3, 10) == (examined, subset)


def first_dependent_by_ranks(mat, p, k):
    """(subsets examined, first dependent k-subset or None), ranking every
    k-subset of rows as a matrix of its own, in combinations() order."""
    subsets = list(combinations(range(mat.shape[0]), k))
    ranks = rank_mod(mat[np.array(subsets)], p)
    bad = np.flatnonzero(ranks != k)
    if bad.size:
        return int(bad[0]) + 1, subsets[bad[0]]
    return len(subsets), None


def cap_cases(p):
    """Plane point sets with ell = c ... c + 6 for the c = C(d+2, 2)
    columns at d = 1, 2, 3: random, with a collinear tail, and at d = 3
    (for p >= 13) with ten points planted on the cuspidal cubic
    x^3 = y^2 z, so that some 10-subset is dependent."""
    rng = np.random.default_rng(1000 + p)
    ctx = PrimeContext(p)
    for d in (1, 2, 3):
        c = (d + 1) * (d + 2) // 2
        plants = (0, 0, 3, 4) + ((10,) if d == 3 and p >= 13 else ())
        for extra in range(7):
            for plant in plants:
                while True:
                    coords = rng.integers(0, p, size=(c + extra, 3))
                    if plant == 10:
                        t = rng.choice(p, size=10, replace=False)
                        coords[:10] = np.stack([t * t % p, t ** 3 % p, np.ones(10, int)], 1)
                        coords = rng.permutation(coords)
                    elif plant:
                        coords[len(coords) - plant:, 2] = 0
                    try:
                        yield d, c, PointSet(ctx, coords)
                        break
                    except (DuplicatePoint, ZeroPoint):
                        continue


def assert_cap_matches_subset_ranks(p):
    outcomes = set()
    for d, c, z in cap_cases(p):
        mat = evaluation_matrix(z, d).a
        examined, subset = first_dependent_by_ranks(mat, p, c)
        outcomes.add(subset is None)
        assert kruskal_rank_at_least(z, d, c) == (subset is None)
        assert kruskal_level(z, d, c) == (examined, subset)
    assert outcomes == {True, False}


@pytest.mark.parametrize("p", (5, 7, 13, 101, 31991, 2_147_483_647))
def test_kruskal_cap_by_minors_matches_subset_ranks(p):
    # at k = columns all subsets are decided by one sweep over maximal
    # minors; it must agree with ranking the subsets themselves on both
    # outcomes, including where the failure falls
    assert_cap_matches_subset_ranks(p)


@pytest.mark.parametrize("p", (7, 31991))
def test_kruskal_cap_above_the_sweep_limit_ranks_subsets(p, monkeypatch):
    # a limit below every table size, even the empty one at ell = c
    monkeypatch.setattr(points_module, "_SWEEP_ENTRIES", -1)
    monkeypatch.setattr(points_module, "_maximal_minors_mod", no_elimination)
    assert_cap_matches_subset_ranks(p)


def test_kruskal_cap_on_generator_draws_at_a_small_prime():
    # at p = 101 nearly every draw of 14 points has a dependent 10-subset,
    # so the failure position is tested on many draws
    from waringcert.generate import _rng, _sample_pointset

    ctx = PrimeContext(101)
    rng = _rng(0, 0)
    draws, positions = 0, set()
    while draws < 300:
        z = _sample_pointset(ctx, rng)
        if z is None:
            continue
        draws += 1
        examined, subset = first_dependent_by_ranks(evaluation_matrix(z, 3).a, 101, 10)
        assert kruskal_rank_at_least(z, 3, 10) == (subset is None)
        assert kruskal_level(z, 3, 10) == (examined, subset)
        if subset is not None:
            positions.add(examined)
    assert len(positions) > 10


def det_mod(rows, p):
    """Determinant over Z_p by elimination on Python ints."""
    m, det = [list(r) for r in rows], 1
    for c in range(len(m)):
        piv = next((i for i in range(c, len(m)) if m[i][c] % p), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv], det = m[piv], m[c], -det
        det = det * m[c][c] % p
        inv = pow(m[c][c], p - 2, p)
        for i in range(c + 1, len(m)):
            f = m[i][c] * inv % p
            m[i] = [(x - f * y) % p for x, y in zip(m[i], m[c])]
    return det % p


def test_maximal_minors_exact_at_the_largest_prime():
    # entries just below p make every product and every signed level sum
    # as large as they get; unreduced products would wrap in int64
    p = 2_147_483_647
    rng = np.random.default_rng(9)
    for r, ell in ((1, 4), (2, 5), (5, 9), (6, 12)):
        a = p - 1 - rng.integers(0, 1000, size=(r, ell))
        expect = [det_mod(a[:, list(cols)].tolist(), p)
                  for cols in combinations(range(ell), r)]
        assert points_module._maximal_minors_mod(a, p).tolist() == expect


def test_pointset_duplicates_agree_with_minors():
    # at p = 5 the plane has 31 points, so random draws often collide
    ctx = PrimeContext(5)
    rng = np.random.default_rng(0)
    for _ in range(200):
        pts = [tuple(int(c) for c in row)
               for row in rng.integers(0, 5, size=(4, 3)) if row.any()]
        dup = any(projectively_equal(pts[i], pts[j], 5)
                  for i in range(len(pts)) for j in range(i + 1, len(pts)))
        if dup:
            with pytest.raises(DuplicatePoint):
                PointSet(ctx, pts)
        else:
            assert len(PointSet(ctx, pts)) == len(pts)


# ------------------------------------------------------------- cayley-bacharach

def test_cb_check_matches_deletion_loop():
    # the oracle drops each point in turn and re-ranks
    outcomes, independent = set(), 0
    for p in (3, 5, 7, 101, 31991):
        ctx = PrimeContext(p)
        rng = np.random.default_rng(3 + p)
        sets = [
            conic_points(ctx, range(min(p, 8))), line_points(ctx, range(min(p, 7))),
            PointSet(ctx, [(1, 0, 0), (0, 1, 0)]),  # ell = 2
            random_subset(ctx, rng, 2, 2), random_subset(ctx, rng, 9, 2),
            random_subset(ctx, rng, 12, 3),
        ]
        if p == 31991:
            sets += list(six_point_sets().values())
        for z in sets:
            for d in range(0, 5):
                full = evaluation_matrix(z, d).a
                h = rank_mod(full, p)
                independent += h == len(z)
                expect = all(rank_mod(np.delete(full, i, axis=0), p) == h
                             for i in range(len(z)))
                assert cb_check(z, d) == expect, (p, z.points, d)
                outcomes.add(expect)
    assert outcomes == {True, False}
    assert independent  # h = ell occurs, where the property fails


def test_cb_examples(ctx):
    sets = six_point_sets()
    assert cb_check(sets["on_conic"], 2)
    assert cb_check(sets["on_conic"], 1)
    assert not cb_check(sets["general"], 2)
    assert cb_check(sets["general"], 1)
    assert not cb_check(sets["five_aligned"], 1)


def test_cb_collinear_threshold(ctx):
    # ell collinear points have the property exactly up to degree ell - 2
    z = line_points(ctx, range(7))
    assert cb_check(z, 5)
    assert not cb_check(z, 6)


def test_extgkr_partial_sums_on_cb_sets(ctx):
    # sum_0^j Dh <= sum_{d+1-j}^{d+1} Dh for sets with the degree-d property
    cases = [
        (conic_points(ctx, range(6)), 2),
        (conic_points(ctx, range(8)), 2),
        (line_points(ctx, range(5)), 3),
        (line_points(ctx, range(9)), 7),
    ]
    for z, d in cases:
        assert cb_check(z, d)
        prof = hilbert_profile(z, d + 1)
        for j in range(d + 2):
            low = sum(prof.dh(i) for i in range(j + 1))
            high = sum(prof.dh(i) for i in range(d + 1 - j, d + 2))
            assert low <= high, (d, j)


def test_cbh1_proper_subsets_drop_defect(ctx):
    rng = np.random.default_rng(5)
    z = conic_points(ctx, range(6))
    d = 2
    full = h1_defect(z, d)
    assert full == 1
    for _ in range(10):
        keep = sorted(rng.choice(6, size=int(rng.integers(1, 6)), replace=False))
        sub = PointSet(z.ctx, [z.points[i] for i in keep])
        assert h1_defect(sub, d) < full


def test_subset_monotonicity(ctx):
    rng = np.random.default_rng(7)
    for _ in range(10):
        z = random_pointset(ctx, rng, 10, n=2)
        keep = sorted(rng.choice(10, size=6, replace=False))
        sub = PointSet(z.ctx, [z.points[i] for i in keep])
        pz = hilbert_profile(z, 8)
        ps = hilbert_profile(sub, 8)
        assert all(ps.values[j] <= pz.values[j] for j in range(9))
        assert all(ps.differences[j] <= pz.differences[j] for j in range(9))


def test_nonincreasing_tail(ctx):
    rng = np.random.default_rng(9)
    sets = [random_pointset(ctx, rng, int(rng.integers(3, 16)), n=2)
            for _ in range(8)]
    sets.append(conic_points(ctx, range(9)))
    sets.append(line_points(ctx, range(8)))
    for z in sets:
        prof = hilbert_profile(z, len(z) + 1)
        for i in range(1, len(z)):
            if prof.dh(i) <= i:
                assert prof.dh(i + 1) <= prof.dh(i)


# ------------------------------------------------------- h1 and span dimensions

def test_h1_defect_examples(ctx):
    z = conic_points(ctx, range(6))
    assert h1_defect(z, 2) == 1
    assert h1_defect(z, 5) == 0  # regularity: d >= ell - 1


def test_span_intersection_trivial_cases(ctx):
    rng = np.random.default_rng(13)
    a = random_pointset(ctx, rng, 5, n=2)
    assert span_intersection_dim(a, a, 3) == evaluation_matrix(a, 3).rank() - 1
    b = random_pointset(ctx, rng, 4, n=2)
    if evaluation_matrix(a.union(b), 3).rank() == len(a) + len(b):
        assert span_intersection_dim(a, b, 3) == -1


def cap_formula_dim(A, B, d):
    """The closed-form side of span_intersection_dim:
    ell(A intersect B) - 1 + h^1_{A union B}(d)."""
    common = set(A.canonical_keys()) & set(B.canonical_keys())
    return len(common) - 1 + h1_defect(A.union(B), d)


def test_cap_formula_agreement(ctx):
    # the closed form assumes both sets impose independent conditions in
    # degree d (true of non-redundant decompositions, which is where the
    # formula is used); sample within that scope
    rng = np.random.default_rng(17)
    done = 0
    while done < 20:
        n = int(rng.integers(2, 4))
        a = random_pointset(ctx, rng, int(rng.integers(2, 9)), n=n)
        extra = random_pointset(ctx, rng, int(rng.integers(2, 9)), n=n)
        overlap = [a.points[i] for i in
                   rng.choice(len(a), size=int(rng.integers(0, len(a))),
                              replace=False)]
        try:
            b = PointSet(ctx, overlap + list(extra.points)) if overlap else extra
        except DuplicatePoint:
            continue
        d = int(rng.integers(1, 7))
        if evaluation_matrix(a, d).rank() != len(a):
            continue
        if evaluation_matrix(b, d).rank() != len(b):
            continue
        assert span_intersection_dim(a, b, d) == cap_formula_dim(a, b, d)
        done += 1
