import numpy as np
import pytest

from waringcert import (
    FULL,
    PAPER13,
    Instance,
    PointSet,
    certify_octic14,
    check_preconditions,
    evaluation_matrix,
    gen_identifiable,
    gen_unidentifiable,
    hilbert_burch,
    mult_map,
    normalization_check,
    poly_eval,
    residual_family,
    second_decomposition_system,
    unique_quartic,
    verify_witness,
)
from waringcert.errors import (
    PreconditionFailed,
    QuarticNotUnique,
    WitnessRejected,
)
from waringcert.ffield import matmul_mod, rank_mod, row_echelon
from waringcert.octic14 import (
    N_PARAMS,
    SELECTION_RETRIES,
    _instance_seed,
    _proportionality,
    system_rows_full,
)
from waringcert.fixtures import reference_instance
from waringcert.polys import GradedPoly, det_poly, monomial_basis

from conftest import random_pointset


@pytest.fixture(scope="module")
def hb(ref_points):
    return hilbert_burch(ref_points)


@pytest.fixture(scope="module")
def fam(hb):
    return residual_family(hb)


# --------------------------------------------------------------- preconditions

def test_preconditions_reference(t1):
    evidence = dict(check_preconditions(t1))
    assert (evidence["rank_ev8"], evidence["hilbert_4"], evidence["kruskal_3"]) == (14, 14, 10)
    assert evidence["kruskal_3_subsets"] == 1001


def test_precondition_zero_lambda(ref_points):
    lam = [1] * 14
    lam[6] = 0
    inst = Instance(ref_points, 8, lam)
    with pytest.raises(PreconditionFailed) as err:
        check_preconditions(inst)
    assert err.value.test == 1


def conic_heavy_pointset(ctx):
    # 11 points on a conic impose at most 9 conditions on quartics
    pts = [(1, t, t * t % ctx.p) for t in range(11)]
    pts += [(1, 7, 3), (2, 1, 9), (5, 11, 4)]
    return PointSet(ctx, pts)


def test_precondition_conic_heavy(ctx):
    # the Hilbert test fails before the Kruskal test is reached
    rng = np.random.default_rng(0)
    inst = Instance(conic_heavy_pointset(ctx), 8, rng.integers(1, ctx.p, size=14))
    with pytest.raises(PreconditionFailed) as err:
        check_preconditions(inst)
    assert err.value.test == 2


def test_precondition_zero_lambda_outranks_hilbert(ctx):
    # h_A(4) < 14 sends the check to rank ev(A,8), which is 14 here, and
    # the zero coefficient is still reported before the Hilbert test
    lam = [1] * 14
    lam[3] = 0
    inst = Instance(conic_heavy_pointset(ctx), 8, lam)
    with pytest.raises(PreconditionFailed) as err:
        check_preconditions(inst)
    assert err.value.test == 1 and err.value.value == "lambda[3] = 0"


def test_precondition_collinear_ev8_rank(ctx):
    # on a line the octics restrict to binary octics, a 9-dimensional space
    inst = Instance(PointSet(ctx, [(1, t, 0) for t in range(14)]), 8, [1] * 14)
    with pytest.raises(PreconditionFailed) as err:
        check_preconditions(inst)
    assert (err.value.test, err.value.value) == (1, 9)


def test_preconditions_leave_ev8_unreduced():
    # h_A(4) = 14 already fixes rank(ev(A,8)) = 14, so it is not computed
    inst = reference_instance()
    assert dict(check_preconditions(inst))["rank_ev8"] == 14
    ev8 = inst.pointset._ev_cache.get(8)
    assert ev8 is None or (ev8._rank is None and ev8._echelon is None)


def assert_dependent_ten_subset(A, failure):
    """Precondition 3 failed with a ten-subset whose cubic images are
    dependent, which proves k_3(A) < 10 with one rank."""
    subset = failure.value
    assert failure.test == 3 and len(set(subset)) == len(subset) == 10
    assert rank_mod(evaluation_matrix(A, 3).a[list(subset)], A.ctx.p) < 10


def test_precondition_eight_on_conic_breaks_kruskal(ctx):
    # eight conic points stay independent on quartics but their cubic
    # images span only 7 dimensions, so every ten-subset containing them
    # is dependent: the Kruskal test is the one that fails
    rng = np.random.default_rng(3)
    pts = [(1, t, t * t % ctx.p) for t in range(8)]
    pts += [(1, 9, 2), (2, 3, 11), (4, 1, 7), (1, 13, 6), (3, 5, 2), (7, 2, 9)]
    inst = Instance(PointSet(ctx, pts), 8, rng.integers(1, ctx.p, size=14))
    assert evaluation_matrix(inst.pointset, 4).rank() == 14
    with pytest.raises(PreconditionFailed) as err:
        check_preconditions(inst)
    assert_dependent_ten_subset(inst.pointset, err.value)


def test_precondition_collinear_kruskal(ctx):
    # 5 collinear points keep h(4) = 14 but break the ten-subset test
    rng = np.random.default_rng(1)
    pts = [(1, t, 0) for t in range(5)]
    pts += [(1, 3, 7), (2, 5, 1), (4, 1, 9), (1, 8, 2), (3, 2, 11),
            (5, 4, 6), (1, 13, 5), (2, 9, 13), (7, 3, 1)]
    inst = Instance(PointSet(ctx, pts), 8, rng.integers(1, ctx.p, size=14))
    assert evaluation_matrix(inst.pointset, 4).rank() == 14
    with pytest.raises(PreconditionFailed) as err:
        check_preconditions(inst)
    assert_dependent_ten_subset(inst.pointset, err.value)


# -------------------------------------------------------------- unique quartic

def test_unique_quartic_vanishes_on_points(ref_points, hb):
    q = hb.Q
    assert q.coeffs[np.nonzero(q.coeffs)[0][0]] == 1
    for pt in ref_points:
        assert poly_eval(q, pt) == 0


def test_quartic_not_unique_on_cubic_points(ctx):
    # fourteen points of the cuspidal cubic x2*x0^2 = x1^3 admit many quartics
    pts = [(1, t, pow(t, 3, ctx.p)) for t in range(14)]
    ps = PointSet(ctx, pts)
    with pytest.raises(QuarticNotUnique):
        unique_quartic(ps)


# ---------------------------------------------------------------- hilbert-burch

def test_syzygy_columns_annihilate(hb):
    # Q * c_1 + sum_j Q_j * c_{j+1} = 0 for every column of M
    for k in range(4):
        acc = hb.M[0][k] * hb.Q
        for j in range(4):
            acc = acc + hb.M[1 + j][k] * hb.quintics[j]
        assert acc.is_zero()


def test_quartic_minor_proportional_to_q(ref_points, hb):
    minor = det_poly([list(row) for row in hb.lower_block()])
    assert not minor.is_zero()
    for pt in ref_points:
        assert poly_eval(minor, pt) == 0
    ratio = None
    p = ref_points.ctx.p
    for a, b in zip(minor.coeffs, hb.Q.coeffs):
        if b:
            r = int(a) * pow(int(b), p - 2, p) % p
            ratio = ratio if ratio is not None else r
            assert r == ratio
        else:
            assert a == 0
    assert ratio


def test_quintic_minors_span_degree5_piece(ref_points, hb):
    # minors omitting one linear row, together with x*Q, fill the 7 dims
    p = ref_points.ctx.p
    rows = list(mult_map(hb.Q, 5).a.T)
    conic_row = [hb.M[0][k] for k in range(4)]
    for omit in range(4):
        sub = [list(row) for i, row in enumerate(hb.lower_block()) if i != omit]
        minor = det_poly([conic_row] + sub)
        rows.append(minor.coeffs)
    assert rank_mod(np.array(rows), p) == 7
    ev = evaluation_matrix(ref_points, 5)
    for row in rows:
        assert not np.any(matmul_mod(ev.a, np.asarray(row)[:, None], p))


def test_hilbert_burch_deterministic(ref_points):
    a = hilbert_burch(ref_points)
    b = hilbert_burch(ref_points)
    assert all(a.M[i][k] == b.M[i][k] for i in range(5) for k in range(4))


def test_quartic_multiples_fill_degree8_piece(ref_points, hb):
    # the degree-8 multiples of the quartic: 15 independent octics, all
    # vanishing on the points
    p = ref_points.ctx.p
    m = mult_map(hb.Q, 8)
    assert m.a.shape == (45, 15)
    assert m.rank() == 15
    ev = evaluation_matrix(ref_points, 8)
    assert not np.any(matmul_mod(ev.a, m.a, p))


# ----------------------------------------------------------------- normalization

def test_normalization_rank_reference(hb):
    _, crank = normalization_check(hb)
    assert crank == 12


def test_normalization_matrix_structure(hb):
    # each 6x3 block is the multiplication-by-linear-form map
    Cm, _ = normalization_check(hb)
    top_left = Cm.a[:6, :3]
    assert np.array_equal(top_left, mult_map(hb.M[1][0], 2).a)
    bottom_right = Cm.a[6:, 9:]
    assert np.array_equal(bottom_right, mult_map(hb.M[3][3], 2).a)


def test_normalization_random_admissible(ctx):
    from waringcert import random_admissible_pointset

    for seed in (21, 22, 23):
        ps, _ = random_admissible_pointset(seed)
        _, crank = normalization_check(hilbert_burch(ps))
        assert crank == 12


def test_normalization_degenerate_repeated_rows(hb):
    # duplicating one linear row of the syzygy matrix collapses the two
    # halves of the normalization system
    from waringcert.octic14 import HilbertBurch

    M = list(hb.M)
    M[3] = M[1]
    fake = HilbertBurch(hb.pointset, hb.Q, hb.quintics, tuple(M))
    _, crank = normalization_check(fake)
    assert crank < 12


# --------------------------------------------------------------- residual family

def test_param_minors_zero_at_origin(fam):
    z = np.zeros(12, dtype=np.int64)
    for pm in fam.param_minors:
        assert pm.specialize(z).is_zero()


def test_param_minors_match_direct_determinants(ctx, fam):
    # specialize-then-det equals det-then-specialize for the 4x4 minors
    rng = np.random.default_rng(5)
    zero_conic = GradedPoly.zero(ctx, 2, 2)
    b2 = monomial_basis(2, 2)
    for _ in range(3):
        a = rng.integers(0, ctx.p, size=12)
        q2 = GradedPoly(ctx, b2, a[:6])
        q4 = GradedPoly(ctx, b2, a[6:])
        sm = [[zero_conic, q2, zero_conic, q4]] + [list(r) for r in fam.sm_lower]
        for j in range(4):
            rows = [sm[0]] + [sm[1 + i] for i in range(4) if i != j]
            direct = det_poly(rows)
            assert fam.param_minors[j].specialize(a) == direct


def test_param_minors_linear_in_parameters(fam, ctx):
    rng = np.random.default_rng(6)
    a = rng.integers(0, ctx.p, size=12)
    b = rng.integers(0, ctx.p, size=12)
    for pm in fam.param_minors:
        lhs = pm.specialize((a + b) % ctx.p)
        rhs = pm.specialize(a) + pm.specialize(b)
        assert lhs == rhs


def test_family_quartic_minor_shares_q(fam):
    assert fam.q_scale != 0
    direct = det_poly([list(r) for r in fam.sm_lower])
    assert direct == fam.base.Q.scale(fam.q_scale)


# ----------------------------------------------------------------- the system

def test_system_rank_identifiable(t1, fam):
    report = second_decomposition_system(t1, fam, mode=FULL)
    assert report.system_matrix.a.shape == (40, 12)
    assert report.system_rank == 12 and report.witness is None


def test_system_rank_unidentifiable(t2, fam):
    report = second_decomposition_system(t2, fam, mode=FULL)
    assert report.system_rank == 11
    assert report.witness is not None


def test_paper13_shape_and_agreement(t1, t2, fam):
    r1 = second_decomposition_system(t1, fam, mode=PAPER13)
    assert r1.system_matrix.a.shape == (13, 12)
    assert len(r1.selected_columns) == 13
    assert r1.system_rank == 12
    r2 = second_decomposition_system(t2, fam, mode=PAPER13)
    assert r2.system_rank == 11


def test_paper13_deterministic(t2, fam):
    a = second_decomposition_system(t2, fam, mode=PAPER13)
    b = second_decomposition_system(t2, fam, mode=PAPER13)
    assert a.selected_columns == b.selected_columns
    assert np.array_equal(a.witness, b.witness)


def test_form_orthogonal_to_own_ideal(t1, t2):
    # dot(T, c) = 0 for every degree-8 ideal element of A, by the pairing
    p = t1.ctx.p
    ia8 = np.array(evaluation_matrix(t1.pointset, 8).kernel_basis())
    for inst in (t1, t2):
        assert not np.any(matmul_mod(inst.coeff_vector[None, :], ia8.T, p))


def test_system_rows_vanish_on_kernel_content(t2, fam):
    # the kernel vector pairs T to zero against every cubic multiple
    report = second_decomposition_system(t2, fam, mode=FULL)
    rows = system_rows_full(t2, fam)
    residual = matmul_mod(rows, report.witness[:, None], t2.ctx.p)
    assert not np.any(residual)


# ---------------------------------------------------------------- verification

def test_verify_witness_accepts_t2(t2, fam):
    report = second_decomposition_system(t2, fam, mode=FULL)
    record = verify_witness(t2, fam, report.witness)
    assert record["residual_dim_5"] == 7
    assert record["residual_dim_8"] == 31
    assert record["ideal_sum_dim_8"] == 44


def test_verify_witness_rejects_zero(t2, fam):
    with pytest.raises(WitnessRejected):
        verify_witness(t2, fam, np.zeros(12, dtype=np.int64))


def test_verify_witness_rejects_random(t2, fam):
    rng = np.random.default_rng(9)
    with pytest.raises(WitnessRejected) as err:
        verify_witness(t2, fam, rng.integers(1, t2.ctx.p, size=12))
    assert err.value.check in ("orthogonality", "residual_dim_5",
                               "residual_dim_8", "ideal_sum_dim_8")


# ------------------------------------------------------------------ certificate

def test_certify_identifiable_reference(t1):
    cert = certify_octic14(t1)
    assert cert.display() == "IdentifiableOfRank(14)"
    ev = cert.evidence_dict()
    assert ev["system_rank"] == 12 and ev["normalization_rank"] == 12


def test_certify_unidentifiable_reference(t2):
    cert = certify_octic14(t2)
    assert cert.display() == "NotIdentifiable"
    ev = cert.evidence_dict()
    assert ev["system_rank"] == 11
    assert ev["orthogonal_generators"] == 55
    assert cert.witness is not None


def test_certify_modes_agree_on_reference(t1, t2):
    for inst, expect in ((t1, "identifiable"), (t2, "not_identifiable")):
        assert certify_octic14(inst, mode=FULL).verdict == expect
        assert certify_octic14(inst, mode=PAPER13).verdict == expect


def test_certify_degenerate_never_identifiable(ctx):
    rng = np.random.default_rng(10)
    pts = [(1, t, t * t % ctx.p) for t in range(11)]
    pts += [(1, 7, 3), (2, 1, 9), (5, 11, 4)]
    inst = Instance(PointSet(ctx, pts), 8, rng.integers(1, ctx.p, size=14))
    cert = certify_octic14(inst)
    assert cert.verdict == "degenerate"


def test_certify_rejects_wrong_shape(ctx):
    rng = np.random.default_rng(11)
    ps = random_pointset(ctx, rng, 9, n=2)
    with pytest.raises(ValueError):
        certify_octic14(Instance(ps, 8, [1] * 9))


# ------------------------------- shortcuts against the direct constructions

@pytest.fixture(scope="module")
def octic_instances(t1, t2):
    out = [("T1", t1), ("T2", t2)]
    for seed in range(8):
        out.append((f"id-{seed}", gen_identifiable(seed).instance))
        out.append((f"un-{seed}", gen_unidentifiable(seed).instance))
    return out


def greedy_quintics(A, Q):
    """Each canonical degree-5 kernel vector that raises the rank of the
    quartic multiples plus the vectors kept so far, up to four."""
    p = A.ctx.p
    rows = list(mult_map(Q, 5).a.T)
    r = rank_mod(np.array(rows), p)
    kept = []
    for v in evaluation_matrix(A, 5).kernel_basis():
        if rank_mod(np.array(rows + [v]), p) > r:
            rows.append(v)
            kept.append(v.tolist())
            r += 1
        if len(kept) == 4:
            break
    return kept


def cubic_multiples(fam, avec):
    """45 x 40: each specialized minor times each cubic monomial, placed
    monomial by monomial."""
    b3, b5, b8 = (monomial_basis(2, d) for d in (3, 5, 8))
    cols = []
    for pm in fam.param_minors:
        spec = pm.specialize(avec).coeffs
        for e in b3.exponents:
            col = np.zeros(b8.size, dtype=np.int64)
            for f, c in zip(b5.exponents, spec):
                col[b8.index_of(tuple(x + y for x, y in zip(e, f)))] = c
            cols.append(col)
    return np.array(cols).T


def stacked_selection(inst, fam):
    """The paper13 choice read off the 45 x 71 stack of a basis of the
    degree-8 ideal piece of A with the 40 candidates."""
    p = inst.ctx.p
    ia8 = np.array(evaluation_matrix(inst.pointset, 8).kernel_basis())
    for attempt in range(SELECTION_RETRIES):
        rng = np.random.default_rng(_instance_seed(inst, 0x13 + attempt))
        avec = rng.integers(1, p, size=N_PARAMS, dtype=np.int64)
        _, pivots = row_echelon(np.hstack([ia8.T, cubic_multiples(fam, avec)]), p)
        chosen = [c - len(ia8) for c in pivots if c >= len(ia8)]
        if len(pivots) == 44 and len(chosen) == 13:
            return tuple(chosen), attempt
    return None, None


def test_octic14_shortcuts_match_direct_constructions(octic_instances):
    for what, inst in octic_instances:
        p = inst.ctx.p
        hb = hilbert_burch(inst.pointset)
        assert [q.coeffs.tolist() for q in hb.quintics] == \
            greedy_quintics(inst.pointset, hb.Q), what
        fam = residual_family(hb)
        direct = det_poly([list(r) for r in fam.sm_lower])
        assert fam.q_scale == _proportionality(direct, hb.Q, "not proportional"), what
        b3, b5 = monomial_basis(2, 3), monomial_basis(2, 5)
        t = {e: int(c) for e, c in zip(monomial_basis(2, 8).exponents, inst.coeff_vector)}
        rows = [[sum(t[tuple(x + y for x, y in zip(e, f))] * int(pm.mat[i, a])
                     for i, f in enumerate(b5.exponents)) % p for a in range(N_PARAMS)]
                for pm in fam.param_minors for e in b3.exponents]
        assert system_rows_full(inst, fam).tolist() == rows, what
        report = second_decomposition_system(inst, fam, mode=PAPER13)
        assert (report.selected_columns, report.selection_attempt) == \
            stacked_selection(inst, fam), what
