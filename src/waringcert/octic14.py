"""Uniqueness pipeline for plane octics decomposed by fourteen points.

For an admissible fourteen-point decomposition A of a degree-8 plane
form T, candidate second decompositions of the same length sweep out a
12-parameter linear family: the syzygy matrix of the ideal of A has a
conic row and a 4x4 linear block, and replacing the conic row of the
transposed block by two free conics (the other two can be normalized
away when the 12x12 normalization matrix C is invertible) produces the
family's syzygy matrices.  The quintic 4x4 minors of such a matrix are
homogeneous-linear in the 12 parameters, so "T is orthogonal to the
degree-8 ideal piece of some family member" is a homogeneous linear
system in the parameters.  Rank 12 means only the zero parameter vector
works and A is the unique length-14 decomposition; rank 11 or less
yields a kernel vector whose specialized minors are checked explicitly
to certify a genuine second decomposition.

Stages, in pipeline order:

  check_preconditions    ranks (14, 14, 10) and nonzero coefficients
  unique_quartic         the one quartic through the points
  hilbert_burch          quintic generators and the 5x4 syzygy matrix M
  normalization_check    the 12x12 matrix C and its rank
  residual_family        transposed block, parametric quintic minors
  second_decomposition_system   the 40x12 (or reduced 13x12) system
  verify_witness         dimension and orthogonality checks on a candidate
  certify_octic14        the orchestrated certificate

Every stage is deterministic; the reduced mode's random specialization
is seeded from a digest of the instance so reports are reproducible.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .criteria import (
    Certificate,
    DEGENERATE,
    IDENTIFIABLE,
    Instance,
    NOT_IDENTIFIABLE,
)
from .errors import (
    DegenerateCofactors,
    MinorDegenerate,
    PreconditionFailed,
    QuarticNotUnique,
    SelectionFailed,
    SyzygyDimension,
    WitnessRejected,
)
from .ffield import (
    DenseMatrix,
    kernel_mod,
    matmul_mod,
    normalize_projective,
    rank_mod,
    row_echelon,
)
from .points import (
    PointSet,
    evaluation_matrix,
    kruskal_failure,
    kruskal_rank_at_least,
    kruskal_rank_detail,
)
from .polys import (
    GradedPoly,
    ParamPoly,
    det_poly,
    maximal_minors,
    monomial_basis,
    mult_map,
    product_table,
)

FULL = "full"
PAPER13 = "paper13"
MODES = (FULL, PAPER13)

N_PARAMS = 12
SELECTION_RETRIES = 8


@dataclass(frozen=True)
class HilbertBurch:
    """Ideal generators of the point set and their first syzygies.

    Q is the unique quartic (monic in the leading coefficient), the four
    quintics complete the ideal generators, and M is the 5x4 syzygy
    matrix: one conic row on top of four rows of linear forms, one
    column per syzygy of (Q, quintics) in degree 6.
    """

    pointset: PointSet
    Q: GradedPoly
    quintics: tuple[GradedPoly, GradedPoly, GradedPoly, GradedPoly]
    M: tuple[tuple[GradedPoly, ...], ...]

    def lower_block(self) -> tuple[tuple[GradedPoly, ...], ...]:
        return self.M[1:]

    @cached_property
    def quartic_scale(self) -> int:
        """The nonzero scalar mu with det(lower block) = mu * Q; raises
        MinorDegenerate when the 4x4 linear minor is not such a multiple."""
        return _proportionality(
            det_poly([list(row) for row in self.lower_block()]), self.Q,
            "the 4x4 linear minor of M is not a nonzero multiple of the quartic")


@dataclass(frozen=True)
class ResidualFamily:
    """The 12-parameter family of candidate second decompositions.

    sm_lower is the transpose of M's linear block; the four param_minors
    are the quintic minors of the family's syzygy matrix, each exactly
    linear in the parameters (the conic row is (0, q2(a1..a6), 0,
    q4(a7..a12))).  q_scale is the nonzero scalar mu with
    det(sm_lower) = mu * Q: every family member lies on the same quartic.
    """

    base: HilbertBurch
    sm_lower: tuple[tuple[GradedPoly, ...], ...]
    param_minors: tuple[ParamPoly, ParamPoly, ParamPoly, ParamPoly]
    q_scale: int


@dataclass
class Octic14Report:
    """Everything the linear-system stage computed."""

    precondition_evidence: tuple
    mode: str
    system_matrix: DenseMatrix
    system_rank: int
    selected_columns: tuple[int, ...] | None = None
    selection_attempt: int | None = None
    witness: np.ndarray | None = None
    witness_checks: dict | None = None


def _require_octic14_shape(inst: Instance) -> None:
    if inst.pointset.n != 2 or inst.degree != 8 or inst.length != 14:
        raise ValueError(
            "pipeline needs 14 points in the projective plane and degree 8, "
            f"got n={inst.pointset.n}, d={inst.degree}, ell={inst.length}"
        )


def check_preconditions(inst: Instance) -> tuple:
    """Admissibility tests: non-redundancy, middle Hilbert value, third
    Kruskal rank.  Returns the evidence; raises PreconditionFailed with
    the offending test number and computed value.  Test 3 needs only
    k_3(A) >= 10, so its failure value is the first dependent subset in
    combinations order, not the exact k_3."""
    _require_octic14_shape(inst)
    A = inst.pointset
    h4 = evaluation_matrix(A, 4).rank()
    # h_A never decreases and never exceeds the 14 points, so h_A(4) = 14
    # already fixes rank(ev(A,8)) = 14
    r8 = 14 if h4 == 14 else evaluation_matrix(A, 8).rank()
    if r8 != 14:
        raise PreconditionFailed(1, r8, f"rank(ev(A,8)) = {r8} != 14")
    zeros = np.nonzero(inst.lam == 0)[0]
    if zeros.size:
        raise PreconditionFailed(1, f"lambda[{int(zeros[0])}] = 0",
                                 "zero coefficient makes A redundant for T")
    if h4 != 14:
        raise PreconditionFailed(2, h4, f"h_A(4) = {h4} != 14")
    if not kruskal_rank_at_least(A, 3, 10):
        floor, examined, subset = kruskal_failure(A, 3)
        raise PreconditionFailed(
            3, subset, f"k_3(A) < {floor}: the {floor}-subset {subset} is "
                       f"dependent (subset {examined} in combinations order)")
    # the passed floor is the cap, so the exact rank is cached
    k3, examined = kruskal_rank_detail(A, 3)
    return (
        ("rank_ev8", r8),
        ("lambda_nonzero", True),
        ("hilbert_4", h4),
        ("kruskal_3", k3),
        ("kruskal_3_subsets", examined),
    )


def unique_quartic(A: PointSet) -> GradedPoly:
    """The quartic spanning the degree-4 ideal piece, scaled so its first
    nonzero coefficient is 1."""
    kern = evaluation_matrix(A, 4).kernel_basis()
    if len(kern) != 1:
        raise QuarticNotUnique(
            f"degree-4 ideal piece has dimension {len(kern)}, expected 1"
        )
    coeffs = normalize_projective(kern[0], A.ctx.p)
    return GradedPoly(A.ctx, monomial_basis(2, 4), coeffs)


def _proportionality(f: GradedPoly, g: GradedPoly, error: str) -> int:
    """The scalar mu with f = mu * g; raises MinorDegenerate otherwise."""
    p = f.ctx.p
    nz = np.nonzero(g.coeffs)[0]
    if nz.size == 0 or f.is_zero():
        raise MinorDegenerate(error)
    mu = int(f.coeffs[nz[0]]) * pow(int(g.coeffs[nz[0]]), p - 2, p) % p
    if mu == 0 or not np.all((f.coeffs - mu * g.coeffs) % p == 0):
        raise MinorDegenerate(error)
    return mu


def hilbert_burch(A: PointSet) -> HilbertBurch:
    """Ideal generators and the syzygy matrix of the fourteen points.

    The quintic generators are the first four canonical kernel vectors
    of the degree-5 evaluation matrix that are independent of the
    quartic multiples and of the vectors before them (the pivot columns
    of one echelon form), and the columns of M are the canonical kernel
    basis of the degree-6 relation map (f, g1..g4) -> f*Q + sum_j g_j * Q_j,
    so the whole structure is reproducible bit for bit.
    """
    ctx = A.ctx
    p = ctx.p
    Q = unique_quartic(A)
    ker5 = evaluation_matrix(A, 5).kernel_basis()
    xQ = mult_map(Q, 5).a  # columns are x0*Q, x1*Q, x2*Q
    _, pivots = row_echelon(np.column_stack([xQ] + ker5), p)
    quintics = [GradedPoly(ctx, monomial_basis(2, 5), ker5[c - 3])
                for c in pivots if c >= 3][:4]
    if len(quintics) != 4:
        raise SyzygyDimension(
            f"degree-5 ideal piece spans only {len(pivots)} dimensions with the "
            "quartic multiples, expected 7"
        )
    phi = np.hstack([mult_map(Q, 6).a] + [mult_map(q, 6).a for q in quintics])
    syz = kernel_mod(phi, p)
    if len(syz) != 4:
        raise SyzygyDimension(f"syzygy kernel has dimension {len(syz)}, expected 4")
    conic_basis = monomial_basis(2, 2)
    lin_basis = monomial_basis(2, 1)
    columns = []
    for v in syz:
        conic = GradedPoly(ctx, conic_basis, v[:6])
        lins = [GradedPoly(ctx, lin_basis, v[6 + 3 * j:9 + 3 * j]) for j in range(4)]
        columns.append((conic, *lins))
    M = tuple(tuple(columns[k][i] for k in range(4)) for i in range(5))
    hb = HilbertBurch(A, Q, tuple(quintics), M)
    hb.quartic_scale  # expand the 4x4 minor now, so a bad one fails here
    return hb


def normalization_check(hb: HilbertBurch) -> tuple[DenseMatrix, int]:
    """Build the 12x12 matrix of the row-normalization system and its rank.

    The system eliminates the first and third conics of the transposed
    syzygy matrix by adding multiples of its four linear rows; the
    unknowns are the 12 coefficients of the four multiplier linear
    forms, the equations the 6+6 conic coefficients.  Full rank 12
    certifies that fixing those two conics to zero loses no family
    member.
    """
    ctx = hb.pointset.ctx
    row1 = [mult_map(L, 2).a for L in hb.M[1]]
    row3 = [mult_map(L, 2).a for L in hb.M[3]]
    C = np.vstack([np.hstack(row1), np.hstack(row3)])
    Cm = DenseMatrix(ctx, C)
    return Cm, Cm.rank()


def residual_family(hb: HilbertBurch) -> ResidualFamily:
    """The syzygy matrices of all candidate second decompositions.

    The family matrix keeps the transpose of M's linear block and takes
    (0, q2, 0, q4) as its conic row, with q2, q4 free conics in the
    twelve parameters a1..a12.  Expanding each quintic 4x4 minor along
    the conic row leaves numeric cubic cofactors, so the minors are
    exactly linear in the parameters.
    """
    ctx = hb.pointset.ctx
    lower = hb.lower_block()  # lower[i][k] = row i+2, column k+1 of M
    smlow = tuple(tuple(lower[k][i] for k in range(4)) for i in range(4))
    # The cofactor of smlow without row j and column k is the minor of
    # its transpose, the lower block, without row k and column j.
    cofactors = [maximal_minors([list(row) for i, row in enumerate(lower) if i != k])
                 for k in (1, 3)]
    if all(c.is_zero() for minors_k in cofactors for c in minors_k.values()):
        raise DegenerateCofactors("all cubic cofactors vanish")
    # Along the conic row (0, q2, 0, q4) minor j is -q2 * C_j1 - q4 * C_j3;
    # q * C is linear in the six coefficients of q through mult_map(C, 5).
    minors = []
    for j in range(4):
        others = tuple(c for c in range(4) if c != j)
        blocks = [mult_map(minors_k[others], 5).a for minors_k in cofactors]
        minors.append(ParamPoly(ctx, monomial_basis(2, 5), -np.hstack(blocks)))
    # det(smlow) is det of the transposed lower block of M
    return ResidualFamily(hb, smlow, tuple(minors), hb.quartic_scale)


def system_rows_full(inst: Instance, fam: ResidualFamily) -> np.ndarray:
    """The 40x12 coefficient matrix of the orthogonality system.

    Row (j, mu) is a -> dot(T, mu * minor_j(a)): the pairing of the form
    with each cubic multiple of each parametric quintic minor.  The
    quartic multiples of the ideal need no rows: they already pair to
    zero with T because the quartic vanishes on A.
    """
    p = inst.ctx.p
    # shifted[mu, i] is the coefficient of T at cubic monomial mu times
    # quintic monomial i, so row mu pairs T with mu times a quintic
    shifted = inst.coeff_vector[product_table(2, 3, 5)]
    return np.vstack([matmul_mod(shifted, pm.mat, p) for pm in fam.param_minors])


def _octic_columns(fam: ResidualFamily, avec: np.ndarray) -> np.ndarray:
    """45 x 40 array: the cubic multiples of the specialized minors."""
    return np.hstack([mult_map(pm.specialize(avec), 8).a for pm in fam.param_minors])


def residual_octic_generators(fam: ResidualFamily, avec) -> np.ndarray:
    """Spanning vectors (as rows, 55 x 45) of the degree-8 ideal piece of
    the family member at the given parameters: quartic times all
    quartics plus minors times all cubics."""
    qs4 = mult_map(fam.base.Q, 8).a  # 45 x 15
    cols = _octic_columns(fam, np.asarray(avec))
    return np.hstack([qs4, cols]).T


def _instance_seed(inst: Instance, salt: int) -> int:
    digest = hashlib.sha256()
    digest.update(inst.pointset.coords_array().tobytes())
    digest.update(inst.lam.tobytes())
    digest.update(inst.ctx.p.to_bytes(8, "little"))
    digest.update(salt.to_bytes(8, "little"))
    return int.from_bytes(digest.digest()[:8], "little")


def second_decomposition_system(inst: Instance, fam: ResidualFamily,
                                mode: str = FULL,
                                precondition_evidence: tuple = ()) -> Octic14Report:
    """Decide whether any nonzero parameter vector keeps T orthogonal to
    the residual ideal.

    FULL stacks all 40 functionals.  PAPER13 reproduces the reduced
    check: specialize the parameters at a seeded random point, keep the
    13 candidate octics whose pivots extend the 31-dimensional ideal
    piece of A to the full 44-dimensional sum, and use only those 13
    functionals.  Rank 12 certifies uniqueness either way; rank <= 11
    extracts a canonical kernel vector as witness candidate.

    The selection works in the quotient by the ideal piece.  Since
    I_A(8) = ker ev(A, 8), candidate j extends I_A(8) plus the earlier
    candidates iff ev(A, 8) maps it outside the span of their images.
    So the chosen candidates are the pivot columns of the 14 x 40 matrix
    ev(A, 8) * candidates, and the sum has dimension
    (45 - h_A(8)) + its rank; the 45 x 71 stack of a basis of I_A(8)
    with the candidates has the same pivots past the ideal columns.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    p = inst.ctx.p
    full_rows = system_rows_full(inst, fam)
    if mode == FULL:
        sysmat = full_rows
        selected = None
        attempt_used = None
    else:
        ev8 = evaluation_matrix(inst.pointset, 8)
        ideal_dim = ev8.cols - ev8.rank()  # dim I_A(8)
        selected = None
        attempt_used = None
        for attempt in range(SELECTION_RETRIES):
            rng = np.random.default_rng(_instance_seed(inst, 0x13 + attempt))
            avec = rng.integers(1, p, size=N_PARAMS, dtype=np.int64)
            cand = _octic_columns(fam, avec)  # 45 x 40
            _, pivots = row_echelon(matmul_mod(ev8.a, cand, p), p)  # 14 x 40
            if ideal_dim + len(pivots) != 44 or len(pivots) != 13:
                continue
            selected = tuple(pivots)
            attempt_used = attempt
            break
        if selected is None:
            raise SelectionFailed(
                f"no specialization reached rank 44 in {SELECTION_RETRIES} attempts"
            )
        sysmat = full_rows[list(selected)]
    system = DenseMatrix(inst.ctx, sysmat)
    srank = system.rank()
    report = Octic14Report(
        precondition_evidence=tuple(precondition_evidence),
        mode=mode,
        system_matrix=system,
        system_rank=srank,
        selected_columns=selected,
        selection_attempt=attempt_used,
    )
    if srank <= 11:
        kern = system.kernel_basis()
        report.witness = normalize_projective(kern[0], p)
    return report


def verify_witness(inst: Instance, fam: ResidualFamily, astar) -> dict:
    """Check that a candidate parameter vector certifies a second
    decomposition.

    Four exact checks: the residual degree-5 ideal piece has dimension
    7; its degree-8 piece has dimension 31; together with the degree-8
    piece of A the two fill a 44-dimensional space; and T pairs to zero
    with every residual generator.  Raises WitnessRejected naming the
    first failed check.
    """
    p = inst.ctx.p
    astar = np.asarray(astar, dtype=np.int64) % p
    if not np.any(astar):
        raise WitnessRejected("nonzero", "witness parameter vector is zero")
    record = {"a": [int(x) for x in astar]}
    xQ = mult_map(fam.base.Q, 5).a.T  # 3 x 21
    specs = [pm.specialize(astar).coeffs for pm in fam.param_minors]
    deg5 = np.vstack([xQ, np.array(specs)])
    record["residual_dim_5"] = rank_mod(deg5, p)
    if record["residual_dim_5"] != 7:
        raise WitnessRejected("residual_dim_5",
                              f"degree-5 piece has dimension {record['residual_dim_5']} != 7")
    gens8 = residual_octic_generators(fam, astar)  # 55 x 45
    record["residual_dim_8"] = rank_mod(gens8, p)
    if record["residual_dim_8"] != 31:
        raise WitnessRejected("residual_dim_8",
                              f"degree-8 piece has dimension {record['residual_dim_8']} != 31")
    # dim(I_A(8) + span gens8) = dim ker ev(A, 8) + rank of ev(A, 8) on gens8
    ev8 = evaluation_matrix(inst.pointset, 8)
    record["ideal_sum_dim_8"] = (ev8.cols - ev8.rank()
                                 + rank_mod(matmul_mod(ev8.a, gens8.T, p), p))
    if record["ideal_sum_dim_8"] != 44:
        raise WitnessRejected("ideal_sum_dim_8",
                              f"ideal sum has dimension {record['ideal_sum_dim_8']} != 44")
    pairing = matmul_mod(inst.coeff_vector[None, :], gens8.T, p)[0]
    bad = np.nonzero(pairing)[0]
    record["orthogonal_generators"] = int(gens8.shape[0] - bad.size)
    if bad.size:
        raise WitnessRejected("orthogonality",
                              f"T pairs nonzero with residual generator {int(bad[0])}")
    return record


def certify_octic14(inst: Instance, mode: str = FULL) -> Certificate:
    """Full pipeline; never returns a false positive.

    Any failed intermediate check produces a degenerate certificate, not
    a verdict; identifiability requires system rank 12 on top of all
    preconditions, and non-identifiability requires a witness passing
    all four verification checks.
    """
    try:
        pre = check_preconditions(inst)
    except PreconditionFailed as e:
        return Certificate(
            DEGENERATE,
            reason=str(e),
            evidence=(("failed_test", e.test), ("computed", str(e.value))),
        )
    evidence = list(pre)
    try:
        hb = hilbert_burch(inst.pointset)
        Cm, crank = normalization_check(hb)
        evidence.append(("normalization_rank", crank))
        if crank != 12:
            return Certificate(DEGENERATE,
                               reason=f"normalization matrix has rank {crank} != 12",
                               evidence=tuple(evidence))
        fam = residual_family(hb)
        report = second_decomposition_system(inst, fam, mode=mode,
                                             precondition_evidence=pre)
    except (QuarticNotUnique, SyzygyDimension, MinorDegenerate,
            DegenerateCofactors, SelectionFailed) as e:
        return Certificate(DEGENERATE, reason=f"{type(e).__name__}: {e}",
                           evidence=tuple(evidence))
    evidence.append(("system_mode", report.mode))
    evidence.append(("system_rank", report.system_rank))
    if report.selected_columns is not None:
        evidence.append(("selected_columns", list(report.selected_columns)))
    if report.system_rank == 12:
        return Certificate(IDENTIFIABLE, rank=14, evidence=tuple(evidence))
    try:
        checks = verify_witness(inst, fam, report.witness)
    except WitnessRejected as e:
        return Certificate(
            DEGENERATE,
            reason=f"system rank {report.system_rank} but witness rejected: {e.check}",
            evidence=tuple(evidence),
        )
    report.witness_checks = checks
    evidence += [(k, v) for k, v in checks.items() if k != "a"]
    return Certificate(
        NOT_IDENTIFIABLE,
        rank=14,
        witness=checks,
        evidence=tuple(evidence),
    )
