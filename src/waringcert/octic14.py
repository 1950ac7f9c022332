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
  point_stages           the three above, memoised on the point set
  second_decomposition_system   the 40x12 (or reduced 13x12) system
  verify_witness         dimension and orthogonality checks on a candidate
  certify_octic14        the orchestrated certificate

Every stage is deterministic; the reduced mode's random specialization
is seeded from a digest of the instance so reports are reproducible.
Only the nonzero test of check_preconditions, the decision system and
the witness check read the coefficients lambda.  The stages from the
quartic to the residual family read the points alone and are memoised on
the PointSet object, so a further form over it pays only for its own.
The quintics and septics past Q * S are picked in free coordinates.
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
    hilbert_value,
    ideal_piece,
    kruskal_level,
    kruskal_rank_detail,
)
from .polys import (
    GradedPoly,
    ParamPoly,
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

    Q: GradedPoly
    quintics: tuple[GradedPoly, GradedPoly, GradedPoly, GradedPoly]
    M: tuple[tuple[GradedPoly, ...], ...]

    @cached_property
    def cofactors(self) -> tuple[list[GradedPoly], list[GradedPoly]]:
        """The cubic minors of M[1:] less its second and less its fourth row;
        entry j omits column j, as maximal_minors keys in combinations() order."""
        return tuple(list(maximal_minors([list(row) for i, row in enumerate(self.M[1:])
                                          if i != k]).values())[::-1] for k in (1, 3))

    @cached_property
    def quartic_scale(self) -> int:
        """The nonzero scalar mu with det(lower block) = mu * Q, expanded along
        its second row; raises MinorDegenerate when it is no such multiple."""
        t = [(L * c).coeffs for L, c in zip(self.M[2], self.cofactors[0])]
        return _proportionality(
            GradedPoly(self.Q.ctx, self.Q.basis, t[1] + t[3] - t[0] - t[2]), self.Q,
            "the 4x4 linear minor of M is not a nonzero multiple of the quartic")


@dataclass(frozen=True)
class ResidualFamily:
    """The 12-parameter family of candidate second decompositions.

    The four param_minors are the quintic minors of the family's syzygy
    matrix, each exactly linear in the parameters (the conic row is
    (0, q2(a1..a6), 0, q4(a7..a12))).
    """

    base: HilbertBurch
    param_minors: tuple[ParamPoly, ParamPoly, ParamPoly, ParamPoly]


@dataclass(frozen=True)
class Octic14Report:
    """Everything the linear-system stage computed."""

    mode: str
    system_matrix: DenseMatrix
    system_rank: int
    selected_columns: tuple[int, ...] | None = None
    witness: np.ndarray | None = None


def octic14_shape(inst: Instance) -> bool:
    """14 plane points in degree 8, the one shape the pipeline is stated for."""
    return inst.pointset.n == 2 and inst.degree == 8 and inst.length == 14


def check_preconditions(inst: Instance) -> tuple:
    """Admissibility tests: non-redundancy, middle Hilbert value, third
    Kruskal rank.  Returns the evidence; raises PreconditionFailed with
    the offending test number and computed value.  Test 3 needs only
    k_3(A) >= 10, so its failure value is the first dependent subset in
    combinations order, not the exact k_3."""
    if not octic14_shape(inst):
        raise ValueError(
            "pipeline needs 14 points in the projective plane and degree 8, "
            f"got n={inst.pointset.n}, d={inst.degree}, ell={inst.length}"
        )
    A = inst.pointset
    h4 = hilbert_value(A, 4)
    r8 = hilbert_value(A, 8)  # 14 without eliminating once h_A(4) = 14
    if r8 != 14:
        raise PreconditionFailed(1, r8, f"rank(ev(A,8)) = {r8} != 14")
    zeros = np.nonzero(inst.lam == 0)[0]
    if zeros.size:
        raise PreconditionFailed(1, f"lambda[{int(zeros[0])}] = 0",
                                 "zero coefficient makes A redundant for T")
    if h4 != 14:
        raise PreconditionFailed(2, h4, f"h_A(4) = {h4} != 14")
    k3, examined = kruskal_rank_detail(A, 3, 10)  # 10 is the cap: one level
    if k3 < 10:
        subset = kruskal_level(A, 3, 10)[1]
        raise PreconditionFailed(
            3, subset, f"k_3(A) < 10: the 10-subset {subset} is "
                       f"dependent (subset {examined} in combinations order)")
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
    kern = ideal_piece(A, 4)
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


def ideal_past_quartic(A: PointSet, Q: GradedPoly, d: int) -> list[np.ndarray]:
    """The canonical kernel vectors of ev(A, d) independent of Q * S_{d-4}
    (Q a quartic through A) and of those before them: in the free coordinates
    vector j falls out iff a form of Q * S_{d-4} ends at j, a reversed pivot."""
    ker = ideal_piece(A, d)
    free = [int(np.flatnonzero(v)[-1]) for v in ker]  # later columns are pivots
    _, reversed_pivots = row_echelon(mult_map(Q, d)[free].T[:, ::-1], A.ctx.p)
    return [v for j, v in enumerate(ker) if len(free) - 1 - j not in reversed_pivots]


def hilbert_burch(A: PointSet) -> HilbertBurch:
    """Ideal generators and the syzygy matrix of the fourteen points.

    The quintic generators are the first four canonical kernel vectors
    of the degree-5 evaluation matrix that are independent of the
    quartic multiples and of the vectors before them (ideal_past_quartic),
    and the columns of M are the canonical kernel basis of the degree-6
    relation map (f, g1..g4) -> f*Q + sum_j g_j * Q_j, so the whole
    structure is reproducible bit for bit.  Memoised on A; a failure
    is not, so it is raised again on the next call.
    """
    if "hilbert_burch" in A._memo:
        return A._memo["hilbert_burch"]
    ctx = A.ctx
    p = ctx.p
    Q = unique_quartic(A)
    past = ideal_past_quartic(A, Q, 5)
    if len(past) < 4:
        # x0*Q, x1*Q and x2*Q are independent, so they add three dimensions
        raise SyzygyDimension(
            f"degree-5 ideal piece spans only {3 + len(past)} dimensions with the "
            "quartic multiples, expected 7"
        )
    quintics = [GradedPoly(ctx, monomial_basis(2, 5), v) for v in past[:4]]
    phi = np.hstack([mult_map(Q, 6)] + [mult_map(q, 6) for q in quintics])
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
    hb = HilbertBurch(Q, tuple(quintics), M)
    hb.quartic_scale  # expand the 4x4 minor now, so a bad one fails here
    A._memo["hilbert_burch"] = hb
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
    ctx = hb.Q.ctx
    row1 = [mult_map(L, 2) for L in hb.M[1]]
    row3 = [mult_map(L, 2) for L in hb.M[3]]
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
    ctx = hb.Q.ctx
    # MinorDegenerate unless det(M[1:]) = mu * Q with mu != 0, so neither
    # row of cofactors below vanishes: det(M[1:]) expands along each
    hb.quartic_scale
    # The cofactor of the transposed block without row j and column k is
    # the minor of the lower block without row k and column j, so along
    # the conic row (0, q2, 0, q4) minor j is -q2 * C_j1 - q4 * C_j3;
    # q * C is linear in the six coefficients of q through mult_map(C, 5).
    minors = [ParamPoly(ctx, monomial_basis(2, 5),
                        -np.hstack([mult_map(cof[j], 5) for cof in hb.cofactors]))
              for j in range(4)]
    return ResidualFamily(hb, tuple(minors))


def point_stages(A: PointSet) -> tuple:
    """(hb, C, family): Hilbert-Burch, the normalization matrix and the
    residual family of A, or None for the family when C has rank below
    12.  Memoised on A; a stage that raises stores nothing, so the next
    call raises again."""
    if "point_stages" not in A._memo:
        hb = hilbert_burch(A)
        Cm, crank = normalization_check(hb)
        A._memo["point_stages"] = (hb, Cm, residual_family(hb) if crank == 12 else None)
    return A._memo["point_stages"]


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
    return np.hstack([mult_map(pm.specialize(avec), 8) for pm in fam.param_minors])


def residual_octic_generators(fam: ResidualFamily, avec) -> np.ndarray:
    """Spanning vectors (as rows, 55 x 45) of the degree-8 ideal piece of
    the family member at the given parameters: quartic times all
    quartics plus minors times all cubics."""
    qs4 = mult_map(fam.base.Q, 8)  # 45 x 15
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
                                mode: str = FULL) -> Octic14Report:
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
    else:
        ev8 = evaluation_matrix(inst.pointset, 8)
        ideal_dim = ev8.cols - hilbert_value(inst.pointset, 8)  # dim I_A(8)
        selected = None
        for attempt in range(SELECTION_RETRIES):
            rng = np.random.default_rng(_instance_seed(inst, 0x13 + attempt))
            avec = rng.integers(1, p, size=N_PARAMS, dtype=np.int64)
            cand = _octic_columns(fam, avec)  # 45 x 40
            _, pivots = row_echelon(matmul_mod(ev8.a, cand, p), p)  # 14 x 40
            if ideal_dim + len(pivots) != 44 or len(pivots) != 13:
                continue
            selected = tuple(pivots)
            break
        if selected is None:
            raise SelectionFailed(
                f"no specialization reached rank 44 in {SELECTION_RETRIES} attempts"
            )
        sysmat = full_rows[list(selected)]
    system = DenseMatrix(inst.ctx, sysmat)
    srank = system.rank()
    return Octic14Report(
        mode=mode,
        system_matrix=system,
        system_rank=srank,
        selected_columns=selected,
        witness=(normalize_projective(system.kernel_basis()[0], p)
                 if srank <= 11 else None),
    )


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
    xQ = mult_map(fam.base.Q, 5).T  # 3 x 21
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
    record["ideal_sum_dim_8"] = (ev8.cols - hilbert_value(inst.pointset, 8)
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
        evidence = list(check_preconditions(inst))
    except PreconditionFailed as e:
        return Certificate(
            DEGENERATE,
            reason=str(e),
            evidence=(("failed_test", e.test), ("computed", str(e.value))),
        )
    try:
        _, Cm, fam = point_stages(inst.pointset)
        evidence.append(("normalization_rank", Cm.rank()))
        if fam is None:
            return Certificate(DEGENERATE,
                               reason=f"normalization matrix has rank {Cm.rank()} != 12",
                               evidence=tuple(evidence))
        report = second_decomposition_system(inst, fam, mode=mode)
    except (QuarticNotUnique, SyzygyDimension, MinorDegenerate,
            SelectionFailed) as e:
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
    evidence += [(k, v) for k, v in checks.items() if k != "a"]
    return Certificate(
        NOT_IDENTIFIABLE,
        rank=14,
        witness=checks,
        evidence=tuple(evidence),
    )
