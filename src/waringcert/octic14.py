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

The stages take and return int64 coefficient arrays reduced mod p: the
quartic, the quintics and the 4x18 syzygy kernel (HilbertBurch), the
21x4x12 minors (ResidualFamily) and the system (Octic14Report).  The
eight cubic cofactors are one polys._minors call over a leading axis of
2; C, the minors, the system rows and the cubic multiples are each one
polys._mult_maps call or one matmul.  GradedPoly, ParamPoly and
DenseMatrix are built on first read of HilbertBurch.Q, .quintics and .M,
ResidualFamily.param_minors and Octic14Report.system_matrix, by callers
outside the stages; C alone is a DenseMatrix, which keeps its rank.

Every stage is deterministic; the reduced mode's random specialization
is seeded from a digest of the instance so reports are reproducible.
Only the nonzero test of check_preconditions, the decision system and
the witness check read the coefficients lambda.  The stages from the
quartic to the residual family read the points alone and are kept as
facts of the PointSet object (points.fact), so a further form over it
pays only for its own.
The quintics and septics past Q * S are picked in free coordinates.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .criteria import DEGENERATE, IDENTIFIABLE, NOT_IDENTIFIABLE, Certificate, Instance
from .errors import (MinorDegenerate, PreconditionFailed, QuarticNotUnique, SelectionFailed,
                     SyzygyDimension, WitnessRejected)
from .ffield import (DenseMatrix, PrimeContext, _kernel_from_echelon, as_residues, kernel_mod,
                     matmul_mod, normalize_projective, rank_mod, row_echelon)
from .points import (PointSet, evaluation_matrix, fact, hilbert_value, ideal_piece, kruskal_level,
                     kruskal_rank_detail)
from .polys import (GradedPoly, ParamPoly, _minors, _mult_maps, _row_products, monomial_basis,
                    product_table)

FULL = "full"
PAPER13 = "paper13"
MODES = (FULL, PAPER13)

N_PARAMS = 12
SELECTION_RETRIES = 8


def _forms(ctx: PrimeContext, d: int, coeffs: np.ndarray) -> tuple[GradedPoly, ...]:
    """One plane form of degree d per row of coeffs."""
    return tuple(GradedPoly(ctx, monomial_basis(2, d), v) for v in coeffs)


@dataclass(frozen=True)
class HilbertBurch:
    """Ideal generators of the point set and their first syzygies, as
    read-only coefficient arrays.

    q is the unique quartic Q (first nonzero coefficient 1), the rows of g
    the four quintics that complete the ideal generators, and row k of syz
    column k of the 5x4 syzygy matrix M: the conic of its top row, then
    the linear forms of its four lower rows.  Q, quintics and M are the
    same as GradedPoly, built on first read.
    """

    ctx: PrimeContext
    q: np.ndarray  # 15
    g: np.ndarray  # 4 x 21
    syz: np.ndarray  # 4 x (6 + 4 * 3)

    def __post_init__(self):
        for a in (self.q, self.g, self.syz):
            a.setflags(write=False)

    @cached_property
    def Q(self) -> GradedPoly:
        return _forms(self.ctx, 4, [self.q])[0]

    @cached_property
    def quintics(self) -> tuple[GradedPoly, ...]:
        return _forms(self.ctx, 5, self.g)

    @cached_property
    def M(self) -> tuple[tuple[GradedPoly, ...], ...]:
        return (_forms(self.ctx, 2, self.syz[:, :6]),
                *(_forms(self.ctx, 1, row) for row in self.lower))

    @property
    def lower(self) -> np.ndarray:
        """4 x 4 x 3: entry [i, k] is the linear form M[1 + i][k]."""
        return self.syz[:, 6:].reshape(4, 4, 3).swapaxes(0, 1)

    @cached_property
    def cofactors(self) -> np.ndarray:
        """2 x 4 x 10: the cubic minors of M[1:] less its second and less its
        fourth row; entry [r, j] omits column j, as _minors runs in
        combinations() order."""
        rows = self.lower[[[0, 2, 3], [0, 1, 2]]].swapaxes(0, 1)
        return _minors(2, (1, 1, 1), rows, self.ctx.p)[:, ::-1]

    @cached_property
    def quartic_scale(self) -> int:
        """The nonzero scalar mu with det(lower block) = mu * Q, expanded along
        its second row; raises MinorDegenerate when it is no such multiple."""
        p = self.ctx.p
        t = _row_products(2, 1, 3, self.lower[1], self.cofactors[0], p)
        return _proportionality((t[1] + t[3] - t[0] - t[2]) % p, self.q, p,
                                "the 4x4 linear minor of M is not a nonzero multiple of the quartic")


@dataclass(frozen=True)
class ResidualFamily:
    """The 12-parameter family of candidate second decompositions.

    minors[:, j] (21 x 12, read-only) is quintic minor j of the family's
    syzygy matrix, exactly linear in the parameters (the conic row is
    (0, q2(a1..a6), 0, q4(a7..a12))): column t multiplies parameter t.
    param_minors are the four as ParamPoly, built on first read.
    """

    base: HilbertBurch
    minors: np.ndarray  # 21 x 4 x 12

    def __post_init__(self):
        self.minors.setflags(write=False)

    @cached_property
    def param_minors(self) -> tuple[ParamPoly, ...]:
        return tuple(ParamPoly(self.base.ctx, monomial_basis(2, 5), self.minors[:, j])
                     for j in range(4))

    def specialized(self, avec: np.ndarray) -> np.ndarray:
        """4 x 21: the minors at the residue vector avec."""
        return matmul_mod(self.minors, avec, self.base.ctx.p).T

    def paired(self, x: np.ndarray) -> np.ndarray:
        """(4 r) x 12 for r x 21 rows x: row (j, i) is a -> dot(x[i], minor j)."""
        out = matmul_mod(x, self.minors.reshape(21, 48), self.base.ctx.p)
        return out.reshape(-1, 4, 12).swapaxes(0, 1).reshape(-1, 12)


@dataclass(frozen=True)
class Octic14Report:
    """Everything the linear-system stage computed; system_matrix wraps
    the system on first read."""

    ctx: PrimeContext
    mode: str
    system: np.ndarray
    system_rank: int
    selected_columns: tuple[int, ...] | None = None
    witness: np.ndarray | None = None

    @cached_property
    def system_matrix(self) -> DenseMatrix:
        return DenseMatrix(self.ctx, self.system)


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
        raise ValueError("pipeline needs 14 points in the projective plane and degree 8, "
                         f"got n={inst.pointset.n}, d={inst.degree}, ell={inst.length}")
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
    return (("rank_ev8", r8), ("lambda_nonzero", True), ("hilbert_4", h4),
            ("kruskal_3", k3), ("kruskal_3_subsets", examined))


def unique_quartic(A: PointSet) -> np.ndarray:
    """The coefficients of the quartic spanning the degree-4 ideal piece,
    scaled so the first nonzero one is 1."""
    kern = ideal_piece(A, 4)
    if len(kern) != 1:
        raise QuarticNotUnique(f"degree-4 ideal piece has dimension {len(kern)}, expected 1")
    return normalize_projective(kern[0], A.ctx.p)


def _proportionality(f: np.ndarray, g: np.ndarray, p: int, error: str) -> int:
    """The scalar mu with f = mu * g; raises MinorDegenerate otherwise."""
    nz = np.nonzero(g)[0]
    if nz.size == 0 or not np.any(f):
        raise MinorDegenerate(error)
    mu = int(f[nz[0]]) * pow(int(g[nz[0]]), p - 2, p) % p
    if mu == 0 or not np.all((f - mu * g) % p == 0):
        raise MinorDegenerate(error)
    return mu


def ideal_past_quartic(A: PointSet, q: np.ndarray, d: int) -> list[np.ndarray]:
    """The canonical kernel vectors of ev(A, d) independent of Q * S_{d-4}
    (q the coefficients of a quartic Q through A) and of those before them:
    in the free coordinates vector j falls out iff a form of Q * S_{d-4}
    ends at j, a reversed pivot."""
    ker = ideal_piece(A, d)
    free = [int(np.flatnonzero(v)[-1]) for v in ker]  # later columns are pivots
    _, reversed_pivots = row_echelon(_mult_maps(2, 4, d - 4, q)[free].T[:, ::-1], A.ctx.p)
    return [v for j, v in enumerate(ker) if len(free) - 1 - j not in reversed_pivots]


def hilbert_burch(A: PointSet) -> HilbertBurch:
    """Ideal generators and the syzygy matrix of the fourteen points.

    The quintic generators are the first four canonical kernel vectors
    of the degree-5 evaluation matrix that are independent of the
    quartic multiples and of the vectors before them (ideal_past_quartic),
    and the columns of M are the canonical kernel basis of the degree-6
    relation map (f, g1..g4) -> f*Q + sum_j g_j * Q_j, so the whole
    structure is reproducible bit for bit.  Kept as the fact
    ("hilbert_burch",) of A; a failure is not, so it is raised again on
    the next call.
    """
    return fact(A, ("hilbert_burch",), _hilbert_burch, A)


def _hilbert_burch(A: PointSet) -> HilbertBurch:
    q = unique_quartic(A)
    past = ideal_past_quartic(A, q, 5)
    if len(past) < 4:
        # x0*Q, x1*Q and x2*Q are independent, so they add three dimensions
        raise SyzygyDimension(f"degree-5 ideal piece spans only {3 + len(past)} dimensions "
                              "with the quartic multiples, expected 7")
    g = np.array(past[:4])
    syz = kernel_mod(np.hstack([_mult_maps(2, 4, 2, q), *_mult_maps(2, 5, 1, g)]), A.ctx.p)
    if len(syz) != 4:
        raise SyzygyDimension(f"syzygy kernel has dimension {len(syz)}, expected 4")
    hb = HilbertBurch(A.ctx, q, g, np.array(syz))
    hb.quartic_scale  # expand the 4x4 minor now, so a bad one fails here
    return hb


def normalization_check(hb: HilbertBurch) -> tuple[DenseMatrix, int]:
    """Build the 12x12 matrix of the row-normalization system and its rank.

    The system eliminates the first and third conics of the transposed
    syzygy matrix by adding multiples of its four linear rows; the
    unknowns are the 12 coefficients of the four multiplier linear
    forms, the equations the 6+6 conic coefficients.  Full rank 12
    certifies that fixing those two conics to zero loses no family
    member.  Block (r, k) of C is mult_map(M[1 + 2r][k], 2).
    """
    maps = _mult_maps(2, 1, 1, hb.lower[[0, 2]])  # 2 x 4 x 6 x 3
    Cm = DenseMatrix(hb.ctx, maps.swapaxes(1, 2).reshape(12, 12))
    return Cm, Cm.rank()


def residual_family(hb: HilbertBurch) -> ResidualFamily:
    """The syzygy matrices of all candidate second decompositions.

    The family matrix keeps the transpose of M's linear block and takes
    (0, q2, 0, q4) as its conic row, with q2, q4 free conics in the
    twelve parameters a1..a12.  Expanding each quintic 4x4 minor along
    the conic row leaves numeric cubic cofactors, so the minors are
    exactly linear in the parameters.
    """
    # MinorDegenerate unless det(M[1:]) = mu * Q with mu != 0, so neither
    # row of cofactors below vanishes: det(M[1:]) expands along each
    hb.quartic_scale
    # The cofactor of the transposed block without row j and column k is
    # the minor of the lower block without row k and column j, so along
    # the conic row (0, q2, 0, q4) minor j is -q2 * C_j1 - q4 * C_j3;
    # q * C is linear in the six coefficients of q through mult_map(C, 5).
    maps = _mult_maps(2, 3, 2, hb.cofactors)  # [r, j] is mult_map(C_j(2r+1), 5)
    return ResidualFamily(hb, -maps.transpose(2, 1, 0, 3).reshape(21, 4, 12) % hb.ctx.p)


def point_stages(A: PointSet) -> tuple:
    """(hb, C, family): Hilbert-Burch, the normalization matrix and the
    residual family of A, or None for the family when C has rank below
    12.  Kept as the fact ("point_stages",) of A; a stage that raises
    stores nothing, so the next call raises again."""
    return fact(A, ("point_stages",), _point_stages, A)


def _point_stages(A: PointSet) -> tuple:
    hb = hilbert_burch(A)
    Cm, crank = normalization_check(hb)
    return hb, Cm, residual_family(hb) if crank == 12 else None


def system_rows_full(inst: Instance, fam: ResidualFamily) -> np.ndarray:
    """The 40x12 coefficient matrix of the orthogonality system.

    Row (j, mu) is a -> dot(T, mu * minor_j(a)): the pairing of the form
    with each cubic multiple of each parametric quintic minor.  The
    quartic multiples of the ideal need no rows: they already pair to
    zero with T because the quartic vanishes on A.
    """
    # entry [mu, i] is the coefficient of T at cubic monomial mu times
    # quintic monomial i, so row mu pairs T with mu times a quintic
    return fam.paired(inst.coeff_vector[product_table(2, 3, 5)])


def _octic_columns(fam: ResidualFamily, avec: np.ndarray) -> np.ndarray:
    """45 x 40 array: the cubic multiples of the specialized minors."""
    return np.hstack(_mult_maps(2, 5, 3, fam.specialized(avec)))


def residual_octic_generators(fam: ResidualFamily, avec: np.ndarray) -> np.ndarray:
    """Spanning vectors (as rows, 55 x 45) of the degree-8 ideal piece of
    the family member at the residue vector avec: quartic times all
    quartics plus minors times all cubics."""
    return np.hstack([_mult_maps(2, 4, 4, fam.base.q), _octic_columns(fam, avec)]).T


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
            raise SelectionFailed(f"no specialization reached rank 44 in {SELECTION_RETRIES} attempts")
        sysmat = full_rows[list(selected)]
    rref, pivots = row_echelon(sysmat, p)
    witness = (normalize_projective(_kernel_from_echelon(rref, pivots, p)[0], p)
               if len(pivots) <= 11 else None)
    return Octic14Report(inst.ctx, mode, sysmat, len(pivots), selected, witness)


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
    astar = as_residues(astar, p)
    if not np.any(astar):
        raise WitnessRejected("nonzero", "witness parameter vector is zero")
    record = {"a": [int(x) for x in astar]}

    def dimension(check: str, what: str, value: int, expected: int):
        record[check] = value
        if value != expected:
            raise WitnessRejected(check, f"{what} has dimension {value} != {expected}")

    deg5 = np.vstack([_mult_maps(2, 4, 1, fam.base.q).T, fam.specialized(astar)])
    dimension("residual_dim_5", "degree-5 piece", rank_mod(deg5, p), 7)
    gens8 = residual_octic_generators(fam, astar)  # 55 x 45
    dimension("residual_dim_8", "degree-8 piece", rank_mod(gens8, p), 31)
    # dim(I_A(8) + span gens8) = dim ker ev(A, 8) + rank of ev(A, 8) on gens8
    ev8 = evaluation_matrix(inst.pointset, 8)
    dimension("ideal_sum_dim_8", "ideal sum", ev8.cols - hilbert_value(inst.pointset, 8)
              + rank_mod(matmul_mod(ev8.a, gens8.T, p), p), 44)
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
        return Certificate(DEGENERATE, reason=str(e),
                           evidence=(("failed_test", e.test), ("computed", str(e.value))))
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
        return Certificate(DEGENERATE, evidence=tuple(evidence), reason=f"system rank "
                           f"{report.system_rank} but witness rejected: {e.check}")
    evidence += [(k, v) for k, v in checks.items() if k != "a"]
    return Certificate(NOT_IDENTIFIABLE, rank=14, witness=checks, evidence=tuple(evidence))
