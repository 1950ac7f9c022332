"""Seeded generators of ground-truth test instances.

Identifiable instances are an admissible random fourteen-point set with
uniformly random nonzero coefficients: forms with a second decomposition
fill only an 11-dimensional subvariety of the 13-dimensional span, so a
random coefficient choice misses it except with probability on the order
of 1/p^2.

Unidentifiable instances are built backwards from the residual family:
pick parameters a and assemble the degree-8 ideal piece of the family
member B(a).  A form orthogonal to I_A(8) is lam * ev(A, 8) for a
unique lam, so the one form T orthogonal to both ideals is read off the
left kernel of the 14 x 31 matrix ev(A, 8) * basis(I_B(8))^T: the ideal
sum has dimension 44 iff that matrix has rank 13, and its kernel vector
is the coefficient vector.  Every gate (ideal dimensions 31 and 44,
nonzero coefficients) is checked before an instance is emitted.

The residual points of such an instance are rarely rational, so an
alternative construction (rational_residual=True, small fields only)
chooses the second decomposition's points directly on the quartic
curve: eleven random rational curve points force a unique residual
septic, and the construction is kept only when the septic cuts the
curve in exactly three further rational points.  The resulting unions
are honest complete intersections with all 28 points visible, which is
what the Hilbert-table and Cayley-Bacharach test suites need.  The
septic search works modulo the quartic multiples: on the curve every
septic through A is a combination of twelve fixed septics, so each try
is an 11 x 12 kernel.  Tries are drawn and reduced sixteen at a time as
one stacked RREF, and walked in order; the residual octic basis is read
in reduced form off the one elimination of ev(B, 8).  Forms are
evaluated on the whole plane by a separable product (plane_values), and
points are matched to plane positions by plane_index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criteria import Instance
from .errors import (
    DuplicatePoint,
    FieldTooSmall,
    GenerationExhausted,
    ScanBudgetExceeded,
    WaringError,
    ZeroPoint,
)
from .ffield import (
    DEFAULT_PRIME,
    PrimeContext,
    _kernel_from_echelon,
    kernel_mod,
    matmul_mod,
    normalize_projective,
    row_echelon,
)
from .octic14 import (
    ResidualFamily,
    ideal_past_quartic,
    point_stages,
    residual_octic_generators,
)
from .points import (
    PointSet,
    evaluation_matrix,
    hilbert_value,
    kruskal_rank_at_least,
)
from .polys import GradedPoly, _veronese_rows

EXPECTED_IDENTIFIABLE = "expected_identifiable"
KNOWN_UNIDENTIFIABLE = "known_unidentifiable"

DEFAULT_BUDGET = 1000
SCAN_LIMIT = 2**14


@dataclass(frozen=True)
class GeneratedInstance:
    """An instance with its construction ground truth attached."""

    instance: Instance
    ground_truth: str
    seed: int
    attempts: int
    witness_data: dict | None = None


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(tag)]))


def _plane_context(prime: int) -> PrimeContext:
    """The field of a generator, whose plane needs 14 distinct points."""
    ctx = PrimeContext(prime)
    if prime * prime + prime + 1 < 14:
        raise FieldTooSmall(f"the plane over Z_{prime} has fewer than 14 points")
    return ctx


def random_admissible_pointset(seed: int,
                               prime: int = DEFAULT_PRIME) -> tuple[PointSet, int]:
    """Rejection-sample 14 plane points until all admissibility gates hold.

    Gates: pairwise distinct, h(4) = 14, third Kruskal rank 10, and a
    residual family with normalization rank 12.  The degree-8 images are
    then independent without a test: h never decreases and never exceeds
    the 14 points, so h(4) = 14 gives h(8) = 14.  The family gate is the
    last of the hypotheses certify_octic14 puts on the points alone (a
    set failing it would check as Degenerate whatever the coefficients).
    Deterministic per (seed, prime); returns the point set and the
    attempt count.
    """
    ctx = _plane_context(prime)
    rng = _rng(seed, 0)
    for attempt in range(1, DEFAULT_BUDGET + 1):
        ps = _sample_pointset(ctx, rng)
        if ps is None:
            continue
        # k_3 is capped at 10 by the plane cubics, so >= 10 means == 10
        if not kruskal_rank_at_least(ps, 3, 10) or _family_or_none(ps) is None:
            continue
        return ps, attempt
    raise GenerationExhausted(f"no admissible point set in {DEFAULT_BUDGET} attempts")


def _sample_pointset(ctx: PrimeContext, rng) -> PointSet | None:
    """One draw of 14 points passing the Hilbert gate h(4) = 14, or None."""
    coords = rng.integers(0, ctx.p, size=(14, 3), dtype=np.int64)
    try:
        ps = PointSet(ctx, coords)
    except (ZeroPoint, DuplicatePoint):
        return None
    if hilbert_value(ps, 4) != 14:
        return None
    return ps


def gen_identifiable(seed: int, prime: int = DEFAULT_PRIME) -> GeneratedInstance:
    """Admissible points with uniformly random nonzero coefficients."""
    ps, attempts = random_admissible_pointset(seed, prime)
    rng = _rng(seed, 1)
    lam = rng.integers(1, prime, size=14, dtype=np.int64)
    return GeneratedInstance(
        instance=Instance(ps, 8, lam),
        ground_truth=EXPECTED_IDENTIFIABLE,
        seed=seed,
        attempts=attempts,
    )


def _emit_unidentifiable(ps: PointSet, basis8: np.ndarray, seed: int, attempts: int,
                         witness_extra: dict) -> GeneratedInstance | None:
    """Shared tail of both constructions: the form, its coefficients, gates.

    basis8 is the residual octic space I_B(8) in reduced row echelon
    form, one row per dimension.  T is orthogonal to I_A(8) = ker ev(A, 8)
    iff T = lam * ev(A, 8), and then to the residual octics iff
    lam * ev(A, 8) * basis8^T = 0.  The ideal sum has dimension
    (45 - 14) + rank of that 14 x 31 matrix, so it is 44 iff the left
    kernel is one lam.  Returns None when a gate fails so the caller can
    resample.
    """
    p = ps.ctx.p
    if len(basis8) != 31:
        return None
    ev8 = evaluation_matrix(ps, 8).a
    kern = kernel_mod(matmul_mod(ev8, basis8.T, p).T, p)
    if len(kern) != 1:
        return None
    t = matmul_mod(kern[0], ev8, p)
    # scale lam so the first nonzero coefficient of T is 1
    lam = kern[0] * pow(int(t[np.flatnonzero(t)[0]]), p - 2, p) % p
    if np.any(lam == 0):
        return None
    inst = Instance(ps, 8, lam)
    if not np.array_equal(inst.coeff_vector, normalize_projective(t, p)):
        raise RuntimeError("emitted coefficients do not reproduce the orthogonal form")
    witness = {
        "residual_octics_rank": 31,
        "residual_octics_basis": basis8,
        "ideal_sum_rank": 44,
        **witness_extra,
    }
    return GeneratedInstance(
        instance=inst,
        ground_truth=KNOWN_UNIDENTIFIABLE,
        seed=seed,
        attempts=attempts,
        witness_data=witness,
    )


def gen_unidentifiable(seed: int, prime: int = DEFAULT_PRIME,
                       rational_residual: bool = False) -> GeneratedInstance:
    """A form with a certified second length-14 decomposition.

    Default construction: random parameters in the residual family.
    With rational_residual=True (small fields) the second decomposition
    is chosen point by point on the quartic so all its points are
    rational; see the module docstring.
    """
    if rational_residual:
        return _gen_unidentifiable_rational(seed, prime)
    ctx = _plane_context(prime)
    # same point stream as random_admissible_pointset, but kept open so a
    # degenerate residual family can fall through to a fresh point set
    rng_pts = _rng(seed, 0)
    rng_a = _rng(seed, 2)
    attempts = 0
    while attempts < DEFAULT_BUDGET:
        attempts += 1
        ps = _sample_pointset(ctx, rng_pts)
        if ps is None or not kruskal_rank_at_least(ps, 3, 10):
            continue
        fam = _family_or_none(ps)
        if fam is None:
            continue
        for _inner in range(50):
            attempts += 1
            avec = rng_a.integers(0, prime, size=12, dtype=np.int64)
            if not np.any(avec):
                continue
            rref, pivots = row_echelon(residual_octic_generators(fam, avec), prime)
            out = _emit_unidentifiable(
                ps, rref[:len(pivots)], seed, attempts,
                {"a": [int(x) for x in avec], "residual_points": None},
            )
            if out is not None:
                return out
    raise GenerationExhausted(f"no usable parameter vector in {DEFAULT_BUDGET} attempts")


def _family_or_none(ps: PointSet) -> ResidualFamily | None:
    """The residual family of ps, or None where certify_octic14 would
    stop at Hilbert-Burch, the normalization or the family."""
    try:
        return point_stages(ps)[2]
    except WaringError:
        return None


def plane_points(p: int, at=None) -> np.ndarray:
    """All p*p + p + 1 points of the projective plane, one canonical
    representative each, in the fixed chart order (1,y,z), (0,1,z), (0,0,1);
    or only the points at the positions `at` of that order."""
    idx = np.arange(p * p + p + 1) if at is None else np.asarray(at, dtype=np.int64)
    # position y*p + z of chart (1,y,z); chart (0,1,z) reads as y = p and
    # the point (0,0,1) as y = p + 1, z = 0
    y, z = np.divmod(idx, p)
    return np.column_stack([y < p, np.where(y < p, y, y == p),
                            np.where(y <= p, z, 1)]).astype(np.int64)


def plane_index(ps: PointSet) -> np.ndarray:
    """The positions of the points of a plane set in plane_points(p), the
    inverse of that order: (1,y,z) -> y*p + z, (0,1,z) -> p*p + z and
    (0,0,1) -> p*p + p, read off each point's canonical representative."""
    p = ps.ctx.p
    x, y, z = np.array(ps.canonical_keys(), dtype=np.int64).T
    return np.where(x == 1, y * p + z, p * p + np.where(y == 1, z, p))


def plane_values(f: GradedPoly) -> np.ndarray:
    """f at every point of plane_points(p), in that order.

    On the chart (1, y, z) the values are V C V^T, with V the p x (d+1)
    Vandermonde of powers and C[b, c] the coefficient of x^(d-b-c) y^b z^c;
    the chart (0, 1, z) reads the antidiagonal of C and (0, 0, 1) its
    corner C[0, d].
    """
    if f.n != 2:
        raise ValueError(f"plane_values needs a ternary form, got n = {f.n}")
    p, d = f.ctx.p, f.degree
    exps = np.array(f.basis.exponents)
    C = np.zeros((d + 1, d + 1), dtype=np.int64)
    C[exps[:, 1], exps[:, 2]] = f.coeffs
    V = np.ones((p, d + 1), dtype=np.int64)
    for k in range(1, d + 1):
        V[:, k] = V[:, k - 1] * np.arange(p) % p
    return np.concatenate([
        matmul_mod(matmul_mod(V, C, p), V.T, p).reshape(-1),
        matmul_mod(V, C[d - np.arange(d + 1), np.arange(d + 1)], p),
        C[0, d:]])


def recover_residual_points(Q: GradedPoly, quintics,
                            A: PointSet) -> list[tuple[int, int, int]]:
    """Best-effort scan for the rational points of the second decomposition.

    Evaluates the quartic on the whole projective plane, keeps the common
    zeros of the quartic and all four quintics, and drops the points of A.
    May return fewer than 14 points: residual points need not be
    rational, and the count found is reported, never padded.
    """
    p = Q.ctx.p
    if p > SCAN_LIMIT:
        raise ScanBudgetExceeded(f"p = {p} exceeds the scan guard {SCAN_LIMIT}")
    # restrict to the quartic curve first: ~p points instead of ~p^2
    at = np.flatnonzero(plane_values(Q) == 0)
    hits = plane_points(p, at)
    for q in quintics:
        keep = matmul_mod(_veronese_rows(q.ctx, hits, q.degree), q.coeffs, p) == 0
        at, hits = at[keep], hits[keep]
    return [tuple(pt) for pt in hits[~np.isin(at, plane_index(A))].tolist()]


_RATIONAL_INNER_TRIES = 80
# tries reduced as one stack; it divides the 80 tries, so a loop that runs
# out still draws exactly 80 picks
_TRY_CHUNK = 16


def _gen_unidentifiable_rational(seed: int, prime: int) -> GeneratedInstance:
    """Second decomposition with all points rational, built on the quartic.

    Eleven random rational points of the quartic (besides A) leave a
    single new septic through A and them; keep the draw only when that
    septic meets the quartic in exactly three further rational points,
    which pins the full 28-point complete intersection.

    The Kruskal gate is skipped here on purpose: over fields small
    enough to scan, some ten-subset of a random set is almost always
    dependent (each of the 1001 has a ~1/p chance), so point sets that
    pass every admissibility test essentially do not exist.  The
    Hilbert-table and Cayley-Bacharach suites that consume these
    instances never look at Kruskal ranks.
    """
    if prime > SCAN_LIMIT:
        raise ScanBudgetExceeded(
            f"rational-residual construction scans the plane; p = {prime} "
            f"exceeds {SCAN_LIMIT}"
        )
    ctx = _plane_context(prime)
    p = ctx.p
    rng = _rng(seed, 3)
    attempts = 0
    for _outer in range(DEFAULT_BUDGET):
        attempts += 1
        ps = _sample_pointset(ctx, rng)
        fam = None if ps is None else _family_or_none(ps)
        if fam is None:
            continue
        Q = fam.base.Q
        on_curve = np.flatnonzero(plane_values(Q) == 0)
        candidates = plane_points(p, on_curve[~np.isin(on_curve, plane_index(ps))])
        if len(candidates) < 14:
            continue
        # I_A(7) splits as Q*S_3 plus twelve septics comp; Q*S_3 vanishes on
        # the curve, so a septic through A and candidates F is Q*h + k*comp
        # with E[F] k = 0, and the new septic is k*comp.
        comp = np.array(ideal_past_quartic(ps, fam.base.q, 7))
        if len(comp) != 12:
            raise RuntimeError(f"I_A(7) has {len(comp)} septics beyond Q*S_3, expected 12")
        E = matmul_mod(_veronese_rows(ctx, candidates, 7), comp.T, p)
        for _chunk in range(_RATIONAL_INNER_TRIES // _TRY_CHUNK):
            picks = np.array([np.sort(rng.choice(len(candidates), size=11, replace=False))
                              for _ in range(_TRY_CHUNK)])
            lines, single = _septic_lines(E[picks], p)
            zeros = matmul_mod(E, lines.T, p).T == 0
            for picked, line_ok, on_septic in zip(picks, single, zeros):
                attempts += 1
                if not line_ok:
                    continue
                on_septic[picked] = False
                extra = np.flatnonzero(on_septic)
                if len(extra) != 3:
                    continue
                bset = PointSet(ctx, candidates[np.concatenate([picked, extra])])
                astar = _parameters_for_points(fam, bset)
                if astar is None:
                    continue
                out = _emit_unidentifiable(
                    ps, _octic_ideal_rref(bset), seed, attempts,
                    {
                        "a": [int(x) for x in astar],
                        "residual_points": [list(pt) for pt in bset.points],
                    },
                )
                if out is not None:
                    return out
    raise GenerationExhausted(
        f"no split residual set found in {DEFAULT_BUDGET} attempts over Z_{prime}"
    )


def _septic_lines(tries: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Kernel lines of a stack of 11 x 12 tries, from one stacked RREF.

    Returns (lines, single): row k is the canonical kernel vector of try
    k where that kernel is one line (single[k]), and zero elsewhere.
    """
    rref, mask = row_echelon(tries, p)
    single = mask.sum(axis=1) == tries.shape[1]
    k = np.flatnonzero(single)
    free = np.argmin(mask[k], axis=1)
    pivots = np.nonzero(mask[k])[1].reshape(len(k), tries.shape[1])
    lines = np.zeros((len(tries), tries.shape[2]), dtype=np.int64)
    lines[k[:, None], pivots] = -rref[k, :, free] % p
    lines[k, free] = 1
    return lines, single


def _octic_ideal_rref(bset: PointSet) -> np.ndarray:
    """I_B(8) = ker ev(B, 8) in reduced row echelon form, from one
    elimination.

    The canonical kernel basis of ev(B, 8) with its columns reversed has
    its free coordinate 1 as the last nonzero entry of each vector and 0 at
    the other free columns; reversing rows and columns back makes that
    coordinate the leading 1 of an RREF row.
    """
    p = bset.ctx.p
    r, pivots = row_echelon(evaluation_matrix(bset, 8).a[:, ::-1], p)
    return np.array(_kernel_from_echelon(r, pivots, p))[::-1, ::-1]


def _parameters_for_points(fam: ResidualFamily, bset: PointSet) -> np.ndarray | None:
    """The parameter ray whose minors all vanish on the given points.

    Stacks one linear condition per (minor, point) pair; a valid second
    decomposition leaves exactly a one-dimensional kernel.
    """
    p = bset.ctx.p
    system = fam.paired(evaluation_matrix(bset, 5).a)  # 56 x 12
    kern = kernel_mod(system, p)
    if len(kern) != 1:
        return None
    return normalize_projective(kern[0], p)
