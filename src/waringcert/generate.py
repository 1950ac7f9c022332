"""Seeded generators of ground-truth test instances.

Identifiable instances are an admissible random fourteen-point set with
uniformly random nonzero coefficients: forms with a second decomposition
fill only an 11-dimensional subvariety of the 13-dimensional span, so a
random coefficient choice misses it except with probability on the order
of 1/p^2.

Unidentifiable instances are built backwards from the residual family:
pick parameters a, assemble the degree-8 ideal piece of the family
member B(a), intersect annihilators to find the one form T orthogonal
to both ideals, and solve for its coefficients on the original points.
Every gate (ideal dimensions 31 and 44, one-dimensional annihilator,
nonzero coefficients) is re-verified on the emitted instance.

The residual points of such an instance are rarely rational, so an
alternative construction (rational_residual=True, small fields only)
chooses the second decomposition's points directly on the quartic
curve: eleven random rational curve points force a unique residual
septic, and the construction is kept only when the septic cuts the
curve in exactly three further rational points.  The resulting unions
are honest complete intersections with all 28 points visible, which is
what the Hilbert-table and Cayley-Bacharach test suites need.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criteria import Instance
from .errors import (
    AnnihilatorDimension,
    DuplicatePoint,
    GenerationExhausted,
    InconsistentSystem,
    ScanBudgetExceeded,
    WaringError,
    ZeroPoint,
)
from .ffield import (
    DEFAULT_PRIME,
    PrimeContext,
    kernel_mod,
    matmul_mod,
    normalize_projective,
    rank_mod,
    row_echelon,
    solve_mod,
)
from .octic14 import (
    ResidualFamily,
    hilbert_burch,
    normalization_check,
    residual_family,
    residual_octic_generators,
)
from .points import (
    PointSet,
    evaluation_matrix,
    kruskal_rank_at_least,
)
from .polys import GradedPoly, monomial_basis, mult_map, _veronese_rows

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


def random_admissible_pointset(seed: int, prime: int = DEFAULT_PRIME,
                               budget: int = DEFAULT_BUDGET) -> tuple[PointSet, int]:
    """Rejection-sample 14 plane points until all admissibility gates hold.

    Gates: pairwise distinct, h(4) = 14, independent degree-8 images,
    third Kruskal rank 10.  Deterministic per (seed, prime); returns the
    point set and the attempt count.
    """
    ctx = PrimeContext(prime)
    rng = _rng(seed, 0)
    for attempt in range(1, budget + 1):
        ps = _sample_pointset(ctx, rng)
        if ps is None:
            continue
        # k_3 is capped at 10 by the plane cubics, so >= 10 means == 10
        if not kruskal_rank_at_least(ps, 3, 10):
            continue
        return ps, attempt
    raise GenerationExhausted(f"no admissible point set in {budget} attempts")


def _sample_pointset(ctx: PrimeContext, rng) -> PointSet | None:
    """One draw of 14 points passing the two Hilbert gates, or None."""
    coords = rng.integers(0, ctx.p, size=(14, 3), dtype=np.int64)
    try:
        ps = PointSet(ctx, coords)
    except (ZeroPoint, DuplicatePoint):
        return None
    if evaluation_matrix(ps, 4).rank() != 14:
        return None
    if evaluation_matrix(ps, 8).rank() != 14:
        return None
    return ps


def gen_identifiable(seed: int, prime: int = DEFAULT_PRIME,
                     budget: int = DEFAULT_BUDGET) -> GeneratedInstance:
    """Admissible points with uniformly random nonzero coefficients."""
    ps, attempts = random_admissible_pointset(seed, prime, budget)
    rng = _rng(seed, 1)
    lam = rng.integers(1, prime, size=14, dtype=np.int64)
    return GeneratedInstance(
        instance=Instance(ps, 8, lam),
        ground_truth=EXPECTED_IDENTIFIABLE,
        seed=seed,
        attempts=attempts,
    )


def _annihilator(rows: np.ndarray, p: int) -> np.ndarray:
    kern = kernel_mod(rows, p)
    if len(kern) != 1:
        raise AnnihilatorDimension(
            f"annihilator of the ideal sum has dimension {len(kern)}, expected 1"
        )
    return normalize_projective(kern[0], p)


def _emit_unidentifiable(ps: PointSet, ia8: np.ndarray, gens8: np.ndarray,
                         seed: int, attempts: int,
                         witness_extra: dict) -> GeneratedInstance | None:
    """Shared tail of both constructions: annihilator, coefficients, gates.

    Returns None when a gate fails so the caller can resample.
    """
    p = ps.ctx.p
    if rank_mod(gens8, p) != 31:
        return None
    stacked = np.vstack([ia8, gens8])
    if rank_mod(stacked, p) != 44:
        return None
    t = _annihilator(stacked, p)
    v_a = evaluation_matrix(ps, 8).a.T  # 45 x 14
    try:
        lam, null_dim = solve_mod(v_a, t, p)
    except InconsistentSystem:
        return None
    if null_dim != 0 or np.any(lam == 0):
        return None
    inst = Instance(ps, 8, lam)
    if not np.array_equal(inst.coeff_vector, t):
        raise RuntimeError("emitted coefficients do not reproduce the annihilator")
    rref, pivots = row_echelon(gens8, p)
    witness = {
        "residual_octics_rank": 31,
        "residual_octics_basis": rref[: len(pivots)],
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
                       budget: int = DEFAULT_BUDGET,
                       rational_residual: bool = False) -> GeneratedInstance:
    """A form with a certified second length-14 decomposition.

    Default construction: random parameters in the residual family.
    With rational_residual=True (small fields) the second decomposition
    is chosen point by point on the quartic so all its points are
    rational; see the module docstring.
    """
    if rational_residual:
        return _gen_unidentifiable_rational(seed, prime, budget)
    ctx = PrimeContext(prime)
    # same point stream as random_admissible_pointset, but kept open so a
    # degenerate residual family can fall through to a fresh point set
    rng_pts = _rng(seed, 0)
    rng_a = _rng(seed, 2)
    attempts = 0
    while attempts < budget:
        attempts += 1
        ps = _sample_pointset(ctx, rng_pts)
        if ps is None or not kruskal_rank_at_least(ps, 3, 10):
            continue
        try:
            fam = _family_or_none(ps)
        except WaringError:
            continue
        if fam is None:
            continue
        ia8 = np.array(evaluation_matrix(ps, 8).kernel_basis())
        for _inner in range(50):
            attempts += 1
            avec = rng_a.integers(0, prime, size=12, dtype=np.int64)
            if not np.any(avec):
                continue
            gens8 = residual_octic_generators(fam, avec)
            out = _emit_unidentifiable(
                ps, ia8, gens8, seed, attempts,
                {"a": [int(x) for x in avec], "residual_points": None},
            )
            if out is not None:
                return out
    raise GenerationExhausted(f"no usable parameter vector in {budget} attempts")


def _family_or_none(ps: PointSet) -> ResidualFamily | None:
    hb = hilbert_burch(ps)
    _, crank = normalization_check(hb)
    if crank != 12:
        return None
    return residual_family(hb)


def plane_points(p: int) -> np.ndarray:
    """All p*p + p + 1 points of the projective plane, one canonical
    representative each, in the fixed chart order (1,y,z), (0,1,z), (0,0,1)."""
    ys, zs = np.meshgrid(np.arange(p), np.arange(p), indexing="ij")
    chart2 = np.column_stack([
        np.ones(p * p, dtype=np.int64), ys.reshape(-1), zs.reshape(-1)])
    chart1 = np.column_stack([
        np.zeros(p, dtype=np.int64), np.ones(p, dtype=np.int64), np.arange(p)])
    chart0 = np.array([[0, 0, 1]], dtype=np.int64)
    return np.vstack([chart2, chart1, chart0])


_SCAN_CHUNK = 1 << 17


def _poly_zero_mask(f: GradedPoly, pts: np.ndarray) -> np.ndarray:
    """Where f vanishes, evaluated in chunks to bound the scan's memory."""
    out = np.empty(pts.shape[0], dtype=bool)
    for start in range(0, pts.shape[0], _SCAN_CHUNK):
        block = pts[start:start + _SCAN_CHUNK]
        rows = _veronese_rows(f.ctx, block, f.degree)
        vals = matmul_mod(rows, f.coeffs[:, None], f.ctx.p)[:, 0]
        out[start:start + _SCAN_CHUNK] = vals == 0
    return out


def recover_residual_points(Q: GradedPoly, quintics, A: PointSet,
                            expected: int = 14,
                            scan_limit: int = SCAN_LIMIT) -> list[tuple[int, int, int]]:
    """Best-effort scan for the rational points of the second decomposition.

    Enumerates the whole projective plane, keeps the common zeros of the
    quartic and all four quintics, and drops the points of A.  May
    return fewer than `expected` points: residual points need not be
    rational, and the count found is reported, never padded.
    """
    p = Q.ctx.p
    if p > scan_limit:
        raise ScanBudgetExceeded(
            f"p = {p} exceeds the scan guard {scan_limit}; raise scan_limit to force"
        )
    # restrict to the quartic curve first: ~p points instead of ~p^2
    pts = plane_points(p)
    curve = pts[_poly_zero_mask(Q, pts)]
    mask = np.ones(curve.shape[0], dtype=bool)
    for q in quintics:
        if not mask.any():
            break
        mask &= _poly_zero_mask(q, curve)
    hits = curve[mask]
    akeys = set(A.canonical_keys())
    found = [tuple(int(c) for c in row) for row in hits]
    return [pt for pt in found if pt not in akeys]


_RATIONAL_INNER_TRIES = 80


def _gen_unidentifiable_rational(seed: int, prime: int,
                                 budget: int = DEFAULT_BUDGET) -> GeneratedInstance:
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
    ctx = PrimeContext(prime)
    p = ctx.p
    rng = _rng(seed, 3)
    attempts = 0
    for _outer in range(budget):
        attempts += 1
        ps = _sample_pointset(ctx, rng)
        if ps is None:
            continue
        try:
            fam = _family_or_none(ps)
        except WaringError:
            continue
        if fam is None:
            continue
        Q = fam.base.Q
        pts = plane_points(p)
        on_curve = pts[_poly_zero_mask(Q, pts)]
        akeys = set(ps.canonical_keys())
        candidates = [pt for pt in (tuple(int(c) for c in row) for row in on_curve)
                      if pt not in akeys]
        if len(candidates) < 14:
            continue
        ia8 = np.array(evaluation_matrix(ps, 8).kernel_basis())
        qs3 = list(mult_map(Q, 7).a.T)  # quartic multiples in degree 7
        base_rank = rank_mod(np.array(qs3), p)
        for _inner in range(_RATIONAL_INNER_TRIES):
            attempts += 1
            picked = rng.choice(len(candidates), size=11, replace=False)
            forced = [candidates[i] for i in sorted(picked)]
            septics = evaluation_matrix(
                PointSet(ctx, list(ps.points) + forced), 7).kernel_basis()
            if len(septics) != 11:
                continue
            new_septic = None
            for v in septics:
                if rank_mod(np.array(qs3 + [v]), p) > base_rank:
                    new_septic = v
                    break
            if new_septic is None:
                continue
            S = GradedPoly(ctx, monomial_basis(2, 7), new_septic)
            rest = [pt for pt in candidates if pt not in set(forced)]
            svals = matmul_mod(
                _veronese_rows(ctx, np.array(rest, dtype=np.int64), 7),
                S.coeffs[:, None], p)[:, 0]
            extra = [rest[i] for i in np.nonzero(svals == 0)[0]]
            if len(extra) != 3:
                continue
            bset = PointSet(ctx, forced + extra)
            gens8 = np.array(evaluation_matrix(bset, 8).kernel_basis())
            astar = _parameters_for_points(fam, bset)
            if astar is None:
                continue
            out = _emit_unidentifiable(
                ps, ia8, gens8, seed, attempts,
                {
                    "a": [int(x) for x in astar],
                    "residual_points": [list(pt) for pt in bset.points],
                },
            )
            if out is not None:
                return out
    raise GenerationExhausted(
        f"no split residual set found in {budget} attempts over Z_{prime}"
    )


def _parameters_for_points(fam: ResidualFamily, bset: PointSet) -> np.ndarray | None:
    """The parameter ray whose minors all vanish on the given points.

    Stacks one linear condition per (minor, point) pair; a valid second
    decomposition leaves exactly a one-dimensional kernel.
    """
    p = bset.ctx.p
    v5 = evaluation_matrix(bset, 5).a  # 14 x 21
    rows = []
    for pm in fam.param_minors:
        rows.append(matmul_mod(v5, pm.mat, p))
    system = np.vstack(rows)  # 56 x 12
    kern = kernel_mod(system, p)
    if len(kern) != 1:
        return None
    return normalize_projective(kern[0], p)
