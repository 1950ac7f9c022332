"""Finite point sets in projective space and their linear invariants.

The Hilbert function of a point set Z in degree j is the rank of the
evaluation matrix ev(Z, j) of the degree-j monomial vectors of the
points; its kernel is the degree-j piece of the ideal of Z.  The first
C(j+n, n) columns of ev(Z, D) are ev(Z, j) up to row scaling by
x0^(D-j) (monomials lex-descending), so one elimination gives h_Z(0..D);
hilbert_profile shears where x0 meets Z.  hilbert_value reads h_Z(j)
from an int memo on Z that hilbert_profile, cb_check and passing Kruskal
levels of size ell feed.  Where x0 vanishes at no point, it reduces
ev(Z, d0), d0 the least d with ell <= C(d+n, n), as [ev(Z, d0) | I] and
keeps the right block, the row transform G: G * ev(Z, d0) is the RREF,
so once h_Z(d0) = ell, RREF(ev(Z, d)) past d0 is G * diag(x0^(d0-d)) *
ev(Z, d), whose first C(d0+n, n) columns are reduced already.  Also
here: first differences, the h^1 defect ell(Z) - h_Z(d), Kruskal ranks,
the Cayley-Bacharach predicate, and intersection dimensions of Veronese
spans.  kruskal_level alone decides a Kruskal level, memoised per degree
and subset size (at the column count by one sweep over maximal minors
on the Laplace tables of polys, below it by subset enumeration); the
gate at k reads level k, and the one descent runs from kruskal_cap, the
one definition of min(C(n+d, n), ell), down to a floor.

Two coordinate tuples are the same projective point iff their
canonical representatives (first nonzero coordinate scaled to 1) agree;
projectively_equal decides the same by the 2x2 minors of the pair.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, combinations, count, islice
from math import comb

import numpy as np

from .errors import DuplicatePoint, ZeroPoint
from .ffield import (DenseMatrix, PrimeContext, _kernel_from_echelon, kernel_mod,
                     matmul_mod, rank_mod, row_echelon)
from .polys import _laplace_level, _veronese_rows

# Largest evaluation matrix an instance may ask for: ell * C(n+d, n)
# entries, 2**18 of them or 2 MiB of int64.  Every criterion starts from
# this matrix, so parse_instance and the kruskal command check the bound
# before any monomial basis is built.  The shipped fixtures need 630
# entries.  hilbert_profile takes it as its largest j_max as well.
MAX_EVALUATION_ENTRIES = 2**18


def projectively_equal(u, v, p: int) -> bool:
    """True when the two nonzero tuples agree up to a scalar, decided by
    the vanishing of every 2x2 minor of the stacked pair."""
    a = [int(c) % p for c in u]
    b = [int(c) % p for c in v]
    m = len(a)
    for i in range(m):
        for j in range(i + 1, m):
            if (a[i] * b[j] - a[j] * b[i]) % p != 0:
                return False
    return True


def _canonical_point(pt: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Representative scaled so the first nonzero coordinate is 1."""
    for i, c in enumerate(pt):
        if c != 0:
            inv = pow(c, p - 2, p)
            return tuple(x * inv % p for x in pt)
    raise ZeroPoint("zero tuple has no projective representative")


class PointSet:
    """An ordered list of pairwise distinct projective points.

    Coordinate representatives are fixed at construction (reduced mod p)
    and the order is meaningful for reporting.  Floats, complex numbers
    and bools are refused with TypeError.  Evaluation matrices, Hilbert
    values, Kruskal levels and, in _memo, the chart, row transform and
    octic14 point stages are memoised on the object, as it is immutable.
    """

    __slots__ = ("ctx", "n", "points", "_ev_cache", "_hilbert", "_kruskal_levels", "_memo")

    def __init__(self, ctx: PrimeContext, points):
        def residue(c):  # operator.index refuses floats and numpy bools
            if isinstance(c, bool):
                raise TypeError(f"coordinate {c!r} is a bool, not an integer")
            return operator.index(c) % ctx.p
        pts = [tuple(map(residue, row)) for row in points]
        if not pts:
            raise ValueError("a point set needs at least one point")
        n = len(pts[0]) - 1
        if n < 1 or any(len(q) != n + 1 for q in pts):
            raise ValueError("all points need the same n+1 coordinates, n >= 1")
        for i, q in enumerate(pts):
            if not any(q):
                raise ZeroPoint(f"point {i} is the zero tuple")
        first: dict[tuple[int, ...], int] = {}
        for j, q in enumerate(pts):
            i = first.setdefault(_canonical_point(q, ctx.p), j)
            if i != j:
                raise DuplicatePoint(f"points {i} and {j} are projectively equal")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "points", tuple(pts))
        object.__setattr__(self, "_ev_cache", {})
        object.__setattr__(self, "_hilbert", {})
        object.__setattr__(self, "_kruskal_levels", {})
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, *_):
        raise AttributeError("PointSet is immutable")

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def coords_array(self) -> np.ndarray:
        return np.array(self.points, dtype=np.int64)

    def canonical_keys(self) -> list[tuple[int, ...]]:
        return [_canonical_point(q, self.ctx.p) for q in self.points]

    def union(self, other: "PointSet") -> "PointSet":
        """Union keeping self's order, then the new points of other."""
        if other.ctx != self.ctx or other.n != self.n:
            raise ValueError("point sets live in different spaces")
        mine = set(self.canonical_keys())
        extra = [q for q, key in zip(other.points, other.canonical_keys())
                 if key not in mine]
        return PointSet(self.ctx, list(self.points) + extra)

    def __repr__(self):
        return f"PointSet({len(self)} points in P^{self.n} over Z_{self.ctx.p})"


@dataclass(frozen=True)
class HilbertProfile:
    """Hilbert function values h_Z(0..j_max) and their first differences."""

    values: tuple[int, ...]
    differences: tuple[int, ...]

    def dh(self, j: int) -> int:
        if j < 0:
            return 0
        return self.differences[j]


def evaluation_matrix(Z: PointSet, d: int) -> DenseMatrix:
    """ell(Z) x C(n+d, n) matrix whose row i is the degree-d monomial
    vector of point i.  Its kernel is the degree-d ideal piece of Z."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    cached = Z._ev_cache.get(d)
    if cached is None:
        cached = DenseMatrix(Z.ctx, _veronese_rows(Z.ctx, Z.coords_array(), d))
        Z._ev_cache[d] = cached
    return cached


def ideal_piece(Z: PointSet, d: int) -> list[np.ndarray]:
    """Canonical basis of the degree-d piece of the ideal of Z; past d0, once
    h_Z(d0) = ell, from the row transform G instead of an elimination."""
    ev = evaluation_matrix(Z, d)
    d0, G, piv = Z._memo.get("transform", (d, None, ()))
    if ev._echelon is None and d > d0 and len(piv) == len(Z):
        scale = [pow(q[0], d0 - d, Z.ctx.p) for q in Z.points]
        ev._reduced((matmul_mod(G * scale % Z.ctx.p, ev.a, Z.ctx.p), piv))
    return ev.kernel_basis()


def _chart(Z: PointSet) -> tuple[int, np.ndarray] | None:
    """(t, coordinates of Z with x0 replaced by L_t = x0 + t*x1 + ... +
    t^n*xn) for the least t at which L_t vanishes at no point, or None
    if none does (a point is a root of at most n of the L_t); memoised."""
    if "chart" not in Z._memo:
        a, p, chart = Z.coords_array(), Z.ctx.p, None
        for t in range(min(p, Z.n * len(Z) + 1)):
            lead = matmul_mod(a, np.array([pow(t, k, p) for k in range(Z.n + 1)]), p)
            if lead.all():
                a[:, 0] = lead
                chart = t, a
                break
        Z._memo["chart"] = chart
    return Z._memo["chart"]


def _reached_ell(Z: PointSet, j: int) -> bool:
    """Whether the memo has h_Z(i) = ell at some i <= j, so h_Z(j) = ell, as h_Z
    never drops or passes ell; read off a copy, as other threads may add."""
    return len(Z) in [h for i, h in Z._hilbert.copy().items() if i <= j]


def hilbert_value(Z: PointSet, j: int) -> int:
    """h_Z(j): from the memo on Z, else ell from a lower degree at ell, else
    the rank of ev(Z, j), keeping G at d0; the memo keeps the answer."""
    if j not in Z._hilbert and _reached_ell(Z, j):
        Z._hilbert[j] = len(Z)
    elif j not in Z._hilbert:
        ev = evaluation_matrix(Z, j)
        # at d0, the least j with ell <= C(j+n, n); a scan, as a check builds no chart
        if (ev._echelon is None and comb(j + Z.n - 1, Z.n) < len(Z) <= ev.cols
                and all(q[0] for q in Z.points)):
            r, piv = row_echelon(np.hstack([ev.a, np.eye(len(Z), dtype=np.int64)]), Z.ctx.p)
            ev._reduced((r[:, :ev.cols], piv := tuple(piv[:bisect_left(piv, ev.cols)])))
            Z._memo["transform"] = j, r[:, ev.cols:], piv
        Z._hilbert[j] = ev.rank()
    return Z._hilbert[j]


def hilbert_profile(Z: PointSet, j_max: int) -> HilbertProfile:
    """h_Z and its first difference on 0..j_max, with h_Z(-1) = 0.

    h_Z(j) is the number of pivots of ev(Z, D), in the chart of
    _chart(Z), below column C(j+n, n) for j <= D: the RREF of a column
    prefix is the prefix of the RREF, and neither row scaling nor the
    shear changes a rank.  A chart exists whenever n*ell < p; without
    one each degree is read by hilbert_value.  D starts at the least d
    with C(d+n, n) >= ell, or past every degree the memo has below ell, or
    at j_max if lower, and doubles up to j_max until h_Z(D) = ell, which
    then holds in every higher degree, over any field.  Only the first
    ev(Z, D) is memoised on Z, and only when unsheared; the Hilbert memo
    keeps h_Z up to its first degree at ell.
    """
    if not 0 <= j_max <= MAX_EVALUATION_ENTRIES:
        raise ValueError(f"j_max must be in 0..{MAX_EVALUATION_ENTRIES}")
    ell, n, chart = len(Z), Z.n, _chart(Z)
    if chart is None:
        values = []
        for j in range(j_max + 1):
            values.append(ell if values and values[-1] == ell else hilbert_value(Z, j))
    else:
        t, a = chart
        below = [j + 1 for j, h in Z._hilbert.copy().items() if h < ell]
        D = min(j_max, max([next(d for d in count() if comb(d + n, n) >= ell), *below]))
        ev = (evaluation_matrix(Z, D) if t == 0
              else DenseMatrix(Z.ctx, _veronese_rows(Z.ctx, a, D)))
        while len(piv := ev._reduced()[1]) < ell and D < j_max:
            D = min(2 * D, j_max)
            ev = DenseMatrix(Z.ctx, _veronese_rows(Z.ctx, a, D))
        values = [bisect_left(piv, comb(j + n, n)) if j <= D else ell
                  for j in range(j_max + 1)]
    Z._hilbert.update(enumerate(values[:bisect_left(values, ell) + 1]))
    diffs = [values[0]] + [values[j] - values[j - 1] for j in range(1, j_max + 1)]
    return HilbertProfile(tuple(values), tuple(diffs))


def h1_defect(Z: PointSet, d: int) -> int:
    """ell(Z) - h_Z(d); positive iff the points impose dependent
    conditions on degree-d forms."""
    return len(Z) - hilbert_value(Z, d)


# Subsets are tested in chunks whose index array and stacked matrices
# each hold at most this many int64 entries; larger chunks were no
# faster and grow the peak memory of a check.
_SUBSET_CHUNK_ENTRIES = 2**13


# The k = columns sweep runs while its index tables hold at most this
# many int64 entries (the minor count times the minor size); above it
# the subsets are ranked in chunks like any other size.
_SWEEP_ENTRIES = 2**16


def _maximal_minors_mod(a: np.ndarray, p: int) -> np.ndarray:
    """The r x r minors of an r x ell matrix over Z_p, one per column
    subset in combinations() order: the numeric twin of
    polys.maximal_minors.  Level t holds the minors of the bottom t rows,
    each expanded along its top row; the products are reduced before the
    signed sum of at most r residues, so it is exact for every p < 2**31."""
    minors = np.ones(1, dtype=np.int64)
    for t in range(1, len(a) + 1):
        subs, below = _laplace_level(a.shape[1], t)
        prod = a[len(a) - t][subs] * minors[below] % p
        minors = (prod[:, 0::2].sum(axis=1) - prod[:, 1::2].sum(axis=1)) % p
    return minors


def _first_dependent_subset(mat: np.ndarray, p: int, k: int):
    """(subsets examined, first dependent k-subset of rows or None).

    Subsets run in combinations() order; every subset is examined on
    success, and up to and including the first dependent one on failure.
    At k = c columns all subsets are decided at once by one sweep over
    maximal minors.  A c-subset S is independent iff the c x c minor of
    the echelon form of mat^T on S is nonzero, and by matroid duality
    (Oxley, section 2.2) iff the minor of a left-kernel basis K on the
    complement of S is nonzero.  The sweep takes whichever of the two has
    fewer rows; complementing reverses combinations() order, so the first
    dependent S is the complement of the last zero minor of K.
    """
    ell, c = mat.shape
    if k == c:
        rref, basis = row_echelon(mat.T, p)
        if len(basis) < c:
            return 1, tuple(range(k))
        total = comb(ell, c)
        if total * min(c, ell - c) <= _SWEEP_ENTRIES:
            dual = 2 * c > ell
            rows = (np.array(_kernel_from_echelon(rref, basis, p)).reshape(ell - c, ell)
                    if dual else rref)
            zero = np.flatnonzero(_maximal_minors_mod(rows, p) == 0)
            if not zero.size:
                return total, None
            top = _laplace_level(ell, len(rows))[0]
            if dual:
                subset = np.setdiff1d(np.arange(ell), top[zero[-1]])
                return total - int(zero[-1]), tuple(int(i) for i in subset)
            return int(zero[0]) + 1, tuple(int(i) for i in top[zero[0]])
    subs = combinations(range(ell), k)
    per_chunk = max(1, _SUBSET_CHUNK_ENTRIES // (k * c))
    examined = 0
    while True:
        chunk = np.fromiter(chain.from_iterable(islice(subs, per_chunk)),
                            dtype=np.int64).reshape(-1, k)
        if not chunk.size:
            return examined, None
        hits = np.flatnonzero(rank_mod(mat[chunk], p) != k)
        if hits.size:
            return examined + int(hits[0]) + 1, tuple(int(i) for i in chunk[hits[0]])
        examined += len(chunk)


def kruskal_cap(Z: PointSet, d: int) -> int:
    """min(C(n+d, n), ell): no larger subset of ell points in C(n+d, n)
    coordinates can be independent."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    return min(comb(Z.n + d, Z.n), len(Z))


def kruskal_level(Z: PointSet, d: int, k: int) -> tuple[int, tuple[int, ...] | None]:
    """(k-subsets examined, first dependent k-subset or None) for the
    degree-d Veronese images of Z, for 1 <= k <= min(C(n+d, n), ell).

    The record is memoised on Z per (d, k), so every Kruskal query that
    reads it again eliminates nothing.  A passing level of size ell
    records h_Z(d) = ell, but no level reads the Hilbert memo.
    """
    record = Z._kruskal_levels.get((d, k))
    if record is None:
        cap = kruskal_cap(Z, d)
        if not 1 <= k <= cap:
            raise ValueError(f"subset size {k} is outside 1..{cap}")
        record = _first_dependent_subset(evaluation_matrix(Z, d).a, Z.ctx.p, k)
        Z._kruskal_levels[(d, k)] = record
        if k == len(Z) and record[1] is None:
            Z._hilbert[d] = k
    return record


def kruskal_rank(Z: PointSet, d: int) -> int:
    """Largest k such that every k-subset of the degree-d Veronese images
    is linearly independent."""
    return kruskal_rank_detail(Z, d)[0]


def kruskal_rank_detail(Z: PointSet, d: int, floor: int = 1) -> tuple[int, int]:
    """(kruskal rank, subsets examined over its levels), or (0, examined)
    once every level from the cap down to floor has failed.

    Searches downward from the cap: generic sets pass the first level,
    and once all k-subsets are independent every smaller subset is too.
    """
    examined = 0
    for k in range(kruskal_cap(Z, d), max(floor, 1) - 1, -1):
        n_checked, witness = kruskal_level(Z, d, k)
        examined += n_checked
        if witness is None:
            return k, examined
    return 0, examined


def kruskal_rank_at_least(Z: PointSet, d: int, k: int) -> bool:
    """Gate for k_d(Z) >= k, which holds iff every k-subset is
    independent: level k's own record, or True for every k <= 0."""
    return k <= 0 or (k <= kruskal_cap(Z, d) and kruskal_level(Z, d, k)[1] is None)


def cb_check(Z: PointSet, d: int) -> bool:
    """Cayley-Bacharach in degree d: every degree-d form through all but
    one point also passes through the omitted point, whichever it is.

    Equivalently h_{Z minus P}(d) == h_Z(d) for every P, which holds iff
    some linear dependency among the rows of ev(Z, d) involves P: so iff
    no column of a basis of the left kernel is zero.  Independent rows
    (h_Z(d) = ell, perhaps known to the memo) have no dependency and fail.
    At d <= d0 the rows of G past h_Z(d) are a basis once column i is
    scaled by x0_i^(d0-d), which zeroes no column.
    """
    if len(Z) < 2:
        raise ValueError("Cayley-Bacharach needs at least two points")
    if _reached_ell(Z, d):
        return False
    d0, G, piv = Z._memo.get("transform", (-1, None, ()))
    deps = (G[bisect_left(piv, comb(d + Z.n, Z.n)):] if d <= d0
            else np.array(kernel_mod(evaluation_matrix(Z, d).a.T, Z.ctx.p)))
    Z._hilbert[d] = len(Z) - len(deps)
    return bool(len(deps)) and bool(np.all(np.any(deps != 0, axis=0)))


def span_intersection_dim(A: PointSet, B: PointSet, d: int) -> int:
    """Projective dimension of the intersection of the two Veronese spans,
    computed directly from three evaluation ranks (-1 means empty).

    Grassmann on the spans: dim(span A) + dim(span B) - dim(span A + span B),
    where the dimension of the joint span is h_{A union B}(d) - 1.
    """
    return hilbert_value(A, d) + hilbert_value(B, d) - hilbert_value(A.union(B), d) - 1

