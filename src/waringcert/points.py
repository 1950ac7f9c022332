"""Finite point sets in projective space and their linear invariants.

The Hilbert function of a point set Z in degree j is the rank of the
evaluation matrix whose rows are the degree-j monomial vectors of the
points; its kernel is the degree-j piece of the ideal of Z.  On top of
that single primitive this module computes first differences, the h^1
defect ell(Z) - h_Z(d), Kruskal ranks (at the column count by one sweep
over maximal minors, below it by subset enumeration), the
Cayley-Bacharach predicate in a given degree, and dimensions of
intersections of Veronese spans.

Two coordinate tuples are the same projective point iff their
canonical representatives (first nonzero coordinate scaled to 1) agree;
projectively_equal decides the same by the 2x2 minors of the pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, islice
from math import comb

import numpy as np

from .errors import DuplicatePoint, ZeroPoint
from .ffield import (DenseMatrix, PrimeContext, _kernel_from_echelon, kernel_mod,
                     rank_mod, row_echelon)
from .polys import _veronese_rows


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
    and the order is meaningful for reporting.  Evaluation matrices,
    Kruskal ranks and failed Kruskal floors are cached per degree since
    the value is immutable.
    """

    __slots__ = ("ctx", "n", "points", "_ev_cache", "_kruskal_cache",
                 "_kruskal_failures")

    def __init__(self, ctx: PrimeContext, points):
        pts = [tuple(int(c) % ctx.p for c in row) for row in points]
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
        object.__setattr__(self, "_kruskal_cache", {})
        object.__setattr__(self, "_kruskal_failures", {})

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

    def subset(self, indices) -> "PointSet":
        return PointSet(self.ctx, [self.points[i] for i in indices])

    def union(self, other: "PointSet") -> "PointSet":
        """Union keeping self's order, then the new points of other."""
        if other.ctx != self.ctx or other.n != self.n:
            raise ValueError("point sets live in different spaces")
        mine = set(self.canonical_keys())
        extra = [q for q, key in zip(other.points, other.canonical_keys())
                 if key not in mine]
        return PointSet(self.ctx, list(self.points) + extra)

    def intersection_size(self, other: "PointSet") -> int:
        mine = set(self.canonical_keys())
        return sum(1 for key in other.canonical_keys() if key in mine)

    def __repr__(self):
        return f"PointSet({len(self)} points in P^{self.n} over Z_{self.ctx.p})"


@dataclass(frozen=True)
class HilbertProfile:
    """Hilbert function values h_Z(0..j_max), first differences, and ell(Z)."""

    values: tuple[int, ...]
    differences: tuple[int, ...]
    length: int

    def h(self, j: int) -> int:
        if j < 0:
            return 0
        if j >= len(self.values):
            raise IndexError(f"profile only covers degrees up to {len(self.values) - 1}")
        return self.values[j]

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
    """Canonical basis of the degree-d piece of the ideal of Z."""
    return evaluation_matrix(Z, d).kernel_basis()


def hilbert_profile(Z: PointSet, j_max: int) -> HilbertProfile:
    """h_Z and its first difference on 0..j_max, with h_Z(-1) = 0.

    Once h_Z(j) = ell(Z) it stays there, so higher degrees are not
    ranked.  Over a small field every form of degree 1 may vanish on some
    point of Z, but ranks do not change under field extension, where the
    usual argument (multiply by a form missing Z) applies.
    """
    if j_max < 0:
        raise ValueError("j_max must be >= 0")
    values = []
    for j in range(j_max + 1):
        values.append(len(Z) if values and values[-1] == len(Z)
                      else evaluation_matrix(Z, j).rank())
    diffs = [values[0]] + [values[j] - values[j - 1] for j in range(1, j_max + 1)]
    return HilbertProfile(tuple(values), tuple(diffs), len(Z))


def h1_defect(Z: PointSet, d: int) -> int:
    """ell(Z) - h_Z(d); positive iff the points impose dependent
    conditions on degree-d forms."""
    return len(Z) - evaluation_matrix(Z, d).rank()


# Subsets are tested in chunks whose index array and stacked matrices
# each hold at most this many int64 entries; larger chunks were no
# faster and grow the peak memory of a check.
_SUBSET_CHUNK_ENTRIES = 2**13


# The k = columns sweep runs while its index tables hold at most this
# many int64 entries (the minor count times the minor size); above it
# the subsets are ranked in chunks like any other size.
_SWEEP_ENTRIES = 2**16


@lru_cache(maxsize=32)
def _laplace_level(ell: int, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Index tables of level t of the minor sweep over ell columns: the
    t-subsets in combinations() order, and for each subset and position s
    the combinations() index of the subset without its s-th member."""
    subs = np.array(list(combinations(range(ell), t)), dtype=np.int64).reshape(-1, t)
    # lex index of a (t-1)-subset: C(ell, t-1) - 1 - the colex index of
    # its mirror image ell - 1 - a, read in ascending order
    binom = np.array([[comb(n, i) for i in range(1, t)] for n in range(ell)],
                     dtype=np.int64).reshape(ell, t - 1)
    below = np.empty_like(subs)
    for s in range(t):
        mirror = ell - 1 - np.delete(subs, s, axis=1)[:, ::-1]
        below[:, s] = comb(ell, t - 1) - 1 - binom[mirror, np.arange(t - 1)].sum(axis=1)
    subs.setflags(write=False)
    below.setflags(write=False)
    return subs, below


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


def kruskal_rank(Z: PointSet, d: int) -> int:
    """Largest k such that every k-subset of the degree-d Veronese images
    is linearly independent.

    Searches downward from min(C(n+d, n), ell): generic sets pass the
    first candidate, and once all k-subsets are independent every smaller
    subset is too.
    """
    return kruskal_rank_detail(Z, d)[0]


def kruskal_rank_detail(Z: PointSet, d: int) -> tuple[int, int]:
    """(kruskal rank, number of subsets examined)."""
    cached = Z._kruskal_cache.get(d)
    if cached is not None:
        return cached
    mat = evaluation_matrix(Z, d).a
    p = Z.ctx.p
    kmax = min(mat.shape[1], len(Z))
    examined = 0
    result = None
    for k in range(kmax, 0, -1):
        n_checked, witness = _first_dependent_subset(mat, p, k)
        examined += n_checked
        if witness is None:
            result = (k, examined)
            break
    if result is None:
        result = (0, examined)
    Z._kruskal_cache[d] = result
    return result


def kruskal_rank_at_least(Z: PointSet, d: int, k: int) -> bool:
    """Fast gate for k_d(Z) >= k: stops at the first dependent subset
    instead of descending to the exact rank.

    A pass at the cap min(C(n+d, n), ell) proves the exact rank and is
    cached as such; a failure is remembered apart from exact ranks (see
    kruskal_failure), so asking again eliminates nothing.
    """
    cached = Z._kruskal_cache.get(d)
    if cached is not None:
        return cached[0] >= k
    failed = Z._kruskal_failures.get(d)
    if failed is not None and failed[0] <= k:
        return False
    mat = evaluation_matrix(Z, d).a
    kmax = min(mat.shape[1], len(Z))
    if k > kmax:
        return False
    examined, witness = _first_dependent_subset(mat, Z.ctx.p, k)
    if witness is not None:
        Z._kruskal_failures[d] = (k, examined, witness)
        return False
    if k == kmax:
        # the gate already proved the maximum, so remember it
        Z._kruskal_cache[d] = (k, examined)
    return True


def kruskal_failure(Z: PointSet, d: int) -> tuple[int, int, tuple[int, ...]] | None:
    """The lowest floor f at which kruskal_rank_at_least(Z, d, f) failed,
    the subsets it examined and the dependent f-subset that ended it, or
    None when no floor has failed."""
    return Z._kruskal_failures.get(d)


def cb_check(Z: PointSet, d: int) -> bool:
    """Cayley-Bacharach in degree d: every degree-d form through all but
    one point also passes through the omitted point, whichever it is.

    Equivalently h_{Z minus P}(d) == h_Z(d) for every P, which holds iff
    some linear dependency among the rows of ev(Z, d) involves P: so iff
    no column of a basis of the left kernel is zero.
    """
    if len(Z) < 2:
        raise ValueError("Cayley-Bacharach needs at least two points")
    deps = kernel_mod(evaluation_matrix(Z, d).a.T, Z.ctx.p)
    # independent rows (h = ell) have no dependency and fail
    return bool(deps) and bool(np.all(np.any(np.array(deps) != 0, axis=0)))


def span_intersection_dim(A: PointSet, B: PointSet, d: int) -> int:
    """Projective dimension of the intersection of the two Veronese spans,
    computed directly from three evaluation ranks (-1 means empty).

    Grassmann on the spans: dim(span A) + dim(span B) - dim(span A + span B),
    where the dimension of the joint span is h_{A union B}(d) - 1.
    """
    if A.ctx != B.ctx or A.n != B.n:
        raise ValueError("point sets live in different spaces")
    hA = evaluation_matrix(A, d).rank()
    hB = evaluation_matrix(B, d).rank()
    hU = evaluation_matrix(A.union(B), d).rank()
    return (hA - 1) + (hB - 1) - (hU - 1)


def cap_formula_dim(A: PointSet, B: PointSet, d: int) -> int:
    """The closed-form side of the same dimension:
    ell(A intersect B) - 1 + h^1_{A union B}(d)."""
    if A.ctx != B.ctx or A.n != B.n:
        raise ValueError("point sets live in different spaces")
    return A.intersection_size(B) - 1 + h1_defect(A.union(B), d)
