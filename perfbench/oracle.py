"""Expected verdicts computed without the library, in plain Python integers.

The benchmark checks the library's verdicts on random low-rank point sets
against these.  Ranks are recomputed by Gaussian elimination over Z_p on
lists of ints, Kruskal ranks by subset enumeration, and the criteria's
hypotheses are restated from the paper's theorems (range, ranger and the
reshaped Kruskal bound for plane sets, the MO bound in any dimension).
Nothing here imports waringcert.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb

IDENTIFIABLE = "identifiable"
COMPUTES_RANK = "computes_rank"
INCONCLUSIVE = "inconclusive"
DEGENERATE = "degenerate"


def exponents(n: int, d: int) -> list[tuple[int, ...]]:
    """All exponent tuples of total degree d in n+1 variables."""
    if n == 0:
        return [(d,)]
    return [(e,) + rest for e in range(d, -1, -1) for rest in exponents(n - 1, d - e)]


def veronese_rows(points, d: int, p: int) -> list[list[int]]:
    exps = exponents(len(points[0]) - 1, d)
    rows = []
    for pt in points:
        row = []
        for e in exps:
            v = 1
            for x, k in zip(pt, e):
                v = v * pow(x, k, p) % p
            row.append(v)
        rows.append(row)
    return rows


def rank_mod(rows, p: int) -> int:
    m = [list(r) for r in rows]
    if not m:
        return 0
    r = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(r, len(m)) if m[i][c] % p), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], p - 2, p)
        prow = [x * inv % p for x in m[r]]
        for i in range(r + 1, len(m)):
            f = m[i][c] % p
            if f:
                m[i] = [(a - f * b) % p for a, b in zip(m[i], prow)]
        r += 1
        if r == len(m):
            break
    return r


def kruskal_rank(rows, p: int) -> int:
    """Largest k with every k-subset of rows independent."""
    for k in range(min(len(rows[0]), len(rows)), 0, -1):
        if all(rank_mod([rows[i] for i in sub], p) == k
               for sub in combinations(range(len(rows)), k)):
            return k
    return 0


def splits(d: int) -> list[tuple[int, int, int]]:
    return [(a, b, d - a - b) for a in range(1, d) for b in range(1, a + 1)
            if 1 <= d - a - b <= b]


class PointFacts:
    """Hilbert values, Kruskal ranks and Cayley-Bacharach answers of one
    point set, each computed on first use."""

    def __init__(self, points, p: int):
        self.points = [tuple(int(c) % p for c in pt) for pt in points]
        self.p = p
        self.n = len(self.points[0]) - 1
        self._rows: dict[int, list] = {}
        self._h: dict[int, int] = {}
        self._k: dict[int, int] = {}

    def rows(self, j: int):
        if j not in self._rows:
            self._rows[j] = veronese_rows(self.points, j, self.p)
        return self._rows[j]

    def h(self, j: int) -> int:
        if j not in self._h:
            self._h[j] = rank_mod(self.rows(j), self.p)
        return self._h[j]

    def k(self, j: int) -> int:
        if j not in self._k:
            self._k[j] = kruskal_rank(self.rows(j), self.p)
        return self._k[j]

    def k_cap(self, j: int) -> int:
        """min(C(n+j, n), ell): the most k_j can be."""
        return min(comb(self.n + j, self.n), len(self.points))

    def cb(self, j: int) -> bool:
        rows, h = self.rows(j), self.h(j)
        return all(rank_mod(rows[:i] + rows[i + 1:], self.p) == h
                   for i in range(len(rows)))


def expected_verdict(facts: PointFacts, d: int) -> tuple[str, int | None]:
    """(verdict, rank) that run_criteria (plane) or mo_certify (n >= 3)
    must reach for the form sum lambda_i v_d(P_i) with nonzero lambda."""
    r = len(facts.points)
    if facts.h(d) != r:
        return DEGENERATE, None
    if facts.n == 2:
        return _expected_plane(facts, d, r)
    return _expected_mo(facts, d, r)


def _expected_plane(facts: PointFacts, d: int, r: int):
    m = d // 2
    c = comb(m + 2, 2)
    if d % 2 == 0:
        range_ok = (r <= c - 2 and facts.k(m - 1) == min(comb(m + 1, 2), r)
                    and facts.h(m) == r)
        ranger_ok = r <= c and facts.h(m) == r
    else:
        range_ok = (r <= c + m // 2 and facts.k(m) == min(c, r)
                    and facts.h(m + 1) == r)
        ranger_ok = (r <= c + (m + 1) // 2 and facts.k(m) == min(c, r)
                     and facts.h(m + 1) == r)
    if range_ok:
        return IDENTIFIABLE, r
    for split in splits(d):
        # skip splits whose bound fails even at the largest Kruskal ranks
        if 2 * r > sum(facts.k_cap(j) for j in split) - 2:
            continue
        if 2 * r <= sum(facts.k(j) for j in split) - 2:
            return IDENTIFIABLE, r
    if ranger_ok:
        return COMPUTES_RANK, r
    return INCONCLUSIVE, None


def _expected_mo(facts: PointFacts, d: int, r: int):
    n, m = facts.n, d // 2
    if facts.h(1) != min(n + 1, r):
        return DEGENERATE, None
    bound = min(Fraction(n - 1, 2), Fraction(m - 1, 2))
    ok = r - facts.h(m - 1) <= bound
    if ok and d % 2 == 1:
        ok = facts.k(m) == r
    return (IDENTIFIABLE, r) if ok else (INCONCLUSIVE, None)
