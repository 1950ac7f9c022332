"""Homogeneous polynomial algebra in a fixed graded-lex monomial order.

A degree-d form in n+1 variables is a coefficient vector over the
monomial basis of MonomialBasis(n, d); the basis lists exponent tuples
in lexicographically decreasing order with x0 > x1 > ... > xn, so every
matrix built here is deterministic across runs.

The pairing convention is plain monomial evaluation with no multinomial
weights: dot(F.coeffs, veronese_vector(P, d)) == F(P) for every form F
of degree d.  Everything downstream (evaluation matrices, ideal pieces,
orthogonality of a form to an ideal) relies on exactly this contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from .errors import (
    DegreeMismatch,
    InhomogeneousDeterminant,
    ZeroPoint,
)
from .ffield import DenseMatrix, PrimeContext, as_residues, matmul_mod


@dataclass(frozen=True)
class MonomialBasis:
    """All exponent tuples of total degree d in n+1 variables, lex-descending."""

    n: int
    d: int
    exponents: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.exponents)

    def index_of(self, exps: tuple[int, ...]) -> int:
        return _exponent_index(self.n, self.d)[exps]


# Bases are cached per (n, d); the bound keeps a long run over many
# shapes from holding every basis it ever built.
_BASIS_CACHE_SIZE = 128


@lru_cache(maxsize=_BASIS_CACHE_SIZE)
def monomial_basis(n: int, d: int) -> MonomialBasis:
    if n < 1 or d < 0:
        raise ValueError(f"need n >= 1 and d >= 0, got n={n}, d={d}")

    def gen(nvars, total):
        if nvars == 1:
            yield (total,)
            return
        for e in range(total, -1, -1):
            for rest in gen(nvars - 1, total - e):
                yield (e,) + rest

    exps = tuple(gen(n + 1, d))
    if len(exps) != comb(n + d, n):
        raise RuntimeError(f"monomial basis has {len(exps)} exponents, "
                           f"expected C({n + d}, {n})")
    return MonomialBasis(n, d, exps)


@lru_cache(maxsize=_BASIS_CACHE_SIZE)
def _exponent_index(n: int, d: int) -> dict[tuple[int, ...], int]:
    return {e: i for i, e in enumerate(monomial_basis(n, d).exponents)}


@lru_cache(maxsize=_BASIS_CACHE_SIZE)
def _exponent_array(n: int, d: int) -> np.ndarray:
    a = np.array(monomial_basis(n, d).exponents, dtype=np.int64)
    a.setflags(write=False)
    return a


def veronese_vector(ctx: PrimeContext, point, d: int) -> np.ndarray:
    """Vector of all degree-d monomials evaluated at the point.

    Plain monomial evaluation: entry for exponent e is prod(P_i ** e_i).
    """
    pt = as_residues(point, ctx.p).reshape(-1)
    if not np.any(pt):
        raise ZeroPoint("cannot evaluate monomials at the zero tuple")
    return _veronese_rows(ctx, pt[None, :], d)[0]


def _veronese_rows(ctx: PrimeContext, pts: np.ndarray, d: int) -> np.ndarray:
    """Rows of monomial evaluations for a batch of points (ell x basis size)."""
    p = ctx.p
    n = pts.shape[1] - 1
    exps = _exponent_array(n, d)
    # power[i, c, k] = pts[i, c] ** k mod p
    power = np.ones((pts.shape[0], n + 1, d + 1), dtype=np.int64)
    for k in range(1, d + 1):
        power[:, :, k] = power[:, :, k - 1] * pts % p
    out = np.ones((pts.shape[0], exps.shape[0]), dtype=np.int64)
    for c in range(n + 1):
        out = out * power[:, c, exps[:, c]] % p
    return out


class GradedPoly:
    """A homogeneous form as a coefficient vector in the fixed basis."""

    __slots__ = ("ctx", "basis", "coeffs")

    def __init__(self, ctx: PrimeContext, basis: MonomialBasis, coeffs):
        c = as_residues(coeffs, ctx.p).reshape(-1)
        if c.shape[0] != basis.size:
            raise ValueError(
                f"coefficient length {c.shape[0]} != basis size {basis.size}"
            )
        c.setflags(write=False)
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "coeffs", c)

    def __setattr__(self, *_):
        raise AttributeError("GradedPoly is immutable")

    @classmethod
    def zero(cls, ctx: PrimeContext, n: int, d: int) -> "GradedPoly":
        b = monomial_basis(n, d)
        return cls(ctx, b, np.zeros(b.size, dtype=np.int64))

    @classmethod
    def variable(cls, ctx: PrimeContext, n: int, i: int) -> "GradedPoly":
        b = monomial_basis(n, 1)
        c = np.zeros(b.size, dtype=np.int64)
        c[i] = 1
        return cls(ctx, b, c)

    @property
    def n(self) -> int:
        return self.basis.n

    @property
    def degree(self) -> int:
        return self.basis.d

    def is_zero(self) -> bool:
        return not np.any(self.coeffs)

    def __add__(self, other: "GradedPoly") -> "GradedPoly":
        if other.basis is not self.basis:
            raise DegreeMismatch("cannot add forms of different degrees")
        return GradedPoly(self.ctx, self.basis, (self.coeffs + other.coeffs) % self.ctx.p)

    def __sub__(self, other: "GradedPoly") -> "GradedPoly":
        if other.basis is not self.basis:
            raise DegreeMismatch("cannot subtract forms of different degrees")
        return GradedPoly(self.ctx, self.basis, (self.coeffs - other.coeffs) % self.ctx.p)

    def scale(self, c: int) -> "GradedPoly":
        return GradedPoly(self.ctx, self.basis, self.coeffs * (int(c) % self.ctx.p) % self.ctx.p)

    def __mul__(self, other: "GradedPoly") -> "GradedPoly":
        if not isinstance(other, GradedPoly):
            return NotImplemented
        if other.n != self.n:
            raise DegreeMismatch("mixed variable counts")
        d = self.degree + other.degree
        prod = matmul_mod(mult_map(self, d).a, other.coeffs, self.ctx.p)
        return GradedPoly(self.ctx, monomial_basis(self.n, d), prod)

    def eval(self, point) -> int:
        v = veronese_vector(self.ctx, point, self.degree)
        return int((self.coeffs * v % self.ctx.p).sum() % self.ctx.p)

    def __eq__(self, other):
        return (
            isinstance(other, GradedPoly)
            and other.basis is self.basis
            and other.ctx == self.ctx
            and bool(np.all(other.coeffs == self.coeffs))
        )

    def __str__(self):
        names = [f"x{i}" for i in range(self.n + 1)]
        parts = []
        for i in np.nonzero(self.coeffs)[0]:
            c = self.ctx.lift_signed(int(self.coeffs[i]))
            mono = "*".join(
                f"{names[v]}^{e}" if e > 1 else names[v]
                for v, e in enumerate(self.basis.exponents[i])
                if e > 0
            )
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        if not parts:
            return "0"
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"GradedPoly(deg {self.degree}: {self})"


def poly_eval(f: GradedPoly, point) -> int:
    """Exact evaluation, consistent with the veronese pairing contract."""
    return f.eval(point)


@lru_cache(maxsize=_BASIS_CACHE_SIZE)
def product_table(n: int, a: int, b: int) -> np.ndarray:
    """Entry [i, j] is the degree-(a + b) basis position of the product of
    monomial i of degree a and monomial j of degree b.

    Distinct monomials times one fixed monomial stay distinct, so every
    row and every column of the table holds distinct positions.
    """
    idx = _exponent_index(n, a + b)
    right = monomial_basis(n, b).exponents
    t = np.array([[idx[tuple(x + y for x, y in zip(u, v))] for v in right]
                  for u in monomial_basis(n, a).exponents], dtype=np.int64)
    t.setflags(write=False)
    return t


def mult_map(f: GradedPoly, d: int) -> DenseMatrix:
    """Matrix of g -> f*g from degree d - deg(f) to degree d.

    Rows run over the degree-d basis, columns over the source basis.
    """
    if d < f.degree:
        raise DegreeMismatch(f"target degree {d} below deg(f)={f.degree}")
    table = product_table(f.n, f.degree, d - f.degree)
    out = np.zeros((monomial_basis(f.n, d).size, table.shape[1]), dtype=np.int64)
    # within a column the rows of the table are distinct, so no entry is
    # written twice
    out[table, np.arange(table.shape[1])] = f.coeffs[:, None]
    return DenseMatrix(f.ctx, out)


@lru_cache(maxsize=_BASIS_CACHE_SIZE)
def _product_scatter(n: int, a: int, b: int) -> np.ndarray:
    """0/1 matrix sending the flattened pairwise coefficient products of a
    degree-a and a degree-b form to the coefficients of their product."""
    table = product_table(n, a, b)
    s = np.zeros((table.size, monomial_basis(n, a + b).size), dtype=np.int64)
    s[np.arange(table.size), table.reshape(-1)] = 1
    s.setflags(write=False)
    return s


def _row_products(n: int, a: int, b: int, f: np.ndarray, g: np.ndarray,
                  p: int) -> np.ndarray:
    """Row-wise products of N degree-a forms f (N x size a) with N
    degree-b forms g (N x size b), as an N x size(a + b) array mod p.

    The pairwise coefficient products are reduced first and then summed
    into their monomials by a 0/1 scatter matrix.  An output entry sums
    at most min(size a, size b) residues, so it stays exact in int64 for
    every p < 2**31.
    """
    pairs = f[:, :, None] * g[:, None, :] % p
    return pairs.reshape(len(f), -1) @ _product_scatter(n, a, b) % p


def _det_degree_consistent(degrees: list[list[int]]) -> bool:
    # det is homogeneous iff deg[i][j] decomposes as row + column degrees,
    # equivalently all 2x2 cross sums agree.
    for i in range(1, len(degrees)):
        for j in range(1, len(degrees[0])):
            if degrees[i][j] + degrees[0][0] != degrees[i][0] + degrees[0][j]:
                return False
    return True


def maximal_minors(entries: list[list[GradedPoly]]) -> dict[tuple[int, ...], GradedPoly]:
    """The k x k minors of a k x m array of forms (k <= m), keyed by their
    column subset in combinations() order.

    Entry degrees must split into row plus column degrees so every
    permutation product lands in one degree.  The minors of the bottom r
    rows are computed for every column subset at once, one level r at a
    time, each by expanding along its top row: a level costs one batched
    product per (entry degree, minor degree) pair, and no minor is
    expanded twice.
    """
    k, m = len(entries), (len(entries[0]) if entries else 0)
    if not 0 < k <= m or any(len(row) != m for row in entries):
        raise ValueError("need a k x m array of forms with 0 < k <= m")
    ctx = entries[0][0].ctx
    n = entries[0][0].n
    p = ctx.p
    degs = [[e.degree for e in row] for row in entries]
    if not _det_degree_consistent(degs):
        raise InhomogeneousDeterminant(f"entry degrees {degs} are not consistent")
    col = [degs[0][j] - degs[0][0] for j in range(m)]

    def degree(top: int, cols: tuple[int, ...]) -> int:
        """Degree of the minor on rows top..k-1 and the given columns."""
        return sum(degs[r][0] for r in range(top, k)) + sum(col[c] for c in cols)

    # column subset -> minor of the bottom rows on those columns
    minors = {(j,): entries[k - 1][j].coeffs for j in range(m)}
    for i in range(k - 2, -1, -1):
        subsets = list(combinations(range(m), k - i))
        # (entry degree, minor degree) -> [(subset, odd position, entry, minor)]
        groups: dict[tuple[int, int], list] = {}
        for s, cols in enumerate(subsets):
            for t, j in enumerate(cols):
                rest = cols[:t] + cols[t + 1:]
                groups.setdefault((degs[i][j], degree(i + 1, rest)), []).append(
                    (s, t % 2, entries[i][j].coeffs, minors[rest]))
        acc: dict[int, np.ndarray] = {}
        for (a, b), terms in groups.items():
            target, odd, f, g = zip(*terms)
            prod = _row_products(n, a, b, np.array(f), np.array(g), p)
            # signed incidence of terms in subsets: sums at most k residues
            signs = np.zeros((len(subsets), len(terms)), dtype=np.int64)
            signs[target, np.arange(len(terms))] = np.where(odd, -1, 1)
            acc[a + b] = acc.get(a + b, 0) + signs @ prod
        acc = {d: v % p for d, v in acc.items()}
        minors = {cols: acc[degree(i, cols)][s] for s, cols in enumerate(subsets)}
    return {cols: GradedPoly(ctx, monomial_basis(n, degree(0, cols)), v)
            for cols, v in minors.items()}


def det_poly(entries: list[list[GradedPoly]]) -> GradedPoly:
    """Determinant of a square array of forms (see maximal_minors)."""
    k = len(entries)
    if any(len(row) != k for row in entries):
        raise ValueError("determinant needs a square array")
    return maximal_minors(entries)[tuple(range(k))]


class ParamPoly:
    """A form whose coefficients are linear functionals in m parameters.

    Stored as a (basis size) x m matrix; column t is the coefficient
    vector multiplying parameter t.  There is no constant part, so
    specializing at a = 0 gives the zero form.
    """

    __slots__ = ("ctx", "basis", "mat")

    def __init__(self, ctx: PrimeContext, basis: MonomialBasis, mat):
        m = as_residues(mat, ctx.p)
        if m.ndim != 2 or m.shape[0] != basis.size:
            raise ValueError("parameter matrix must be (basis size) x nparams")
        m.setflags(write=False)
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "mat", m)

    def __setattr__(self, *_):
        raise AttributeError("ParamPoly is immutable")

    @property
    def nparams(self) -> int:
        return self.mat.shape[1]

    @property
    def degree(self) -> int:
        return self.basis.d

    def specialize(self, avec) -> GradedPoly:
        a = as_residues(avec, self.ctx.p).reshape(-1)
        if a.shape[0] != self.nparams:
            raise ValueError("wrong parameter vector length")
        return GradedPoly(self.ctx, self.basis,
                          matmul_mod(self.mat, a[:, None], self.ctx.p)[:, 0])
