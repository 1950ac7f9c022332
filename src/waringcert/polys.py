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

    @classmethod
    def from_terms(cls, ctx: PrimeContext, n: int, d: int, terms) -> "GradedPoly":
        """terms: iterable of (exponent tuple, coefficient)."""
        b = monomial_basis(n, d)
        c = np.zeros(b.size, dtype=np.int64)
        for e, coef in terms:
            c[b.index_of(tuple(e))] = (c[b.index_of(tuple(e))] + coef) % ctx.p
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
        p = self.ctx.p
        n = self.n
        d = self.degree + other.degree
        target = monomial_basis(n, d)
        idx = _exponent_index(n, d)
        out = np.zeros(target.size, dtype=np.int64)
        mine = self.coeffs
        theirs = other.coeffs
        me = self.basis.exponents
        oe = other.basis.exponents
        for i in np.nonzero(mine)[0]:
            ei = me[i]
            ci = int(mine[i])
            for j in np.nonzero(theirs)[0]:
                k = idx[tuple(a + b for a, b in zip(ei, oe[j]))]
                out[k] = (out[k] + ci * int(theirs[j])) % p
        return GradedPoly(self.ctx, target, out)

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


@lru_cache(maxsize=None)
def monomial_shift_indices(n: int, exps: tuple[int, ...], d: int) -> np.ndarray:
    """For the monomial mu with the given exponents, the index array sending
    each degree-(d - |mu|) basis position to the position of its product
    with mu in degree d."""
    dm = d - sum(exps)
    if dm < 0:
        raise DegreeMismatch("target degree below monomial degree")
    src = monomial_basis(n, dm).exponents
    idx = _exponent_index(n, d)
    return np.array([idx[tuple(a + b for a, b in zip(e, exps))] for e in src],
                    dtype=np.int64)


def mult_map(f: GradedPoly, d: int) -> DenseMatrix:
    """Matrix of g -> f*g from degree d - deg(f) to degree d.

    Rows run over the degree-d basis, columns over the source basis.
    """
    if d < f.degree:
        raise DegreeMismatch(f"target degree {d} below deg(f)={f.degree}")
    n = f.n
    src = monomial_basis(n, d - f.degree)
    tgt = monomial_basis(n, d)
    out = np.zeros((tgt.size, src.size), dtype=np.int64)
    p = f.ctx.p
    for i in np.nonzero(f.coeffs)[0]:
        rows = monomial_shift_indices(n, f.basis.exponents[i], d)
        out[rows, np.arange(src.size)] = (out[rows, np.arange(src.size)]
                                          + int(f.coeffs[i])) % p
    return DenseMatrix(f.ctx, out)


def _det_degree_consistent(degrees: list[list[int]]) -> bool:
    # det is homogeneous iff deg[i][j] decomposes as row + column degrees,
    # equivalently all 2x2 cross sums agree.
    k = len(degrees)
    for i in range(1, k):
        for j in range(1, k):
            if degrees[i][j] + degrees[0][0] != degrees[i][0] + degrees[0][j]:
                return False
    return True


def det_poly(entries: list[list[GradedPoly]]) -> GradedPoly:
    """Determinant of a square array of forms by cofactor expansion.

    Entry degrees must split into row plus column degrees so every
    permutation product lands in one degree.
    """
    k = len(entries)
    if any(len(row) != k for row in entries):
        raise ValueError("determinant needs a square array")
    ctx = entries[0][0].ctx
    n = entries[0][0].n
    degs = [[e.degree for e in row] for row in entries]
    if not _det_degree_consistent(degs):
        raise InhomogeneousDeterminant(f"entry degrees {degs} are not consistent")
    total = sum(degs[i][0] for i in range(k)) + sum(degs[0][j] - degs[0][0] for j in range(1, k))

    def rec(rows: tuple[int, ...], cols: tuple[int, ...]):
        if len(rows) == 1:
            e = entries[rows[0]][cols[0]]
            return None if e.is_zero() else e
        i = rows[0]
        acc = None
        for t, j in enumerate(cols):
            e = entries[i][j]
            if e.is_zero():
                continue
            minor = rec(rows[1:], cols[:t] + cols[t + 1:])
            if minor is None:
                continue
            term = e * minor
            if t % 2 == 1:
                term = term.scale(-1)
            acc = term if acc is None else acc + term
        return acc

    out = rec(tuple(range(k)), tuple(range(k)))
    return GradedPoly.zero(ctx, n, total) if out is None else out


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

    @classmethod
    def zero(cls, ctx: PrimeContext, n: int, d: int, nparams: int) -> "ParamPoly":
        b = monomial_basis(n, d)
        return cls(ctx, b, np.zeros((b.size, nparams), dtype=np.int64))

    @classmethod
    def generic_form(cls, ctx: PrimeContext, n: int, d: int, nparams: int,
                     offset: int) -> "ParamPoly":
        """The form whose degree-d coefficients are the parameters
        a_offset .. a_{offset+size-1} themselves."""
        b = monomial_basis(n, d)
        if offset < 0 or offset + b.size > nparams:
            raise ValueError("parameter window out of range")
        m = np.zeros((b.size, nparams), dtype=np.int64)
        for i in range(b.size):
            m[i, offset + i] = 1
        return cls(ctx, b, m)

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

    def __add__(self, other: "ParamPoly") -> "ParamPoly":
        if other.basis is not self.basis or other.nparams != self.nparams:
            raise DegreeMismatch("incompatible parametric forms")
        return ParamPoly(self.ctx, self.basis, (self.mat + other.mat) % self.ctx.p)

    def scale(self, c: int) -> "ParamPoly":
        return ParamPoly(self.ctx, self.basis, self.mat * (int(c) % self.ctx.p) % self.ctx.p)

    def mul_poly(self, g: GradedPoly) -> "ParamPoly":
        """Product with a numeric form; stays linear in the parameters."""
        mm = mult_map(g, g.degree + self.degree)
        return ParamPoly(self.ctx, monomial_basis(self.basis.n, g.degree + self.degree),
                         matmul_mod(mm.a, self.mat, self.ctx.p))
