"""Exact dense linear algebra over a prime field Z_p.

All matrices are numpy int64 arrays with entries kept in [0, p).  For
p < 2**31 the product of two residues fits in an int64.

One elimination kernel, row_echelon, gives every RREF, kernel basis and
rank of a single matrix; a rank is the pivot count of the RREF.  Each
pivot clears its column in all rows by one in-place broadcast update of
the trailing block, which is reduced mod p only after every
(2**63 - 1) // (p - 1)**2 - 1 updates (each one near p = 2**31, only at
the end at p = 31991); the pivot column and row are reduced before use.
Against a % p after each update that is 1.01-1.38x faster on the
certifier's shapes and 1.8x on 22x220 (p=31991, best of 40 on a shared
2-vCPU VM: 14x15 217 -> 195 us, 55x45 1174 -> 852 us), and even at
2**31 - 1.  DenseMatrix keeps its RREF, however found, so a rank and a
kernel of the same matrix cost one elimination.  An (N, m, n) stack of
matrices, such as Kruskal subsets or the septic tries of the rational
generator, is eliminated all members at once by one fraction-free loop:
ranks clear only the unused rows, a stacked RREF clears every row and
then sorts the rows and scales each pivot to 1 by one vectorised Fermat
inverse.  Kernel bases go through the RREF, so their output is canonical.
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

    Integers outside the int64 range are reduced as Python ints first.
    Anything that is not an integer, a float or complex number included,
    is refused with TypeError.
    """
    a = np.asarray(entries)
    if a.dtype.kind in "ib":
        return a.astype(np.int64) % p
    # Python ints past int64 arrive as object or uint64 arrays, or as
    # float64 beside small ints; operator.index refuses true floats
    return np.array(np.frompyfunc(lambda x: operator.index(x) % p, 1, 1)(
        np.array(entries, dtype=object)), dtype=np.int64)


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


def row_echelon(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int] | np.ndarray]:
    """Reduced row echelon form over Z_p.

    Pivot choice is the first nonzero entry of the current column, so the
    result (and everything derived from it) is deterministic.
    Returns (rref matrix, pivot column indices).  An (N, m, n) stack gives
    the N reduced forms, each equal to its member's own, and an (N, n)
    boolean pivot mask.
    """
    a = as_residues(a, p)
    if a.ndim == 3:
        return _echelon_stacked(a, p, reduced=True)
    m, n = a.shape
    # an update moves an entry by less than p**2: this many fit before a % p
    cadence = (2**63 - 1) // (p - 1) ** 2 - 1
    pivots: list[int] = []
    r = pending = 0
    for c in range(n if m else 0):
        col = a[:, c]
        if pending:
            col %= p
        if not col[r]:
            nz = col[r:].nonzero()[0]
            if nz.size == 0:
                continue
            i = r + int(nz[0])
            a[[r, i]] = a[[i, r]]
        row = (a[r, c:] % p if pending else a[r, c:]) * pow(int(col[r]), p - 2, p)
        row %= p
        # the pivot row is zero left of c: this clears column c in every row
        rest = a[:, c:]
        rest -= rest[:, :1] * row
        a[r, c:] = row
        pivots.append(c)
        r += 1
        if not (pending := (pending + 1) % cadence):
            rest %= p
        if r == m:
            break
    a %= p
    return a, pivots


def rank_mod(a: np.ndarray, p: int) -> int | np.ndarray:
    """Rank over Z_p.

    A 2-d matrix gives an int, the pivot count of its row_echelon form.
    A stack of shape (N, m, n) gives the N ranks as an int64 array; a
    stack of two or more is eliminated fraction-free, all members at
    once with a pivot row of their own, so singular, zero and non-square
    members are exact like any other.
    """
    if np.ndim(a) == 2:
        return len(row_echelon(a, p)[1])
    a = as_residues(a, p)
    if a.ndim != 3:
        raise ValueError(f"expected a matrix or a stack of matrices, got ndim={a.ndim}")
    if a.shape[0] == 1:
        # one matrix eliminates faster row by row than as a stack
        return np.array([len(row_echelon(a[0], p)[1])], dtype=np.int64)
    return _echelon_stacked(a, p, reduced=False)


def _echelon_stacked(a: np.ndarray, p: int, reduced: bool):
    """Fraction-free elimination of an (N, m, n) stack, in place.

    Per column, every member picks its first unused row with a nonzero
    entry as pivot and clears that column in other rows by
    row_j * piv - f_j * row_piv.  A member without a pivot in the column
    is left unchanged (multiplier 1, factor 0).  Every product is below
    p**2 < 2**62, so the update is exact.

    Without `reduced` only the unused rows are cleared, from column c on,
    and the N ranks are returned.  With it every row is cleared over its
    full width (the multiplier scales a used row's earlier entries too);
    the rows are then sorted by pivot column and each pivot scaled to 1,
    which gives (the N reduced forms, the (N, n) pivot mask).
    """
    N, m, n = a.shape
    members = np.arange(N)
    ranks = np.zeros(N, dtype=np.int64)
    pivot_col = np.full((N, m), n)  # n marks a row not used as pivot yet
    for c in range(n):
        col = a[:, :, c]
        nonzero = col != 0
        candidate = nonzero & (pivot_col == n)
        has = candidate.any(axis=1)
        if not has.any():
            continue
        i = candidate.argmax(axis=1)
        piv = col[members, i]
        lo = 0 if reduced else c
        prow = a[members, i, lo:]
        clear = (nonzero if reduced else candidate) & has[:, None]
        clear[members, i] = False
        f = np.where(clear, col, 0)
        mult = np.where(clear, piv[:, None], 1)
        a[:, :, lo:] = (a[:, :, lo:] * mult[:, :, None]
                        - f[:, :, None] * prow[:, None, :]) % p
        pivot_col[members[has], i[has]] = c
        ranks += has
        if (ranks == min(m, n)).all():
            break
    if not reduced:
        return ranks
    # rows without a pivot are zero and sort last
    order = np.argsort(pivot_col, axis=1, kind="stable")
    a = np.take_along_axis(a, order[:, :, None], axis=1)
    pivot_col = np.take_along_axis(pivot_col, order, axis=1)
    held = pivot_col < n
    if n:
        lead = np.take_along_axis(a, np.where(held, pivot_col, 0)[:, :, None], axis=2)
        a *= _inverse_mod(np.where(held, lead[:, :, 0], 1), p)[:, :, None]
        a %= p
    mask = np.zeros((N, n + 1), dtype=bool)
    mask[members[:, None], pivot_col] = True
    return a, mask[:, :n]


def _inverse_mod(x: np.ndarray, p: int) -> np.ndarray:
    """Elementwise x**(p-2) mod p, the inverse of each nonzero residue."""
    out = np.ones_like(x)
    base = x.copy()
    e = p - 2
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


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
    never changes, its reduced echelon form is computed at most once and
    kept; rank() is its pivot count, so a rank and a kernel of the same
    matrix cost one elimination.
    """

    __slots__ = ("ctx", "a", "_echelon")

    def __init__(self, ctx: PrimeContext, entries):
        a = as_residues(entries, ctx.p)
        if a.ndim != 2:
            raise ValueError(f"expected a 2-d array, got ndim={a.ndim}")
        a.setflags(write=False)
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "_echelon", None)

    def __setattr__(self, *_):
        raise AttributeError("DenseMatrix is immutable")

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def rank(self) -> int:
        return len(self._reduced()[1])

    def _reduced(self, found=None) -> tuple[np.ndarray, tuple[int, ...]]:
        """(RREF, pivots): eliminated once, or kept from found when known."""
        if self._echelon is None:
            r, piv = found or row_echelon(self.a, self.ctx.p)
            r.setflags(write=False)
            object.__setattr__(self, "_echelon", (r, tuple(piv)))
        return self._echelon

    def rref(self) -> tuple["DenseMatrix", tuple[int, ...]]:
        r, piv = self._reduced()
        return DenseMatrix(self.ctx, r), piv

    def kernel_basis(self) -> list[np.ndarray]:
        r, piv = self._reduced()
        return _kernel_from_echelon(r, list(piv), self.ctx.p)

    def __repr__(self):
        return f"DenseMatrix({self.a.shape[0]}x{self.cols} over Z_{self.ctx.p})"

