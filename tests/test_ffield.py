import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waringcert import (
    DenseMatrix,
    GradedPoly,
    Instance,
    PointSet,
    PrimeContext,
    is_prime,
    monomial_basis,
)
from waringcert.errors import NotPrime
from waringcert.ffield import (
    kernel_mod,
    matmul_mod,
    normalize_projective,
    rank_mod,
    row_echelon,
)

from conftest import fixture_instance

PRIMES = (5, 101, 31991, 2147483629)


def test_is_prime_basics():
    assert is_prime(2) and is_prime(3) and is_prime(31991)
    assert not is_prime(1) and not is_prime(31989)  # 31989 = 3 * 10663
    assert is_prime(2147483629)  # near the top of the admissible range


def test_context_rejects_bad_moduli():
    with pytest.raises(NotPrime):
        PrimeContext(32000)
    with pytest.raises(NotPrime):
        PrimeContext(2)
    with pytest.raises(NotPrime):
        PrimeContext(2**31 + 11)


def test_rank_identity_and_zero(ctx):
    eye = DenseMatrix(ctx, np.eye(3, dtype=np.int64))
    assert eye.rank() == 3
    assert DenseMatrix(ctx, np.zeros((4, 7), dtype=np.int64)).rank() == 0


def test_kernel_identity_empty(ctx):
    assert DenseMatrix(ctx, np.eye(3, dtype=np.int64)).kernel_basis() == []


def test_kernel_forced_normalization(ctx):
    # a single row (1, 1): the canonical kernel vector is (-1, 1)
    (v,) = DenseMatrix(ctx, [[1, 1]]).kernel_basis()
    assert v.tolist() == [ctx.p - 1, 1]


def test_negative_entries_are_reduced(ctx):
    m = DenseMatrix(ctx, [[-1, 1], [1, -1]])
    assert m.a[0, 0] == ctx.p - 1
    assert m.rank() == 1


def test_matrix_is_immutable(ctx):
    m = DenseMatrix(ctx, [[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        m.a[0, 0] = 9
    with pytest.raises(AttributeError):
        m.a = None


matrices = st.tuples(
    st.sampled_from(PRIMES),
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(0, 2**32),
)


@given(matrices)
@settings(max_examples=60)
def test_rank_equals_transpose_rank(params):
    p, m, n, seed = params
    a = np.random.default_rng(seed).integers(0, p, size=(m, n))
    assert rank_mod(a, p) == rank_mod(a.T, p)


@given(matrices)
@settings(max_examples=60)
def test_kernel_vectors_annihilate(params):
    p, m, n, seed = params
    a = np.random.default_rng(seed).integers(0, p, size=(m, n))
    ctx = PrimeContext(p)
    mat = DenseMatrix(ctx, a)
    kern = mat.kernel_basis()
    assert mat.rank() + len(kern) == n
    for v in kern:
        assert np.all(matmul_mod(a, v[:, None], p) == 0)


def test_rref_is_idempotent(ctx):
    rng = np.random.default_rng(0)
    a = rng.integers(0, ctx.p, size=(5, 8))
    r1, piv1 = row_echelon(a, ctx.p)
    r2, piv2 = row_echelon(r1, ctx.p)
    assert piv1 == piv2 and np.array_equal(r1, r2)


def test_matmul_mod_large_prime_no_overflow():
    # inner dimension large enough that naive int64 accumulation overflows
    p = 2147483629
    k = 8
    rng = np.random.default_rng(1)
    a = rng.integers(p - 10, p, size=(2, k))
    b = rng.integers(p - 10, p, size=(k, 2))
    expect = [[sum(int(a[i, t]) * int(b[t, j]) for t in range(k)) % p
               for j in range(2)] for i in range(2)]
    assert matmul_mod(a, b, p).tolist() == expect


def test_normalize_projective(ctx):
    v = np.array([0, 7, 21])
    out = normalize_projective(v, ctx.p)
    assert out[0] == 0 and out[1] == 1
    assert out[2] == 3
    with pytest.raises(ValueError):
        normalize_projective(np.zeros(3, dtype=np.int64), ctx.p)


# ------------------------------------------------------- stacked rank_mod

STACK_PRIMES = (3, 5, 101, 31991, 2**31 - 1)


def oracle_rank(rows, p: int) -> int:
    """Rank by Gauss-Jordan elimination on plain Python ints."""
    rows = [[int(x) % p for x in row] for row in rows]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        i = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        for j in range(len(rows)):
            if j != r and rows[j][c]:
                f = rows[j][c] * inv % p
                rows[j] = [(x - f * y) % p for x, y in zip(rows[j], rows[r])]
        r += 1
    return r


def mixed_stack(rng, p: int, N: int, m: int, n: int) -> np.ndarray:
    """Random members, all-zero members, products of lower rank and
    members with a repeated row, in shuffled order."""
    members = []
    for t in range(N):
        kind = t % 4
        if kind == 0:
            a = rng.integers(0, p, size=(m, n))
        elif kind == 1:
            a = np.zeros((m, n), dtype=np.int64)
        elif kind == 2:
            inner = int(rng.integers(0, min(m, n)))  # rank <= inner < min(m, n)
            a = matmul_mod(rng.integers(0, p, size=(m, inner)),
                           rng.integers(0, p, size=(inner, n)), p)
        else:
            a = rng.integers(0, p, size=(m, n))
            if m > 1:
                a[-1] = a[0]
        members.append(a)
    order = rng.permutation(N)
    return np.array([members[i] for i in order], dtype=np.int64)


@pytest.mark.parametrize("p", STACK_PRIMES)
@pytest.mark.parametrize("shape", [(1, 4, 4), (9, 1, 5), (12, 3, 7), (12, 7, 3),
                                   (16, 6, 6), (20, 10, 10), (5, 1, 1)])
def test_stacked_rank_matches_loop_and_oracle(p, shape):
    rng = np.random.default_rng([p % 1000, *shape])
    stack = mixed_stack(rng, p, *shape)
    ranks = rank_mod(stack, p)
    assert ranks.shape == (shape[0],)
    assert ranks.tolist() == [rank_mod(a, p) for a in stack]
    assert ranks.tolist() == [oracle_rank(a.tolist(), p) for a in stack]


def test_stacked_rank_singular_members_at_small_prime():
    # at p = 3 a random 6x6 is singular about half the time
    p = 3
    stack = np.random.default_rng(5).integers(0, p, size=(200, 6, 6))
    ranks = rank_mod(stack, p)
    assert (ranks < 6).sum() > 50
    assert ranks.tolist() == [oracle_rank(a.tolist(), p) for a in stack]


def test_stacked_rank_does_not_modify_input():
    p = 101
    stack = np.random.default_rng(6).integers(0, p, size=(4, 3, 3))
    before = stack.copy()
    rank_mod(stack, p)
    assert np.array_equal(stack, before)


def test_rank_mod_rejects_other_dimensions():
    with pytest.raises(ValueError):
        rank_mod(np.zeros((2, 2, 2, 2), dtype=np.int64), 5)


# ------------------------------------- echelon, kernel and solve against oracles

def oracle_rref(rows, p: int):
    """(reduced echelon rows, pivot columns) by Gauss-Jordan elimination on
    plain Python ints, taking the first nonzero entry as pivot."""
    rows = [[int(x) % p for x in row] for row in rows]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        i = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for j in range(len(rows)):
            if j != r and rows[j][c]:
                f = rows[j][c]
                rows[j] = [(x - f * y) % p for x, y in zip(rows[j], rows[r])]
        pivots.append(c)
    return rows, pivots


def oracle_kernel(rows, n: int, p: int):
    """The canonical kernel basis: one vector per free column, free
    coordinate 1, pivot coordinates the negated reduced entries."""
    rref, pivots = oracle_rref(rows, p)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[free] = 1
        for i, c in enumerate(pivots):
            v[c] = -rref[i][free] % p
        basis.append(v)
    return basis


shaped = st.tuples(st.sampled_from(STACK_PRIMES), st.integers(1, 7),
                   st.integers(1, 7), st.integers(0, 2**32))


@given(shaped)
@settings(max_examples=60)
def test_row_echelon_and_kernel_match_oracle(params):
    p, m, n, seed = params
    for a in mixed_stack(np.random.default_rng(seed), p, 4, m, n):
        rref, pivots = oracle_rref(a.tolist(), p)
        r, piv = row_echelon(a, p)
        assert r.tolist() == rref and piv == pivots
        kern = kernel_mod(a, p)
        assert [v.tolist() for v in kern] == oracle_kernel(a.tolist(), n, p)
        for v in kern:
            assert all(sum(int(x) * int(y) for x, y in zip(row, v)) % p == 0 for row in a)


@pytest.mark.parametrize("p", STACK_PRIMES)
@pytest.mark.parametrize("shape", [(1, 4, 4), (1, 3, 8), (0, 3, 4), (8, 1, 5),
                                   (12, 3, 7), (12, 7, 3), (16, 11, 12), (6, 12, 5)])
def test_stacked_row_echelon_matches_single_and_oracle(p, shape):
    rng = np.random.default_rng([p % 1000, *shape, 1])
    stack = mixed_stack(rng, p, *shape).reshape(shape)  # N = 0 included
    before = stack.copy()
    r, mask = row_echelon(stack, p)
    assert r.shape == shape and mask.shape == (shape[0], shape[2]) and mask.dtype == bool
    for a, ra, ma in zip(stack, r, mask):
        single, piv = row_echelon(a, p)
        rref, pivots = oracle_rref(a.tolist(), p)
        assert np.array_equal(ra, single) and ra.tolist() == rref
        assert np.flatnonzero(ma).tolist() == piv == pivots
    assert np.array_equal(stack, before)


@given(shaped, st.booleans())
@settings(max_examples=60)
def test_memoised_rank_and_kernel_equal_fresh(params, rank_first):
    p, m, n, seed = params
    ctx = PrimeContext(p)
    for a in mixed_stack(np.random.default_rng(seed), p, 4, m, n):
        rank, kern = rank_mod(a, p), [v.tolist() for v in kernel_mod(a, p)]
        mat = DenseMatrix(ctx, a)
        calls = ("rank", "kernel", "rank", "kernel") if rank_first else \
                ("kernel", "rank", "kernel", "rank")
        for call in calls:
            if call == "rank":
                assert mat.rank() == rank
            else:
                got = mat.kernel_basis()
                assert [v.tolist() for v in got] == kern
                for v in got:
                    v[:] = 0  # the caller's copy; the cached form is untouched
        r, piv = mat.rref()
        assert (r.a.tolist(), list(piv)) == oracle_rref(a.tolist(), p)


# numpy reads 2**63 and 2**64 - 1 beside small ints as float64, and
# 2**64 - 1 fits a uint64 array; both must still reduce exactly
@pytest.mark.parametrize("big", [10**30, -10**30, 2**64, 2**63, 2**64 - 1])
def test_integers_beyond_int64_are_reduced(big):
    p = 31991
    ctx = PrimeContext(p)
    m = DenseMatrix(ctx, [[1, big], [big, 2]])
    assert m.a.tolist() == [[1, big % p], [big % p, 2]]
    if 0 <= big < 2**64:
        unsigned = np.array([[1, big]], dtype=np.uint64)
        assert DenseMatrix(ctx, unsigned).a.tolist() == [[1, big % p]]
    f = GradedPoly(ctx, monomial_basis(2, 1), [big, 0, 1])
    assert f.coeffs.tolist() == [big % p, 0, 1]
    inst = Instance(PointSet(ctx, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]), 2, [1, 2, big])
    assert inst.lam.tolist() == [1, 2, big % p]


def test_non_integers_beyond_int64_are_refused():
    with pytest.raises(TypeError):
        DenseMatrix(PrimeContext(101), [[1.5, 2**64]])


def test_floats_and_complex_are_refused():
    ctx = PrimeContext(101)
    for entries in ([[0.5, 1]], [[2.0, 1]], np.array([[3.0, 1.0]]),
                    [[1 + 2j, 1]], np.array([[1j, 0]])):
        with pytest.raises(TypeError):
            DenseMatrix(ctx, entries)


# ------------------------------- the elimination kernel on the certifier's shapes

# Shapes the certifier and the generator eliminate, among them the 11x12
# try kernels, ev(A,4) at 14x15, the 40x12 decision system and the 55x45
# residual generators.
CERTIFIER_SHAPES = [(11, 12), (14, 15), (28, 18), (40, 12), (45, 28), (55, 45)]
KERNEL_PRIMES = (3, 101, 31991, 2**31 - 1)


def certifier_matrix(kind: str, p: int, m: int, n: int) -> np.ndarray:
    """A full-rank-looking random matrix, a planted product of rank
    min(m, n) - 3, or entries in [p - 4, p) with repeated rows and
    columns; the last two also get a zero row and a zero column."""
    rng = np.random.default_rng([p % 10007, m, n, len(kind)])
    if kind == "random":
        return rng.integers(0, p, size=(m, n))
    if kind == "planted":
        inner = min(m, n) - 3
        a = matmul_mod(rng.integers(0, p, size=(m, inner)),
                       rng.integers(0, p, size=(inner, n)), p)
    else:
        a = p - 1 - rng.integers(0, 4, size=(m, n))
        a[m // 2] = a[1]
        a[:, n // 2] = a[:, 2]
    a[m - 2] = 0
    a[:, 1] = 0
    return a


@pytest.mark.parametrize("p", KERNEL_PRIMES)
@pytest.mark.parametrize("shape", CERTIFIER_SHAPES)
@pytest.mark.parametrize("kind", ["random", "planted", "near_top"])
def test_kernel_matches_oracle_on_certifier_shapes(kind, shape, p):
    m, n = shape
    a = certifier_matrix(kind, p, m, n)
    before = a.copy()
    rref, pivots = oracle_rref(a.tolist(), p)
    if kind != "random":
        assert len(pivots) < min(m, n)
    r, piv = row_echelon(a, p)
    assert r.tolist() == rref and piv == pivots
    assert rank_mod(a, p) == len(pivots)
    assert rank_mod(a[None], p).tolist() == [len(pivots)]
    assert [v.tolist() for v in kernel_mod(a, p)] == oracle_kernel(a.tolist(), n, p)
    assert np.array_equal(a, before)


# Between two reductions mod p the trailing block takes
# (2**63 - 1) // (p - 1)**2 - 1 updates: 1 at 2**31 - 1, 2 at 1518500279,
# 3 at 1518500213 and billions at 31991, where the one % p is at the end.
DELAYED_PRIMES = (3, 7, 31991, 1518500213, 1518500279, 2**31 - 1)


@given(st.sampled_from(DELAYED_PRIMES), st.integers(1, 24), st.integers(1, 40),
       st.integers(0, 2**32 - 1))
@settings(max_examples=120)
def test_delayed_reduction_matches_plain_ints(p, m, n, seed):
    # entries near p, zero columns and repeated rows, so pivots go missing
    # while the block carries unreduced updates
    rng = np.random.default_rng(seed)
    a = p - 1 - rng.integers(0, 3, size=(m, n)) if seed % 3 == 0 else rng.integers(0, p, (m, n))
    a[:, rng.random(n) < 0.2] = 0
    if m > 2:
        a[rng.integers(1, m)] = a[0] * 2 % p
    r, piv = row_echelon(a, p)
    assert (r.tolist(), piv) == oracle_rref(a.tolist(), p)


@pytest.mark.parametrize("p", (31991, 2**31 - 1))
@pytest.mark.parametrize("shape", ((60, 300), (22, 220), (60, 45)))
def test_delayed_reduction_on_wide_matrices(p, shape):
    # up to 60 pivots of unreduced updates at 31991, one per pivot at 2**31 - 1
    m, n = shape
    a = certifier_matrix("planted", p, m, n)
    a[:, n // 3] = 0
    r, piv = row_echelon(a, p)
    assert (r.tolist(), piv) == oracle_rref(a.tolist(), p)
    assert len(piv) == min(m, n) - 3


# ------------------------------------------------ each matrix is reduced once

def count_eliminations(monkeypatch):
    """Patch rank_mod and row_echelon in ffield (the bindings DenseMatrix
    uses) and return the list of the arrays they are asked to eliminate,
    counting a call made inside another counted call only once."""
    from waringcert import ffield

    seen, depth = [], [0]

    def counted(fn):
        def wrapper(a, p):
            if not depth[0]:
                seen.append(a)
            depth[0] += 1
            try:
                return fn(a, p)
            finally:
                depth[0] -= 1
        return wrapper

    for name in ("rank_mod", "row_echelon"):
        monkeypatch.setattr(ffield, name, counted(getattr(ffield, name)))
    return seen


def test_rank_then_kernel_reduces_once(monkeypatch):
    p = 31991
    a = certifier_matrix("planted", p, 14, 15)
    seen = count_eliminations(monkeypatch)
    mat = DenseMatrix(PrimeContext(p), a)
    assert mat.rank() == 11
    assert len(mat.kernel_basis()) == 4
    assert mat.rank() == 11 and mat.rref()[1] == tuple(oracle_rref(a.tolist(), p)[1])
    assert len(seen) == 1


def test_cold_t1_check_reduces_ev4_once(monkeypatch):
    from waringcert.driver import run_criteria

    from waringcert import ffield, points

    inst = fixture_instance("optics_T1")
    seen = count_eliminations(monkeypatch)
    monkeypatch.setattr(points, "row_echelon", ffield.row_echelon)
    cert, _ = run_criteria(inst, "all")
    assert cert.display() == "IdentifiableOfRank(14)"
    # one reduction of [ev(A, 4) | I] gives ev(A, 4) its RREF and keeps the
    # row transform that ev(A, 5) and the Cayley-Bacharach test read later
    ev4 = inst.pointset._ev_cache[4].a
    assert ev4.shape == (14, 15) and not any(a is ev4 for a in seen)
    stacked = [a for a in seen if np.shape(a) == (14, 29)]
    assert len(stacked) == 1
    assert np.array_equal(stacked[0], np.hstack([ev4, np.eye(14, dtype=np.int64)]))
