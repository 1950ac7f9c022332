from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waringcert import (
    GradedPoly,
    PrimeContext,
    det_poly,
    maximal_minors,
    monomial_basis,
    mult_map,
    veronese_vector,
)
from waringcert.errors import (
    DegreeMismatch,
    InhomogeneousDeterminant,
    ZeroPoint,
)


def x(ctx, i):
    return GradedPoly.variable(ctx, 2, i)


def test_basis_is_graded_lex_descending():
    b = monomial_basis(2, 2)
    assert b.exponents == (
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))
    assert monomial_basis(2, 8).size == 45
    assert monomial_basis(3, 2).size == 10


def test_veronese_unit_vector(ctx):
    v = veronese_vector(ctx, (1, 0, 0), 8)
    assert v[0] == 1 and not np.any(v[1:])


def test_veronese_all_ones(ctx):
    v = veronese_vector(ctx, (1, 1, 1), 5)
    assert np.all(v == 1)


def test_veronese_linear_coordinates(ctx):
    assert veronese_vector(ctx, (42, -4, 17), 1).tolist() == [42, 31987, 17]


def test_veronese_zero_point_rejected(ctx):
    with pytest.raises(ZeroPoint):
        veronese_vector(ctx, (0, 0, 0), 3)


def test_poly_eval_examples(ctx):
    f = x(ctx, 0) * x(ctx, 0)
    assert f.eval((0, 1, 5)) == 0
    g = x(ctx, 0) + x(ctx, 1) + x(ctx, 2)
    assert g.eval((1, 1, 1)) == 3


@given(st.integers(0, 2**32), st.integers(1, 4))
@settings(max_examples=40)
def test_pairing_contract(seed, d):
    # dot(F.coeffs, veronese(P, d)) == F(P)
    ctx = PrimeContext(31991)
    rng = np.random.default_rng(seed)
    b = monomial_basis(2, d)
    f = GradedPoly(ctx, b, rng.integers(0, ctx.p, size=b.size))
    pt = rng.integers(0, ctx.p, size=3)
    if not pt.any():
        pt[0] = 1
    direct = f.eval(pt)
    paired = int((f.coeffs * veronese_vector(ctx, pt, d) % ctx.p).sum() % ctx.p)
    assert direct == paired


def test_mult_map_shift(ctx):
    # multiplication by x0 maps each monomial to its shift
    m = mult_map(x(ctx, 0), 3)
    assert m.shape == (10, 6)
    g = GradedPoly(ctx, monomial_basis(2, 2), [1, 2, 3, 4, 5, 6])
    prod = (x(ctx, 0) * g).coeffs
    assert np.array_equal((m @ g.coeffs) % ctx.p, prod)


def test_mult_map_zero(ctx):
    z = GradedPoly.zero(ctx, 2, 2)
    assert not np.any(mult_map(z, 5))


def test_mult_map_degree_guard(ctx):
    with pytest.raises(DegreeMismatch):
        mult_map(x(ctx, 0) * x(ctx, 1), 1)


@given(st.integers(0, 2**32))
@settings(max_examples=40)
def test_mult_map_matches_product(seed):
    ctx = PrimeContext(31991)
    rng = np.random.default_rng(seed)
    bf = monomial_basis(2, 2)
    bg = monomial_basis(2, 3)
    f = GradedPoly(ctx, bf, rng.integers(0, ctx.p, size=bf.size))
    g = GradedPoly(ctx, bg, rng.integers(0, ctx.p, size=bg.size))
    assert np.array_equal(
        (mult_map(f, 5) @ g.coeffs) % ctx.p, (f * g).coeffs)


def test_det_poly_single_entry(ctx):
    assert det_poly([[x(ctx, 0)]]) == x(ctx, 0)


def test_det_poly_two_by_two(ctx):
    d = det_poly([[x(ctx, 0), x(ctx, 1)], [x(ctx, 1), x(ctx, 0)]])
    expect = x(ctx, 0) * x(ctx, 0) - x(ctx, 1) * x(ctx, 1)
    assert d == expect


def test_det_poly_rejects_inhomogeneous(ctx):
    q = x(ctx, 0) * x(ctx, 0)
    with pytest.raises(InhomogeneousDeterminant):
        det_poly([[q, x(ctx, 0)], [x(ctx, 0), q]])


@given(st.integers(0, 2**32))
@settings(max_examples=30)
def test_det_commutes_with_evaluation(seed):
    # evaluate-then-det equals det-then-evaluate at a random point
    ctx = PrimeContext(31991)
    rng = np.random.default_rng(seed)
    b = monomial_basis(2, 1)
    entries = [
        [GradedPoly(ctx, b, rng.integers(0, ctx.p, size=3)) for _ in range(3)]
        for _ in range(3)
    ]
    pt = rng.integers(0, ctx.p, size=3)
    if not pt.any():
        pt[2] = 1
    d = det_poly(entries)
    scalar = [[e.eval(pt) for e in row] for row in entries]

    # exact scalar determinant by cofactor expansion over python ints
    def sdet(m):
        if len(m) == 1:
            return m[0][0]
        total = 0
        for j in range(len(m)):
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * m[0][j] * sdet(minor)
        return total

    assert d.eval(pt) == sdet(scalar) % ctx.p


# ------------------------------------- products and determinants against oracles

ORACLE_PRIMES = (3, 5, 101, 31991, 2**31 - 1)


def as_terms(f):
    """A form as {exponent tuple: nonzero int coefficient}."""
    return {e: int(c) for e, c in zip(f.basis.exponents, f.coeffs) if c}


def terms_mul(f, g, p):
    """Product by the double loop over monomial pairs, in Python ints."""
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = (out.get(e, 0) + c1 * c2) % p
    return {e: c for e, c in out.items() if c}


def terms_det(m, p):
    """Determinant by cofactor expansion along the first row."""
    if len(m) == 1:
        return m[0][0]
    total = {}
    for j in range(len(m)):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        for e, c in terms_mul(m[0][j], terms_det(minor, p), p).items():
            total[e] = (total.get(e, 0) + (-1) ** j * c) % p
    return {e: c for e, c in total.items() if c}


def random_form(rng, ctx, n, d, zero_share=0.0):
    b = monomial_basis(n, d)
    if rng.random() < zero_share:
        return GradedPoly.zero(ctx, n, d)
    return GradedPoly(ctx, b, rng.integers(0, ctx.p, size=b.size))


def random_array(rng, ctx, k, m, row_degs, zero_share=0.0, zero_row=None, n=2):
    """k x m forms, every entry of row i of degree row_degs[i]."""
    return [[GradedPoly.zero(ctx, n, row_degs[i]) if i == zero_row
             else random_form(rng, ctx, n, row_degs[i], zero_share)
             for _ in range(m)] for i in range(k)]


@pytest.mark.parametrize("p", ORACLE_PRIMES)
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_det_poly_matches_cofactor_oracle(p, k):
    # rows of one degree each, as in the Hilbert-Burch matrices: at k = 4
    # the conic row over linear rows is the family's syzygy matrix shape
    ctx = PrimeContext(p)
    rng = np.random.default_rng([p % 1000, k])
    cases = [
        ([1] * k, 0.0, None),                                   # linear entries
        ([int(x) for x in rng.integers(0, 3, size=k)], 0.0, None),  # rows differ
        ([2] + [1] * (k - 1), 0.4, None),                       # conic over linear
        ([1] * k, 0.0, int(rng.integers(0, k))),                # a zero row
    ]
    for row_degs, zero_share, zero_row in cases:
        entries = random_array(rng, ctx, k, k, row_degs, zero_share, zero_row)
        d = det_poly(entries)
        assert d.degree == sum(row_degs)
        assert as_terms(d) == terms_det([[as_terms(e) for e in row] for row in entries], p)
        if zero_row is not None:
            assert d.is_zero()


@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_maximal_minors_are_the_column_subset_determinants(p):
    # k < m with rows of one degree each, among them the 3 x 4 shapes the
    # certifier expands (cofactor arrays of linear rows, and a conic row
    # over linear rows): every subset's minor is checked against the
    # cofactor oracle on its own columns
    ctx = PrimeContext(p)
    rng = np.random.default_rng(p % 997)
    cases = [(2, 3, 4, [1, 1, 1]), (2, 3, 4, [2, 1, 1]), (2, 2, 5, [1, 0])] + [
        (n, k, m, [int(x) for x in rng.integers(0, 3, size=k)])
        for n in (1, 3) for k, m in ((2, 4), (3, 4))]
    for n, k, m, row_degs in cases:
        entries = random_array(rng, ctx, k, m, row_degs, n=n)
        minors = maximal_minors(entries)
        assert list(minors) == list(combinations(range(m), k))
        for cols, minor in minors.items():
            square = [[as_terms(row[c]) for c in cols] for row in entries]
            assert minor.degree == sum(row_degs)
            assert as_terms(minor) == terms_det(square, p)
        entries[0][m - 1] = random_form(rng, ctx, n, row_degs[0] + 1)
        with pytest.raises(InhomogeneousDeterminant):
            maximal_minors(entries)


def test_det_poly_inhomogeneous_and_shape_errors(ctx):
    rng = np.random.default_rng(12)
    for k in (2, 3, 4):  # a conic row over linear rows, one entry a conic too
        entries = random_array(rng, ctx, k, k, [2] + [1] * (k - 1))
        entries[k - 1][k - 1] = random_form(rng, ctx, 2, 2)
        with pytest.raises(InhomogeneousDeterminant):
            det_poly(entries)
    # entry degrees that split into row plus column degrees are still
    # refused: each row must have one degree
    col_degs = [0, 1, 0]
    entries = [[random_form(rng, ctx, 2, c) for c in col_degs] for _ in range(2)]
    with pytest.raises(InhomogeneousDeterminant):
        maximal_minors(entries)
    with pytest.raises(ValueError):
        det_poly(random_array(rng, ctx, 2, 3, [1, 1]))
    with pytest.raises(ValueError):
        maximal_minors(random_array(rng, ctx, 3, 2, [1, 1, 1]))
    mixed_n = random_array(rng, ctx, 2, 3, [1, 1])
    mixed_n[1][2] = random_form(rng, ctx, 3, 1)
    with pytest.raises(DegreeMismatch):
        maximal_minors(mixed_n)
    mixed_p = random_array(rng, ctx, 2, 3, [1, 1])
    mixed_p[0][1] = random_form(rng, PrimeContext(101), 2, 1)
    with pytest.raises(ValueError, match="different primes"):
        maximal_minors(mixed_p)


@pytest.mark.parametrize("p", ORACLE_PRIMES)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_product_and_mult_map_match_double_loop(p, n):
    ctx = PrimeContext(p)
    rng = np.random.default_rng([p % 1000, n])
    for a, b in ((0, 2), (1, 1), (2, 3), (3, 2), (4, 4)):
        f = random_form(rng, ctx, n, a)
        g = random_form(rng, ctx, n, b)
        expect = terms_mul(as_terms(f), as_terms(g), p)
        prod = f * g
        assert prod.degree == a + b and as_terms(prod) == expect
        m = mult_map(f, a + b)
        via_map = [sum(int(x) * int(y) for x, y in zip(row, g.coeffs)) % p for row in m]
        assert via_map == prod.coeffs.tolist()
        # column j of the map is f times monomial j of the source degree
        for j, e in enumerate(monomial_basis(n, b).exponents):
            column = GradedPoly(ctx, monomial_basis(n, a + b), m[:, j])
            assert as_terms(column) == terms_mul(as_terms(f), {e: 1}, p)
