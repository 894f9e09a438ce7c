"""Scalar tower: frozen example values, ring axioms on random inputs,
and the quadratic-extension root algebra."""

import random
from fractions import Fraction

import pytest

from hxfib import scalars
from hxfib.scalars import (
    KRONECKER_MIN_LEN,
    NEG_INF,
    ONE,
    X,
    ZERO,
    DivisorZero,
    GaussRational,
    I,
    ModulusMismatch,
    NotDivisible,
    Poly,
    QuadExt,
    binomial,
    poly_sum,
    quad_from_alpha,
    quad_from_beta,
    root_modulus,
)

F = Fraction


def rand_poly(rng, degree=4, scalar=None):
    make = scalar or (lambda r: F(r.randint(-9, 9), r.randint(1, 5)))
    return Poly([make(rng) for _ in range(rng.randint(0, degree) + 1)])


def rand_gauss(rng):
    return GaussRational(F(rng.randint(-9, 9), rng.randint(1, 4)),
                         F(rng.randint(-9, 9), rng.randint(1, 4)))


# -- binomial ---------------------------------------------------------------

def pascal_rows(n):
    rows = [[1]]
    for _ in range(n):
        prev = rows[-1]
        rows.append([1] + [prev[i] + prev[i + 1] for i in range(len(prev) - 1)] + [1])
    return rows


def test_binomial_small_values():
    assert binomial(3, 0) == 1
    assert binomial(2, 1) == 2
    assert binomial(0, 0) == 1


def test_binomial_against_pascal_triangle():
    rows = pascal_rows(30)
    for n in range(31):
        for k in range(n + 1):
            assert binomial(n, k) == rows[n][k]
    assert binomial(30, 15) == 155117520


def test_binomial_zero_above_diagonal_and_negative_rejected():
    assert binomial(3, 5) == 0
    with pytest.raises(ValueError):
        binomial(-1, 0)
    with pytest.raises(ValueError):
        binomial(3, -2)


# -- polynomials ------------------------------------------------------------

def test_poly_add_cancellation():
    assert Poly([1, 1]) + Poly([2, -1]) == Poly([3])
    assert ZERO + Poly([1, 2]) == Poly([1, 2])
    assert Poly([0, 0, 1]) + Poly([0, 1]) == Poly([0, 1, 1])


def test_poly_mul():
    assert Poly([1, 1]) * Poly([-1, 1]) == Poly([-1, 0, 1])
    assert Poly([5, 1]) * ZERO == ZERO
    assert Poly([2, 1]) * Poly([3, 1]) == Poly([6, 5, 1])


def test_poly_mul_degree_additive():
    rng = random.Random(11)
    for _ in range(40):
        p, q = rand_poly(rng), rand_poly(rng)
        if p and q:
            assert (p * q).degree == p.degree + q.degree


def test_poly_eval():
    assert Poly([1, 0, 1]).eval(2) == 5
    rng = random.Random(3)
    for _ in range(10):
        p = rand_poly(rng)
        assert p.eval(0) == p.coefficient(0)
    assert Poly([0, 2, 0, 1]).eval(F(1, 2)) == F(9, 8)


def test_poly_derivative():
    assert Poly([0, 0, 0, 1]).derivative() == Poly([0, 0, 3])
    assert Poly([7]).derivative() == ZERO
    assert Poly([0, 0, 2, 0, 1]).derivative() == Poly([0, 4, 0, 4])


def test_poly_compose():
    assert Poly([1, 0, 1]).compose(Poly([1, 1])) == Poly([2, 2, 1])
    p = Poly([3, -2, 1])
    assert p.compose(X) == p
    assert Poly([0, 0, 0, 1]).compose(Poly([0, 2])) == Poly([0, 0, 0, 8])


def test_poly_divexact():
    assert Poly([-1, 0, 1]).divexact(Poly([-1, 1])) == Poly([1, 1])
    with pytest.raises(NotDivisible):
        Poly([1, 0, 1]).divexact(X)
    assert ZERO.divexact(Poly([1, 2])) == ZERO
    with pytest.raises(DivisorZero):
        Poly([1]).divexact(ZERO)


def test_poly_divexact_inverts_mul():
    rng = random.Random(5)
    for _ in range(30):
        p, q = rand_poly(rng), rand_poly(rng)
        if q:
            assert (p * q).divexact(q) == p


def test_poly_degree_of_zero_is_distinguished():
    assert ZERO.degree == NEG_INF
    assert ZERO.degree != 0
    assert Poly([4]).degree == 0
    assert not ZERO.coeffs


def test_poly_canonical_no_trailing_zeros():
    assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
    assert Poly([0, 0]).coeffs == ()
    assert Poly([F(1, 2), F(3, 2)]) == Poly([F(2, 4), F(6, 4)])


def test_poly_int_and_fraction_coefficients_agree():
    assert Poly([1, 2]) == Poly([F(1), F(2)])
    assert hash(Poly([1, 2])) == hash(Poly([F(1), F(2)]))


def test_poly_ring_axioms_random():
    rng = random.Random(17)
    for _ in range(60):
        p, q, r = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p * ONE == p and p + ZERO == p


def test_poly_sum_matches_pairwise():
    rng = random.Random(29)
    for _ in range(20):
        ps = [rand_poly(rng) for _ in range(rng.randint(0, 6))]
        acc = ZERO
        for p in ps:
            acc = acc + p
        assert poly_sum(ps) == acc


def test_poly_sub_matches_add_negated():
    rng = random.Random(37)
    for _ in range(60):
        p, q = rand_poly(rng), rand_poly(rng)
        q = rng.choice((q, p * 3 + q, p))  # equal denominators and cancellation
        diff = p - q
        assert diff == p + (-q)
        assert diff + q == p
        assert (diff.num, diff.den) == ((p + (-q)).num, (p + (-q)).den)
    assert Poly([1, 2, 3]) - Poly([1, 2, 3]) == ZERO
    assert Poly([1, 2, 3]) - Poly([0, 0, 3]) == Poly([1, 2])
    assert Poly([1]) - Poly([0, 0, 5]) == Poly([1, 0, -5])


def _signed_vector(rng, length, bits):
    """Random signed coefficients with interior zero runs and a nonzero,
    possibly negative, leading term."""
    out = []
    while len(out) < length - 1:
        if rng.random() < 0.15:
            out.extend([0] * rng.randint(1, 6))
        else:
            out.append(rng.randint(-(1 << bits), 1 << bits))
    del out[length - 1:]
    lead = rng.randint(1, 1 << bits)
    return out + [-lead if rng.random() < 0.5 else lead]


def test_kronecker_matches_schoolbook():
    rng = random.Random(59)
    edge = (KRONECKER_MIN_LEN - 1, KRONECKER_MIN_LEN, KRONECKER_MIN_LEN + 1)
    for trial in range(300):
        m = rng.choice(edge + (1, 2, rng.randint(1, 40)))
        n = rng.choice((m, m + 1, rng.randint(m, 4 * m + 5)))  # balanced to unbalanced
        bits = rng.choice((1, 7, 64, 300))
        a, b = _signed_vector(rng, m, bits), _signed_vector(rng, n, rng.choice((bits, 3)))
        want = scalars._schoolbook_mul(a, b)
        assert scalars._kronecker_mul(a, b) == want, (trial, m, n, bits)
        assert scalars._kronecker_mul(a, a) == scalars._schoolbook_mul(a, a)
        # through Poly, on both sides of the crossover
        assert (Poly(a) * Poly(b)).num == tuple(want)
    # all-negative and extreme slot values
    a = [-(1 << 300)] * KRONECKER_MIN_LEN
    assert scalars._kronecker_mul(a, a) == scalars._schoolbook_mul(a, a)
    b = [(1 << 299) - 1, 0, 0, -(1 << 299)] * KRONECKER_MIN_LEN
    assert scalars._kronecker_mul(a, b) == scalars._schoolbook_mul(a, b)


def test_kronecker_only_above_crossover(monkeypatch):
    calls = []
    real = scalars._kronecker_mul
    monkeypatch.setattr(scalars, "_kronecker_mul", lambda a, b: calls.append(len(a)) or real(a, b))
    below = Poly(range(1, KRONECKER_MIN_LEN))
    at = Poly(range(1, KRONECKER_MIN_LEN + 1))
    longer = below * at  # shorter operand just below the crossover
    assert at * longer == longer * at  # at the crossover, from either side
    assert calls == [KRONECKER_MIN_LEN, KRONECKER_MIN_LEN]


def test_poly_generic_gauss_coefficients():
    rng = random.Random(31)
    for _ in range(20):
        p = rand_poly(rng, scalar=lambda r: rand_gauss(r))
        q = rand_poly(rng, scalar=lambda r: rand_gauss(r))
        assert p * q == q * p
        assert (p + q) - q == p


def test_poly_power():
    assert (X + 1) ** 2 == Poly([1, 2, 1])
    assert Poly([2]) ** 10 == Poly([1024])
    assert X ** 0 == ONE


# -- Gaussian rationals -----------------------------------------------------

def test_gauss_imaginary_unit_squares_to_minus_one():
    assert I * I == GaussRational(-1, 0)
    assert I * I == -1


def test_gauss_field_axioms_random():
    rng = random.Random(23)
    for _ in range(60):
        a, b, c = rand_gauss(rng), rand_gauss(rng), rand_gauss(rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if b:
            assert (a / b) * b == a


# -- quadratic extension ----------------------------------------------------

def test_alpha_beta_construction():
    alpha = quad_from_alpha(ONE)
    assert alpha.a == Poly([F(1, 2)]) and alpha.b == Poly([F(1, 2)])
    assert alpha.modulus == Poly([5])


def test_vieta_sum_and_product():
    for h in (ONE, X, Poly([1, 0, 2])):
        alpha, beta = quad_from_alpha(h), quad_from_beta(h)
        assert alpha + beta == h
        assert alpha * beta == -1


def test_radical_squares_to_modulus():
    for h in (ONE, X):
        m = root_modulus(h)
        s = QuadExt.radical(m)
        assert s * s == QuadExt.from_poly(m, m)


def test_alpha_squared_frozen():
    # (h + s)^2 / 4 with s^2 = h^2 + 4 reduces to (h^2+2)/2 + (h/2) s
    for h in (X, Poly([2, 3])):
        alpha = quad_from_alpha(h)
        sq = alpha * alpha
        assert sq.a == (h * h + 2) * F(1, 2)
        assert sq.b == h * F(1, 2)


def test_characteristic_equation_exact():
    for h in (ONE, X, Poly([F(1, 3), -2, 0, 1])):
        for root in (quad_from_alpha(h), quad_from_beta(h)):
            assert root * root - root * h - QuadExt.one(root.modulus) == QuadExt.zero(root.modulus)


def test_alpha_beta_power_product():
    alpha, beta = quad_from_alpha(X), quad_from_beta(X)
    for n in range(6):
        assert (alpha * beta) ** n == (-1) ** n


def test_quad_pow_additive():
    alpha = quad_from_alpha(Poly([1, 2]))
    for m in range(5):
        for n in range(5):
            assert alpha ** (m + n) == (alpha ** m) * (alpha ** n)


def test_quad_pow_consistency():
    alpha = quad_from_alpha(X)
    assert alpha ** 0 == QuadExt.one(alpha.modulus)
    assert alpha ** 2 == alpha * alpha


def test_divexact_by_s():
    h = X
    m = root_modulus(h)
    s = QuadExt.radical(m)
    alpha, beta = quad_from_alpha(h), quad_from_beta(h)
    assert (alpha - beta).divexact_by_s() == QuadExt.one(m)
    assert (alpha ** 3 - beta ** 3).divexact_by_s() == QuadExt.from_poly(h * h + 1, m)
    assert (alpha ** 2 - beta ** 2).divexact_by_s() == QuadExt.from_poly(h, m)
    rng = random.Random(41)
    for _ in range(20):
        u = QuadExt(rand_poly(rng) * m, rand_poly(rng), m)
        assert u.divexact_by_s() * s == u


def test_divexact_by_s_rejects_nondivisible():
    m = root_modulus(X)
    with pytest.raises(NotDivisible):
        QuadExt(ONE, ZERO, m).divexact_by_s()


def test_modulus_mismatch_is_hard_error():
    u = quad_from_alpha(ONE)
    v = quad_from_alpha(X)
    with pytest.raises(ModulusMismatch):
        u * v
    with pytest.raises(ModulusMismatch):
        u + v


def test_quad_ring_axioms_random():
    rng = random.Random(47)
    m = root_modulus(Poly([1, 1]))

    def rand_quad():
        return QuadExt(rand_poly(rng, 3), rand_poly(rng, 3), m)

    for _ in range(25):
        u, v, w = rand_quad(), rand_quad(), rand_quad()
        assert u + v == v + u
        assert u * v == v * u
        assert (u * v) * w == u * (v * w)
        assert u * (v + w) == u * v + u * w


def test_conjugation_is_automorphism():
    rng = random.Random(53)
    m = root_modulus(X)
    for _ in range(20):
        u = QuadExt(rand_poly(rng, 3), rand_poly(rng, 3), m)
        v = QuadExt(rand_poly(rng, 3), rand_poly(rng, 3), m)
        assert (u * v).conjugate() == u.conjugate() * v.conjugate()
        assert (u + v).conjugate() == u.conjugate() + v.conjugate()
