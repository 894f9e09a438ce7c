"""The recurrence engine: frozen sequence values, agreement of all six
closed forms, and the exact identity verifiers."""

import math
import random
from fractions import Fraction

import pytest

from hxfib.fibseq import (
    DomainError,
    FibContext,
    IndexConstraintViolated,
    ZeroH,
)
from hxfib.scalars import (
    ONE,
    X,
    ZERO,
    Poly,
    quad_from_alpha,
    quad_from_beta,
)
from hxfib.suite import random_h_polys

F = Fraction

CLOSED_FORMS = (
    "explicit_binomial",
    "explicit_halving",
    "chebyshev_form",
    "binet",
    "differential_form",
)


def seq_values(h, count):
    ctx = FibContext(h)
    return [ctx.fib(n) for n in range(count)]


def test_fibonacci_numbers_for_constant_one():
    assert seq_values(1, 7) == [Poly([v]) for v in (0, 1, 1, 2, 3, 5, 8)]


def test_pell_numbers_for_constant_two():
    assert seq_values(2, 6) == [Poly([v]) for v in (0, 1, 2, 5, 12, 29)]


def test_polynomial_case():
    ctx = FibContext(X)
    assert ctx.fib(4) == Poly([0, 2, 0, 1])
    assert ctx.fib(5) == Poly([1, 0, 3, 0, 1])


def test_fib_rejects_negative_index():
    with pytest.raises(IndexConstraintViolated):
        FibContext(X).fib(-1)


# -- closed forms --------------------------------------------------------------

def test_closed_forms_at_one():
    ctx = FibContext(Poly([1, 2, 3]))
    for form in CLOSED_FORMS:
        assert getattr(ctx, form)(1) == ONE


def test_chebyshev_form_rejects_an_imaginary_residue(monkeypatch):
    from hxfib import fibseq
    from hxfib.scalars import NonRealResult

    one = fibseq._I_POWERS[0]
    monkeypatch.setattr(fibseq, "_I_POWERS", (one,) * 4)  # i^1 replaced by 1
    ctx = FibContext(X)
    assert ctx.chebyshev_form(1) == ONE
    for n in (2, 4):  # U_{n-1}(h/(2i)) is purely imaginary for even n
        with pytest.raises(NonRealResult):
            ctx.chebyshev_form(n)


def test_binomial_form_example():
    assert FibContext(X).explicit_binomial(4) == Poly([0, 2, 0, 1])


def test_halving_form_example():
    assert FibContext(X).explicit_halving(3) == Poly([1, 0, 1])


def test_chebyshev_form_example():
    for h in (X, Poly([2, -1]), Poly([F(1, 3)])):
        assert FibContext(h).chebyshev_form(3) == h * h + 1


def test_binet_examples():
    ctx = FibContext(X)
    assert ctx.binet(0) == ZERO
    assert ctx.binet(3) == Poly([1, 0, 1])
    assert ctx.binet(25) == ctx.fib(25)


def test_differential_form_example():
    ctx = FibContext(X)
    assert ctx.differential_form(4) == ctx.fib(4)
    assert ctx.differential_form(15) == ctx.fib(15)


@pytest.mark.parametrize("form", CLOSED_FORMS)
def test_closed_form_agrees_with_recurrence(form):
    rng = random.Random(61)
    hs = [ONE, Poly([2]), X, Poly([F(-1, 2), 0, 1])] + list(random_h_polys(9, 4))
    for h in hs:
        ctx = FibContext(h)
        for n in range(1, 31):
            assert getattr(ctx, form)(n) == ctx.fib(n), (form, h, n)


def test_closed_forms_reject_zero_index():
    ctx = FibContext(X)
    for form in ("explicit_binomial", "explicit_halving", "chebyshev_form",
                 "differential_form"):
        with pytest.raises(IndexConstraintViolated):
            getattr(ctx, form)(0)


def test_degree_bookkeeping():
    for h in (X, Poly([1, 2, 3]), Poly([0, 0, F(5, 2)])):
        ctx = FibContext(h)
        for n in range(1, 25):
            assert ctx.fib(n).degree == (n - 1) * h.degree


def test_alpha_power_cache_matches_pow_operator():
    ctx = FibContext(Poly([1, 1]))
    alpha, beta = quad_from_alpha(ctx.h), quad_from_beta(ctx.h)
    for n in range(12):
        assert ctx.alpha_pow(n) == alpha ** n
        assert ctx.beta_pow(n) == beta ** n


# -- identities ------------------------------------------------------------------

def test_genfun_truncated():
    assert FibContext(Poly([5, -2])).genfun_check(1).ok
    assert FibContext(1).genfun_check(10).ok
    assert FibContext(Poly([3, 0, 1])).genfun_check(20).ok


def test_sum_identity():
    ctx = FibContext(1)
    # 1+1+2+3+5 = 12 = 8 + 5 - 1
    assert ctx.sum_identity_check(5).ok
    assert FibContext(Poly([-4, F(1, 2)])).sum_identity_check(1).ok
    assert FibContext(X).sum_identity_check(12).ok


def test_sum_identity_rejects_zero_h():
    with pytest.raises(ZeroH):
        FibContext(ZERO).sum_identity_check(3)


def test_catalan():
    ctx = FibContext(1)
    assert ctx.catalan_check(4, 2).ok  # 1*8 - 9 = -1 = (-1)^1 * 1
    assert ctx.catalan_check(3, 0).ok
    assert FibContext(Poly([1, 0, 1])).catalan_check(20, 7).ok
    assert FibContext(Poly([1, 0, 1])).catalan_check(6, 6).ok  # r = n boundary


def test_catalan_rejects_bad_indices():
    with pytest.raises(IndexConstraintViolated):
        FibContext(1).catalan_check(3, 4)


def test_index_shift():
    ctx = FibContext(1)
    assert ctx.index_shift_check(5, 3, 5, 3, 2).ok  # a=c, b=d: both sides 0
    assert ctx.index_shift_check(5, 3, 4, 4, 0).ok
    # 5*2 - 3*3 = 1 = (-1) * (3*1 - 2*2)
    assert ctx.index_shift_check(5, 3, 4, 4, 1).ok
    assert FibContext(X).index_shift_check(9, 6, 8, 7, 3).ok


def test_index_shift_rejects_bad_indices():
    ctx = FibContext(1)
    with pytest.raises(IndexConstraintViolated):
        ctx.index_shift_check(5, 3, 4, 3, 1)  # sums differ
    with pytest.raises(IndexConstraintViolated):
        ctx.index_shift_check(5, 3, 4, 4, 4)  # shift goes negative


def test_identities_over_random_corpus():
    for h in random_h_polys(77, 6):
        ctx = FibContext(h)
        for n in range(0, 13):
            for r in range(0, n + 1):
                assert ctx.catalan_check(n, r).ok
        if h:
            for n in range(1, 13):
                assert ctx.sum_identity_check(n).ok
        assert ctx.genfun_check(12).ok


# -- ratio spot-check --------------------------------------------------------------

def test_ratio_limit_golden_ratio():
    residual = FibContext(1).ratio_limit_check(2.0, 40)
    assert residual < 1e-12


def test_ratio_limit_silver_ratio():
    ctx = FibContext(X)
    residual = ctx.ratio_limit_check(2.0, 40)
    assert abs((1 + math.sqrt(2.0)) - (2.0 + math.sqrt(8.0)) / 2) < 1e-15
    assert residual < 1e-12


def test_ratio_envelope_shrinks_with_n():
    ctx = FibContext(X)
    early = ctx.ratio_limit_check(2.0, 5)
    late = ctx.ratio_limit_check(2.0, 40)
    assert late <= early
    assert ctx.ratio_tolerance(2.0, 5) > ctx.ratio_tolerance(2.0, 40)
    assert early < ctx.ratio_tolerance(2.0, 5)


def test_ratio_limit_stays_finite_where_the_terms_overflow():
    # F_1600 at h = 1 is about 1e334, beyond double range
    for h, x0 in ((1, 2.0), (X, 2.0), (Poly([0, 0, 3]), 50.0)):
        ctx = FibContext(h)
        residual = ctx.ratio_limit_check(x0, 1600)
        assert math.isfinite(residual)
        assert residual < ctx.ratio_tolerance(x0, 1600)


def test_ratio_limit_n_one_is_h_over_one():
    ctx = FibContext(Poly([1, 1]))
    alpha = (3.0 + math.sqrt(13.0)) / 2
    assert ctx.ratio_limit_check(2.0, 1) == abs(3.0 - alpha)


def test_ratio_limit_rejects_nonpositive_h():
    with pytest.raises(DomainError):
        FibContext(X).ratio_limit_check(-1.0, 10)
    with pytest.raises(DomainError):
        FibContext(ZERO).ratio_limit_check(2.0, 10)


# -- caching ------------------------------------------------------------------------

def test_fib_product_cache_is_exact():
    ctx = FibContext(Poly([1, 1]))
    for u in range(8):
        for v in range(8):
            assert ctx.fib_product(u, v) == ctx.fib(u) * ctx.fib(v)


def test_binet_never_fails_on_corpus():
    for h in random_h_polys(99, 5):
        ctx = FibContext(h)
        for n in range(0, 31):
            ctx.binet(n)  # would raise NotDivisible / NonRealResult on a fault
