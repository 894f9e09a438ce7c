"""The recurrence engine: frozen sequence values, agreement of all six
closed forms, and the exact identity verifiers."""

import ast
import math
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hxfib import fibseq, suite
from hxfib.algebra import octonion_table, quaternion_table, scalar_table
from hxfib.fibseq import (
    HOLDS,
    DomainError,
    FibContext,
    IndexConstraintViolated,
    Verdict,
    ZeroH,
)
from hxfib.hyperfib import HyperContext
from hxfib.polytext import parse_poly
from hxfib.scalars import (
    ONE,
    X,
    ZERO,
    NotDivisible,
    Poly,
    QuadExt,
    poly_sum,
    quad_from_alpha,
    quad_from_beta,
)
from hxfib.suite import Corpus, _index_shift_tuples, random_h_polys, run_all

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
    from hxfib.scalars import NonRealResult

    # i^(n-1) replaced by 1: the rotation leaves the pair as it is
    monkeypatch.setattr(fibseq, "_rotate", lambda real, imag, k: (real, imag))
    ctx = FibContext(X)
    assert ctx.chebyshev_form(1) == ONE
    # U_{n-1}(h/(2i)) is purely imaginary for even n, with imaginary part +-F_n
    for n, residue in ((2, Poly([0, -1])), (4, Poly([0, 2, 0, 1]))):
        with pytest.raises(NonRealResult, match=re.escape(
                f"imaginary residue {residue!r} in Chebyshev form")):
            ctx.chebyshev_form(n)


def test_binomial_form_example():
    assert FibContext(X).explicit_binomial(4) == Poly([0, 2, 0, 1])


def test_halving_form_example():
    assert FibContext(X).explicit_halving(3) == Poly([1, 0, 1])


def test_chebyshev_form_example():
    for h in (X, Poly([2, -1]), Poly([F(1, 3)])):
        assert FibContext(h).chebyshev_form(3) == h * h + 1


def test_chebyshev_steps_match_the_recurrence_over_q_x_i():
    # U_(m+1) = 2t U_m - U_(m-1) at t = h/(2i), stepped in Q[x][i]; the
    # context steps the integer pair W_m = d^m U_m
    for h in (ZERO, ONE, X, Poly([F(-1, 2), 0, F(3, 2)]), Poly([F(5, 6), 0, 0, -2, F(1, 4)])):
        ctx, two_t = FibContext(h), QuadExt(0, -h, -1)
        us = [QuadExt.one(-1), two_t]
        for m in range(16):
            us.append(us[-1] * two_t - us[-2])
            real, imag = ctx._chebyshev_u(m)
            assert QuadExt(Poly(real), Poly(imag), -1) == us[m] * h.den ** m, (h, m)


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


# -- packed closed forms against the polynomial route -----------------------------

PACKED_FORMS = ("explicit_binomial", "explicit_halving", "differential_form")


def derivative(p):
    """d/dy of a `Poly` in y, by the power rule on its coefficients."""
    return Poly([k * c for k, c in enumerate(p.coeffs)][1:])


def poly_route(h, n_max):
    """The binomial, halving and differential forms for n = 1..n_max on
    `Poly` products: powers of h and of h^2 + 4 by repeated products, and
    the literal derivatives in Q[y] composed with h by Horner."""
    h_pows, m_pows = [ONE], [ONE]
    for _ in range(n_max):
        h_pows.append(h_pows[-1] * h)
        m_pows.append(m_pows[-1] * (h * h + 4))
    for n in range(1, n_max + 1):
        ks = range((n - 1) // 2 + 1)
        binomial = poly_sum(h_pows[n - 2 * k - 1] * math.comb(n - k - 1, k) for k in ks)
        halving = poly_sum((h_pows[n - 2 * k - 1] * m_pows[k]) * math.comb(n, 2 * k + 1)
                           for k in ks) * F(1, 2 ** (n - 1))
        terms = []
        for k in ks:
            mono = Poly.monomial(n - k - 1)
            for _ in range(k):
                mono = derivative(mono)
            terms.append(mono * F(1, math.factorial(k)))
        differential = ZERO  # the sum in Q[y] composed with h, by Horner
        for c in reversed(poly_sum(terms).coeffs):
            differential = differential * h + c
        yield n, dict(zip(PACKED_FORMS, (binomial, halving, differential)))


def packed_form_hs():
    """h = 0, a negative constant, x, denominators 3 and 6, a sparse
    degree-4 h with negative coefficients, and h whose coefficients do not
    fit one byte, which the forms at n = 1 still pack."""
    return [ZERO, Poly([-3]), X, Poly([F(2, 3), -1]), Poly([F(-5, 6), 0, F(1, 2)]),
            Poly([-2, 0, 0, 0, -3]), Poly([1, 0, -4, 0, F(7, 2)]),
            Poly([200]), Poly([0, -300]), Poly([F(1, 3), 150])]


def test_packed_closed_forms_match_the_polynomial_route(monkeypatch):
    bounds = []
    real = fibseq._pack_width
    monkeypatch.setattr(fibseq, "_pack_width", lambda bound: bounds.append(bound) or real(bound))
    for h in packed_form_hs():
        ctx = FibContext(h)
        for n, want in poly_route(h, 30):
            for form in PACKED_FORMS:
                got = getattr(ctx, form)(n)
                assert got == want[form] == ctx.fib(n), (form, h, n)
                # the bound covers G = den d^(n-1) F_n, den = 2^(n-1) for halving
                scale = h.den ** (n - 1) * (2 ** (n - 1) if form == "explicit_halving" else 1)
                g = got * scale
                # and H = d h, which is packed whatever the terms
                height = max(map(abs, g.num + (h * h.den).num), default=0)
                assert g.den == 1 and bounds.pop() >= height
    assert not bounds


def test_packed_closed_forms_assert_their_slot_width(monkeypatch):
    h = Poly([1, 0, -4, 0, F(7, 2)])
    assert all(getattr(FibContext(h), form)(9) == FibContext(h).fib(9) for form in PACKED_FORMS)
    # one byte below what the coefficient bound needs
    monkeypatch.setattr(fibseq, "_pack_width", lambda bound: bound.bit_length() // 8)
    ctx = FibContext(h)
    for form in PACKED_FORMS:
        for n in (1, 2, 9, 30):
            with pytest.raises(AssertionError):
                getattr(ctx, form)(n)
    # the battery records no verdict for them: the error is not an expected one
    corpus = Corpus(seed=0, h_polys=(h,), algebras=(), n_max=4)
    for family in ("closed_form_binomial", "closed_form_halving", "closed_form_differential"):
        with pytest.raises(AssertionError):
            run_all(corpus, include={family})


#: the closed-form families of the battery, by the method each compares
FORM_FAMILIES = {"closed_form_binomial": "explicit_binomial",
                 "closed_form_halving": "explicit_halving",
                 "closed_form_chebyshev": "chebyshev_form", "closed_form_binet": "binet",
                 "closed_form_differential": "differential_form"}


def random_form_hs(seed, count):
    """h of degree 0-6 with coefficient denominators up to 7, about a third
    of them with a zero constant term."""
    rng, hs = random.Random(seed), []
    while len(hs) < count:
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(rng.randint(1, 7))]
        if rng.random() < 0.35:
            coeffs[0] = 0
        if any(coeffs):
            hs.append(Poly(coeffs))
    return hs


#: a cached term raised by a term, (index, raise), the later terms
#: following it; F_0 + x makes G_0 = x/d, not integral where d > 1
CACHED_FAULTS = {"exact": None, "f0_plus_x": (0, X), "f5_plus_1": (5, ONE),
                 "f7_plus_half_x": (7, X * F(1, 2))}


def _raise_cached_term(fault, monkeypatch):
    """Make every new context cache the term of `CACHED_FAULTS[fault]` raised."""
    real_init = FibContext.__init__

    def init(self, h):
        real_init(self, h)
        if CACHED_FAULTS[fault]:
            k, raised = CACHED_FAULTS[fault]
            self.fib(k)
            self._fib[k] = self._fib[k] + raised

    monkeypatch.setattr(FibContext, "__init__", init)


@pytest.mark.parametrize("fault", sorted(CACHED_FAULTS))
def test_closed_forms_match_a_direct_comparison(fault, monkeypatch):
    _raise_cached_term(fault, monkeypatch)
    hs = random_form_hs(2803, 5) + random_form_hs(2811, 5) + [X, Poly([0, F(1, 6)])]
    assert any(h.den > 1 for h in hs) and any(not h.coeffs[0] for h in hs)
    report = run_all(Corpus(seed=0, h_polys=tuple(hs), algebras=(), n_max=30),
                     include=set(FORM_FAMILIES))
    assert len(report.checks) == len(hs) * 30 * 5
    refs = {}
    for record in report.checks:
        h, n = record.params["h"], record.params["n"]
        ref = refs.setdefault(h, FibContext(parse_poly(h)))
        method = FORM_FAMILIES[record.name]
        try:
            same = getattr(ref, method)(n) == ref.fib(n)
            want = ("pass", None) if same else (
                "fail", f"{method} disagrees with the recurrence at n={n}")
        except NonRealResult as exc:
            want = ("fail", f"NonRealResult: {exc}")
        assert (record.verdict, record.witness) == want, (h, n, method)
    # a term below n that breaks the scaling of G leaves F_1 right
    first = {r.verdict for r in report.checks if r.params["n"] == 1}
    assert first == {"pass"} and bool(report.failures) == (fault != "exact")


def test_a_raised_term_alone_widens_the_packed_comparison(monkeypatch):
    # F_5 + 2^200 over h = x: the terms of each form fit one-byte slots, so
    # only den N_5 in the bound gives G_5 the slot its coefficient needs
    bounds = []
    real = fibseq._pack_width
    monkeypatch.setattr(fibseq, "_pack_width", lambda bound: bounds.append(bound) or real(bound))
    ctx = FibContext(X)
    ctx.fib(8)
    ctx._fib[5] = ctx._fib[5] + 2 ** 200
    for form in PACKED_FORMS:
        test = ctx.form_test(form)
        assert [test(n) for n in (4, 5, 6)] == [True, False, True]
        compared = bounds[1]
        assert getattr(ctx, form)(5) != ctx.fib(5)  # unpacked, from the terms alone
        own = bounds[-1]
        assert own < 2 ** 200 < compared and real(own) < real(compared) == 32
        bounds.clear()


def per_coefficient_scaling(ctx, top):
    """G_k = d^(k-1) F_k and N_k = ||G_k||_1 for k <= top, each coefficient
    of d^k num(F_k) tested and divided by den(F_k) d on its own: (terms,
    norms, the `NotDivisible` text that stops them or None)."""
    d, terms, norms = ctx.h.den, [], []
    for k in range(top + 1):
        f = ctx.fib(k)
        g = [v * d ** k for v in f.num]
        if any(v % (f.den * d) for v in g):
            return terms, norms, f"d^{k - 1} F_{k} has a non-integer coefficient"
        terms.append(tuple(v // (f.den * d) for v in g))
        norms.append(sum(map(abs, terms[-1])))
    return terms, norms, None


def _unreduced(f, c):
    """F with c times its numerator over c times its denominator."""
    return Poly._raw(tuple(c * v for v in f.num), c * f.den)


#: a cached term replaced, (index, the term from F_k and d), the later terms
#: following it
SCALED_TERM_FAULTS = {
    "exact": None,
    "f5_non_integral": (5, lambda f, d: f + X * F(1, 2 * d ** 5)),
    "f0_d_x": (0, lambda f, d: X * d),
    "f0_half": (0, lambda f, d: Poly([F(1, 2)])),
    "f3_zero": (3, lambda f, d: ZERO),
    "f4_content": (4, lambda f, d: f * 6),
    "f4_unreduced": (4, lambda f, d: _unreduced(f, 3 * d ** 4)),
    "f6_unreduced_non_integral": (6, lambda f, d: _unreduced(f + X * F(1, d ** 6), 2)),
}


@pytest.mark.parametrize("fault", sorted(SCALED_TERM_FAULTS))
def test_scaling_by_one_quotient_matches_the_per_coefficient_route(fault):
    hs = random_form_hs(3301, 12) + [X, Poly([F(-7, 3)]), Poly([0, F(1, 6)])]
    assert max(h.degree for h in hs) == 6 and sum(h.den > 1 for h in hs) > 10
    routes = set()  # (whether den(F_k) d divides d^k, k) of each term scaled
    for h in hs:
        ctx, ref = FibContext(h), FibContext(h)
        if SCALED_TERM_FAULTS[fault]:
            k, term = SCALED_TERM_FAULTS[fault]
            for c in (ctx, ref):
                c.fib(k + 1)
                c._fib[k] = term(c._fib[k], h.den)
                del c._fib[max(k + 1, 2):]  # the later terms follow it
        want = per_coefficient_scaling(ref, 14)
        raised = None
        for top in (0, 3, 14):  # a cold context, then extended twice
            try:
                ctx._scale_to(top)
            except NotDivisible as exc:
                raised = str(exc)
                break
        assert (ctx._scaled, ctx._norms, raised) == want, h
        routes |= {(h.den ** k % (ctx.fib(k).den * h.den) == 0, k)
                   for k in range(len(ctx._scaled) + bool(raised))}
    # a canonical term takes the per-coefficient route at k = 0 alone, and
    # the other terms at their own index too; G_0 = 1/(2d) raises at once
    slow = {k for quotient, k in routes if not quotient}
    assert any(quotient for quotient, _ in routes) == (fault != "f0_half")
    if fault in ("f5_non_integral", "f4_unreduced", "f6_unreduced_non_integral"):
        assert slow == {0, SCALED_TERM_FAULTS[fault][0]}
    else:
        assert slow == {0}


BINET_FAMILIES = {"closed_form_binet", "hyper_binet"}
#: a root power, its name and how it is made wrong at every n >= 2, where
#: the recurrence of the root vectors is silent
ROOT_POWER_FAULTS = {
    "alpha_pow_b": ("alpha_pow", lambda p: QuadExt(p.a, p.b + X, p.modulus)),
    "beta_pow_b": ("beta_pow", lambda p: QuadExt(p.a, p.b + X, p.modulus)),
    "beta_pow_a": ("beta_pow", lambda p: QuadExt(p.a + X, p.b, p.modulus)),
    "beta_pow_modulus": ("beta_pow", lambda p: QuadExt(p.a, p.b, p.modulus + 1)),
}
#: faults of the Binet route differential: the swapped roots of the
#: battery, a doubled F_1, cached terms raised as in the closed-form
#: differential (F_7 + x/2 makes scaling G to 7 raise where d is odd), and
#: the root power faults
BINET_FAULTS = ["exact", "roots_swapped", "wrong_initial_value", "f5_plus_1", "f7_plus_half_x",
                *ROOT_POWER_FAULTS]


def _break_root_power(fault, monkeypatch):
    name, wrong = ROOT_POWER_FAULTS[fault]
    real = getattr(FibContext, name)
    monkeypatch.setattr(FibContext, name,
                        lambda self, n: wrong(real(self, n)) if n >= 2 else real(self, n))


@pytest.mark.parametrize("fault", BINET_FAULTS)
def test_binet_checks_match_the_direct_comparison(fault, monkeypatch):
    # both Binet families read `binet_matches`, here against binet(n) == F_n
    if fault == "roots_swapped":
        monkeypatch.setattr(FibContext, "roots", suite._faulty_roots)
    elif fault == "wrong_initial_value":
        monkeypatch.setattr(fibseq, "_INITIAL_TERMS", (0, 2))
    elif fault in ROOT_POWER_FAULTS:
        _break_root_power(fault, monkeypatch)
    elif fault != "exact":
        _raise_cached_term(fault, monkeypatch)
    hs = random_form_hs(2803, 5) + random_form_hs(2811, 5) + [ZERO]
    assert any(h.den > 1 for h in hs) and any(h.den % 2 for h in hs)
    corpus = Corpus(seed=0, h_polys=tuple(hs), algebras=(quaternion_table(), octonion_table()),
                    n_max=30)
    fast = run_all(corpus, include=BINET_FAMILIES)
    assert {c.name for c in fast.checks} == BINET_FAMILIES
    monkeypatch.setattr(FibContext, "binet_matches", lambda self, n: self.binet(n) == self.fib(n))
    assert fast.comparable() == run_all(corpus, include=BINET_FAMILIES).comparable()
    assert {c.name for c in fast.failures} == (set() if fault == "exact" else BINET_FAMILIES)


@pytest.mark.parametrize("fault", ["alpha_pow_b", "beta_pow_b"])
def test_root_powers_wrong_above_n_1_fail_every_binet_family(fault, monkeypatch):
    # the quadratic identities read the root vectors, so only the families
    # that compare the closed form see a root power that is wrong past the
    # seeds; alpha^n - beta^n stays divisible by s, so each fails on its verdict
    _break_root_power(fault, monkeypatch)
    report = run_all(suite.mutation_corpus())
    assert {c.name for c in report.failures} == BINET_FAMILIES | {"dim1_specialization"}
    assert {suite._failure_kind(c.witness) for c in report.failures} == {"verdict"}


def test_fault_free_binet_checks_never_divide_by_s(monkeypatch):
    reads = []
    real = FibContext.binet
    monkeypatch.setattr(FibContext, "binet", lambda self, n: reads.append(n) or real(self, n))
    hs = random_form_hs(2803, 5) + [ZERO, X]
    corpus = Corpus(seed=0, h_polys=tuple(hs), algebras=(quaternion_table(),), n_max=30)
    assert not run_all(corpus, include=BINET_FAMILIES).failures
    assert reads == []


def test_root_vectors_and_differential_terms_build_no_poly(monkeypatch):
    ctx = FibContext(Poly([F(-5, 6), 0, F(1, 2)]))
    ctx._roots_to(1, 0)  # the root check, once per context, works in Q[x][s]

    def refuse(*args, **kwargs):
        raise AssertionError("a Poly was built")

    for name in ("_rational", "_raw", "__init__"):
        monkeypatch.setattr(Poly, name, refuse)
    assert len(ctx._roots_to(30, 0)) == 31 and len(ctx._roots_to(30, 1)) == 32
    assert [ctx.differential_terms(n) for n in (1, 2, 7)] == [
        ([(1, 0, 0)], 1), ([(1, 1, 0)], 1), ([(1, 0, 0), (6, 2, 0), (5, 4, 0), (1, 6, 0)], 1)]


def test_degree_bookkeeping():
    for h in (X, Poly([1, 2, 3]), Poly([0, 0, F(5, 2)])):
        ctx = FibContext(h)
        for n in range(1, 25):
            assert ctx.fib(n).degree == (n - 1) * h.degree


def test_alpha_power_cache_matches_repeated_products():
    ctx = FibContext(Poly([1, 1]))
    alpha, beta = quad_from_alpha(ctx.h), quad_from_beta(ctx.h)
    alpha_n = beta_n = QuadExt.one(alpha.modulus)
    for n in range(12):
        assert ctx.alpha_pow(n) == alpha_n
        assert ctx.beta_pow(n) == beta_n
        alpha_n, beta_n = alpha_n * alpha, beta_n * beta


# -- identities ------------------------------------------------------------------

def test_genfun_truncated():
    assert FibContext(Poly([5, -2])).genfun_check(1).ok
    assert FibContext(1).genfun_check(10).ok
    assert FibContext(Poly([3, 0, 1])).genfun_check(20).ok


def test_genfun_rejects_a_negative_truncation(monkeypatch):
    # a seed that N = 0 already rejects: at N = -1 no coefficient is left
    # to compare, which must not read as a pass
    monkeypatch.setattr(fibseq, "_INITIAL_TERMS", (5, 7))
    for check in (FibContext(X).genfun_check, HyperContext(X, quaternion_table()).genfun_check):
        assert not check(0).ok
        with pytest.raises(IndexConstraintViolated):
            check(-1)
    corpus = Corpus(seed=0, h_polys=(X,), algebras=(quaternion_table(),), trunc_n=-1)
    report = run_all(corpus, include={"genfun_real", "hyper_genfun"})
    assert {c.name for c in report.failures} == {"genfun_real", "hyper_genfun"}
    assert all(c.witness.startswith("IndexConstraintViolated: ") for c in report.failures)


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


# -- packed quadratic identities against the polynomial route ---------------------

def ref_catalan(ctx, n, r):
    """The straightforward Catalan check on memoized polynomial products."""
    lhs = ctx.fib_product(n - r, n + r) - ctx.fib_product(n, n)
    rhs = ctx.fib_product(r, r) * (-1 if (n - r - 1) % 2 else 1)
    return Verdict(True) if lhs == rhs else Verdict(False, f"n={n}, r={r}")


def ref_index_shift(ctx, a, b, c, d, r):
    """The straightforward index-shift check on memoized polynomial products."""
    lhs = ctx.fib_product(a, b) - ctx.fib_product(c, d)
    shifted = ctx.fib_product(a - r, b - r) - ctx.fib_product(c - r, d - r)
    if lhs == shifted * (-1 if r % 2 else 1):
        return Verdict(True)
    return Verdict(False, f"a={a}, b={b}, c={c}, d={d}, r={r}")


def seeded_hs(seed, count):
    """`count` nonzero h of degree up to 4 with sparse coefficients in
    [-9, 9] over denominators up to 4."""
    rng, hs = random.Random(seed), []
    while len(hs) < count:
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 4)) * rng.randint(0, 1)
                  for _ in range(rng.randint(1, 5))]
        if any(coeffs):
            hs.append(Poly(coeffs))
    return hs


def packed_test_hs():
    """Seeded h: denominators above 1, constants, x, negative and sparse
    coefficients, degree 4."""
    return [ONE, Poly([F(-7, 3)]), X, Poly([0, 0, 0, 0, F(-3, 2)]),
            Poly([F(5, 6), 0, 0, -2, F(1, 4)])] + seeded_hs(113, 4)


def both_routes(fast, ref):
    """Verdict pairs for every index-shift tuple to 12 and every Catalan
    (n, r) with 0 <= r <= n <= 16."""
    for n in range(17):
        for r in range(n + 1):
            yield fast.catalan_check(n, r), ref_catalan(ref, n, r)
    for tup in _index_shift_tuples(12):
        yield fast.index_shift_check(*tup), ref_index_shift(ref, *tup)


def f5_coefficient_raised(ctx, prefill):
    """Raise the x coefficient of the cached F_5 by one, before or after
    the later terms are derived from it."""
    ctx.fib(16 if prefill else 5)
    ctx._fib[5] = ctx._fib[5] + X


def test_packed_quadratic_identities_match_the_polynomial_route():
    hs = packed_test_hs()
    assert any(h.den > 1 for h in hs) and any(h.degree == 4 for h in hs)
    for h in hs:
        pairs = list(both_routes(FibContext(h), FibContext(h)))
        assert all(fast == ref == Verdict(True) for fast, ref in pairs), h


@pytest.mark.parametrize("prefill", [False, True], ids=["before", "after"])
def test_packed_quadratic_identities_fail_where_the_polynomial_route_fails(prefill):
    for h in packed_test_hs():
        fast, ref = FibContext(h), FibContext(h)
        f5_coefficient_raised(fast, prefill)
        f5_coefficient_raised(ref, prefill)
        pairs = list(both_routes(fast, ref))
        assert [fast for fast, _ in pairs] == [ref for _, ref in pairs], h
        assert not all(fast.ok for fast, _ in pairs), h


@pytest.mark.parametrize("seed", [(0, 1), (1, 1), (1, -1)], ids=["exact", "shifted", "f2_zero"])
def test_catalan_at_n_equal_r_reads_both_norms(seed, monkeypatch):
    # the identity reads G_0 G_2n == 0 there; with F_0 = 1, F_1 = -1 and
    # h = 1, F_2 = 0, so at n = 1 it holds although G_0 is not zero
    monkeypatch.setattr(fibseq, "_INITIAL_TERMS", seed)
    oks = []
    for h in (ONE, X, Poly([2, 0, -1])):
        fast, ref = FibContext(h), FibContext(h)
        got = [fast.catalan_check(n, n) for n in range(8)]
        assert got == [ref_catalan(ref, n, n) for n in range(8)], h
        oks += [v.ok for v in got]
    assert all(oks) == (seed == (0, 1))
    assert FibContext(ONE).catalan_check(1, 1).ok == (seed != (1, 1))


#: the Catalan bases (r, delta) and the d'Ocagne bases e that the packed
#: tests below compare
CATALAN_BASES = [(r, delta) for r in range(6) for delta in range(-4, 5)]
DOCAGNE_BASES = range(-6, 7)


def test_packed_checks_assert_their_slot_width(monkeypatch, direct_route):
    h = Poly([F(5, 6), 0, 0, -2, F(1, 4)])
    ctx = FibContext(h)
    assert all(ctx._catalan_base(*key) for key in CATALAN_BASES)
    assert all(ctx._docagne_base(e) for e in DOCAGNE_BASES)
    # one byte below what the coefficient bound needs
    monkeypatch.setattr(fibseq, "_pack_width", lambda bound: bound.bit_length() // 8)
    ctx = FibContext(h)
    for key in ((0, 0), (1, -4), (3, 1), (5, 4)):
        with pytest.raises(AssertionError):
            ctx._catalan_base(*key)
    # the d'Ocagne bases are tuple comparisons, which pack nothing
    assert all(ctx._docagne_base(e) for e in DOCAGNE_BASES)
    # off the prefix the scalar checks compare in Q[x], which packs nothing
    direct_route()
    assert ctx.catalan_check(12, 5).ok and ctx.index_shift_check(9, 6, 8, 7, 3).ok


def test_packed_bound_covers_every_product_coefficient(monkeypatch):
    bounds = []
    real = fibseq._pack_width
    monkeypatch.setattr(fibseq, "_pack_width", lambda bound: bounds.append(bound) or real(bound))
    for h in packed_test_hs():
        ctx, d = FibContext(h), h.den
        modulus = (h * h + 4) * F(d) ** 2
        alpha = quad_from_alpha(h)
        powers = [QuadExt.one(alpha.modulus)]

        def scaled(n):
            """G_n = d^(n-1) F_n."""
            g = ctx.fib(n) * F(d) ** (n - 1)
            assert g.den == 1
            return g

        def height(p):
            return max(map(abs, p.num), default=0)

        def lucas(k):
            """A_k = 2 d^k a_k, with alpha^k = a_k + b_k s from repeated
            products."""
            while len(powers) <= k:
                powers.append(powers[-1] * alpha)
            return powers[k].a * 2 * F(d) ** k

        # the seeds of P(a, b), in the order the flags compare them
        for b in range(6):
            for a in (b, b + 1):
                ctx._product_holds(a, b)
                need = (height(modulus * scaled(a) * scaled(b)) + height(lucas(a + b))
                        + d ** (2 * b) * height(lucas(a - b)))
                assert bounds.pop() >= need, (h, a, b)
        for e in DOCAGNE_BASES:
            ctx._docagne_base(e)  # a tuple comparison: nothing is packed
        assert not bounds


# -- the recurrence prefix against the Q[x] comparisons -------------------------------

#: three corpora of h in the style of `packed_test_hs`
PAIR_CORPORA = [packed_test_hs(), seeded_hs(5, 5), seeded_hs(29, 5)]
PAIR_TABLE = quaternion_table(F(1, 2), -1)


def f7_half_x_added(ctx):
    ctx.fib(7)
    ctx._fib[7] = ctx._fib[7] + X * F(1, 2)


#: faults on one context's cached terms, and seeds (F_0, F_1) other than
#: (0, 1): a doubled sequence, F_1 = 1/2, whose G_1 is not an integer, and
#: a shifted sequence, whose residuals all vanish but whose G_0 is not zero
PAIR_FAULTS = {
    "exact": None,
    "f5_plus_x_before": lambda ctx: f5_coefficient_raised(ctx, False),
    "f5_plus_x_after": lambda ctx: f5_coefficient_raised(ctx, True),
    "f7_plus_half_x": f7_half_x_added,
    "double_seed": (0, 2),
    "half_seed": (0, F(1, 2)),
    "shifted_seed": (1, 1),
}


def _outcome(check, *args):
    try:
        return check(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)


def pair_route_outcomes(h, fault):
    """Every scalar Catalan, algebra Catalan, Cassini and d'Ocagne and
    index-shift outcome over one context, in one order; then, on the same
    warm context, every flag P(a, b) with b <= 4 and a <= b + 6, each with
    whether the recurrence reaches a, and every d'Ocagne base at |e| <= 8."""
    ctx = FibContext(h)
    if callable(fault):
        fault(ctx)
    hyper, got = HyperContext(ctx, PAIR_TABLE), []
    for n in range(10):
        for r in range(n + 1):
            got.append(_outcome(ctx.catalan_check, n, r))
            got.append(_outcome(hyper.catalan_check, n, r))
        if n:
            got.append(_outcome(hyper.cassini_check, n))
        got += [_outcome(hyper.docagne_check, n, r) for r in range(n + 1, 10)]
    got += [_outcome(ctx.index_shift_check, *tup) for tup in _index_shift_tuples(8)]
    products = {(a, b): (_outcome(ctx._product_holds, a, b),
                         _outcome(ctx._recurrence_holds, a) is True)
                for b in range(5) for a in range(b, b + 7)}
    return got, products, [_outcome(ctx._docagne_base, e) for e in range(-8, 9)]


@pytest.mark.parametrize("fault", sorted(PAIR_FAULTS))
@pytest.mark.parametrize("corpus", range(len(PAIR_CORPORA)))
def test_pair_runs_keep_every_direct_verdict(corpus, fault, monkeypatch, direct_route):
    if isinstance(PAIR_FAULTS[fault], tuple):
        monkeypatch.setattr(fibseq, "_INITIAL_TERMS", PAIR_FAULTS[fault])
    fast = [pair_route_outcomes(h, PAIR_FAULTS[fault]) for h in PAIR_CORPORA[corpus]]
    direct_route()
    direct = [pair_route_outcomes(h, PAIR_FAULTS[fault]) for h in PAIR_CORPORA[corpus]]
    reached = set()
    for (got, products, docagne), (ref, ref_products, ref_docagne) in zip(fast, direct):
        assert got == ref
        assert docagne == ref_docagne  # the d'Ocagne bases read no prefix
        for (a, b), (flag, reaches) in products.items():
            if a <= b + 1 or isinstance(flag, tuple):
                # a seed is compared on either route, and an error raised on both
                assert flag == ref_products[a, b][0], (a, b)
            else:
                # above its seeds the direct route proves nothing, and the
                # fast one holds where both seeds do and the prefix reaches a
                assert ref_products[a, b][0] is False
                seeds = products[b, b][0], products[b + 1, b][0]
                assert flag == (seeds == (True, True) and reaches), (a, b)
            reached.add(reaches)
    if callable(PAIR_FAULTS[fault]):  # a wrong term stops the prefix part way
        assert reached == {True, False}
    elif fault == "exact":
        assert reached == {True}
    failed = {got for verdicts, *_ in fast for got in verdicts} - {HOLDS}
    assert bool(failed) == (fault != "exact"), failed


def test_pair_runs_deeper_than_the_recursion_limit(monkeypatch, direct_route):
    products = []
    real = FibContext.fib_product
    monkeypatch.setattr(FibContext, "fib_product",
                        lambda self, *args: products.append(args) or real(self, *args))
    checks = [("index_shift_check", (1500, 1500, 1499, 1501, 1), 1501),
              ("catalan_check", (1200, 3), 1203)]
    assert 1501 > sys.getrecursionlimit()
    fast = []
    for name, args, top in checks:
        ctx = FibContext(ONE)
        fast.append(getattr(ctx, name)(*args))
        assert ctx._recurrence_top == top  # answered by the prefix, not compared in Q[x]
    assert products == []
    direct_route()
    assert fast == [getattr(FibContext(ONE), name)(*args) for name, args, _ in checks]
    assert products and fast == [HOLDS, HOLDS]


#: (read, top): a check whose largest index read is top
TOP_READS = [
    (lambda ctx: ctx.index_shift_check(6, 2, 4, 4, 1), 6),
    (lambda ctx: ctx.catalan_check(4, 2), 6),
    # over the one-dimensional table, Cassini at 3 reads F_4, F_2 and F_3
    (lambda ctx: HyperContext(ctx, scalar_table()).cassini_check(3), 4),
    # and d'Ocagne at (2, 4) reads F_4, F_3, F_5 and F_2
    (lambda ctx: HyperContext(ctx, scalar_table()).docagne_check(2, 4), 5),
]


@pytest.mark.parametrize("h", [ONE, X, Poly([F(-7, 3)])], ids=["one", "x", "fractional"])
def test_a_term_raised_at_the_top_index_read_is_seen(h, direct_route):
    def outcomes():
        got = []
        for read, top in TOP_READS:
            ctx = FibContext(h)
            ctx.fib(top + 3)  # the later terms are cached first
            ctx._fib[top] = ctx._fib[top] + X
            got.append((read(ctx), read(ctx)))
        return got

    fast = outcomes()
    direct_route()
    assert fast == outcomes()
    assert [getattr(got, "ok", got) for pair in fast for got in pair] == [False] * 8


#: the reads with the smallest top indices: scalar Catalan at n > r, and
#: the index shift at r >= 1
SMALLEST_TOPS = [
    lambda ctx: ctx.catalan_check(1, 0),
    lambda ctx: ctx.index_shift_check(1, 1, 1, 1, 1),
    lambda ctx: ctx.index_shift_check(2, 1, 1, 2, 1),
]


@pytest.mark.parametrize("seed", [(0, 1), (0, F(1, 2))], ids=["exact", "half_seed"])
@pytest.mark.parametrize("h", [X, Poly([F(-7, 3)])], ids=["x", "fractional"])
def test_the_smallest_tops_on_a_cold_context(h, seed, monkeypatch, direct_route):
    # the prefix memo starts at 1 before anything is scaled, so a read at
    # top 1 must still scale G (and raise NotDivisible where it should)
    monkeypatch.setattr(fibseq, "_INITIAL_TERMS", seed)
    fast = [_outcome(read, FibContext(h)) for read in SMALLEST_TOPS]
    direct_route()
    assert fast == [_outcome(read, FibContext(h)) for read in SMALLEST_TOPS]
    assert fast == ([HOLDS] * 3 if seed == (0, 1) else
                    [("NotDivisible", "d^0 F_1 has a non-integer coefficient")] * 3)


def test_the_memoized_facts_reject_indices_below_their_start():
    cold, warm = FibContext(X), FibContext(X)
    warm.fib(8)
    warm._fib[6] = warm._fib[6] + 1
    warm.residual(8), warm.sum_residual(6)
    assert warm.residual(6)
    for ctx in (cold, warm):
        for read, index in ((ctx.residual, 1), (ctx.residual, 0), (ctx.residual, -1),
                            (ctx.h_partial_sum, -1), (ctx.sum_residual, -1)):
            with pytest.raises(IndexConstraintViolated):
                read(index)
    assert warm._recurrence_holds(5) and not warm._recurrence_holds(6)
    assert warm._recurrence_top == 5


def test_only_the_packed_primitives_pick_a_slot_width():
    # every other comparison goes through `_vanishes`, whose bound comes
    # from its own terms: a hand-written bound would read `_checked_width`
    owners = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and child.id == "_checked_width":
                owners.append(owner)
            visit(child, getattr(child, "name", "<lambda>")
                  if isinstance(child, (ast.FunctionDef, ast.Lambda)) else owner)

    visit(ast.parse(Path(fibseq.__file__).read_text()), "<module>")
    assert sorted(owners) == ["_packed_form", "_vanishes"]


def test_pack_width_is_the_smallest_power_of_two_that_fits():
    for bound in (0, 1, 127, 128, 2 ** 15 - 1, 2 ** 15, 2 ** 31, 2 ** 300):
        w = fibseq._pack_width(bound)
        assert bound < 2 ** (8 * w - 1) and w & (w - 1) == 0
        assert w == 1 or bound >= 2 ** (4 * w - 1)


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


@pytest.mark.parametrize("initial", [(0, 1), (0, 2)], ids=["exact", "wrong_initial_value"])
def test_sum_residual_matches_the_direct_expression(initial, monkeypatch):
    # rho_j = h (F_1 + ... + F_j) - F_(j+1) - F_j + 1; a doubled seed
    # doubles every term, so rho_j = 2 (0 - 1) + 1 = -1 at every j
    monkeypatch.setattr(fibseq, "_INITIAL_TERMS", initial)
    for h in (ONE, X, Poly([F(-1, 2), 0, F(3, 2)]), Poly([F(2, 3), F(-5, 4)])):
        ctx = FibContext(h)
        for j in (7, 0, 3, 11, 1):  # out of order: the memo fills up to j
            direct = (h * poly_sum(ctx.fib(k) for k in range(1, j + 1))
                      - ctx.fib(j + 1) - ctx.fib(j) + 1)
            assert ctx.sum_residual(j) == direct, (h, j)
            assert ctx.sum_residual(j) == (ZERO if initial == (0, 1) else -ONE)
