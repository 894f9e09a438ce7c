"""Hypercomplex sequence elements and their identity verifiers across the
builtin algebras, plus the one-dimensional specialization."""

import re
from dataclasses import replace
from fractions import Fraction

import pytest

from hxfib import fibseq, hyperfib, scalars, suite
from hxfib.algebra import (
    AlgebraTable,
    builtin,
    builtin_names,
    complex_table,
    dual_table,
    octonion_table,
    quaternion_table,
    scalar_table,
    split_complex_table,
)
from hxfib.fibseq import FibContext, IndexConstraintViolated, Verdict, ZeroH
from hxfib.hyperfib import HyperContext
from hxfib.scalars import (ONE, X, ZERO, NonRealResult, NotDivisible, Poly, QuadExt,
                           quad_from_alpha, quad_from_beta)
from hxfib.suite import corrupt_table_entry, random_h_polys

F = Fraction

ALGEBRAS = [
    complex_table(),
    split_complex_table(),
    dual_table(),
    quaternion_table(),
    quaternion_table(2, -3),
    octonion_table(),
]


# unital but otherwise arbitrary: e1*e1 = e2, e1*e2 = -e0, e2*e2 = e1
THREEFOLD = AlgebraTable("threefold", [
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[0, 1, 0], [0, 0, 1], [-1, 0, 0]],
    [[0, 0, 1], [-1, 0, 0], [0, 1, 0]],
])


def consts(*vals):
    return [Poly([v]) for v in vals]


# -- the elements -----------------------------------------------------------------

def test_element_coordinates_quaternion():
    ctx = HyperContext(1, quaternion_table())
    assert list(ctx.q(0).coords) == consts(0, 1, 1, 2)
    assert list(ctx.q(2).coords) == consts(1, 2, 3, 5)


def test_element_coordinates_complex():
    ctx = HyperContext(X, complex_table())
    assert list(ctx.q(1).coords) == [ONE, X]


def test_starred_roots_structure():
    ctx = HyperContext(X, quaternion_table())
    astar, bstar = ctx.stars()
    for k in range(4):
        assert astar.coords[k] == ctx.fib.alpha_pow(k)
        assert bstar.coords[k] == ctx.fib.beta_pow(k)


def test_star_products_do_not_commute_for_quaternions():
    ctx = HyperContext(1, quaternion_table())
    ab, ba = ctx.star_products()
    assert ab != ba


# -- recurrence and partial sums ----------------------------------------------------

def test_recurrence_hand_example():
    ctx = HyperContext(1, quaternion_table())
    assert ctx.q(2) == ctx.q(1) * ONE + ctx.q(0)
    assert list(ctx.q(2).coords) == consts(1, 2, 3, 5)


@pytest.mark.parametrize("table", ALGEBRAS, ids=lambda t: t.name)
def test_recurrence_across_algebras(table):
    ctx = HyperContext(X, table)
    for n in range(0, 19):
        assert ctx.recurrence_check(n).ok


def test_recurrence_dual_example():
    ctx = HyperContext(Poly([1, 0, 1]), dual_table())
    assert ctx.recurrence_check(5).ok


def test_partial_sum_small_cases():
    assert HyperContext(1, quaternion_table()).partial_sum_check(1).ok
    assert HyperContext(1, quaternion_table()).partial_sum_check(4).ok
    assert HyperContext(X, octonion_table()).partial_sum_check(10).ok


def test_partial_sum_rejects_zero_h():
    with pytest.raises(ZeroH):
        HyperContext(ZERO, complex_table()).partial_sum_check(2)


# -- the closed form ------------------------------------------------------------------

def test_binet_alignment_at_zero():
    for table in ALGEBRAS:
        assert HyperContext(Poly([2, 1]), table).binet_check(0).ok


def test_binet_quaternion_example():
    ctx = HyperContext(1, quaternion_table())
    assert list(ctx.q(5).coords) == consts(5, 8, 13, 21)
    assert ctx.binet_check(5).ok


def test_binet_octonion_example():
    assert HyperContext(Poly([2, 0, 1]), octonion_table()).binet_check(12).ok


@pytest.mark.parametrize("table", ALGEBRAS, ids=lambda t: t.name)
def test_binet_across_corpus(table):
    for h in random_h_polys(3, 2):
        ctx = HyperContext(h, table)
        for n in range(0, 21):
            assert ctx.binet_check(n).ok


# -- generating function ---------------------------------------------------------------

def test_genfun_small_and_medium():
    assert HyperContext(1, quaternion_table()).genfun_check(1).ok
    assert HyperContext(1, quaternion_table()).genfun_check(12).ok


def test_genfun_custom_three_dimensional_table():
    THREEFOLD.validate()
    ctx = HyperContext(X, THREEFOLD)
    assert ctx.genfun_check(15).ok
    assert ctx.binet_check(9).ok
    assert ctx.catalan_check(5, 3).ok


@pytest.mark.parametrize("table", ALGEBRAS, ids=lambda t: t.name)
def test_genfun_truncation_twenty(table):
    assert HyperContext(Poly([F(1, 2), 1]), table).genfun_check(20).ok


def f5_off_by_one(fib, prefill):
    """Raise F_5 by one in the context's cache, before or after the later
    terms are derived from it."""
    fib.fib(15 if prefill else 5)
    fib._fib[5] = fib._fib[5] + 1


GENFUN_HS = (ONE, X, Poly([F(-1, 2), 0, F(3, 2)]), ZERO)


def denominator_times_series(h, terms):
    """The coefficients of (1 - h t - t^2) * sum S_j t^j for j < len(terms):
    S_j - h S_{j-1} - S_{j-2}, with the terms at negative indices left out.
    The S_j may be polynomials or algebra elements with polynomial
    coordinates."""
    for j, got in enumerate(terms):
        if j >= 1:
            got = got - h * terms[j - 1]
        if j >= 2:
            got = got - terms[j - 2]
        yield got


def _ref_scalar_genfun(ctx, trunc):
    """Coefficient j of (1 - h t - t^2) sum F_n t^n as the convolution of
    the terms, against t."""
    terms = [ctx.fib(i) for i in range(trunc + 1)]
    for j, got in enumerate(denominator_times_series(ctx.h, terms)):
        if got != (ONE if j == 1 else ZERO):
            return Verdict(False, f"t^{j} coefficient of (1-ht-t^2)*series")
    return Verdict(True)


def genfun_expected(first_bad, trunc, text):
    """The verdict when t^first_bad is the first wrong coefficient, as the
    series-multiplication route gave it before the convolution replaced
    it."""
    if trunc < first_bad:
        return Verdict(True)
    return Verdict(False, f"t^{first_bad} {text}")


def test_scalar_genfun_convolution_keeps_verdicts_and_witnesses(monkeypatch):
    text = "coefficient of (1-ht-t^2)*series"
    for h in GENFUN_HS:
        with monkeypatch.context() as patched:
            patched.setattr(fibseq, "_INITIAL_TERMS", (0, 2))
            wrong_start = FibContext(h)
        late, early = FibContext(h), FibContext(h)
        f5_off_by_one(late, prefill=False)
        f5_off_by_one(early, prefill=True)
        for trunc in range(12):
            assert FibContext(h).genfun_check(trunc) == Verdict(True)
            assert wrong_start.genfun_check(trunc) == genfun_expected(1, trunc, text)
            assert late.genfun_check(trunc) == genfun_expected(5, trunc, text)
            assert early.genfun_check(trunc) == genfun_expected(5, trunc, text)
            for ctx in (wrong_start, late, early):
                assert ctx.genfun_check(trunc) == _ref_scalar_genfun(ctx, trunc)


@pytest.mark.parametrize("table", [quaternion_table(), octonion_table(), THREEFOLD],
                         ids=lambda t: t.name)
def test_hyper_genfun_notices_a_wrong_seed(table, monkeypatch):
    monkeypatch.setattr(fibseq, "_INITIAL_TERMS", (0, 2))
    for h in GENFUN_HS:
        verdict = HyperContext(h, table).genfun_check(5)
        assert not verdict.ok, h
        assert verdict.witness.split()[0] in ("t^0", "t^1"), verdict.witness


@pytest.mark.parametrize("table, first_bad", [
    (quaternion_table(), 2), (octonion_table(), 0), (THREEFOLD, 3),
], ids=lambda v: getattr(v, "name", None))
def test_genfun_convolution_keeps_verdicts_and_witnesses(table, first_bad, monkeypatch):
    # F_5 sits in coordinate k of Q_{5-k}, so the first wrong coefficient
    # is t^max(0, 5-k) for the last coordinate k = dim - 1: the t^0 and t^1
    # coefficients are compared with a numerator taken from outside the
    # cache.  A wrong seed doubles Q_0 against the numerator's F_k, so t^0
    # is wrong at once.
    text = "coefficient of the multiplied series"
    for h in GENFUN_HS:
        with monkeypatch.context() as patched:
            patched.setattr(fibseq, "_INITIAL_TERMS", (0, 2))
            wrong_start = HyperContext(h, table)
        late, early = HyperContext(h, table), HyperContext(h, table)
        f5_off_by_one(late.fib, prefill=False)
        f5_off_by_one(early.fib, prefill=True)
        for trunc in range(12):
            assert HyperContext(h, table).genfun_check(trunc) == Verdict(True)
            assert wrong_start.genfun_check(trunc) == genfun_expected(0, trunc, text)
            assert late.genfun_check(trunc) == genfun_expected(first_bad, trunc, text)
            assert early.genfun_check(trunc) == genfun_expected(first_bad, trunc, text)


# -- quadratic identities ----------------------------------------------------------------

def test_catalan_r_zero_both_sides_vanish():
    verdict = HyperContext(1, quaternion_table()).catalan_check(4, 0)
    assert type(verdict) is Verdict and verdict == Verdict(True)


def test_catalan_printed_form_agrees_at_r_one():
    ctx = HyperContext(1, quaternion_table())
    assert ctx.catalan_check(2, 1) == Verdict(True)
    assert ctx.printed_matches(2, 1) is True


def test_catalan_printed_form_differs_at_r_two():
    ctx = HyperContext(1, quaternion_table())
    assert ctx.catalan_check(3, 2) == Verdict(True)
    assert ctx.printed_matches(3, 2) is False


@pytest.mark.parametrize("table", ALGEBRAS, ids=lambda t: t.name)
def test_catalan_derived_form_across_corpus(table):
    for h in random_h_polys(15, 2):
        ctx = HyperContext(h, table)
        for n in range(0, 11):
            for r in range(0, n + 1):
                assert ctx.catalan_check(n, r).ok, (table.name, h, n, r)
                if r == 1:
                    assert ctx.printed_matches(n, r) is True


def test_cassini_equals_catalan_at_r_one():
    for table in (quaternion_table(), octonion_table()):
        ctx = HyperContext(Poly([1, 1]), table)
        for n in range(1, 10):
            assert ctx.cassini_check(n).ok
            assert ctx.catalan_check(n, 1).ok


def test_cassini_examples():
    assert HyperContext(1, quaternion_table()).cassini_check(1).ok
    assert HyperContext(X, octonion_table()).cassini_check(8).ok


def test_cassini_rejects_zero():
    with pytest.raises(IndexConstraintViolated):
        HyperContext(1, quaternion_table()).cassini_check(0)


def test_docagne_examples():
    assert HyperContext(1, quaternion_table()).docagne_check(0, 1).ok
    assert HyperContext(Poly([2, 3]), complex_table()).docagne_check(4, 5).ok
    assert HyperContext(X, octonion_table()).docagne_check(2, 7).ok


@pytest.mark.parametrize("table", ALGEBRAS, ids=lambda t: t.name)
def test_docagne_across_corpus(table):
    for h in random_h_polys(8, 2):
        ctx = HyperContext(h, table)
        for n in range(0, 10):
            for r in range(n + 1, 11):
                assert ctx.docagne_check(n, r).ok, (table.name, h, n, r)


def test_docagne_enforces_strict_inequality():
    ctx = HyperContext(1, quaternion_table())
    with pytest.raises(IndexConstraintViolated):
        ctx.docagne_check(3, 3)
    with pytest.raises(IndexConstraintViolated):
        ctx.docagne_check(3, 2)


def test_docagne_boundary_holds_when_lifted_by_hand():
    # at r = n the right side reduces to a*b* - b*a*, scaled by s; the
    # identity still holds even though the verifier's precondition is
    # strict, so lifting it by direct computation must agree.
    ctx = HyperContext(Poly([1, 1]), quaternion_table())
    n = r = 4
    lhs = ctx.q(r) * ctx.q(n + 1) - ctx.q(r + 1) * ctx.q(n)
    ab, ba = ctx.star_products()
    numerator = (ab - ba) if n % 2 == 0 else (ba - ab)
    for k in range(ctx.dim):
        quotient = numerator.coords[k].divexact_by_s()
        assert not quotient.b
        assert quotient.a == lhs.coords[k]


# -- the cached right sides against the straightforward route --------------------
#
# The reference below multiplies whole Q elements, embeds the cleared left
# side in Q[x][s] and rebuilds every bracket and Binet numerator from the
# starred roots on each call, as the identities are written.


def _ref_first_diff(lhs, rhs, where):
    for k, (a, b) in enumerate(zip(lhs.coords, rhs.coords)):
        if a != b:
            return f"coordinate {k} at {where}"


def _ref_signed(element, n):
    return -element if n % 2 else element


def _ref_star_products(ctx):
    a, b = ctx.stars()
    return a * b, b * a


def _ref_cleared_difference(ctx, n, r):
    m = ctx.fib.modulus
    return ((ctx.q(n + r) * ctx.q(n - r) - ctx.q(n) * ctx.q(n)) * m).embed(m)


def _ref_printed_bracket(ctx, r):
    fib = ctx.fib
    one = QuadExt.one(fib.modulus)
    unit = one if r % 2 else -one
    ab, ba = _ref_star_products(ctx)
    return ab * (unit + fib.alpha_pow(2)) + ba * (unit + fib.beta_pow(2))


def _ref_catalan(ctx, n, r):
    fib = ctx.fib
    one = QuadExt.one(fib.modulus)
    sign = -1 if r % 2 else 1
    ab, ba = _ref_star_products(ctx)
    bracket = ab * (one - fib.alpha_pow(2 * r) * sign) + ba * (one - fib.beta_pow(2 * r) * sign)
    lhs, derived = _ref_cleared_difference(ctx, n, r), _ref_signed(bracket, n)
    ok = lhs == derived
    witness = None if ok else _ref_first_diff(lhs, derived, f"n={n}, r={r}")
    printed = None if r == 0 else _ref_signed(_ref_printed_bracket(ctx, r), n + r + 1) == derived
    return ok, witness, printed


def _ref_cassini(ctx, n):
    lhs, rhs = _ref_cleared_difference(ctx, n, 1), _ref_signed(_ref_printed_bracket(ctx, 1), n)
    return (True, None) if lhs == rhs else (False, _ref_first_diff(lhs, rhs, f"n={n}"))


def _ref_docagne(ctx, n, r):
    fib = ctx.fib
    lhs = ctx.q(r) * ctx.q(n + 1) - ctx.q(r + 1) * ctx.q(n)
    ab, ba = _ref_star_products(ctx)
    numerator = _ref_signed(ab * fib.alpha_pow(r - n) - ba * fib.beta_pow(r - n), n)
    for k in range(ctx.dim):
        try:
            quotient = numerator.coords[k].divexact_by_s()
        except NotDivisible:
            return False, f"coordinate {k}: numerator not divisible by s"
        if quotient.b:
            return False, f"coordinate {k}: radical residue"
        if quotient.a != lhs.coords[k]:
            return False, f"coordinate {k} at n={n}, r={r}"
    return True, None


def _ref_binet(ctx, n):
    fib = ctx.fib
    astar, bstar = ctx.stars()
    for k in range(ctx.dim):
        numerator = astar.coords[k] * fib.alpha_pow(n) - bstar.coords[k] * fib.beta_pow(n)
        try:
            quotient = numerator.divexact_by_s()
        except NotDivisible:
            return False, f"coordinate {k}: numerator not divisible by s"
        if quotient.b:
            return False, f"coordinate {k}: radical residue"
        if quotient.a != fib.fib(n + k):
            return False, f"coordinate {k} at n={n}"
    return True, None


DIFFERENTIAL_TABLES = [
    complex_table(), split_complex_table(), dual_table(), quaternion_table(),
    octonion_table(), builtin("quaternion:1/2,3"), THREEFOLD,
    AlgebraTable("corrupted", corrupt_table_entry(quaternion_table(), 1, 2, 3).constants),
]

_fib = FibContext.fib

#: faults both routes see: none, the alpha/beta swap of the battery, and a
#: wrong F_5 (mismatches past coordinate 0)
FAULTS = {
    "exact": None,
    "roots_swapped": ("roots", suite._faulty_roots),
    "f5_off_by_one": ("fib", lambda self, n: _fib(self, n) + (1 if n == 5 else 0)),
}


def _match_the_straightforward_route(table, fault, monkeypatch):
    if FAULTS[fault]:
        monkeypatch.setattr(FibContext, *FAULTS[fault])
    witnesses = set()
    for h in (ONE, X, Poly([F(-1, 2), 0, F(3, 2)])):
        fast, ref = HyperContext(h, table), HyperContext(h, table)
        for n in range(0, 6):
            v = fast.binet_check(n)
            assert (v.ok, v.witness) == _ref_binet(ref, n)
            witnesses.add(v.witness)
            for r in range(0, n + 1):
                v = fast.catalan_check(n, r)
                ok, witness, printed = _ref_catalan(ref, n, r)
                assert (v.ok, v.witness) == (ok, witness)
                if r:
                    assert fast.printed_matches(n, r) == printed
                witnesses.add(v.witness)
            if n >= 1:
                v = fast.cassini_check(n)
                assert (v.ok, v.witness) == _ref_cassini(ref, n)
                witnesses.add(v.witness)
            for r in range(n + 1, 7):
                v = fast.docagne_check(n, r)
                assert (v.ok, v.witness) == _ref_docagne(ref, n, r)
                witnesses.add(v.witness)
    if fault == "exact":
        # bilinear identities hold for any table, a corrupted one included
        assert witnesses == {None}
    elif fault == "f5_off_by_one" and table.name in ("dual", "octonion"):
        assert any(w and not w.startswith("coordinate 0") for w in witnesses)


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("table", DIFFERENTIAL_TABLES, ids=lambda t: t.name)
def test_cached_identities_match_the_straightforward_route(table, fault, monkeypatch):
    _match_the_straightforward_route(table, fault, monkeypatch)


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("table", DIFFERENTIAL_TABLES, ids=lambda t: t.name)
def test_the_per_table_route_matches_the_straightforward_route(table, fault, monkeypatch,
                                                               per_table_route):
    per_table_route()
    _match_the_straightforward_route(table, fault, monkeypatch)


@pytest.mark.parametrize("table", DIFFERENTIAL_TABLES, ids=lambda t: t.name)
def test_packed_checks_at_the_smallest_indices(table):
    # at n = r = 0 the products G_i G_j vanish or stay small, so the slot
    # width must come from the packed M' = d^2 (h^2+4) and right sides too
    for h in (Poly([F(1, 3)]), Poly([F(1000, 3), F(-7, 2)]), Poly([F(-1, 2), 0, F(3, 2)]),
              Poly([F(5, 6), 0, 0, -2, F(1, 4)])):
        ctx = HyperContext(h, table)
        assert ctx.catalan_check(0, 0).ok, h
        assert ctx.cassini_check(1).ok, h
        assert ctx.docagne_check(0, 1).ok, h


def test_packed_algebra_checks_assert_their_slot_width(monkeypatch):
    h = Poly([F(5, 6), 0, 0, -2, F(1, 4)])
    table = builtin("quaternion:1/2,3")
    assert HyperContext(h, table).catalan_check(6, 2).ok
    # one byte below what the coefficient bound needs
    monkeypatch.setattr(fibseq, "_pack_width", lambda bound: bound.bit_length() // 8)
    ctx = HyperContext(h, table)
    checks = [lambda n=n: ctx.cassini_check(n) for n in (1, 4, 9)]
    checks += [lambda n=n, r=r: ctx.catalan_check(n, r) for n, r in ((0, 0), (3, 1), (12, 5))]
    for check in checks:
        with pytest.raises(AssertionError):
            check()
    # the d'Ocagne bases are tuple comparisons, which pack nothing
    assert all(ctx.docagne_check(n, r).ok for n, r in ((0, 1), (2, 7), (9, 10)))


#: tables with fractional constants, whose right sides have denominators,
#: over integer h
FRACTIONAL_TABLE_CORPUS = suite.Corpus(
    seed=1,
    h_polys=(Poly([2, 2]), Poly([0, 2]), Poly([3, 0, 6]), Poly([4]), Poly([2])),
    algebras=(quaternion_table(F(1, 2), -1), octonion_table(F(1, 2), F(-3, 4))),
    r_max=8,
)


#: integer h with integer constants, fractional h, and fractional constants
CORPORA = [
    suite.mutation_corpus(),
    suite.default_corpus(5, random_count=2, n_max=7, r_max=5),
    FRACTIONAL_TABLE_CORPUS,
]
CORPUS_IDS = ["mutation_corpus", "default_corpus", "fractional_tables"]
QUADRATIC = {"hyper_catalan", "hyper_cassini", "hyper_docagne"}
#: the families that read the recurrence prefix; the algebra ones also
#: read the base flags, whose seeds `FibContext._vanishes` compares packed
PACKED = QUADRATIC | {"catalan_real", "index_shift"}


# -- the scalar instances against the per-table route -------------------------


#: seeds (F_0, F_1) other than (0, 1): a doubled sequence, which keeps
#: every shift by one D(m) == -d^2 D(m-1) of the Catalan instances and breaks
#: every base, and F_1 = 1/2, whose G_1 is not an integer, so that every
#: check raises NotDivisible from scaling G
SEEDS = {"double_seed": (0, 2), "half_seed": (0, F(1, 2))}
INSTANCE_FAULTS = sorted(FAULTS) + sorted(SEEDS)

#: fractional h over tables with fractional constants
FRACTIONAL_BOTH_CORPUS = replace(FRACTIONAL_TABLE_CORPUS, h_polys=(
    Poly([F(-1, 2), 0, F(3, 2)]), Poly([F(1, 3)]), Poly([F(5, 6), 0, 0, -2, F(1, 4)])), r_max=6)


#: F_0 or F_1 raised where it is read, every term above it right: only the
#: guards G_0 = 0 and G_1 = 1 of the base flags see these (F_0 is raised by
#: d x, so that G_0 = x stays integral)
GUARD_FAULTS = {
    "f0_plus_dx": lambda self, n: _fib(self, n) + (X * self.h.den if n == 0 else 0),
    "f1_plus_x": lambda self, n: _fib(self, n) + (X if n == 1 else 0),
}


def _inject(fault, monkeypatch):
    if fault in SEEDS:
        monkeypatch.setattr(fibseq, "_INITIAL_TERMS", SEEDS[fault])
    elif fault in GUARD_FAULTS:
        monkeypatch.setattr(FibContext, "fib", GUARD_FAULTS[fault])
    elif FAULTS[fault]:
        monkeypatch.setattr(FibContext, *FAULTS[fault])


def _both_routes(corpus, per_table_route):
    """The reports of the quadratic families on the instance route and on
    the forced per-table route."""
    instances = suite.run_all(corpus, include=QUADRATIC)
    per_table_route()
    return instances, suite.run_all(corpus, include=QUADRATIC)


@pytest.mark.parametrize("fault", INSTANCE_FAULTS)
@pytest.mark.parametrize("corpus", CORPORA, ids=CORPUS_IDS)
def test_instance_route_matches_the_per_table_route(corpus, fault, monkeypatch, per_table_route):
    _inject(fault, monkeypatch)
    instances, per_table = _both_routes(corpus, per_table_route)
    assert instances.comparable() == per_table.comparable()
    assert bool(instances.failures) == (fault != "exact")
    if fault == "half_seed":
        assert {c.witness for c in instances.checks} == {
            "NotDivisible: d^0 F_1 has a non-integer coefficient"}


@pytest.mark.parametrize("check, args", [("catalan_check", (3, 0)), ("catalan_check", (2, 1)),
                                         ("cassini_check", (2,)), ("docagne_check", (0, 2)),
                                         ("docagne_check", (1, 2))],
                         ids=["catalan_3_0", "catalan_2_1", "cassini_2", "docagne_0_2",
                              "docagne_1_2"])
@pytest.mark.parametrize("route", ["instances", "per_table"])
def test_a_warm_check_scales_a_top_term_not_yet_scaled(check, args, route, monkeypatch,
                                                       per_table_route):
    # F_4 + 1/3 leaves G_0..G_3 integral and G_4 not; over the complex
    # numbers each of these checks reads up to G_4, the first term a warm
    # context has not scaled, and must raise as on a cold context, also on
    # the per-table route, which scales nothing itself
    monkeypatch.setattr(FibContext, "fib",
                        lambda self, n: _fib(self, n) + (F(1, 3) if n == 4 else 0))
    if route == "per_table":
        per_table_route()
    cold, warm = HyperContext(ONE, complex_table()), HyperContext(ONE, complex_table())
    with pytest.raises(NotDivisible, match="F_4"):
        getattr(cold, check)(*args)
    warm.fib._scale_to(3)
    assert len(warm.fib._scaled) == 4
    with pytest.raises(NotDivisible, match="F_4"):
        getattr(warm, check)(*args)


def test_the_routes_differ_when_a_catalan_base_is_forced_to_hold(monkeypatch, per_table_route):
    # a doubled sequence keeps every shift by one, so that the bases are the
    # only comparisons and only they see it
    _inject("double_seed", monkeypatch)
    monkeypatch.setattr(FibContext, "_vanishes", lambda self, *args: True)
    instances, per_table = _both_routes(CORPORA[1], per_table_route)
    assert instances.comparable() != per_table.comparable()


def _count_fallbacks(monkeypatch) -> list:
    """The witness location of every per-table comparison from now on."""
    fallbacks = []
    real = HyperContext._table_check

    def counted(self, *args):
        fallbacks.append(args[-1])
        return real(self, *args)

    monkeypatch.setattr(HyperContext, "_table_check", counted)
    return fallbacks


@pytest.mark.parametrize("corpus", CORPORA + [FRACTIONAL_BOTH_CORPUS],
                         ids=CORPUS_IDS + ["fractional_h_and_tables"])
def test_fault_free_corpora_never_take_the_per_table_route(corpus, monkeypatch):
    fallbacks = _count_fallbacks(monkeypatch)
    report = suite.run_all(corpus, include=QUADRATIC)
    assert report.ok and report.checks
    assert fallbacks == []


@pytest.mark.parametrize("corpus", CORPORA, ids=CORPUS_IDS)
def test_fault_free_corpora_compare_only_at_the_bases(corpus, monkeypatch):
    seen = _spy_comparisons(monkeypatch)
    report = suite.run_all(corpus, include=PACKED)
    assert report.ok and report.checks
    compared = [(ctx, _seed_of(ctx, indices, factor)) for ctx, indices, _, factor, *_ in seen]
    # both seeds of some b are compared, and each seed once per h
    assert {a - b for _, (a, b) in compared} == {0, 1}
    assert len(set(compared)) == len(compared)


def _seed_of(ctx, indices, factor):
    """(a, b) of a packed comparison that is a seed of P(a, b),
    M' G_a G_b == A_(a+b) - (-1)^b d^(2b) A_(a-b) with a <= b + 1.  Any other
    comparison fails an assertion."""
    a, b = indices
    assert b <= a <= b + 1 and factor == ctx._cleared_modulus, indices
    return a, b


@pytest.mark.parametrize("fault", INSTANCE_FAULTS)
@pytest.mark.parametrize("corpus", CORPORA, ids=CORPUS_IDS)
def test_every_packed_comparison_is_at_a_base(corpus, fault, monkeypatch):
    # above its seeds a flag, and in the scalar checks, the recurrence
    # proves the identity or the check compares in Q[x]
    _inject(fault, monkeypatch)
    seen = _spy_comparisons(monkeypatch)
    report = suite.run_all(corpus, include=PACKED)
    assert bool(report.failures) == (fault != "exact")
    for ctx, indices, _, factor, *_ in seen:
        _seed_of(ctx, indices, factor)
    assert bool(seen) == (fault != "half_seed")  # there G_1 is not integral


def _unsigned(right):
    return [(abs(c), vec, norm) for c, vec, norm in right]


def _undivided(right):
    return [(1 if c > 0 else -1, vec, norm) for c, vec, norm in right]


@pytest.mark.parametrize("broken", [_unsigned, _undivided],
                         ids=["without_the_sign", "without_the_d_power"])
def test_a_broken_seed_right_side_only_sends_checks_per_table(broken, monkeypatch):
    # the right side of P(a, b) carries the sign (-1)^b and the power d^(2b)
    real = FibContext._vanishes
    monkeypatch.setattr(FibContext, "_vanishes", lambda self, u, v, right, factor: real(
        self, u, v, broken(right), factor))
    fallbacks = _count_fallbacks(monkeypatch)
    report = suite.run_all(CORPORA[1], include=QUADRATIC)
    assert fallbacks
    assert report.ok and report.checks


def _outcome(read):
    try:
        return read()
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _proven(fib, top, bases):
    """What a batched reader answers: the recurrence prefix reaches its top
    index and every base of its pairs holds."""
    return fib._recurrence_holds(top) and all(bases)


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("corpus", CORPORA, ids=CORPUS_IDS)
def test_batched_reads_match_one_read_per_instance(corpus, fault, monkeypatch):
    # each h's two contexts serve every table in turn, so the batched
    # reader meets cold and warm flags and a cold or warm prefix
    _inject(fault, monkeypatch)
    outcomes = set()
    for h in corpus.h_polys:
        batched, single = FibContext(h), FibContext(h)
        for table in corpus.algebras:
            hyper = HyperContext(batched, table)
            pairs, memos = hyper._pairs, ({}, {})
            for n in range(corpus.r_max + 1):
                for r in range(corpus.r_max + 1):
                    where = f"{h!r} {table.name} n={n} r={r}"
                    if r <= n:
                        got = _outcome(lambda: batched.catalan_instances(n, r, pairs, memos[0]))
                        assert got == _outcome(lambda: _proven(
                            single, n + max(i + max(r, j - i) for i, j in pairs),
                            [single._catalan_base(r, j - i) for i, j in pairs])), where
                    else:
                        got = _outcome(lambda: batched.docagne_instances(r, n, pairs, memos[1]))
                        assert got == _outcome(lambda: _proven(
                            single, n + max(max(r - n + i, j) for i, j in pairs) + 1,
                            [single._docagne_base(r - n + i - j) for i, j in pairs])), where
                    outcomes.add(got)
        # a base that both contexts compared has one flag
        for flags, ref in ((batched._catalan_flags, single._catalan_flags),
                           (batched._docagne_flags, single._docagne_flags)):
            assert flags.keys() & ref.keys()
            assert all(flags[key] == ref[key] for key in flags.keys() & ref.keys())
    assert outcomes == ({True} if fault == "exact" else {True, False})


def test_the_forced_route_reaches_the_per_table_comparison_on_a_warm_context(
        monkeypatch, per_table_route):
    ctx = HyperContext(X, quaternion_table())
    checks = [(ctx.catalan_check, (4, 2)), (ctx.cassini_check, (3,)),
              (ctx.docagne_check, (2, 4))]
    assert all(check(*args).ok for check, args in checks)  # every flag read is warm now
    fallbacks = _count_fallbacks(monkeypatch)
    per_table_route()
    assert all(check(*args).ok for check, args in checks)
    assert fallbacks == ["n=4, r=2", "n=3", "n=2, r=4"]


def test_a_long_catalan_chain_is_built_without_recursion(direct_route):
    fib = FibContext(ONE)
    assert fib.catalan_instances(2000, 3, ((0, 1),), {})
    # the prefix is extended in a loop to 2003, and the base of delta = 1
    # is P(3, 2), whose flags are its two seeds
    assert fib._recurrence_top == 2003 and list(fib._catalan_flags) == [(2, 2), (3, 2)]
    # the base of delta = -1997 is P(2000, 3), made up from its seeds in a loop
    assert fib._catalan_base(3, -1997)
    assert len(fib._catalan_flags) == 2 + 1998
    direct_route()
    assert not FibContext(ONE).catalan_instances(2000, 3, ((0, 1),), {})
    assert HyperContext(ONE, scalar_table()).catalan_check(2000, 3).ok


#: e0 e0 = e1 e1 = e0 and every other product zero: not unital, but the
#: identities are bilinear in any table; its pairs (0, 0) and (1, 1) share
#: delta = 0, at i = 0 and i = 1
DELTA_ZERO_TABLE = AlgebraTable("delta_zero", [[[1, 0], [0, 0]], [[0, 0], [1, 0]]])
#: e0 e2 = e0 and every other product zero: its one pair (0, 2) has
#: delta = 2, above r = 1
FAR_PAIR_TABLE = AlgebraTable("far_pair", [[[0] * 3, [0] * 3, [1, 0, 0]], [[0] * 3] * 3,
                                           [[0] * 3] * 3])

#: (table, index of the raised term, check, arguments): F_k raised after
#: the later terms are cached, which stops the prefix at k - 1
PREFIX_EDGES = [
    # F_3 breaks E(5, 2, 0), which reads G_7, G_3 and G_5, but not
    # E(6, 2, 0), which reads G_8, G_4 and G_6: Catalan at (5, 2) must read
    # the instance below the largest i of its delta
    (DELTA_ZERO_TABLE, 3, "catalan_check", (5, 2)),
    # F_7 breaks E(5, 1, 2), which reads G_6, G_6, G_5 and G_7: Cassini at
    # 5 must ask the prefix for 5 + max(r, delta) = 7, not for 5 + r
    (FAR_PAIR_TABLE, 7, "cassini_check", (5,)),
]


@pytest.mark.parametrize("table, raised, check, args", PREFIX_EDGES,
                         ids=["below_the_largest_i", "delta_above_r"])
def test_an_instance_the_prefix_does_not_reach_is_read(table, raised, check, args,
                                                       per_table_route):
    def faulty():
        fib = FibContext(X)
        fib.fib(12)
        fib._fib[raised] = fib._fib[raised] + X
        return HyperContext(fib, table)

    hyper = faulty()
    got = getattr(hyper, check)(*args)
    assert hyper.fib._recurrence_top == raised - 1
    per_table_route()
    assert got == getattr(faulty(), check)(*args)
    assert not got.ok and got.witness.startswith("coordinate 0 at ")
    if table is DELTA_ZERO_TABLE:
        assert hyper._pairs == ((0, 0), (1, 1))


# -- every base flag against the two-product base comparison -------------------


def _vajda_terms(m, r, delta):
    """The right side of the Catalan instance E(m, r, delta) as two
    (sign, e, k) terms sign d^e A_k: (-1)^(m+min(0,delta)) d^(2 min(m,
    m+delta)) A_|delta| and -(-1)^(m+r+min(2r,delta)) d^(2m+delta-|2r-delta|)
    A_|2r-delta|."""
    far = abs(2 * r - delta)
    return ((-1 if (m + min(0, delta)) % 2 else 1, 2 * min(m, m + delta), abs(delta)),
            (1 if (m + r + min(2 * r, delta)) % 2 else -1, 2 * m + delta - far, far))


def _docagne_terms(e):
    """The right side of the d'Ocagne instance E'(u, v) at its base,
    min(u, v) = 0 and e = u - v, as (sign, 0, k) terms sign d^0 B_k:
    sgn(e) B_|e|, and none at e = 0."""
    return ((1 if e > 0 else -1, 0, abs(e)),) if e else ()


def _two_product_base(ctx, indices, terms, odd, factor, powers):
    """Whether factor (G_u G_v - G_u2 G_v2) == sum sign d^e A_k over
    `terms`, or B_k with `odd`, in Z[x], with (u, v, u2, v2) = indices,
    A_k = 2 d^k a_k and B_k = 2 d^(k-1) b_k from the repeated products
    alpha^k = a_k + b_k s kept in `powers`; False where one is not
    integral."""
    d, right = ctx.h.den, ZERO
    for sign, e, k in terms:
        while len(powers) <= k:
            powers.append(powers[-1] * powers[1])
        vec = powers[k].b * 2 * F(d) ** (k - 1) if odd else powers[k].a * 2 * F(d) ** k
        if vec.den != 1:
            return False
        right += vec * (sign * d ** e)
    ctx._scale_to(max(indices))
    u, v, u2, v2 = (Poly(ctx._scaled[k]) for k in indices)
    return factor * (u * v - u2 * v2) == right


def _true_flags_hold_on_two_products(ctx) -> int:
    """Assert that every flag of `ctx` that holds is a base that the
    two-product comparison proves: P(a, b) at each (r, delta) whose base
    E(m, r, delta) reads it, and the d'Ocagne base E'(u, v) at e.  Returns
    the number of flags that hold."""
    alpha = ctx.roots()[0]
    powers = [QuadExt.one(alpha.modulus), alpha]
    modulus = (ctx.h * ctx.h + 4) * F(ctx.h.den) ** 2
    held = 0
    for (a, b), holds in ctx._catalan_flags.items():
        held += holds
        for r, delta in ((a, a - b), (a, a + b), (b, b - a), (b, b + a)) if holds else ():
            m = max(0, -delta, r - delta)
            assert _two_product_base(ctx, (m + r, m - r + delta, m, m + delta),
                                     _vajda_terms(m, r, delta), False, modulus, powers), (
                ctx.h, a, b, r, delta)
    for e, holds in ctx._docagne_flags.items():
        held += holds
        u, v = max(e, 0), max(-e, 0)
        assert not holds or _two_product_base(ctx, (u, v + 1, u + 1, v), _docagne_terms(e),
                                              True, ONE, powers), (ctx.h, e)
    return held


def _record_contexts(monkeypatch) -> list:
    """Every `FibContext` made from now on."""
    contexts, real_init = [], FibContext.__init__
    monkeypatch.setattr(FibContext, "__init__",
                        lambda self, h: contexts.append(self) or real_init(self, h))
    return contexts


#: (corpus id, fault) of the soundness differential: each of `CORPORA`
#: under each fault, and the seeded default corpora fault-free, with
#: r_max = 8 so that the forced routes stay cheap (the full seed-42 pass is
#: read in `test_a_fault_free_seed_42_pass_compares_only_at_the_seeds`)
SOUNDNESS_CASES = [(corpus, fault) for corpus in CORPUS_IDS
                   for fault in INSTANCE_FAULTS + sorted(GUARD_FAULTS)]
SOUNDNESS_CASES += [(f"seed_{seed}", "exact") for seed in (42, 1, 7)]


@pytest.mark.parametrize("route", ["instances", "direct", "per_table"])
@pytest.mark.parametrize("corpus, fault", SOUNDNESS_CASES,
                         ids=[f"{corpus}-{fault}" for corpus, fault in SOUNDNESS_CASES])
def test_every_base_flag_that_holds_holds_on_two_products(corpus, fault, route, monkeypatch,
                                                          direct_route, per_table_route):
    # a flag that holds sends no check per table, so each must be one that
    # the two-product comparison of its base also proves: the flags the
    # battery reads, and then on each warm context those of P(a, b) up to
    # b = 6 and a = b + 8 and of d'Ocagne up to |e| = 10
    corpus = (dict(zip(CORPUS_IDS, CORPORA)).get(corpus)
              or suite.default_corpus(int(corpus[len("seed_"):]), r_max=8))
    _inject(fault, monkeypatch)
    {"direct": direct_route, "per_table": per_table_route}.get(route, lambda: None)()
    contexts = _record_contexts(monkeypatch)
    report = suite.run_all(corpus, include=QUADRATIC)
    assert bool(report.failures) == (fault != "exact")
    held = 0
    for ctx in contexts:
        for b in range(7):
            for a in range(b, b + 9):
                _outcome(lambda: ctx._product_holds(a, b))
        for e in range(-10, 11):
            _outcome(lambda: ctx._docagne_base(e))
        held += _true_flags_hold_on_two_products(ctx)
    # G_0 != 0 fails every flag; with G_1 = 1/2, P(0, 0) = 0 still holds
    assert contexts and bool(held) == (fault != "f0_plus_dx")


def test_a_fault_free_seed_42_pass_compares_only_at_the_seeds(monkeypatch):
    contexts = _record_contexts(monkeypatch)
    seen = _spy_comparisons(monkeypatch)
    report = suite.run_all(suite.default_corpus(42))
    assert report.ok and report.checks
    assert 0 < len(seen) <= 256
    for ctx, indices, _, factor, *_ in seen:
        _seed_of(ctx, indices, factor)
    # and every flag of the pass that holds holds on two products
    assert sum(_true_flags_hold_on_two_products(ctx) for ctx in contexts)


# -- every packed comparison against a bound oracle ----------------------------


def _spy_comparisons(monkeypatch) -> list:
    """(context, (u, v), right, factor, bound, w) of every packed
    comparison from now on, with the bound `_checked_width` was given and
    the slot width w it gave."""
    seen, widths = [], []
    real_vanishes, real_width = FibContext._vanishes, fibseq._checked_width

    def width(bound):
        widths.append((bound, real_width(bound)))
        return widths[-1][1]

    def vanishes(self, u, v, right, factor):
        got = real_vanishes(self, u, v, right, factor)
        seen.append((self, (u, v), right, factor, *widths[-1]))
        return got

    monkeypatch.setattr(fibseq, "_checked_width", width)
    monkeypatch.setattr(FibContext, "_vanishes", vanishes)
    return seen


def _oracle_heights(ctx, indices, right, factor, products) -> tuple[int, int]:
    """On the Poly route, the largest |coefficient| of the comparison's left
    side minus its right side, and of every vector it packs: the factor,
    each right-side V and each G_n = d^(n-1) F_n of a product with no zero
    factor.  The 1-norms passed with the vectors are checked too.
    `products` memoizes (G_u G_v, height of G_u and G_v) by (ctx, u, v)."""
    def height(p):
        return max(map(abs, p.num), default=0)

    def product(u, v):
        key = ctx, u, v
        if key not in products:
            g = [ctx.fib(n) * F(ctx.h.den) ** (n - 1) for n in (u, v)]
            assert g[0].den == g[1].den == 1
            products[key] = g[0] * g[1], max(map(height, g)) if g[0] and g[1] else 0
        return products[key]

    diff, tall = product(*indices)
    vec, norm = factor
    assert norm == sum(map(abs, vec))
    heights = [tall, max(map(abs, vec))]
    diff *= Poly(vec)
    for c, vec, norm in right:
        assert norm == sum(map(abs, vec))
        heights.append(max(map(abs, vec)))
        diff -= Poly(vec) * c
    return height(diff), max(heights)


def _assert_covered(seen):
    products = {}
    for ctx, indices, right, factor, bound, w in seen:
        need = max(_oracle_heights(ctx, indices, right, factor, products))
        assert need <= bound and need < 2 ** (8 * w - 1), (ctx.h, indices, right, factor, w)


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("corpus", CORPORA, ids=CORPUS_IDS)
def test_every_packed_comparison_fits_its_slots(corpus, fault, monkeypatch, direct_route):
    # off the prefix, as under a fault
    direct_route()
    _inject(fault, monkeypatch)
    seen = _spy_comparisons(monkeypatch)
    suite.run_all(corpus, include=PACKED)
    # the seeds are compared whatever the prefix proves
    assert seen
    _assert_covered(seen)


#: comparisons just past a slot boundary 2^(8w-1), with G_n = F_n(-1) =
#: (-1)^(n-1) F_n(1) and G_n = F_n(x).  2 G_5 G_5 + 2 * 39 = 128 = 2^7 has
#: the bound 2 (25 + 1) + 2 * 39 = 130 and needs 2-byte slots, but the bound
#: less any one of |c|, ||factor|| and the right-side norms is below 2^7.
#: G_1 G_2 - 256 = x - 256 has the bound 258 and packs to 0 in 1-byte
#: slots, which the bound less the right-side norms or their |c| would
#: pick, and so would a width one step below the bound's.
SLOT_EDGES = [
    (Poly([-1]), (5, 5), ((-2, (39,), 39),), ((2,), 2), 2),
    (X, (1, 2), ((256, (1,), 1),), ((1,), 1), 2),
]


@pytest.mark.parametrize("h, indices, right, factor, width", SLOT_EDGES,
                         ids=["constant", "linear"])
def test_comparisons_at_a_slot_boundary_fit_their_slots(h, indices, right, factor, width,
                                                        monkeypatch):
    seen = _spy_comparisons(monkeypatch)
    assert not FibContext(h)._vanishes(*indices, right, factor)
    _assert_covered(seen)
    assert [w for *_, w in seen] == [width]


def _ref_recurrence(ctx, n):
    lhs, rhs = ctx.q(n + 2), ctx.q(n + 1) * ctx.h + ctx.q(n)
    return (True, None) if lhs == rhs else (False, _ref_first_diff(lhs, rhs, f"n={n}"))


def _ref_partial_sum(ctx, p):
    total = ctx.q(1)
    for i in range(2, p + 1):
        total = total + ctx.q(i)
    lhs, rhs = total * ctx.h, ctx.q(p + 1) + ctx.q(p) - ctx.q(0) - ctx.q(1)
    return (True, None) if lhs == rhs else (False, _ref_first_diff(lhs, rhs, f"p={p}"))


@pytest.mark.parametrize("fault", ["exact", "f5_plus_x"])
def test_shared_scalar_facts_match_the_element_route(fault, monkeypatch):
    # one FibContext serves every table, as in a battery run, so each table
    # after the first reads residuals, h-scaled partial sums and closed
    # forms cached by another
    if fault == "f5_plus_x":
        monkeypatch.setattr(FibContext, "fib", lambda self, n: _fib(self, n) + (X if n == 5 else 0))
    tables = [builtin(name) for name in builtin_names()] + [scalar_table(), THREEFOLD]
    witnesses = set()
    for h in (ONE, X, Poly([F(-1, 2), 0, F(3, 2)]), Poly([F(2, 3), F(-5, 4)])):
        shared = FibContext(h)
        for table in tables:
            fast, ref = HyperContext(shared, table), HyperContext(h, table)
            for n in range(0, 9):
                v = fast.recurrence_check(n)
                assert (v.ok, v.witness) == _ref_recurrence(ref, n), (table.name, h, n)
                witnesses.add(v.witness)
                v = fast.binet_check(n)
                assert (v.ok, v.witness) == _ref_binet(ref, n), (table.name, h, n)
            for p in range(1, 9):
                v = fast.partial_sum_check(p)
                assert (v.ok, v.witness) == _ref_partial_sum(ref, p), (table.name, h, p)
                witnesses.add(v.witness)
    if fault == "exact":
        assert witnesses == {None}
    else:
        assert {"coordinate 0 at n=3", "coordinate 3 at n=0", "coordinate 0 at p=5",
                "coordinate 3 at p=1"} <= witnesses


def _ref_genfun(ctx, trunc):
    """Coefficient j of (1 - h t - t^2) sum Q_n t^n as the convolution of
    whole Q elements, against the numerator for j < 2 and zero after."""
    numerator = ctx.genfun_numerator()
    terms = [ctx.q(i) for i in range(trunc + 1)]
    for j, got in enumerate(denominator_times_series(ctx.h, terms)):
        if not (got == numerator[j] if j < 2 else not got):
            return Verdict(False, f"t^{j} coefficient of the multiplied series")
    return Verdict(True)


@pytest.mark.parametrize("fault", ["exact", "f5_off_by_one"])
@pytest.mark.parametrize("table", DIFFERENTIAL_TABLES, ids=lambda t: t.name)
def test_genfun_residuals_match_the_element_convolution(table, fault, monkeypatch):
    if FAULTS[fault]:
        monkeypatch.setattr(FibContext, *FAULTS[fault])
    verdicts = []
    for h in GENFUN_HS:
        fast, ref = HyperContext(h, table), HyperContext(h, table)
        for trunc in range(12):
            verdicts.append(fast.genfun_check(trunc))
            assert verdicts[-1] == _ref_genfun(ref, trunc), (h, trunc)
    assert all(v.ok for v in verdicts) == (fault == "exact")


def test_a_beta_that_is_not_alpha_conjugate_fails_both_binet_checks(monkeypatch):
    # the quadratic identities read only the powers of alpha, so the closed
    # form and the hyper-Binet check are the ones that see beta; s cannot
    # divide their numerators, or leaves a radical residue
    monkeypatch.setattr(FibContext, "beta_pow", lambda self, n: self.alpha_pow(n) + 1)
    report = suite.run_all(suite.mutation_corpus(),
                           include={"closed_form_binet", "hyper_binet"})
    assert {c.name for c in report.failures} == {"closed_form_binet", "hyper_binet"}
    for record in report.failures:
        assert suite._failure_kind(record.witness) in ("NotDivisible", "NonRealResult")


def _roots_off_by_one(self):
    alpha = quad_from_alpha(self.h) + 1
    return alpha, alpha.conjugate()


def test_alpha_pow_checks_its_root_and_matches_repeated_products(monkeypatch):
    # the root vectors step up the recurrence, which holds only for a root
    # of v^2 - h v - 1
    for h in (ONE, X, Poly([F(-1, 2), 0, F(3, 2)]), Poly([F(5, 6), 0, 0, -2, F(1, 4)])):
        with monkeypatch.context() as patched:
            patched.setattr(FibContext, "roots", _roots_off_by_one)
            ctx = FibContext(h)
            for n in (0, 1, 7, 0):
                with pytest.raises(NonRealResult, match=re.escape("alpha^2 = h alpha + 1")):
                    ctx.alpha_pow(n)
        for roots in (FibContext.roots, suite._faulty_roots):
            with monkeypatch.context() as patched:
                patched.setattr(FibContext, "roots", roots)
                ctx = FibContext(h)
                alpha = ctx.roots()[0]
                power = QuadExt.one(alpha.modulus)
                for n in range(25):
                    assert ctx.alpha_pow(n) == power, (h, roots, n)
                    power = power * alpha


@pytest.mark.parametrize("table", [quaternion_table(), octonion_table(), THREEFOLD],
                         ids=lambda t: t.name)
def test_roots_that_break_their_relations_fail_the_guard(table, monkeypatch):
    witness = "the roots break alpha + beta = h"
    for h in (ONE, X):
        FibContext(h).require_root_relations()
        with monkeypatch.context() as patched:
            patched.setattr(FibContext, "roots", suite._faulty_roots)
            FibContext(h).require_root_relations()  # the swap keeps both relations
            patched.setattr(FibContext, "roots", lambda self: (
                quad_from_alpha(self.h) + 1, quad_from_beta(self.h) - 1))
            with pytest.raises(NonRealResult, match="alpha beta = -1"):
                FibContext(h).require_root_relations()
        with monkeypatch.context() as patched:
            patched.setattr(FibContext, "roots", _roots_off_by_one)
            ctx = HyperContext(h, table)
            for check in (lambda: ctx.catalan_check(3, 2), lambda: ctx.cassini_check(3),
                          lambda: ctx.printed_matches(3, 2), lambda: ctx.docagne_check(1, 3)):
                with pytest.raises(NonRealResult, match=re.escape(witness)):
                    check()
    monkeypatch.setattr(FibContext, "roots", _roots_off_by_one)
    report = suite.run_all(replace(suite.mutation_corpus(), algebras=(table,)), include={
        "hyper_catalan", "hyper_catalan_printed", "hyper_cassini", "hyper_docagne"})
    # the printed comparison is a flag either way, and carries the witness
    assert report.checks and all(c.verdict == "fail" for c in report.checks
                                 if c.name != "hyper_catalan_printed")
    assert {c.witness for c in report.checks} == {f"NonRealResult: {witness}"}


def test_right_sides_take_no_products_in_the_quadratic_extension(monkeypatch):
    calls = []

    def count(owner, name):
        real = getattr(owner, name)

        def counted(*args, _real=real, _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(owner, name, counted)

    def run_checks():
        for n in range(0, 9):
            for r in range(0, n + 1):
                assert ctx.catalan_check(n, r).ok
                if r:
                    ctx.printed_matches(n, r)
            if n:
                assert ctx.cassini_check(n).ok
            for r in range(n + 1, 10):
                assert ctx.docagne_check(n, r).ok

    for name in ("__mul__", "divexact_by_s"):
        count(QuadExt, name)
    ctx = HyperContext(Poly([F(1, 2), 0, 1]), octonion_table())
    ctx.fib.alpha_pow(40)
    ctx.fib.require_root_relations()
    calls.clear()
    run_checks()
    assert calls == []
    # once the base flags are memoized, the checks take no polynomial
    # product or linear combination either
    count(Poly, "__mul__")
    count(hyperfib, "poly_combination")
    count(scalars, "poly_combination")
    count(FibContext, "fib_product")
    run_checks()
    assert calls == []


# -- dimension-one specialization ------------------------------------------------------

def test_dim1_reduces_to_the_scalar_sequence():
    fib = FibContext(Poly([2, 1]))
    ctx = HyperContext(fib, scalar_table())
    for n in range(0, 15):
        assert ctx.q(n).coords[0] == fib.fib(n)
        assert ctx.binet_check(n).ok
        assert ctx.recurrence_check(n).ok
    for n in range(1, 10):
        assert ctx.cassini_check(n).ok
        for r in range(n + 1, 11):
            assert ctx.docagne_check(n, r).ok
    assert ctx.genfun_check(12).ok
    assert ctx.partial_sum_check(9).ok


# -- the residual and partial-sum readers against the Q[x] route ----------------------

#: the families that read residuals or partial sums, which hold without
#: reading one where the recurrence prefix reaches their top index
RESIDUAL_READERS = {"genfun_real", "sum_identity", "hyper_recurrence", "hyper_partial_sum",
                    "hyper_genfun"}


def _f7_plus_half_x(self, n):
    # G_7 = d^6 (F_7 + x/2) is not integral where d is odd, so that scaling
    # G to 7 raises NotDivisible
    return _fib(self, n) + (X * F(1, 2) if n == 7 else 0)


#: CORPORA and three small seeded corpora, which read up to index 9
READER_CORPORA = {**dict(zip(CORPUS_IDS, CORPORA)), **{
    f"seed_{seed}": suite.default_corpus(seed, random_count=2, n_max=8, r_max=4, p_max=8,
                                         trunc_n=9) for seed in (42, 1, 7)}}
READER_FAULTS = INSTANCE_FAULTS + sorted(GUARD_FAULTS) + ["f7_plus_half_x"]


@pytest.mark.parametrize("fault", READER_FAULTS)
@pytest.mark.parametrize("corpus", sorted(READER_CORPORA))
def test_prefix_readers_match_the_q_x_route(corpus, fault, monkeypatch, direct_route):
    if fault == "f7_plus_half_x":
        monkeypatch.setattr(FibContext, "fib", _f7_plus_half_x)
    else:
        _inject(fault, monkeypatch)
    corpus = READER_CORPORA[corpus]
    prefix = suite.run_all(corpus, include=RESIDUAL_READERS)
    direct_route()
    assert prefix.comparable() == suite.run_all(corpus, include=RESIDUAL_READERS).comparable()
    # these families read no root
    assert bool(prefix.failures) == (fault not in ("exact", "roots_swapped"))


def test_a_non_integral_term_keeps_the_q_x_witnesses(monkeypatch):
    # where scaling G raises NotDivisible the prefix proves nothing, and
    # each family fails as it does in Q[x], with a plain verdict
    monkeypatch.setattr(FibContext, "fib", _f7_plus_half_x)
    report = suite.run_all(READER_CORPORA["seed_1"], include=RESIDUAL_READERS)
    assert {c.name for c in report.failures} == RESIDUAL_READERS
    assert {suite._failure_kind(c.witness) for c in report.failures} == {"verdict"}
    assert {c.witness for c in report.failures if c.name == "genfun_real"} == {
        "t^7 coefficient of (1-ht-t^2)*series"}
    assert {c.witness for c in report.failures if c.name == "sum_identity"} == {
        f"partial sum up to n={n}" for n in range(6, 9)}


def _count_reads(monkeypatch) -> dict:
    """The calls of the memoized residuals and partial sums from now on."""
    counts = {}
    for name in ("residual", "h_partial_sum", "sum_residual"):
        real = getattr(FibContext, name)
        monkeypatch.setattr(FibContext, name, lambda self, j, name=name, real=real: (
            counts.__setitem__(name, counts.get(name, 0) + 1) or real(self, j)))
    return counts


@pytest.mark.parametrize("corpus", sorted(READER_CORPORA) + ["fractional_h_and_tables"])
def test_fault_free_corpora_read_no_residual(corpus, monkeypatch):
    # the prefix compares G_k with H G_(k-1) + d^2 G_(k-2) on the integer
    # vectors, also over fractional h
    corpus = READER_CORPORA.get(corpus, FRACTIONAL_BOTH_CORPUS)
    counts = _count_reads(monkeypatch)
    report = suite.run_all(corpus, include=RESIDUAL_READERS)
    assert report.ok and report.checks
    assert counts == {}
