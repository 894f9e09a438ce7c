"""The check battery: scheduling, determinism, fault injection, and
counterexample shrinking."""

import io
import json
import os
import re
import subprocess
import sys
import time
import weakref
from collections import Counter
from dataclasses import replace
from unittest import mock

import pytest

from fractions import Fraction

from hxfib import fibseq, hyperfib, scalars, suite
from hxfib.algebra import AlgebraTable, complex_table, quaternion_table, scalar_table
from hxfib.fibseq import FibContext
from hxfib.scalars import ONE, X, Poly
from hxfib.suite import (
    CHECKS,
    MUTATIONS,
    CheckRecord,
    Corpus,
    Report,
    Runtime,
    _template_record,
    corrupt_table_entry,
    corrupt_unit_row,
    default_corpus,
    mutation_corpus,
    random_h_polys,
    run_all,
    run_with_mutation,
    shrink,
    summary_line,
    write_report,
)


def small_corpus(seed=7):
    return mutation_corpus() if seed == 7 else replace(mutation_corpus(), seed=seed)


def test_random_h_polys_deterministic_and_in_bounds():
    a = random_h_polys(3, 10)
    b = random_h_polys(3, 10)
    assert a == b
    assert random_h_polys(4, 10) != a
    for p in a:
        assert p
        assert p.degree <= 4
        for c in p.coeffs:
            assert abs(c) <= 5


def test_battery_passes_on_clean_corpus():
    report = run_all(small_corpus())
    assert report.ok
    assert report.checks
    assert all(c.verdict in ("pass", "flag") for c in report.checks)


def test_flags_appear_only_for_the_printed_form():
    report = run_all(small_corpus())
    assert {c.name for c in report.flags} == {"hyper_catalan_printed"}
    matches = [c for c in report.flags if c.params["r"] == 1]
    differs = [c for c in report.flags if c.params["r"] >= 2]
    assert matches and all("matches" in c.witness for c in matches)
    assert differs and any("differs" in c.witness for c in differs)


def test_every_scheduled_check_appears_exactly_once():
    report = run_all(small_corpus())
    keys = [(c.name, tuple(sorted(c.params.items()))) for c in report.checks]
    assert len(keys) == len(set(keys))


def test_reports_are_deterministic():
    first = run_all(small_corpus())
    second = run_all(small_corpus())
    assert first.comparable() == second.comparable()
    assert first.to_json() != ""  # serializable
    parsed = json.loads(first.to_json())
    assert parsed["seed"] == 7
    assert len(parsed["checks"]) == len(first.checks)


def test_include_filter_restricts_schedule():
    report = run_all(small_corpus(), include={"catalan_real", "sum_identity"})
    names = {c.name for c in report.checks}
    assert names == {"catalan_real", "sum_identity"}


def test_default_corpus_composition():
    corpus = default_corpus(seed=42)
    assert corpus.h_polys[:3] == (ONE, Poly([2]), X)
    assert len(corpus.h_polys) == 8
    names = [t.name for t in corpus.algebras]
    assert names == [
        "complex", "split_complex", "dual",
        "quaternion", "quaternion:2,-3", "octonion",
    ]


# -- fault injection -------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_each_mutation_is_detected(name):
    report = run_with_mutation(name)
    assert report.failures, f"mutation {name} slipped through"


def test_clean_run_between_mutations():
    run_with_mutation("roots_swapped")
    assert run_all(small_corpus()).ok  # patching fully unwound


def test_importing_the_package_loads_no_mock_or_asyncio():
    # the mutations patch by hand, so a process that never injects a fault
    # does not pay for unittest.mock and the asyncio stack behind it
    src = os.path.dirname(os.path.dirname(os.path.abspath(suite.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", "import sys; before = set(sys.modules); "
         "import hxfib, hxfib.cli; "
         "print(sorted({'unittest.mock', 'asyncio'} & (set(sys.modules) - before)))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_each_mutation_puts_back_what_it_patched(name):
    before = dict(vars(FibContext)), fibseq._INITIAL_TERMS
    with MUTATIONS[name](mutation_corpus()):
        pass
    assert (dict(vars(FibContext)), fibseq._INITIAL_TERMS) == before


def test_patched_puts_back_a_wrapper_when_the_body_raises(monkeypatch):
    # whatever sits on the class, a tracer's wrapper included, comes back
    real = FibContext.roots

    def wrapper(self):
        return real(self)

    monkeypatch.setattr(FibContext, "roots", wrapper)
    with pytest.raises(RuntimeError, match="body failed"):
        with MUTATIONS["roots_swapped"](mutation_corpus()):
            assert vars(FibContext)["roots"] is suite._faulty_roots
            raise RuntimeError("body failed")
    assert vars(FibContext)["roots"] is wrapper
    with pytest.raises(RuntimeError, match="body failed"):
        with suite._patched(fibseq, "_INITIAL_TERMS", (0, 2))(mutation_corpus()):
            assert fibseq._INITIAL_TERMS == (0, 2)
            raise RuntimeError("body failed")
    assert fibseq._INITIAL_TERMS == (0, 1)


def test_families_call_the_context_methods_patched_at_call_time():
    # each family looks its method up on the run's context, so a method
    # patched on the class after import is the one that runs
    failing = mock.Mock(return_value=fibseq.Verdict(False, "patched"))
    include = {"hyper_docagne", "hyper_cassini", "index_shift", "catalan_real"}
    with mock.patch.object(hyperfib.HyperContext, "docagne_check", failing), \
            mock.patch.object(FibContext, "index_shift_check", failing):
        report = run_all(mutation_corpus(), include=include)
    assert {c.name for c in report.checks} == include
    assert {c.name for c in report.failures} == {"hyper_docagne", "index_shift"}
    assert all(c.verdict == "fail" and c.witness == "patched" for c in report.checks
               if c.name in ("hyper_docagne", "index_shift"))
    assert failing.call_count == len(report.failures)


def test_corrupted_table_fails_with_witness():
    bad = corrupt_table_entry(quaternion_table(), 1, 2, 2)
    corpus = replace(mutation_corpus(), algebras=(bad,))
    report = run_all(corpus)
    assert not report.ok
    assert all(c.witness for c in report.failures)
    assert "hamilton_relations" in {c.name for c in report.failures}


def _pack_without_surplus(vals, w):
    raw = b"".join([v.to_bytes(w, "little", signed=True) for v in vals])
    return int.from_bytes(raw, "little")


def test_battery_notices_a_broken_kronecker_pack(monkeypatch):
    # the binomial, halving and differential forms each compare one packed
    # value G(2^(8w)) per n with den G_n(2^(8w)); at n = 1 G is a constant in
    # one slot, so only from n = 2 on, where G has the shape of h^(n-1), can
    # a negative coefficient be packed wrong (the recurrence multiplies by
    # the 5-coefficient h alone, below the crossover of the Poly kernel)
    h = Poly([-2, Fraction(1, 3), 0, -1, Fraction(5, 2)])
    forms = {"closed_form_binomial", "closed_form_halving", "closed_form_differential"}
    corpus = Corpus(seed=0, h_polys=(h,), algebras=(complex_table(),), n_max=20)
    assert run_all(corpus, include=forms).ok
    calls = []

    def broken(vals, w):
        calls.append(w)
        return _pack_without_surplus(vals, w)

    monkeypatch.setattr(fibseq, "_kronecker_pack", broken)
    report = run_all(corpus, include=forms)
    assert calls
    assert {c.name for c in report.failures} == forms
    assert all(c.params["n"] >= 2 for c in report.failures)


def test_battery_notices_packed_checks_without_the_denominator_power(monkeypatch):
    # G_n = d^(n-1) F_n turns each Catalan base into P(a, b), with the
    # power d^(2b) on its right side, and the binomial and differential
    # forms weigh their terms by powers of d; dropping the power is
    # invisible on the integer h of mutation_corpus(), so this fault is not
    # one of the MUTATIONS.  The halving terms read only d^0, and G_n is
    # scaled by d ** (n - 1), not by `den_pow`, so that comparison holds
    h = Poly([Fraction(-1, 2), 1, Fraction(2, 3)])
    catalan, docagne = [(r, delta) for r in range(4) for delta in range(-3, 4)], range(-4, 5)

    def bases():
        ctx = FibContext(h)
        return ([ctx._catalan_base(r, delta) for r, delta in catalan]
                + [ctx._docagne_base(e) for e in docagne])

    assert all(bases())
    monkeypatch.setattr(FibContext, "den_pow", lambda self, k: 1)
    fractional = Corpus(seed=0, h_polys=(h,), algebras=(), n_max=8)
    forms = {"closed_form_binomial", "closed_form_halving", "closed_form_differential"}
    assert run_all(mutation_corpus(), include=forms).ok
    assert {c.name for c in run_all(fractional, include=forms).failures} == (
        forms - {"closed_form_halving"})
    # a base that fails sends its check per table, which compares in Q[x]
    # and reads no power of d; the d'Ocagne bases, G_|e| == B_|e|, read none
    # either
    flags = bases()
    assert not all(flags[:len(catalan)]) and all(flags[len(catalan):])
    quadratic = {"hyper_catalan", "hyper_cassini", "hyper_docagne"}
    assert run_all(replace(fractional, algebras=(quaternion_table(),)), include=quadratic).ok


def test_battery_notices_a_combination_that_drops_its_last_term(monkeypatch, per_table_route):
    per_table_route()
    real = scalars.poly_combination

    def dropping(terms):
        return real(list(terms)[:-1])

    monkeypatch.setattr(scalars, "poly_combination", dropping)
    monkeypatch.setattr(hyperfib, "poly_combination", dropping)
    report = run_all(mutation_corpus())
    failed = {c.name for c in report.failures}
    assert {"hyper_catalan", "hyper_cassini", "hyper_docagne"} <= failed


def test_battery_notices_root_products_without_their_sign(monkeypatch, per_table_route):
    per_table_route()
    # alpha^u beta^v without the factor (-1)^min(u, v) from alpha beta = -1
    monkeypatch.setattr(hyperfib, "_root_product", lambda u, v: (1, u - v))
    report = run_all(mutation_corpus())
    failed = {c.name for c in report.failures}
    assert {"hyper_catalan", "hyper_docagne"} <= failed


def test_ratio_limit_fails_on_a_non_finite_residual(monkeypatch):
    params = {"h": "1", "x0": 2.0, "n": 40}
    rt = Runtime({})
    assert CHECKS["ratio_limit"](rt, params).ok
    monkeypatch.setattr(FibContext, "ratio_limit_check", lambda self, x0, n: float("nan"))
    verdict = CHECKS["ratio_limit"](rt, params)
    assert not verdict.ok and "not finite" in verdict.witness


def test_runtime_reserves_the_scalar_name():
    impostor = AlgebraTable("scalar", complex_table().constants)
    with pytest.raises(ValueError, match="reserved"):
        Runtime({"scalar": impostor})
    assert Runtime({"scalar": scalar_table()}).table("scalar") == scalar_table()
    assert Runtime({}).table("scalar") == scalar_table()


def test_runtime_keeps_one_context_of_each_kind():
    rt = Runtime({"quaternion": quaternion_table()})
    hyper = rt.hyper_ctx("x", "quaternion")
    assert rt.hyper_ctx("x", "quaternion") is hyper
    assert rt.fib_ctx("x") is hyper.fib
    assert hyper.catalan_check(4, 2).ok
    # another algebra over the same h shares the FibContext and replaces
    # the HyperContext
    old_hyper = weakref.ref(hyper)
    scalar = rt.hyper_ctx("x", "scalar")
    assert scalar.fib is hyper.fib
    del hyper
    assert old_hyper() is None
    # another h drops both, since the HyperContext holds the old FibContext
    old_fib, old_hyper = weakref.ref(scalar.fib), weakref.ref(scalar)
    del scalar
    rt.fib_ctx("x+1")
    assert old_fib() is None and old_hyper() is None


@pytest.mark.parametrize("bad_first", [True, False], ids=["corrupt_first", "corrupt_second"])
def test_run_all_rejects_two_tables_of_one_name(bad_first):
    good = quaternion_table()
    bad = corrupt_unit_row(good)
    tables = (bad, good) if bad_first else (good, bad)
    # keyed by name, one of the two would run every check scheduled for both
    with pytest.raises(ValueError, match="'quaternion' is given more than once"):
        run_all(replace(mutation_corpus(), algebras=tables))
    with pytest.raises(ValueError, match="more than once"):
        Runtime({"first": tables[0], "second": tables[1]})


# -- shrinking --------------------------------------------------------------------

def test_shrink_leaves_passing_records_alone():
    record = CheckRecord("catalan_real", {"h": "x", "n": 5, "r": 2}, "pass", None, 0.1)
    assert shrink(record) is record


def test_shrink_minimizes_off_by_one_binomial():
    with MUTATIONS["binomial_bound_off_by_one"](mutation_corpus()) as corpus:
        report = run_all(corpus, include={"closed_form_binomial"})
        assert report.failures
        worst = max(report.failures, key=lambda c: c.params["n"])
        small = shrink(worst)
        assert small.verdict == "fail"
        # the dropped summand is already nonzero at n = 1, constant h
        assert small.params["n"] == 1
        assert small.params["h"] in ("1", "0")


def test_shrink_reduces_identity_failure_to_minimum():
    with MUTATIONS["catalan_sign_exponent"](mutation_corpus()) as corpus:
        report = run_all(corpus, include={"catalan_real"})
        assert report.failures
        worst = max(report.failures, key=lambda c: (c.params["n"], c.params["r"]))
        small = shrink(worst)
        assert small.verdict == "fail"
        # the flipped sign is visible as soon as the right side is nonzero,
        # and the check is defined even at h = 0, so shrinking may land there
        assert small.params["n"] == 1 and small.params["r"] == 1
        assert small.params["h"] in ("0", "1", "x")


def test_shrink_keeps_the_failure_kind():
    # at h = 0 the identity raises ZeroH; that is a different failure from
    # the dropped h factor and must not be accepted as a smaller witness
    with MUTATIONS["sum_clearing_dropped"](mutation_corpus()) as corpus:
        report = run_all(corpus, include={"sum_identity"})
        first = report.failures[0]
        assert first.params == {"h": "2", "n": 1}
        small = shrink(first)
    assert small.verdict == "fail"
    assert small.params == first.params
    assert small.witness == first.witness


def test_shrink_uses_supplied_tables():
    bad = corrupt_table_entry(quaternion_table(), 1, 2, 2)
    corpus = replace(mutation_corpus(), algebras=(bad,))
    report = run_all(corpus, include={"hamilton_relations"})
    assert report.failures
    small = shrink(report.failures[0], tables={"quaternion": bad})
    assert small.verdict == "fail"
    assert small.params == report.failures[0].params


def test_shrink_returns_a_record_whose_table_it_cannot_build():
    record = CheckRecord("hyper_recurrence", {"h": "x", "algebra": "mine", "n": 3},
                         "fail", "coordinate 0 at n=3", 0.0)
    assert shrink(record) is record
    assert shrink(record, tables={"quaternion": quaternion_table()}) is record


def test_fib_degree_failure_shrinks_to_n_1(monkeypatch):
    # deg F_n is 100 for every n >= 1, which fails the formula at each n;
    # on the correct terms the formula fails at h = 0 (F_1 = F_3 = 1) and
    # has nothing to predict at n = 0 (F_0 = 0), so the check raises there
    # and the shrink stays out
    fib = FibContext.fib
    monkeypatch.setattr(FibContext, "fib",
                        lambda self, n: fib(self, n) + (Poly.monomial(100) if n >= 1 else 0))
    report = run_all(mutation_corpus(), include={"fib_degree"})
    assert report.checks and not any(c.verdict == "pass" for c in report.checks)
    worst = max(report.failures, key=lambda c: c.params["n"])
    small = shrink(worst)
    assert (small.name, small.params, small.witness) == (
        "fib_degree", {"h": "x", "n": 1}, "deg F_1 is 100, expected 0")
    monkeypatch.undo()
    with pytest.raises(fibseq.IndexConstraintViolated):
        CHECKS["fib_degree"](Runtime({}), {"h": "x", "n": 0})
    with pytest.raises(fibseq.ZeroH):
        CHECKS["fib_degree"](Runtime({}), {"h": "0", "n": 3})


def test_shrink_respects_index_constraints():
    with MUTATIONS["roots_swapped"](mutation_corpus()) as corpus:
        report = run_all(corpus, include={"closed_form_binet"})
        assert report.failures
        small = shrink(report.failures[-1])
        assert small.verdict == "fail"
        assert small.params["n"] >= 0


#: the shrunk first failure (name, params, witness) of each mutation over
#: `mutation_corpus()`, shrunk inside the fault with the mutated tables
SHRUNK_WITNESSES = {
    "binomial_bound_off_by_one": (
        "closed_form_binomial", {"h": "0", "n": 1},
        "explicit_binomial disagrees with the recurrence at n=1"),
    "catalan_sign_exponent": ("catalan_real", {"h": "0", "n": 1, "r": 1}, "n=1, r=1"),
    "chebyshev_seed": (
        "closed_form_chebyshev", {"h": "1", "n": 2},
        "chebyshev_form disagrees with the recurrence at n=2"),
    "halving_scale_dropped": (
        "closed_form_halving", {"h": "1", "n": 2},
        "explicit_halving disagrees with the recurrence at n=2"),
    "roots_swapped": (
        "closed_form_binet", {"h": "0", "n": 1}, "binet disagrees with the recurrence at n=1"),
    "sum_clearing_dropped": ("sum_identity", {"h": "2", "n": 1}, "partial sum up to n=1"),
    "table_entry_sign": (
        "hamilton_relations", {"algebra": "quaternion"}, "e1*e2 violates the Hamilton relations"),
    "table_transposed": (
        "hamilton_relations", {"algebra": "quaternion"}, "e1*e2 violates the Hamilton relations"),
    "unit_row_corrupted": (
        "algebra_validate", {"algebra": "quaternion"}, "NotUnital: quaternion: e0*e1 is not e1"),
    "wrong_initial_value": (
        "closed_form_binomial", {"h": "0", "n": 1},
        "explicit_binomial disagrees with the recurrence at n=1"),
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutation_shrinks_to_its_locked_witness(name):
    with MUTATIONS[name](mutation_corpus()) as corpus:
        first = run_all(corpus).failures[0]
        small = shrink(first, {t.name: t for t in corpus.algebras})
    assert small.verdict == "fail"
    assert (small.name, small.params, small.witness) == SHRUNK_WITNESSES[name]


def test_report_summary_counts():
    report = Report(1, [
        CheckRecord("a", {}, "pass", None, 0.0),
        CheckRecord("b", {}, "fail", "w", 0.0),
        CheckRecord("c", {}, "flag", "f", 0.0),
    ])
    assert not report.ok
    assert "1 failed" in report.summary() and "1 flagged" in report.summary()


# -- the report writer against the stdlib encoder ----------------------------------

def _stdlib_text(report, indent=2):
    return json.dumps(report.to_dict(), indent=indent, sort_keys=True)


def _assert_same_text(got, expected):
    # a bare == would have pytest diff two megabyte strings on a failure
    if got != expected:
        at = len(os.path.commonprefix([got, expected]))
        pytest.fail(f"texts differ at offset {at}: {got[at - 60:at + 60]!r} "
                    f"against {expected[at - 60:at + 60]!r}")


ODD_TEXT = 'q"uote \\back\\slash \x00\x1f\t\n\x7f ctl \u2028\u2029 sep caf\u00e9 \u03b1\u2192\u03b2 \U0001d49c'

HAND_BUILT = [
    CheckRecord("plain", {"h": "x+1", "n": 3}, "pass", None, 0.125),
    CheckRecord(ODD_TEXT, {ODD_TEXT: ODD_TEXT, "kéy": "v\\"}, "fail", ODD_TEXT, 1e-07),
    CheckRecord("empty", {}, "flag", "", 12345.678),
    CheckRecord("ratio_limit", {"h": "1", "x0": 2.0, "n": 40}, "pass", None, 0.0),
    CheckRecord("ints", {"a": -7, "b": 10 ** 40, "c": -(10 ** 30), "d": 0}, "pass", None, 3.5e12),
    CheckRecord("floats", {"y": -0.0, "z": 1e300, "w": 5e-324}, "fail", "w", -0.0),
]


@pytest.fixture(scope="module")
def battery_reports():
    small = run_all(default_corpus(42, n_max=6, r_max=6, p_max=6, trunc_n=6))
    mutated = run_with_mutation("catalan_sign_exponent")
    assert mutated.failures and all(c.witness for c in mutated.failures)
    return small, mutated


def test_report_writer_matches_the_stdlib_encoder_on_battery_reports(battery_reports):
    for report in battery_reports:
        _assert_same_text(report.to_json(indent=2), _stdlib_text(report))


@pytest.mark.parametrize("records", [HAND_BUILT, HAND_BUILT[:1], HAND_BUILT[2:3], []],
                         ids=["all", "one", "empty_params", "no_checks"])
def test_report_writer_matches_the_stdlib_encoder_on_hand_built_records(records):
    assert all(_template_record(c) is not None for c in records)
    for seed in (0, -3, 42, 2.5, {"nested": [1, "s"]}):
        report = Report(seed, list(records))
        assert report.to_json(indent=2) == _stdlib_text(report)


@pytest.mark.parametrize("record", [
    CheckRecord("nested", {"h": "1", "inner": {"n": 1}}, "pass", None, 0.5),
    CheckRecord("listed", {"h": "1", "ns": [1, 2]}, "pass", None, 0.5),
    CheckRecord("flag_param", {"h": "1", "exact": True}, "pass", None, 0.5),
    CheckRecord("none_param", {"h": "1", "x": None}, "pass", None, 0.5),
    CheckRecord("nan_param", {"x0": float("nan")}, "pass", None, 0.5),
    CheckRecord("nan_ms", {"h": "1"}, "pass", None, float("nan")),
    CheckRecord("inf_ms", {"h": "1"}, "fail", "w", float("inf")),
    CheckRecord("int_ms", {"h": "1"}, "pass", None, 2),
    CheckRecord("int_key", {1: "one"}, "pass", None, 0.5),
    CheckRecord("int_witness", {"h": "1"}, "fail", 3, 0.5),
], ids=lambda r: r.name)
def test_records_outside_the_template_fall_back_to_the_stdlib_encoder(record):
    report = Report(1, HAND_BUILT + [record])
    assert _template_record(record) is None
    assert report.to_json(indent=2) == _stdlib_text(report)


def test_a_fallback_record_between_two_ordinary_ones_streams_like_json_dumps():
    odd = CheckRecord("odd", {"h": "1", "inner": {"n": [1, 2], "x0": 2.0}}, "pass", None,
                      float("nan"))
    records = [HAND_BUILT[0], odd, HAND_BUILT[1]]
    assert [_template_record(c) is None for c in records] == [False, True, False]
    out = io.StringIO()
    counts = write_report(out, 5, iter(records))
    expected = json.dumps({"seed": 5, "checks": [c.to_dict() for c in records]},
                          indent=2, sort_keys=True)
    _assert_same_text(out.getvalue(), expected)
    assert counts == Counter({"pass": 2, "fail": 1})
    assert summary_line(counts) == Report(5, records).summary() == (
        "3 checks: 2 passed, 1 failed, 0 flagged")


@pytest.mark.parametrize("indent", [None, 0, 4])
def test_other_indents_go_through_the_stdlib_encoder(indent, monkeypatch):
    report = Report(1, list(HAND_BUILT))
    expected = _stdlib_text(report, indent)
    monkeypatch.setattr(suite, "write_report", lambda *args: pytest.fail("template used"))
    assert report.to_json(indent=indent) == expected


def test_report_writer_takes_the_template_on_an_ordinary_report(battery_reports, monkeypatch):
    expected = [_stdlib_text(report) for report in battery_reports]

    def refuse(*args, **kwargs):
        raise AssertionError("the report went through json.dumps")

    monkeypatch.setattr(json, "dumps", refuse)
    for report, text in zip(battery_reports, expected):
        _assert_same_text(report.to_json(indent=2), text)


# -- the per-shape templates of one report -------------------------------------


def _assert_written_like_json_dumps(records, seed=3):
    out = io.StringIO()
    counts = write_report(out, seed, iter(records))
    expected = json.dumps({"seed": seed, "checks": [c.to_dict() for c in records]},
                          indent=2, sort_keys=True)
    _assert_same_text(out.getvalue(), expected)
    assert counts == Counter(c.verdict for c in records)


def test_one_name_with_two_key_sets_takes_a_template_each():
    records = [
        CheckRecord("same", {"h": "x", "n": 1}, "pass", None, 0.5),
        CheckRecord("same", {"h": "x", "n": 2, "r": 1}, "pass", None, 0.25),
        CheckRecord("same", {"h": "x+1", "n": 3}, "fail", "n=3", 1.5),
        CheckRecord("same", {"h": "x", "r": 4, "n": 4}, "pass", None, 2.0),
        CheckRecord("same", {}, "pass", None, 3.0),
    ]
    shapes, quoted = {}, {}
    assert all(_template_record(c, shapes, quoted) is not None for c in records)
    assert len(shapes) == len(records)  # witness present and key order are shapes too
    _assert_written_like_json_dumps(records)


def test_a_key_whose_value_type_changes_is_checked_on_every_record():
    values = [7, "7", 2.5, True, -(10 ** 30), "x", float("inf"), None, 8]
    records = [CheckRecord("typed", {"h": "x", "v": v}, "pass", None, 0.5) for v in values]
    shapes, quoted = {}, {}
    fallbacks = [_template_record(c, shapes, quoted) is None for c in records]
    assert fallbacks == [False, False, False, True, False, False, True, True, False]
    assert len(shapes) == 1
    _assert_written_like_json_dumps(records)


SPECIAL = 'a % b %s %% {c} {{d}} "e" café → \U0001d49c'


def test_format_and_quote_characters_in_every_field_are_written_as_json():
    records = [
        CheckRecord(SPECIAL, {"h": "x"}, "pass", None, 0.5),
        CheckRecord("keys", {SPECIAL: 1, "%d": 2, "{0}": "%s"}, "pass", None, 0.5),
        CheckRecord("values", {"h": SPECIAL, "n": 3}, "fail", SPECIAL, 0.5),
        CheckRecord("values", {"h": SPECIAL, "n": 4}, "fail", "%(ms)r {}", 0.5),
        CheckRecord("verdict", {"h": "x"}, SPECIAL, "w", 0.5),
    ]
    shapes, quoted = {}, {}
    assert all(_template_record(c, shapes, quoted) is not None for c in records)
    assert quoted == {"x": '"x"', "%s": '"%s"', SPECIAL: json.dumps(SPECIAL)}
    _assert_written_like_json_dumps(records)


def test_params_inserted_out_of_sorted_order_are_written_sorted():
    records = [
        CheckRecord("order", {"r": 2, "n": 5, "h": "x", "algebra": "quaternion"},
                    "pass", None, 0.5),
        CheckRecord("order", {"n": 6, "algebra": "octonion", "r": 1, "h": "1"},
                    "pass", None, 0.75),
        CheckRecord("order", {"r": 3, "n": 7, "h": "x", "algebra": "quaternion"},
                    "fail", "coordinate 2 at n=7, r=3", 0.5),
    ]
    assert _template_record(records[0]).index('"algebra"') < _template_record(
        records[0]).index('"r"')
    _assert_written_like_json_dumps(records)


def test_an_unhashable_name_or_verdict_falls_back_to_the_stdlib_encoder():
    records = [
        CheckRecord(["listed", "name"], {"h": "x"}, "pass", None, 0.5),
        CheckRecord("plain", {"h": "x"}, "pass", None, 0.5),
    ]
    assert _template_record(records[0]) is None
    out = io.StringIO()
    write_report(out, 3, iter(records))
    expected = json.dumps({"seed": 3, "checks": [c.to_dict() for c in records]},
                          indent=2, sort_keys=True)
    _assert_same_text(out.getvalue(), expected)


def test_the_writer_keeps_no_template_across_reports(monkeypatch):
    seen = []
    real = suite._template_record

    def recording(c, shapes, quoted):
        seen.append((shapes, quoted))
        return real(c, shapes, quoted)

    monkeypatch.setattr(suite, "_template_record", recording)
    record = CheckRecord("plain", {"h": "x+1", "n": 3}, "pass", None, 0.125)
    for _ in range(2):
        write_report(io.StringIO(), 1, [record, record])
    first, second = seen[0], seen[2]
    assert seen[1][0] is first[0] and seen[3][0] is second[0]
    assert first[0] is not second[0] and first[1] is not second[1]


def test_check_records_have_slots():
    record = CheckRecord("plain", {"h": "x"}, "pass", None, 0.5)
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.extra = 1
    assert replace(record, ms=1.0).ms == 1.0


# -- the block runner and the fused writer -------------------------------------

_MS = re.compile(r'"ms": [^,\n]+')

FRACTIONAL_SPEC = {
    "name": "thirds",
    "dim": 3,
    "table": [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], ["1/2", 0, "-3/2"], [0, "2/3", 0]],
        [[0, 0, 1], [0, "-1/3", 0], ["5/2", 0, "1/4"]],
    ],
}


def _without_ms(text):
    return _MS.sub('"ms": 0', text)


def _assert_fused_text_matches_run_all(corpus):
    out = io.StringIO()
    counts = suite.write_run(out, corpus)
    report = run_all(corpus)
    _assert_same_text(_without_ms(out.getvalue()),
                      _without_ms(json.dumps(report.to_dict(), indent=2, sort_keys=True)))
    assert counts == Counter(c.verdict for c in report.checks)
    return report


def _half_seed(corpus):
    return suite._patched(fibseq, "_INITIAL_TERMS", (0, Fraction(1, 2)))(corpus)


@pytest.mark.parametrize("case", ["small_default", "fractional_table", "expected_errors"]
                         + [f"mutation_{name}" for name in sorted(MUTATIONS)])
def test_the_fused_writer_writes_the_text_of_run_all(case):
    from hxfib.algebra import table_from_spec

    if case == "small_default":
        corpus = default_corpus(42, n_max=6, r_max=6, p_max=6, trunc_n=6)
        assert _assert_fused_text_matches_run_all(corpus).flags
        return
    if case == "fractional_table":
        corpus = replace(mutation_corpus(), algebras=(table_from_spec(FRACTIONAL_SPEC),),
                         h_polys=(X, Poly([Fraction(1, 3), 0, Fraction(-5, 2)])))
        assert _assert_fused_text_matches_run_all(corpus).checks
        return
    apply = _half_seed if case == "expected_errors" else MUTATIONS[case[len("mutation_"):]]
    with apply(mutation_corpus()) as corpus:
        report = _assert_fused_text_matches_run_all(corpus)
    assert report.failures and all(c.witness for c in report.failures)
    kinds = {(c.name, suite._failure_kind(c.witness)) for c in report.failures}
    if case == "expected_errors":
        # raised by a bound FibContext method and a bound HyperContext method
        assert {("index_shift", "NotDivisible"), ("hyper_cassini", "NotDivisible")} <= kinds
    if case == "mutation_unit_row_corrupted":
        # raised in a lane whose check is called on each record's params
        assert ("algebra_validate", "NotUnital") in kinds


def test_verify_writes_the_text_of_run_all_over_a_json_algebra(tmp_path, capsys):
    from hxfib import cli
    from hxfib.algebra import table_from_spec

    spec = tmp_path / "thirds.json"
    spec.write_text(json.dumps(FRACTIONAL_SPEC))
    path = tmp_path / "report.json"
    assert cli.main(["verify", "--seed", "3", "--nmax", "3", "--algebra", str(spec),
                     "--algebra", "octonion", "--report", str(path)]) in (0, 1)
    corpus = replace(default_corpus(3, n_max=3, r_max=3, p_max=3, trunc_n=3),
                     algebras=(table_from_spec(FRACTIONAL_SPEC), suite.octonion_table()))
    expected = json.dumps(run_all(corpus).to_dict(), indent=2, sort_keys=True) + "\n"
    _assert_same_text(_without_ms(path.read_text()), _without_ms(expected))
    assert capsys.readouterr().out.strip() == run_all(corpus).summary()


@pytest.mark.parametrize("seed", [True, 2.5, "text", None], ids=repr)
def test_a_constant_param_outside_the_templates_is_written_as_json(seed):
    # the seed is a constant param of the table oracles
    corpus = replace(mutation_corpus(), seed=seed, n_max=2, r_max=2, p_max=2, trunc_n=2)
    _assert_fused_text_matches_run_all(corpus)


def test_verdicts_of_a_replaced_check_outside_the_templates_are_written_as_json(monkeypatch):
    for name, verdict in (("unit_law", fibseq.Verdict(False, 3)),
                          ("hyper_catalan_printed", fibseq.Verdict(True, None)),
                          ("catalan_real", fibseq.Verdict(False, None)),
                          ("index_shift", fibseq.Verdict(False, 'a "quoted" % witness'))):
        monkeypatch.setitem(CHECKS, name, lambda rt, p, verdict=verdict: verdict)
    report = _assert_fused_text_matches_run_all(replace(mutation_corpus(), n_max=3, r_max=2))
    witnesses = {(c.name, c.verdict, c.witness) for c in report.checks if c.verdict != "pass"}
    assert {("unit_law", "fail", 3), ("hyper_catalan_printed", "flag", None),
            ("catalan_real", "fail", "mismatch"),
            ("index_shift", "fail", 'a "quoted" % witness')} <= witnesses


def test_a_wrapped_check_is_called_once_per_record(monkeypatch):
    # a tracer replaces the CHECKS entries; every record still goes through them
    calls = Counter()

    def counted(name, check):
        def run(rt, params):
            calls[name] += 1
            return check(rt, params)

        return run

    for name, check in list(CHECKS.items()):
        monkeypatch.setitem(CHECKS, name, counted(name, check))
    out = io.StringIO()
    counts = suite.write_run(out, mutation_corpus())
    doc = json.loads(out.getvalue())
    assert calls == Counter(c["name"] for c in doc["checks"])
    assert sum(counts.values()) == len(doc["checks"]) == sum(calls.values())
    monkeypatch.undo()
    expected = json.dumps(run_all(mutation_corpus()).to_dict(), indent=2, sort_keys=True)
    _assert_same_text(_without_ms(out.getvalue()), _without_ms(expected))


def test_a_lane_binds_its_method_once_and_times_only_the_calls(monkeypatch):
    built = []
    real = Runtime.hyper_ctx

    def slow_hyper_ctx(self, h, algebra):
        built.append((h, algebra))
        time.sleep(0.05)
        return real(self, h, algebra)

    monkeypatch.setattr(Runtime, "hyper_ctx", slow_hyper_ctx)
    lane = suite.Lane("hyper_recurrence", {"h": "x", "algebra": "quaternion"}, ("n",))
    rows = [(0, (n,)) for n in range(4)]
    got = list(suite._run_block(Runtime({"quaternion": quaternion_table()}),
                                suite.Block((lane,), rows)))
    assert built == [("x", "quaternion")]
    assert [(i, args, verdict, witness) for i, args, verdict, witness, _ in got] == [
        (0, (n,), "pass", None) for n in range(4)]
    assert all(ms < 50 for *_, ms in got)


def test_a_binding_that_raises_fails_every_row_with_the_witness_of_one_call():
    lane = suite.Lane("hyper_docagne", {"h": "x", "algebra": "missing"}, ("n", "r"))
    rows = [(0, (0, 1)), (0, (1, 3))]
    got = list(suite._run_block(Runtime({}), suite.Block((lane,), iter(rows))))
    singles = [suite._execute(Runtime({}), "hyper_docagne", {**lane.const, "n": n, "r": r})
               for _, (n, r) in rows]
    assert [(verdict, witness) for *_, verdict, witness, _ in got] == [
        (c.verdict, c.witness) for c in singles] == [
        ("fail", "UnknownKind: algebra 'missing' is not part of this run")] * 2
