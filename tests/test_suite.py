"""The check battery: scheduling, determinism, fault injection, and
counterexample shrinking."""

import json
from dataclasses import replace

import pytest

from fractions import Fraction

from hxfib import scalars
from hxfib.algebra import quaternion_table
from hxfib.fibseq import FibContext
from hxfib.scalars import ONE, X, Poly
from hxfib.suite import (
    CHECKS,
    MUTATIONS,
    CheckRecord,
    Corpus,
    Report,
    Runtime,
    corrupt_table_entry,
    default_corpus,
    mutation_corpus,
    random_h_polys,
    run_all,
    run_with_mutation,
    shrink,
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
    keys = [c.key() for c in report.checks]
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


def test_corrupted_table_fails_with_witness():
    bad = corrupt_table_entry(quaternion_table(), 1, 2, 2)
    corpus = replace(mutation_corpus(), algebras=(bad,))
    report = run_all(corpus)
    assert not report.ok
    assert all(c.witness for c in report.failures)
    assert "hamilton_relations" in {c.name for c in report.failures}


def _unpack_without_borrow(value, count, w):
    raw = value.to_bytes(count * w, "little", signed=True)
    return [int.from_bytes(raw[k:k + w], "little", signed=True)
            for k in range(0, count * w, w)]


def test_battery_notices_a_broken_kronecker_unpack(monkeypatch):
    # F_u * F_v for a degree-4 h has 4u - 3 coefficients, so catalan_real
    # up to n = 20 multiplies well above the Kronecker crossover
    h = Poly([-2, Fraction(1, 3), 0, -1, Fraction(5, 2)])
    corpus = Corpus(seed=0, h_polys=(h,), algebras=(), n_max=20)
    assert run_all(corpus, include={"catalan_real"}).ok
    calls = []

    def broken(value, count, w):
        calls.append(count)
        return _unpack_without_borrow(value, count, w)

    monkeypatch.setattr(scalars, "_kronecker_unpack", broken)
    report = run_all(corpus, include={"catalan_real"})
    assert calls
    assert report.failures
    # below n = 4 every product stays on the schoolbook loop
    assert all(c.params["n"] >= 4 for c in report.failures)


def test_ratio_limit_fails_on_a_non_finite_residual(monkeypatch):
    params = {"h": "1", "x0": 2.0, "n": 40}
    rt = Runtime({})
    assert CHECKS["ratio_limit"](rt, params).ok
    monkeypatch.setattr(FibContext, "ratio_limit_check", lambda self, x0, n: float("nan"))
    verdict = CHECKS["ratio_limit"](rt, params)
    assert not verdict.ok and "not finite" in verdict.witness


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


def test_shrink_respects_index_constraints():
    with MUTATIONS["roots_swapped"](mutation_corpus()) as corpus:
        report = run_all(corpus, include={"closed_form_binet"})
        assert report.failures
        small = shrink(report.failures[-1])
        assert small.verdict == "fail"
        assert small.params["n"] >= 0


def test_report_summary_counts():
    report = Report(1, [
        CheckRecord("a", {}, "pass", None, 0.0),
        CheckRecord("b", {}, "fail", "w", 0.0),
        CheckRecord("c", {}, "flag", "f", 0.0),
    ])
    assert not report.ok
    assert "1 failed" in report.summary() and "1 flagged" in report.summary()
