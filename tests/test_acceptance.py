"""Acceptance gate: one test per criterion, each printing a pass/fail
line (run with `pytest -s` to watch them stream).

The shared corpus is 50 seeded random polynomials of degree at most 4;
every verdict below is an exact ring equality except the lone
floating-point ratio spot-check, whose tolerance is stated inline.
"""

import hashlib
import json
import time
from pathlib import Path

from hxfib.algebra import (
    complex_table,
    dual_table,
    octonion_table,
    quaternion_table,
    split_complex_table,
)
from hxfib.cli import main as cli_main
from hxfib.fibseq import FibContext
from hxfib.scalars import X
from hxfib.suite import (
    MUTATIONS,
    Corpus,
    default_corpus,
    random_h_polys,
    run_all,
    run_with_mutation,
)

ACCEPT_H = random_h_polys(42, 50)

GOLDEN = Path(__file__).resolve().parent.parent / "benchmarks" / "golden.json"

ALGEBRAS = (
    complex_table(),
    split_complex_table(),
    dual_table(),
    quaternion_table(),
    quaternion_table(2, -3),
    octonion_table(),
)

CLOSED_FORM_CHECKS = {
    "closed_form_binomial",
    "closed_form_halving",
    "closed_form_chebyshev",
    "closed_form_binet",
    "closed_form_differential",
}


def _corpus(**overrides) -> Corpus:
    base = dict(
        seed=42, h_polys=ACCEPT_H, algebras=(), n_max=20, r_max=15,
        p_max=20, trunc_n=20,
    )
    base.update(overrides)
    return Corpus(**base)


def _conclude(number: int, label: str, ok: bool, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {number} [{status}] {label}: "
          f"{elapsed:.1f}s (budget {budget:.0f}s)")
    assert ok, f"criterion {number} ({label}) has failing checks"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s"


def test_criterion_1_closed_form_agreement():
    start = time.perf_counter()
    report = run_all(_corpus(n_max=30), include=CLOSED_FORM_CHECKS)
    elapsed = time.perf_counter() - start
    per_form = {name: 0 for name in CLOSED_FORM_CHECKS}
    for check in report.checks:
        per_form[check.name] += 1
    ok = report.ok and all(count == 50 * 30 for count in per_form.values())
    _conclude(1, "six closed forms agree exactly, 50 h, n <= 30", ok, elapsed, 30)


def test_criterion_2_real_identities():
    start = time.perf_counter()
    report = run_all(
        _corpus(n_max=20),
        include={"sum_identity", "catalan_real", "index_shift"},
    )
    elapsed = time.perf_counter() - start
    names = {c.name for c in report.checks}
    ok = report.ok and names == {"sum_identity", "catalan_real", "index_shift"}
    _conclude(2, "summation, Catalan, index-shift identities, n <= 20", ok, elapsed, 30)


def test_criterion_3_hypercomplex_binet():
    start = time.perf_counter()
    report = run_all(
        _corpus(algebras=ALGEBRAS, n_max=20), include={"hyper_binet"}
    )
    elapsed = time.perf_counter() - start
    ok = report.ok and len(report.checks) == 50 * len(ALGEBRAS) * 21
    _conclude(3, "closed form equals recurrence in all six algebras", ok, elapsed, 60)


def test_criterion_4_generating_functions():
    start = time.perf_counter()
    report = run_all(
        _corpus(algebras=ALGEBRAS, trunc_n=20),
        include={"genfun_real", "hyper_genfun"},
    )
    elapsed = time.perf_counter() - start
    ok = report.ok and len(report.checks) == 50 + 50 * len(ALGEBRAS)
    _conclude(4, "truncated generating functions to N = 20", ok, elapsed, 30)


def test_criterion_5_quadratic_identities():
    start = time.perf_counter()
    report = run_all(
        _corpus(algebras=ALGEBRAS, r_max=15),
        include={"hyper_catalan", "hyper_cassini", "hyper_docagne"},
    )
    elapsed = time.perf_counter() - start
    counts = {"hyper_catalan": 0, "hyper_cassini": 0, "hyper_docagne": 0}
    for check in report.checks:
        counts[check.name] += 1
    per_pair = 50 * len(ALGEBRAS)
    ok = (
        report.ok
        and counts["hyper_catalan"] == per_pair * 136  # 0 <= r <= n <= 15
        and counts["hyper_cassini"] == per_pair * 15   # 1 <= n <= 15
        and counts["hyper_docagne"] == per_pair * 120  # 0 <= n < r <= 15
    )
    _conclude(5, "Catalan, Cassini, d'Ocagne across all algebras", ok, elapsed, 120)


def test_criterion_6_printed_form_diagnostic():
    start = time.perf_counter()
    report = run_all(default_corpus(seed=42), include={"hyper_catalan_printed"})
    elapsed = time.perf_counter() - start
    r_one = [c for c in report.checks if c.params["r"] == 1]
    r_two = [c for c in report.checks if c.params["r"] == 2]
    ok = (
        report.ok  # flags never fail the run
        and all(c.verdict == "flag" for c in report.checks)
        and r_one and all("matches" in c.witness for c in r_one)
        and any("differs" in c.witness for c in r_two)
    )
    _conclude(6, "printed Catalan form matches only at r = 1, flagged", ok, elapsed, 10)


def test_criterion_7_ratio_limit():
    start = time.perf_counter()
    residual_fib = FibContext(1).ratio_limit_check(2.0, 40)
    residual_x = FibContext(X).ratio_limit_check(2.0, 40)
    elapsed = time.perf_counter() - start
    ok = residual_fib < 1e-10 and residual_x < 1e-10
    _conclude(7, "ratio converges to the dominant root at n = 40", ok, elapsed, 1)


def test_criterion_8_mutation_sensitivity():
    start = time.perf_counter()
    missed = [name for name in MUTATIONS if not run_with_mutation(name).failures]
    elapsed = time.perf_counter() - start
    ok = not missed and len(MUTATIONS) == 10
    _conclude(8, f"all ten single-site faults detected {missed or ''}", ok, elapsed, 120)


def test_criterion_9_determinism(tmp_path):
    start = time.perf_counter()
    paths = [tmp_path / "first.json", tmp_path / "second.json"]
    codes = [
        cli_main(["verify", "--seed", "42", "--report", str(p)]) for p in paths
    ]
    docs = []
    for p in paths:
        doc = json.loads(p.read_text())
        for check in doc["checks"]:
            check.pop("ms", None)
        docs.append(doc)
    elapsed = time.perf_counter() - start
    # the benchmark's golden record of the same report: a fast path that
    # moves any verdict or witness fails here, not only in a benchmark run
    golden = json.loads(GOLDEN.read_text())["verify_seed_42"]
    canon = json.dumps({"seed": docs[0]["seed"], "checks": docs[0]["checks"]},
                       sort_keys=True, separators=(",", ":"))
    got = {"checks": len(docs[0]["checks"]),
           "flagged": sum(c["verdict"] == "flag" for c in docs[0]["checks"]),
           "digest": hashlib.sha256(canon.encode()).hexdigest()}
    ok = codes == [0, 0] and docs[0] == docs[1] and got == golden
    _conclude(9, "verify --seed 42 is reproducible modulo timing", ok, elapsed, 120)
