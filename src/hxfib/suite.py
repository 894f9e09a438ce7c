"""Corpus generation, the full check battery, fault injection, shrinking,
and machine-readable reporting.

Checks are data: a failing verdict becomes a "fail" record with a witness,
never an exception.  The one expected family of non-pass outcomes is the
printed-form diagnostic of the quadratic identity, which is recorded as
"flag" in both directions and never fails a run.
"""

from __future__ import annotations

import json
import math
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Iterator, Optional
from unittest import mock

from . import fibseq as fibseq_mod
from .algebra import (
    AlgebraTable,
    NotUnital,
    TableMismatch,
    UnknownKind,
    builtin,
    complex_table,
    dual_table,
    octonion_table,
    quaternion_table,
    scalar_table,
    split_complex_table,
)
from .fibseq import (
    DomainError,
    FibContext,
    IndexConstraintViolated,
    Verdict,
    ZeroH,
)
from .hyperfib import HyperContext
from .polytext import format_poly, parse_poly
from .scalars import (
    ONE,
    X,
    DivisorZero,
    ModulusMismatch,
    NonRealResult,
    NotDivisible,
    Poly,
    QuadExt,
    poly_sum,
    quad_from_alpha,
    quad_from_beta,
)

# ---------------------------------------------------------------------------
# corpus


@dataclass(frozen=True)
class Corpus:
    """Bounds and inputs of one battery run; a pure function of the seed."""

    seed: int
    h_polys: tuple[Poly, ...]
    algebras: tuple[AlgebraTable, ...]
    n_max: int = 20
    r_max: int = 15
    p_max: int = 20
    trunc_n: int = 20


def random_h_polys(seed: int, count: int, max_degree: int = 4) -> tuple[Poly, ...]:
    """Deterministic nonzero polynomials, degrees 0..max_degree, numerators
    in [-5, 5], denominators in [1, 3]."""
    rng = random.Random(f"hxfib-h-{seed}")
    out: list[Poly] = []
    while len(out) < count:
        degree = rng.randint(0, max_degree)
        coeffs = [
            Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(degree + 1)
        ]
        p = Poly(coeffs)
        if p:
            out.append(p)
    return tuple(out)


def default_algebras() -> tuple[AlgebraTable, ...]:
    return (
        complex_table(),
        split_complex_table(),
        dual_table(),
        quaternion_table(),
        quaternion_table(2, -3),
        octonion_table(),
    )


def default_corpus(
    seed: int = 42,
    random_count: int = 5,
    algebras: tuple[AlgebraTable, ...] | None = None,
    n_max: int = 20,
    r_max: int = 15,
    p_max: int = 20,
    trunc_n: int = 20,
) -> Corpus:
    h_polys = (ONE, Poly((2,)), X) + random_h_polys(seed, random_count)
    return Corpus(
        seed=seed,
        h_polys=h_polys,
        algebras=algebras if algebras is not None else default_algebras(),
        n_max=n_max,
        r_max=r_max,
        p_max=p_max,
        trunc_n=trunc_n,
    )


# ---------------------------------------------------------------------------
# report


@dataclass
class CheckRecord:
    name: str
    params: dict
    verdict: str  # "pass" | "fail" | "flag"
    witness: Optional[str]
    ms: float

    def to_dict(self) -> dict:
        doc = {
            "name": self.name,
            "params": self.params,
            "verdict": self.verdict,
            "ms": self.ms,
        }
        if self.witness is not None:
            doc["witness"] = self.witness
        return doc

    def key(self) -> tuple:
        return (self.name, tuple(sorted(self.params.items())))


@dataclass
class Report:
    seed: int
    checks: list[CheckRecord] = field(default_factory=list)

    @property
    def failures(self) -> list[CheckRecord]:
        return [c for c in self.checks if c.verdict == "fail"]

    @property
    def flags(self) -> list[CheckRecord]:
        return [c for c in self.checks if c.verdict == "flag"]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {"seed": self.seed, "checks": [c.to_dict() for c in self.checks]}

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def comparable(self) -> dict:
        """The report without its timing fields, for determinism tests."""
        doc = self.to_dict()
        for check in doc["checks"]:
            check.pop("ms", None)
        return doc

    def summary(self) -> str:
        n = len(self.checks)
        return (
            f"{n} checks: {n - len(self.failures) - len(self.flags)} passed, "
            f"{len(self.failures)} failed, {len(self.flags)} flagged"
        )


# ---------------------------------------------------------------------------
# runtime and check implementations


class Runtime:
    """Per-run cache of contexts; single-threaded, cleared between h values
    to bound memory."""

    def __init__(self, tables: dict[str, AlgebraTable]):
        self.tables = dict(tables)
        self.tables.setdefault("scalar", scalar_table())
        self._fib: dict[str, FibContext] = {}
        self._hyper: dict[tuple[str, str], HyperContext] = {}

    def table(self, name: str) -> AlgebraTable:
        try:
            return self.tables[name]
        except KeyError:
            raise UnknownKind(f"algebra {name!r} is not part of this run")

    def fib_ctx(self, h_text: str) -> FibContext:
        ctx = self._fib.get(h_text)
        if ctx is None:
            ctx = self._fib[h_text] = FibContext(parse_poly(h_text))
        return ctx

    def hyper_ctx(self, h_text: str, algebra: str) -> HyperContext:
        key = (h_text, algebra)
        ctx = self._hyper.get(key)
        if ctx is None:
            ctx = self._hyper[key] = HyperContext(self.fib_ctx(h_text), self.table(algebra))
        return ctx

    def clear(self):
        self._fib.clear()
        self._hyper.clear()


def _rng(params: dict, label: str) -> random.Random:
    return random.Random(f"hxfib-{label}-" + json.dumps(params, sort_keys=True))


def _random_element(table: AlgebraTable, rng: random.Random):
    return table.element(tuple(rng.randint(-4, 4) for _ in range(table.dim)))


def _closed_form_check(method: str) -> Callable[[Runtime, dict], Verdict]:
    def run(rt: Runtime, p: dict) -> Verdict:
        ctx = rt.fib_ctx(p["h"])
        n = p["n"]
        if getattr(ctx, method)(n) != ctx.fib(n):
            return Verdict(False, f"{method} disagrees with the recurrence at n={n}")
        return Verdict(True)

    return run


def _ck_fib_degree(rt: Runtime, p: dict) -> Verdict:
    ctx = rt.fib_ctx(p["h"])
    n = p["n"]
    expected = (n - 1) * ctx.h.degree
    if ctx.fib(n).degree != expected:
        return Verdict(False, f"deg F_{n} is {ctx.fib(n).degree}, expected {expected}")
    return Verdict(True)


def _ck_genfun_real(rt: Runtime, p: dict) -> Verdict:
    return rt.fib_ctx(p["h"]).genfun_check(p["N"])


def _ck_sum_identity(rt: Runtime, p: dict) -> Verdict:
    return rt.fib_ctx(p["h"]).sum_identity_check(p["n"])


def _ck_catalan_real(rt: Runtime, p: dict) -> Verdict:
    return rt.fib_ctx(p["h"]).catalan_check(p["n"], p["r"])


def _ck_index_shift(rt: Runtime, p: dict) -> Verdict:
    return rt.fib_ctx(p["h"]).index_shift_check(p["a"], p["b"], p["c"], p["d"], p["r"])


def _ck_ratio_limit(rt: Runtime, p: dict) -> Verdict:
    ctx = rt.fib_ctx(p["h"])
    residual = ctx.ratio_limit_check(p["x0"], p["n"])
    tol = ctx.ratio_tolerance(p["x0"], p["n"])
    if not math.isfinite(residual):
        return Verdict(False, f"residual {residual} is not finite")
    if residual >= tol:
        return Verdict(False, f"residual {residual:.3e} >= tolerance {tol:.3e}")
    return Verdict(True)


def _ck_algebra_validate(rt: Runtime, p: dict) -> Verdict:
    rt.table(p["algebra"]).validate()
    return Verdict(True)


# Hamilton's relations, written out by hand as an oracle independent of the
# table constructors: (i, j) -> (k, sign) meaning e_i e_j = sign * e_k.
_HAMILTON = {
    (0, 0): (0, 1), (0, 1): (1, 1), (0, 2): (2, 1), (0, 3): (3, 1),
    (1, 0): (1, 1), (1, 1): (0, -1), (1, 2): (3, 1), (1, 3): (2, -1),
    (2, 0): (2, 1), (2, 1): (3, -1), (2, 2): (0, -1), (2, 3): (1, 1),
    (3, 0): (3, 1), (3, 1): (2, 1), (3, 2): (1, -1), (3, 3): (0, -1),
}


def _ck_hamilton(rt: Runtime, p: dict) -> Verdict:
    table = rt.table(p["algebra"])
    if table.dim != 4:
        return Verdict(False, f"expected a 4-dimensional table, got dim={table.dim}")
    for (i, j), (k, sign) in _HAMILTON.items():
        expected = tuple(sign if t == k else 0 for t in range(4))
        if tuple(table.basis_product(i, j)) != expected:
            return Verdict(False, f"e{i}*e{j} violates the Hamilton relations")
    return Verdict(True)


def _ck_alternative(rt: Runtime, p: dict) -> Verdict:
    table = rt.table(p["algebra"])
    rng = _rng(p, "alt")
    for trial in range(p["trials"]):
        u = _random_element(table, rng)
        v = _random_element(table, rng)
        if (u * u) * v != u * (u * v):
            return Verdict(False, f"left alternative law failed on trial {trial}")
        if (u * v) * v != u * (v * v):
            return Verdict(False, f"right alternative law failed on trial {trial}")
    return Verdict(True)


def _ck_unit_law(rt: Runtime, p: dict) -> Verdict:
    table = rt.table(p["algebra"])
    rng = _rng(p, "unit")
    e0 = table.unit()
    for trial in range(p["trials"]):
        u = _random_element(table, rng)
        if e0 * u != u or u * e0 != u:
            return Verdict(False, f"unit law failed on trial {trial}")
    return Verdict(True)


def _ck_bilinearity(rt: Runtime, p: dict) -> Verdict:
    table = rt.table(p["algebra"])
    rng = _rng(p, "bilin")
    for trial in range(p["trials"]):
        u = _random_element(table, rng)
        v = _random_element(table, rng)
        w = _random_element(table, rng)
        if (u + v) * w != u * w + v * w or w * (u + v) != w * u + w * v:
            return Verdict(False, f"bilinearity failed on trial {trial}")
    return Verdict(True)


def _ck_hyper_recurrence(rt: Runtime, p: dict) -> Verdict:
    return rt.hyper_ctx(p["h"], p["algebra"]).recurrence_check(p["n"])


def _ck_hyper_partial_sum(rt: Runtime, p: dict) -> Verdict:
    return rt.hyper_ctx(p["h"], p["algebra"]).partial_sum_check(p["p"])


def _ck_hyper_binet(rt: Runtime, p: dict) -> Verdict:
    return rt.hyper_ctx(p["h"], p["algebra"]).binet_check(p["n"])


def _ck_hyper_genfun(rt: Runtime, p: dict) -> Verdict:
    return rt.hyper_ctx(p["h"], p["algebra"]).genfun_check(p["N"])


def _ck_hyper_catalan(rt: Runtime, p: dict) -> Verdict:
    v = rt.hyper_ctx(p["h"], p["algebra"]).catalan_check(p["n"], p["r"])
    return Verdict(v.ok, v.witness)


def _ck_hyper_catalan_printed(rt: Runtime, p: dict) -> Verdict:
    ctx = rt.hyper_ctx(p["h"], p["algebra"])
    derived = ctx._signed(ctx._catalan_bracket(p["r"]), p["n"])
    printed = ctx._signed(ctx._printed_bracket(p["r"]), p["n"] + p["r"] + 1)
    if printed == derived:
        return Verdict(True, "printed right-hand side matches the derived form")
    return Verdict(False, "printed right-hand side (square exponent) differs from the derived form (2r exponent)")


def _ck_hyper_cassini(rt: Runtime, p: dict) -> Verdict:
    return rt.hyper_ctx(p["h"], p["algebra"]).cassini_check(p["n"])


def _ck_hyper_docagne(rt: Runtime, p: dict) -> Verdict:
    return rt.hyper_ctx(p["h"], p["algebra"]).docagne_check(p["n"], p["r"])


def _ck_dim1(rt: Runtime, p: dict) -> Verdict:
    fib = rt.fib_ctx(p["h"])
    hctx = rt.hyper_ctx(p["h"], "scalar")
    n = p["n"]
    if hctx.q(n).coords[0] != fib.fib(n):
        return Verdict(False, f"dim-1 element is not F_{n}")
    v = hctx.binet_check(n)
    if not v.ok:
        return v
    return hctx.recurrence_check(n)


CHECKS: dict[str, Callable[[Runtime, dict], Verdict]] = {
    "closed_form_binomial": _closed_form_check("explicit_binomial"),
    "closed_form_halving": _closed_form_check("explicit_halving"),
    "closed_form_chebyshev": _closed_form_check("chebyshev_form"),
    "closed_form_binet": _closed_form_check("binet"),
    "closed_form_differential": _closed_form_check("differential_form"),
    "fib_degree": _ck_fib_degree,
    "genfun_real": _ck_genfun_real,
    "sum_identity": _ck_sum_identity,
    "catalan_real": _ck_catalan_real,
    "index_shift": _ck_index_shift,
    "ratio_limit": _ck_ratio_limit,
    "algebra_validate": _ck_algebra_validate,
    "hamilton_relations": _ck_hamilton,
    "alternative_laws": _ck_alternative,
    "unit_law": _ck_unit_law,
    "bilinearity": _ck_bilinearity,
    "hyper_recurrence": _ck_hyper_recurrence,
    "hyper_partial_sum": _ck_hyper_partial_sum,
    "hyper_binet": _ck_hyper_binet,
    "hyper_genfun": _ck_hyper_genfun,
    "hyper_catalan": _ck_hyper_catalan,
    "hyper_catalan_printed": _ck_hyper_catalan_printed,
    "hyper_cassini": _ck_hyper_cassini,
    "hyper_docagne": _ck_hyper_docagne,
    "dim1_specialization": _ck_dim1,
}

#: Checks whose outcome is informational either way.
FLAG_CHECKS = {"hyper_catalan_printed"}

_EXPECTED_ERRORS = (
    NotDivisible,
    DivisorZero,
    NonRealResult,
    ModulusMismatch,
    TableMismatch,
    NotUnital,
    UnknownKind,
    ZeroH,
    DomainError,
    IndexConstraintViolated,
)


def _execute(runtime: Runtime, name: str, params: dict) -> CheckRecord:
    start = time.perf_counter()
    try:
        verdict = CHECKS[name](runtime, params)
    except _EXPECTED_ERRORS as exc:
        verdict = Verdict(False, f"{type(exc).__name__}: {exc}")
    ms = (time.perf_counter() - start) * 1000.0
    if name in FLAG_CHECKS:
        return CheckRecord(name, params, "flag", verdict.witness, ms)
    if verdict.ok:
        return CheckRecord(name, params, "pass", None, ms)
    return CheckRecord(name, params, "fail", verdict.witness or "mismatch", ms)


# ---------------------------------------------------------------------------
# scheduling


def _index_shift_tuples(n_max: int) -> Iterator[tuple[int, int, int, int, int]]:
    # canonical enumeration: a <= b, c <= d, (a, b) before (c, d), r >= 1
    for total in range(2, 2 * n_max + 1):
        pairs = [
            (a, total - a)
            for a in range(max(0, total - n_max), total // 2 + 1)
        ]
        for i1 in range(len(pairs)):
            a, b = pairs[i1]
            for i2 in range(i1 + 1, len(pairs)):
                c, d = pairs[i2]
                for r in range(1, min(a, c) + 1):
                    yield a, b, c, d, r


def _schedule(corpus: Corpus, include: set[str] | None = None) -> Iterator[tuple[str, dict]]:
    def want(name: str) -> bool:
        return include is None or name in include

    for table in corpus.algebras:
        alg = table.name
        if want("algebra_validate"):
            yield "algebra_validate", {"algebra": alg}
        if want("unit_law"):
            yield "unit_law", {"algebra": alg, "trials": 3, "seed": corpus.seed}
        if want("bilinearity"):
            yield "bilinearity", {"algebra": alg, "trials": 3, "seed": corpus.seed}
        if alg == "quaternion" and want("hamilton_relations"):
            yield "hamilton_relations", {"algebra": alg}
        if alg.startswith("octonion") and want("alternative_laws"):
            yield "alternative_laws", {"algebra": alg, "trials": 3, "seed": corpus.seed}

    for h in corpus.h_polys:
        ht = format_poly(h)
        for n in range(1, corpus.n_max + 1):
            for name in (
                "closed_form_binomial",
                "closed_form_halving",
                "closed_form_chebyshev",
                "closed_form_binet",
                "closed_form_differential",
            ):
                if want(name):
                    yield name, {"h": ht, "n": n}
            if h.degree >= 1 and want("fib_degree"):
                yield "fib_degree", {"h": ht, "n": n}
        if want("genfun_real"):
            yield "genfun_real", {"h": ht, "N": corpus.trunc_n}
        if h and want("sum_identity"):
            for n in range(1, corpus.n_max + 1):
                yield "sum_identity", {"h": ht, "n": n}
        if want("catalan_real"):
            for n in range(0, corpus.n_max + 1):
                for r in range(0, n + 1):
                    yield "catalan_real", {"h": ht, "n": n, "r": r}
        if want("index_shift"):
            for a, b, c, d, r in _index_shift_tuples(corpus.n_max):
                yield "index_shift", {"h": ht, "a": a, "b": b, "c": c, "d": d, "r": r}
        if want("dim1_specialization"):
            for n in range(0, corpus.n_max + 1):
                yield "dim1_specialization", {"h": ht, "n": n}

        for table in corpus.algebras:
            alg = table.name
            if want("hyper_recurrence"):
                for n in range(0, corpus.n_max + 1):
                    yield "hyper_recurrence", {"h": ht, "algebra": alg, "n": n}
            if h and want("hyper_partial_sum"):
                for p in range(1, corpus.p_max + 1):
                    yield "hyper_partial_sum", {"h": ht, "algebra": alg, "p": p}
            if want("hyper_binet"):
                for n in range(0, corpus.n_max + 1):
                    yield "hyper_binet", {"h": ht, "algebra": alg, "n": n}
            if want("hyper_genfun"):
                yield "hyper_genfun", {"h": ht, "algebra": alg, "N": corpus.trunc_n}
            for n in range(0, corpus.r_max + 1):
                for r in range(0, n + 1):
                    if want("hyper_catalan"):
                        yield "hyper_catalan", {"h": ht, "algebra": alg, "n": n, "r": r}
                    if r >= 1 and want("hyper_catalan_printed"):
                        yield "hyper_catalan_printed", {"h": ht, "algebra": alg, "n": n, "r": r}
            if want("hyper_cassini"):
                for n in range(1, corpus.r_max + 1):
                    yield "hyper_cassini", {"h": ht, "algebra": alg, "n": n}
            if want("hyper_docagne"):
                for n in range(0, corpus.r_max):
                    for r in range(n + 1, corpus.r_max + 1):
                        yield "hyper_docagne", {"h": ht, "algebra": alg, "n": n, "r": r}

    if want("ratio_limit"):
        yield "ratio_limit", {"h": "1", "x0": 2.0, "n": 40}
        yield "ratio_limit", {"h": "x", "x0": 2.0, "n": 40}


def run_all(corpus: Corpus, include: set[str] | None = None) -> Report:
    """Execute the scheduled cross-product of checks over the corpus."""
    runtime = Runtime({t.name: t for t in corpus.algebras})
    records: list[CheckRecord] = []
    current_h: str | None = None
    for name, params in _schedule(corpus, include):
        h = params.get("h")
        if h is not None and h != current_h:
            runtime.clear()  # bound the product caches to one h at a time
            current_h = h
        records.append(_execute(runtime, name, params))
    return Report(corpus.seed, records)


# ---------------------------------------------------------------------------
# fault injection


def corrupt_table_entry(table: AlgebraTable, i: int, j: int, factor) -> AlgebraTable:
    """Scale the e_i * e_j row of the table by `factor`."""
    constants = [
        [list(cell) for cell in row] for row in table.constants
    ]
    constants[i][j] = [Fraction(c) * Fraction(factor) for c in constants[i][j]]
    return AlgebraTable(table.name, constants)


def transpose_table(table: AlgebraTable) -> AlgebraTable:
    """Swap the two product indices: c[i][j] becomes c[j][i]."""
    dim = table.dim
    return AlgebraTable(
        table.name,
        [[list(table.constants[j][i]) for j in range(dim)] for i in range(dim)],
    )


def corrupt_unit_row(table: AlgebraTable) -> AlgebraTable:
    """Break the unit law: e_0 * e_1 becomes e_0."""
    constants = [[list(cell) for cell in row] for row in table.constants]
    constants[0][1] = [1 if k == 0 else 0 for k in range(table.dim)]
    return AlgebraTable(table.name, constants)


def _faulty_binomial_form(self, n):
    if n < 1:
        raise IndexConstraintViolated("closed forms start at n = 1")
    # off by one: the top summand is dropped
    return poly_sum(
        self._h_pow(n - 2 * k - 1) * fibseq_mod.binomial(n - k - 1, k)
        for k in range(0, (n - 1) // 2)
    )


def _faulty_halving_form(self, n):
    if n < 1:
        raise IndexConstraintViolated("closed forms start at n = 1")
    # the 2^(1-n) factor is dropped
    return poly_sum(
        (self._h_pow(n - 2 * k - 1) * self._disc_pow(k)) * fibseq_mod.binomial(n, 2 * k + 1)
        for k in range(0, (n - 1) // 2 + 1)
    )


def _faulty_roots(self):
    return quad_from_beta(self.h), quad_from_alpha(self.h)


def _faulty_catalan_check(self, n, r):
    if not 0 <= r <= n:
        raise IndexConstraintViolated("need 0 <= r <= n")
    lhs = self.fib_product(n - r, n + r) - self.fib_product(n, n)
    sign = -1 if (n - r) % 2 else 1  # wrong exponent: n - r instead of n - r - 1
    rhs = self.fib_product(r, r) * sign
    return Verdict(lhs == rhs, None if lhs == rhs else f"n={n}, r={r}")


def _faulty_sum_identity_check(self, n):
    if not self.h:
        raise ZeroH("the summation identity divides by h")
    # denominator clearing dropped: the h factor is forgotten
    lhs = poly_sum(self.fib(k) for k in range(1, n + 1))
    rhs = self.fib(n + 1) + self.fib(n) - 1
    return Verdict(lhs == rhs, None if lhs == rhs else f"partial sum up to n={n}")


def _faulty_chebyshev_form(self, n):
    if n < 1:
        raise IndexConstraintViolated("closed forms start at n = 1")
    step = QuadExt(0, -self.h, -1)
    seed = QuadExt(0, self.h * Fraction(-1, 2), -1)
    us = [QuadExt.one(-1), seed]  # wrong seed: U_1 = t instead of 2t
    while len(us) <= n - 1:
        us.append(us[-1] * step - us[-2])
    scaled = us[n - 1] * fibseq_mod._I_POWERS[(n - 1) % 4]
    if scaled.b:
        raise NonRealResult("imaginary residue in Chebyshev form")
    return scaled.a


def _method_mutation(attr: str, value):
    @contextmanager
    def apply(corpus: Corpus):
        with mock.patch.object(FibContext, attr, value):
            yield corpus

    return apply


def _module_mutation(attr: str, value):
    @contextmanager
    def apply(corpus: Corpus):
        with mock.patch.object(fibseq_mod, attr, value):
            yield corpus

    return apply


def _table_mutation(transform):
    @contextmanager
    def apply(corpus: Corpus):
        algebras = tuple(
            transform(t) if t.name == "quaternion" else t for t in corpus.algebras
        )
        yield replace(corpus, algebras=algebras)

    return apply


#: The prescribed single-site faults; each must be caught by at least one
#: failing check over `mutation_corpus()`.
MUTATIONS: dict[str, Callable] = {
    "wrong_initial_value": _module_mutation("_INITIAL_TERMS", (0, 2)),
    "table_entry_sign": _table_mutation(lambda t: corrupt_table_entry(t, 1, 2, -1)),
    "binomial_bound_off_by_one": _method_mutation("explicit_binomial", _faulty_binomial_form),
    "halving_scale_dropped": _method_mutation("explicit_halving", _faulty_halving_form),
    "roots_swapped": _method_mutation("roots", _faulty_roots),
    "catalan_sign_exponent": _method_mutation("catalan_check", _faulty_catalan_check),
    "sum_clearing_dropped": _method_mutation("sum_identity_check", _faulty_sum_identity_check),
    "chebyshev_seed": _method_mutation("chebyshev_form", _faulty_chebyshev_form),
    "unit_row_corrupted": _table_mutation(corrupt_unit_row),
    "table_transposed": _table_mutation(transpose_table),
}


def mutation_corpus() -> Corpus:
    """Small deterministic corpus that every prescribed fault must trip."""
    return Corpus(
        seed=7,
        h_polys=(ONE, Poly((2,)), X),
        algebras=(quaternion_table(),),
        n_max=8,
        r_max=4,
        p_max=4,
        trunc_n=5,
    )


def run_with_mutation(name: str, corpus: Corpus | None = None) -> Report:
    """Run the battery with one prescribed fault active."""
    apply = MUTATIONS[name]
    with apply(corpus or mutation_corpus()) as mutated:
        return run_all(mutated)


# ---------------------------------------------------------------------------
# shrinking


_INT_KEYS = ("n", "r", "p", "N", "a", "b", "c", "d")

_N_AT_LEAST_ONE = {
    "closed_form_binomial",
    "closed_form_halving",
    "closed_form_chebyshev",
    "closed_form_differential",
    "fib_degree",
    "sum_identity",
    "hyper_cassini",
    "ratio_limit",
}


def _valid_params(name: str, p: dict) -> bool:
    if name in ("catalan_real", "hyper_catalan", "hyper_catalan_printed"):
        return 0 <= p["r"] <= p["n"]
    if name == "hyper_docagne":
        return 0 <= p["n"] < p["r"]
    if name == "index_shift":
        lo = min(p["a"], p["b"], p["c"], p["d"])
        return p["a"] + p["b"] == p["c"] + p["d"] and 0 <= p["r"] <= lo
    if name == "hyper_partial_sum":
        return p["p"] >= 1
    if name in ("genfun_real", "hyper_genfun"):
        return p["N"] >= 1
    if name in _N_AT_LEAST_ONE:
        return p["n"] >= 1
    if "n" in p:
        return p["n"] >= 0
    return True


def _h_candidates(p: Poly) -> Iterator[Poly]:
    coeffs = list(p.coeffs)
    if len(coeffs) > 1:
        yield Poly(coeffs[:-1])
    for i, c in enumerate(coeffs):
        if not c:
            continue
        c = Fraction(c)
        if abs(c) != 1:
            smaller = list(coeffs)
            smaller[i] = 1 if c > 0 else -1
            yield Poly(smaller)
        zeroed = list(coeffs)
        zeroed[i] = 0
        yield Poly(zeroed)


def _shrink_candidates(name: str, params: dict) -> Iterator[dict]:
    if name == "index_shift":
        moves = (
            {"a": -1, "b": -1, "c": -1, "d": -1},
            {"a": -1, "c": -1},
            {"b": -1, "d": -1},
            {"r": -1},
        )
        for move in moves:
            cand = dict(params)
            for key, delta in move.items():
                cand[key] = cand[key] + delta
            if all(cand[k] >= 0 for k in ("a", "b", "c", "d", "r")):
                yield cand
    else:
        for key in _INT_KEYS:
            if key in params and isinstance(params[key], int):
                cand = dict(params)
                cand[key] = params[key] - 1
                if cand[key] >= 0:
                    yield cand
    if "h" in params:
        for hp in _h_candidates(parse_poly(params["h"])):
            cand = dict(params)
            cand["h"] = format_poly(hp)
            yield cand


def _failure_kind(witness: str | None) -> str:
    """The expected exception class a witness names ("ZeroH: ..."), or
    "verdict" for a plain failed verdict."""
    for exc in _EXPECTED_ERRORS:
        if witness and witness.startswith(exc.__name__ + ": "):
            return exc.__name__
    return "verdict"


def shrink(record: CheckRecord, tables: dict[str, AlgebraTable] | None = None) -> CheckRecord:
    """Greedily reduce indices, then the degree and coefficients of h,
    while the check keeps failing the same way (the same exception, or a
    plain failed verdict); returns the smallest such record found (or the
    record unchanged if it does not fail)."""
    if record.verdict != "fail":
        return record
    runtime = Runtime(dict(tables) if tables else {})
    alg = record.params.get("algebra")
    if alg and alg not in runtime.tables:
        runtime.tables[alg] = builtin(alg)
    kind = _failure_kind(record.witness)

    def fails(params: dict) -> CheckRecord | None:
        runtime.clear()
        rec = _execute(runtime, record.name, params)
        if rec.verdict == "fail" and _failure_kind(rec.witness) == kind:
            return rec
        return None

    best = fails(dict(record.params))
    if best is None:
        # not reproducible outside its original (possibly mutated) context
        return record
    improved = True
    while improved:
        improved = False
        for cand in _shrink_candidates(record.name, best.params):
            if not _valid_params(record.name, cand):
                continue
            rec = fails(cand)
            if rec is not None:
                best = rec
                improved = True
                break
    return best
