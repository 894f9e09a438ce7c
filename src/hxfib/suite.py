"""Corpus generation, the full check battery, fault injection, shrinking,
and machine-readable reporting.

Checks are data: a failing verdict becomes a "fail" record with a witness,
never an exception.  The one expected family of non-pass outcomes is the
printed-form diagnostic of the quadratic identity, which is recorded as
"flag" in both directions and never fails a run.

The schedule is a sequence of blocks, each of one h (and, for the algebra
families, one algebra), with a lane per family and a lazy stream of
positional argument tuples.  `_run_block` is the one runner: it binds a
lane's context method once at block start (after any `MUTATIONS` patch),
times each call alone, and maps verdicts and expected errors to records.
`iter_records` builds a `CheckRecord` from each row, for `run_all`,
`shrink` and the tests; `write_run`, which `verify` uses, formats each
row from its lane's templates, with the name and constant params (h,
algebra) quoted in once per block.
"""

from __future__ import annotations

import io
import json
import math
import random
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from json.encoder import encode_basestring_ascii as _quote
from math import isfinite
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

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
    HOLDS,
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


@dataclass(slots=True)
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


def _record_shape(name, verdict, plain: bool, keys: tuple, const: dict | None = None
                  ) -> tuple | None:
    """The `%`-format template of an indent=2 record, four spaces deep, of
    one shape, and the param keys in the order of its slots; None unless
    the name, verdict and keys are `str`.  The slots are the `ms`, the
    params by sorted key and, unless `plain`, the witness.  The params of
    `const`, the same on every record of the shape, are quoted into the
    template instead of taking a slot; None also when one of their values
    is not a `str`, an `int` or a finite `float`."""
    const = const or {}
    names = (*keys, *const)
    if type(name) is not str or type(verdict) is not str or any(type(k) is not str for k in names):
        return None
    order = tuple(sorted(keys))

    def quote(text: str) -> str:
        return _quote(text).replace("%", "%%")

    texts = {}
    for key, value in const.items():
        kind = type(value)
        if kind is str:
            texts[key] = quote(value)
        elif kind is int or kind is float and isfinite(value):
            texts[key] = repr(value)
        else:
            return None
    slots = [f"{quote(k)}: {texts.get(k, '%s')}" for k in sorted(names)]
    params = "{\n        " + ",\n        ".join(slots) + "\n      }" if slots else "{}"
    tail = "\n    }" if plain else ',\n      "witness": %s\n    }'
    return (f'{{\n      "ms": %r,\n      "name": {quote(name)},\n      "params": {params},\n'
            f'      "verdict": {quote(verdict)}{tail}', order)


def _template_record(c: CheckRecord, shapes: dict | None = None,
                     quoted: dict | None = None) -> str | None:
    """One record of an indent=2 report, four spaces deep, without the
    indented stdlib encoder, which is pure Python; None outside the shape
    covered: a finite float `ms`, `str` name, verdict and witness (or none),
    and flat params with `str` keys and `str`, `int` or finite `float` values.

    `shapes` caches the template of each (name, verdict, witness present,
    param keys) and `quoted` each `str` param value as JSON; `write_report`
    keeps both for one report.  Every value's type is checked on every
    record, since records of one shape may hold values of other types."""
    if shapes is None:
        shapes, quoted = {}, {}
    ms, params, witness = c.ms, c.params, c.witness
    if (type(params) is not dict or type(ms) is not float or not isfinite(ms)
            or witness is not None and type(witness) is not str):
        return None
    key = (c.name, c.verdict, witness is None, tuple(params))
    try:
        shape = shapes[key]
    except KeyError:
        shape = shapes[key] = _record_shape(*key)
    except TypeError:  # an unhashable name or verdict
        return None
    if shape is None:
        return None
    template, order = shape
    values = [ms]
    for value in map(params.__getitem__, order):
        kind = type(value)
        if kind is str:
            text = quoted.get(value)
            if text is None:
                text = quoted[value] = _quote(value)
            value = text
        elif kind is not int and not (kind is float and isfinite(value)):
            return None
        values.append(value)
    if witness is not None:
        values.append(_quote(witness))
    # %r of an exact float and %s of an exact int or float are their
    # __repr__, as in the encoder
    return template % tuple(values)


def _record_text(c: CheckRecord, shapes: dict, quoted: dict) -> str:
    """One record of an indent=2 report, four spaces deep: from its
    template, or with `json.dumps` on its own outside the shape covered."""
    return (_template_record(c, shapes, quoted)
            or json.dumps(c.to_dict(), indent=2, sort_keys=True).replace("\n", "\n    "))


def _write_document(out, seed, texts: Iterable[tuple[str, str]]) -> Counter:
    """Write the report of `seed` around the (verdict, record text) pairs
    of `texts` to the text stream `out`, each record as soon as it is
    made, and return the count of each verdict."""
    counts: dict = {}
    out.write('{\n  "checks": [')
    for verdict, text in texts:
        out.write((",\n    " if counts else "\n    ") + text)
        counts[verdict] = counts.get(verdict, 0) + 1
    seed_text = (repr(seed) if type(seed) is int
                 else json.dumps(seed, indent=2, sort_keys=True).replace("\n", "\n  "))
    out.write(("\n  ]" if counts else "]") + f',\n  "seed": {seed_text}\n}}')
    return Counter(counts)


def write_report(out, seed: int, records: Iterable[CheckRecord]) -> Counter:
    """Write `json.dumps({"seed": seed, "checks": [r.to_dict() for r in
    records]}, indent=2, sort_keys=True)` to the text stream `out`, each
    record as soon as it is made, and return the count of each verdict.
    A run that stops early leaves a prefix that is not valid JSON.  The
    templates of `_template_record` are cached for this call only."""
    shapes: dict = {}
    quoted: dict[str, str] = {}
    return _write_document(out, seed, ((c.verdict, _record_text(c, shapes, quoted))
                                       for c in records))


def summary_line(counts: Counter) -> str:
    """The summary of a run from its count of each verdict."""
    n, failed, flagged = sum(counts.values()), counts["fail"], counts["flag"]
    return f"{n} checks: {n - failed - flagged} passed, {failed} failed, {flagged} flagged"


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
        """`json.dumps(self.to_dict(), indent=indent, sort_keys=True)`."""
        if indent != 2:
            return json.dumps(self.to_dict(), indent=indent, sort_keys=True)
        out = io.StringIO()
        write_report(out, self.seed, self.checks)
        return out.getvalue()

    def comparable(self) -> dict:
        """The report without its timing fields, for determinism tests."""
        doc = self.to_dict()
        for check in doc["checks"]:
            check.pop("ms", None)
        return doc

    def summary(self) -> str:
        return summary_line(Counter(c.verdict for c in self.checks))


# ---------------------------------------------------------------------------
# runtime and check implementations


def _tables_by_name(tables: Iterable[AlgebraTable]) -> dict[str, AlgebraTable]:
    """The tables of a run keyed by name, with the one-dimensional table
    under "scalar", where dim1_specialization runs.  Raises `ValueError`
    for a name given twice, since the run keys its tables and caches by
    name, and for a table named "scalar" that is not `scalar_table()`."""
    by_name: dict[str, AlgebraTable] = {}
    for table in tables:
        if table.name in by_name:
            raise ValueError(f"algebra name {table.name!r} is given more than once")
        by_name[table.name] = table
    if by_name.setdefault("scalar", scalar_table()) != scalar_table():
        raise ValueError("algebra name 'scalar' is reserved for the one-dimensional table")
    return by_name


class Runtime:
    """The contexts of a run, one of each kind: the `FibContext` of the
    current h and the `HyperContext` of the current (h, algebra) pair.  A
    check on another h builds a new `FibContext` and drops the
    `HyperContext`, which holds the old one; a check on another pair builds
    a new `HyperContext`.  The schedule's blocks each hold one h or one
    pair, and a block binds its context methods at its start, so a run
    holds one h's caches at a time, a context is built outside the `ms` of
    every record, and shrink candidates on one h share warm contexts.
    Single-threaded."""

    def __init__(self, tables: dict[str, AlgebraTable]):
        self.tables = _tables_by_name(tables.values())
        self._fib: tuple[str, FibContext] | None = None
        self._hyper: tuple[tuple[str, str], HyperContext] | None = None

    def table(self, name: str) -> AlgebraTable:
        try:
            return self.tables[name]
        except KeyError:
            raise UnknownKind(f"algebra {name!r} is not part of this run")

    def fib_ctx(self, h_text: str) -> FibContext:
        if self._fib is None or self._fib[0] != h_text:
            self._hyper = None
            self._fib = (h_text, FibContext(parse_poly(h_text)))
        return self._fib[1]

    def hyper_ctx(self, h_text: str, algebra: str) -> HyperContext:
        key = (h_text, algebra)
        if self._hyper is None or self._hyper[0] != key:
            self._hyper = (key, HyperContext(self.fib_ctx(h_text), self.table(algebra)))
        return self._hyper[1]


def _rng(params: dict, label: str) -> random.Random:
    return random.Random(f"hxfib-{label}-" + json.dumps(params, sort_keys=True))


def _random_element(table: AlgebraTable, rng: random.Random):
    return table.element(tuple(rng.randint(-4, 4) for _ in range(table.dim)))


class _ContextCheck:
    """The family that calls `<context>.<method>` on the params named by
    `keys`, the context being the run's `FibContext` of h or, with
    `hyper`, its `HyperContext` of (h, algebra).  `bind` looks the method
    up on the context, so a method patched on the class is the one
    called; a block binds it once for all its records."""

    __slots__ = ("method", "keys", "hyper")

    def __init__(self, method: str, keys: tuple[str, ...], hyper: bool):
        self.method, self.keys, self.hyper = method, keys, hyper

    def bind(self, rt: Runtime, p: dict) -> Callable[..., Verdict]:
        ctx = rt.hyper_ctx(p["h"], p["algebra"]) if self.hyper else rt.fib_ctx(p["h"])
        return getattr(ctx, self.method)

    def __call__(self, rt: Runtime, p: dict) -> Verdict:
        return self.bind(rt, p)(*map(p.__getitem__, self.keys))


class _ClosedFormCheck(_ContextCheck):
    """The family that compares `FibContext.<method>(n)` with the
    recurrence's F_n, by `FibContext.form_test`."""

    __slots__ = ()

    def __init__(self, method: str):
        super().__init__(method, ("n",), False)

    def bind(self, rt: Runtime, p: dict) -> Callable[[int], Verdict]:
        method = self.method
        matches = rt.fib_ctx(p["h"]).form_test(method)

        def check(n: int) -> Verdict:
            if not matches(n):
                return Verdict(False, f"{method} disagrees with the recurrence at n={n}")
            return HOLDS

        return check


_PRINTED_MATCHES = Verdict(True, "printed right-hand side matches the derived form")
_PRINTED_DIFFERS = Verdict(False, "printed right-hand side (square exponent) differs "
                                  "from the derived form (2r exponent)")


class _PrintedCheck(_ContextCheck):
    """`HyperContext.printed_matches(n, r)` as one of two verdicts."""

    __slots__ = ()

    def bind(self, rt: Runtime, p: dict) -> Callable[[int, int], Verdict]:
        matches = super().bind(rt, p)
        return lambda n, r: _PRINTED_MATCHES if matches(n, r) else _PRINTED_DIFFERS


def _fib_check(method: str, *keys: str) -> _ContextCheck:
    return _ContextCheck(method, keys, False)


def _hyper_check(method: str, *keys: str) -> _ContextCheck:
    return _ContextCheck(method, keys, True)


def _ck_fib_degree(rt: Runtime, p: dict) -> Verdict:
    ctx = rt.fib_ctx(p["h"])
    n = p["n"]
    if n < 1:
        raise IndexConstraintViolated("the degree formula starts at n = 1")
    if not ctx.h:
        raise ZeroH("the degree formula needs h != 0")
    expected = (n - 1) * ctx.h.degree
    if ctx.fib(n).degree != expected:
        return Verdict(False, f"deg F_{n} is {ctx.fib(n).degree}, expected {expected}")
    return HOLDS


def _ck_ratio_limit(rt: Runtime, p: dict) -> Verdict:
    ctx = rt.fib_ctx(p["h"])
    residual = ctx.ratio_limit_check(p["x0"], p["n"])
    tol = ctx.ratio_tolerance(p["x0"], p["n"])
    if not math.isfinite(residual):
        return Verdict(False, f"residual {residual} is not finite")
    if residual >= tol:
        return Verdict(False, f"residual {residual:.3e} >= tolerance {tol:.3e}")
    return HOLDS


def _ck_algebra_validate(rt: Runtime, p: dict) -> Verdict:
    rt.table(p["algebra"]).validate()
    return HOLDS


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
    return HOLDS


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
    return HOLDS


def _ck_unit_law(rt: Runtime, p: dict) -> Verdict:
    table = rt.table(p["algebra"])
    rng = _rng(p, "unit")
    e0 = table.unit()
    for trial in range(p["trials"]):
        u = _random_element(table, rng)
        if e0 * u != u or u * e0 != u:
            return Verdict(False, f"unit law failed on trial {trial}")
    return HOLDS


def _ck_bilinearity(rt: Runtime, p: dict) -> Verdict:
    table = rt.table(p["algebra"])
    rng = _rng(p, "bilin")
    for trial in range(p["trials"]):
        u = _random_element(table, rng)
        v = _random_element(table, rng)
        w = _random_element(table, rng)
        if (u + v) * w != u * w + v * w or w * (u + v) != w * u + w * v:
            return Verdict(False, f"bilinearity failed on trial {trial}")
    return HOLDS


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
    "closed_form_binomial": _ClosedFormCheck("explicit_binomial"),
    "closed_form_halving": _ClosedFormCheck("explicit_halving"),
    "closed_form_chebyshev": _ClosedFormCheck("chebyshev_form"),
    "closed_form_binet": _ClosedFormCheck("binet"),
    "closed_form_differential": _ClosedFormCheck("differential_form"),
    "fib_degree": _ck_fib_degree,
    "genfun_real": _fib_check("genfun_check", "N"),
    "sum_identity": _fib_check("sum_identity_check", "n"),
    "catalan_real": _fib_check("catalan_check", "n", "r"),
    "index_shift": _fib_check("index_shift_check", "a", "b", "c", "d", "r"),
    "ratio_limit": _ck_ratio_limit,
    "algebra_validate": _ck_algebra_validate,
    "hamilton_relations": _ck_hamilton,
    "alternative_laws": _ck_alternative,
    "unit_law": _ck_unit_law,
    "bilinearity": _ck_bilinearity,
    "hyper_recurrence": _hyper_check("recurrence_check", "n"),
    "hyper_partial_sum": _hyper_check("partial_sum_check", "p"),
    "hyper_binet": _hyper_check("binet_check", "n"),
    "hyper_genfun": _hyper_check("genfun_check", "N"),
    "hyper_catalan": _hyper_check("catalan_check", "n", "r"),
    "hyper_catalan_printed": _PrintedCheck("printed_matches", ("n", "r"), True),
    "hyper_cassini": _hyper_check("cassini_check", "n"),
    "hyper_docagne": _hyper_check("docagne_check", "n", "r"),
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


class Lane(NamedTuple):
    """One check family of a block: its name, the params that are the same
    on every record of the block (h, and the algebra of the algebra
    families), and the keys of the params that vary, sorted, which name
    the slots of each row's argument tuple."""

    name: str
    const: dict
    keys: tuple[str, ...] = ()


class Block(NamedTuple):
    """Checks on one h (and, for the algebra families, one algebra) in
    schedule order: the lanes, and a lazy iterable of (lane index,
    arguments) rows.  Families scheduled in turn, such as the closed forms
    with `fib_degree` at each n, share a block with a lane each."""

    lanes: tuple[Lane, ...]
    rows: Iterable[tuple[int, tuple]]


def _params_of(lane: Lane) -> Callable[[tuple], dict]:
    """The params of a lane's row from its arguments, the constant ones
    first.  A dict display costs about half of `update(zip(...))`, which
    `run_all` would pay on every record, so the arities of the schedule's
    lanes (one, two and five keys) each get one."""
    const, keys = lane.const, lane.keys
    if len(keys) == 1:
        (a,) = keys
        return lambda x: {**const, a: x[0]}
    if len(keys) == 2:
        a, b = keys
        return lambda x: {**const, a: x[0], b: x[1]}
    if len(keys) == 5:
        a, b, c, d, e = keys
        return lambda x: {**const, a: x[0], b: x[1], c: x[2], d: x[3], e: x[4]}
    return lambda args: {**const, **dict(zip(keys, args))}


def _lane_call(runtime: Runtime, lane: Lane) -> Callable[..., Verdict]:
    """The call that checks one row of a lane: the context method of a
    `_ContextCheck` whose keys are the lane's, bound once, or else the
    `CHECKS` entry (a tracer's or a test's wrapper included) on each row's
    params.  A binding that raises an expected error fails every row with
    the witness each call would have given."""
    check = CHECKS[lane.name]
    if isinstance(check, _ContextCheck) and check.keys == lane.keys:
        try:
            return check.bind(runtime, lane.const)
        except _EXPECTED_ERRORS as exc:
            verdict = Verdict(False, f"{type(exc).__name__}: {exc}")
            return lambda *args: verdict
    params = _params_of(lane)
    return lambda *args: check(runtime, params(args))


def _run_block(runtime: Runtime, block: Block) -> Iterator[tuple]:
    """Run a block's rows in order, yielding (lane index, arguments,
    verdict, witness, ms) for each as it is made.  `ms` times the check's
    own call, not the binding of its lane."""
    lanes = block.lanes
    calls = [_lane_call(runtime, lane) for lane in lanes]
    flags = [lane.name in FLAG_CHECKS for lane in lanes]
    clock = time.perf_counter
    for i, args in block.rows:
        call = calls[i]
        start = clock()
        try:
            verdict = call(*args)
        except _EXPECTED_ERRORS as exc:
            verdict = Verdict(False, f"{type(exc).__name__}: {exc}")
        ms = (clock() - start) * 1000.0
        if flags[i]:
            yield i, args, "flag", verdict.witness, ms
        elif verdict.ok:
            yield i, args, "pass", None, ms
        else:
            yield i, args, "fail", verdict.witness or "mismatch", ms


def _execute(runtime: Runtime, name: str, params: dict) -> CheckRecord:
    """The record of one check: `_run_block` on a block of one row."""
    block = Block((Lane(name, params),), [(0, ())])
    for _, _, verdict, witness, ms in _run_block(runtime, block):
        return CheckRecord(name, params, verdict, witness, ms)


# ---------------------------------------------------------------------------
# scheduling

_CLOSED_FORMS = (
    "closed_form_binomial",
    "closed_form_halving",
    "closed_form_chebyshev",
    "closed_form_binet",
    "closed_form_differential",
)


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


def _catalan_pairs(m: int) -> Iterator[tuple[int, int]]:
    """(n, r) with 0 <= r <= n <= m."""
    for n in range(m + 1):
        for r in range(n + 1):
            yield n, r


def _docagne_pairs(m: int) -> Iterator[tuple[int, int]]:
    """(n, r) with 0 <= n < r <= m."""
    for n in range(m):
        for r in range(n + 1, m + 1):
            yield n, r


def _each_lane(lanes: tuple[Lane, ...], args: Iterable[tuple]) -> Iterator[tuple[int, tuple]]:
    """Every lane in turn on each argument tuple."""
    for a in args:
        for i in range(len(lanes)):
            yield i, a


def _catalan_rows(lanes: tuple[Lane, ...], m: int) -> Iterator[tuple[int, tuple]]:
    """`_each_lane` over `_catalan_pairs(m)`, the printed form from r = 1."""
    from_one = [lane.name == "hyper_catalan_printed" for lane in lanes]
    for n, r in _catalan_pairs(m):
        for i, skip in enumerate(from_one):
            if r or not skip:
                yield i, (n, r)


def _schedule(corpus: Corpus, include: set[str] | None = None) -> Iterator[Block]:
    """The blocks of a run in order: the table oracles per algebra, then
    per h its scalar families and per algebra its hyper families, then the
    ratio spot-checks."""
    def lanes(names, const, keys=()) -> tuple[Lane, ...]:
        return tuple(Lane(name, const, keys) for name in names
                     if include is None or name in include)

    def single(name, const, keys=(), args=((),)) -> Iterator[Block]:
        for lane in lanes((name,), const, keys):
            yield Block((lane,), zip(repeat(0), args))

    for table in corpus.algebras:
        alg = table.name
        trials = {"algebra": alg, "trials": 3, "seed": corpus.seed}
        yield from single("algebra_validate", {"algebra": alg})
        yield from single("unit_law", trials)
        yield from single("bilinearity", trials)
        if alg == "quaternion":
            yield from single("hamilton_relations", {"algebra": alg})
        if alg.startswith("octonion"):
            yield from single("alternative_laws", trials)

    n_max, r_max = corpus.n_max, corpus.r_max
    for h in corpus.h_polys:
        on_h = {"h": format_poly(h)}
        # zip over one range yields 1-tuples
        closed = lanes(_CLOSED_FORMS + (("fib_degree",) if h.degree >= 1 else ()), on_h, ("n",))
        if closed:
            yield Block(closed, _each_lane(closed, zip(range(1, n_max + 1))))
        yield from single("genfun_real", {**on_h, "N": corpus.trunc_n})
        if h:
            yield from single("sum_identity", on_h, ("n",), zip(range(1, n_max + 1)))
        yield from single("catalan_real", on_h, ("n", "r"), _catalan_pairs(n_max))
        yield from single("index_shift", on_h, ("a", "b", "c", "d", "r"),
                          _index_shift_tuples(n_max))
        yield from single("dim1_specialization", on_h, ("n",), zip(range(n_max + 1)))

        for table in corpus.algebras:
            on_pair = {**on_h, "algebra": table.name}
            yield from single("hyper_recurrence", on_pair, ("n",), zip(range(n_max + 1)))
            if h:
                yield from single("hyper_partial_sum", on_pair, ("p",),
                                  zip(range(1, corpus.p_max + 1)))
            yield from single("hyper_binet", on_pair, ("n",), zip(range(n_max + 1)))
            yield from single("hyper_genfun", {**on_pair, "N": corpus.trunc_n})
            catalan = lanes(("hyper_catalan", "hyper_catalan_printed"), on_pair, ("n", "r"))
            if catalan:
                yield Block(catalan, _catalan_rows(catalan, r_max))
            yield from single("hyper_cassini", on_pair, ("n",), zip(range(1, r_max + 1)))
            yield from single("hyper_docagne", on_pair, ("n", "r"), _docagne_pairs(r_max))

    for h_text in ("1", "x"):
        yield from single("ratio_limit", {"h": h_text, "x0": 2.0, "n": 40})


def iter_records(corpus: Corpus, include: set[str] | None = None) -> Iterator[CheckRecord]:
    """Run the scheduled checks over the corpus, yielding each record as made."""
    runtime = Runtime(_tables_by_name(corpus.algebras))
    for block in _schedule(corpus, include):
        names = [lane.name for lane in block.lanes]
        params = [_params_of(lane) for lane in block.lanes]
        for i, args, verdict, witness, ms in _run_block(runtime, block):
            yield CheckRecord(names[i], params[i](args), verdict, witness, ms)


def run_all(corpus: Corpus, include: set[str] | None = None) -> Report:
    """The report of `iter_records` over the corpus, every record kept."""
    return Report(corpus.seed, list(iter_records(corpus, include)))


def _lane_template(lane: Lane, verdict: str, plain: bool) -> str:
    """The `_record_shape` template of a lane's records of one verdict, with
    the name and constant params quoted in, its slots the `ms`, the row's
    arguments and, unless `plain`, the witness; "" outside the shape."""
    shape = _record_shape(lane.name, verdict, plain, lane.keys, lane.const)
    return shape[0] if shape and shape[1] == lane.keys else ""


#: A witness as JSON text, cached: the printed-form flags repeat two
#: witnesses thousands of times, and failures may each name their own.
_quote_witness = lru_cache(maxsize=256)(_quote)


def write_run(out, corpus: Corpus) -> Counter:
    """`write_report(out, corpus.seed, iter_records(corpus))`, each record
    formatted from its lane's template as soon as its check has run, so
    that a record costs one `%` format of its `ms`, arguments and witness.
    A record outside the templates (a witness that is not a `str`, or a
    constant param that is not a `str`, `int` or finite `float`) is
    written as `write_report` writes it."""
    runtime = Runtime(_tables_by_name(corpus.algebras))
    shapes: dict = {}
    quoted: dict[str, str] = {}

    def texts() -> Iterator[tuple[str, str]]:
        for block in _schedule(corpus):
            lanes = block.lanes
            passes = [_lane_template(lane, "pass", True) for lane in lanes]
            others: dict[tuple, str] = {}  # by (lane index, verdict, witness is None)
            for i, args, verdict, witness, ms in _run_block(runtime, block):
                if verdict == "pass" and passes[i]:
                    yield verdict, passes[i] % (ms, *args)
                    continue
                key = (i, verdict, witness is None)
                template = others.get(key)
                if template is None:
                    template = others[key] = _lane_template(lanes[i], verdict, witness is None)
                if template and witness is None:
                    yield verdict, template % (ms, *args)
                elif template and type(witness) is str:
                    yield verdict, template % (ms, *args, _quote_witness(witness))
                else:
                    record = CheckRecord(lanes[i].name, _params_of(lanes[i])(args), verdict,
                                         witness, ms)
                    yield verdict, _record_text(record, shapes, quoted)

    return _write_document(out, corpus.seed, texts())


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


def _faulty_binomial_terms(self, n):
    # off by one: the top summand is dropped
    return [(fibseq_mod.binomial(n - k - 1, k), n - 2 * k - 1, 0) for k in range((n - 1) // 2)], 1


def _faulty_halving_terms(self, n):
    # the 2^(1-n) factor is dropped
    return [(fibseq_mod.binomial(n, 2 * k + 1), n - 2 * k - 1, k)
            for k in range((n - 1) // 2 + 1)], 1


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
    real, imag = us[n - 1].a, us[n - 1].b
    for _ in range((n - 1) % 4):  # times i^(n-1)
        real, imag = -imag, real
    if imag:
        raise NonRealResult("imaginary residue in Chebyshev form")
    return real


def _patched(owner, attr: str, value):
    """A mutation that sets `owner.attr` to `value` while it is active and
    then puts back exactly what `vars(owner)` held, wrapper or not."""
    @contextmanager
    def apply(corpus: Corpus):
        saved = vars(owner)[attr]
        setattr(owner, attr, value)
        try:
            yield corpus
        finally:
            setattr(owner, attr, saved)

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
    "wrong_initial_value": _patched(fibseq_mod, "_INITIAL_TERMS", (0, 2)),
    "table_entry_sign": _table_mutation(lambda t: corrupt_table_entry(t, 1, 2, -1)),
    "binomial_bound_off_by_one": _patched(FibContext, "binomial_terms", _faulty_binomial_terms),
    "halving_scale_dropped": _patched(FibContext, "halving_terms", _faulty_halving_terms),
    "roots_swapped": _patched(FibContext, "roots", _faulty_roots),
    "catalan_sign_exponent": _patched(FibContext, "catalan_check", _faulty_catalan_check),
    "sum_clearing_dropped": _patched(FibContext, "sum_identity_check", _faulty_sum_identity_check),
    "chebyshev_seed": _patched(FibContext, "chebyshev_form", _faulty_chebyshev_form),
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
    record unchanged if it does not fail, or cannot be rerun).  A candidate
    outside its family's domain raises `IndexConstraintViolated` (or
    `ZeroH` at h = 0), which fails differently from any failure inside it,
    so each check's own guard keeps the search inside the domain."""
    if record.verdict != "fail":
        return record
    runtime = Runtime(dict(tables) if tables else {})
    alg = record.params.get("algebra")
    if alg and alg not in runtime.tables:
        try:
            runtime.tables[alg] = builtin(alg)
        except UnknownKind:
            return record  # its table is not at hand, so it cannot be rerun
    kind = _failure_kind(record.witness)

    def fails(params: dict) -> CheckRecord | None:
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
            rec = fails(cand)
            if rec is not None:
                best = rec
                improved = True
                break
    return best
