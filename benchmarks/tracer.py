"""Per-layer tracing from outside the program.

`Tracer` (a context manager) replaces the layers' public functions and
methods, and the values of `suite.CHECKS`, with wrappers that time each
call, and puts every original back on exit. A module-level function is
replaced wherever a package module holds it by name: `poly_sum`, for one,
is imported into `fibseq`, `hyperfib` and `suite` and looked up there.

Each call is a span. Its self time is its duration minus the time its
child spans cover, where a child covers its whole wrapper, so the tracer's
bookkeeping for a child is not charged to the parent. Counts and times are
aggregated as each span closes. Spans of the coarse layers (check
families, report serialisation, shrink, cli) are also kept in full, with
their parent, for writing out at the end; keeping every scalar-layer span
as well would take gigabytes on `verify`.

The fault-injection mutations swap `FibContext` methods with
`mock.patch.object` while a fault is active, so the spans of the patched
method are missing for that time; its wrapper is back once the fault ends.
"""

from __future__ import annotations

import time
from collections import defaultdict

import hxfib
import hxfib.algebra as algebra
import hxfib.cli as cli
import hxfib.fibseq as fibseq
import hxfib.hyperfib as hyperfib
import hxfib.polytext as polytext
import hxfib.scalars as scalars
import hxfib.suite as suite

PACKAGE_MODULES = (hxfib, algebra, cli, fibseq, hyperfib, polytext, scalars, suite)

CLOSED_FORMS = ("explicit_binomial", "explicit_halving", "chebyshev_form", "binet",
                "differential_form")
FIB_CHECKS = ("genfun_check", "sum_identity_check", "catalan_check", "index_shift_check")
HYPER_CHECKS = ("recurrence_check", "partial_sum_check", "binet_check", "genfun_check",
                "catalan_check", "cassini_check", "docagne_check")
#: The 25 check families of `suite.CHECKS`, fixed here so that the metric
#: names stay the same if the battery changes.
FAMILIES = (
    "closed_form_binomial", "closed_form_halving", "closed_form_chebyshev",
    "closed_form_binet", "closed_form_differential", "fib_degree", "genfun_real",
    "sum_identity", "catalan_real", "index_shift", "ratio_limit", "algebra_validate",
    "hamilton_relations", "alternative_laws", "unit_law", "bilinearity",
    "hyper_recurrence", "hyper_partial_sum", "hyper_binet", "hyper_genfun",
    "hyper_catalan", "hyper_catalan_printed", "hyper_cassini", "hyper_docagne",
    "dim1_specialization",
)

Poly, QuadExt, FibContext = scalars.Poly, scalars.QuadExt, fibseq.FibContext

#: span name -> (owner, attributes); an owner is a class, or a module-level
#: function replaced in every module that holds it.
TARGETS = {
    "polytext.parse_poly": (polytext.parse_poly, ()),
    "polytext.format_poly": (polytext.format_poly, ()),
    "scalars.Poly.mul": (Poly, ("__mul__", "__rmul__")),
    "scalars.Poly.addsub": (Poly, ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__")),
    "scalars.poly_sum": (scalars.poly_sum, ()),
    "scalars.QuadExt.mul": (QuadExt, ("__mul__", "__rmul__")),
    "scalars.QuadExt.divexact_by_s": (QuadExt, ("divexact_by_s",)),
    "scalars.GaussRational.ops": (scalars.GaussRational, (
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__truediv__", "__neg__")),
    "algebra.AlgElement.mul": (algebra.AlgElement, ("__mul__", "__rmul__")),
    "algebra.AlgElement.addsub": (algebra.AlgElement, ("__add__", "__sub__", "__neg__",
                                                       "scale")),
    "algebra.AlgElement.embed": (algebra.AlgElement, ("embed",)),
    "algebra.AlgebraTable.validate": (algebra.AlgebraTable, ("validate",)),
    "fibseq.fib": (FibContext, ("fib",)),
    "fibseq.alpha_pow": (FibContext, ("alpha_pow",)),
    "fibseq.fib_product": (FibContext, ("fib_product",)),
    **{f"fibseq.{m}": (FibContext, (m,)) for m in CLOSED_FORMS + FIB_CHECKS},
    "hyperfib.q": (hyperfib.HyperContext, ("q",)),
    "hyperfib.star_products": (hyperfib.HyperContext, ("star_products",)),
    **{f"hyperfib.{m}": (hyperfib.HyperContext, (m,)) for m in HYPER_CHECKS},
    "suite.Report.to_json": (suite.Report, ("to_json",)),
    "suite.shrink": (suite.shrink, ()),
    "cli.main": (cli.main, ()),
}
KEPT = ("suite.check.", "suite.Report.to_json", "suite.shrink", "cli.main")


def _spec():
    """(name, unit, better) of every per-layer metric the traced run emits."""
    out = []

    def add(name, *fields):
        for f in fields:
            unit, better = {"calls": ("count", "lower"), "self_s": ("s", "lower"),
                            "s": ("s", "lower"), "hits": ("count", "higher")
                            }.get(f, ("count", "lower"))
            out.append((f"{name}.{f}", unit, better))

    add("polytext.parse_poly", "calls", "self_s")
    add("polytext.format_poly", "calls", "self_s")
    add("scalars.Poly.mul", "calls", "self_s", "coeff_products")
    out.append(("scalars.Poly.mul.max_coeff_bits", "bits", "lower"))
    add("scalars.Poly.addsub", "calls", "self_s")
    add("scalars.poly_sum", "calls", "self_s", "terms")
    for name in ("scalars.QuadExt.mul", "scalars.QuadExt.divexact_by_s",
                 "scalars.GaussRational.ops", "algebra.AlgElement.mul",
                 "algebra.AlgElement.addsub", "algebra.AlgElement.embed",
                 "algebra.AlgebraTable.validate", "fibseq.fib", "fibseq.alpha_pow"):
        add(name, "calls", "self_s")
    add("fibseq.fib_product", "calls", "self_s", "hits")
    for m in CLOSED_FORMS + FIB_CHECKS:
        add(f"fibseq.{m}", "self_s")
    for m in ("q", "star_products") + HYPER_CHECKS:
        add(f"hyperfib.{m}", "calls", "self_s")
    for family in FAMILIES:
        add(f"suite.check.{family}", "calls", "s")
    add("suite.Report.to_json", "self_s")
    add("suite.shrink", "calls", "self_s", "candidates", "reason_changed")
    add("cli.main", "self_s")
    out.append(("cli.report_bytes", "bytes", "lower"))
    out.append(("trace.wall_s", "s", "lower"))
    out.append(("trace.overhead_s", "s", "lower"))
    out.append(("src.nonblank_lines", "lines", "lower"))
    return out


PER_LAYER = _spec()
#: per-layer metrics counted by the hooks below rather than read off a span
COUNTED = {"scalars.Poly.mul.coeff_products", "scalars.Poly.mul.max_coeff_bits",
           "scalars.poly_sum.terms", "fibseq.fib_product.hits", "suite.shrink.candidates"}


class _Stat:
    __slots__ = ("calls", "self_s", "total_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0


class Tracer:
    """Install with `with Tracer() as tr:`; read `tr.values()` and
    `tr.spans` afterwards."""

    def __init__(self):
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.counts: dict[str, int] = defaultdict(int)
        #: kept spans: (name, start, end, index of the parent kept span or -1)
        self.spans: list = []
        self._stack = [[0.0]]  # child time of each open span, root at the bottom
        self._kept = [-1]  # `spans` index of each open kept span
        self._undo: list = []
        self._checks: dict = {}

    def _wrap(self, fn, name, before=None, after=None):
        """Time `fn` as span `name`. `before(args)` runs before the span
        opens; its result reaches `after(args, token)` once it closes."""
        clock = time.perf_counter
        stack, stat = self._stack, self.stats[name]
        kept = name.startswith(KEPT)
        spans, kept_stack = self.spans, self._kept

        def wrapper(*args, **kwargs):
            token = before(args) if before else None
            t0 = clock()
            frame = [0.0]
            stack.append(frame)
            if kept:
                kept_stack.append(len(spans))
                spans.append(None)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                stat.calls += 1
                stat.self_s += t1 - t0 - frame[0]
                stat.total_s += t1 - t0
                if kept:
                    index = kept_stack.pop()
                    spans[index] = (name, t0, t1, kept_stack[-1])
                if after:
                    after(args, token)
                stack[-1][0] += clock() - t0

        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    # -- counters measured at layer boundaries --------------------------

    def _hooks(self, name):
        counts, stats = self.counts, self.stats
        if name == "scalars.Poly.mul":
            def before(args):
                a, b = args[0], args[1]
                if isinstance(b, Poly):
                    counts["scalars.Poly.mul.coeff_products"] += len(a.num) * len(b.num)
                    if a.den and b.den and a.num and b.num:
                        bits = max(max(map(int.bit_length, a.num)),
                                   max(map(int.bit_length, b.num)))
                        if bits > counts["scalars.Poly.mul.max_coeff_bits"]:
                            counts["scalars.Poly.mul.max_coeff_bits"] = bits
            return before, None
        if name == "fibseq.fib_product":
            def after(args, mul_calls):
                # a hit computes no Poly product inside the call
                if stats["scalars.Poly.mul"].calls == mul_calls:
                    counts["fibseq.fib_product.hits"] += 1
            return (lambda args: stats["scalars.Poly.mul"].calls), after
        if name == "suite.shrink":
            def after(args, checks):
                counts["suite.shrink.candidates"] += counts["checks"] - checks
            return (lambda args: counts["checks"]), after
        if name.startswith("suite.check."):
            def after(args, token):
                counts["checks"] += 1
            return None, after
        return None, None

    def __enter__(self):
        try:
            for name, (owner, attrs) in TARGETS.items():
                before, after = self._hooks(name)
                if isinstance(owner, type):
                    for attr in attrs:
                        self._set(owner, attr,
                                  self._wrap(vars(owner)[attr], name, before, after))
                    continue
                fn = owner
                if name == "scalars.poly_sum":
                    fn = self._counting_sum(owner)
                wrapper = self._wrap(fn, name, before, after)
                for module in PACKAGE_MODULES:
                    for attr, value in list(vars(module).items()):
                        if value is owner:
                            self._set(module, attr, wrapper)
            self._checks = dict(suite.CHECKS)
            for family, fn in self._checks.items():
                suite.CHECKS[family] = self._wrap(
                    fn, f"suite.check.{family}", *self._hooks(f"suite.check.{family}"))
        except BaseException:
            self.__exit__()
            raise
        return self

    def _counting_sum(self, poly_sum):
        counts = self.counts

        def counted(polys):
            polys = list(polys)
            counts["scalars.poly_sum.terms"] += len(polys)
            return poly_sum(polys)

        return counted

    def __exit__(self, *exc):
        if self._checks:
            suite.CHECKS.clear()
            suite.CHECKS.update(self._checks)
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        return False

    def values(self) -> dict:
        """Per-layer values measured by the tracer, by metric name; the
        rest of `PER_LAYER` is filled in by the caller."""
        out = {}
        for metric, _unit, _better in PER_LAYER:
            span, _, field = metric.rpartition(".")
            if metric in COUNTED:
                out[metric] = self.counts[metric]
            elif field in ("calls", "self_s", "s") and (
                    span in TARGETS or span.startswith("suite.check.")):
                st = self.stats[span]
                out[metric] = st.total_s if field == "s" else getattr(st, field)
        return out

