"""Command-line front end: tabulate sequences, run the verification
battery, expand generating functions, and inspect algebra tables.

Exit codes: 0 success, 1 a check failed (or a table is not unital),
2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import replace
from fractions import Fraction

from .algebra import (
    AlgebraTable,
    NotUnital,
    UnknownKind,
    builtin,
    builtin_names,
    table_from_spec,
)
from .fibseq import FibContext
from .hyperfib import HyperContext
from .polytext import PolyParseError, format_poly, parse_poly
from .suite import default_corpus, run_all

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


class UsageError(Exception):
    """Bad input that should exit with code 2 and a diagnostic."""


def _load_algebra(spec: str) -> AlgebraTable:
    """Resolve a builtin name (optionally "name:a,b") or a JSON file path."""
    if spec.endswith(".json") or os.path.sep in spec or os.path.exists(spec):
        try:
            with open(spec, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read algebra file {spec!r}: {exc}")
        except json.JSONDecodeError as exc:
            raise UsageError(f"malformed JSON in {spec!r}: {exc}")
        try:
            return table_from_spec(doc)
        except ValueError as exc:
            if isinstance(exc, NotUnital):
                raise
            raise UsageError(f"bad algebra spec {spec!r}: {exc}")
    try:
        return builtin(spec)
    except UnknownKind as exc:
        raise UsageError(str(exc))


def _parse_h(text: str) -> FibContext:
    try:
        return FibContext(parse_poly(text))
    except PolyParseError as exc:
        raise UsageError(f"cannot parse polynomial: {exc} (offending token {exc.token!r})")


def _emit_rows(header: list[str], rows: list[list[str]], fmt: str, meta: dict) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    doc = dict(meta)
    doc["rows"] = [dict(zip(header, row)) for row in rows]
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def cmd_seq(args) -> int:
    ctx = _parse_h(args.h)
    if args.n < 0:
        raise UsageError("--n must be nonnegative")
    meta = {"h": format_poly(ctx.h)}
    if args.algebra:
        table = _load_algebra(args.algebra)
        hctx = HyperContext(ctx, table)
        header = ["n"] + [f"e{k}" for k in range(table.dim)]
        rows = [
            [str(n)] + [format_poly(c) for c in hctx.q(n).coords]
            for n in range(args.n + 1)
        ]
        meta["algebra"] = table.name
    else:
        header = ["n", "value"]
        rows = [[str(n), format_poly(ctx.fib(n))] for n in range(args.n + 1)]
    sys.stdout.write(_emit_rows(header, rows, args.format, meta))
    return EXIT_OK


def cmd_genfun(args) -> int:
    ctx = _parse_h(args.h)
    if args.N < 0:
        raise UsageError("--N must be nonnegative")
    out = []
    if args.algebra:
        table = _load_algebra(args.algebra)
        hctx = HyperContext(ctx, table)
        for k in range(args.N + 1):
            coords = ",".join(format_poly(c) for c in hctx.q(k).coords)
            out.append(f"t^{k},{coords}")
        q0 = hctx.q(0)
        q1_adj = hctx.q(1) - q0 * ctx.h
        out.append("numerator t^0," + ",".join(format_poly(c) for c in q0.coords))
        out.append("numerator t^1," + ",".join(format_poly(c) for c in q1_adj.coords))
        ok = hctx.genfun_check(args.N).ok if args.N >= 1 else True
    else:
        for k in range(args.N + 1):
            out.append(f"t^{k},{format_poly(ctx.fib(k))}")
        out.append("numerator t^0,0")
        out.append("numerator t^1,1")
        ok = ctx.genfun_check(args.N).ok if args.N >= 1 else True
    out.append("verified" if ok else "FAILED")
    sys.stdout.write("\n".join(out) + "\n")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_verify(args) -> int:
    kwargs = {}
    if args.nmax is not None:
        if args.nmax < 1:
            raise UsageError("--nmax must be positive")
        kwargs = {
            "n_max": args.nmax,
            "r_max": min(15, args.nmax),
            "p_max": min(20, args.nmax),
            "trunc_n": min(20, args.nmax),
        }
    corpus = default_corpus(seed=args.seed, **kwargs)
    if args.algebra:
        corpus = replace(
            corpus, algebras=tuple(_load_algebra(a) for a in args.algebra)
        )
    report = run_all(corpus)
    text = report.to_json(indent=2)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(report.summary())
    else:
        sys.stdout.write(text + "\n")
        print(report.summary(), file=sys.stderr)
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def _format_combination(coords) -> str:
    parts = []
    for k, c in enumerate(coords):
        c = Fraction(c)
        if not c:
            continue
        mag = abs(c)
        body = f"e{k}" if mag == 1 else (
            f"{mag.numerator}e{k}" if mag.denominator == 1
            else f"{mag.numerator}/{mag.denominator}e{k}"
        )
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+" if c > 0 else "-") + body)
    return "".join(parts) or "0"


def cmd_algebra(args) -> int:
    table = _load_algebra(args.algebra)
    report = table.validate()
    print(f"algebra {table.name} (dim {table.dim})")
    for i in range(table.dim):
        for j in range(table.dim):
            print(f"e{i}*e{j} = {_format_combination(table.basis_product(i, j))}")
    yn = lambda f: "yes" if f else "no"
    print(f"unital: {yn(report.unital)}")
    print(f"associative: {yn(report.associative)}")
    print(f"commutative: {yn(report.commutative)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hxfib",
        description="Exact h(x)-Fibonacci polynomials over structure-constant "
        "algebras, with a mechanical identity verifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    seq = sub.add_parser("seq", help="tabulate the sequence")
    seq.add_argument("--h", required=True, help='h polynomial, e.g. "x^2+1/2x-3"')
    seq.add_argument("--n", type=int, required=True, help="last index to print")
    seq.add_argument("--algebra", help="builtin name or JSON file")
    seq.add_argument("--format", choices=("csv", "json"), default="csv")
    seq.set_defaults(func=cmd_seq)

    gen = sub.add_parser("genfun", help="expand the generating function")
    gen.add_argument("--h", required=True)
    gen.add_argument("--N", type=int, required=True, help="truncation order")
    gen.add_argument("--algebra", help="builtin name or JSON file")
    gen.set_defaults(func=cmd_genfun)

    ver = sub.add_parser("verify", help="run the identity battery")
    ver.add_argument("--seed", type=int, default=42)
    ver.add_argument("--algebra", action="append", help="restrict to these algebras")
    ver.add_argument("--nmax", type=int, help="cap all index bounds")
    ver.add_argument("--report", help="write the JSON report to this path")
    ver.set_defaults(func=cmd_verify)

    alg = sub.add_parser(
        "algebra",
        help=f"print a multiplication table ({', '.join(builtin_names())}, "
        'parametrized "quaternion:a,b", or a JSON file)',
    )
    alg.add_argument("algebra", help="builtin name or JSON file")
    alg.set_defaults(func=cmd_algebra)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"hxfib: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NotUnital as exc:
        print(f"hxfib: not unital: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
