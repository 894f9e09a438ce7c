"""Command-line front end: tabulate sequences, run the verification
battery, expand generating functions, and inspect algebra tables.

Exit codes: 0 success, 1 a check failed (or a table is not unital),
2 usage or parse errors, an index above its cap or a `verify --report`
that cannot be opened or written among them.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import deque
from contextlib import nullcontext
from dataclasses import replace

from .algebra import (
    AlgebraTable,
    NotUnital,
    UnknownKind,
    builtin,
    builtin_names,
    scalar_table,
    table_from_spec,
)
from .fibseq import FibContext
from .hyperfib import HyperContext
from .polytext import MAX_EXPONENT, PolyParseError, _format_terms, format_poly, parse_poly
from .suite import _tables_by_name, default_corpus, summary_line, write_run

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

#: Upper bounds on the index options, so that a typo cannot ask for
#: unbounded work or memory; a larger value exits 2.
MAX_SEQ_N = 1000
MAX_GENFUN_N = 1000
MAX_VERIFY_NMAX = 100
#: Bound on n * max(deg h, 1) for `seq --n` and `genfun --N`: the cache
#: keeps F_0..F_n, about n^2 deg h / 2 coefficients.
MAX_N_TIMES_DEGREE = 1000
#: Bound on n times the largest bit length among h's integer numerators
#: (over their common denominator) and that denominator, for `seq --n` and
#: `genfun --N`: each step of the recurrence adds about that many bits to
#: every coefficient of F_n.
MAX_N_TIMES_BITS = 1000


class UsageError(Exception):
    """Bad input that should exit with code 2 and a diagnostic."""


def _load_algebra(spec: str) -> AlgebraTable:
    """Resolve a builtin name, optionally with rational parameters
    ("name:a,b"); any other spec is a JSON file path."""
    if spec.partition(":")[0] in builtin_names():
        try:
            return builtin(spec)
        except UnknownKind as exc:
            raise UsageError(str(exc))
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read algebra file {spec!r} (builtins: "
                         f"{', '.join(builtin_names())}): {exc}")
    except (ValueError, RecursionError) as exc:
        # not UTF-8, bad syntax, an integer above the digit limit, or nested too deeply
        raise UsageError(f"malformed JSON in {spec!r}: {exc}")
    try:
        return table_from_spec(doc)
    except ValueError as exc:
        if isinstance(exc, NotUnital):
            raise
        raise UsageError(f"bad algebra spec {spec!r}: {exc}")


def _parse_h(text: str) -> FibContext:
    try:
        return FibContext(parse_poly(text))
    except PolyParseError as exc:
        raise UsageError(f"cannot parse polynomial: {exc} (offending token {exc.token!r})")


def _check_size(ctx: FibContext, n: int, option: str):
    if n * max(ctx.h.degree, 1) > MAX_N_TIMES_DEGREE:
        raise UsageError(f"{option} times max(deg h, 1) must be at most {MAX_N_TIMES_DEGREE}")
    bits = max(v.bit_length() for v in ctx.h.num + (ctx.h.den,))
    if n * bits > MAX_N_TIMES_BITS:
        raise UsageError(f"{option} times the bit length of h's numerators and denominator "
                         f"must be at most {MAX_N_TIMES_BITS}")


def _windows(ctx: FibContext, dim: int, count: int):
    """The formatted F_n..F_(n+dim-1) for n < count: the coordinates of
    Q_n over a dim-dimensional table.  The window slides, so each F_k is
    formatted once, and no term past the last window is."""
    window = deque(maxlen=dim)
    for k in range(count + dim - 1):
        window.append(format_poly(ctx.fib(k)))
        if k >= dim - 1:
            yield list(window)


def _write_rows(header: list[str], rows, fmt: str, meta: dict) -> None:
    """Write `rows` (an iterable of string lists, at least one) to stdout
    as CSV, or as the JSON document {**meta, "rows": [{header: cell}, ...]}
    with `indent=2` and sorted keys, each row as soon as it is produced.
    No cell holds a comma, quote or line break, so no CSV cell is quoted."""
    out = sys.stdout
    if fmt == "csv":
        out.write(",".join(header) + "\n")
        out.writelines(",".join(row) + "\n" for row in rows)
        return
    # meta holds "h" and maybe "algebra", both sorting before "rows", so
    # the document is the meta object with one more member, written last
    out.write(json.dumps(meta, indent=2, sort_keys=True)[:-2] + ',\n  "rows": [')
    sep = "\n"
    for row in rows:
        text = json.dumps(dict(zip(header, row)), indent=2, sort_keys=True)
        out.write(sep + "    " + text.replace("\n", "\n    "))
        sep = ",\n"
    out.write("\n  ]\n}\n")


def cmd_seq(args) -> int:
    ctx = _parse_h(args.h)
    if not 0 <= args.n <= MAX_SEQ_N:
        raise UsageError(f"--n must be between 0 and {MAX_SEQ_N}")
    _check_size(ctx, args.n, "--n")
    table = _load_algebra(args.algebra) if args.algebra else scalar_table()
    meta = {"h": format_poly(ctx.h)}
    if args.algebra:
        meta["algebra"] = table.name
        header = ["n"] + [f"e{k}" for k in range(table.dim)]
    else:
        header = ["n", "value"]
    rows = ([str(n)] + window for n, window in enumerate(_windows(ctx, table.dim, args.n + 1)))
    _write_rows(header, rows, args.format, meta)
    return EXIT_OK


def cmd_genfun(args) -> int:
    ctx = _parse_h(args.h)
    if not 0 <= args.N <= MAX_GENFUN_N:
        raise UsageError(f"--N must be between 0 and {MAX_GENFUN_N}")
    _check_size(ctx, args.N, "--N")
    table = _load_algebra(args.algebra) if args.algebra else scalar_table()
    hctx = HyperContext(ctx, table)
    write = sys.stdout.write
    for k, window in enumerate(_windows(ctx, table.dim, args.N + 1)):
        write(f"t^{k}," + ",".join(window) + "\n")
    for j, term in enumerate(hctx.genfun_numerator()):
        write(f"numerator t^{j}," + ",".join(format_poly(c) for c in term.coords) + "\n")
    ok = hctx.genfun_check(args.N).ok
    write("verified\n" if ok else "FAILED\n")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_verify(args) -> int:
    """Write each record of the battery to the report (stdout without
    `--report`) as it is made, keeping only the count of each verdict.  A
    report path that cannot be opened exits 2 before any check runs, and a
    write that fails during the run exits 2 too."""
    kwargs = {}
    if args.nmax is not None:
        if not 1 <= args.nmax <= MAX_VERIFY_NMAX:
            raise UsageError(f"--nmax must be between 1 and {MAX_VERIFY_NMAX}")
        kwargs = {
            "n_max": args.nmax,
            "r_max": min(15, args.nmax),
            "p_max": min(20, args.nmax),
            "trunc_n": min(20, args.nmax),
        }
    corpus = default_corpus(seed=args.seed, **kwargs)
    if args.algebra:
        tables = tuple(_load_algebra(a) for a in args.algebra)
        try:
            _tables_by_name(tables)
        except ValueError as exc:
            raise UsageError(str(exc))
        corpus = replace(corpus, algebras=tables)
    try:
        out = open(args.report, "w", encoding="utf-8") if args.report else nullcontext(sys.stdout)
        with out as fh:
            counts = write_run(fh, corpus)
            fh.write("\n")
    except OSError as exc:
        raise UsageError(f"cannot write report {args.report or '<stdout>'!r}: "
                         f"{exc.strerror or exc}")
    print(summary_line(counts), file=sys.stdout if args.report else sys.stderr)
    return EXIT_CHECK_FAILED if counts["fail"] else EXIT_OK


def cmd_algebra(args) -> int:
    table = _load_algebra(args.algebra)
    report = table.validate()
    print(f"algebra {table.name} (dim {table.dim})")
    for i in range(table.dim):
        for j in range(table.dim):
            terms = ((c.numerator, c.denominator, f"e{k}")
                     for k, c in enumerate(table.basis_product(i, j)))
            print(f"e{i}*e{j} = {_format_terms(terms)}")
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
    h_help = f'h polynomial, e.g. "x^2+1/2x-3" (exponents at most {MAX_EXPONENT})'
    seq.add_argument("--h", required=True, help=h_help)
    seq.add_argument("--n", type=int, required=True,
                     help=f"last index to print (at most {MAX_SEQ_N}, "
                     f"n * max(deg h, 1) at most {MAX_N_TIMES_DEGREE}, and n times "
                     "the largest bit length of h's numerators and denominator "
                     f"at most {MAX_N_TIMES_BITS})")
    seq.add_argument("--algebra", help="builtin name or JSON file")
    seq.add_argument("--format", choices=("csv", "json"), default="csv")
    seq.set_defaults(func=cmd_seq)

    gen = sub.add_parser("genfun", help="expand the generating function")
    gen.add_argument("--h", required=True, help=h_help)
    gen.add_argument("--N", type=int, required=True,
                     help=f"truncation order (at most {MAX_GENFUN_N}, "
                     f"N * max(deg h, 1) at most {MAX_N_TIMES_DEGREE}, and N times "
                     "the largest bit length of h's numerators and denominator "
                     f"at most {MAX_N_TIMES_BITS})")
    gen.add_argument("--algebra", help="builtin name or JSON file")
    gen.set_defaults(func=cmd_genfun)

    ver = sub.add_parser("verify", help="run the identity battery")
    ver.add_argument("--seed", type=int, default=42)
    ver.add_argument("--algebra", action="append", help="restrict to these algebras")
    ver.add_argument("--nmax", type=int,
                     help=f"cap all index bounds (at most {MAX_VERIFY_NMAX}; at "
                     f"{MAX_VERIFY_NMAX} with the default algebras: 16,736,918 checks, "
                     "70 s and a 52 MB peak on one 2-core host, and a 4.0 GB report)")
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
        # argparse drops the `--` of `--opt=--` and leaves [], also in verify --algebra's list
        for name, value in vars(args).items():
            if value == [] or isinstance(value, list) and [] in value:
                raise UsageError(f"argument --{name}: expected one value, not '--'")
        return args.func(args)
    except UsageError as exc:
        print(f"hxfib: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NotUnital as exc:
        print(f"hxfib: not unital: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
