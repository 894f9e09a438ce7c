"""Command-line surface: the polynomial grammar, the four subcommands,
their exit codes, and JSON/CSV emitter agreement."""

import argparse
import csv
import errno
import io
import json
import random
from fractions import Fraction

import pytest

from hxfib import cli, suite
from hxfib.algebra import builtin_names
from hxfib.cli import (
    MAX_GENFUN_N,
    MAX_N_TIMES_BITS,
    MAX_N_TIMES_DEGREE,
    MAX_SEQ_N,
    MAX_VERIFY_NMAX,
    main,
)
from hxfib.polytext import (
    MAX_EXPONENT,
    PolyParseError,
    format_poly,
    parse_poly,
    parse_rational,
)
from hxfib.scalars import ONE, X, ZERO, Poly
from hxfib.suite import default_corpus, random_h_polys, run_all

F = Fraction


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- polynomial grammar ----------------------------------------------------------

def test_parse_basic_forms():
    assert parse_poly("0") == ZERO
    assert parse_poly("1") == ONE
    assert parse_poly("x") == X
    assert parse_poly("-x") == -X
    assert parse_poly("x^3+2x") == Poly([0, 2, 0, 1])
    assert parse_poly("1/2x^2-3/4") == Poly([F(-3, 4), 0, F(1, 2)])
    assert parse_poly("2 + x") == Poly([2, 1])
    assert parse_poly("5/2x^4+5x^3+5/3x^2+4/3x+1/3") == Poly(
        [F(1, 3), F(4, 3), F(5, 3), 5, F(5, 2)]
    )


def test_parse_collects_repeated_powers():
    assert parse_poly("x+x") == Poly([0, 2])
    assert parse_poly("x-x") == ZERO


def test_parse_errors_name_the_token():
    with pytest.raises(PolyParseError) as info:
        parse_poly("2y+1")
    assert "y" in info.value.token
    with pytest.raises(PolyParseError):
        parse_poly("")
    with pytest.raises(PolyParseError):
        parse_poly("1//2")
    with pytest.raises(PolyParseError):
        parse_poly("x^")
    with pytest.raises(PolyParseError):
        parse_poly("3 4")  # missing operator


def test_parse_rejects_exponents_above_the_cap():
    assert parse_poly(f"x^{MAX_EXPONENT}").degree == MAX_EXPONENT
    assert parse_poly(f"2x^000{MAX_EXPONENT}").degree == MAX_EXPONENT
    # one above the cap, so a missing check costs no large allocation
    for text in (f"x^{MAX_EXPONENT + 1}", f"3x^{MAX_EXPONENT + 1}+1", "x^" + "9" * 5000):
        with pytest.raises(PolyParseError) as info:
            parse_poly(text)
        assert "x^" in info.value.token


def test_parse_rejects_unreadable_coefficients():
    for text in ("1/0", "x+3/0x^2", "9" * 5000 + "x"):
        with pytest.raises(PolyParseError):
            parse_poly(text)


def test_format_examples():
    assert format_poly(ZERO) == "0"
    assert format_poly(Poly([0, 2, 0, 1])) == "x^3+2x"
    assert format_poly(Poly([F(-3, 4), 0, F(1, 2)])) == "1/2x^2-3/4"
    assert format_poly(-X) == "-x"


def test_round_trip_property():
    rng = random.Random(71)
    polys = list(random_h_polys(5, 30)) + [ZERO, ONE, X, -X]
    for p in polys:
        assert parse_poly(format_poly(p)) == p
    for _ in range(30):
        p = Poly([F(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(6)])
        assert parse_poly(format_poly(p)) == p


def fraction_format_poly(p):
    """`format_poly` before it shared the signed-term renderer: one
    `Fraction` per coefficient."""
    if not p:
        return "0"
    coeffs = p.coeffs
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = Fraction(coeffs[k])
        if not c:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        text = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
        if k == 0:
            body = text
        else:
            var = "x" if k == 1 else f"x^{k}"
            body = var if mag == 1 else text + var
        if not parts:
            parts.append(body if sign == "+" else "-" + body)
        else:
            parts.append(sign + body)
    return "".join(parts)


def test_format_poly_matches_the_fraction_printer():
    rng = random.Random(8080)
    picks = (0, 0, 1, -1, F(1, 2), F(-1, 2), F(2, 4), F(-6, 3), 7, -12, F(5, 6), F(-9, 4),
             2 ** 200 + 1, -(3 ** 90), F(2 ** 70, 3 ** 40))
    polys = [ZERO, ONE, -ONE, Poly([F(1, 2)]), Poly([F(-7, 3)]), X, -X, Poly([0, 0, 1]),
             Poly([0, F(-1, 2)]), Poly([-1, 0, 0, F(1, 2)])]
    for _ in range(400):
        length = rng.randint(1, 9)
        polys.append(Poly([rng.choice(picks) for _ in range(length)]))
        # a shared denominator d > 1 that divides some coefficients but not others
        d = rng.randint(2, 30)
        polys.append(Poly([F(rng.randint(-3 * d, 3 * d), d) for _ in range(length)]))
    assert sum(p.den > 1 for p in polys) > 300
    for p in polys:
        assert format_poly(p) == fraction_format_poly(p), p


# -- seq -----------------------------------------------------------------------

def test_seq_fibonacci(capsys):
    code, out, _ = run_cli(capsys, "seq", "--h", "1", "--n", "5")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "value"]
    assert [r[1] for r in rows[1:]] == ["0", "1", "1", "2", "3", "5"]


def test_seq_polynomial_row(capsys):
    code, out, _ = run_cli(capsys, "seq", "--h", "x", "--n", "4")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[-1] == ["4", "x^3+2x"]


def test_seq_with_algebra(capsys):
    code, out, _ = run_cli(
        capsys, "seq", "--h", "1", "--n", "2", "--algebra", "quaternion"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "e0", "e1", "e2", "e3"]
    assert rows[1] == ["0", "0", "1", "1", "2"]


def test_seq_csv_and_json_encode_identical_data(capsys):
    _, out_csv, _ = run_cli(capsys, "seq", "--h", "x^2+1", "--n", "6")
    _, out_json, _ = run_cli(
        capsys, "seq", "--h", "x^2+1", "--n", "6", "--format", "json"
    )
    rows = list(csv.reader(io.StringIO(out_csv)))
    header, data = rows[0], rows[1:]
    doc = json.loads(out_json)
    from_json = [[str(r["n"]), r["value"]] for r in doc["rows"]]
    assert from_json == data
    assert doc["h"] == "x^2+1"


def test_seq_algebra_formats_agree(capsys):
    args = ("seq", "--h", "x", "--n", "3", "--algebra", "complex")
    _, out_csv, _ = run_cli(capsys, *args)
    _, out_json, _ = run_cli(capsys, *args, "--format", "json")
    rows = list(csv.reader(io.StringIO(out_csv)))
    doc = json.loads(out_json)
    for row, rec in zip(rows[1:], doc["rows"]):
        assert row == [str(rec["n"]), rec["e0"], rec["e1"]]


def emit_rows(header, rows, fmt, meta):
    """The whole-text emitter `seq` used before it streamed its rows."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    doc = dict(meta)
    doc["rows"] = [dict(zip(header, row)) for row in rows]
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_seq_streams_the_text_the_whole_text_emitter_built(tmp_path, capsys):
    from hxfib.algebra import builtin, quaternion_table, table_to_spec
    from hxfib.fibseq import FibContext
    from hxfib.hyperfib import HyperContext

    spec = table_to_spec(quaternion_table(2, -3))
    spec["name"] = 'q "2,-3" \u00e9'
    path = tmp_path / "odd_name.json"
    path.write_text(json.dumps(spec))
    for h_text in ("x^2-1/2x+3", "-2", "-3/2x^4+x-7/3"):
        ctx = FibContext(parse_poly(h_text))
        for algebra in (None, "complex", "octonion", str(path)):
            meta = {"h": format_poly(ctx.h)}
            if algebra is None:
                header = ["n", "value"]
                row = lambda n: [str(n), format_poly(ctx.fib(n))]
            else:
                table = cli._load_algebra(algebra)
                hctx = HyperContext(ctx, table)
                header = ["n"] + [f"e{k}" for k in range(table.dim)]
                row = lambda n: [str(n)] + [format_poly(c) for c in hctx.q(n).coords]
                meta["algebra"] = table.name
            for n in (0, 1, 7):
                rows = [row(k) for k in range(n + 1)]
                for fmt in ("csv", "json"):
                    argv = ["seq", f"--h={h_text}", "--n", str(n), "--format", fmt]
                    if algebra:
                        argv += ["--algebra", algebra]
                    code, out, _ = run_cli(capsys, *argv)
                    assert code == 0
                    assert out == emit_rows(header, rows, fmt, meta), argv


def test_seq_formats_each_term_once(capsys, monkeypatch):
    from hxfib.fibseq import FibContext

    calls = []

    def counting_format_poly(p):
        calls.append(p)
        return format_poly(p)

    monkeypatch.setattr(cli, "format_poly", counting_format_poly)
    code, out, _ = run_cli(capsys, "seq", "--h", "x+1", "--n", "50", "--algebra", "octonion")
    assert code == 0 and len(out.splitlines()) == 52
    ctx = FibContext(parse_poly("x+1"))
    # h for the JSON meta, then rows 0..50 of an eight-dimensional table:
    # F_0..F_57, each once and in order, and nothing past F_57
    assert calls == [ctx.h] + [ctx.fib(k) for k in range(58)]


def test_seq_rejects_bad_polynomial(capsys):
    code, _, err = run_cli(capsys, "seq", "--h", "2z", "--n", "3")
    assert code == 2
    assert "z" in err


@pytest.mark.parametrize("text", ["(" * 5000 + "x", "x" + "2x" * 2500, "3 " + "4" * 5000],
                         ids=["unexpected_token", "missing_sign", "missing_operator"])
def test_a_long_bad_polynomial_gives_one_short_error_line(capsys, text):
    code, out, err = run_cli(capsys, "seq", "--h", text, "--n", "2")
    assert code == 2 and not out
    assert err.startswith("hxfib: error: cannot parse polynomial: ")
    assert err.count("\n") == 1 and len(err) < 200, err


def test_seq_rejects_unknown_algebra(capsys):
    code, _, err = run_cli(capsys, "seq", "--h", "1", "--n", "3", "--algebra", "spinor")
    assert code == 2
    assert "spinor" in err


# -- genfun ----------------------------------------------------------------------

def test_genfun_pell_expansion(capsys):
    code, out, _ = run_cli(capsys, "genfun", "--h", "2", "--N", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert "t^4,12" in lines
    assert "t^8,408" in lines
    assert lines[-1] == "verified"
    assert "numerator t^1,1" in lines


def test_genfun_zero_truncation(capsys):
    code, out, _ = run_cli(capsys, "genfun", "--h", "1", "--N", "0")
    assert code == 0
    assert "numerator t^0,0" in out


def test_genfun_with_algebra(capsys):
    code, out, _ = run_cli(
        capsys, "genfun", "--h", "x", "--N", "10", "--algebra", "complex"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t^0,0,1"
    assert lines[-1] == "verified"
    assert any(line.startswith("numerator t^1,") for line in lines)


def test_genfun_with_wide_h_coefficients(capsys):
    # the numerator's first term is F_1 from the packed binomial form,
    # which packs h whatever its size
    for h_text in ("200", "-300x", "1/3+150x"):
        code, out, _ = run_cli(
            capsys, "genfun", f"--h={h_text}", "--N", "2", "--algebra", "quaternion"
        )
        assert code == 0, h_text
        assert out.strip().splitlines()[-1] == "verified", h_text


def two_branch_genfun_text(h_text, trunc, algebra):
    """The text `genfun` wrote when its scalar case had a branch of its own
    instead of running over the one-dimensional table."""
    from hxfib.fibseq import FibContext
    from hxfib.hyperfib import HyperContext

    ctx = FibContext(parse_poly(h_text))
    lines = []
    if algebra:
        hctx = HyperContext(ctx, cli._load_algebra(algebra))
        for k in range(trunc + 1):
            lines.append(f"t^{k}," + ",".join(format_poly(c) for c in hctx.q(k).coords))
        for j, term in enumerate(hctx.genfun_numerator()):
            lines.append(f"numerator t^{j}," + ",".join(format_poly(c) for c in term.coords))
        ok = hctx.genfun_check(trunc).ok
    else:
        for k in range(trunc + 1):
            lines.append(f"t^{k},{format_poly(ctx.fib(k))}")
        lines += ["numerator t^0,0", "numerator t^1,1"]
        ok = ctx.genfun_check(trunc).ok
    lines.append("verified" if ok else "FAILED")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", [None, (0, 2)], ids=["good_seed", "wrong_seed"])
def test_genfun_writes_the_text_of_the_two_branch_emitter(capsys, monkeypatch, seed):
    from hxfib import fibseq

    if seed is not None:
        # a wrong seed: both emitters must print the same FAILED text
        monkeypatch.setattr(fibseq, "_INITIAL_TERMS", seed)
    for h_text in ("x^2-1/2x+3", "-2", "-3/2x^4+x-7/3"):
        for algebra in (None, "quaternion"):
            for trunc in (0, 1, 7):
                argv = ["genfun", f"--h={h_text}", "--N", str(trunc)]
                if algebra:
                    argv += ["--algebra", algebra]
                want = two_branch_genfun_text(h_text, trunc, algebra)
                code, out, _ = run_cli(capsys, *argv)
                assert out == want, argv
                assert code == (1 if want.endswith("FAILED\n") else 0), argv
    if seed is not None:
        assert want.endswith("FAILED\n")


@pytest.mark.parametrize("algebra", [None, "quaternion"])
def test_genfun_checks_the_constant_term_at_order_zero(capsys, monkeypatch, algebra):
    from hxfib import fibseq

    argv = ["genfun", "--h", "1", "--N", "0"] + (["--algebra", algebra] if algebra else [])
    code, out, _ = run_cli(capsys, *argv)
    assert (code, out.splitlines()[-1]) == (0, "verified")
    # the series starts at F_0 = 5, the numerator's t^0 term at 0
    monkeypatch.setattr(fibseq, "_INITIAL_TERMS", (5, 7))
    code, out, _ = run_cli(capsys, *argv)
    assert (code, out.splitlines()[-1]) == (1, "FAILED")


# -- input caps -------------------------------------------------------------------

def test_index_options_above_their_caps_exit_two(capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("a rejected option must not start any work")

    monkeypatch.setattr(cli.FibContext, "fib", no_work)
    monkeypatch.setattr(cli, "write_run", no_work)
    assert 7 * 143 == 13 * 77 == MAX_N_TIMES_DEGREE + 1 == MAX_N_TIMES_BITS + 1
    for argv, option in (
        (("seq", "--h", "1", "--n", str(MAX_SEQ_N + 1)), "--n"),
        (("genfun", "--h", "1", "--N", str(MAX_GENFUN_N + 1)), "--N"),
        (("verify", "--nmax", str(MAX_VERIFY_NMAX + 1)), "--nmax"),
        (("seq", "--h", f"x^{MAX_EXPONENT + 1}", "--n", "1"), "exponent"),
        (("genfun", "--h", f"x^{MAX_EXPONENT + 1}", "--N", "1"), "exponent"),
        # n * deg h one above the joint cap, each factor within its own
        (("seq", "--h", "x^7+1", "--n", "143"), "--n times max(deg h, 1)"),
        (("genfun", "--h", "x^13-x", "--N", "77"), "--N times max(deg h, 1)"),
        # n times the bit length of h's numerators and denominator one above
        # its cap, through a numerator and through the denominator
        (("seq", "--h", str(2 ** (MAX_N_TIMES_BITS // 7)) + "x", "--n", "7"),
         "--n times the bit length"),
        (("genfun", "--h", f"1/{2 ** (MAX_N_TIMES_BITS // 7)}x+1", "--N", "7"),
         "--N times the bit length"),
        (("seq", "--h", str(2 ** MAX_N_TIMES_BITS), "--n", "1"), "--n times the bit length"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert option in err and not out, argv


def test_caps_are_stated_in_help(capsys):
    for command, caps in (("seq", (MAX_SEQ_N, MAX_EXPONENT, MAX_N_TIMES_DEGREE,
                                   MAX_N_TIMES_BITS)),
                          ("genfun", (MAX_GENFUN_N, MAX_EXPONENT, MAX_N_TIMES_DEGREE,
                                      MAX_N_TIMES_BITS)),
                          ("verify", (MAX_VERIFY_NMAX,))):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        for cap in caps:
            assert f"at most {cap}" in text, command


def test_index_options_at_their_caps_run(capsys):
    code, out, _ = run_cli(capsys, "seq", "--h", "1", "--n", str(MAX_SEQ_N))
    assert code == 0 and out.splitlines()[-1].startswith(f"{MAX_SEQ_N},")
    code, out, _ = run_cli(capsys, "genfun", "--h", "1", "--N", str(MAX_GENFUN_N))
    assert code == 0 and out.splitlines()[-1] == "verified"
    n = MAX_N_TIMES_DEGREE // 8
    code, out, _ = run_cli(capsys, "seq", "--h", "x^8+1", "--n", str(n))
    assert code == 0 and out.splitlines()[-1].startswith(f"{n},")
    # n times the bit length of h at its cap, by a numerator and by the denominator
    code, out, _ = run_cli(capsys, "seq", "--h", str(2 ** (MAX_N_TIMES_BITS - 1)), "--n", "1")
    assert code == 0 and out.splitlines()[-1] == "1,1"
    h = f"1/{2 ** (MAX_N_TIMES_BITS // 8 - 1)}x"
    code, out, _ = run_cli(capsys, "genfun", "--h", h, "--N", "8")
    assert code == 0 and out.splitlines()[-1] == "verified"


# -- algebra ----------------------------------------------------------------------

def test_algebra_quaternion_listing(capsys):
    code, out, _ = run_cli(capsys, "algebra", "quaternion")
    assert code == 0
    assert "e1*e2 = e3" in out
    assert "associative: yes" in out
    assert "commutative: no" in out


def test_algebra_octonion_not_associative(capsys):
    code, out, _ = run_cli(capsys, "algebra", "octonion")
    assert code == 0
    assert "associative: no" in out


def test_algebra_dual_listing(capsys):
    code, out, _ = run_cli(capsys, "algebra", "dual")
    assert code == 0
    assert "e1*e1 = 0" in out


def test_algebra_from_json_file(tmp_path, capsys):
    from hxfib.algebra import quaternion_table, table_to_spec

    path = tmp_path / "my_algebra.json"
    path.write_text(json.dumps(table_to_spec(quaternion_table(2, -3))))
    code, out, _ = run_cli(capsys, "algebra", str(path))
    assert code == 0
    assert "e1*e1 = 2e0" in out


def combination_text(coords):
    """The `algebra` listing's printer before it shared the signed-term
    renderer of `format_poly`."""
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


@pytest.mark.parametrize("spec", builtin_names() + ("quaternion:1/2,3", "octonion:3,-5",
                                                    "rational.json"))
def test_algebra_listing_matches_the_combination_printer(tmp_path, capsys, monkeypatch, spec):
    monkeypatch.chdir(tmp_path)
    doc = {"name": "rational", "dim": 3,
           "table": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                     [[0, 1, 0], ["-1/2", "3/4", 0], ["4/2", 0, "-7/3"]],
                     [[0, 0, 1], [0, "-1", "1/3"], ["-5/6", -1, 0]]]}
    (tmp_path / "rational.json").write_text(json.dumps(doc))
    table = cli._load_algebra(spec)
    code, out, _ = run_cli(capsys, "algebra", spec)
    assert code == 0
    want = [f"e{i}*e{j} = {combination_text(table.basis_product(i, j))}"
            for i in range(table.dim) for j in range(table.dim)]
    assert out.splitlines()[1:1 + table.dim ** 2] == want


def test_rational_builtin_parameters_are_not_a_path(tmp_path, capsys, monkeypatch):
    # a file named like a builtin does not shadow it either
    monkeypatch.chdir(tmp_path)
    (tmp_path / "complex").write_text("{not json")
    code, out, _ = run_cli(capsys, "algebra", "complex")
    assert code == 0 and "e1*e1 = -e0" in out
    code, out, err = run_cli(capsys, "algebra", "quaternion:1/2,3")
    assert code == 0, err
    assert out.splitlines()[0] == "algebra quaternion:1/2,3 (dim 4)"
    assert "e1*e1 = 1/2e0" in out and "e3*e3 = -3/2e0" in out
    code, out, err = run_cli(capsys, "seq", "--h", "1", "--n", "2", "--algebra",
                             "quaternion:1/2,3")
    assert code == 0 and out.splitlines()[-1] == "2,1,2,3,5", err
    code, out, err = run_cli(capsys, "genfun", "--h", "1", "--N", "3", "--algebra",
                             "quaternion:1/2,3")
    assert code == 0 and out.splitlines()[-1] == "verified", err
    report = tmp_path / "report.json"
    code, _, err = run_cli(capsys, "verify", "--nmax", "2", "--algebra", "quaternion:1/2,3",
                           "--report", str(report))
    assert code == 0, err
    algebras = {c["params"].get("algebra") for c in json.loads(report.read_text())["checks"]}
    assert "quaternion:1/2,3" in algebras


def test_algebra_malformed_json_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "algebra", str(path))
    assert code == 2
    assert "malformed" in err


def test_rational_constants_follow_the_coefficient_grammar():
    for text, value in (("-3", -3), ("+2", 2), ("1/2", F(1, 2)), ("-4/6", F(-2, 3))):
        assert parse_rational(text) == value
    for text in ("1e3", "1.5", "1_0", " 1", "1/", "/2", "--1", "1/-2", "0x10", "1/0", ""):
        with pytest.raises(ValueError):
            parse_rational(text)


BIG = "1" + "0" * 4999  # above the interpreter's 4,300-digit limit


@pytest.mark.parametrize("content, message", [
    (b'{"name": "t\xff", "dim": 1, "table": [[[1]]]}', "can't decode byte 0xff"),
    (b'{"name": "t", "dim": 1, "table": [[[' + BIG.encode() + b']]]}', "malformed JSON"),
    (json.dumps({"name": "t", "dim": 1, "table": [[[BIG]]]}).encode(), "bad algebra spec"),
    *((json.dumps({"name": "t", "dim": 2, "table": [[[1, 0], [0, 1]], [[0, 1], [c, 0]]]})
       .encode(), "is not an integer or p/q") for c in ("1e3000000", "1.5", "1_0")),
], ids=["non_utf8", "5000_digit_int", "5000_digit_string", "exponent", "decimal",
        "underscore"])
def test_hostile_algebra_files_exit_two(tmp_path, capsys, content, message):
    path = tmp_path / "hostile.json"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, "algebra", str(path))
    assert code == 2 and not out
    assert err.startswith("hxfib: error: ") and message in err and "Traceback" not in err


@pytest.mark.parametrize("opening, closing", [("[", "]"), ('{"a": ', "}")],
                         ids=["arrays", "objects"])
def test_algebra_files_nested_too_deeply_exit_two(tmp_path, capsys, opening, closing):
    # the JSON decoder recurses once per level and gives up with RecursionError
    path = tmp_path / "nested.json"
    path.write_text(opening * 100_000 + "0" + closing * 100_000)
    for command in (("algebra",), ("seq", "--h", "1", "--n", "2", "--algebra"),
                    ("genfun", "--h", "1", "--N", "2", "--algebra"),
                    ("verify", "--nmax", "1", "--algebra")):
        code, out, err = run_cli(capsys, *command, str(path))
        assert code == 2 and not out, command
        assert err.startswith("hxfib: error: malformed JSON in ") and "Traceback" not in err


@pytest.mark.parametrize("params", ["1e3000000", "1.5", "1_0", "2, 3", BIG])
def test_hostile_builtin_parameters_exit_two(capsys, params):
    for command in (("algebra",), ("seq", "--h", "1", "--n", "2", "--algebra")):
        code, out, err = run_cli(capsys, *command, f"quaternion:{params}")
        assert code == 2 and not out
        assert err.startswith("hxfib: error: bad parameters in algebra kind ")


@pytest.mark.parametrize("table", [5, [5], [[5]], {"0": [[1]]}])
def test_algebra_malformed_table_exits_two(tmp_path, capsys, table):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps({"name": "t", "dim": 1, "table": table}))
    code, _, err = run_cli(capsys, "algebra", str(path))
    assert code == 2
    assert "bad algebra spec" in err


def test_algebra_not_unital_exits_one(tmp_path, capsys):
    doc = {
        "name": "broken",
        "dim": 2,
        "table": [[[1, 0], [1, 0]], [[0, 1], [-1, 0]]],
    }
    path = tmp_path / "nounit.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "algebra", str(path))
    assert code == 1
    assert "unital" in err.lower()


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["seq", "--n", "3"])  # --h is required
    assert info.value.code == 2


#: The smallest valid arguments of each subcommand that takes an option.
MINIMAL_ARGV = {
    "seq": {"--h": "x", "--n": "2"},
    "genfun": {"--h": "x", "--N": "2"},
    "verify": {"--nmax": "1"},
}


def _subcommand_options():
    """(subcommand, option) for every option of every subcommand but -h,
    read from the parser, so that an option added later is covered."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for command, parser in sub.choices.items():
        for action in parser._actions:
            if action.option_strings and not isinstance(action, argparse._HelpAction):
                yield command, max(action.option_strings, key=len)


def test_the_minimal_arguments_cover_every_subcommand():
    options = list(_subcommand_options())
    # the algebra subcommand takes one positional argument and no option
    assert {command for command, _ in options} == set(MINIMAL_ARGV)
    assert len(options) == 11


def _dash_dash_argv():
    for command, option in _subcommand_options():
        given = {**MINIMAL_ARGV[command], option: "--"}
        yield [command] + [f"{k}={v}" if v == "--" else f"{k} {v}" for k, v in given.items()]
    # inside the list that `verify --algebra` appends to
    yield ["verify", "--nmax=1", "--algebra=quaternion", "--algebra=--"]


@pytest.mark.parametrize("argv", [" ".join(a) for a in _dash_dash_argv()])
def test_an_option_written_with_a_dash_dash_value_exits_two(capsys, argv):
    # argparse gives `--opt=--` the empty list, calling no `type`: seq
    # --h=-- raised in parse_poly, and verify --seed=-- ran on the seed []
    code, out, err = run_cli(capsys, *argv.split())
    option = next(w for w in argv.split() if w.endswith("=--")).split("=")[0]
    assert code == 2 and not out
    assert err == f"hxfib: error: argument {option}: expected one value, not '--'\n"


# -- verify -----------------------------------------------------------------------

def test_verify_small_run_exits_zero(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "--seed", "42", "--nmax", "3", "--report", str(path)
    )
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["seed"] == 42
    assert doc["checks"]
    verdicts = {c["verdict"] for c in doc["checks"]}
    assert "fail" not in verdicts
    assert "checks" in out


def test_verify_report_to_stdout(capsys):
    code, out, err = run_cli(capsys, "verify", "--seed", "1", "--nmax", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["seed"] == 1
    assert "checks" in err


def test_verify_corrupted_algebra_file_exits_one(tmp_path, capsys):
    from hxfib.algebra import quaternion_table, table_to_spec
    from hxfib.suite import corrupt_table_entry

    bad = corrupt_table_entry(quaternion_table(), 1, 2, 2)
    path = tmp_path / "bad_table.json"
    path.write_text(json.dumps(table_to_spec(bad)))
    report_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "verify", "--nmax", "3", "--algebra", str(path),
        "--report", str(report_path),
    )
    assert code == 1
    doc = json.loads(report_path.read_text())
    failing = [c for c in doc["checks"] if c["verdict"] == "fail"]
    assert failing and all("witness" in c for c in failing)


def test_verify_rejects_duplicate_algebra_names(tmp_path, capsys):
    from hxfib.algebra import complex_table, split_complex_table, table_to_spec

    paths = []
    for table in (complex_table(), split_complex_table()):
        spec = table_to_spec(table)
        spec["name"] = "twin"
        path = tmp_path / f"{table.name}.json"
        path.write_text(json.dumps(spec))
        paths.append(str(path))
    report_path = tmp_path / "report.json"
    code, _, err = run_cli(
        capsys, "verify", "--nmax", "2", "--algebra", paths[0], "--algebra", paths[1],
        "--report", str(report_path),
    )
    assert code == 2
    assert "'twin'" in err and "more than once" in err
    assert not report_path.exists()


def test_verify_rejects_a_table_named_scalar(tmp_path, capsys, monkeypatch):
    from hxfib.algebra import complex_table, scalar_table, table_to_spec

    spec = table_to_spec(complex_table())
    spec["name"] = "scalar"
    path = tmp_path / "scalar.json"
    path.write_text(json.dumps(spec))
    monkeypatch.setattr(cli, "write_run", lambda out, corpus: pytest.fail("the run started"))
    code, _, err = run_cli(capsys, "verify", "--nmax", "2", "--algebra", str(path))
    assert code == 2
    assert "'scalar'" in err and "reserved" in err
    # the dimension-one table itself may be named
    monkeypatch.undo()
    path.write_text(json.dumps(table_to_spec(scalar_table())))
    code, _, _ = run_cli(capsys, "verify", "--nmax", "1", "--algebra", str(path),
                         "--report", str(tmp_path / "report.json"))
    assert code == 0


def test_verify_unwritable_report_exits_two_before_any_check(tmp_path, capsys, monkeypatch):
    path = tmp_path / "missing" / "report.json"
    monkeypatch.setattr(cli, "write_run", lambda out, corpus: pytest.fail("the run started"))
    code, out, err = run_cli(capsys, "verify", "--seed", "1", "--nmax", "1",
                             "--report", str(path))
    assert code == 2
    assert err.startswith("hxfib: error: cannot write report ") and "Traceback" not in err
    assert "checks:" not in out and "checks:" not in err  # no summary: no check ran
    assert not path.exists()


def test_verify_streams_the_records_without_building_a_report(tmp_path, capsys, monkeypatch):
    expected = run_all(default_corpus(1, n_max=2, r_max=2, p_max=2, trunc_n=2))
    monkeypatch.setattr(suite.Report, "__init__",
                        lambda *args, **kwargs: pytest.fail("a Report was built"))
    path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "--seed", "1", "--nmax", "2",
                           "--report", str(path))
    assert code == 0
    assert out == expected.summary() + "\n"
    doc = json.loads(path.read_text())
    for check in doc["checks"]:
        del check["ms"]
    assert doc == expected.comparable()


def test_verify_crash_leaves_the_records_so_far_in_a_report_that_is_not_json(
        tmp_path, monkeypatch):
    expected = run_all(default_corpus(1, n_max=2, r_max=2, p_max=2, trunc_n=2)).comparable()
    made = []

    def crash_after_seven(check):
        def run(runtime, params):
            if len(made) == 7:
                raise RuntimeError("check crashed")
            made.append(params)
            return check(runtime, params)

        return run

    for name, check in list(suite.CHECKS.items()):
        monkeypatch.setitem(suite.CHECKS, name, crash_after_seven(check))
    path = tmp_path / "report.json"
    with pytest.raises(RuntimeError, match="check crashed"):
        main(["verify", "--seed", "1", "--nmax", "2", "--report", str(path)])
    text = path.read_text()
    with pytest.raises(json.JSONDecodeError):
        json.loads(text)
    closed = json.loads(text + '\n  ],\n  "seed": 1\n}')
    assert [check["params"] for check in closed["checks"]] == made
    for check in closed["checks"]:
        assert type(check.pop("ms")) is float
    assert closed == {"seed": 1, "checks": expected["checks"][:7]}


def test_verify_report_write_error_exits_two(tmp_path, capsys, monkeypatch):
    class Full(io.StringIO):
        def write(self, text):
            if self.tell():  # the first write succeeds, the run is under way
                raise OSError(errno.ENOSPC, "No space left on device")
            return super().write(text)

    monkeypatch.setattr(cli, "open", lambda *args, **kwargs: Full(), raising=False)
    code, out, err = run_cli(capsys, "verify", "--seed", "1", "--nmax", "1",
                             "--report", str(tmp_path / "report.json"))
    assert code == 2
    assert err.startswith("hxfib: error: cannot write report ")
    assert "No space left on device" in err and "Traceback" not in err
    assert "checks:" not in out and "checks:" not in err


def test_verify_bad_nmax_exits_two(capsys):
    code, _, err = run_cli(capsys, "verify", "--nmax", "0")
    assert code == 2
    assert "nmax" in err
