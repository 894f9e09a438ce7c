"""Command-line surface: the polynomial grammar, the four subcommands,
their exit codes, and JSON/CSV emitter agreement."""

import csv
import io
import json
import random
from fractions import Fraction

import pytest

from hxfib.cli import main
from hxfib.polytext import PolyParseError, format_poly, parse_poly
from hxfib.scalars import ONE, X, ZERO, Poly
from hxfib.suite import random_h_polys

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


def test_seq_rejects_bad_polynomial(capsys):
    code, _, err = run_cli(capsys, "seq", "--h", "2z", "--n", "3")
    assert code == 2
    assert "z" in err


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


def test_algebra_malformed_json_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "algebra", str(path))
    assert code == 2
    assert "malformed" in err


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


def test_verify_bad_nmax_exits_two(capsys):
    code, _, err = run_cli(capsys, "verify", "--nmax", "0")
    assert code == 2
    assert "nmax" in err
