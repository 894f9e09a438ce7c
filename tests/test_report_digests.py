"""The report contract beyond seed 42: sha256 digests of reports that a
change to a fast path must leave as they are, recomputed against the
digests committed in `report_digests.json`.

- `comparable()` of the default corpus at seeds 1 and 7;
- each of the ten `MUTATIONS` over `mutation_corpus()`: the report, and
  its first failure with that failure shrunk inside the same fault;
- the text of `verify` over a JSON table whose name needs quoting in
  JSON, with every `ms` value written as 0.

A change that moves a digest says which record moved and why.  To
rewrite the file after such a change, run

    PYTHONPATH=src python tests/test_report_digests.py > tests/report_digests.json
"""

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
import time
from pathlib import Path

from hxfib import cli
from hxfib.suite import MUTATIONS, default_corpus, mutation_corpus, run_all, shrink

DIGESTS = Path(__file__).with_name("report_digests.json")

#: A table name with a quote, a backslash, a format character, a control
#: character, a line separator and text outside the BMP.
QUOTED_NAME = 'digest "q" back\\slash %s \x01 \u2028 caf\u00e9 \U0001d49c'
QUOTED_SPEC = {
    "name": QUOTED_NAME,
    "dim": 3,
    "table": [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], ["1/2", 0, "-3/2"], [0, "2/3", 0]],
        [[0, 0, 1], [0, "-1/3", 0], ["5/2", 0, "1/4"]],
    ],
}

_MS = re.compile(r'"ms": [^,\n]+')


def _digest(doc) -> str:
    text = doc if isinstance(doc, str) else json.dumps(doc, sort_keys=True,
                                                       separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _without_ms(record) -> dict:
    return {k: v for k, v in record.to_dict().items() if k != "ms"}


def _mutation_doc(name: str) -> dict:
    with MUTATIONS[name](mutation_corpus()) as mutated:
        report = run_all(mutated)
        first = report.failures[0]
        shrunk = shrink(first, {t.name: t for t in mutated.algebras})
    return {"report": report.comparable(), "first": _without_ms(first),
            "shrunk": _without_ms(shrunk)}


def _quoted_table_text() -> str:
    with tempfile.TemporaryDirectory() as tmp:
        spec, report = Path(tmp) / "table.json", Path(tmp) / "report.json"
        spec.write_text(json.dumps(QUOTED_SPEC), encoding="utf-8")
        argv = ["verify", "--seed", "1", "--nmax", "6", "--algebra", str(spec),
                "--report", str(report)]
        with contextlib.redirect_stdout(io.StringIO()):  # the summary line
            code = cli.main(argv)
        text = report.read_text(encoding="utf-8")
    return f"exit {code}\n" + _MS.sub('"ms": 0', text)


def digests() -> dict:
    got = {f"verify_seed_{seed}": _digest(run_all(default_corpus(seed)).comparable())
           for seed in (1, 7)}
    got.update((f"mutation_{name}", _digest(_mutation_doc(name))) for name in sorted(MUTATIONS))
    got["verify_quoted_json_table"] = _digest(_quoted_table_text())
    return got


def test_reports_match_their_committed_digests():
    start = time.perf_counter()
    got = digests()
    elapsed = time.perf_counter() - start
    want = json.loads(DIGESTS.read_text())
    assert len(want) == 2 + 10 + 1 and set(got) == set(want)
    moved = sorted(key for key in want if got[key] != want[key])
    assert not moved, f"report digests moved: {moved}"
    assert elapsed < 10, f"{elapsed:.1f} s, against a budget of about 2 s"


if __name__ == "__main__":
    sys.stdout.write(json.dumps(digests(), indent=2, sort_keys=True) + "\n")
