"""The three benchmark workloads: inputs from a seed, one timed pass, and
the correctness gate on each pass's outputs.

Every workload drives hxfib only through its public API (`hxfib.cli.main`,
`run_all`, `Corpus`, `random_h_polys`, `MUTATIONS`, `mutation_corpus`,
`shrink`). Functions are looked up on their modules at call time, so the
tracer's wrappers are seen when tracing is on.

Cost of a pass depends strongly on the degrees of the random h polynomials
(a degree-4 h costs about eight times a constant one). So that runs with
different seeds measure the same amount of work, a workload seed `n` is
mapped to the first seed `n + j * STRIDE` (j = 0, 1, ...) whose random h
have the same multiset of degrees as seed 42's; on `verify`, of degrees
together with whether h has integer coefficients. Seed 42 maps to itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

import hxfib
import hxfib.cli

STRIDE = 1_000_003
PROFILE_SEED = 42

#: Number of random h in `verify`'s corpus (fixed by `default_corpus`).
VERIFY_RANDOM_H = 5
#: `scalar_deep` uses the first K h of `random_h_polys(seed, 50)`.
SCALAR_DEEP_K = 20

CLOSED_FORMS = (
    "closed_form_binomial",
    "closed_form_halving",
    "closed_form_chebyshev",
    "closed_form_binet",
    "closed_form_differential",
)
SCALAR_IDENTITIES = ("sum_identity", "catalan_real", "index_shift", "genfun_real")


def matched_seed(seed: int, count: int, key) -> int:
    """First seed n + j*STRIDE whose `count` random h have the same
    multiset of `key(h)` as seed 42's."""

    def profile(s):
        return sorted(key(h) for h in hxfib.random_h_polys(s, count))

    want = profile(PROFILE_SEED)
    for j in range(200_000):
        s = seed + j * STRIDE
        if profile(s) == want:
            return s
    raise RuntimeError(f"no seed with the reference profile from {seed}")


@dataclass
class PassResult:
    """What the correctness gate found in one pass's outputs."""

    attempted: int  # operations: checks, or mutations on fault_shrink
    failed: int
    checks: int  # verdicts produced
    problems: list  # why the gate rejects the pass; empty when it is correct
    extra: dict = field(default_factory=dict)


# Each workload builds its inputs in __init__ (the set-up that `setup_s`
# times), does one timed pass in run(), and turns the pass's outputs into a
# PassResult in check().

# ---------------------------------------------------------------------------
# verify: `hxfib verify --seed <s> --report <file>` in-process


class Verify:
    name = "verify"

    def __init__(self, seed: int, out_dir, tiny: bool = False):
        self.seed = seed
        # the corpus and tables cli.main builds; the pass builds them again
        corpus = hxfib.default_corpus(seed)
        self.h_texts = {hxfib.format_poly(h) for h in corpus.h_polys}
        self.algebras = {t.name for t in corpus.algebras}
        self.report_path = out_dir / f"verify-report-{seed}.json"
        self.argv = ["verify", "--seed", str(seed), "--report", str(self.report_path)]
        if tiny:
            self.argv += ["--nmax", "3"]
        self.tiny = tiny

    def run(self):
        with contextlib.redirect_stdout(io.StringIO()):
            return hxfib.cli.main(self.argv)

    def check(self, exit_code) -> PassResult:
        raw = self.report_path.read_bytes()
        self.report_path.unlink()
        doc = json.loads(raw)
        checks = doc["checks"]
        failed = sum(1 for c in checks if c["verdict"] == "fail")
        flagged = {c["name"] for c in checks if c["verdict"] == "flag"}
        problems = []
        if exit_code != 0 or failed:
            problems.append(f"verify exited {exit_code} with {failed} failed checks")
        if flagged - {"hyper_catalan_printed"}:
            problems.append(f"unexpected flags from {sorted(flagged)}")
        h_texts = {c["params"]["h"] for c in checks if "h" in c["params"]}
        algebras = {c["params"]["algebra"] for c in checks if "algebra" in c["params"]}
        if doc["seed"] != self.seed or h_texts != self.h_texts:
            problems.append(f"report covers seed {doc['seed']} and h {sorted(h_texts)}")
        if algebras != self.algebras:
            problems.append(f"report covers algebras {sorted(algebras)}")
        if self.seed == PROFILE_SEED and not self.tiny:
            with open(Path(__file__).with_name("golden.json"), encoding="utf-8") as fh:
                golden = json.load(fh)["verify_seed_42"]
            got = {"checks": len(checks),
                   "flagged": sum(1 for c in checks if c["verdict"] == "flag"),
                   "digest": report_digest(doc)}
            if got != golden:
                problems.append(f"verify --seed 42 differs from the golden report: {got}")
        return PassResult(len(checks), failed, len(checks), problems,
                          {"report_bytes": len(raw)})


def report_digest(doc: dict) -> str:
    """sha256 of the report without its `ms` fields (`Report.comparable()`)."""
    import hashlib

    checks = [{k: v for k, v in c.items() if k != "ms"} for c in doc["checks"]]
    canon = json.dumps({"seed": doc["seed"], "checks": checks}, sort_keys=True,
                       separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# ---------------------------------------------------------------------------
# scalar_deep: closed forms to n = 30, scalar identities to n = 20


def index_shift_count(n_max: int) -> int:
    """Tuples a <= b, c <= d, a + b = c + d, a < c, 1 <= r <= a, all <= n_max."""
    count = 0
    for total in range(2, 2 * n_max + 1):
        lows = [a for a in range(max(0, total - n_max), total // 2 + 1)]
        for i, a in enumerate(lows):
            count += a * (len(lows) - i - 1)
    return count


class ScalarDeep:
    name = "scalar_deep"

    def __init__(self, seed: int, out_dir=None, tiny: bool = False):
        self.seed = seed
        self.h_polys = hxfib.random_h_polys(seed, 1 if tiny else SCALAR_DEEP_K)
        n_closed, n_ident = (4, 3) if tiny else (30, 20)
        self.closed = hxfib.Corpus(seed=self.seed, h_polys=self.h_polys, algebras=(),
                                   n_max=n_closed)
        self.ident = hxfib.Corpus(seed=self.seed, h_polys=self.h_polys, algebras=(),
                                  n_max=n_ident, trunc_n=n_ident)
        per_h = (
            len(CLOSED_FORMS) * n_closed  # n = 1..n_max
            + n_ident  # sum_identity, n = 1..n_max (h is never zero)
            + (n_ident + 1) * (n_ident + 2) // 2  # catalan_real, 0 <= r <= n
            + index_shift_count(n_ident)
            + 1  # genfun_real
        )
        self.expected = per_h * len(self.h_polys)

    def run(self):
        return (hxfib.run_all(self.closed, include=set(CLOSED_FORMS)),
                hxfib.run_all(self.ident, include=set(SCALAR_IDENTITIES)))

    def check(self, reports) -> PassResult:
        checks = [c for report in reports for c in report.checks]
        failed = sum(1 for c in checks if c.verdict != "pass")
        problems = []
        if failed or len(checks) != self.expected:
            problems.append(f"scalar_deep: {failed} of {len(checks)} checks did not pass, "
                            f"expected 0 of {self.expected}")
        return PassResult(len(checks), failed, len(checks), problems)


# ---------------------------------------------------------------------------
# fault_shrink: every prescribed mutation, then shrink its first failure

_WITNESS_KIND = re.compile(r"^([A-Za-z]\w*): ")


def witness_kind(witness) -> str:
    """The exception class named by a witness ("ZeroH: ..."), else "verdict"."""
    m = _WITNESS_KIND.match(witness or "")
    if m and isinstance(getattr(hxfib, m.group(1), None), type):
        return m.group(1)
    return "verdict"


class FaultShrink:
    name = "fault_shrink"

    def __init__(self, seed: int, out_dir=None, tiny: bool = False):
        self.seed = seed
        self.corpus = hxfib.mutation_corpus()
        # the seed only orders the mutations; the corpus is fixed by the library
        self.order = sorted(hxfib.MUTATIONS)
        random.Random(f"fault-shrink-{seed}").shuffle(self.order)
        if tiny:
            self.order = self.order[:2]

    def run(self):
        """(mutation, checks run, first failure, shrunk record or error) each."""
        outcomes = []
        for name in self.order:
            try:
                with hxfib.MUTATIONS[name](self.corpus) as mutated:
                    report = hxfib.run_all(mutated)
                    failures = report.failures
                    first = failures[0] if failures else None
                    shrunk = None
                    if first is not None:
                        tables = {t.name: t for t in mutated.algebras}
                        shrunk = hxfib.shrink(first, tables)
                    outcomes.append((name, len(report.checks), first, shrunk))
            except Exception as exc:  # counted as a failed operation
                outcomes.append((name, 0, None, exc))
        return outcomes

    def check(self, outcomes) -> PassResult:
        missed = {name: shrunk for name, _, first, shrunk in outcomes
                  if first is None or getattr(shrunk, "verdict", None) != "fail"}
        problems = [f"fault_shrink: {name} was not caught and shrunk ({error!r})"
                    for name, error in missed.items()]
        changed = sum(witness_kind(shrunk.witness) != witness_kind(first.witness)
                      for name, _, first, shrunk in outcomes if name not in missed)
        return PassResult(len(outcomes), len(missed), sum(o[1] for o in outcomes), problems,
                          {"reason_changed": changed})


WORKLOADS = {w.name: w for w in (Verify, ScalarDeep, FaultShrink)}


def resolve_seed(workload: str, seed: int, tiny: bool = False) -> int:
    """The seed a workload builds its inputs from, given the run's seed."""
    if workload == "verify":
        # integer h skip content reduction; with five h this is cheap to match
        return matched_seed(seed, VERIFY_RANDOM_H, lambda h: (h.degree, h.den == 1))
    if workload == "scalar_deep":
        return matched_seed(seed, 1 if tiny else SCALAR_DEEP_K, lambda h: h.degree)
    return seed
