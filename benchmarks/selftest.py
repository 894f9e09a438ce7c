"""Self-test of the benchmark at tiny sizes (well under a minute):

    python3 benchmarks/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that the correctness gate trips when a prescribed mutation is active
during a `verify` pass, that the tracer wraps `poly_sum` where it is
looked up and restores every original, and that the benchmark refuses to
run without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import hxfib  # noqa: E402
import hxfib.fibseq as fibseq  # noqa: E402
import hxfib.scalars as scalars  # noqa: E402
import hxfib.suite as suite  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from bench import OUT, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "benchmarks" / "bench.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


class MetricsEmitted(unittest.TestCase):
    def check(self, trace: int, expected: list):
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=trace):
                done = _bench("--workload", workload, "--tiny", "--seconds", "0.2",
                              "--trace", str(trace))
                self.assertEqual(done.returncode, 0, done.stderr)
                result = json.loads(done.stdout.strip().splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertIs(result["correct"], True)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                got = {k: m["unit"] for k, m in result["metrics"].items()}
                self.assertEqual(got, {m["name"]: m["unit"] for m in expected})

    def test_end_to_end(self):
        self.check(0, SPEC["end_to_end"])

    def test_per_layer(self):
        self.check(1, SPEC["per_layer"])

    def test_per_layer_spec_matches_tracer(self):
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]],
                         tracer.PER_LAYER)


class Gate(unittest.TestCase):
    def test_trips_under_mutation(self):
        OUT.mkdir(exist_ok=True)
        work = workloads.Verify(42, OUT, tiny=True)
        self.assertEqual(work.check(work.run()).problems, [])
        with hxfib.MUTATIONS["roots_swapped"](hxfib.mutation_corpus()):
            outputs = work.run()
        result = work.check(outputs)
        self.assertGreater(result.failed, 0)
        self.assertIn("verify exited 1", result.problems[0])

    def test_fault_shrink_counts_changed_reasons(self):
        self.assertEqual(workloads.witness_kind("ZeroH: the summation identity"), "ZeroH")
        self.assertEqual(workloads.witness_kind("partial sum up to n=1"), "verdict")


class TracerWrapping(unittest.TestCase):
    def test_wraps_where_looked_up_and_restores(self):
        before = {(owner, attr): vars(owner)[attr]
                  for owner, attrs in tracer.TARGETS.values() if isinstance(owner, type)
                  for attr in attrs}
        checks = dict(suite.CHECKS)
        original_sum = scalars.poly_sum
        corpus = hxfib.Corpus(seed=1, h_polys=(scalars.X,), algebras=(), n_max=3)
        with tracer.Tracer() as tr:
            for module in (fibseq, suite, scalars):
                self.assertIsNot(module.poly_sum, original_sum)
            hxfib.run_all(corpus, include={"closed_form_binomial", "sum_identity"})
        self.assertGreater(tr.values()["scalars.poly_sum.calls"], 0)
        for (owner, attr), fn in before.items():
            self.assertIs(vars(owner)[attr], fn, f"{owner.__name__}.{attr}")
        self.assertEqual(suite.CHECKS, checks)
        for module in tracer.PACKAGE_MODULES:
            self.assertIs(getattr(module, "poly_sum", original_sum), original_sum)


class Layout(unittest.TestCase):
    def test_refuses_without_sources(self):
        bare = OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "benchmarks",
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            done = _bench("--workload", "verify", "--seed", "1", "--seconds", "1",
                          "--trace", "0", cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout, "")
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
