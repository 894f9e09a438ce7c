"""End-to-end and per-layer benchmark of the hxfib exact verifier.

    python3 benchmarks/bench.py [--workload verify|scalar_deep|fault_shrink|all]
                                [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
`src/`. Workloads (see `workloads.py`):

- verify: `hxfib verify --seed <s> --report <file>` in-process, all 25
  check families over six algebras; the command users run.
- scalar_deep: closed forms to n = 30 and the scalar identities to n = 20
  on twenty random h with no algebra; the `Poly` kernels alone.
- fault_shrink: every prescribed mutation, then `shrink` of its first
  failure inside the same fault; tiny operands and cold contexts.

With `--trace 0` a run reports the end-to-end metrics: `setup_s` (median
over fresh processes of importing the package and building the inputs),
`wall_s` (median time of one pass, cold caches included), `checks_per_s`
(verdicts of one pass over `wall_s`) and `peak_rss_mb` (the process's
high-water mark after its first pass). Passes repeat until the next one
would end after `--seconds`. With `--trace 1` the same untraced passes run,
then one pass under the tracer (`tracer.py`), and the run reports the
per-layer metrics and the tracing overhead. Times are in reference seconds,
scaled by a calibration kernel measured alongside (`speed.py`), because
the speed of a shared host drifts by a third within minutes.

Every pass goes through the correctness gate (`workloads.py`); a mismatch
is printed to stderr, the last line reports `"correct": false` and the
exit code is 1. The fail fraction is `failed` over `attempted` in that
last line, a JSON object. The environment, every pass and, when tracing,
the kept spans go to `.bench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("verify", "scalar_deep", "fault_shrink")
SETUP_PROBES = 5

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("checks_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def environment() -> dict:
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            lines += sum(1 for line in fh if line.strip())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "src_nonblank_lines": lines,
    }


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _import_path():
    for path in (str(SRC), str(BENCH_DIR)):
        if path not in sys.path:
            sys.path.insert(0, path)


def setup_probe(workload: str, seed: int, tiny: bool) -> float:
    """Import the package and build the workload's inputs, first thing in a
    fresh interpreter; reference seconds."""
    t0 = time.perf_counter()
    _import_path()
    import workloads

    workloads.WORKLOADS[workload](seed, OUT, tiny=tiny)
    elapsed = time.perf_counter() - t0
    import speed

    return speed.to_reference(elapsed, speed.kernel_seconds())


def measure_setup(workload: str, seed: int, tiny: bool) -> list:
    """Set-up times of fresh processes, after one untimed process that
    leaves compiled bytecode behind."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", workload,
           "--seed", str(seed)] + (["--tiny"] if tiny else [])
    times = []
    for i in range(SETUP_PROBES + 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True,
                              timeout=120)
        if i:
            times.append(float(done.stdout.split()[-1]))
    return times


def timed_pass(work, sampler):
    """One pass: (outputs, reference seconds, raw seconds)."""
    gc.collect()
    t0 = time.perf_counter()
    outputs = work.run()
    t1 = time.perf_counter()
    return outputs, sampler.reference(t0, t1), t1 - t0


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool):
    """One run; returns (line of results, detail for the output file)."""
    _import_path()
    import speed
    import workloads

    OUT.mkdir(exist_ok=True)
    env = environment()
    input_seed = workloads.resolve_seed(workload, seed, tiny)
    setups = measure_setup(workload, input_seed, tiny)
    work = workloads.WORKLOADS[workload](input_seed, OUT, tiny=tiny)
    walls, raws, results = [], [], []
    peak_rss_mb = None
    with speed.Sampler() as sampler:
        start = time.perf_counter()
        while True:  # passes until the next one would end after `seconds`
            outputs, wall, raw = timed_pass(work, sampler)
            if peak_rss_mb is None:  # import, inputs and one pass; not the gate
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            results.append(work.check(outputs))
            walls.append(wall)
            raws.append(raw)
            del outputs
            if results[-1].problems or time.perf_counter() - start + raw > seconds:
                break
        wall_s = statistics.median(walls)
        detail = {"workload": workload, "seed": seed, "input_seed": input_seed, "env": env,
                  "setup_s": setups, "wall_s": walls, "raw_wall_s": raws}
        if not trace:
            metrics = {
                "setup_s": statistics.median(setups),
                "wall_s": wall_s,
                "checks_per_s": results[0].checks / wall_s,
                "peak_rss_mb": peak_rss_mb,
            }
            units = dict(END_TO_END)
        elif not results[-1].problems:
            import tracer

            with tracer.Tracer() as tr:
                outputs, traced_wall, raw = timed_pass(work, sampler)
            results.append(work.check(outputs))
            # per-layer times in reference seconds too, at the traced pass's speed
            scale = traced_wall / raw
            metrics = {k: v * scale if k.endswith((".self_s", ".s")) else v
                       for k, v in tr.values().items()}
            metrics.update({
                "suite.shrink.reason_changed": results[-1].extra.get("reason_changed", 0),
                "cli.report_bytes": results[-1].extra.get("report_bytes", 0),
                "trace.wall_s": traced_wall,
                "trace.overhead_s": traced_wall - wall_s,
                "src.nonblank_lines": env["src_nonblank_lines"],
            })
            units = {name: unit for name, unit, _ in tracer.PER_LAYER}
            detail["spans"] = tr.spans
    problems = [p for r in results for p in r.problems]
    line = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": {} if problems else {
            k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    detail.update(result=line, problems=problems)
    with open(OUT / f"{workload}-seed{seed}-trace{int(trace)}.json", "w",
              encoding="utf-8") as fh:
        json.dump(detail, fh)
    return line, detail


def _print_result(workload: str, line: dict, detail: dict):
    env = detail["env"]
    print(f"# {workload}: python {env['python']}, nproc {env['nproc']}, "
          f"commit {env['commit'][:12]}, src {env['src_nonblank_lines']} non-blank lines, "
          f"input seed {detail['input_seed']}")
    raw = detail["raw_wall_s"]
    print(f"# {len(raw)} untraced passes, raw seconds: median "
          f"{statistics.median(raw):.4g}, min {min(raw):.4g}, max {max(raw):.4g}")
    for name, m in line["metrics"].items():
        print(f"{workload}.{name} {m['value']:.6g} {m['unit']}")
    frac = line["failed"] / line["attempted"]
    print(f"{workload}.fail_frac {frac:.6g} ratio "
          f"({line['failed']} of {line['attempted']} operations)")


def run_all_workloads(args) -> int:
    """Each workload in its own process, so peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        sys.stderr.write(done.stderr)
        if done.returncode or not lines:
            print(f"bench: {workload} failed with exit code {done.returncode}",
                  file=sys.stderr)
            return done.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the self-test")
    parser.add_argument("--setup-probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "hxfib" / "__init__.py").is_file():
        print(f"bench: no hxfib package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        print(setup_probe(args.setup_probe, args.seed, args.tiny))
        return 0
    if args.workload == "all":
        return run_all_workloads(args)

    line, detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                args.tiny)
    for problem in detail["problems"]:
        print(f"bench: correctness gate failed on {args.workload}: {problem}",
              file=sys.stderr)
    _print_result(args.workload, line, detail)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
