"""Benchmark of nhscatter's scenario runs: time to a verified result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The package is imported from `src/` as it
stands; nothing is installed or built. Workloads are defined in workloads.py.

Each run starts one worker process (worker.py) with BLAS threads capped at
min(2, usable CPUs). The worker imports nhscatter, runs a short warm-up
scenario, and then drives `experiments.apply_overrides` +
`experiments.run_scenario` in a closed loop, one client, pass after pass,
until S seconds have elapsed. With --trace 0, two more set-up-only processes
give three set-up samples.

--trace 0 reports the end-to-end metrics:
  setup_s      median of the three set-up samples: import of nhscatter plus
               the warm-up run, which includes the first expm at the
               workload's lattice size
  wall_s       median seconds of one pass; a pass ends when every scenario in
               it has finished and passed its checks
  peak_rss_mb  peak resident memory of the worker process through its set-up
               and first pass
--trace 1 mixes untraced and traced passes, at least one untraced and two
traced, and reports the per-layer metrics of tracing.py (medians over traced
passes) plus trace.overhead_s, the median traced pass time minus the median
untraced one. The slowest workload, absorb, takes about 130 s this way on a
2-core x86-64 VM.

Every operation (one scenario run) must pass its manifest and match the
reference values of workloads.py. Each operation's data files are digested;
all passes of one run, traced or not, must give identical digests. Counters
that differ between traced passes are a benchmark error (exit code 3).

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it give the
environment, problem sizes, pass-time quartiles, failed_frac, digests and,
when tracing, the counters against those measured when the benchmark was
added.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3  # the run's own set-up plus two set-up-only processes
# every process of a run ends within this many seconds, so a run ends within
# the 180 s the benchmark contract allows even if a pass hangs
DEADLINE_S = 175.0
BLAS_THREADS_MAX = 2


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def load_spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def declared_units(root: Path, trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    return {m["name"]: m["unit"] for m in load_spec(root)["per_layer" if trace else "end_to_end"]}


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    threads = str(min(BLAS_THREADS_MAX, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    # compile from source on every import, so no set-up sample depends on a
    # bytecode cache left by an earlier run
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def call_worker(args: list[str], env: dict, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("out of time before the worker could start")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker {args[:3]} exceeded the deadline") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"worker {args[:3]} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def layer_metrics(traced: list[dict], untraced: list[dict], units: dict) -> dict:
    """Per-layer times as medians over traced passes; counters must repeat."""
    if len(traced) < 2 or not untraced:
        raise BenchmarkError(f"{len(traced)} traced and {len(untraced)} untraced passes")
    metrics = {}
    for name in traced[0]["layers"]:
        values = [p["layers"][name] for p in traced]
        if units.get(name) == "s":
            metrics[name] = statistics.median(values)
        elif len(set(values)) > 1:
            raise BenchmarkError(f"counter {name} differs between passes: {sorted(set(values))}")
        else:
            metrics[name] = values[0]
    metrics["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - statistics.median(
        p["wall_s"] for p in untraced
    )
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the full report (see the module docstring)."""
    root = Path.cwd()
    if not (root / "src" / "nhscatter" / "__init__.py").is_file():
        raise BenchmarkError(f"no nhscatter sources under {root / 'src'}; run from the repo root")
    units = declared_units(root, trace)
    deadline = time.monotonic() + DEADLINE_S
    env = worker_env(root)
    workdir = root / ".perfbench" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", workload, "--workdir", str(workdir)]
    try:
        run = call_worker(
            ["run", *common, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            env,
            deadline,
        )
        # set-up time is an end-to-end metric only, so a traced run, already
        # the longest, takes no extra samples
        setups = [run["setup_s"]] + [
            call_worker(["setup", *common], env, deadline)["setup_s"]
            for _ in range(0 if trace else SETUP_SAMPLES - 1)
        ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = run["passes"]
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    problems = [f"{op}: {msg}" for p in passes for op, msgs in p["failures"].items() for msg in msgs]

    digests = {}
    for p in passes:
        for op, value in p["digests"].items():
            digests.setdefault(op, set()).add(value)
    for op, values in digests.items():
        if len(values) > 1:
            problems.append(f"{op}: outputs differ between passes ({len(values)} digests)")

    walls = [p["wall_s"] for p in untraced]
    q1, median, q3 = quartiles(walls)
    report = {
        "workload": workload,
        "seed": seed,
        "environment": dict(run["environment"], git_commit=git_commit(root)),
        "sizes": run["sizes"],
        "setup_samples_s": setups,
        "wall_s": {"median": median, "q1": q1, "q3": q3, "samples": len(walls)},
        "failed_frac": failed / attempted,
        "digests": {op: sorted(values) for op, values in digests.items()},
        "problems": problems,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
    }
    if trace:
        report["metrics"] = layer_metrics(traced, untraced, units)
        baseline = WORKLOADS[workload].baseline_counters
        report["baseline_counter_mismatches"] = {
            name: {"measured": report["metrics"][name], "baseline": value}
            for name, value in baseline.items()
            if report["metrics"][name] != value
        }
    else:
        report["metrics"] = {
            "setup_s": statistics.median(setups),
            "wall_s": median,
            "peak_rss_mb": run["peak_rss_mb"],
        }
    missing = units.keys() - report["metrics"].keys()
    if missing:
        raise BenchmarkError(f"BENCHMARK.json declares metrics this run lacks: {sorted(missing)}")
    report["metrics"] = {
        name: {"value": report["metrics"][name], "unit": unit} for name, unit in units.items()
    }
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3

    for problem in report["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    for key in ("environment", "sizes", "setup_samples_s", "wall_s", "digests"):
        print(f"{key}: {json.dumps(report[key])}")
    print(f"failed_frac = {report['failed_frac']!r} ({report['failed']} of {report['attempted']} operations)")
    if args.trace:
        mismatches = report["baseline_counter_mismatches"]
        print(f"counters vs baseline: {json.dumps(mismatches) if mismatches else 'all equal'}")
    for name, m in report["metrics"].items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": report["correct"],
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": report["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
