"""Print the end-to-end metrics of every workload in one table.

    python3 perfbench/summary.py

Run from the repository root. Each workload is measured as
`run.py --workload NAME --seed 1 --seconds <run_seconds> --trace 0` would
measure it, with run_seconds from BENCHMARK.json. Takes about five minutes on
a 2-core machine. Exits with code 1 if any workload's outputs are wrong.
"""

import sys
from pathlib import Path

from run import BenchmarkError, declared_units, load_spec, measure
from workloads import WORKLOADS

SEED = 1


def main() -> int:
    root = Path.cwd()
    seconds = load_spec(root)["run_seconds"]
    columns = [*declared_units(root, trace=False).items(), ("failed_frac", "1")]
    print(f"{'workload':<14}" + "".join(f"{f'{n} [{u}]':>20}" for n, u in columns) + "  correct")
    all_correct = True
    for name in WORKLOADS:
        try:
            report = measure(name, SEED, seconds, trace=False)
        except BenchmarkError as exc:
            print(f"{name:<14}benchmark error: {exc}")
            all_correct = False
            continue
        values = {n: m["value"] for n, m in report["metrics"].items()}
        values["failed_frac"] = report["failed_frac"]
        cells = "".join(f"{values[n]:>20.4f}" for n, _ in columns)
        print(f"{name:<14}{cells}  {report['correct']}")
        all_correct &= report["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
