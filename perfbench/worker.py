"""One benchmark process: set up, then run passes of one workload.

    python3 perfbench/worker.py setup --workload W --workdir DIR
    python3 perfbench/worker.py run --workload W --seed N --seconds S --trace 0|1 --workdir DIR

Both modes print one JSON object as the last line of standard output. `setup`
only measures set-up time. `run` measures set-up, then runs passes back to
back (a closed loop with one client) until `--seconds` have elapsed, at least
one pass. With `--trace 1` it mixes untraced and traced passes, at least one
untraced and two traced (see `next_pass_traced`), so the tracing overhead, the
repeat of every counter and the digests of both kinds are measured in one
process.

Run through run.py, which sets PYTHONPATH and the BLAS thread count.
"""

import argparse
import ctypes
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, Operation


def configure(op: Operation, out_dir: Path):
    from nhscatter import experiments

    return experiments.apply_overrides(
        experiments.default_config(op.scenario), [*op.overrides, f"out_dir={out_dir}"]
    )


def set_up(workload, workdir: Path) -> float:
    """Seconds to import nhscatter and finish the warm-up run."""
    started = time.perf_counter()
    from nhscatter import experiments

    experiments.run_scenario(configure(workload.warmup, workdir / "warmup"))
    return time.perf_counter() - started


def data_files(outputs: list[str]) -> list[str]:
    """A run's outputs except config.ini and manifest.json, which carry the
    output path and timings and so differ between identical runs."""
    return sorted(name for name in outputs if name not in ("config.ini", "manifest.json"))


def digest(out_dir: Path, names: list[str]) -> str:
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode() + b"\0")
        h.update((out_dir / name).read_bytes())
    return h.hexdigest()


def run_operation(op: Operation, out_dir: Path, tracer):
    """Run one scenario and its gate; returns (manifest or None, problems)."""
    from nhscatter import experiments

    try:
        config = configure(op, out_dir)
        if tracer is None:
            manifest = experiments.run_scenario(config)
        else:
            from tracing import ROOT

            manifest = tracer.call(ROOT, None, experiments.run_scenario, (config,), {})
    except Exception:  # an aborted scenario is a failed operation, not a crash
        return None, [f"aborted:\n{traceback.format_exc()}"]
    problems = []
    if not manifest.passed:
        failed = [a.name for a in manifest.assertions if not a.passed]
        problems.append(f"manifest failed: {failed}")
    try:
        problems += op.check(out_dir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"outputs unreadable: {exc!r}")
    return manifest, problems


def run_pass(ops: list[Operation], workdir: Path, tracer) -> dict:
    """Run every operation once. The pass time ends when the last operation
    has finished and passed its gate, i.e. at a verified result."""
    started = time.perf_counter()
    results = [(op, *run_operation(op, workdir / op.name, tracer)) for op in ops]
    wall_s = time.perf_counter() - started

    failures, digests, output_bytes = {}, {}, 0
    for op, manifest, problems in results:
        if problems:
            failures[op.name] = problems
        if manifest is not None:
            out_dir = workdir / op.name
            names = data_files(manifest.outputs)
            digests[op.name] = digest(out_dir, names)
            output_bytes += sum((out_dir / name).stat().st_size for name in names)
    record = {
        "traced": tracer is not None,
        "wall_s": wall_s,
        "attempted": len(ops),
        "failures": failures,
        "digests": digests,
    }
    if tracer is not None:
        tracer.counts["experiments.output.bytes"] += output_bytes
        record["layers"] = tracer.take()
    return record


def problem_size(op: Operation) -> dict:
    """Lattice size N, frames and steps per propagation, or sweep samples."""
    from nhscatter.experiments import TimeConfig
    from nhscatter.lattice import lattice_dim

    config = configure(op, Path("unused"))
    if config.scenario == "verify":
        return {}
    if config.scenario == "sweep":
        return {"samples": config.sweep.samples}
    if config.scenario == "absorb":
        times = TimeConfig(t_max=config.absorb.t_max, dt=config.absorb.dt).times()
    else:
        times = config.time.times()
    n = lattice_dim(config.center.to_center(), config.lattice.to_lattice())
    return {"N": n, "frames": len(times), "steps": len(times) - 1}


def blas_threads() -> dict:
    """Threads each loaded OpenBLAS reports, keyed by library file name."""
    found = {}
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        if not path.endswith(".so") and ".so." not in path:
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    }


# the counters of at least two traced passes are compared, so a counter that
# does not repeat is caught on every workload
TRACED_PASSES_MIN = 2


def next_pass_traced(passes: list[dict]) -> bool:
    """Trace schedule: one untraced pass, then traced ones until there are
    TRACED_PASSES_MIN, then alternating (untraced, traced, traced, untraced,
    traced, ...), so even a run of three long passes has both kinds."""
    traced = sum(p["traced"] for p in passes)
    untraced = len(passes) - traced
    return untraced > 0 and (traced < TRACED_PASSES_MIN or traced <= untraced)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    setup_s = set_up(workload, args.workdir)
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    ops = workload.make_operations(args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    passes = []
    started = time.perf_counter()
    while True:
        traced = tracer is not None and next_pass_traced(passes)
        if traced:
            tracer.install()
        try:
            passes.append(run_pass(ops, args.workdir, tracer if traced else None))
        finally:
            if traced:
                tracer.uninstall()
        if len(passes) == 1:
            # later passes raise the peak a little, so taking it here keeps it
            # independent of how many passes fit in the run
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        done = time.perf_counter() - started >= args.seconds
        if done and (tracer is None or sum(p["traced"] for p in passes) >= TRACED_PASSES_MIN):
            break

    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "passes": passes,
                "peak_rss_mb": peak_rss_mb,
                "environment": environment(),
                "sizes": {op.name: problem_size(op) for op in ops},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
