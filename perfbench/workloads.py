"""Workload definitions: which scenarios a pass runs, and the reference values
their outputs must reproduce.

An operation is one `experiments.run_scenario` call. It passes when its
manifest passed and its key outputs match the references below within
RTOL/ATOL. The tolerances sit far above round-off (outputs agree to ~1e-13
between runs of different correct propagators) and far below any physics
difference, so a faster propagator that is still correct passes.

The reference values and counters were measured at the commit that added this
benchmark: 2-core x86-64 box, OpenBLAS, numpy 2.4, scipy 1.17.

BENCHMARK.json lists two workloads, `mixed` and `absorb`: at run_seconds=30
each run times 30 to 50 s of passes, which shorter workloads could not reach
within the time the whole benchmark may take.
`transit`, `singular-fine` and `analytics` are the three parts of `mixed`,
kept as workloads of their own for summary.py and for finding which part moved.
"""

import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

RTOL = 1e-6
ATOL = 1e-9


def close(measured: float, reference: float) -> bool:
    if math.isinf(reference):
        return measured == reference
    return abs(measured - reference) <= ATOL + RTOL * abs(reference)


def read_metrics_txt(path: Path) -> dict:
    """Parse the `key = value` records that scenarios write to metrics.txt."""
    record = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        record[key] = float(value)
    return record


def compare(label: str, measured: float, reference: float) -> list[str]:
    if close(measured, reference):
        return []
    return [f"{label}: {measured!r} differs from reference {reference!r}"]


def metrics_check(references: dict) -> Callable[[Path], list[str]]:
    """Check selected metrics.txt entries against reference values."""

    def check(out_dir: Path) -> list[str]:
        record = read_metrics_txt(out_dir / "metrics.txt")
        problems = []
        for key, reference in references.items():
            if key not in record:
                problems.append(f"metrics.txt lacks {key}")
            else:
                problems += compare(key, record[key], reference)
        return problems

    return check


# --- transit -----------------------------------------------------------------

AMPLIFY_METRICS = {
    "gain": 4.000000000000019,
    "reflected": 3.99233349932409e-24,
    "distortion": 1.3112760862137979e-14,
}

# distortion.csv rows: (k0, deviation) -> (gain, distortion)
FLUX_TABLE = {
    (1.0471975511965976, 0): (3.9999997510507903, 3.880535471531057e-15),
    (1.0471975511965976, 5): (6.81944000822033, 0.1891887247045918),
    (1.0471975511965976, 10): (16.66543121597738, 2.1231855745854413),
    (1.2566370614359172, 0): (3.999999999998532, 5.974053665116456e-15),
    (1.2566370614359172, 5): (5.159355996710178, 0.14740045503560806),
    (1.2566370614359172, 10): (6.020525448335302, 0.43081594054501127),
    (1.5707963267948966, 0): (4.000000000000019, 1.3112760862137979e-14),
    (1.5707963267948966, 5): (3.6876249530798106, 0.06383953155322578),
    (1.5707963267948966, 10): (2.896717419197915, 0.19328915033915436),
}


def check_flux(out_dir: Path) -> list[str]:
    lines = (out_dir / "distortion.csv").read_text().splitlines()[1:]
    rows = {}
    for line in lines:
        k0, dev, gain, distortion = line.split(",")
        rows[(float(k0), int(dev))] = (float(gain), float(distortion))
    if set(rows) != set(FLUX_TABLE):
        return [f"distortion.csv has rows {sorted(rows)}, expected {sorted(FLUX_TABLE)}"]
    problems = []
    for key, (gain, distortion) in FLUX_TABLE.items():
        problems += compare(f"gain{key}", rows[key][0], gain)
        problems += compare(f"distortion{key}", rows[key][1], distortion)
    return problems


# --- singular-fine -----------------------------------------------------------

SINGULAR_METRICS = {
    "seed_plus_growth_slope": 10.000008220298382,
    "seed_plus_emission_ratio": 0.500000000000006,
    "seed_minus_final": 0.3415595125075052,
    "packet_reflected_slope": 47.265437146847376,
    "packet_transmitted_slope": 11.816359247565114,
}
PAIR_RESIDUE = 0.0035355596127544 / 1.25


def check_singular(out_dir: Path) -> list[str]:
    record = read_metrics_txt(out_dir / "metrics.txt")
    problems = metrics_check(SINGULAR_METRICS)(out_dir)
    residue = record["pair_final"] / record["pair_initial"]
    return problems + compare("pair residue", residue, PAIR_RESIDUE)


# --- absorb ------------------------------------------------------------------

ABSORB_METRICS = {
    "final_P[nu=0.5]": 0.2561336685725677,
    "final_P[nu=0.4]": 0.16686970880127733,
    "final_P[nu=0.1]": 0.018096442515793273,
    "hermitian_control_max_dev": 9.103828801926284e-15,
}


# --- analytics ---------------------------------------------------------------

SWEEP_SAMPLES = 20001
INF = math.inf

# center overrides -> {(side, csv line): (T, R)}; line i holds k = i*pi/(SWEEP_SAMPLES+1)
SWEEPS = {
    "sweep-onsite-2i": (
        ("center.kind=onsite", "center.v=2j"),
        {
            ("left", 1): (2.4676827807931247e-08, 1.000314201874014),
            ("left", 5001): (5.831553506597683, 11.6612754474956),
            ("left", 10001): (INF, INF),
            ("right", 15001): (5.831553506597671, 11.661275447495582),
        },
    ),
    "sweep-dimer-resonant": (
        ("center.kind=dimer", "center.mu=0.5", "center.nu=2.0"),
        {
            ("left", 5001): (4.0, 0.0),
            ("left", 10001): (4.0, 0.0),
            ("right", 15001): (0.25, 0.0),
        },
    ),
    "sweep-dimer-singular": (
        ("center.kind=dimer", "center.mu=-2.0", "center.nu=0.5"),
        {
            ("left", 5001): (0.25007854429929655, 2.0003141771971866),
            ("left", 10001): (INF, INF),
            ("right", 15001): (4.001256708788741, 2.0003141771971853),
            ("right", 20001): (9.867630938532921e-08, 1.0000000246690772),
        },
    ),
    "sweep-interferometer-pi4": (
        ("center.kind=interferometer",),
        {
            ("left", 5001): (4.0, 0.0),
            ("right", 15001): (0.25, 0.0),
        },
    ),
}


def sweep_check(rows: dict) -> Callable[[Path], list[str]]:
    def check(out_dir: Path) -> list[str]:
        tables = {
            side: (out_dir / f"sweep_{side}.csv").read_text().splitlines()
            for side in ("left", "right")
        }
        problems = []
        for (side, line), (t_ref, r_ref) in rows.items():
            cells = tables[side][line].split(",")
            problems += compare(f"T[{side},{line}]", float(cells[5]), t_ref)
            problems += compare(f"R[{side},{line}]", float(cells[6]), r_ref)
        return problems

    return check


def no_check(out_dir: Path) -> list[str]:
    return []


# --- workloads ---------------------------------------------------------------


@dataclass(frozen=True)
class Operation:
    """One scenario run: `--set` overrides on the scenario defaults, plus a gate."""

    name: str
    scenario: str
    overrides: tuple[str, ...] = ()
    check: Callable[[Path], list[str]] = no_check


@dataclass(frozen=True)
class Workload:
    name: str
    warmup: Operation
    make_operations: Callable[[int], list[Operation]]
    # per-layer counters of one traced pass, measured at the commit that added
    # this benchmark; later code may legitimately change them
    baseline_counters: dict = field(default_factory=dict)


def transit_operations(seed: int) -> list[Operation]:
    return [
        Operation("amplify", "amplify", check=metrics_check(AMPLIFY_METRICS)),
        Operation("flux-deviation", "flux-deviation", check=check_flux),
    ]


def singular_operations(seed: int) -> list[Operation]:
    return [Operation("singularity", "singularity", ("time.dt=0.1",), check_singular)]


def absorb_operations(seed: int) -> list[Operation]:
    return [Operation("absorb", "absorb", check=metrics_check(ABSORB_METRICS))]


VERIFY_SEEDS_PER_PASS = 3


def analytics_operations(seed: int) -> list[Operation]:
    rng = random.Random(seed)
    ops = [
        Operation(f"verify-{s}", "verify", (f"seed={s}",))
        for s in (rng.randrange(2**31) for _ in range(VERIFY_SEEDS_PER_PASS))
    ]
    for name, (overrides, rows) in SWEEPS.items():
        ops.append(
            Operation(
                name,
                "sweep",
                overrides + (f"sweep.samples={SWEEP_SAMPLES}",),
                sweep_check(rows),
            )
        )
    return ops


def mixed_operations(seed: int) -> list[Operation]:
    return [*transit_operations(seed), *singular_operations(seed), *analytics_operations(seed)]


# The dynamics warm-ups are short runs at the workload's own lattice size, so
# the first expm, the allocator and BLAS are primed at that size without
# raising peak RSS above what the workload itself needs. Their assertions may
# fail (the packets have not arrived yet); only the side effects matter.
AMPLIFY_WARMUP = Operation("warmup", "amplify", ("time.t_max=1.0",))

WORKLOADS = {
    w.name: w
    for w in (
        # packet transits through 4 distinct Hamiltonians with no propagator
        # reuse inside a Propagator; dense expm is about 70% of the time
        Workload(
            "transit",
            AMPLIFY_WARMUP,
            transit_operations,
            {
                "dynamics.expm.calls": 14,
                "dynamics.expm.per_hamiltonian": 3.5,
                "dynamics.propagate.steps": 980,
                "dynamics.density.steps": 0,
            },
        ),
        # 4 states, 701 frames on one mu*nu=-1 Hamiltonian: propagator reuse,
        # matvec stepping, frames.csv output (about half the time) and the
        # float-keyed step cache; a faster propagator must hold here
        Workload(
            "singular-fine",
            AMPLIFY_WARMUP,
            singular_operations,
            {
                "dynamics.expm.calls": 11,
                "dynamics.expm.per_hamiltonian": 11.0,
                "dynamics.propagate.steps": 2800,
                "dynamics.density.steps": 0,
            },
        ),
        # N=422 density evolution U rho U^dag for 3 nu values and a Hermitian
        # control, the only user of density_profile_series
        Workload(
            "absorb",
            Operation(
                "warmup",
                "absorb",
                ("absorb.nu_values=0.5, 0.4", "absorb.t_max=50.0", "absorb.dt=50.0"),
            ),
            absorb_operations,
            {
                "dynamics.expm.calls": 4,
                "dynamics.expm.per_hamiltonian": 1.0,
                "dynamics.propagate.steps": 0,
                "dynamics.density.steps": 320,
            },
        ),
        # the only workload that measures scattering and transforms, and the
        # one an expm change should leave alone; the only one --seed varies,
        # since the dynamics assertions are calibrated to the scenario defaults
        Workload(
            "analytics",
            Operation("warmup", "verify"),
            analytics_operations,
            {
                "dynamics.expm.calls": 0,
                "dynamics.propagate.steps": 0,
                "dynamics.density.steps": 0,
            },
        ),
        # transit, singular-fine and analytics in one pass of about 24 s, so a
        # run of two passes measures every layer but the density path over
        # about 45 s, enough to steady it on a shared host
        Workload(
            "mixed",
            AMPLIFY_WARMUP,
            mixed_operations,
            {
                "dynamics.expm.calls": 25,
                "dynamics.expm.per_hamiltonian": 5.0,
                "dynamics.propagate.steps": 3780,
                "dynamics.density.steps": 0,
            },
        ),
    )
}
