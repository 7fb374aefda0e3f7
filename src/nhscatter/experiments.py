"""Named, reproducible experiment scenarios with INI configs and data outputs.

Each run writes one output directory containing a config snapshot, the data
files of the scenario, and a manifest (JSON) listing every built-in assertion
with its measured value and threshold. Identical configs produce bit-identical
data files: floats are written via repr (CSV, JSON) or as raw float64 (.npy
frames), and nothing time-dependent enters the data files.
"""

import configparser
import copy
import dataclasses
import json
import math
import time
import typing
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from io import StringIO
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import (
    BandedOperator,
    Propagator,
    WavePacketSpec,
    antisym_two_packets,
    check_boundaries,
    gaussian_packet,
    mixed_state_uniform,
    seed_state,
    split_probability,
    transit_metrics,
    write_frames,
    write_frames_axes,
    write_metrics_txt,
)
from .lattice import (
    BAND_OFFSETS,
    DIMER_REDUCTION_PHI,
    AsymmetricDimer,
    CenterSpec,
    HamiltonianMatrix,
    Interferometer,
    LatticeSpec,
    OnSitePotential,
    as_dimer,
    build_hamiltonian,
    dimer_from_interferometer,
    site_order,
)
from .scattering import (
    LEFT,
    RIGHT,
    amplitude_table,
    quotient,
    scattering_residuals,
    singular_wavefunction,
    sweep_rows,
    write_sweep_csv,
)
from .transforms import (
    ALPHA_BETA_BLOCK,
    _block_times,
    _fsum,
    alpha_beta_rotation,
    biorthogonal_scale,
    charpoly_deviation,
    charpoly_deviations,
    parity_decompose,
)

class ConfigError(ValueError):
    """Scenario configuration is invalid or physically inconsistent."""


@contextmanager
def _config_values():
    """Report the ValueError of a spec built from config values (a lattice,
    a center, a packet), which refuses those values, as a ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


@dataclass
class CenterConfig:
    kind: str = "interferometer"  # onsite | interferometer | dimer
    delta: float = -1.25
    gamma: float = 0.75
    v: complex = 0j
    mu: float = 0.5
    nu: float = 2.0

    def to_center(self) -> CenterSpec:
        with _config_values():
            if self.kind == "onsite":
                return OnSitePotential(self.v)
            if self.kind == "interferometer":
                return Interferometer(self.delta, self.gamma, DIMER_REDUCTION_PHI)
            if self.kind == "dimer":
                return AsymmetricDimer(self.mu, self.nu)
        raise ConfigError(f"unknown center kind {self.kind!r}")


@dataclass
class LatticeConfig:
    left_len: int = 400
    right_len: int = 400

    def to_lattice(self) -> LatticeSpec:
        with _config_values():
            return LatticeSpec(self.left_len, self.right_len)


@dataclass
class PacketConfig:
    site: int = -60
    k0: float = math.pi / 2
    lam: float = 0.15
    pair_site: int = 60  # +-offset of the counter-propagating pair


#: Most points a time grid or a sweep may hold: larger grids are refused
#: before any array is allocated (frames take 8 N bytes per time).
MAX_GRID_POINTS = 10**7


@dataclass
class TimeConfig:
    """Time grid 0, dt, 2 dt, ..., n dt, where n dt is the last multiple of dt
    not past t_max: n = floor(t_max / dt + 1e-9), so a t_max that is a
    multiple of dt up to round-off (0.3 with dt = 0.1) keeps its last point."""

    t_max: float = 70.0
    dt: float = 1.0

    def times(self) -> np.ndarray:
        if not (0 < self.dt <= self.t_max and math.isfinite(self.t_max / self.dt)):
            raise ConfigError("need finite dt > 0 and t_max >= dt")
        n = math.floor(self.t_max / self.dt + 1e-9)
        if n >= MAX_GRID_POINTS:
            raise ConfigError(
                f"time grid t_max={self.t_max!r}, dt={self.dt!r} holds {n + 1} points, "
                f"more than {MAX_GRID_POINTS}"
            )
        return np.arange(0, n + 1, dtype=float) * self.dt


@dataclass
class SweepConfig:
    samples: int = 63  # interior grid i*pi/(samples+1); odd count includes pi/2


@dataclass
class FluxConfig:
    deviations: tuple[int, ...] = (0, 5, 10)  # multiples of pi/100
    k0_values: tuple[float, ...] = (math.pi / 3, math.pi / 2.5, math.pi / 2)


@dataclass
class SingularityConfig:
    fit_start: float = 20.0
    fit_end: float = 70.0
    emission_fit_start: float = 45.0  # single-packet case: after the transit


@dataclass
class AbsorbConfig:
    nu_values: tuple[float, ...] = (0.5, 0.4, 0.1)
    t_max: float = 200.0
    dt: float = 2.0
    drop_time: float = 50.0


@dataclass
class ScenarioConfig:
    scenario: str = "verify"
    out_dir: str = "runs/verify"
    seed: int = 0  # draws verify's random scattering states; no other scenario takes it
    center: CenterConfig = field(default_factory=CenterConfig)
    lattice: LatticeConfig = field(default_factory=LatticeConfig)
    packet: PacketConfig = field(default_factory=PacketConfig)
    time: TimeConfig = field(default_factory=TimeConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    flux: FluxConfig = field(default_factory=FluxConfig)
    singularity: SingularityConfig = field(default_factory=SingularityConfig)
    absorb: AbsorbConfig = field(default_factory=AbsorbConfig)


_FIELDS = dataclasses.fields(ScenarioConfig)
#: "section.name", or "name" for a top-level key -> its type, for every key
_TYPES = {f.name: f.type for f in _FIELDS if not dataclasses.is_dataclass(f.type)} | {
    f"{f.name}.{g.name}": g.type
    for f in _FIELDS
    if dataclasses.is_dataclass(f.type)
    for g in dataclasses.fields(f.type)
}


def _keys(scenario: str) -> dict:
    """key -> type of each key `scenario` takes, in field order: "scenario",
    "out_dir" and the keys its SCENARIO_TABLE entry lists."""
    if scenario not in SCENARIO_TABLE:
        raise ConfigError(f"unknown scenario {scenario!r}; choose from {SCENARIOS}")
    entries = ("scenario", "out_dir", *SCENARIO_TABLE[scenario].keys)
    return {k: t for k, t in _TYPES.items() if k in entries or k.partition(".")[0] in entries}


def default_config(scenario: str) -> ScenarioConfig:
    _keys(scenario)  # refuses an unknown scenario
    base = ScenarioConfig(scenario=scenario, out_dir=f"runs/{scenario}")
    return apply_overrides(base, SCENARIO_TABLE[scenario].defaults)


# --- config text format -----------------------------------------------------


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(float(value))  # exact round-trip; also flattens numpy scalars
    if isinstance(value, complex):
        return repr(complex(value))
    if isinstance(value, (np.floating, np.integer)):
        return repr(value.item())
    return str(value)


def _parse_value(text: str, ftype):
    text = text.strip()
    if typing.get_origin(ftype) is tuple:
        inner = typing.get_args(ftype)[0]
        if not text:
            return ()
        return tuple(_parse_value(tok, inner) for tok in text.split(","))
    if ftype is complex:
        text = text.replace(" ", "")
    return ftype(text)  # int, float, complex or str


def to_ini(config: ScenarioConfig) -> str:
    """The keys the config's scenario takes, top-level ones under [scenario]."""
    sections = {}
    for key in _keys(config.scenario):
        section, _, name = key.rpartition(".")
        owner = getattr(config, section) if section else config
        sections.setdefault(section or "scenario", {})[name] = _format_value(getattr(owner, name))
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict(sections)
    buf = StringIO()
    parser.write(buf)
    return buf.getvalue()


def from_ini(text: str, base: ScenarioConfig | None = None) -> ScenarioConfig:
    """Parse an INI config: each "[section] key = value" is applied as the
    override "section.key=value" ("key=value" under [scenario])."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        # some of these messages span lines; the CLI reports errors on one
        raise ConfigError(f"malformed INI: {' '.join(str(exc).split())}") from None
    if base is None:
        base = default_config(parser.get("scenario", "scenario", fallback=ScenarioConfig.scenario))
    return apply_overrides(
        base,
        [
            f"{key}={raw}" if section == "scenario" else f"{section}.{key}={raw}"
            for section in parser.sections()
            for key, raw in parser.items(section)
        ],
    )


def load_config(path, base: ScenarioConfig | None = None) -> ScenarioConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {str(path)!r}: {exc}") from None
    return from_ini(text, base=base)


def apply_overrides(config: ScenarioConfig, assignments) -> ScenarioConfig:
    """Apply "section.key=value" (or "key=value" for a top-level key) for
    keys the config's scenario takes; any other key, and a "scenario=" that
    names another scenario, is refused."""
    config = copy.deepcopy(config)
    keys = _keys(config.scenario)
    for item in assignments:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, raw = item.split("=", 1)
        key = key.strip()
        if key not in keys:
            raise ConfigError(f"scenario {config.scenario!r} takes no key {key!r}")
        try:
            value = _parse_value(raw, keys[key])
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {exc}") from None
        if key == "scenario" and value != config.scenario:
            raise ConfigError(f"config names scenario {value!r}, not {config.scenario!r}")
        section, _, name = key.rpartition(".")
        setattr(getattr(config, section) if section else config, name, value)
    return config


# --- manifests ---------------------------------------------------------------


@dataclass
class AssertionResult:
    name: str
    passed: bool
    measured: str
    threshold: str
    detail: str = ""


@dataclass
class RunManifest:
    scenario: str
    code_version: str
    duration_s: float
    config_text: str
    outputs: list
    assertions: list

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def to_json(self) -> str:
        payload = {
            "scenario": self.scenario,
            "code_version": self.code_version,
            "duration_s": self.duration_s,
            "passed": self.passed,
            "outputs": list(self.outputs),
            "assertions": [dataclasses.asdict(a) for a in self.assertions],
            "config": self.config_text,
        }
        return json.dumps(payload, indent=2)


def _check(name, passed, measured, threshold, detail="") -> AssertionResult:
    # _format_value passes a measured string through as it is
    return AssertionResult(name, bool(passed), _format_value(measured), threshold, detail)


def _le(name, measured, bound, detail="") -> AssertionResult:
    return _check(name, measured <= bound, measured, f"<= {_format_value(bound)}", detail)


# --- scenario runners --------------------------------------------------------


def run_scenario(config: ScenarioConfig) -> RunManifest:
    """Execute one scenario, writing outputs and exactly one manifest. This is
    the one error boundary of the scenario layer: a `MemoryError` (a config
    too large to hold) and an `OSError` from the output directory or a file
    written into it leave as `ConfigError`. A runner reports a value it
    refuses as `ConfigError` itself, and so do the specs built from config
    values (`_config_values`); any other exception is a fault of the program
    and leaves as it is."""
    _keys(config.scenario)  # refuses an unknown scenario
    if not config.out_dir.strip():
        raise ConfigError("out_dir is empty; name an output directory")
    out_dir = Path(config.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        # a directory without a manifest holds no finished run
        (out_dir / "manifest.json").unlink(missing_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use output directory {str(out_dir)!r}: {exc}") from None
    started = time.perf_counter()
    try:
        outputs, assertions = SCENARIO_TABLE[config.scenario].run(config, out_dir)
        duration = time.perf_counter() - started
        config_text = to_ini(config)
        (out_dir / "config.ini").write_text(config_text)
        manifest = RunManifest(
            scenario=config.scenario,
            code_version=__version__,
            duration_s=duration,
            config_text=config_text,
            outputs=sorted(outputs + ["config.ini", "manifest.json"]),
            assertions=assertions,
        )
        (out_dir / "manifest.json").write_text(manifest.to_json())
    except MemoryError as exc:
        raise ConfigError(f"the run does not fit in memory: {exc}") from None
    except OSError as exc:
        path = str(exc.filename or out_dir)  # a failed write() names no file
        raise ConfigError(f"cannot write output file {path!r}: {exc.strerror or exc}") from None
    return manifest


def _is_hermitian_center(center: CenterSpec) -> bool:
    """max|H - H^dag| < 1e-14, read off the spec: only the center's entries
    break Hermiticity, by 2|Im v| on site, 2|gamma| in an interferometer and
    |mu - nu| in a dimer."""
    if isinstance(center, OnSitePotential):
        return 2.0 * abs(center.v.imag) < 1e-14
    if isinstance(center, Interferometer):
        return 2.0 * abs(center.gamma) < 1e-14
    return abs(center.mu - center.nu) < 1e-14


def _run_sweep(config: ScenarioConfig, out_dir: Path):
    center = config.center.to_center()
    n = config.sweep.samples
    if not 1 <= n <= MAX_GRID_POINTS:
        raise ConfigError(f"sweep.samples must lie in 1..{MAX_GRID_POINTS}, got {n}")
    ks = np.arange(1, n + 1) * math.pi / (n + 1)
    left, right = sweep_rows(center, ks, LEFT), sweep_rows(center, ks, RIGHT)
    write_sweep_csv({out_dir / "sweep_left.csv": left, out_dir / "sweep_right.csv": right})
    outputs = ["sweep_left.csv", "sweep_right.csv"]

    flags = np.concatenate([left.diverges, right.diverges])
    T, R = np.concatenate([left.T, right.T]), np.concatenate([left.R, right.R])
    assertions = [
        _check(
            "amplitudes_finite_or_flagged",
            np.all(flags | (np.isfinite(T) & np.isfinite(R))),
            f"{np.count_nonzero(flags)} flagged rows",
            "all rows finite unless divergence-flagged",
        )
    ]
    if _is_hermitian_center(center):
        assertions.append(_le("hermitian_unitarity", np.max(np.abs(T + R - 1.0)), 1e-12))
    # flux is no key, so only an on-site center has no dimer reduction
    dimer = None if isinstance(center, OnSitePotential) else as_dimer(center)
    if dimer is not None and dimer.is_resonant():
        r = np.concatenate([left.r, right.r])
        assertions.append(_le("resonant_reflectionless", np.max(np.hypot(r.real, r.imag)), 1e-14))
    if dimer is not None and dimer.is_singular():
        at_half = np.abs(left.k - math.pi / 2) < 1e-12
        assertions.append(
            _check(
                "singular_momentum_flagged",
                at_half.any() and left.diverges[at_half].all(),
                f"{np.count_nonzero(at_half)} rows at pi/2",
                "k=pi/2 rows carry the divergence flag",
            )
        )
    return outputs, assertions


def _dimer_on_locus(center: CenterSpec, product: int) -> AsymmetricDimer:
    """The dimer `center` is or reduces to, required on the locus
    mu*nu = product: +1 (`is_resonant`) or -1 (`is_singular`)."""
    dimer = as_dimer(center)
    if not (dimer.is_resonant() if product == 1 else dimer.is_singular()):
        raise ConfigError(
            f"scenario requires mu*nu = {product}; got mu*nu = {dimer.product!r}"
        )
    return dimer


def _require_distinct(name: str, values) -> None:
    if len(set(values)) != len(values):
        raise ConfigError(f"{name} lists a value more than once: {values!r}")


#: Reference center of the transit runners: the uniform chain.
_UNIFORM_CHAIN = AsymmetricDimer(1.0, 1.0)


def _stream_frames(
    ham: HamiltonianMatrix, start: np.ndarray, times: np.ndarray, paths=(), split=False
):
    """Step the N x r block ``start`` of cases that share ``ham`` to each time
    and consume its frames row by row, as Propagator.frame_rows produces them,
    so no T x r x N array is held: case j's T x N frames go to paths[j] when
    paths are given, and what is kept grows as T r, not T r N. Each case then
    goes through check_boundaries, in column order, the one boundary guard of
    the streamed runs. Returns (first, last, sums): the first and last r x N
    rows and, with ``split``, the 3 x T x r (left lead, center, right lead)
    sums of split_probability (else None)."""
    rows = Propagator(ham).frame_rows(start, times)
    first = next(rows)
    ends = np.empty((first.shape[0], times.size, 2))
    sums = np.empty((3, times.size, first.shape[0])) if split else None
    with ExitStack() as stack:
        files = [stack.enter_context(write_frames(path, (times.size, ham.dim))) for path in paths]
        for i, row in enumerate(chain([first], rows)):
            ends[:, i] = row[:, [0, -1]]
            if split:
                sums[:, i] = split_probability(row, ham.center_span)
            for fh, frame in zip(files, row):
                fh.write(frame)
    for case_ends in ends:
        check_boundaries(case_ends)
    return first, row, sums


def _packet_runs(config, center, k0s, paths=()):
    """Send the configured packet at each momentum of k0s through `center`, as
    one streamed block (_stream_frames), the run at k0s[j] writing its frames
    to paths[j] when paths are given. Returns (H, firsts, lasts): row j of each
    is run j's first or last frame, the two that transit_metrics reads.
    `_UNIFORM_CHAIN` as the center gives the reference runs."""
    for k0 in k0s:
        if not 0.0 < k0 < math.pi:
            raise ConfigError(f"packet momentum must lie in (0, pi), got k0={k0!r}")
    lattice = config.lattice.to_lattice()
    ham = build_hamiltonian(center, lattice)
    with _config_values():
        specs = [WavePacketSpec(config.packet.site, k0, config.packet.lam) for k0 in k0s]
        packets = [gaussian_packet(lattice, spec, center) for spec in specs]
    first, last, _ = _stream_frames(ham, np.column_stack(packets), config.time.times(), paths)
    return ham, first, last


def _run_amplify(config: ScenarioConfig, out_dir: Path):
    if config.center.kind not in ("interferometer", "dimer"):
        raise ConfigError(
            f"amplify takes center.kind 'interferometer' or 'dimer', got {config.center.kind!r}"
        )
    center = config.center.to_center()
    dimer = _dimer_on_locus(center, 1)
    k0s = [config.packet.k0]
    ham, (first,), (last,) = _packet_runs(config, center, k0s, [out_dir / "frames.npy"])
    _, _, (ref,) = _packet_runs(config, _UNIFORM_CHAIN, k0s, [out_dir / "frames_reference.npy"])
    metrics = transit_metrics(first, last, ref, ham.center_span)
    write_frames_axes(out_dir / "frames_axes.json", config.time.times(), ham.lattice, ham.center)
    expected = dimer.nu**2
    record = dict(dataclasses.asdict(metrics), expected_gain=expected)
    write_metrics_txt(out_dir / "metrics.txt", record)

    assertions = [
        _le(
            "gain_matches_nu_squared",
            abs(metrics.gain - expected) / expected,
            0.05,
            detail=f"gain={metrics.gain!r} expected={expected!r}",
        ),
        _le("reflection_negligible", metrics.reflected, 1e-3),
        _le("distortion_free", metrics.distortion, 1e-2),
    ]
    outputs = ["frames.npy", "frames_reference.npy", "frames_axes.json", "metrics.txt"]
    return outputs, assertions


def _run_flux_deviation(config: ScenarioConfig, out_dir: Path):
    delta, gamma = config.center.delta, config.center.gamma
    with _config_values():
        _dimer_on_locus(Interferometer(delta, gamma, DIMER_REDUCTION_PHI), 1)
    if any(d < 0 for d in config.flux.deviations) or 0 not in config.flux.deviations:
        raise ConfigError("flux deviations must include 0 and be non-negative")
    if max(config.flux.deviations) == 0 or len(config.flux.k0_values) < 2:
        # with no nonzero deviation or a single k0 the comparisons are empty
        raise ConfigError(
            "flux-deviation needs a positive deviation and at least two k0 values"
        )
    _require_distinct("flux.deviations", config.flux.deviations)
    _require_distinct("flux.k0_values", config.flux.k0_values)
    labels = [f"{k0:.6g}" for k0 in config.flux.k0_values]
    if len(set(labels)) != len(labels):
        raise ConfigError(
            "flux.k0_values must differ within 6 significant digits, "
            f"which name their assertions: {labels}"
        )
    step = math.pi / 100
    try:
        fluxes = {d: DIMER_REDUCTION_PHI + d * step for d in sorted(config.flux.deviations)}
    except OverflowError:
        raise ConfigError("flux.deviations: flux pi/4 + d*pi/100 is not a finite float") from None
    devs = list(fluxes)
    k0s = config.flux.k0_values
    runs = {}
    for dev, phi in fluxes.items():  # before the references, so a deviation run aborts first
        runs[dev] = _packet_runs(config, Interferometer(delta, gamma, phi), k0s)
    _, _, refs = _packet_runs(config, _UNIFORM_CHAIN, k0s)
    table = {
        (k0, dev): transit_metrics(firsts[j], lasts[j], refs[j], ham.center_span)
        for dev, (ham, firsts, lasts) in runs.items()
        for j, k0 in enumerate(k0s)
    }

    with open(out_dir / "distortion.csv", "w") as fh:
        fh.write("k0,deviation,gain,distortion\n")
        for (k0, dev), m in sorted(table.items()):
            fh.write(f"{k0!r},{dev},{m.gain!r},{m.distortion!r}\n")

    assertions = []
    for k0 in config.flux.k0_values:
        base = table[(k0, 0)].distortion
        others = [table[(k0, d)].distortion for d in devs[1:]]
        assertions.append(
            _check(
                f"distortion_minimized_at_zero[k0={k0:.6g}]",
                all(base < d for d in others),
                base,
                "below all nonzero-deviation distortions",
                detail=f"nonzero: {[float(f'{d:.6g}') for d in others]}",
            )
        )
    k_half = [k for k in config.flux.k0_values if abs(k - math.pi / 2) < 1e-12]
    if k_half:
        for dev in devs[1:]:  # devs[0] == 0
            half = table[(k_half[0], dev)].distortion
            rest = [
                table[(k0, dev)].distortion
                for k0 in config.flux.k0_values
                if k0 not in k_half
            ]
            assertions.append(
                _check(
                    f"half_pi_least_distorted[dev={dev}]",
                    all(half < d for d in rest),
                    half,
                    "below all other k0 at this deviation",
                    detail=f"others: {[float(f'{d:.6g}') for d in rest]}",
                )
            )
    return ["distortion.csv"], assertions


#: r^2 above which a singularity-run series counts as linear growth
_LINEAR_R2 = 0.99


def _linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares line (slope, r_squared) in closed form from the deviations
    dx, dy from the means: slope = sum dx dy / sum dx^2, r^2 = 1 - sum (dy -
    slope dx)^2 / sum dy^2, each sum correctly rounded (_fsum), with no BLAS."""
    dx = x - _fsum(x) / x.size
    dy = y - _fsum(y) / y.size
    slope = _fsum(dx * dy) / _fsum(dx * dx)
    ss_tot = _fsum(dy * dy)
    r2 = 1.0 if ss_tot == 0 else 1.0 - _fsum(np.square(dy - slope * dx)) / ss_tot
    return slope, r2


def _run_singularity(config: ScenarioConfig, out_dir: Path):
    with _config_values():
        center = _dimer_on_locus(AsymmetricDimer(config.center.mu, config.center.nu), -1)
    times = config.time.times()
    sing = config.singularity
    # line-fit windows; with 2 points r^2 = 1 whatever the data
    window = (times >= sing.fit_start) & (times <= sing.fit_end)
    late = (times >= sing.emission_fit_start) & (times <= sing.fit_end)
    for name, mask in (("fit_start", window), ("emission_fit_start", late)):
        if np.count_nonzero(mask) < 3:
            raise ConfigError(
                f"singularity.{name}={getattr(sing, name)!r} .. fit_end={sing.fit_end!r} "
                f"holds fewer than 3 grid times at dt={config.time.dt!r}"
            )
    lattice = config.lattice.to_lattice()
    ham = build_hamiltonian(center, lattice)
    nu_mag = abs(center.nu)

    p = config.packet
    with _config_values():
        single = gaussian_packet(lattice, WavePacketSpec(p.site, p.k0, p.lam), center)
        pair = antisym_two_packets(lattice, p.pair_site, p.k0, p.lam, center.nu, center)
    cases = {
        "seed_plus": seed_state(lattice, center, +1),
        "seed_minus": seed_state(lattice, center, -1),
        "packet": single,
        "pair": pair,
    }

    # the cases share H, so they step as one block, streamed to one file each
    outputs = [f"frames_{name}.npy" for name in cases]
    start = np.column_stack(list(cases.values()))
    paths = [out_dir / fname for fname in outputs]
    _, _, (left, mid, right) = _stream_frames(ham, start, times, paths, split=True)
    total = left + mid + right
    with open(out_dir / "series.csv", "w") as series_fh:
        series_fh.write("case,t,P_left,P_center,P_right,P_total\n")
        for j, name in enumerate(cases):
            for t, l, c, r, p in zip(times, left[:, j], mid[:, j], right[:, j], total[:, j]):
                series_fh.write(
                    f"{name},{float(t)!r},{float(l)!r},{float(c)!r},"
                    f"{float(r)!r},{float(p)!r}\n"
                )

    # columns in case order: seed_plus 0, seed_minus 1, packet 2, pair 3
    plus, minus, _, pair = total.T
    slope_p, r2_p = _linear_fit(times[window], plus[window])
    slope_l, _ = _linear_fit(times[window], left[window, 0])
    slope_r, _ = _linear_fit(times[window], right[window, 0])
    ratio = math.sqrt(max(slope_r, 0.0) / slope_l)
    refl_slope, refl_r2 = _linear_fit(times[late], left[late, 2])
    trans_slope, trans_r2 = _linear_fit(times[late], right[late, 2])
    t_idx = int(np.searchsorted(times, sing.fit_start))
    metrics = dict(
        seed_plus_growth_slope=slope_p,
        seed_plus_growth_r2=r2_p,
        seed_plus_emission_ratio=ratio,
        seed_minus_peak=float(minus.max()),
        seed_minus_final=minus[-1],
        packet_reflected_slope=refl_slope,
        packet_reflected_r2=refl_r2,
        packet_transmitted_slope=trans_slope,
        packet_transmitted_r2=trans_r2,
        pair_initial=pair[0],
        pair_final=pair[-1],
    )
    assertions = [
        _check("seed_plus_linear_growth", r2_p > _LINEAR_R2, r2_p, f"> {_LINEAR_R2!r}"),
        _le(
            "seed_plus_emission_ratio",
            abs(ratio - nu_mag) / nu_mag,
            0.02,
            detail=f"ratio={ratio!r} nu={nu_mag!r}",
        ),
        _le("seed_minus_bounded", float(minus.max()), minus[0] * (1 + 1e-9)),
        _le(
            "seed_minus_decays",
            minus[-1],
            0.4 * minus[0],
            detail=f"P(0)={_format_value(minus[0])}",
        ),
        _le(
            "seed_minus_no_regrowth",
            minus[-1],
            minus[t_idx] + 1e-9,
            detail=f"P({times[t_idx]})={_format_value(minus[t_idx])}",
        ),
        _check(
            "packet_reflected_linear_growth",
            refl_r2 > _LINEAR_R2 and refl_slope > 0,
            refl_r2,
            f"> {_LINEAR_R2!r} with positive slope",
        ),
        _check(
            "packet_transmitted_linear_growth",
            trans_r2 > _LINEAR_R2 and trans_slope > 0,
            trans_r2,
            f"> {_LINEAR_R2!r} with positive slope",
        ),
        _le(
            "pair_fully_absorbed",
            pair[-1] / pair[0],
            0.02,
            detail=f"P(0)={_format_value(pair[0])} P(end)={_format_value(pair[-1])}",
        ),
    ]
    write_frames_axes(out_dir / "frames_axes.json", times, lattice, center)
    write_metrics_txt(out_dir / "metrics.txt", metrics)
    outputs += ["frames_axes.json", "series.csv", "metrics.txt"]
    return outputs, assertions


def _run_absorb(config: ScenarioConfig, out_dir: Path):
    ab = config.absorb
    if not all(nu > 0 for nu in ab.nu_values) or len(ab.nu_values) < 2:  # NaN too
        raise ConfigError("absorb.nu_values must be at least two positive values")
    _require_distinct("absorb.nu_values", ab.nu_values)
    with _config_values():
        dimers = {nu: AsymmetricDimer(1.0 / nu, nu) for nu in ab.nu_values}
    lattice = config.lattice.to_lattice()
    n0 = lattice.left_len  # the mixture fills the left lead, -n0..-1
    for nu in ab.nu_values:  # nu^2 scales H_nu's bands and P_nu's right-lead sum below
        if not (nu * nu > 0.0 and max(1.0 / (nu * nu), nu * nu * n0) < math.inf):
            raise ConfigError(f"absorb.nu_values: nu^2, 1/nu^2 or nu^2 n0 (n0={n0}) is no "
                              f"finite nonzero float at nu={nu!r}")
    times = TimeConfig(t_max=ab.t_max, dt=ab.dt).times()
    # no boundary guard, as the mixture fills the left end (a hard wall): the
    # right lead must outlast the fastest wave (group velocity 2) instead
    if 2.0 * times[-1] > lattice.right_len:
        raise ConfigError(
            f"absorb runs to t = {float(times[-1])!r}, so lattice.right_len must be at "
            f"least 2 t = {2.0 * float(times[-1])!r}, got {lattice.right_len}"
        )
    # the last grid time, not t_max: the grid can end below t_max
    if not 0.0 < ab.drop_time <= times[-1]:
        raise ConfigError(
            f"absorb.drop_time must lie in (0, {float(times[-1])!r}], got {ab.drop_time!r}"
        )

    # each dimer (1/nu, nu) is the uniform chain H0 under the diagonal similarity
    # S = 1 up to alpha, nu from beta on: H_nu = S H0 S^-1 (the imaginary gauge of
    # Hatano & Nelson, PRL 77, 570). The mixture lies where S = 1, so psi_nu(t) =
    # S psi_0(t), and one propagation of H0 gives every P_nu(t) = (left + nu^2
    # right) / n0 from each row's sums before beta and from beta on
    uniform = build_hamiltonian(_UNIFORM_CHAIN, lattice)
    beta = uniform.center_span[1] - 1
    rows = Propagator(uniform).frame_rows(mixed_state_uniform(lattice, _UNIFORM_CHAIN, n0), times)
    left, right = np.array([(row[:, :beta].sum(), row[:, beta:].sum()) for row in rows]).T
    totals = {nu: (left + nu * nu * right) / n0 for nu in ab.nu_values}
    with open(out_dir / "ptotal.csv", "w") as fh:
        fh.write("nu,t,P\n")
        for nu, p in totals.items():
            for t, value in zip(times, p):
                fh.write(f"{nu!r},{float(t)!r},{float(value)!r}\n")

    assertions = []
    for nu, dimer in dimers.items():  # the similarity: H_nu scales back to H0 on its bands
        scaled = biorthogonal_scale(build_hamiltonian(dimer, lattice))
        gap = float(np.max(np.abs(scaled.bands - uniform.bands)))
        assertions.append(_le(f"scales_to_uniform_chain[nu={nu!r}]", gap, 1e-15))
    drop_idx = int(np.searchsorted(times, ab.drop_time))
    for nu in ab.nu_values:
        ratio = totals[nu][drop_idx] / totals[nu][0]
        detail = f"P({times[drop_idx]}) / P(0)"
        assertions.append(_le(f"rapid_drop[nu={nu!r}]", ratio, 0.5, detail=detail))
    by_inv = sorted(ab.nu_values, key=lambda nu: 1.0 / nu)
    finals = [totals[nu][-1] for nu in by_inv]
    assertions.append(
        _check(
            "final_probability_decreasing_in_inverse_nu",
            all(a > b for a, b in zip(finals, finals[1:])),
            ", ".join(f"{nu!r}: {totals[nu][-1]:.5f}" for nu in by_inv),
            "strictly decreasing P(t_max) as 1/nu grows",
        )
    )
    smallest = min(ab.nu_values)
    assertions.append(_le(f"near_perfect_absorption[nu={smallest!r}]", totals[smallest][-1], 0.05))

    # the closed Hermitian control, nu = 1: nothing decays without the center
    control_dev = float(np.max(np.abs((left + right) / n0 - 1.0)))
    assertions.append(_le("hermitian_control_conserves", control_dev, 1e-9))

    metrics = {f"final_P[nu={nu!r}]": totals[nu][-1] for nu in ab.nu_values}
    metrics["hermitian_control_max_dev"] = control_dev
    write_metrics_txt(out_dir / "metrics.txt", metrics)
    return ["ptotal.csv", "metrics.txt"], assertions


def _anti_hermitian_norm(bands) -> float:
    """Frobenius norm of H - H^dag from H's bands: H^dag[i, i + k] =
    conj(H[i + k, i]) is diagonal -k moved by k (what rolls in from outside
    the matrix is zero)."""
    adjoint = np.array([np.roll(b, -k) for b, k in zip(bands[::-1], BAND_OFFSETS)])
    return math.sqrt(_fsum(np.square((bands - adjoint.conj()).view(float))))


def _scattering_state_residual(seed: int) -> float:
    """Worst residual (scattering_residuals) of verify's scattering states,
    drawn from ``seed``: 20 dimers, incident from the left and the right in
    turn, and 10 on-site potentials, at random k, each at least 0.05 off its
    pole. All 30 are drawn first, then checked by one stacked product."""
    rng = np.random.default_rng(seed)
    lattice = LatticeSpec(100, 100)
    cases = []
    while len(cases) < 20:
        mu, nu = rng.uniform(-2.5, 2.5, size=2)
        k = rng.uniform(0.2, math.pi - 0.2)
        if abs(mu * nu + 1.0) >= 0.05:
            cases.append((AsymmetricDimer(mu, nu), lattice, k, RIGHT if len(cases) % 2 else LEFT))
    while len(cases) < 30:
        v = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        k = rng.uniform(0.2, math.pi - 0.2)
        if abs(2j * math.sin(k) - v) >= 0.05:
            cases.append((OnSitePotential(v), lattice, k, LEFT))
    return float(scattering_residuals(cases).max())


def _run_verify(config: ScenarioConfig, out_dir: Path):
    if config.seed < 0:  # np.random.default_rng refuses it
        raise ConfigError(f"seed must be a non-negative integer, got seed={config.seed!r}")
    assertions = []

    # rotation: interferometer -> dimer equality and unitarity
    pairs = [(-1.25, 0.75), (0.75, 1.25), (0.4, -0.9)]
    worst_eq = 0.0
    lattice = LatticeSpec(10, 10)
    for delta, gamma in pairs:
        ham = build_hamiltonian(Interferometer(delta, gamma, DIMER_REDUCTION_PHI), lattice)
        rotated = alpha_beta_rotation(ham)
        target = build_hamiltonian(dimer_from_interferometer(delta, gamma), lattice)
        worst_eq = max(worst_eq, float(np.abs(rotated.bands - target.bands).max()))
    assertions.append(_le("rotation_matches_dimer", worst_eq, 1e-14))
    b = ALPHA_BETA_BLOCK
    unitary_dev = float(np.max(np.abs(_block_times(b.conj().T, b) - np.eye(2))))
    assertions.append(_le("rotation_unitary", unitary_dev, 1e-14))

    # biorthogonal scaling: hermiticity for mu*nu > 0, spectrum always
    worst_herm = 0.0
    spectra = []  # (chain, scaled chain), compared in one recurrence
    for mu, nu in [(0.5, 2.0), (1.5, 0.4), (-1.2, -0.5), (-2.0, 0.5), (0.8, -1.1)]:
        ham = build_hamiltonian(AsymmetricDimer(mu, nu), LatticeSpec(40, 40))
        scaled = biorthogonal_scale(ham)
        if mu * nu > 0:
            worst_herm = max(worst_herm, _anti_hermitian_norm(scaled.bands))
        spectra.append(([ham.bands], [scaled.bands]))
    worst_spec = float(charpoly_deviations(spectra).max())
    assertions.append(_le("scaling_hermitian_when_product_positive", worst_herm, 1e-12))
    assertions.append(_le("scaling_preserves_characteristic_polynomial", worst_spec, 1e-10))

    # full chain: rotation then scaling at delta^2 - gamma^2 = 1 is Hermitian
    ham = build_hamiltonian(Interferometer(-1.25, 0.75, DIMER_REDUCTION_PHI), LatticeSpec(40, 40))
    chain = biorthogonal_scale(alpha_beta_rotation(ham))
    assertions.append(_le("resonant_chain_hermitian", _anti_hermitian_norm(chain.bands), 1e-12))

    # parity split at the singularity
    ham = build_hamiltonian(AsymmetricDimer(-2.0, 0.5), LatticeSpec(100, 100))
    scaled = biorthogonal_scale(ham)
    blocks = parity_decompose(scaled)
    ends = sorted(blocks.end_potentials, key=lambda z: z.imag)
    end_dev = max(abs(ends[0] + 1j), abs(ends[1] - 1j))
    assertions.append(_le("parity_end_potentials_are_plus_minus_i", end_dev, 1e-9))
    assertions.append(_le("parity_cross_coupling", blocks.cross_coupling, 1e-12))
    # against the real unscaled chain, so the check covers scaling and split
    spec_dev = charpoly_deviation([ham.bands], [blocks.plus_bands, blocks.minus_bands])
    assertions.append(_le("parity_blocks_reproduce_characteristic_polynomial", spec_dev, 1e-10))

    worst_res = _scattering_state_residual(config.seed)
    assertions.append(_le("scattering_state_residual", worst_res, 1e-12))

    # each k loop below is one table; |z| is hypot(re, im), as abs() takes it
    # resonance: reflectionless for mu*nu = 1
    ks = np.linspace(0.2, math.pi - 0.2, 9)
    r = np.concatenate(
        [amplitude_table(AsymmetricDimer(mu, 1.0 / mu), ks).r for mu in (0.5, 2.0, -1.25, 3.0)]
    )
    assertions.append(_le("resonance_reflectionless", np.max(np.hypot(r.real, r.imag)), 1e-14))

    # amplification coefficient |t|^2 is k-independent
    gains = amplitude_table(AsymmetricDimer(0.5, 2.0), ks).T
    assertions.append(_le("amplification_k_independent", gains.max() - gains.min(), 1e-12,
                          detail=f"A={gains[0].item()!r}"))

    # Hermitian unitarity battery
    ks = np.linspace(0.1, math.pi - 0.1, 13)
    centers = [dimer_from_interferometer(d, 0.0) for d in (-1.0, -0.3, 0.7, 2.0)]
    centers += [OnSitePotential(v) for v in (-1.5, 0.4, 2.0)]
    tables = [amplitude_table(center, ks) for center in centers]
    worst_u = max(np.max(np.abs(a.T + a.R - 1.0)) for a in tables)
    assertions.append(_le("hermitian_unitarity", worst_u, 1e-12))

    # real-potential sign symmetry; imaginary-potential asymmetry
    worst_sym = max(
        np.max(np.abs(amplitude_table(OnSitePotential(v), ks).T
                      - amplitude_table(OnSitePotential(-v), ks).T))
        for v in (0.3, 1.0, 2.5)
    )
    assertions.append(_le("real_potential_sign_symmetric", worst_sym, 1e-14))
    gain, loss = (amplitude_table(OnSitePotential(v), math.pi / 2).T.item() for v in (1j, -1j))
    asym = abs(gain - loss)
    assertions.append(_check("imaginary_potential_asymmetric", asym > 1e-6, asym, "> 1e-06"))

    # left/right transmission ratio nu/mu off resonance
    worst_ratio = 0.0
    for mu, nu in [(0.7, 1.9), (-1.4, 0.6), (2.2, 0.9)]:
        tl, tr = (amplitude_table(AsymmetricDimer(mu, nu), [0.5, 1.1, 2.0], side).t
                  for side in (LEFT, RIGHT))
        q_re, q_im = quotient(tl.real, tl.imag, tr.real, tr.imag)
        worst_ratio = max(worst_ratio, np.max(np.hypot(q_re - nu / mu, q_im)))
    assertions.append(_le("left_right_transmission_ratio", worst_ratio, 1e-12))

    # analytic fixed points of the imaginary potential
    diverging = amplitude_table(OnSitePotential(2j), math.pi / 2)
    quarter = amplitude_table(OnSitePotential(-2j), math.pi / 2).T.item()
    diverges = diverging.diverges.item()
    flagged = diverges and diverging.T.item() == math.inf
    assertions.append(_check("gain_potential_diverges", flagged, f"diverges={diverges}",
                             "divergence flag at k=pi/2 for v=2i"))
    assertions.append(_le("loss_potential_quarter", abs(quarter - 0.25), 1e-15))

    # singular eigenstate solves the eigenproblem exactly at E = 0
    dimer = AsymmetricDimer(-2.0, 0.5)
    lattice = LatticeSpec(50, 50)
    op = BandedOperator(build_hamiltonian(dimer, lattice).bands)
    worst_swf = 0.0
    for sign in (+1, -1):
        psi = np.array(
            [singular_wavefunction(dimer, sign, s) for s in site_order(dimer, lattice)]
        )
        residual = op.apply(psi, np.empty_like(psi))  # (H - E) psi at E = 0
        worst_swf = max(worst_swf, float(np.max(np.abs(residual[1:-1]))))
    assertions.append(_le("singular_state_residual", worst_swf, 1e-12))

    with open(out_dir / "assertions.txt", "w") as fh:
        for a in assertions:
            status = "pass" if a.passed else "FAIL"
            fh.write(f"{a.name} = {status} (measured {a.measured}, wants {a.threshold})\n")
    return ["assertions.txt"], assertions


@dataclass(frozen=True)
class Scenario:
    """A scenario's runner, its CLI help line, the config keys it takes besides
    "scenario" and "out_dir", as whole sections or single keys, and the
    overrides that give its defaults where they differ from the field defaults."""

    run: typing.Callable
    help: str
    keys: tuple[str, ...]
    defaults: tuple[str, ...] = ()


#: Every scenario, declared once, in the CLI's order. A scenario takes exactly
#: the keys its runner reads, and no other.
SCENARIO_TABLE = {
    "sweep": Scenario(_run_sweep,
                      "tabulate r, t, T, R over momentum for both incidence directions",
                      ("center", "sweep"), ("center.kind=dimer",)),
    "amplify": Scenario(_run_amplify,
                        "send a packet through the resonant center and check gain/shape",
                        ("center.kind", "center.delta", "center.gamma", "center.mu", "center.nu",
                         "lattice", "packet.site", "packet.k0", "packet.lam", "time")),
    "flux-deviation": Scenario(_run_flux_deviation,
                               "distortion versus flux deviation for several packet momenta",
                               ("center.delta", "center.gamma", "lattice", "packet.site",
                                "packet.lam", "time", "flux")),
    # the paper's interferometer (delta, gamma) = (0.75, 1.25) as its dimer
    "singularity": Scenario(_run_singularity,
                            "seed, packet, and matched-pair dynamics at mu*nu = -1",
                            ("center.mu", "center.nu", "lattice", "packet", "time", "singularity"),
                            ("center.mu=-2.0", "center.nu=0.5")),
    "absorb": Scenario(_run_absorb, "incoherent mixed-state decay behind a hard wall",
                       ("lattice", "absorb"), ("lattice.left_len=20",)),
    "verify": Scenario(_run_verify, "run the full transformation/analytics certification battery",
                       ("seed",)),
}
SCENARIOS = tuple(SCENARIO_TABLE)
