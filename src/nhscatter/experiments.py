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
import types
import typing
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import (
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
    DIMER_REDUCTION_PHI,
    AsymmetricDimer,
    CenterSpec,
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
    onsite_amplitudes,
    quotient,
    scattering_residual,
    singular_wavefunction,
    sweep_rows,
    write_sweep_csv,
)
from .transforms import (
    ALPHA_BETA_BLOCK,
    alpha_beta_rotation,
    biorthogonal_scale,
    parity_decompose,
    spectrum_distance,
)

SCENARIOS = ("sweep", "amplify", "flux-deviation", "singularity", "absorb", "verify")


class ConfigError(ValueError):
    """Scenario configuration is invalid or physically inconsistent."""


@dataclass
class CenterConfig:
    kind: str = "interferometer"  # onsite | interferometer | dimer
    delta: float = -1.25
    gamma: float = 0.75
    phi: float = DIMER_REDUCTION_PHI
    v: complex = 0j
    mu: float = 0.5
    nu: float = 2.0

    def to_center(self) -> CenterSpec:
        if self.kind == "onsite":
            return OnSitePotential(self.v)
        if self.kind == "interferometer":
            return Interferometer(self.delta, self.gamma, self.phi)
        if self.kind == "dimer":
            return AsymmetricDimer(self.mu, self.nu)
        raise ConfigError(f"unknown center kind {self.kind!r}")


@dataclass
class LatticeConfig:
    left_len: int = 400
    right_len: int = 400
    hard_wall_n0: int | None = None

    def to_lattice(self) -> LatticeSpec:
        return LatticeSpec(self.left_len, self.right_len, self.hard_wall_n0)


@dataclass
class PacketConfig:
    site: int = -60
    k0: float = math.pi / 2
    lam: float = 0.15
    pair_site: int = 60  # +-offset of the counter-propagating pair


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
    seed: int = 0  # reserved; only the verify battery draws random parameters
    center: CenterConfig = field(default_factory=CenterConfig)
    lattice: LatticeConfig = field(default_factory=LatticeConfig)
    packet: PacketConfig = field(default_factory=PacketConfig)
    time: TimeConfig = field(default_factory=TimeConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    flux: FluxConfig = field(default_factory=FluxConfig)
    singularity: SingularityConfig = field(default_factory=SingularityConfig)
    absorb: AbsorbConfig = field(default_factory=AbsorbConfig)


def default_config(scenario: str) -> ScenarioConfig:
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}; choose from {SCENARIOS}")
    cfg = ScenarioConfig(scenario=scenario, out_dir=f"runs/{scenario}")
    if scenario == "singularity":
        cfg.center = CenterConfig(kind="interferometer", delta=0.75, gamma=1.25)
    elif scenario == "absorb":
        cfg.lattice = LatticeConfig(left_len=20, right_len=400, hard_wall_n0=20)
    elif scenario == "sweep":
        cfg.center = CenterConfig(kind="dimer", mu=0.5, nu=2.0)
    return cfg


# --- config text format -----------------------------------------------------

_SCALARS = ("scenario", "out_dir", "seed")


def _format_value(value) -> str:
    if value is None:
        return "none"
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
    if isinstance(ftype, types.UnionType):  # "T | None", the only union used
        if text.lower() in ("none", ""):
            return None
        ftype = typing.get_args(ftype)[0]
    if typing.get_origin(ftype) is tuple:
        inner = typing.get_args(ftype)[0]
        if not text:
            return ()
        return tuple(_parse_value(tok, inner) for tok in text.split(","))
    if ftype is int:
        return int(text)
    if ftype is float:
        return float(text)
    if ftype is complex:
        return complex(text.replace(" ", ""))
    if ftype is str:
        return text
    raise ConfigError(f"unsupported config field type {ftype}")


def _section_dataclasses() -> dict:
    return {
        f.name: f.type
        for f in dataclasses.fields(ScenarioConfig)
        if dataclasses.is_dataclass(f.type)
    }


def to_ini(config: ScenarioConfig) -> str:
    parser = configparser.ConfigParser(interpolation=None)
    parser.add_section("scenario")
    for name in _SCALARS:
        parser.set("scenario", name, _format_value(getattr(config, name)))
    for section, cls in _section_dataclasses().items():
        parser.add_section(section)
        value = getattr(config, section)
        for f in dataclasses.fields(cls):
            parser.set(section, f.name, _format_value(getattr(value, f.name)))
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
        base = default_config(parser.get("scenario", "scenario", fallback="verify"))
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
    """Apply "section.key=value" (or "key=value" for scenario scalars)."""
    config = copy.deepcopy(config)
    sections = _section_dataclasses()
    for item in assignments:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, raw = item.split("=", 1)
        key = key.strip()
        section, _, name = key.partition(".")
        if not name:
            if key not in _SCALARS:
                raise ConfigError(f"unknown top-level key {key!r}")
            target, name = config, key
        elif section in sections:
            target = getattr(config, section)
        else:
            raise ConfigError(f"unknown config section {section!r}")
        field_types = {f.name: f.type for f in dataclasses.fields(target)}
        if name not in field_types:
            raise ConfigError(f"unknown key {key}")
        try:
            value = _parse_value(raw, field_types[name])
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {exc}") from None
        setattr(target, name, value)
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
    return AssertionResult(
        name=name,
        passed=bool(passed),
        measured=_format_value(measured) if not isinstance(measured, str) else measured,
        threshold=threshold,
        detail=detail,
    )


def _le(name, measured, bound, detail="") -> AssertionResult:
    return _check(name, measured <= bound, measured, f"<= {_format_value(bound)}", detail)


# --- scenario runners --------------------------------------------------------


def run_scenario(config: ScenarioConfig) -> RunManifest:
    """Execute one scenario, writing outputs and exactly one manifest. This is
    the one error boundary of the scenario layer: a `ValueError` raised by a
    runner (a malformed or inconsistent config value) leaves as `ConfigError`."""
    if config.scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {config.scenario!r}")
    out_dir = Path(config.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use output directory {str(out_dir)!r}: {exc}") from None
    runner = _RUNNERS[config.scenario]
    started = time.perf_counter()
    try:
        outputs, assertions = runner(config, out_dir)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
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
    if n < 1:
        raise ConfigError("sweep.samples must be positive")
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
    try:
        dimer = as_dimer(center)
    except ValueError:  # no dimer reduction: skip the dimer-only checks
        dimer = None
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


def _dimer_on_locus(config: ScenarioConfig, product: int) -> AsymmetricDimer:
    """The dimer the center is or reduces to, required on the locus
    mu*nu = product: +1 (`is_resonant`) or -1 (`is_singular`)."""
    dimer = as_dimer(config.center.to_center())
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


def _packet_frames(config, center, k0s):
    """Send the configured packet at each momentum of k0s through `center`,
    as one block; returns (H, frames), the run at k0s[j] at frames[:, j].
    `_UNIFORM_CHAIN` as the center gives the reference runs."""
    for k0 in k0s:
        if not 0.0 < k0 < math.pi:
            raise ConfigError(f"packet momentum must lie in (0, pi), got k0={k0!r}")
    lattice = config.lattice.to_lattice()
    ham = build_hamiltonian(center, lattice)
    packets = [
        gaussian_packet(lattice, WavePacketSpec(config.packet.site, k0, config.packet.lam), center)
        for k0 in k0s
    ]
    return ham, Propagator(ham).frames(np.column_stack(packets), config.time.times())


def _run_amplify(config: ScenarioConfig, out_dir: Path):
    dimer = _dimer_on_locus(config, 1)
    center = config.center.to_center()
    ham, frames = _packet_frames(config, center, [config.packet.k0])
    ref_frames = _packet_frames(config, _UNIFORM_CHAIN, [config.packet.k0])[1]
    frames, ref_frames = frames[:, 0], ref_frames[:, 0]
    metrics = transit_metrics(frames, ham.center_span, ref_frames)
    write_frames(out_dir / "frames.npy", frames)
    write_frames(out_dir / "frames_reference.npy", ref_frames)
    write_frames_axes(
        out_dir / "frames_axes.json", config.time.times(), ham.lattice, ham.center
    )
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
    _dimer_on_locus(config, 1)
    if config.center.kind != "interferometer":
        raise ConfigError("flux-deviation requires an interferometer center")
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
    devs = sorted(config.flux.deviations)
    step = math.pi / 100
    k0s = config.flux.k0_values
    ref_frames = _packet_frames(config, _UNIFORM_CHAIN, k0s)[1]
    table = {}
    for dev in devs:
        center = Interferometer(
            config.center.delta, config.center.gamma, DIMER_REDUCTION_PHI + dev * step
        )
        ham, frames = _packet_frames(config, center, k0s)
        for j, k0 in enumerate(k0s):
            table[(k0, dev)] = transit_metrics(frames[:, j], ham.center_span, ref_frames[:, j])

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


def _linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line fit; returns (slope, intercept, r_squared)."""
    design = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    pred = design @ coef
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(coef[0]), float(coef[1]), r2


def _run_singularity(config: ScenarioConfig, out_dir: Path):
    center = _dimer_on_locus(config, -1)
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
    prop = Propagator(ham)
    span = ham.center_span
    nu_mag = abs(center.nu)

    cases = {
        "seed_plus": seed_state(lattice, center, +1),
        "seed_minus": seed_state(lattice, center, -1),
        "packet": gaussian_packet(
            lattice,
            WavePacketSpec(config.packet.site, config.packet.k0, config.packet.lam),
            center,
        ),
        "pair": antisym_two_packets(
            lattice,
            config.packet.pair_site,
            config.packet.k0,
            config.packet.lam,
            center.nu,
            center,
        ),
    }

    outputs = []
    assertions = []
    series_path = out_dir / "series.csv"
    metrics = {}
    # the cases share H, so they step as one block; case j's frames are [:, j]
    block = prop.frames(np.column_stack(list(cases.values())), times)
    with open(series_path, "w") as series_fh:
        series_fh.write("case,t,P_left,P_center,P_right,P_total\n")
        for name, frames in zip(cases, block.swapaxes(0, 1)):
            check_boundaries(frames)
            fname = f"frames_{name}.npy"
            write_frames(out_dir / fname, frames)
            outputs.append(fname)
            left, mid, right = split_probability(frames, span)
            total = left + mid + right
            for t, l, c, r, p in zip(times, left, mid, right, total):
                series_fh.write(
                    f"{name},{float(t)!r},{float(l)!r},{float(c)!r},"
                    f"{float(r)!r},{float(p)!r}\n"
                )

            if name == "seed_plus":
                slope_p, _, r2_p = _linear_fit(times[window], total[window])
                slope_l, _, _ = _linear_fit(times[window], left[window])
                slope_r, _, _ = _linear_fit(times[window], right[window])
                ratio = math.sqrt(max(slope_r, 0.0) / slope_l)
                metrics.update(
                    seed_plus_growth_slope=slope_p,
                    seed_plus_growth_r2=r2_p,
                    seed_plus_emission_ratio=ratio,
                )
                assertions.append(
                    _check(
                        "seed_plus_linear_growth",
                        r2_p > _LINEAR_R2,
                        r2_p,
                        f"> {_LINEAR_R2!r}",
                    )
                )
                assertions.append(
                    _le(
                        "seed_plus_emission_ratio",
                        abs(ratio - nu_mag) / nu_mag,
                        0.02,
                        detail=f"ratio={ratio!r} nu={nu_mag!r}",
                    )
                )
            elif name == "seed_minus":
                p0 = total[0]
                metrics.update(seed_minus_peak=float(total.max()), seed_minus_final=total[-1])
                assertions.append(
                    _le("seed_minus_bounded", float(total.max()), p0 * (1 + 1e-9))
                )
                assertions.append(
                    _le(
                        "seed_minus_decays",
                        total[-1],
                        0.4 * p0,
                        detail=f"P(0)={_format_value(p0)}",
                    )
                )
                t_idx = int(np.searchsorted(times, sing.fit_start))
                assertions.append(
                    _le(
                        "seed_minus_no_regrowth",
                        total[-1],
                        total[t_idx] + 1e-9,
                        detail=f"P({times[t_idx]})={_format_value(total[t_idx])}",
                    )
                )
            elif name == "packet":
                slope_l, _, r2_l = _linear_fit(times[late], left[late])
                slope_r, _, r2_r = _linear_fit(times[late], right[late])
                metrics.update(
                    packet_reflected_slope=slope_l,
                    packet_reflected_r2=r2_l,
                    packet_transmitted_slope=slope_r,
                    packet_transmitted_r2=r2_r,
                )
                assertions.append(
                    _check(
                        "packet_reflected_linear_growth",
                        r2_l > _LINEAR_R2 and slope_l > 0,
                        r2_l,
                        f"> {_LINEAR_R2!r} with positive slope",
                    )
                )
                assertions.append(
                    _check(
                        "packet_transmitted_linear_growth",
                        r2_r > _LINEAR_R2 and slope_r > 0,
                        r2_r,
                        f"> {_LINEAR_R2!r} with positive slope",
                    )
                )
            elif name == "pair":
                residue = total[-1] / total[0]
                metrics.update(pair_initial=total[0], pair_final=total[-1])
                assertions.append(
                    _le(
                        "pair_fully_absorbed",
                        residue,
                        0.02,
                        detail=f"P(0)={_format_value(total[0])} "
                        f"P(end)={_format_value(total[-1])}",
                    )
                )
    write_frames_axes(out_dir / "frames_axes.json", times, lattice, center)
    write_metrics_txt(out_dir / "metrics.txt", metrics)
    outputs += ["frames_axes.json", "series.csv", "metrics.txt"]
    return outputs, assertions


def _run_absorb(config: ScenarioConfig, out_dir: Path):
    ab = config.absorb
    if any(nu <= 0 for nu in ab.nu_values) or len(ab.nu_values) < 2:
        raise ConfigError("absorb.nu_values must be at least two positive values")
    _require_distinct("absorb.nu_values", ab.nu_values)
    lattice = config.lattice.to_lattice()
    n0 = lattice.hard_wall_n0  # the mixture fills the box -n0..-1 behind the wall
    if n0 is None:
        raise ConfigError("absorb requires a hard wall (lattice.hard_wall_n0)")
    times = TimeConfig(t_max=ab.t_max, dt=ab.dt).times()
    # the last grid time, not t_max: the grid can end below t_max
    if not 0.0 < ab.drop_time <= times[-1]:
        raise ConfigError(
            f"absorb.drop_time must lie in (0, {float(times[-1])!r}], got {ab.drop_time!r}"
        )

    # every center here is a dimer, so all share one site order and one mixture
    factor, weights = mixed_state_uniform(lattice, _UNIFORM_CHAIN, n0)
    totals = {}
    with open(out_dir / "ptotal.csv", "w") as fh:
        fh.write("nu,t,P\n")
        for nu in ab.nu_values:
            ham = build_hamiltonian(AsymmetricDimer(1.0 / nu, nu), lattice)
            p = Propagator(ham).frames(factor, times, weights).sum(axis=1)
            totals[nu] = p
            for t, value in zip(times, p):
                fh.write(f"{nu!r},{float(t)!r},{float(value)!r}\n")

    assertions = []
    drop_idx = int(np.searchsorted(times, ab.drop_time))
    for nu in ab.nu_values:
        assertions.append(
            _le(
                f"rapid_drop[nu={nu!r}]",
                totals[nu][drop_idx] / totals[nu][0],
                0.5,
                detail=f"P({times[drop_idx]}) / P(0)",
            )
        )
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
    assertions.append(
        _le(
            f"near_perfect_absorption[nu={smallest!r}]",
            totals[smallest][-1],
            0.05,
        )
    )

    # closed Hermitian control: nothing decays without the non-Hermitian center
    control = Propagator(build_hamiltonian(_UNIFORM_CHAIN, lattice))
    control_times = TimeConfig(t_max=ab.t_max, dt=min(max(ab.dt, 10.0), ab.t_max)).times()
    control_p = control.frames(factor, control_times, weights).sum(axis=1)
    control_dev = float(np.max(np.abs(control_p - 1.0)))
    assertions.append(_le("hermitian_control_conserves", control_dev, 1e-9))

    metrics = {f"final_P[nu={nu!r}]": totals[nu][-1] for nu in ab.nu_values}
    metrics["hermitian_control_max_dev"] = control_dev
    write_metrics_txt(out_dir / "metrics.txt", metrics)
    return ["ptotal.csv", "metrics.txt"], assertions


def _run_verify(config: ScenarioConfig, out_dir: Path):
    rng = np.random.default_rng(config.seed)
    assertions = []

    # rotation: interferometer -> dimer equality and unitarity
    pairs = [(-1.25, 0.75), (0.75, 1.25), (0.4, -0.9)]
    worst_eq = 0.0
    lattice = LatticeSpec(10, 10)
    for delta, gamma in pairs:
        ham = build_hamiltonian(Interferometer(delta, gamma, DIMER_REDUCTION_PHI), lattice)
        rotated = alpha_beta_rotation(ham)
        target = build_hamiltonian(dimer_from_interferometer(delta, gamma), lattice)
        worst_eq = max(worst_eq, float(abs(rotated.matrix - target.matrix).max()))
    assertions.append(_le("rotation_matches_dimer", worst_eq, 1e-14))
    b = ALPHA_BETA_BLOCK
    unitary_dev = float(np.max(np.abs(b.conj().T @ b - np.eye(2))))
    assertions.append(_le("rotation_unitary", unitary_dev, 1e-14))

    # biorthogonal scaling: hermiticity for mu*nu > 0, spectrum always; the
    # Frobenius norm of a sparse matrix is the norm of its stored entries
    worst_herm = 0.0
    worst_spec = 0.0
    for mu, nu in [(0.5, 2.0), (1.5, 0.4), (-1.2, -0.5), (-2.0, 0.5), (0.8, -1.1)]:
        ham = build_hamiltonian(AsymmetricDimer(mu, nu), LatticeSpec(40, 40))
        scaled = biorthogonal_scale(ham)
        if mu * nu > 0:
            worst_herm = max(
                worst_herm,
                float(np.linalg.norm((scaled.matrix - scaled.matrix.conj().T).data)),
            )
        worst_spec = max(
            worst_spec,
            spectrum_distance(
                np.linalg.eigvals(ham.matrix.toarray()),
                np.linalg.eigvals(scaled.matrix.toarray()),
            ),
        )
    assertions.append(_le("scaling_hermitian_when_product_positive", worst_herm, 1e-12))
    assertions.append(_le("scaling_preserves_spectrum", worst_spec, 1e-10))

    # full chain: rotation then scaling at delta^2 - gamma^2 = 1 is Hermitian
    ham = build_hamiltonian(Interferometer(-1.25, 0.75, DIMER_REDUCTION_PHI), LatticeSpec(40, 40))
    chain = biorthogonal_scale(alpha_beta_rotation(ham))
    assertions.append(
        _le(
            "resonant_chain_hermitian",
            float(np.linalg.norm((chain.matrix - chain.matrix.conj().T).data)),
            1e-12,
        )
    )

    # parity split at the singularity
    ham = build_hamiltonian(AsymmetricDimer(-2.0, 0.5), LatticeSpec(100, 100))
    scaled = biorthogonal_scale(ham)
    blocks = parity_decompose(scaled)
    ends = sorted(blocks.end_potentials, key=lambda z: z.imag)
    end_dev = max(abs(ends[0] + 1j), abs(ends[1] - 1j))
    assertions.append(_le("parity_end_potentials_are_plus_minus_i", end_dev, 1e-9))
    assertions.append(_le("parity_cross_coupling", blocks.cross_coupling, 1e-12))
    hp, hm = blocks.embedded()
    commutator = float(np.linalg.norm((hp @ hm - hm @ hp).data))
    assertions.append(_le("parity_blocks_commute", commutator, 1e-12))
    union = np.concatenate(
        [np.linalg.eigvals(h.toarray()) for h in (blocks.h_plus, blocks.h_minus)]
    )
    assertions.append(
        _le(
            "parity_blocks_reproduce_spectrum",
            spectrum_distance(np.linalg.eigvals(scaled.matrix.toarray()), union),
            1e-10,
        )
    )

    # scattering-state residuals for random parameters
    lattice = LatticeSpec(100, 100)
    worst_res = 0.0
    count = 0
    while count < 20:
        mu, nu = rng.uniform(-2.5, 2.5, size=2)
        k = rng.uniform(0.2, math.pi - 0.2)
        if abs(mu * nu + 1.0) < 0.05:
            continue
        inc = LEFT if count % 2 == 0 else RIGHT
        worst_res = max(worst_res, scattering_residual(AsymmetricDimer(mu, nu), lattice, k, inc))
        count += 1
    count = 0
    while count < 10:
        v = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        k = rng.uniform(0.2, math.pi - 0.2)
        if abs(2j * math.sin(k) - v) < 0.05:
            continue
        worst_res = max(worst_res, scattering_residual(OnSitePotential(v), lattice, k))
        count += 1
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
    assertions.append(
        _le("amplification_k_independent", gains.max() - gains.min(), 1e-12,
            detail=f"A={gains[0].item()!r}")
    )

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
    asym = abs(
        onsite_amplitudes(1j, math.pi / 2).T - onsite_amplitudes(-1j, math.pi / 2).T
    )
    assertions.append(
        _check("imaginary_potential_asymmetric", asym > 1e-6, asym, "> 1e-06")
    )

    # left/right transmission ratio nu/mu off resonance
    worst_ratio = 0.0
    for mu, nu in [(0.7, 1.9), (-1.4, 0.6), (2.2, 0.9)]:
        tl, tr = (amplitude_table(AsymmetricDimer(mu, nu), [0.5, 1.1, 2.0], side).t
                  for side in (LEFT, RIGHT))
        q_re, q_im = quotient(tl.real, tl.imag, tr.real, tr.imag)
        worst_ratio = max(worst_ratio, np.max(np.hypot(q_re - nu / mu, q_im)))
    assertions.append(_le("left_right_transmission_ratio", worst_ratio, 1e-12))

    # analytic fixed points of the imaginary potential
    diverging = onsite_amplitudes(2j, math.pi / 2)
    quarter = onsite_amplitudes(-2j, math.pi / 2)
    assertions.append(
        _check(
            "gain_potential_diverges",
            diverging.diverges and diverging.T == math.inf,
            f"diverges={diverging.diverges}",
            "divergence flag at k=pi/2 for v=2i",
        )
    )
    assertions.append(_le("loss_potential_quarter", abs(quarter.T - 0.25), 1e-15))

    # singular eigenstate solves the eigenproblem exactly at E = 0
    dimer = AsymmetricDimer(-2.0, 0.5)
    lattice = LatticeSpec(50, 50)
    ham = build_hamiltonian(dimer, lattice)
    worst_swf = 0.0
    for sign in (+1, -1):
        psi = np.array(
            [singular_wavefunction(dimer, sign, s) for s in site_order(dimer, lattice)]
        )
        worst_swf = max(worst_swf, float(np.max(np.abs((ham.matrix @ psi)[1:-1]))))
    assertions.append(_le("singular_state_residual", worst_swf, 1e-12))

    with open(out_dir / "assertions.txt", "w") as fh:
        for a in assertions:
            status = "pass" if a.passed else "FAIL"
            fh.write(f"{a.name} = {status} (measured {a.measured}, wants {a.threshold})\n")
    return ["assertions.txt"], assertions


_RUNNERS = {
    "sweep": _run_sweep,
    "amplify": _run_amplify,
    "flux-deviation": _run_flux_deviation,
    "singularity": _run_singularity,
    "absorb": _run_absorb,
    "verify": _run_verify,
}

