"""Initial states, non-unitary time evolution, and Dirac-probability output.

States evolve as psi(t) = e^{-iHt} psi(0) and density matrices as
rho(t) = e^{-iHt} rho(0) e^{+iH^dag t}. A density matrix is held as a factor,
rho = V W V^dag with V of shape N x r and W = diag(w) real, and steps as
V <- U V; its site profile is p = |V|^2 w, so P(t) is a weighted Frobenius
norm of V. The Dirac probability p(j,t) and its total P(t) are not conserved
when H is non-Hermitian; they are the primary observables here.

Every step, of a state or of a density factor, goes through one Propagator:
the truncated-Taylor action of e^{-iH dt} on a sparse copy of H (Al-Mohy &
Higham, SIAM J. Sci. Comput. 33:488, 2011), with one (degree, scaling) plan
per distinct time step. No N x N exponential is formed, and no
eigenvectors are needed, so it stays accurate arbitrarily close to the
spectral singularity, where eigenvector matrices become ill-conditioned.
"""

import json
import math
import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np
import scipy.sparse

from .lattice import (
    ALPHA,
    BETA,
    AsymmetricDimer,
    CenterSpec,
    DimerParams,
    HamiltonianMatrix,
    LatticeSpec,
    lattice_dim,
    site_order,
    site_to_index,
)


class PropagatorError(RuntimeError):
    """Propagation produced non-finite entries."""


class BoundaryContaminationError(RuntimeError):
    """Probability reached the open lattice ends and the run is unreliable."""


#: Largest probability an outermost lead site may hold before a run is refused.
BOUNDARY_TOL = 1e-6
#: Largest site shift of the distortion search in transit_metrics.
_MAX_SHIFT = 10


@dataclass(frozen=True)
class WavePacketSpec:
    """Gaussian packet: amplitudes ~ e^{-lam^2 (j-site)^2 / 2} e^{i k0 j}.

    ``lam`` is the exponent scale; the probability half-width in sites is
    2 sqrt(ln 2)/lam. Both parametrizations are exposed because they are
    easy to mix up.
    """

    site: int
    k0: float
    lam: float

    def __post_init__(self):
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise ValueError("packet width parameter lam must be positive")
        if not math.isfinite(self.k0):
            raise ValueError("central momentum must be finite")

    @property
    def half_width(self) -> float:
        return 2.0 * math.sqrt(math.log(2.0)) / self.lam

    @classmethod
    def from_half_width(cls, site: int, k0: float, half_width: float) -> "WavePacketSpec":
        return cls(site=site, k0=k0, lam=2.0 * math.sqrt(math.log(2.0)) / half_width)


@dataclass
class StateVector:
    """Complex amplitudes over the canonical site ordering of (center, lattice)."""

    amplitudes: np.ndarray
    center: CenterSpec
    lattice: LatticeSpec

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        expected = lattice_dim(self.center, self.lattice)
        if amp.shape != (expected,):
            raise ValueError(
                f"amplitude vector has shape {amp.shape}, expected ({expected},)"
            )
        self.amplitudes = amp

    def norm(self) -> float:
        """Dirac norm sqrt(<psi|psi>)."""
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def site_amplitude(self, site) -> complex:
        return complex(self.amplitudes[site_to_index(self.lattice, site, self.center)])


class DensityMatrix:
    """Density matrix rho = V diag(w) V^dag over the canonical ordering.

    Held as the N x r factor V (``factor``) and r real weights w
    (``weights``), so a rank-r state costs O(N r) to store and O(N^2 r) to
    step. A full matrix passed in must be Hermitian within 1e-10 of its
    largest entry; it is factored once by its eigendecomposition, keeping
    every eigenvalue that is not exactly zero with its sign, so an indefinite
    input is reproduced and still fails the negative-probability check of
    its profile.
    """

    def __init__(self, entries, center: CenterSpec, lattice: LatticeSpec):
        rho = np.asarray(entries, dtype=complex)
        expected = lattice_dim(center, lattice)
        if rho.shape != (expected, expected):
            raise ValueError(
                f"density matrix has shape {rho.shape}, expected square dim {expected}"
            )
        defect = np.max(np.abs(rho - rho.conj().T))
        scale = max(1.0, float(np.max(np.abs(rho))))
        if defect > 1e-10 * scale:
            raise ValueError(f"density matrix is not Hermitian (defect {defect:.3e})")
        import scipy.linalg  # only here: runs that never factor a full rho skip its import

        weights, factor = scipy.linalg.eigh((rho + rho.conj().T) / 2.0)
        keep = weights != 0.0
        self.factor = factor[:, keep]
        self.weights = weights[keep]
        self.center = center
        self.lattice = lattice

    @classmethod
    def _factored(cls, factor, weights, center, lattice) -> "DensityMatrix":
        rho = cls.__new__(cls)
        rho.factor, rho.weights = factor, weights
        rho.center, rho.lattice = center, lattice
        return rho

    @property
    def entries(self) -> np.ndarray:
        """The full N x N matrix V diag(w) V^dag, built on each access."""
        return (self.factor * self.weights) @ self.factor.conj().T

    def diagonal(self) -> np.ndarray:
        """Site populations rho_jj = sum_k w_k |V_jk|^2."""
        return (np.abs(self.factor) ** 2) @ self.weights

    def trace(self) -> float:
        return float(self.diagonal().sum())

    def _core(self) -> np.ndarray:
        """C = R diag(w) R^dag for V = QR: rho = Q C Q^dag has C's nonzero spectrum."""
        r = np.linalg.qr(self.factor, mode="r")
        return (r * self.weights) @ r.conj().T

    def purity(self) -> float:
        """Tr(rho^2) / (Tr rho)^2."""
        tr = self.trace()
        return float(np.sum(np.abs(self._core()) ** 2) / (tr * tr))

    def min_eigenvalue(self) -> float:
        core = self._core()
        eig = np.linalg.eigvalsh(core)
        if core.shape[0] < self.factor.shape[0]:
            eig = np.append(eig, 0.0)  # the complement of range(V) is null
        return float(eig.min())


@dataclass(frozen=True)
class ProfileFrame:
    """Per-site Dirac probabilities at one instant."""

    t: float
    p: np.ndarray

    @property
    def total(self) -> float:
        return float(self.p.sum())


def gaussian_packet(
    lattice: LatticeSpec, spec: WavePacketSpec, center: CenterSpec
) -> StateVector:
    """Unit-norm Gaussian packet on the lead sites (zero on the center).

    Raises if the 5-sigma support (sigma = 1/lam in amplitude) would be
    clipped by the lattice ends.
    """
    sigma = 1.0 / spec.lam
    lo, hi = spec.site - 5.0 * sigma, spec.site + 5.0 * sigma
    if lo < -lattice.left_len or hi > lattice.right_len:
        raise ValueError(
            f"packet at site {spec.site} with 5 sigma = {5.0 * sigma:.1f} is clipped "
            f"by the lattice ends [-{lattice.left_len}, {lattice.right_len}]"
        )
    order = site_order(center, lattice)
    amp = np.zeros(len(order), dtype=complex)
    for i, site in enumerate(order):
        if isinstance(site, int) and site != 0:
            gauss = math.exp(-0.5 * spec.lam**2 * (site - spec.site) ** 2)
            amp[i] = gauss * np.exp(1j * spec.k0 * site)
    amp /= np.linalg.norm(amp)
    return StateVector(amplitudes=amp, center=center, lattice=lattice)


def seed_state(lattice: LatticeSpec, params: DimerParams, sign: int) -> StateVector:
    """Center seed |alpha> +- i nu |beta> on a dimer lattice (not normalized).

    At the singularity mu*nu = -1 the + seed triggers self-sustained two-sided
    emission, the - seed decays.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    center = AsymmetricDimer(params.mu, params.nu)
    amp = np.zeros(lattice_dim(center, lattice), dtype=complex)
    amp[site_to_index(lattice, ALPHA, center)] = 1.0
    amp[site_to_index(lattice, BETA, center)] = 1j * sign * params.nu
    return StateVector(amplitudes=amp, center=center, lattice=lattice)


def antisym_two_packets(
    lattice: LatticeSpec,
    n_a: int,
    k0: float,
    lam: float,
    nu: float,
    center: CenterSpec,
) -> StateVector:
    """Counter-propagating pair |phi(-n_a, k0)> - i nu |phi(n_a, -k0)>.

    Each packet is unit-normalized before combination; the relative -i nu
    weight matches the absorbed singular channel at k0 = pi/2. Emits a warning
    when either packet overlaps the near-center region by more than 1e-10.
    """
    if n_a <= 0:
        raise ValueError("n_a must be a positive site offset")
    left = gaussian_packet(lattice, WavePacketSpec(site=-n_a, k0=k0, lam=lam), center)
    right = gaussian_packet(lattice, WavePacketSpec(site=n_a, k0=-k0, lam=lam), center)
    n_center = lattice_dim(center, lattice) - lattice.left_len - lattice.right_len
    near = slice(max(lattice.left_len - 2, 0), lattice.left_len + n_center + 2)
    for name, packet in (("left", left), ("right", right)):
        overlap = float(packet.probabilities()[near].sum())
        if overlap > 1e-10:
            warnings.warn(
                f"{name} packet overlaps the center region with probability "
                f"{overlap:.3e}",
                stacklevel=2,
            )
    amp = left.amplitudes - 1j * nu * right.amplitudes
    return StateVector(amplitudes=amp, center=center, lattice=lattice)


#: Relative distance below which two time steps share one step plan. The
#: differences of a grid n*dt agree with dt only to the round-off of n*dt.
STEP_RTOL = 1e-12

#: theta_m for unit roundoff 2^-53: the largest alpha_p(A) for which m Taylor
#: terms of e^A have backward error below 2^-53. m <= 30 from Higham &
#: Al-Mohy, Acta Numerica 19:159 (2010), Table A.3; m = 35..55 from Al-Mohy &
#: Higham, SIAM J. Sci. Comput. 33:488 (2011), Table 3.1.
_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}
#: Largest p of the alpha_p (the paper's p_max).
_P_MAX = 8
#: Sparse products one step may take (minutes at N ~ 10^3): the work grows
#: linearly in dt, so a step of, say, 1e20 would otherwise never finish.
_MAX_PRODUCTS = 10**7


def _taylor_plan(a) -> tuple[int, int]:
    """Degree m and scaling s for e^A by Al-Mohy & Higham eq. (3.11).

    alpha_p = max(d_p, d_{p+1}) with the exact d_p = ||A^p||_1^{1/p} of the
    sparse powers, p = 2..9; a chain's ||A||_1 can far exceed its alpha_p
    (a dimer with mu = 10), which would overstate the work. Returns the m
    minimizing the number of products m * ceil(alpha_p / theta_m) over
    p(p-1) <= m+1, and s = ceil(alpha_p / theta_m).
    """
    d = {}
    power = a
    for p in range(2, _P_MAX + 2):
        power = power @ a
        d[p] = float(abs(power).sum(axis=0).max()) ** (1.0 / p)
    if not all(math.isfinite(v) for v in d.values()):
        raise PropagatorError("norms of the powers of -iH dt overflowed; step too large")
    best = None
    for m, theta in _THETA.items():
        for p in range(2, _P_MAX + 1):
            if p * (p - 1) <= m + 1:
                cost = m * math.ceil(max(d[p], d[p + 1]) / theta)
                if best is None or cost < best[0]:
                    best = (cost, m)
    cost, m = best
    if cost > _MAX_PRODUCTS:
        raise PropagatorError(
            f"the step needs {cost:.3e} sparse products, more than "
            f"{_MAX_PRODUCTS}; shorten the time step"
        )
    return m, max(cost // m, 1)


class TaylorStep:
    """e^A for A = -iH dt, applied as ``step @ b`` without forming e^A.

    ``step @ b`` takes ``scaling`` substeps b <- sum_{j<=degree} (A/s)^j b / j!,
    each summing all ``degree`` terms (the backward-error bound of the plan
    holds for the full degree), with ``operator`` = A/s stored as CSR.
    Deterministic: no random norm estimate, so reruns are bit-identical.
    """

    def __init__(self, a, dt: float):
        self.dt = dt
        self.degree, self.scaling = _taylor_plan(a)
        self.operator = a / self.scaling

    def __matmul__(self, b: np.ndarray) -> np.ndarray:
        out = np.asarray(b, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(self.scaling):
                term, out = out, out.copy()
                for j in range(1, self.degree + 1):
                    term = self.operator @ term
                    term *= 1.0 / j  # a real factor: cheaper than complex division
                    out += term
        if not np.all(np.isfinite(out)):
            raise PropagatorError(
                f"propagator for dt={self.dt} overflowed; "
                "spectral growth too large for this step"
            )
        return out


class Propagator:
    """Builds and applies e^{-iH dt} for one H: one step plan per distinct step.

    H is copied once to CSR and scaled by -i, and each distinct dt gets one
    `TaylorStep`, whose application costs degree x scaling sparse products.
    A step within a relative STEP_RTOL (1e-12) of a step already seen reuses
    the plan built for that first step, so a grid n*dt costs a single plan
    although its float differences vary in the last digits.
    """

    def __init__(self, ham: HamiltonianMatrix):
        self.ham = ham
        self._generator = -1j * scipy.sparse.csr_array(ham.matrix)
        self._cache: dict[float, TaylorStep] = {}

    def step_matrix(self, dt: float) -> TaylorStep:
        for seen, u in self._cache.items():
            if math.isclose(dt, seen, rel_tol=STEP_RTOL):
                return u
        u = TaylorStep(self._generator * dt, dt)
        self._cache[dt] = u
        return u

    def _steps(self, times):
        """Yield (t, U) per time; U steps from the previous time (None at t=0)."""
        prev_t = 0.0
        for t in _check_times(times):
            yield t, (self.step_matrix(t - prev_t) if t > prev_t else None)
            prev_t = t

    def states(self, psi0: StateVector, times) -> list[StateVector]:
        _check_dim(psi0.amplitudes, self.ham, "state")
        out = []
        psi = psi0.amplitudes.copy()
        for _, u in self._steps(times):
            if u is not None:
                psi = u @ psi
            # u @ psi returns a new array, so the states share no storage
            out.append(
                StateVector(amplitudes=psi, center=self.ham.center, lattice=self.ham.lattice)
            )
        return out

    def frames(self, psi0: StateVector, times) -> list[ProfileFrame]:
        return [
            profile(s, t) for s, t in zip(self.states(psi0, times), _check_times(times))
        ]


def evolve_state(ham: HamiltonianMatrix, psi0: StateVector, times) -> list[StateVector]:
    """Evolve psi(t) = e^{-iHt} psi0 at the requested ascending times."""
    return Propagator(ham).states(psi0, times)


def _check_times(times) -> np.ndarray:
    times = np.asarray(list(times), dtype=float)
    if times.size == 0:
        raise ValueError("need at least one time")
    if times[0] < 0:
        raise ValueError("times must be >= 0")
    if times.size > 1 and np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly ascending")
    return times


def _check_dim(entries: np.ndarray, ham: HamiltonianMatrix, what: str) -> None:
    if entries.shape[0] != ham.dim:
        raise ValueError(
            f"{what} dimension {entries.shape[0]} does not match H dim {ham.dim}"
        )


def evolve_density(
    ham: HamiltonianMatrix, rho0: DensityMatrix, times
) -> list[DensityMatrix]:
    """Evolve rho(t) = e^{-iHt} rho(0) e^{+iH^dag t} at the requested times."""
    return [rho for _, rho in _density_steps(ham, rho0, times)]


def _density_steps(ham: HamiltonianMatrix, rho0: DensityMatrix, times):
    """Yield (t, rho(t)), stepping the factor V <- U V with one Propagator."""
    _check_dim(rho0.factor, ham, "density")
    v = rho0.factor.copy()
    for t, u in Propagator(ham)._steps(times):
        if u is not None:
            v = u @ v
        yield t, DensityMatrix._factored(v, rho0.weights, ham.center, ham.lattice)


def density_profile_series(
    ham: HamiltonianMatrix, rho0: DensityMatrix, times
) -> list[ProfileFrame]:
    """Per-site probability frames of an evolving density matrix.

    Streams the evolution so only the populations are retained; use this
    for long time grids where storing every rho(t) would be wasteful.
    """
    return [profile(rho, t) for t, rho in _density_steps(ham, rho0, times)]


def _diag_probabilities(p: np.ndarray) -> np.ndarray:
    if p.min() < -1e-10:
        raise ValueError(f"density diagonal has negative probability {p.min():.3e}")
    np.clip(p, 0.0, None, out=p)
    return p


def mixed_state_uniform(
    lattice: LatticeSpec, center: CenterSpec, n0: int
) -> DensityMatrix:
    """Uniform incoherent mixture (1/n0) sum_j |-j><-j| over sites -1..-n0.

    Built directly as its rank-n0 factor: columns e_{-j}, weights 1/n0, so
    the populations at t = 0 are exactly 1/n0.
    """
    if n0 < 1 or n0 > lattice.left_len:
        raise ValueError(f"n0 must be in 1..left_len, got {n0}")
    factor = np.zeros((lattice_dim(center, lattice), n0), dtype=complex)
    for col, j in enumerate(range(1, n0 + 1)):
        factor[site_to_index(lattice, -j, center), col] = 1.0
    return DensityMatrix._factored(factor, np.full(n0, 1.0 / n0), center, lattice)


def profile(obj: Union[StateVector, DensityMatrix], t: float) -> ProfileFrame:
    """Dirac-probability frame of a state (|psi_j|^2) or density (diagonal)."""
    if isinstance(obj, StateVector):
        return ProfileFrame(t=float(t), p=obj.probabilities())
    if isinstance(obj, DensityMatrix):
        return ProfileFrame(t=float(t), p=_diag_probabilities(obj.diagonal()))
    raise TypeError(f"expected StateVector or DensityMatrix, got {type(obj).__name__}")


def split_probability(p: np.ndarray, center_span: tuple[int, int]) -> tuple[float, float, float]:
    """(left lead, center, right lead) probability sums of one frame."""
    start, stop = center_span
    return float(p[:start].sum()), float(p[start:stop].sum()), float(p[stop:].sum())


@dataclass(frozen=True)
class TransitMetrics:
    """Summary of a scattering transit, compared against a reference run."""

    incident: float
    reflected: float
    transmitted: float
    gain: float
    distortion: float
    shift: int
    scale: float


def transit_metrics(
    frames: list[ProfileFrame],
    center_span: tuple[int, int],
    reference_frames: list[ProfileFrame] | None = None,
) -> TransitMetrics:
    """Reflected/transmitted norms, gain, and shape distortion after transit.

    The final frame is split at the center; gain is transmitted/incident.
    Distortion is the minimum over integer shifts |shift| <= _MAX_SHIFT and a
    free non-negative scale of the L2 distance between the transmitted profile
    and the reference run's transmitted profile, normalized by the L2 norm of
    the incident profile. Passing reference_frames=None self-compares (zero
    distortion), which only checks the plumbing.

    Raises BoundaryContaminationError if any frame puts more than BOUNDARY_TOL
    probability on an outermost lead site.
    """
    if not frames:
        raise ValueError("need at least one frame")
    check_boundaries(frames)
    if reference_frames is None:
        reference_frames = frames
    if len(reference_frames) != len(frames):
        raise ValueError("reference run must cover the same frame instants")

    incident = frames[0].total
    final = frames[-1]
    left, _, right = split_probability(final.p, center_span)
    gain = right / incident

    target = final.p[center_span[1] :]
    ref = reference_frames[-1].p[center_span[1] :]
    norm0 = float(np.linalg.norm(frames[0].p))
    best = (math.inf, 0, 0.0)
    for shift in range(-_MAX_SHIFT, _MAX_SHIFT + 1):
        shifted = _shift_window(ref, shift)
        denom = float(shifted @ shifted)
        scale = float(target @ shifted) / denom if denom > 0 else 0.0
        scale = max(scale, 0.0)
        dist = float(np.linalg.norm(target - scale * shifted)) / norm0
        if dist < best[0]:
            best = (dist, shift, scale)
    return TransitMetrics(
        incident=incident,
        reflected=left,
        transmitted=right,
        gain=gain,
        distortion=best[0],
        shift=best[1],
        scale=best[2],
    )


def check_boundaries(frames: list[ProfileFrame]) -> float:
    """Worst probability seen on an outermost lead site across the frames;
    raises when it exceeds BOUNDARY_TOL."""
    worst = max(max(float(f.p[0]), float(f.p[-1])) for f in frames)
    if worst > BOUNDARY_TOL:
        raise BoundaryContaminationError(
            f"probability {worst:.3e} reached a lattice end; enlarge the leads "
            "or shorten the run"
        )
    return worst


def _shift_window(vec: np.ndarray, shift: int) -> np.ndarray:
    """Shift within the window, zero-filling (no wrap-around)."""
    out = np.zeros_like(vec)
    if shift == 0:
        out[:] = vec
    elif shift > 0:
        out[shift:] = vec[:-shift]
    else:
        out[:shift] = vec[-shift:]
    return out


def write_frames(path, frames: list[ProfileFrame]) -> None:
    """Frame export: one .npy file holding the T x N float64 array whose row i
    is frames[i].p, columns in site order. Exact, and byte-identical on rerun
    (np.save writes no timestamp); the axes go to :func:`write_frames_axes`."""
    np.save(path, np.array([frame.p for frame in frames], dtype=float), allow_pickle=False)


# The name perfbench/tracing.py wraps; it exists only for that tracer.
write_frames_csv = write_frames


def write_frames_axes(path, times, lattice: LatticeSpec, center: CenterSpec) -> None:
    """Axes of the frame arrays as JSON: {"t": times, "j": site labels in
    matrix order}. json writes floats with repr, so the times are exact."""
    axes = {"t": [float(t) for t in times], "j": list(site_order(center, lattice))}
    with open(path, "w") as fh:
        json.dump(axes, fh)
        fh.write("\n")


def write_metrics_txt(path, record: dict) -> None:
    """Flat key = value text record."""
    with open(path, "w") as fh:
        for key, value in record.items():
            if isinstance(value, (np.floating, np.integer)):
                value = value.item()
            fh.write(f"{key} = {value!r}\n")
