"""Initial states, non-unitary time evolution, and Dirac-probability output.

A state is its complex N-vector in ``site_order(center, lattice)`` and
evolves as psi(t) = e^{-iHt} psi(0). A density matrix is the pair
(factor, weights), rho = V diag(w) V^dag with V of shape N x r and r real
weights w >= 0; rho(t) = e^{-iHt} rho(0) e^{+iH^dag t} is V <- e^{-iHt} V,
and its site profile is p = |V|^2 w. The Dirac probability p(j,t) and its
total P(t) are not conserved when H is non-Hermitian; they are the primary
observables here.

Every run goes through one call, Propagator.frames(start, times, weights).
An N-vector gives one T x N float64 array, row i the site profile at time i,
so P(t) is its row sums; this array is what the metrics take and what
write_frames saves. An N x r block of independent cases that share H gives
T x r x N, case j at [:, j]; with weights, it gives the mixture's T x N
profile. A block steps as one, each column exactly as it would alone,
through one loop, Propagator._evolve: the truncated-Taylor action of
e^{-iH dt} on the sparse H (Al-Mohy & Higham, SIAM J. Sci. Comput. 33:488,
2011), with one (degree, scaling) plan per distinct time step. No N x N
exponential is formed, and no eigenvectors are needed, so it stays accurate
arbitrarily close to the spectral singularity, where eigenvector matrices
become ill-conditioned.
"""

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .lattice import (
    ALPHA,
    BETA,
    AsymmetricDimer,
    CenterSpec,
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

    ``lam`` is the exponent scale, not a width: the probability half-width in
    sites is 2 sqrt(ln 2)/lam, about 11.1 sites at lam = 0.15.
    """

    site: int
    k0: float
    lam: float

    def __post_init__(self):
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise ValueError("packet width parameter lam must be positive")
        if not math.isfinite(self.k0):
            raise ValueError("central momentum must be finite")


def gaussian_packet(
    lattice: LatticeSpec, spec: WavePacketSpec, center: CenterSpec
) -> np.ndarray:
    """Unit-norm Gaussian packet on the lead sites (zero on the center), as
    complex amplitudes in ``site_order(center, lattice)``.

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
    return amp


def seed_state(lattice: LatticeSpec, dimer: AsymmetricDimer, sign: int) -> np.ndarray:
    """Center seed |alpha> +- i nu |beta> on a dimer lattice (not normalized).

    At the singularity mu*nu = -1 the + seed triggers self-sustained two-sided
    emission, the - seed decays.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    amp = np.zeros(lattice_dim(dimer, lattice), dtype=complex)
    amp[site_to_index(lattice, ALPHA, dimer)] = 1.0
    amp[site_to_index(lattice, BETA, dimer)] = 1j * sign * dimer.nu
    return amp


def antisym_two_packets(
    lattice: LatticeSpec,
    n_a: int,
    k0: float,
    lam: float,
    nu: float,
    center: CenterSpec,
) -> np.ndarray:
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
        overlap = float((np.abs(packet[near]) ** 2).sum())
        if overlap > 1e-10:
            warnings.warn(
                f"{name} packet overlaps the center region with probability "
                f"{overlap:.3e}",
                stacklevel=2,
            )
    return left - 1j * nu * right


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

    H, already sparse, is scaled once by -i, and each distinct dt gets one
    `TaylorStep`, whose application costs degree x scaling sparse products.
    A step within a relative STEP_RTOL (1e-12) of a step already seen reuses
    the plan built for that first step, so a grid n*dt costs a single plan
    although its float differences vary in the last digits.
    """

    def __init__(self, ham: HamiltonianMatrix):
        self.ham = ham
        self._generator = -1j * ham.matrix
        self._cache: dict[float, TaylorStep] = {}

    def step_matrix(self, dt: float) -> TaylorStep:
        for seen, u in self._cache.items():
            if math.isclose(dt, seen, rel_tol=STEP_RTOL):
                return u
        u = TaylorStep(self._generator * dt, dt)
        self._cache[dt] = u
        return u

    def _evolve(self, start: np.ndarray, times):
        """Yield ``start``, an N-vector or an N x r block, stepped to each time
        by the step from the previous time. Every yield is a new array, never
        ``start`` itself, so callers may keep or mutate them."""
        x, prev_t = np.array(start, dtype=complex), 0.0
        if x.shape[0] != self.ham.dim:
            raise ValueError(
                f"initial dimension {x.shape[0]} does not match H dim {self.ham.dim}"
            )
        for t in _check_times(times):
            if t > prev_t:
                x = self.step_matrix(t - prev_t) @ x
            prev_t = t
            yield x

    def states(self, start: np.ndarray, times) -> np.ndarray:
        """e^{-iH t_i} start at each time, row i at times[i]: T x N for a
        vector, T x N x r for an N x r block."""
        return np.array(list(self._evolve(start, times)))

    def frames(self, start: np.ndarray, times, weights=None) -> np.ndarray:
        """Dirac probabilities, row i at times[i]: T x N |psi_j(t_i)|^2 for an
        N-vector; T x r x N for an N x r block of r independent cases, case j
        at [:, j]; and with r weights w (finite, >= 0) the T x N profile
        |V(t)|^2 w of the mixture V diag(w) V^dag."""
        times, start = _check_times(times), np.asarray(start)
        if weights is not None:
            weights = np.asarray(weights, dtype=float)
            if not np.all(np.isfinite(weights) & (weights >= 0)):
                raise ValueError(f"density weights must be finite and >= 0, got {weights}")
        cases = start.shape[1:] if weights is None else ()
        out = np.empty((times.size, *cases, self.ham.dim))
        for row, x in zip(out, self._evolve(start, times)):
            p = np.abs(x) ** 2
            row[...] = p.T if weights is None else p @ weights
        return out


def _check_times(times) -> np.ndarray:
    times = np.asarray(list(times), dtype=float)
    if times.size == 0:
        raise ValueError("need at least one time")
    if times[0] < 0:
        raise ValueError("times must be >= 0")
    if times.size > 1 and np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly ascending")
    return times


def mixed_state_uniform(lattice: LatticeSpec, center: CenterSpec, n0: int):
    """Uniform incoherent mixture (1/n0) sum_j |-j><-j| over sites -1..-n0,
    as (factor, weights): the N x n0 columns e_{-j} and the weights 1/n0, so
    the populations at t = 0 are exactly 1/n0.
    """
    if n0 < 1 or n0 > lattice.left_len:
        raise ValueError(f"n0 must be in 1..left_len, got {n0}")
    factor = np.zeros((lattice_dim(center, lattice), n0), dtype=complex)
    for col, j in enumerate(range(1, n0 + 1)):
        factor[site_to_index(lattice, -j, center), col] = 1.0
    return factor, np.full(n0, 1.0 / n0)


def split_probability(p: np.ndarray, center_span: tuple[int, int]):
    """(left lead, center, right lead) probability sums of one frame, or of
    each row of a T x N frame array."""
    start, stop = center_span
    return (
        p[..., :start].sum(axis=-1),
        p[..., start:stop].sum(axis=-1),
        p[..., stop:].sum(axis=-1),
    )


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
    frames: np.ndarray,
    center_span: tuple[int, int],
    reference_frames: np.ndarray | None = None,
) -> TransitMetrics:
    """Reflected/transmitted norms, gain, and shape distortion after transit.

    ``frames`` is a T x N probability array, row i at time i. The final row
    is split at the center; gain is transmitted/incident.
    Distortion is the minimum over integer shifts |shift| <= _MAX_SHIFT and a
    free non-negative scale of the L2 distance between the transmitted profile
    and the reference run's transmitted profile, normalized by the L2 norm of
    the incident profile. Passing reference_frames=None self-compares (zero
    distortion), which only checks the plumbing.

    Raises BoundaryContaminationError if any frame puts more than BOUNDARY_TOL
    probability on an outermost lead site.
    """
    if len(frames) == 0:
        raise ValueError("need at least one frame")
    check_boundaries(frames)
    if reference_frames is None:
        reference_frames = frames
    if len(reference_frames) != len(frames):
        raise ValueError("reference run must cover the same frame instants")

    incident = float(frames[0].sum())
    left, _, right = map(float, split_probability(frames[-1], center_span))
    gain = right / incident

    target = frames[-1, center_span[1] :]
    ref = reference_frames[-1, center_span[1] :]
    norm0 = float(np.linalg.norm(frames[0]))
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


def check_boundaries(frames: np.ndarray) -> float:
    """Worst probability seen on an outermost lead site across the rows of a
    T x N frame array; raises when it exceeds BOUNDARY_TOL."""
    worst = float(frames[:, [0, -1]].max())
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


def write_frames(path, frames: np.ndarray) -> None:
    """Frame export: one .npy file holding the T x N float64 frame array, row
    i at time i, columns in site order. Exact, and byte-identical on rerun
    (np.save writes no timestamp); the axes go to :func:`write_frames_axes`."""
    np.save(path, frames, allow_pickle=False)


# The names perfbench/tracing.py wraps; they exist only for that tracer.
write_frames_csv = write_frames
evolve_density = density_profile_series = Propagator.frames


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
