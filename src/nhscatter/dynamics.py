"""Initial states, non-unitary time evolution, and Dirac-probability output.

A state is its complex N-vector in ``site_order(center, lattice)`` and
evolves as psi(t) = e^{-iHt} psi(0). An equal-weight mixture of r states,
rho = V V^dag / r, is the N x r block V of its states: rho(t) = e^{-iHt}
rho(0) e^{+iH^dag t} is V <- e^{-iHt} V, and its total probability is the
sum of the block's frame row over its cases and sites, divided by r. The
Dirac probability p(j,t) and its total P(t) are not conserved when H is
non-Hermitian; they are the primary observables here.

Every run goes through one stream, Propagator.frame_rows(start, times),
which yields the frame at each time as soon as it is stepped: the site
profile of an N-vector, a float64 N-row whose sum is P(t); an r x N row for
an N x r block of independent cases that share H, case j in row j. Each row
is a new C-ordered array, so a sum over its sites reduces in the order it
does on the collected array, and split_probability of a streamed row equals
that of the array's row bit for bit (a transposed view would reduce in
another order). Propagator.frames collects the stream into the T x N (or
T x r x N) array; a scenario that would hold T x r x N values instead
consumes the rows one by one, writing each to write_frames, whose file gets
the .npy header of the whole array first, and keeps the first and last rows
that transit_metrics reads. A block steps as one, each column exactly as it
would alone, through one loop, Propagator._evolve: the truncated-Taylor
action of e^{-iH dt} on H's five diagonals (Al-Mohy & Higham, SIAM J. Sci.
Comput. 33:488, 2011), with one (degree, scaling) plan per distinct time
step from the exact 1-norms of the powers A^p, A = -iH dt, p = 2..9. These
are read from A^p applied to 37 probe columns, each the sum of every 37th unit
vector, whose images stay apart because A^p has no entry further than 18
from its diagonal. No N x N exponential is formed, and no eigenvectors are
needed, so it stays accurate arbitrarily close to the spectral singularity,
where eigenvector matrices become ill-conditioned. Every product, of states
and of probes, runs in NumPy on the diagonals by one kernel (BandedOperator)
with the bits of SciPy's CSR products, so stepping imports no SciPy: the lead
rows, whose entries are h and +-h, take one multiply z = h x and one add or
subtract of z's shifted spans, and only the rows off that pattern (at most
six, around the center) are recomputed. Each product is bound once to fixed
arrays, its Taylor term's factor 1/j folded into its entries, so a term is
one product and one add on persistent 64-byte-aligned buffers (see
BandedOperator.bind). Where -iH is real in the quarter-turn gauge psi_n =
(-i)^n phi_n, as for every dimer chain (real bonds between neighbouring
indices, imaginary on-site entries), the Propagator holds that real
generator, a run steps the live real and imaginary parts of phi in real
arithmetic, with the complex loop's bits, and frames square those parts.
"""

import json
import math
import operator
import warnings
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .lattice import (
    ALPHA,
    BAND_OFFSETS,
    BETA,
    AsymmetricDimer,
    CenterSpec,
    HamiltonianMatrix,
    LatticeSpec,
    lattice_dim,
    site_order,
    site_to_index,
)
from .transforms import _fsum, _libm, _times


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
        # the packet's exponent takes lam**2, which overflows past ~1.3e154
        if not (self.lam > 0 and math.isfinite(self.lam * self.lam)):
            raise ValueError(
                f"packet width parameter lam must be positive with a finite square, "
                f"got {self.lam!r}"
            )
        if not math.isfinite(self.k0):
            raise ValueError("central momentum must be finite")


def gaussian_packet(
    lattice: LatticeSpec, spec: WavePacketSpec, center: CenterSpec
) -> np.ndarray:
    """Unit-norm Gaussian packet on the lead sites (zero on the center), as
    complex amplitudes in ``site_order(center, lattice)``.

    Raises if the 5-sigma support (sigma = 1/lam in amplitude) would be
    clipped by the lead ends.
    """
    sigma = 1.0 / spec.lam
    lo, hi = spec.site - 5.0 * sigma, spec.site + 5.0 * sigma
    if lo < -lattice.left_len or hi > lattice.right_len:
        raise ValueError(
            f"packet at site {spec.site} with 5 sigma = {5.0 * sigma:.1f} is clipped "
            f"by the lead ends [-{lattice.left_len}, {lattice.right_len}]"
        )
    # each lead site j gets e^{-lam^2 (j - site)^2 / 2} (cos k0 j + i sin k0 j),
    # through libm and in the order of a scalar complex product, as cmath
    # would evaluate it site by site
    n = lattice_dim(center, lattice)
    leads = np.r_[: lattice.left_len, n - lattice.right_len : n]
    sites = np.r_[-lattice.left_len : 0, 1 : lattice.right_len + 1]
    gauss = _libm(math.exp, -0.5 * spec.lam**2 * ((sites - spec.site) ** 2))
    phase = spec.k0 * sites
    amp = np.zeros(n, dtype=complex)
    amp.real[leads], amp.imag[leads] = _times(
        gauss, 0.0, _libm(math.cos, phase), _libm(math.sin, phase)
    )
    norm = math.sqrt(_fsum(np.square(amp.view(float))))  # re^2 and im^2 of each site
    if norm == 0.0:
        raise ValueError(
            f"packet has no weight on the lead sites (site {spec.site}, lam {spec.lam!r})"
        )
    return amp / norm


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
#: Banded products one step may take (minutes at N ~ 10^3): the work grows
#: linearly in dt, so a step of, say, 1e20 would otherwise never finish.
_MAX_PRODUCTS = 10**7


def _power_norms(a: np.ndarray) -> dict[int, float]:
    """{p: ||A^p||_1} for p = 2.._P_MAX + 1, with A given by its five
    diagonals (HamiltonianMatrix.bands).

    A^p e_j lies within reach = 2 (_P_MAX + 1) rows of j, so the columns e_j
    with j = c (mod W), W = 2 reach + 1, share one probe column c of P: their
    images under every power are disjoint (Curtis, Powell & Reid, IMA J.
    Appl. Math. 13:117, 1974). The probes ping-pong between two arrays by two
    BandedOperator.bind products, the kernel that steps the states, and each
    entry (i, c) of |A^p P| is summed into its column j, the one with j = c
    (mod W) and |i - j| <= reach, rows ascending.
    """
    operator, n = BandedOperator(a), a.shape[1]
    reach = BAND_OFFSETS[-1] * (_P_MAX + 1)
    width = 2 * reach + 1
    rows, probes = np.arange(n)[:, None], np.arange(width)
    owner = np.clip(probes + width * ((rows - probes + reach) // width), 0, n - 1)
    probe = (rows % width == probes).astype(a.dtype)
    spare, norms = np.empty_like(probe), {}
    products = operator.bind(spare, probe), operator.bind(probe, spare)
    with np.errstate(over="ignore", invalid="ignore"):
        for p in range(1, _P_MAX + 2):
            power = products[p % 2]()
            if p > 1:
                norms[p] = float(np.bincount(owner.ravel(), np.abs(power).ravel(), n).max())
    return norms


def _taylor_plan(a: np.ndarray) -> tuple[int, int]:
    """Degree m and scaling s for e^A by Al-Mohy & Higham eq. (3.11), with A
    given by its five diagonals (HamiltonianMatrix.bands).

    alpha_p = max(d_p, d_{p+1}) with the exact d_p = ||A^p||_1^{1/p} of the
    banded powers, p = 2..9 (_power_norms, from probe columns of A); a
    chain's ||A||_1 can far exceed its alpha_p (a dimer with mu = 10), which
    would overstate the work. Returns the m minimizing the number of products
    m * ceil(alpha_p / theta_m) over p(p-1) <= m+1, and s = ceil(alpha_p /
    theta_m).
    """
    d = {p: norm ** (1.0 / p) for p, norm in _power_norms(a).items()}
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


def _aligned(shape: tuple, dtype, allocate=np.empty) -> np.ndarray:
    """``allocate(shape, dtype)`` (np.empty or np.zeros) on a 64-byte boundary,
    one AVX-512 vector: malloc promises 16, and the products' SIMD loops run
    slower off 64."""
    raw = allocate(math.prod(shape) * np.dtype(dtype).itemsize + 64, np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start : start + raw.size - 64].view(dtype).reshape(shape)


class BandedOperator:
    """An N x N matrix held as its nonzero diagonals, applied to an N-vector
    or an N x r block with the bits of a CSR product (up to the sign of zero):
    ``bind(x, out)`` fixes the arrays of a product that runs many times,
    ``apply(x, out)`` runs one.

    ``diagonals[j, i]`` is M[i, i + offsets[j]], offsets ascending. Row i of
    a product sums its terms from zero in ascending column order, as a CSR row
    does. A chain's lead rows hold only M[i, i + 1] = h and M[i, i - 1] =
    sigma h, sigma = +-1, h read from the first row and sigma from the last.
    Negation is exact, so such a row is z[i + 1] + sigma z[i - 1] with z = h x
    bit for bit: the block, read flat and N * r long, is multiplied by h once
    into the interior of a zero-padded buffer, whose spans shifted by -+r are
    then added or subtracted; the zero pads give the end rows. A term whose
    entry is real or imaginary is exact in any evaluation, but NumPy's SIMD
    complex multiply may fuse the two products of an entry with both parts
    nonzero, so such an h does not count (it is taken as 0). Every row off
    the pattern (a center's, one with an entry on offsets 0 or +-2, or one
    holding an entry with both parts nonzero) is recomputed by the scalar
    product (a_re x_re - a_im x_im, a_re x_im + a_im x_re), term by term in
    column order.
    """

    def __init__(self, bands: np.ndarray):
        n = bands.shape[1]
        keep = np.flatnonzero((bands != 0).any(axis=1))
        self.offsets = [int(k) + BAND_OFFSETS[0] for k in keep]
        self.diagonals = bands[keep]
        self.dtype, self.shape = bands.dtype, (n, n)
        h, last = bands[3, 0], bands[1, -1]  # M[0, 1] and M[N - 1, N - 2]
        sigma = 1 if last == h else -1
        if (h.real and h.imag) or last != sigma * h:
            h = 0 * h  # no pattern: every row with an entry is recomputed
        lead = np.zeros_like(bands)
        lead[3, :-1], lead[1, 1:] = h, sigma * h
        self._lead = h, np.add if sigma == 1 else np.subtract
        self._rows = np.flatnonzero((bands != lead).any(axis=0))
        self._layouts = {}

    def _layout(self, r: int, dtype) -> tuple:
        """The padded buffer of z = h x, and the flat indices, entries and
        scratch arrays of the recomputed rows, of the products on an N x r
        block of ``dtype``, built once per (r, dtype)."""
        key = (r, dtype)
        if key not in self._layouts:
            n, rows = self.shape[0], self._rows
            padded = _aligned(((n + 2) * r,), dtype, np.zeros)  # the pads are never written
            cols = np.clip(rows + np.c_[self.offsets], 0, n - 1)  # out of range: entry 0
            flat = (cols[..., None] * r + np.arange(r)).reshape(len(cols), -1)
            entries = np.repeat(self.diagonals[:, rows], r, axis=1)
            parts = [entries.real.astype(dtype)]  # in x's dtype: no cast per product
            if entries.dtype.kind == "c":
                parts.append(1j * entries.imag)
            targets = (rows[:, None] * r + np.arange(r)).reshape(-1)
            patch = targets, flat, parts, np.empty((3, *flat.shape), dtype)  # x, terms, sums
            self._layouts[key] = padded, patch
        return self._layouts[key]

    def bind(self, x: np.ndarray, out: np.ndarray, factor: float = 1.0):
        """``out`` = (factor M) @ x as a call without arguments that returns
        ``out``, for C-ordered arrays of one shape, x's first axis N and out
        of the product's dtype. Every flat view and shifted span is taken
        here, once, and the real ``factor`` multiplied into h and the
        recomputed entries, as into a CSR matrix's, so a call runs only ufuncs
        on fixed arrays. Calls bound to one (r, dtype) share scratch."""
        r = x.size // self.shape[0]
        padded, (targets, flat, parts, (g, terms, sums)) = self._layout(r, out.dtype)
        (h, combine), xf, yf, end = self._lead, x.reshape(-1), out.reshape(-1), padded.size
        parts = [part * factor for part in parts]
        calls = [
            partial(np.multiply, xf, h * factor, padded[r : end - r]),
            partial(combine, padded[2 * r :], padded[: end - 2 * r], yf),
        ]
        if targets.size:
            calls.append(partial(xf.take, flat, None, g, "clip"))
            calls.append(partial(np.multiply, parts[0], g, terms))
            for part in parts[1:]:  # the imaginary part: a_re x + (i a_im) x
                calls += [partial(np.multiply, part, g, sums), partial(np.add, terms, sums, terms)]
            # accumulate adds one term at a time, in column order (a reduce
            # may sum pairwise)
            calls.append(partial(np.add.accumulate, terms, 0, None, sums))
            calls.append(partial(yf.put, targets, sums[-1]))

        def product() -> np.ndarray:
            for call in calls:
                call()
            return out

        return product

    def apply(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out`` = M @ x, once: ``bind(x, out)()``."""
        return self.bind(x, out)()


#: i^p for p = 0..3: the gauge's quarter turns, exact in floating point
_QUARTER_TURNS = np.array([1, 1j, -1, -1j])
#: i^-k for the offsets k of the bands: the gauge's turn of a band's entries
_BAND_TURNS = _QUARTER_TURNS[np.negative(BAND_OFFSETS) % 4, None]


class TaylorStep:
    """e^A for A = -iH dt, applied as ``step @ b`` without forming e^A.

    ``a`` is A on the five diagonals of HamiltonianMatrix.bands, real when
    the Propagator holds -iH in the quarter-turn gauge. ``step @ b`` takes
    ``scaling`` substeps b <- sum_{j<=degree} (A/s)^j b / j!, each summing all
    ``degree`` terms (the backward-error bound of the plan holds for the full
    degree), with ``operator`` = A/s as a BandedOperator, in the common dtype
    of b and A, so a complex b is never cast to real. Deterministic: no random
    norm estimate, so reruns are bit-identical.

    Per (shape, dtype) of b, the step keeps three 64-byte-aligned arrays, the
    even and odd terms and the running sum, and one product per term j, bound
    from term j - 1 into the other array with 1/j folded in, so a term is one
    product and one add; ``step @ b`` returns a copy of the sum, never a buffer.
    """

    def __init__(self, a: np.ndarray, dt: float):
        self.dt = dt
        self._series = {}
        self.degree, self.scaling = _taylor_plan(a)
        # by the reciprocal, as a CSR matrix is divided
        self.operator = BandedOperator(a * (1 / self.scaling))

    def __matmul__(self, b: np.ndarray) -> np.ndarray:
        key = b.shape, np.result_type(b, self.operator.dtype)
        if key not in self._series:
            # term j: (A/s)/j times term j - 1, into the buffer that one is not
            even, odd, total = (_aligned(*key) for _ in range(3))
            pairs = (odd, even), (even, odd)
            terms = [self.operator.bind(*pairs[j % 2], 1.0 / j) for j in range(1, self.degree + 1)]
            self._series[key] = even, total, terms
        even, total, terms = self._series[key]
        total[...] = b
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(self.scaling):
                even[...] = total
                for term in terms:
                    total += term()
        if not np.all(np.isfinite(total)):
            raise PropagatorError(
                f"propagator for dt={self.dt} overflowed; "
                "spectral growth too large for this step"
            )
        return total.copy()


class Propagator:
    """Builds and applies e^{-iH dt} for one H: one step plan per distinct step.

    H's diagonals are scaled once by -i, and each distinct dt gets one
    `TaylorStep`, whose application costs degree x scaling banded products.
    A step within a relative STEP_RTOL (1e-12) of a step already seen reuses
    the plan built for that first step, so a grid n*dt costs a single plan
    although its float differences vary in the last digits.

    The generator is -iH in the quarter-turn gauge, G^-1 (-iH) G with G =
    diag((-i)^n) over the matrix index n, when that is real: the entry at
    offset k carries i^-k, so it is real for every real chain whose bonds
    join neighbouring indices and whose on-site entries are imaginary (every
    dimer chain and an imaginary on-site center). A run then turns its start
    into phi = G^-1 psi once, steps the parts of phi that are not all zero
    as real columns, squares frames from them and turns phi back into psi
    only in states(). A quarter turn only swaps and negates components, so
    each product and sum equals the complex loop's up to the sign of zero.
    Other chains (an interferometer, a complex on-site center) step psi by -iH.
    """

    def __init__(self, ham: HamiltonianMatrix):
        self.ham = ham
        self._generator = -1j * ham.bands
        self._turns = None
        gauged = self._generator * _BAND_TURNS  # i^-k on offset k
        if not np.any(gauged.imag):
            self._generator = gauged.real
            n = np.arange(ham.dim) % 4  # phi = i^n psi and psi = (-i)^n phi
            self._turns = _QUARTER_TURNS[n, None], _QUARTER_TURNS[-n, None]
        self._cache: dict[float, TaylorStep] = {}

    def step_matrix(self, dt: float) -> TaylorStep:
        """The step by dt, which acts on phi, not psi, when -iH is gauged."""
        for seen, u in self._cache.items():
            if math.isclose(dt, seen, rel_tol=STEP_RTOL):
                return u
        u = TaylorStep(self._generator * dt, dt)
        self._cache[dt] = u
        return u

    def _evolve(self, start: np.ndarray, times) -> tuple:
        """The live mask of the re and im parts of ``start``'s columns, and an
        iterator of new arrays stepped to each time from the one before: psi,
        or in the gauge the real N x L block of phi's live (nonzero) parts."""
        x = np.array(start, dtype=complex)
        if x.shape[0] != self.ham.dim:
            raise ValueError(
                f"initial dimension {x.shape[0]} does not match H dim {self.ham.dim}"
            )
        times, live = _check_times(times), np.ones(2 * x[0].size, bool)
        if self._turns is not None:
            parts = np.multiply(x.reshape(len(x), -1), self._turns[0], order="C").view(float)
            live = parts.any(axis=0)
            x = parts[:, live].copy()  # in C order, where products are faster

        def steps(x, prev_t=0.0):
            for t in times:
                if t > prev_t:
                    x = self.step_matrix(t - prev_t) @ x
                prev_t = t
                yield x

        return live, steps(x)

    def states(self, start: np.ndarray, times) -> np.ndarray:
        """e^{-iH t_i} start at each time, row i at times[i]: T x N for a
        vector, T x N x r for an N x r block. Only here is phi turned back."""
        live, steps = self._evolve(start, times)
        if self._turns is None:
            return np.array(list(steps))
        phi = np.zeros((self.ham.dim, live.size))  # each step fills its live parts
        psi = [np.multiply(phi.view(complex), self._turns[1]) for phi[:, live] in steps]
        return np.array(psi).reshape(-1, *np.shape(start))

    def frames(self, start: np.ndarray, times) -> np.ndarray:
        """Dirac probabilities, row i at times[i]: T x N |psi_j(t_i)|^2 for an
        N-vector; T x r x N for an N x r block of r independent cases, case j
        at [:, j]. The rows of frame_rows, collected."""
        times, start = _check_times(times), np.asarray(start)
        out = np.empty((times.size, *start.shape[1:], self.ham.dim))
        for i, row in enumerate(self.frame_rows(start, times)):
            out[i] = row
        return out

    def frame_rows(self, start: np.ndarray, times):
        """The rows of ``frames(start, times)`` one at a time, as the steps
        produce them, so no T x r x N array is held: an iterator of new
        C-ordered float64 arrays, (N,) for a vector and (r, N) for a block. C
        order matters: a sum over a row's sites (as in split_probability) then
        reduces in the order it does on a row of ``frames``, so every bit
        agrees. |x|^2 is re*re + im*im, not abs(x)**2 (a complex hypot, whose
        rounding follows the SIMD level), read straight off the stepped parts:
        a quarter turn only swaps and negates re and im, a dead part adds +0."""
        live, steps = self._evolve(start, times)
        # part k is row index[k] of the squares; a dead part's, the last, stays 0
        index = np.where(live, np.cumsum(live) - 1, np.count_nonzero(live)).reshape(-1, 2).T
        squares = np.zeros((np.count_nonzero(live) + 1, self.ham.dim))

        def row(x: np.ndarray) -> np.ndarray:
            squares[:-1] = x.reshape(len(x), -1).view(float).T
            np.multiply(squares, squares, squares)
            p = squares[index[0]]
            p += squares[index[1]]
            return p.reshape(*np.shape(start)[1:], -1)

        return map(row, steps)


def _check_times(times) -> np.ndarray:
    times = np.asarray(list(times), dtype=float)
    if times.size == 0:
        raise ValueError("need at least one time")
    if not np.all(np.isfinite(times)):
        raise ValueError(f"times must be finite, got {times[~np.isfinite(times)]}")
    if times[0] < 0:
        raise ValueError("times must be >= 0")
    if times.size > 1 and np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly ascending")
    return times


def mixed_state_uniform(lattice: LatticeSpec, center: CenterSpec, n0: int) -> np.ndarray:
    """Uniform incoherent mixture (1/n0) sum_j |-j><-j| over sites -1..-n0,
    as its N x n0 block of unit columns e_{-j}, column j - 1 for site -j; the
    mixture is the block's equal-weight sum, so its populations at t = 0 are
    exactly 1/n0.
    """
    if n0 < 1 or n0 > lattice.left_len:
        raise ValueError(f"n0 must be in 1..left_len, got {n0}")
    factor = np.zeros((lattice_dim(center, lattice), n0), dtype=complex)
    for col, j in enumerate(range(1, n0 + 1)):
        factor[site_to_index(lattice, -j, center), col] = 1.0
    return factor


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
    first: np.ndarray, last: np.ndarray, reference: np.ndarray, center_span: tuple[int, int]
) -> TransitMetrics:
    """Reflected/transmitted norms, gain, and shape distortion after transit.

    ``first`` and ``last`` are a run's first and last N-site probability
    frames, ``reference`` the reference run's last frame; the boundaries are
    checked where the frames are streamed. The last frame is split at the
    center; gain is transmitted/incident. Distortion is the minimum over
    integer shifts |shift| <= _MAX_SHIFT and a free non-negative scale of the
    L2 distance between the transmitted profile and the reference run's
    transmitted profile, normalized by the L2 norm of the incident profile.
    The shifts are windows of one zero-padded profile, and each sum over
    sites a NumPy pairwise sum of elementwise products, with no BLAS call.
    """
    incident = float(first.sum())
    left, _, right = map(float, split_probability(last, center_span))
    gain = right / incident

    target = last[center_span[1] :]
    padded = np.pad(reference[center_span[1] :], _MAX_SHIFT)
    # row i is the reference moved by i - _MAX_SHIFT sites, zero-filled
    shifted = np.lib.stride_tricks.sliding_window_view(padded, target.size)[::-1]
    denom, dots = (shifted * shifted).sum(axis=1), (shifted * target).sum(axis=1)
    scale = np.divide(np.maximum(dots, 0.0), denom, out=np.zeros_like(denom), where=denom > 0)
    resid = target - scale[:, None] * shifted
    dist = np.sqrt((resid * resid).sum(axis=1)) / math.sqrt((first * first).sum())
    best = int(np.argmin(dist))
    return TransitMetrics(
        incident=incident,
        reflected=left,
        transmitted=right,
        gain=gain,
        distortion=float(dist[best]),
        shift=best - _MAX_SHIFT,
        scale=float(scale[best]),
    )


def check_boundaries(ends: np.ndarray) -> float:
    """Worst probability seen on an outermost lead site across the T x 2 end
    columns of a run's frames (what a streamed run keeps); raises when it
    exceeds BOUNDARY_TOL."""
    worst = float(ends.max())
    if worst > BOUNDARY_TOL:
        raise BoundaryContaminationError(
            f"probability {worst:.3e} reached a lattice end; enlarge the leads "
            "or shorten the run"
        )
    return worst


class write_frames:
    """Frame export, row by row: ``write_frames(path, (T, N))`` opens one .npy
    file for a T x N float64 frame array, row i at time i, columns in site
    order, and writes its header through np.lib.format; ``write(row)`` then
    appends each row as the stream produces it, so no T x N array is held and
    the bytes equal np.save's of the whole array: exact, and byte-identical
    on rerun (no timestamp). Used as a context manager, or closed by
    ``close()``; either way, a file that did not get exactly T rows is removed
    and the writer raises ValueError, so no well-formed .npy of another shape
    is left. The axes go to :func:`write_frames_axes`."""

    def __init__(self, path, shape: tuple[int, int]):
        self.path, self.shape, self.rows = path, tuple(map(operator.index, shape)), 0
        self._fh = open(path, "wb")
        header = {
            "descr": np.lib.format.dtype_to_descr(np.dtype(float)),
            "fortran_order": False,
            "shape": self.shape,
        }
        np.lib.format.write_array_header_1_0(self._fh, header)

    def write(self, row: np.ndarray) -> None:
        """Append the N-vector ``row`` as the next frame."""
        if self.rows == self.shape[0]:
            self._discard()
            raise ValueError(f"{self.path}: more than the {self.shape[0]} rows of its header")
        row = np.ascontiguousarray(row, dtype=float)
        if row.shape != self.shape[1:]:
            raise ValueError(f"{self.path}: a row of shape {row.shape}, not {self.shape[1:]}")
        self._fh.write(row.data)
        self.rows += 1

    def close(self) -> None:
        """Close the file; with fewer rows than its header names, remove it and
        raise."""
        self._fh.close()
        if self.rows != self.shape[0]:
            self._discard()
            raise ValueError(
                f"{self.path}: {self.rows} rows written, but its header names {self.shape[0]}"
            )

    def _discard(self) -> None:
        self._fh.close()
        Path(self.path).unlink(missing_ok=True)

    def __enter__(self):
        return self

    def __exit__(self, kind, *_) -> None:
        if kind is None:
            self.close()
        else:  # the rows stopped early: leave no file
            self._discard()


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
