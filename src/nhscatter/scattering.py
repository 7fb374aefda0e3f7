"""Closed-form scattering amplitudes for the three center types.

Plane-wave scattering states on the leads (momentum k in (0, pi), energy
E_k = -2 cos k) are matched through the center, giving the reflection and
transmission amplitudes r_k, t_k in closed form, evaluated as arrays: over the
momenta of one center by `amplitude_table`, and over many (center, k) cases at
once for the scattering states, one table per kind of center and side. At the
spectral-singularity locus (dimer with mu*nu = -1, k = pi/2) the amplitudes
have a simple pole, written one way instead of as floating-point infinities
leaking out of arithmetic: ``diverges`` is set, r and t are NaN and T, R inf.
"""

import cmath
import math
from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np

from .dynamics import BandedOperator
from .lattice import (
    ALPHA,
    BETA,
    AsymmetricDimer,
    CenterSpec,
    Interferometer,
    LatticeSpec,
    OnSitePotential,
    as_dimer,
    build_hamiltonian,
    center_sites,
    stack_bands,
)
from .transforms import ALPHA_BETA_BLOCK, _block_times, _libm, _times

LEFT = "left"
RIGHT = "right"

#: |denominator| below this is treated as an exact pole of r_k, t_k.
SINGULAR_DENOM_TOL = 1e-9


def dispersion(k: float) -> float:
    """Lead band energy E_k = -2 cos k."""
    return -2.0 * math.cos(k)


@dataclass(frozen=True)
class SweepTable:
    """Amplitudes and coefficients over momenta k, one array per field in the
    shape of k; a diverging entry has NaN r, t and inf T, R."""

    k: np.ndarray
    incidence: str
    r: np.ndarray
    t: np.ndarray
    T: np.ndarray
    R: np.ndarray
    diverges: np.ndarray

    def __len__(self) -> int:
        return len(self.k)


# The closed forms run on (re, im) float64 arrays in the operation order of
# Python 3.10-3.13 scalar complex arithmetic, so each element equals cmath's
# bit for bit: a float operand is promoted with imaginary part 0.0, a product
# is transforms._times, division is CPython's Smith division, sin/cos and
# |z|^2 = pow(hypot(re, im), 2) libm's.


def quotient(a_re, a_im, b_re, b_im):
    """(a_re + i a_im) / (b_re + i b_im) elementwise, by CPython's division."""
    big_re = np.abs(b_re) >= np.abs(b_im)
    with np.errstate(all="ignore"):  # the branch not taken may overflow or be 0/0
        ratio = np.where(big_re, b_im / b_re, b_re / b_im)
        denom = np.where(big_re, b_re + b_im * ratio, b_re * ratio + b_im)
        re = np.where(big_re, a_re + a_im * ratio, a_re * ratio + a_im) / denom
        im = np.where(big_re, a_im - a_re * ratio, a_im * ratio - a_re) / denom
    return re, im


def _table(k, incidence, denom, r, t) -> SweepTable:
    diverges = np.hypot(*denom) < SINGULAR_DENOM_TOL
    nan = complex(math.nan, math.nan)
    # stacking (re, im) pairs viewed as complex keeps every bit, signed zeros too
    r, t = (np.where(diverges, nan, np.stack(z, axis=-1).view(complex)[..., 0]) for z in (r, t))
    T, R = (_libm(pow, np.hypot(z.real, z.imag), 2) for z in (t, r))
    T[diverges] = R[diverges] = math.inf
    return SweepTable(k, incidence, r, t, T, R, diverges)


def _dimer_table(product, forward, k: np.ndarray, incidence: str) -> SweepTable:
    """Left incidence: r = (1 - mu*nu) / (mu*nu - e^{-2ik}),
    t = nu (1 - e^{-2ik}) / (mu*nu - e^{-2ik}); right incidence swaps nu -> mu
    in t (r depends only on the product mu*nu). ``product`` is mu*nu and
    ``forward`` the hopping into the outgoing lead, floats or arrays in the
    shape of k."""
    phase = -2.0 * k  # e^{-2ik} = cmath.exp((0.0, -2k))
    e_re, e_im = _libm(math.cos, phase), _libm(math.sin, phase)
    denom = product - e_re, 0.0 - e_im
    r = quotient(1.0 - product, 0.0, *denom)
    t = quotient(*_times(forward, 0.0, 1.0 - e_re, 0.0 - e_im), *denom)
    return _table(k, incidence, denom, r, t)


def _forward(dimer: AsymmetricDimer, incidence: str) -> float:
    """The hopping into the outgoing lead: nu for left incidence, mu for right."""
    return float(dimer.nu if incidence == LEFT else dimer.mu)


def _onsite_table(v, k: np.ndarray, incidence: str) -> SweepTable:
    """t = 2i sin k / (2i sin k - v), r = v / (2i sin k - v); independent of
    incidence. ``v`` is a complex or an array in the shape of k."""
    gain = _times(0.0, 2.0, _libm(math.sin, k), 0.0)  # 2i sin k
    denom = gain[0] - v.real, gain[1] - v.imag
    t, r = quotient(*gain, *denom), quotient(v.real, v.imag, *denom)
    return _table(k, incidence, denom, r, t)


def amplitude_table(center: CenterSpec, ks, incidence: str = LEFT) -> SweepTable:
    """Amplitudes at every momentum of ks, as one array evaluation. Each
    field has the shape of ks, so a single momentum gives 0-d fields, read as
    Python scalars by ``.item()``. Interferometers go through their dimer
    reduction and therefore require phi = pi/4 (`as_dimer` raises
    otherwise)."""
    k = _momenta(ks, incidence)
    if isinstance(center, OnSitePotential):
        return _onsite_table(center.v, k, incidence)
    dimer = as_dimer(center)
    return _dimer_table(float(dimer.product), _forward(dimer, incidence), k, incidence)


def _momenta(ks, incidence: str) -> np.ndarray:
    """ks as a float array, checked to lie in (0, pi), for a checked side."""
    if incidence not in (LEFT, RIGHT):
        raise ValueError(f"incidence must be 'left' or 'right', got {incidence!r}")
    k = np.asarray(ks, dtype=float)
    outside = ~((0.0 < k) & (k < math.pi))
    if outside.any():
        raise ValueError(f"momentum k must lie in (0, pi), got {k[outside][0].item()!r}")
    return k


def singular_wavefunction(dimer: AsymmetricDimer, sign: int, site) -> complex:
    """Amplitude of the k = +-pi/2 singular eigenstate at one site.

    The state is e^{i(+-pi/2) j} on the left lead, nu e^{i(-+pi/2)(j+1)} on the
    right lead, 1 at alpha and nu e^{i(-+pi/2)} at beta; it solves the lattice
    eigenproblem at E = 0 exactly when mu*nu = -1. Powers of +-i are evaluated
    in exact complex integer arithmetic.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if not dimer.is_singular():
        raise ValueError(
            f"singular wavefunction requires mu*nu = -1, got {dimer.product!r}"
        )
    unit = 1j * sign
    # unit**4 == 1, so reduce exponents mod 4 to stay in exact integer arithmetic
    if site == ALPHA:
        return complex(1.0)
    if site == BETA:
        return dimer.nu * unit ** ((-1) % 4)
    if isinstance(site, int) and site <= -1:
        return unit ** (site % 4)
    if isinstance(site, int) and site >= 1:
        return dimer.nu * unit ** ((-(site + 1)) % 4)
    raise ValueError(f"site {site!r} is not a lead site or dimer center site")


def _split(x):
    """Veltkamp's split of x into high + low halves of at most 26 bits each, so
    that products of halves are exact."""
    c = 134217729.0 * x  # 2^27 + 1
    high = c - (c - x)
    return high, x - high


def _phases(k: float, n: np.ndarray):
    """(cos, sin) of k n at the integers n, as e^{i k n} = e^{i hi} e^{i lo}
    with k n = hi + lo exactly (Dekker's two-product, Numer. Math. 18:224,
    1971). The rounding of fl(k n) grows with |n|; here the argument is exact,
    and the error stays at the ulp of cos and sin. For |k n| < 2^26, |lo| <=
    ulp(hi) / 2 is below 2^-27, where cos lo rounds to 1 and sin lo to lo, so
    e^{i lo} is 1 + i lo."""
    n = np.asarray(n, dtype=float)
    hi = k * n
    (k_hi, k_lo), (n_hi, n_lo) = _split(k), _split(n)
    lo = ((k_hi * n_hi - hi) + k_hi * n_lo + k_lo * n_hi) + k_lo * n_lo
    return _times(_libm(math.cos, hi), _libm(math.sin, hi), 1.0, lo)


def _case_amplitudes(cases) -> tuple[np.ndarray, np.ndarray]:
    """r and t of each case (center, lattice, k, incidence), as complex
    arrays: the cases of one kind of center and one side share one table,
    each entry equal to its case's `amplitude_table`. Raises if one
    diverges."""
    r, t = np.empty((2, len(cases)), dtype=complex)
    groups = {}
    for i, (center, _, _, incidence) in enumerate(cases):
        groups.setdefault((isinstance(center, OnSitePotential), incidence), []).append(i)
    for (onsite, incidence), index in groups.items():
        k = _momenta([cases[i][2] for i in index], incidence)
        if onsite:
            table = _onsite_table(np.array([cases[i][0].v for i in index]), k, incidence)
        else:
            dimers = [as_dimer(cases[i][0]) for i in index]
            product = np.array([float(dimer.product) for dimer in dimers])
            forward = np.array([_forward(dimer, incidence) for dimer in dimers])
            table = _dimer_table(product, forward, k, incidence)
        if table.diverges.any():
            raise ValueError("cannot assemble a diverging scattering state")
        r[index], t[index] = table.r, table.t
    return r, t


def scattering_states(cases) -> np.ndarray:
    """Sample the plane-wave scattering solution of every case (center,
    lattice, k, incidence) on its finite lattice, end to end, from one array
    evaluation of all their lead sites; each equals its case's state alone.

    For left incidence the state is e^{ikj} + r e^{-ikj} on the incoming
    (left) lead and t e^{ik(j+m-1)} on the outgoing (right) lead, m being the
    number of center sites; the center holds 1 + r when m = 1 and
    (1 + r, t e^{ik}) otherwise. Right incidence is its mirror image, j -> -j
    with the center pair reversed. An interferometer's (alpha, beta) pair is
    rotated into its (plus, minus) sites by ALPHA_BETA_BLOCK. The lead phases
    come from _phases, whose error does not grow with |j|.

    Each state solves (H - E_k) psi = 0 on every site except the two
    outermost lead sites of its lattice, where the truncation injects/extracts
    the wave.
    """
    r, t = _case_amplitudes(cases)
    centers, lattices, ks, incidences = zip(*cases)
    m = np.array([len(center_sites(center)) for center in centers])
    left = np.array([lattice.left_len for lattice in lattices])
    count = left + [lattice.right_len for lattice in lattices]  # lead sites
    mirror = [1 if incidence == LEFT else -1 for incidence in incidences]
    starts = np.cumsum([0, *(count + m)])

    def each(x):  # a value per case, repeated on its lead sites
        return np.repeat(x, count)

    q = np.arange(count.sum()) - each(np.cumsum(count) - count)  # lead site of its case
    after = q >= each(left)  # on the right lead
    # the lead sites read as left incidence: incoming where j < 0
    j = each(mirror) * (q - each(left) + after)
    incoming = j < 0
    c, s = _phases(each(ks), np.where(incoming, j, j + each(m) - 1))
    r_j, t_j = each(r), each(t)
    back_re, back_im = _times(r_j.real, r_j.imag, c, -s)  # r e^{-ikj}
    out_re, out_im = _times(t_j.real, t_j.imag, c, s)  # t e^{ik(j+m-1)}
    psi = np.empty(starts[-1], dtype=complex)
    sites = each(starts[:-1]) + q + after * each(m)
    psi.real[sites] = np.where(incoming, c + back_re, out_re)
    psi.imag[sites] = np.where(incoming, s + back_im, out_im)

    cores = zip(centers, ks, mirror, m, starts[:-1] + left, r.tolist(), t.tolist())
    for center, k, side, size, at, r_c, t_c in cores:
        core = [1.0 + r_c] if size == 1 else [1.0 + r_c, t_c * cmath.exp(1j * k)][::side]
        if isinstance(center, Interferometer):
            core = _block_times(ALPHA_BETA_BLOCK, np.array(core, dtype=complex)[:, None])[:, 0]
        psi[at : at + size] = core
    return psi


def scattering_residuals(cases) -> np.ndarray:
    """Max |(H - E_k) psi| over interior sites of the `scattering_states` of
    each case (center, lattice, k, incidence), as a float64 array. Every H is
    one block of a block-diagonal matrix (`stack_bands`), so all residuals
    come from one banded product, each equal to its case's product alone.

    The two outermost lead sites of each case are excluded: that is where the
    finite truncation sources the incident wave.
    """
    bands, starts = stack_bands([build_hamiltonian(c, lat).bands for c, lat, _, _ in cases])
    psi = scattering_states(cases)
    energy = np.repeat([dispersion(k) for _, _, k, _ in cases], np.diff(starts))
    resid = np.abs(BandedOperator(bands).apply(psi, np.empty_like(psi)) - energy * psi)
    resid[starts[:-1]] = resid[starts[1:] - 1] = 0.0  # the outermost sites
    return np.maximum.reduceat(resid, starts[:-1])


def scattering_residual(
    center: CenterSpec, lattice: LatticeSpec, k: float, incidence: str = LEFT
) -> float:
    """`scattering_residuals` of the one case."""
    return float(scattering_residuals([(center, lattice, k, incidence)])[0])


def sweep_rows(center: CenterSpec, ks, incidence: str = LEFT) -> SweepTable:
    """`amplitude_table` under the name the sweep scenario calls, so that a
    wrapper of it counts the sweep's rows and nothing else."""
    return amplitude_table(center, ks, incidence)


#: rows formatted and written per block, so no file's whole text is held
CSV_BLOCK_ROWS = 1024


def write_sweep_csv(tables) -> None:
    """Write sweep tables, ``{path: SweepTable}``: k, Re r, Im r, Re t, Im t, T, R.

    Diverging rows carry empty amplitude cells (their NaN) and inf
    coefficients. The files are written together, block by block, and within
    a block a column slice is formatted once per distinct bit pattern: left
    and right incidence share k, r and R, and an on-site center's two sides
    are identical.
    """
    formatted = {}  # bit pattern of a column slice -> its cells, for one block

    def cells(values: np.ndarray) -> list[str]:
        key = values.tobytes()
        if key not in formatted:
            formatted[key] = list(map(repr, values.tolist()))
        return formatted[key]

    with ExitStack() as stack:
        files = [(stack.enter_context(open(path, "w")), table) for path, table in tables.items()]
        for fh, _ in files:
            fh.write("k,re_r,im_r,re_t,im_t,T,R\n")
        for start in range(0, max(len(table) for _, table in files), CSV_BLOCK_ROWS):
            block = slice(start, start + CSV_BLOCK_ROWS)
            formatted.clear()
            for fh, table in files:
                r, t = table.r[block], table.t[block]
                columns = (table.k[block], r.real, r.imag, t.real, t.imag,
                           table.T[block], table.R[block])
                text = "\n".join(map(",".join, zip(*map(cells, columns)))) + "\n"
                fh.write(text.replace("nan", ""))  # only a NaN cell formats as nan
