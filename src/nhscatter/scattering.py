"""Closed-form scattering amplitudes for the three center types.

Plane-wave scattering states on the leads (momentum k in (0, pi), energy
E_k = -2 cos k) are matched through the center, giving the reflection and
transmission amplitudes r_k, t_k in closed form. `amplitude_table` is the one
call that evaluates them, as arrays over the momenta it is given. At the
spectral-singularity locus (dimer with mu*nu = -1, k = pi/2) the amplitudes
have a simple pole, written one way instead of as floating-point infinities
leaking out of arithmetic: ``diverges`` is set, r and t are NaN and T, R inf.
"""

import cmath
import math
from contextlib import ExitStack
from dataclasses import dataclass
from itertools import repeat

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
)
from .transforms import ALPHA_BETA_BLOCK, _times

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


def _libm(func, x: np.ndarray, *args) -> np.ndarray:
    """func(x_i, *args) for each element, in Python floats, in the shape of x."""
    values = map(func, x.ravel().tolist(), *map(repeat, args))
    return np.fromiter(values, dtype=float, count=x.size).reshape(x.shape)


def _table(k, incidence, denom, r, t) -> SweepTable:
    diverges = np.hypot(*denom) < SINGULAR_DENOM_TOL
    nan = complex(math.nan, math.nan)
    # stacking (re, im) pairs viewed as complex keeps every bit, signed zeros too
    r, t = (np.where(diverges, nan, np.stack(z, axis=-1).view(complex)[..., 0]) for z in (r, t))
    T, R = (_libm(pow, np.hypot(z.real, z.imag), 2) for z in (t, r))
    T[diverges] = R[diverges] = math.inf
    return SweepTable(k, incidence, r, t, T, R, diverges)


def _dimer_table(dimer: AsymmetricDimer, k: np.ndarray, incidence: str) -> SweepTable:
    """Left incidence: r = (1 - mu*nu) / (mu*nu - e^{-2ik}),
    t = nu (1 - e^{-2ik}) / (mu*nu - e^{-2ik}); right incidence swaps nu -> mu
    in t (r depends only on the product mu*nu)."""
    product, forward = float(dimer.product), float(dimer.nu if incidence == LEFT else dimer.mu)
    phase = -2.0 * k  # e^{-2ik} = cmath.exp((0.0, -2k))
    e_re, e_im = _libm(math.cos, phase), _libm(math.sin, phase)
    denom = product - e_re, 0.0 - e_im
    r = quotient(1.0 - product, 0.0, *denom)
    t = quotient(*_times(forward, 0.0, 1.0 - e_re, 0.0 - e_im), *denom)
    return _table(k, incidence, denom, r, t)


def _onsite_table(v: complex, k: np.ndarray, incidence: str) -> SweepTable:
    """t = 2i sin k / (2i sin k - v), r = v / (2i sin k - v); independent of
    incidence."""
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
    if incidence not in (LEFT, RIGHT):
        raise ValueError(f"incidence must be 'left' or 'right', got {incidence!r}")
    k = np.asarray(ks, dtype=float)
    outside = ~((0.0 < k) & (k < math.pi))
    if outside.any():
        raise ValueError(f"momentum k must lie in (0, pi), got {k[outside][0].item()!r}")
    if isinstance(center, OnSitePotential):
        return _onsite_table(center.v, k, incidence)
    return _dimer_table(as_dimer(center), k, incidence)


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


def assemble_scattering_state(
    center: CenterSpec, lattice: LatticeSpec, k: float, incidence: str = LEFT
) -> np.ndarray:
    """Sample the plane-wave scattering solution on a finite lattice.

    For left incidence the state is e^{ikj} + r e^{-ikj} on the incoming
    (left) lead and t e^{ik(j+m-1)} on the outgoing (right) lead, m being the
    number of center sites; the center holds 1 + r when m = 1 and
    (1 + r, t e^{ik}) otherwise. Right incidence is its mirror image, j -> -j
    with the center pair reversed. An interferometer's (alpha, beta) pair is
    rotated into its (plus, minus) sites by ALPHA_BETA_BLOCK. The lead phases
    come from _phases, whose error does not grow with |j|.

    The returned vector solves (H - E_k) psi = 0 on every site except the two
    outermost lead sites, where the truncation injects/extracts the wave.
    """
    amps = amplitude_table(center, k, incidence)
    if amps.diverges:
        raise ValueError("cannot assemble a diverging scattering state")
    r, t = amps.r.item(), amps.t.item()
    m = len(center_sites(center))
    mirror = 1 if incidence == LEFT else -1

    # the lead sites read as left incidence: incoming where j < 0
    left, right = np.arange(-lattice.left_len, 0), np.arange(1, lattice.right_len + 1)
    j = mirror * np.concatenate([left, right])
    incoming = j < 0
    c, s = _phases(k, np.where(incoming, j, j + m - 1))
    back_re, back_im = _times(r.real, r.imag, c, -s)  # r e^{-ikj}
    out_re, out_im = _times(t.real, t.imag, c, s)  # t e^{ik(j+m-1)}
    leads = np.empty(len(j), dtype=complex)
    leads.real = np.where(incoming, c + back_re, out_re)
    leads.imag = np.where(incoming, s + back_im, out_im)

    core = [1.0 + r] if m == 1 else [1.0 + r, t * cmath.exp(1j * k)][::mirror]
    if isinstance(center, Interferometer):
        core = ALPHA_BETA_BLOCK @ np.array(core, dtype=complex)
    return np.concatenate([leads[: lattice.left_len], core, leads[lattice.left_len :]])


def scattering_residual(
    center: CenterSpec, lattice: LatticeSpec, k: float, incidence: str = LEFT
) -> float:
    """Max |(H - E_k) psi| over interior sites for the assembled state.

    The two outermost lead sites are excluded: that is where the finite
    truncation sources the incident wave.
    """
    ham = build_hamiltonian(center, lattice)
    psi = assemble_scattering_state(center, lattice, k, incidence)
    resid = BandedOperator(ham.bands).apply(psi, np.empty_like(psi)) - dispersion(k) * psi
    return float(np.max(np.abs(resid[1:-1])))


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
