"""Closed-form scattering amplitudes for the three center types.

Plane-wave scattering states on the leads (momentum k in (0, pi), energy
E_k = -2 cos k) are matched through the center, giving the reflection and
transmission amplitudes r_k, t_k in closed form. At the spectral-singularity
locus (dimer with mu*nu = -1, k = pi/2) the amplitudes have a simple pole;
results there carry an explicit divergence flag instead of floating-point
infinities leaking out of arithmetic.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .lattice import (
    ALPHA,
    BETA,
    MINUS,
    PLUS,
    AsymmetricDimer,
    CenterSpec,
    Interferometer,
    LatticeSpec,
    OnSitePotential,
    as_dimer,
    build_hamiltonian,
    site_order,
)
from .transforms import ALPHA_BETA_BLOCK

LEFT = "left"
RIGHT = "right"

#: |denominator| below this is treated as an exact pole of r_k, t_k.
SINGULAR_DENOM_TOL = 1e-9


def _check_k(k: float) -> None:
    if not (0.0 < k < math.pi):
        raise ValueError(f"momentum k must lie in (0, pi), got {k!r}")


def _check_incidence(incidence: str) -> None:
    if incidence not in (LEFT, RIGHT):
        raise ValueError(f"incidence must be 'left' or 'right', got {incidence!r}")


def dispersion(k: float) -> float:
    """Lead band energy E_k = -2 cos k."""
    return -2.0 * math.cos(k)


@dataclass(frozen=True)
class ScatteringAmplitudes:
    """Reflection/transmission amplitudes and coefficients at one momentum.

    ``diverges`` marks a simple pole; then r and t are None and T, R are
    math.inf.
    """

    k: float
    incidence: str
    r: complex | None
    t: complex | None
    T: float
    R: float
    diverges: bool = False


def _amplitudes(k: float, incidence: str, r: complex, t: complex) -> ScatteringAmplitudes:
    return ScatteringAmplitudes(
        k=k, incidence=incidence, r=r, t=t, T=abs(t) ** 2, R=abs(r) ** 2
    )


def _diverging(k: float, incidence: str) -> ScatteringAmplitudes:
    return ScatteringAmplitudes(
        k=k,
        incidence=incidence,
        r=None,
        t=None,
        T=math.inf,
        R=math.inf,
        diverges=True,
    )


def dimer_amplitudes(
    dimer: AsymmetricDimer, k: float, incidence: str = LEFT
) -> ScatteringAmplitudes:
    """Amplitudes of the asymmetric dimer.

    Left incidence: r = (1 - mu*nu) / (mu*nu - e^{-2ik}),
    t = nu (1 - e^{-2ik}) / (mu*nu - e^{-2ik}); right incidence swaps nu -> mu
    in t (r depends only on the product mu*nu).
    """
    _check_k(k)
    _check_incidence(incidence)
    denom = dimer.product - cmath.exp(-2j * k)
    if abs(denom) < SINGULAR_DENOM_TOL:
        return _diverging(k, incidence)
    r = (1.0 - dimer.product) / denom
    forward = dimer.nu if incidence == LEFT else dimer.mu
    t = forward * (1.0 - cmath.exp(-2j * k)) / denom
    return _amplitudes(k, incidence, r, t)


def onsite_amplitudes(v: complex, k: float, incidence: str = LEFT) -> ScatteringAmplitudes:
    """Amplitudes of a single on-site potential; independent of incidence.

    t = 2i sin k / (2i sin k - v), r = v / (2i sin k - v).
    """
    _check_k(k)
    _check_incidence(incidence)
    v = complex(v)
    denom = 2j * math.sin(k) - v
    if abs(denom) < SINGULAR_DENOM_TOL:
        return _diverging(k, incidence)
    t = 2j * math.sin(k) / denom
    r = v / denom
    return _amplitudes(k, incidence, r, t)


def amplitudes_for_center(
    center: CenterSpec, k: float, incidence: str = LEFT
) -> ScatteringAmplitudes:
    """Dispatch to the closed form matching the center type.

    Interferometers are handled through their dimer reduction and therefore
    require phi = pi/4 (`as_dimer` raises otherwise).
    """
    if isinstance(center, OnSitePotential):
        return onsite_amplitudes(center.v, k, incidence)
    return dimer_amplitudes(as_dimer(center), k, incidence)


def amplification_coefficient(dimer: AsymmetricDimer, k: float, incidence: str = LEFT) -> float:
    """Transmitted-over-incident norm ratio |t_k|^2 at resonance (mu*nu = 1).

    Equals nu^2 for left incidence (mu^2 for right) independently of k.
    Raises when called off the resonance locus.
    """
    if not dimer.is_resonant():
        raise ValueError(
            f"amplification coefficient requires mu*nu = 1, got {dimer.product!r}"
        )
    return dimer_amplitudes(dimer, k, incidence).T


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


def assemble_scattering_state(
    center: CenterSpec, lattice: LatticeSpec, k: float, incidence: str = LEFT
) -> np.ndarray:
    """Sample the plane-wave scattering solution on a finite lattice.

    The returned vector solves (H - E_k) psi = 0 on every site except the two
    outermost lead sites, where the truncation injects/extracts the wave.
    Interferometer centers are handled by rotating the dimer-basis solution
    into the gain/loss basis.
    """
    _check_incidence(incidence)
    amps = amplitudes_for_center(center, k, incidence)
    if amps.diverges:
        raise ValueError("cannot assemble a diverging scattering state")
    r, t = amps.r, amps.t

    order = site_order(center, lattice)
    psi = np.zeros(len(order), dtype=complex)

    def incoming(j: int) -> complex:
        return cmath.exp(1j * k * j) + r * cmath.exp(-1j * k * j)

    if isinstance(center, OnSitePotential):
        for i, site in enumerate(order):
            if site == 0:
                psi[i] = 1.0 + r
            elif incidence == LEFT:
                psi[i] = incoming(site) if site <= -1 else t * cmath.exp(1j * k * site)
            else:
                psi[i] = incoming(-site) if site >= 1 else t * cmath.exp(-1j * k * site)
        return psi

    # dimer-basis center amplitudes (left incidence; mirrored for right)
    f_near, f_far = 1.0 + r, t * cmath.exp(1j * k)
    for i, site in enumerate(order):
        if isinstance(site, int):
            towards = site if incidence == LEFT else -site
            if towards <= -1:
                psi[i] = incoming(towards)
            else:
                psi[i] = t * cmath.exp(1j * k * (towards + 1))
    if isinstance(center, AsymmetricDimer):
        a = order.index(ALPHA)
        b = order.index(BETA)
        psi[a], psi[b] = (f_near, f_far) if incidence == LEFT else (f_far, f_near)
        return psi

    # interferometer: rotate (alpha, beta) amplitudes into the (plus, minus) basis
    f_ab = np.array(
        [f_near, f_far] if incidence == LEFT else [f_far, f_near], dtype=complex
    )
    f_pm = ALPHA_BETA_BLOCK @ f_ab
    p = order.index(PLUS)
    m = order.index(MINUS)
    psi[p], psi[m] = f_pm[0], f_pm[1]
    return psi


def scattering_residual(
    center: CenterSpec, lattice: LatticeSpec, k: float, incidence: str = LEFT
) -> float:
    """Max |(H - E_k) psi| over interior sites for the assembled state.

    The two outermost lead sites are excluded: that is where the finite
    truncation sources the incident wave.
    """
    ham = build_hamiltonian(center, lattice)
    psi = assemble_scattering_state(center, lattice, k, incidence)
    resid = ham.matrix @ psi - dispersion(k) * psi
    return float(np.max(np.abs(resid[1:-1])))


def sweep_rows(
    center: CenterSpec, ks, incidence: str = LEFT
) -> list[ScatteringAmplitudes]:
    if isinstance(center, Interferometer):
        center = as_dimer(center)  # reduce once, not once per row
    return [amplitudes_for_center(center, float(k), incidence) for k in ks]


def write_sweep_csv(path, rows) -> None:
    """Write a sweep table: k, Re r, Im r, Re t, Im t, T, R.

    Diverging rows carry empty amplitude cells and inf coefficients.
    """
    with open(path, "w") as fh:
        fh.write("k,re_r,im_r,re_t,im_t,T,R\n")
        for row in rows:
            if row.diverges:
                fh.write(f"{row.k!r},,,,,inf,inf\n")
            else:
                fh.write(
                    f"{row.k!r},{row.r.real!r},{row.r.imag!r},"
                    f"{row.t.real!r},{row.t.imag!r},{row.T!r},{row.R!r}\n"
                )
