"""Independent numerical oracles used by the tests.

These deliberately avoid the package's closed-form amplitude evaluation and
its propagator: scattering coefficients come from a finite-lattice linear
solve with plane-wave window fits, and time evolution from an adaptive ODE
integrator, a dense eigendecomposition, dense Pade matrix exponentials, or
dense density-matrix products. The closed forms themselves are kept here in
scalar cmath form (`closed_form_amplitudes`), the arithmetic reference the
package's array evaluation must equal bit for bit.
"""

import cmath
import math

import numpy as np
import scipy.linalg
from scipy.integrate import solve_ivp

from nhscatter.lattice import (
    ALPHA,
    BETA,
    MINUS,
    PLUS,
    AsymmetricDimer,
    Interferometer,
    LatticeSpec,
    OnSitePotential,
    as_dimer,
    build_hamiltonian,
    site_order,
    site_to_index,
)
from nhscatter.scattering import SINGULAR_DENOM_TOL, ScatteringAmplitudes

#: lattice sizes tried until the two-port extraction is well conditioned;
#: cavity resonances of the finite system show up as cond ~ 1e13
_SIZE_LADDER = (256, 258, 261, 263, 269, 271, 277, 283)
_COND_LIMIT = 1e6


def dense_hamiltonian(center, lattice):
    """The N x N Hamiltonian filled entry by entry over site labels: lead
    bonds -1, the hard wall's bond set back to 0, then the center entries."""
    n = len(site_order(center, lattice))
    h = np.zeros((n, n), dtype=complex)

    def idx(site):
        return site_to_index(lattice, site, center)

    for j in list(range(-lattice.left_len, -1)) + list(range(1, lattice.right_len)):
        h[idx(j), idx(j + 1)] = h[idx(j + 1), idx(j)] = -1.0
    n0 = lattice.hard_wall_n0
    if n0 is not None and n0 < lattice.left_len:
        h[idx(-(n0 + 1)), idx(-n0)] = h[idx(-n0), idx(-(n0 + 1))] = 0.0
    im1, ip1 = idx(-1), idx(1)
    if isinstance(center, OnSitePotential):
        c = idx(0)
        h[im1, c] = h[c, im1] = h[ip1, c] = h[c, ip1] = -1.0
        h[c, c] = center.v
    elif isinstance(center, Interferometer):
        for sigma, s in ((PLUS, +1.0), (MINUS, -1.0)):
            c = idx(sigma)
            phase = cmath.exp(1j * s * center.phi)
            h[im1, c] = -phase.conjugate() / math.sqrt(2.0)
            h[c, im1] = -phase / math.sqrt(2.0)
            h[ip1, c] = -phase / math.sqrt(2.0)
            h[c, ip1] = -phase.conjugate() / math.sqrt(2.0)
        p, m = idx(PLUS), idx(MINUS)
        h[p, m] = h[m, p] = center.delta
        h[p, p], h[m, m] = 1j * center.gamma, -1j * center.gamma
    elif isinstance(center, AsymmetricDimer):
        a, b = idx(ALPHA), idx(BETA)
        h[im1, a] = h[a, im1] = h[ip1, b] = h[b, ip1] = -1.0
        h[a, b], h[b, a] = -center.mu, -center.nu
    return h


def closed_form_amplitudes(center, k, incidence="left"):
    """r_k, t_k, T, R of a center at one momentum in scalar Python complex
    arithmetic: dimer (or interferometer at flux pi/4, through its dimer)
    r = (1 - mu*nu) / (mu*nu - e^{-2ik}), t = nu (1 - e^{-2ik}) / (mu*nu - e^{-2ik})
    with nu -> mu in t for right incidence; on-site t = 2i sin k / (2i sin k - v),
    r = v / (2i sin k - v). Every float operand of a complex operation is
    written as complex(x, 0.0), the promotion of Python 3.10-3.13, so the
    reference does not depend on how the interpreter mixes the two types
    (3.14 no longer promotes). k must lie in (0, pi)."""
    if isinstance(center, OnSitePotential):
        v = complex(center.v)
        gain = 2j * complex(math.sin(k), 0.0)
        denom = gain - v
        if abs(denom) < SINGULAR_DENOM_TOL:
            return _diverging(k, incidence)
        t = gain / denom
        r = v / denom
    else:
        dimer = as_dimer(center)
        phase = cmath.exp(-2j * complex(k, 0.0))
        denom = complex(dimer.product, 0.0) - phase
        if abs(denom) < SINGULAR_DENOM_TOL:
            return _diverging(k, incidence)
        r = complex(1.0 - dimer.product, 0.0) / denom
        forward = dimer.nu if incidence == "left" else dimer.mu
        t = complex(forward, 0.0) * (complex(1.0, 0.0) - phase) / denom
    return ScatteringAmplitudes(k=k, incidence=incidence, r=r, t=t, T=abs(t) ** 2, R=abs(r) ** 2)


def _diverging(k, incidence):
    return ScatteringAmplitudes(
        k=k, incidence=incidence, r=None, t=None, T=math.inf, R=math.inf, diverges=True
    )


def linear_solve_amplitudes(center, k, n_lead=None):
    """Scattering coefficients from (H - E_k) psi = source on a finite lattice.

    Point sources are injected deep in each lead; the solution is decomposed
    into e^{+-ikj} plane waves on uniform windows of both leads, and the
    two-port relations between incoming and outgoing wave coefficients are
    solved for r and t of both incidence directions. Returns a dict with
    T_left, R_left, T_right, R_right.
    """
    sizes = (n_lead,) if n_lead is not None else _SIZE_LADDER
    last_cond = None
    for size in sizes:
        result, cond = _solve_at_size(center, k, size)
        last_cond = cond
        if cond < _COND_LIMIT:
            return result
    raise RuntimeError(
        f"two-port extraction ill-conditioned at every lattice size (cond {last_cond:.2e})"
    )


def _solve_at_size(center, k, n_lead):
    lattice = LatticeSpec(n_lead, n_lead)
    ham = build_hamiltonian(center, lattice)
    energy = -2.0 * math.cos(k)
    full = ham.matrix.toarray() - energy * np.eye(ham.dim)

    margin = n_lead - 16
    sources = (-margin, margin, -(margin - 5))
    rhs = np.zeros((ham.dim, len(sources)), dtype=complex)
    for col, site in enumerate(sources):
        rhs[ham.site_index(site), col] = 1.0
    psi = np.linalg.solve(full, rhs)

    window_left = np.arange(-(margin - 40), -(margin - 40) + 60)
    window_right = np.arange(margin - 100, margin - 40)

    def fit(window):
        rows = [ham.site_index(int(j)) for j in window]
        basis = np.column_stack([np.exp(1j * k * window), np.exp(-1j * k * window)])
        coef, *_ = np.linalg.lstsq(basis, psi[rows], rcond=None)
        return coef  # row 0: rightward wave, row 1: leftward wave

    toward_r_left, toward_l_left = fit(window_left)
    toward_r_right, toward_l_right = fit(window_right)

    # incoming-at-center coefficients per source: rightward on the left lead,
    # leftward on the right lead; outgoing are the other two.
    incoming = np.column_stack([toward_r_left, toward_l_right])
    cond = np.linalg.cond(incoming)
    r_left, t_right = np.linalg.lstsq(incoming, toward_l_left, rcond=None)[0]
    t_left, r_right = np.linalg.lstsq(incoming, toward_r_right, rcond=None)[0]
    result = {
        "T_left": abs(t_left) ** 2,
        "R_left": abs(r_left) ** 2,
        "T_right": abs(t_right) ** 2,
        "R_right": abs(r_right) ** 2,
    }
    return result, cond


def ode_evolve(ham, psi0, t_final, rtol=1e-11, atol=1e-13):
    """High-order adaptive integration of i dpsi/dt = H psi up to t_final."""
    sol = solve_ivp(
        lambda _t, y: -1j * (ham.matrix @ y),
        (0.0, t_final),
        np.asarray(psi0, dtype=complex),
        method="DOP853",
        rtol=rtol,
        atol=atol,
        t_eval=[t_final],
    )
    if not sol.success:
        raise RuntimeError(f"ODE oracle failed: {sol.message}")
    return sol.y[:, -1]


def eig_evolve(ham, psi0, times):
    """Dense-eigendecomposition evolution, one shot per time."""
    vals, vecs = np.linalg.eig(ham.matrix.toarray())
    coeff = np.linalg.solve(vecs, np.asarray(psi0, dtype=complex))
    return [vecs @ (np.exp(-1j * vals * t) * coeff) for t in np.atleast_1d(times)]


def pade_evolve(ham, psi0, times):
    """Dense stepping psi <- U psi with U = expm(-iH dt) by scaled-and-squared
    Pade, one exponential per distinct step; psi0 may be N or N x k."""
    psi = np.asarray(psi0, dtype=complex)
    out, prev, steps = [], 0.0, {}
    for t in np.atleast_1d(times):
        if t > prev:
            dt = t - prev
            if dt not in steps:
                steps[dt] = scipy.linalg.expm(-1j * ham.matrix.toarray() * dt)
            psi = steps[dt] @ psi
        out.append(psi)
        prev = t
    return out


def dense_density_evolve(ham, rho0, times):
    """Full N x N matrices rho <- U rho U^dag, one Pade exponential per step."""
    rho = np.asarray(rho0, dtype=complex)
    out, prev = [], 0.0
    for t in np.atleast_1d(times):
        if t > prev:
            u = scipy.linalg.expm(-1j * ham.matrix.toarray() * (t - prev))
            rho = u @ rho @ u.conj().T
        out.append(rho)
        prev = t
    return out


def factor_density(dense):
    """The package's (factor, weights) pair of a Hermitian N x N matrix, by
    its eigendecomposition; the eigenvalues that are exactly zero are dropped."""
    weights, factor = scipy.linalg.eigh(np.asarray(dense, dtype=complex))
    keep = weights != 0.0
    return factor[:, keep], weights[keep]


def density_entries(factor, weights):
    """The full N x N matrix V diag(w) V^dag of a factored density matrix."""
    return (factor * weights) @ factor.conj().T


def incoherent_sum_probability(ham, lattice, center, n0, times):
    """Total Dirac probability of the uniform mixture over sites -1..-n0,
    evolved state-by-state via eigendecomposition and summed incoherently."""
    vals, vecs = np.linalg.eig(ham.matrix.toarray())
    vinv = np.linalg.inv(vecs)
    cols = [site_to_index(lattice, -j, center) for j in range(1, n0 + 1)]
    coeff = vinv[:, cols]
    totals = []
    for t in np.atleast_1d(times):
        evolved = vecs @ (np.exp(-1j * vals * t)[:, None] * coeff)
        totals.append(float(np.sum(np.abs(evolved) ** 2)) / n0)
    return np.array(totals)
