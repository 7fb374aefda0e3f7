"""Independent numerical oracles used by the tests.

These deliberately avoid the closed-form amplitude expressions and the
package propagator: scattering coefficients come from a finite-lattice linear
solve with plane-wave window fits, and time evolution from an adaptive ODE
integrator, a dense eigendecomposition, or dense density-matrix products.
"""

import math

import numpy as np
import scipy.linalg
from scipy.integrate import solve_ivp

from nhscatter.lattice import LatticeSpec, build_hamiltonian, site_to_index

#: lattice sizes tried until the two-port extraction is well conditioned;
#: cavity resonances of the finite system show up as cond ~ 1e13
_SIZE_LADDER = (256, 258, 261, 263, 269, 271, 277, 283)
_COND_LIMIT = 1e6


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
    full = ham.matrix - energy * np.eye(ham.dim)

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
    vals, vecs = np.linalg.eig(ham.matrix)
    coeff = np.linalg.solve(vecs, np.asarray(psi0, dtype=complex))
    return [vecs @ (np.exp(-1j * vals * t) * coeff) for t in np.atleast_1d(times)]


def dense_density_evolve(ham, rho0, times):
    """Full N x N matrices rho <- U rho U^dag, one Pade exponential per step."""
    rho = np.asarray(rho0, dtype=complex)
    out, prev = [], 0.0
    for t in np.atleast_1d(times):
        if t > prev:
            u = scipy.linalg.expm(-1j * ham.matrix * (t - prev))
            rho = u @ rho @ u.conj().T
        out.append(rho)
        prev = t
    return out


def incoherent_sum_probability(ham, lattice, center, n0, times):
    """Total Dirac probability of the uniform mixture over sites -1..-n0,
    evolved state-by-state via eigendecomposition and summed incoherently."""
    vals, vecs = np.linalg.eig(ham.matrix)
    vinv = np.linalg.inv(vecs)
    cols = [site_to_index(lattice, -j, center) for j in range(1, n0 + 1)]
    coeff = vinv[:, cols]
    totals = []
    for t in np.atleast_1d(times):
        evolved = vecs @ (np.exp(-1j * vals * t)[:, None] * coeff)
        totals.append(float(np.sum(np.abs(evolved) ** 2)) / n0)
    return np.array(totals)
