"""Independent numerical oracles used by the tests.

These deliberately avoid the package's closed-form amplitude evaluation and
its propagator: scattering coefficients come from a finite-lattice linear
solve with plane-wave window fits, and time evolution from an adaptive ODE
integrator, a dense eigendecomposition, dense Pade matrix exponentials, or
dense density-matrix products. The closed forms themselves are kept here in
scalar cmath form (`closed_form_amplitudes`), the arithmetic reference the
package's array evaluation must equal bit for bit; likewise the Taylor loop in
complex arithmetic throughout on SciPy's CSR (`complex_taylor_step`, planned by
`csr_taylor_plan` from CSR powers), the reference the package's banded NumPy
stepping must equal, real-in-gauge or not, and `operator_csr` for its products.
The three transforms are kept as SciPy sparse products on H's CSR form
(`csr_alpha_beta_rotation`, `coo_biorthogonal_scale`, `csr_parity_blocks`),
the references the package's transforms on H's diagonals must equal. `csr`
builds that CSR form from H's five diagonals; the package holds only the
diagonals and needs no SciPy at run time. Spectra are compared here by dense
eigenvalues (`spectrum`, `spectrum_distance`) and the parity blocks read as
dense arrays in the full lattice (`dense_blocks`, `parity_embedding`,
`embedded_blocks`), the eigenvalue reference for the package's
characteristic-polynomial comparison. That comparison's batched recurrence
must equal the loop over one pair (`pairwise_charpoly_deviation`, on the
diagonals read block by block by `tridiagonal`) bit for bit,
the stacked scattering-state residuals the loop over one state at a time
(`scattering_state`, `state_residual`, `verify_state_residual`), and
`gaussian_packet` its loop over sites (`gaussian_packet_loop`). The package
makes no BLAS or LAPACK call; its shift search and line fit are held to the
BLAS arithmetic they replaced, a loop over shifted copies
(`transit_metrics_loop`, `shift_window`) and LAPACK's `lstsq` (`lstsq_fit`).
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.integrate import solve_ivp
from scipy.optimize import linear_sum_assignment

from nhscatter.dynamics import (
    _MAX_PRODUCTS,
    _MAX_SHIFT,
    _P_MAX,
    _THETA,
    BandedOperator,
    PropagatorError,
    TransitMetrics,
)
from nhscatter.lattice import (
    ALPHA,
    BAND_OFFSETS,
    BETA,
    MINUS,
    PLUS,
    AsymmetricDimer,
    HamiltonianMatrix,
    Interferometer,
    LatticeSpec,
    OnSitePotential,
    as_dimer,
    build_hamiltonian,
    center_sites,
    dense_from_bands,
    lattice_dim,
    site_order,
    site_to_index,
)
from nhscatter.scattering import (
    LEFT,
    RIGHT,
    SINGULAR_DENOM_TOL,
    _phases,
    amplitude_table,
    dispersion,
)
from nhscatter.transforms import ALPHA_BETA_BLOCK, _times

#: lattice sizes tried until the two-port extraction is well conditioned;
#: cavity resonances of the finite system show up as cond ~ 1e13
_SIZE_LADDER = (256, 258, 261, 263, 269, 271, 277, 283)
_COND_LIMIT = 1e6


def dense_hamiltonian(center, lattice):
    """The N x N Hamiltonian filled entry by entry over site labels: lead
    bonds -1, then the center entries."""
    n = len(site_order(center, lattice))
    h = np.zeros((n, n), dtype=complex)

    def idx(site):
        return site_to_index(lattice, site, center)

    for j in list(range(-lattice.left_len, -1)) + list(range(1, lattice.right_len)):
        h[idx(j), idx(j + 1)] = h[idx(j + 1), idx(j)] = -1.0
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


def csr(ham):
    """H's five diagonals as a canonical SciPy CSR array (rows in order, each
    row's columns ascending, no stored zeros), built afresh on each call."""
    stored = ham.bands.T != 0  # row by row, each row's columns ascending
    rows, slots = np.nonzero(stored)
    indptr = np.r_[0, np.cumsum(stored.sum(axis=1))]
    return scipy.sparse.csr_array(
        (ham.bands.T[stored], rows + np.take(BAND_OFFSETS, slots), indptr),
        shape=(ham.dim, ham.dim),
    )


@dataclass(frozen=True)
class ClosedForm:
    """One momentum's closed-form amplitudes; a pole is written as the
    package's tables write it: ``diverges`` set, r and t NaN, T and R inf."""

    k: float
    incidence: str
    r: complex
    t: complex
    T: float
    R: float
    diverges: bool = False


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
    return ClosedForm(k=k, incidence=incidence, r=r, t=t, T=abs(t) ** 2, R=abs(r) ** 2)


def _diverging(k, incidence):
    nan = complex(math.nan, math.nan)
    return ClosedForm(k, incidence, r=nan, t=nan, T=math.inf, R=math.inf, diverges=True)


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
    full = csr(ham).toarray() - energy * np.eye(ham.dim)

    margin = n_lead - 16
    sources = (-margin, margin, -(margin - 5))
    rhs = np.zeros((ham.dim, len(sources)), dtype=complex)
    for col, site in enumerate(sources):
        rhs[site_to_index(lattice, site, center), col] = 1.0
    psi = np.linalg.solve(full, rhs)

    window_left = np.arange(-(margin - 40), -(margin - 40) + 60)
    window_right = np.arange(margin - 100, margin - 40)

    def fit(window):
        rows = [site_to_index(lattice, int(j), center) for j in window]
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
    h = csr(ham)
    sol = solve_ivp(
        lambda _t, y: -1j * (h @ y),
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
    vals, vecs = np.linalg.eig(csr(ham).toarray())
    coeff = np.linalg.solve(vecs, np.asarray(psi0, dtype=complex))
    return [vecs @ (np.exp(-1j * vals * t) * coeff) for t in np.atleast_1d(times)]


def pade_evolve(ham, psi0, times):
    """Dense stepping psi <- U psi with U = expm(-iH dt) by scaled-and-squared
    Pade, one exponential per distinct step; psi0 may be N or N x k."""
    psi, h = np.asarray(psi0, dtype=complex), csr(ham).toarray()
    out, prev, steps = [], 0.0, {}
    for t in np.atleast_1d(times):
        if t > prev:
            dt = t - prev
            if dt not in steps:
                steps[dt] = scipy.linalg.expm(-1j * h * dt)
            psi = steps[dt] @ psi
        out.append(psi)
        prev = t
    return out


def operator_csr(op):
    """A `BandedOperator`'s matrix as a canonical SciPy CSR array (sorted
    indices, no stored zeros), through its dense N x N form."""
    n = op.shape[0]
    dense = np.zeros(op.shape, dtype=op.dtype)
    for k, diagonal in zip(op.offsets, op.diagonals):
        rows = np.arange(max(-k, 0), n - max(k, 0))
        dense[rows, rows + k] = diagonal[rows]
    return scipy.sparse.csr_array(dense)


def csr_taylor_plan(a) -> tuple[int, int]:
    """(degree, scaling) for e^A, A a SciPy sparse matrix, by the rule of
    `dynamics._taylor_plan` with the norms ||A^p||_1 of SciPy's sparse powers."""
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
        raise PropagatorError(f"the step needs {cost:.3e} sparse products")
    return m, max(cost // m, 1)


def complex_taylor_step(ham, dt, b):
    """e^{-iH dt} b by the package's Taylor plan, in complex arithmetic for
    every H and on SciPy's CSR: the operator -iH dt / s, scaled by 1/j for
    term j, and the loop as `TaylorStep` applies them to psi when -iH is not
    real in the quarter-turn gauge. Where it is, a `Propagator` steps the parts of phi_n = i^n psi_n
    as real columns, and must give these values (up to the sign of zero)."""
    a = -1j * csr(ham) * dt
    degree, scaling = csr_taylor_plan(a)
    op = a / scaling
    out = np.asarray(b, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(scaling):
            term, out = out, out.copy()
            for j in range(1, degree + 1):
                term = (op * (1.0 / j)) @ term
                out += term
    return out


def complex_taylor_states(ham, start, times):
    """`complex_taylor_step` over a time grid, row i at times[i]. Each step
    t_i - t_{i-1} is planned on its own, so the grid's steps must be exact
    (a `Propagator` reuses one plan for steps within STEP_RTOL)."""
    x, prev, out = np.array(start, dtype=complex), 0.0, []
    for t in times:
        if t > prev:
            x = complex_taylor_step(ham, t - prev, x)
        prev = t
        out.append(x)
    return np.array(out)


def dense_density_evolve(ham, rho0, times):
    """Full N x N matrices rho <- U rho U^dag, one Pade exponential per step."""
    rho, h = np.asarray(rho0, dtype=complex), csr(ham).toarray()
    out, prev = [], 0.0
    for t in np.atleast_1d(times):
        if t > prev:
            u = scipy.linalg.expm(-1j * h * (t - prev))
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
    vals, vecs = np.linalg.eig(csr(ham).toarray())
    vinv = np.linalg.inv(vecs)
    cols = [site_to_index(lattice, -j, center) for j in range(1, n0 + 1)]
    coeff = vinv[:, cols]
    totals = []
    for t in np.atleast_1d(times):
        evolved = vecs @ (np.exp(-1j * vals * t)[:, None] * coeff)
        totals.append(float(np.sum(np.abs(evolved) ** 2)) / n0)
    return np.array(totals)


def hamiltonian_from_matrix(matrix, center, lattice):
    """H from an N x N dense or sparse matrix whose entries lie on the
    diagonals of BAND_OFFSETS; duplicate sparse entries are summed."""
    h = scipy.sparse.coo_array(matrix, dtype=complex)
    h.sum_duplicates()
    n = lattice_dim(center, lattice)
    if h.shape != (n, n):
        raise ValueError(f"matrix shape {h.shape} does not match lattice dimension {n}")
    stored = h.data != 0
    rows, offsets = h.row[stored], (h.col - h.row)[stored]
    if rows.size and np.abs(offsets).max() > BAND_OFFSETS[-1]:
        raise ValueError(f"matrix has entries off the diagonals {BAND_OFFSETS}")
    bands = np.zeros((len(BAND_OFFSETS), n), dtype=complex)
    bands[offsets - BAND_OFFSETS[0], rows] = h.data[stored]
    return HamiltonianMatrix(bands, center, lattice)


def csr_alpha_beta_rotation(ham):
    """B^dag H B as SciPy CSR products, B = ALPHA_BETA_BLOCK on (plus, minus)
    and the identity elsewhere."""
    start, stop = ham.center_span
    eye = scipy.sparse.identity
    b = scipy.sparse.csr_array(
        scipy.sparse.block_diag((eye(start), ALPHA_BETA_BLOCK, eye(ham.dim - stop)))
    )
    return hamiltonian_from_matrix(
        b.conj().T @ csr(ham) @ b, as_dimer(ham.center), ham.lattice
    )


def coo_biorthogonal_scale(ham):
    """D^-1 H D on H's stored COO entries, H_ij * ((1/d)_i * d_j), with
    d = 1 up to alpha and sqrt(nu/mu) from beta onward."""
    center = ham.center
    d = np.ones(ham.dim, dtype=complex)
    d[site_to_index(ham.lattice, BETA, center):] = cmath.sqrt(complex(center.nu / center.mu, 0.0))
    h = csr(ham).tocoo()
    h.data = h.data * ((1.0 / d)[h.row] * d[h.col])
    return hamiltonian_from_matrix(h, center, ham.lattice)


def csr_parity_blocks(ham):
    """(h_plus, h_minus, cross coupling) of the mirror split of an
    equal-lead two-site chain as CSR products v^T H v, where v_+ and v_-
    weigh the sites -l and +l by (1, 1)/sqrt(2) and (-1, 1)/sqrt(2)."""
    a = ham.center_span[0]
    n = ham.lattice.left_len
    l = np.arange(n + 1)
    where = (np.r_[a - l, a + 1 + l], np.r_[l, l])
    half = np.full(n + 1, 1.0 / math.sqrt(2.0))
    v_plus = scipy.sparse.csr_array((np.r_[half, half], where), shape=(ham.dim, n + 1))
    v_minus = scipy.sparse.csr_array((np.r_[-half, half], where), shape=(ham.dim, n + 1))
    h = csr(ham)
    cross = max(abs(v_plus.T @ h @ v_minus).max(), abs(v_minus.T @ h @ v_plus).max())
    return v_plus.T @ h @ v_plus, v_minus.T @ h @ v_minus, float(cross)


def spectrum(bands):
    """Eigenvalues of the matrix on ``bands`` (laid out as
    HamiltonianMatrix.bands) by a dense complex eigensolve."""
    return np.linalg.eigvals(dense_from_bands(np.asarray(bands, dtype=complex)))


def spectrum_distance(a, b) -> float:
    """Largest distance within the minimum-sum pairing of two eigenvalue
    multisets (lexicographic sorting mispairs conjugate clusters whose real
    parts agree only to rounding). It can exceed the bottleneck distance:
    for {0, 3e^{i theta}} and {0, 3} with sin(theta/2) = 5/6 it is 5, where
    the bottleneck (the least largest distance of any pairing) is 3."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError("spectra must be one-dimensional and of the same size")
    if a.size == 0:
        raise ValueError("spectra must not be empty")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("spectra must be finite (got NaN or inf)")
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def dense_blocks(blocks):
    """(h_plus, h_minus): a BlockDecomposition's blocks as dense arrays."""
    return dense_from_bands(blocks.plus_bands), dense_from_bands(blocks.minus_bands)


def parity_embedding(n, sign):
    """The dense isometry from parity-block coordinates 0..n into the
    2(n + 1) sites of an equal-lead two-site chain: block column l onto the
    sites -l and +l, rows n - l and n + 1 + l, weighed sign/sqrt(2) and
    1/sqrt(2) (sign +1 for the symmetric block, -1 for the antisymmetric)."""
    eye = np.eye(n + 1)
    half = 1.0 / math.sqrt(2.0)
    return np.vstack([sign * half * eye[::-1], half * eye])


def embedded_blocks(blocks):
    """A BlockDecomposition's blocks pushed back into the full lattice as
    dense arrays v h v^T (supported on orthogonal parity sectors, so they
    commute)."""
    n = blocks.plus_bands.shape[1] - 1
    vp, vm = parity_embedding(n, 1.0), parity_embedding(n, -1.0)
    hp, hm = dense_blocks(blocks)
    return vp @ hp @ vp.T, vm @ hm @ vm.T


def tridiagonal(blocks) -> tuple[np.ndarray, np.ndarray, float]:
    """(a, w, reach) of the block-diagonal matrix with these blocks, each
    laid out as HamiltonianMatrix.bands, block by block: its diagonal a_j,
    the coupling products w_j = M[j-1, j] M[j, j-1] (zero at j = 0 and where
    a block starts), and a Gershgorin bound on its spectral radius, the
    largest row sum of |Re| + |Im| >= |.| over the three diagonals. The
    reference for the package's reading of the same values off one stack."""
    a, w, reach = [], [], 0.0
    for bands in blocks:
        bands = np.asarray(bands, dtype=complex)
        if bands.ndim != 2 or bands.shape[0] != len(BAND_OFFSETS) or bands.shape[1] == 0:
            raise ValueError(f"bands must be a non-empty {len(BAND_OFFSETS)} x n array")
        if bands[0].any() or bands[-1].any():
            raise ValueError("matrix is not tridiagonal: entries on diagonals -2 or 2")
        sub, diag, sup = bands[1:4]
        a.append(diag)
        coupling = np.zeros(diag.size, dtype=complex)
        coupling.real[1:], coupling.imag[1:] = _times(
            sup.real[:-1], sup.imag[:-1], sub.real[1:], sub.imag[1:]
        )
        w.append(coupling)
        rows = sum(np.abs(band.real) + np.abs(band.imag) for band in (sub, diag, sup))
        reach = max(reach, float(rows.max()))
    return np.concatenate(a), np.concatenate(w), reach  # ValueError if no blocks


def pairwise_charpoly_deviation(a_blocks, b_blocks) -> float:
    """`charpoly_deviation` of one pair by its own recurrence, the loop the
    batched one must equal bit for bit: p_j and p_{j-1} of A and B as (2, n + 1)
    arrays, a new array from every operation, each step scaled by
    2^-e = ldexp(1, -e)."""
    (a_a, w_a, reach_a), (a_b, w_b, reach_b) = tridiagonal(a_blocks), tridiagonal(b_blocks)
    if a_a.size != a_b.size:
        raise ValueError(f"matrices of different orders: {a_a.size} and {a_b.size}")
    n = a_a.size
    radius = 1.5 * max(reach_a, reach_b) or 1.0
    angles = [2.0 * math.pi * k / (n + 1) for k in range(n + 1)]
    zr, zi = radius * np.array([[math.cos(t) for t in angles], [math.sin(t) for t in angles]])
    a, w = np.stack([a_a, a_b])[:, :, None], np.stack([w_a, w_b])[:, :, None]  # row 0: A
    pr, pi = np.ones((2, n + 1)), np.zeros((2, n + 1))
    qr, qi = np.zeros((2, n + 1)), np.zeros((2, n + 1))
    exponent = np.zeros((2, n + 1), dtype=int)
    for j in range(n):
        nr, ni = _times(a.real[:, j] - zr, a.imag[:, j] - zi, pr, pi)
        tr, ti = _times(w.real[:, j], w.imag[:, j], qr, qi)
        nr, ni = nr - tr, ni - ti
        _, e = np.frexp(np.maximum(np.abs(nr), np.abs(ni)))
        scale = np.ldexp(1.0, -e)
        qr, qi, pr, pi = pr * scale, pi * scale, nr * scale, ni * scale
        exponent += e
    shift = exponent[0] - exponent[1]
    dr, di = np.ldexp(pr[0], shift) - pr[1], np.ldexp(pi[0], shift) - pi[1]
    return float(np.sqrt((dr * dr + di * di) / (pr[1] * pr[1] + pi[1] * pi[1])).max())


def scattering_state(center, lattice, k, incidence=LEFT):
    """`scattering_states` of one case from its own amplitude table
    and lead arrays, the reference for the batched assembly."""
    amps = amplitude_table(center, k, incidence)
    if amps.diverges:
        raise ValueError("cannot assemble a diverging scattering state")
    r, t = amps.r.item(), amps.t.item()
    m = len(center_sites(center))
    mirror = 1 if incidence == LEFT else -1
    left, right = np.arange(-lattice.left_len, 0), np.arange(1, lattice.right_len + 1)
    j = mirror * np.concatenate([left, right])
    incoming = j < 0
    c, s = _phases(k, np.where(incoming, j, j + m - 1))
    back_re, back_im = _times(r.real, r.imag, c, -s)
    out_re, out_im = _times(t.real, t.imag, c, s)
    leads = np.empty(len(j), dtype=complex)
    leads.real = np.where(incoming, c + back_re, out_re)
    leads.imag = np.where(incoming, s + back_im, out_im)
    core = [1.0 + r] if m == 1 else [1.0 + r, t * cmath.exp(1j * k)][::mirror]
    if isinstance(center, Interferometer):
        core = ALPHA_BETA_BLOCK @ np.array(core, dtype=complex)
    return np.concatenate([leads[: lattice.left_len], core, leads[lattice.left_len :]])


def state_residual(center, lattice, k, incidence=LEFT) -> float:
    """`scattering_residual` of one case on its own H and `scattering_state`."""
    ham = build_hamiltonian(center, lattice)
    psi = scattering_state(center, lattice, k, incidence)
    resid = BandedOperator(ham.bands).apply(psi, np.empty_like(psi)) - dispersion(k) * psi
    return float(np.max(np.abs(resid[1:-1])))


def verify_state_residual(seed) -> float:
    """verify's scattering-state battery one state at a time: each case drawn
    and checked in turn by `state_residual`."""
    rng = np.random.default_rng(seed)
    lattice = LatticeSpec(100, 100)
    worst = 0.0
    count = 0
    while count < 20:
        mu, nu = rng.uniform(-2.5, 2.5, size=2)
        k = rng.uniform(0.2, math.pi - 0.2)
        if abs(mu * nu + 1.0) < 0.05:
            continue
        inc = LEFT if count % 2 == 0 else RIGHT
        worst = max(worst, state_residual(AsymmetricDimer(mu, nu), lattice, k, inc))
        count += 1
    count = 0
    while count < 10:
        v = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        k = rng.uniform(0.2, math.pi - 0.2)
        if abs(2j * math.sin(k) - v) < 0.05:
            continue
        worst = max(worst, state_residual(OnSitePotential(v), lattice, k))
        count += 1
    return worst


def gaussian_packet_loop(lattice, spec, center):
    """`gaussian_packet` site by site: math.exp for the envelope and a NumPy
    complex exponential of 1j k0 j for the phase, without its clipping check."""
    order = site_order(center, lattice)
    amp = np.zeros(len(order), dtype=complex)
    for i, site in enumerate(order):
        if isinstance(site, int) and site != 0:
            gauss = math.exp(-0.5 * spec.lam**2 * (site - spec.site) ** 2)
            amp[i] = gauss * np.exp(1j * spec.k0 * site)
    # the norm's sum is correctly rounded, so the order of the sites is moot
    squares = [v for z in amp.tolist() for v in (z.real * z.real, z.imag * z.imag)]
    return amp / math.sqrt(math.fsum(squares))


def shift_window(vec, shift):
    """Shift within the window, zero-filling (no wrap-around)."""
    out = np.zeros_like(vec)
    if shift == 0:
        out[:] = vec
    elif shift > 0:
        out[shift:] = vec[:-shift]
    else:
        out[:shift] = vec[-shift:]
    return out


def transit_metrics_loop(first, last, reference, center_span):
    """`transit_metrics` as a loop over the shifts, one shifted copy of the
    reference at a time, its sums by BLAS (`np.linalg.norm`, `@`)."""
    incident = float(first.sum())
    left, right = float(last[: center_span[0]].sum()), float(last[center_span[1] :].sum())
    target = last[center_span[1] :]
    ref = reference[center_span[1] :]
    norm0 = float(np.linalg.norm(first))
    best = (math.inf, 0, 0.0)
    for shift in range(-_MAX_SHIFT, _MAX_SHIFT + 1):
        shifted = shift_window(ref, shift)
        denom = float(shifted @ shifted)
        scale = max(float(target @ shifted) / denom if denom > 0 else 0.0, 0.0)
        dist = float(np.linalg.norm(target - scale * shifted)) / norm0
        if dist < best[0]:
            best = (dist, shift, scale)
    return TransitMetrics(incident, left, right, right / incident, *best)


def lstsq_fit(x, y):
    """Least-squares line through (x, y) by LAPACK's `lstsq`: (slope,
    intercept, r_squared)."""
    design = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    ss_res = float(np.sum((y - design @ coef) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(coef[0]), float(coef[1]), r2
