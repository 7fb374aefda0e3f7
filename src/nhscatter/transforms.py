"""Equivalence transformations between the center representations.

Three maps, each certified numerically on finite matrices:

* a unitary rotation of the gain/loss pair into the asymmetric-hopping pair
  (exists only at flux pi/4), a similarity by the identity with the 2x2
  ALPHA_BETA_BLOCK on the two center sites,
* a biorthogonal diagonal scaling of the right half-chain by sqrt(nu/mu) that
  symmetrizes the dimer coupling (Hermitian uniform chain when mu*nu = 1),
* a mirror-parity split of the scaled mu*nu = -1 chain into two decoupled
  half-chains whose end potentials are +i and -i.

Every map reads and writes H's five diagonals in NumPy, summing and rounding
each entry as SciPy's sparse products of the same similarity do, so the
results equal those products up to the sign of zero. `charpoly_deviation`
compares spectra on the same diagonals, by characteristic polynomials.

Complex square roots use the principal branch (cut on the negative real
axis); for mu*nu < 0 the scale factor is purely imaginary, and only the
unordered set {+i, -i} of parity end potentials is convention-independent.
"""

import cmath
import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .lattice import (
    _OFFSETS,
    BAND_OFFSETS,
    AsymmetricDimer,
    HamiltonianMatrix,
    Interferometer,
    as_dimer,
    dense_from_bands,
    stack_bands,
)

_U_PLUS = cmath.exp(1j * math.pi / 4)
_U_MINUS = cmath.exp(-1j * math.pi / 4)
#: 2x2 unitary with the alpha/beta states as columns in the (plus, minus) basis.
ALPHA_BETA_BLOCK = np.array(
    [[_U_PLUS, -1j * _U_PLUS], [_U_MINUS, 1j * _U_MINUS]], dtype=complex
) / math.sqrt(2.0)
ALPHA_BETA_BLOCK.setflags(write=False)


def _times(xr, xi, yr, yi):
    """Real and imaginary parts of (xr + i xi)(yr + i yi), each product and sum
    its own ufunc, so no SIMD level fuses them (a NumPy complex multiply may)."""
    return xr * yr - xi * yi, xr * yi + xi * yr


def _libm(func, x: np.ndarray, *args) -> np.ndarray:
    """func(x_i, *args) for each element, in Python floats, in the shape of x."""
    values = map(func, x.ravel().tolist(), *map(repeat, args))
    return np.fromiter(values, dtype=float, count=x.size).reshape(x.shape)


def _fsum(x: np.ndarray) -> float:
    """The sum of x's entries, correctly rounded (math.fsum), so its bits
    depend on neither a BLAS kernel nor the order of the entries."""
    return math.fsum(x.ravel().tolist())


def _block_times(a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """a @ y for a 2 x 2 a and a 2 x m y: each entry is a sum of two products
    whose parts are rounded one product at a time, as in a sparse product."""
    p, q = a[:, :, None], y[None, :, :]
    re, im = _times(p.real, p.imag, q.real, q.imag)
    terms = re + 1j * im  # 1j * im moves im into place without rounding
    return terms[:, 0] + terms[:, 1]


def alpha_beta_rotation(ham: HamiltonianMatrix) -> HamiltonianMatrix:
    """Rotate an interferometer Hamiltonian into its equivalent dimer form.

    H -> B^dag H B, with B = ALPHA_BETA_BLOCK on (plus, minus) and the
    identity elsewhere, rewrites only the rows and columns of the pair, whose
    entries lie within 2 of it; equals build_hamiltonian(AsymmetricDimer(
    -(delta+gamma), -(delta-gamma)), same lattice) entrywise up to rounding.
    """
    center = ham.center
    if not isinstance(center, Interferometer):
        raise ValueError(f"rotation applies to interferometers, got {type(center).__name__}")
    dimer = as_dimer(center)  # raises off flux pi/4, where no reduction exists
    p = ham.center_span[0]  # plus; minus is p + 1
    lo, hi = max(p - 2, 0), min(p + 4, ham.dim)
    window = dense_from_bands(ham.bands[:, lo:hi])  # H[lo:hi, lo:hi]
    pair = slice(p - lo, p - lo + 2)
    window[pair] = _block_times(ALPHA_BETA_BLOCK.conj().T, window[pair])
    window[:, pair] = _block_times(ALPHA_BETA_BLOCK.T, window[:, pair].T).T
    if np.triu(window, 3).any() or np.tril(window, -3).any():
        raise ValueError(f"rotated matrix has entries off the diagonals {BAND_OFFSETS}")
    bands = np.array(ham.bands)
    for band, k in zip(bands, BAND_OFFSETS):
        i = np.arange(max(lo, lo - k), min(hi, hi - k))  # i and i + k in the window
        band[i] = window[i - lo, i + k - lo]
    return HamiltonianMatrix(bands, dimer, ham.lattice)


def biorthogonal_scale(ham: HamiltonianMatrix) -> HamiltonianMatrix:
    """Similarity-transform the dimer chain to a symmetric center coupling.

    H -> D^-1 H D with D = 1 up to alpha, sqrt(nu/mu) from beta onward (beta
    is followed by the right lead), applied to each band entry as
    H[i, i + k] * ((1/d)[i] * d[i + k]). Both center couplings become
    -mu*sqrt(nu/mu) (a square root of mu*nu up to sign); lead bonds stay -1,
    so for mu*nu = 1 the result is the Hermitian uniform chain.
    """
    center = ham.center
    if not isinstance(center, AsymmetricDimer):
        raise ValueError(f"scaling applies to dimer centers, got {type(center).__name__}")
    if center.mu == 0.0 or center.nu == 0.0:
        raise ValueError("scaling requires both hopping amplitudes nonzero")
    if center.mu == center.nu:
        return ham  # D = 1; the bands are read-only, so no copy is needed
    # ratio formed as a real float so the principal square root is taken on
    # (-|x|, +0j) rather than an accidental (-|x|, -0j) from complex division
    scale = cmath.sqrt(complex(center.nu / center.mu, 0.0))
    if scale == 0 or not cmath.isfinite(scale):  # nu/mu under- or overflowed
        raise ValueError(f"scaling sqrt(nu/mu) = {scale!r} is not a finite nonzero number")
    d = np.ones(ham.dim, dtype=complex)
    d[ham.center_span[1] - 1 :] = scale  # beta, the last center site, onward
    cols = np.clip(np.arange(ham.dim) + _OFFSETS, 0, ham.dim - 1)  # outside: entry 0
    return HamiltonianMatrix(ham.bands * ((1.0 / d) * d[cols]), center, ham.lattice)


#: Tolerance of parity_decompose on the center coupling and the cross coupling.
PARITY_TOL = 1e-9
_HALF = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class BlockDecomposition:
    """Mirror-parity blocks of the scaled chain, each a -1 half-chain with an
    imaginary end potential, held as their diagonals (laid out as
    HamiltonianMatrix.bands).

    Block index 0 is the center combination; index l >= 1 pairs the lead sites
    +-l.
    """

    plus_bands: np.ndarray
    minus_bands: np.ndarray
    cross_coupling: float

    @property
    def end_potentials(self) -> tuple[complex, complex]:
        return complex(self.plus_bands[2, 0]), complex(self.minus_bands[2, 0])


def parity_decompose(ham: HamiltonianMatrix) -> BlockDecomposition:
    """Split the scaled mu*nu = -1 chain into two decoupled parity blocks.

    Requires equal lead lengths and a symmetric center coupling that squares
    to -1 (i.e. the output of biorthogonal_scale at the singularity). The end
    potentials of the two blocks form the set {+i, -i}; which block carries
    +i depends on the square-root branch, so callers should only rely on the
    unordered pair.
    """
    lat = ham.lattice
    if lat.left_len != lat.right_len:
        raise ValueError("parity split requires equal lead lengths")
    start, stop = ham.center_span
    if stop - start != 2:
        raise ValueError("parity split requires a two-site center")
    a, b = start, start + 1
    c_ab, c_ba = complex(ham.bands[3, a]), complex(ham.bands[1, b])  # H[a, b], H[b, a]
    if abs(c_ab - c_ba) > PARITY_TOL:
        raise ValueError("center coupling is not symmetric; scale the matrix first")
    if abs(c_ab * c_ab + 1.0) > PARITY_TOL:
        raise ValueError(
            f"center coupling squared must be -1 (singularity), got {c_ab * c_ab!r}"
        )

    # block column l pairs the sites -l and +l at indices a - l and b + l,
    # and column 0 the center pair (a, b); v_s weighs them s/sqrt(2) and
    # 1/sqrt(2). The center-combination signs are a gauge freedom (they leave
    # the end potential invariant), chosen so both blocks carry uniform -1
    # bonds. Entry (l, l') of a block adds H's entries between sites -+l and
    # -+l', each times 1/2; the block's diagonals hold l' = l + k
    n = lat.left_len
    l = np.arange(n + 1)
    m = l + _OFFSETS  # block column of each band entry

    def entries(rows, cols):  # H[rows, cols], zero off the bands and outside the block
        k = cols - rows
        inside = (np.abs(k) <= 2) & (0 <= m) & (m <= n)
        return np.where(inside, ham.bands[np.clip(k + 2, 0, 4), rows], 0.0)

    hl, hd = (_HALF * entries(rows, a - m) for rows in (a - l, b + l))  # to site -l'
    hc, hr = (_HALF * entries(rows, b + m) for rows in (a - l, b + l))  # to site +l'

    def sandwich(s, t):  # v_s^T H v_t, in a sparse product's order
        return (t * _HALF) * (s * hl + hd) + _HALF * (s * hc + hr)

    cross = float(max(np.abs(sandwich(s, -s)).max() for s in (1.0, -1.0)))
    if cross > PARITY_TOL:
        raise ValueError(f"parity blocks do not decouple (cross coupling {cross:.3e})")
    return BlockDecomposition(sandwich(1.0, 1.0), sandwich(-1.0, -1.0), cross)


def charpoly_deviation(a_blocks, b_blocks) -> float:
    """max |p_A(z) / p_B(z) - 1| over n + 1 points z, where p_A and p_B are
    the characteristic polynomials det(M - z) of the block-diagonal matrices
    of order n whose tridiagonal blocks have the bands ``a_blocks`` and
    ``b_blocks`` (sequences of arrays laid out as HamiltonianMatrix.bands).
    A batch of one of `charpoly_deviations`, which compares many pairs of one
    order in a single recurrence, each pair's value bit-equal to this call.

    Two monic polynomials of degree n that agree at n + 1 points are equal,
    so this is 0 in exact arithmetic if and only if A and B have the same
    spectrum, counted with multiplicity. The points are the (n + 1)-th roots
    of unity scaled to 1.5 times the larger Gershgorin bound of A and B, so
    each lies a third of the radius or more from both spectra and the ratio
    is well conditioned. Each p(z) comes from the three-term recurrence
    p_j = (a_j - z) p_{j-1} - w_j p_{j-2} (Wilkinson, The Algebraic Eigenvalue
    Problem, ch. 5) in O(n^2) NumPy work, as a mantissa and a log2 scale: each
    step divides p_j and p_{j-1} by the power of two that brings p_j's larger
    part into [0.5, 1), which is exact. Every operation is one IEEE ufunc on
    real arrays (angles from the math module), so the value does not depend
    on the SIMD level or on LAPACK. Raises ValueError for bands off the three
    central diagonals and for matrices of different orders.
    """
    return float(charpoly_deviations([(a_blocks, b_blocks)])[0])


#: Steps of the recurrence whose factors are laid out at a time, so that its
#: memory grows as n, not n^2.
_CHUNK_STEPS = 32


def charpoly_deviations(pairs) -> np.ndarray:
    """`charpoly_deviation` of every pair (a_blocks, b_blocks) of ``pairs``,
    as a float64 array, from one recurrence over the whole batch. All
    matrices must have one order n (ValueError otherwise). Each pair keeps
    its own radius and points and every operation is elementwise, so each
    value is bit-equal to its pair's run alone.

    Every block of every matrix goes into one stack (`stack_bands`), whose
    diagonals give each matrix's a_j, its coupling products w_j = M[j-1, j]
    M[j, j-1] (zero where a block starts, as the stack holds no entry
    there) and its Gershgorin bound, the largest row sum of |Re| + |Im| >=
    |.| over the three diagonals. A step works on K complex values, one per
    matrix, pair and point, as separate real and imaginary rows: one array
    holds p_{j-2} and p_{j-1}, so with the factors (w_j, a_j - z), laid out
    in the same order once per chunk of steps into one reused buffer, both
    products are one `_times`.
    """
    matrices = [list(blocks) for pair in pairs for blocks in pair]  # A, B of each pair
    if not matrices:
        raise ValueError("no pairs to compare")
    if not all(matrices):
        raise ValueError("a matrix needs at least one array of bands")
    bands, starts = stack_bands([bands for blocks in matrices for bands in blocks])
    if bands[0].any() or bands[-1].any():
        raise ValueError("matrix is not tridiagonal: entries on diagonals -2 or 2")
    edges = starts[np.cumsum([0, *map(len, matrices)])]  # each matrix's first row, and the end
    orders = sorted(set(np.diff(edges).tolist()))
    if len(orders) > 1:
        raise ValueError(f"matrices of different orders: {', '.join(map(str, orders))}")
    n, count = orders[0], len(matrices) // 2
    sub, diag, sup = bands[1:4]
    w = np.zeros(diag.size, dtype=complex)
    w.real[1:], w.imag[1:] = _times(sup.real[:-1], sup.imag[:-1], sub.real[1:], sub.imag[1:])
    rows = sum(np.abs(band.real) + np.abs(band.imag) for band in (sub, diag, sup))
    reach = np.maximum.reduceat(rows, edges[:-1]).reshape(count, 2).max(axis=1)
    radius = np.where(reach == 0.0, 1.0, 1.5 * reach)  # 0: any circle encloses the spectra
    angles = [2.0 * math.pi * k / (n + 1) for k in range(n + 1)]
    circle = np.array([[math.cos(t) for t in angles], [math.sin(t) for t in angles]])
    z = (radius[:, None] * circle[:, None])[:, None]  # (re/im, 1, pair, point)

    x = np.stack([w, diag]).reshape(2, count, 2, n)  # w/a, pair, A/B, j
    x = np.stack([x.real, x.imag]).transpose(4, 0, 1, 3, 2)[..., None]  # j, re/im, w/a, A/B, pair
    k = 2 * count * (n + 1)  # A/B, pair, point
    factors = np.empty((_CHUNK_STEPS, 2, 2, k))  # step, re/im, w_j / a_j - z, K
    p = np.zeros((2, 2, k))  # re/im of p_{j-2}, p_{j-1}
    p[0, 1] = 1.0  # p_{-2} = 0, p_{-1} = 1
    latest = np.empty((2, k))  # re/im of p_j
    exponent = np.zeros(k, dtype=int)
    for j in range(n):
        if j % _CHUNK_STEPS == 0:
            chunk = slice(j, j + _CHUNK_STEPS)
            used = factors[: len(x[chunk])].reshape(-1, 2, 2, 2, count, n + 1)
            used[:, :, 0], used[:, :, 1] = x[chunk, :, 0], x[chunk, :, 1] - z
        re, im = _times(*factors[j % _CHUNK_STEPS], *p)  # w_j p_{j-2}, (a_j - z) p_{j-1}
        np.subtract(re[1], re[0], out=latest[0])  # p_j = (a_j - z) p_{j-1} - w_j p_{j-2}
        np.subtract(im[1], im[0], out=latest[1])
        e = -np.frexp(np.maximum(*np.abs(latest)))[1]  # 2^-e > p_j's larger part >= 2^(-e-1)
        exponent -= e
        np.ldexp(p[:, 1], e, out=p[:, 0])  # p_{j-1} and p_j times 2^e, each a slot down
        np.ldexp(latest, e, out=p[:, 1])
    # |p_A / p_B - 1| = |m_A 2^(e_A - e_B) - m_B| / |m_B|, the power of two exact
    (pr_a, pr_b), (pi_a, pi_b) = p[:, 1].reshape(2, 2, count, n + 1)
    shift = np.subtract(*exponent.reshape(2, count, n + 1))
    dr, di = np.ldexp(pr_a, shift) - pr_b, np.ldexp(pi_a, shift) - pi_b
    return np.sqrt((dr * dr + di * di) / (pr_b * pr_b + pi_b * pi_b)).max(axis=-1)
