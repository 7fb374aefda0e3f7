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
results equal those products up to the sign of zero.

Complex square roots use the principal branch (cut on the negative real
axis); for mu*nu < 0 the scale factor is purely imaginary, and only the
unordered set {+i, -i} of parity end potentials is convention-independent.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .lattice import (
    BAND_OFFSETS,
    BETA,
    AsymmetricDimer,
    HamiltonianMatrix,
    Interferometer,
    as_dimer,
    dense_from_bands,
)

_U_PLUS = cmath.exp(1j * math.pi / 4)
_U_MINUS = cmath.exp(-1j * math.pi / 4)
#: 2x2 unitary with the alpha/beta states as columns in the (plus, minus) basis.
ALPHA_BETA_BLOCK = np.array(
    [[_U_PLUS, -1j * _U_PLUS], [_U_MINUS, 1j * _U_MINUS]], dtype=complex
) / math.sqrt(2.0)
ALPHA_BETA_BLOCK.setflags(write=False)
_OFFSETS = np.array(BAND_OFFSETS)[:, None]  # a column: one row per diagonal


def _block_times(a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """a @ y for a 2 x 2 a and a 2 x m y: each entry is a sum of two products
    whose parts are rounded one product at a time, as in a sparse product (a
    NumPy complex multiply may fuse them)."""
    p, q = a[:, :, None], y[None, :, :]
    re = p.real * q.real - p.imag * q.imag
    im = p.real * q.imag + p.imag * q.real
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
    d = np.ones(ham.dim, dtype=complex)
    d[ham.site_index(BETA):] = scale
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
    +-l. ``h_plus``/``h_minus`` are the blocks as dense arrays, and
    ``embed_plus``/``embed_minus`` the dense isometries mapping block
    coordinates into the full lattice (symmetric combination first).
    """

    plus_bands: np.ndarray
    minus_bands: np.ndarray
    cross_coupling: float

    h_plus = property(lambda self: dense_from_bands(self.plus_bands))
    h_minus = property(lambda self: dense_from_bands(self.minus_bands))
    embed_plus = property(lambda self: self._embedding(+1.0))
    embed_minus = property(lambda self: self._embedding(-1.0))

    @property
    def end_potentials(self) -> tuple[complex, complex]:
        return complex(self.plus_bands[2, 0]), complex(self.minus_bands[2, 0])

    def _embedding(self, sign: float) -> np.ndarray:
        """Block column l onto the sites -l and +l, rows n - l and n + 1 + l."""
        eye = np.eye(self.plus_bands.shape[1])
        return np.vstack([sign * _HALF * eye[::-1], _HALF * eye])

    def embedded(self) -> tuple[np.ndarray, np.ndarray]:
        """Blocks pushed back into the full lattice, as dense arrays
        (supported on orthogonal parity sectors, so they commute)."""
        vp, vm = self.embed_plus, self.embed_minus
        return vp @ self.h_plus @ vp.T, vm @ self.h_minus @ vm.T


def parity_decompose(ham: HamiltonianMatrix) -> BlockDecomposition:
    """Split the scaled mu*nu = -1 chain into two decoupled parity blocks.

    Requires equal lead lengths, no hard wall, and a symmetric center coupling
    that squares to -1 (i.e. the output of biorthogonal_scale at the
    singularity). The end potentials of the two blocks form the set {+i, -i};
    which block carries +i depends on the square-root branch, so callers
    should only rely on the unordered pair.
    """
    lat = ham.lattice
    if lat.left_len != lat.right_len:
        raise ValueError("parity split requires equal lead lengths")
    if lat.hard_wall_n0 is not None:
        raise ValueError("parity split requires mirror-symmetric (open) leads")
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


def _min_sum_pairing(cost: np.ndarray) -> np.ndarray:
    """Column paired with each row in a minimum-sum pairing of a square cost
    matrix.

    Any pairing of each row with one of its nearest columns is optimal: the
    row minima bound every pairing's sum from below. Rows take a free nearest
    column in turn, those with the fewest nearest columns first, so exact ties
    such as repeated eigenvalues pair in NumPy, as does every verify
    comparison. scipy.optimize loads only when a row finds no free nearest
    column, where nearest columns truly collide.
    """
    nearest = cost == cost.min(axis=1, keepdims=True)
    pairing, free = np.full(len(cost), -1), np.ones(len(cost), dtype=bool)
    for row in np.argsort(nearest.sum(axis=1), kind="stable"):
        choices = np.flatnonzero(nearest[row] & free)
        if choices.size == 0:
            break
        pairing[row] = choices[0]
        free[choices[0]] = False
    else:
        return pairing
    try:
        from scipy.optimize import linear_sum_assignment
    except ImportError as err:
        raise ImportError("colliding spectra are paired by scipy.optimize: install SciPy") from err
    return linear_sum_assignment(cost)[1]


def spectrum_distance(a, b) -> float:
    """Largest distance within the minimum-sum pairing of two eigenvalue
    multisets (lexicographic sorting mispairs conjugate clusters whose real
    parts agree only to rounding). It can exceed the bottleneck distance:
    for {0, 3e^{i theta}} and {0, 3} with sin(theta/2) = 5/6 it is 5, where
    the bottleneck (the least largest distance of any pairing) is 3.

    Colliding spectra, in which an entry of ``a`` finds each of its nearest
    entries of ``b`` taken, are paired by scipy.optimize. SciPy is not a
    run-time dependency: without it they raise ImportError.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError("spectra must be one-dimensional and of the same size")
    if a.size == 0:
        raise ValueError("spectra must not be empty")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("spectra must be finite (got NaN or inf)")
    cost = np.abs(a[:, None] - b[None, :])
    return float(cost[np.arange(a.size), _min_sum_pairing(cost)].max())
