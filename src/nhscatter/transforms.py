"""Equivalence transformations between the center representations.

Three maps, each certified numerically on finite matrices:

* a unitary rotation of the gain/loss pair into the asymmetric-hopping pair
  (exists only at flux pi/4),
* a biorthogonal diagonal scaling of the right half-chain by sqrt(nu/mu) that
  symmetrizes the dimer coupling (Hermitian uniform chain when mu*nu = 1),
* a mirror-parity split of the scaled mu*nu = -1 chain into two decoupled
  half-chains whose end potentials are +i and -i.

Complex square roots use the principal branch (cut on the negative real
axis); for mu*nu < 0 the scale factor is purely imaginary, and only the
unordered set {+i, -i} of parity end potentials is convention-independent.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .lattice import (
    ALPHA,
    BETA,
    DIMER_REDUCTION_PHI,
    MINUS,
    PLUS,
    AsymmetricDimer,
    HamiltonianMatrix,
    Interferometer,
)

ALPHA_BETA = "alpha-beta"
BIORTHOGONAL = "biorthogonal-scale"
PARITY = "parity"


@dataclass(frozen=True)
class BasisChange:
    """Invertible change of basis; transformed H is inverse @ H @ matrix."""

    matrix: np.ndarray
    inverse: np.ndarray
    kind: str

    def apply(self, h: np.ndarray) -> np.ndarray:
        return self.inverse @ h @ self.matrix


def _alpha_beta_block() -> np.ndarray:
    """2x2 unitary with the alpha/beta states as columns in the +- basis."""
    u_plus = cmath.exp(1j * math.pi / 4)
    u_minus = cmath.exp(-1j * math.pi / 4)
    return np.array(
        [[u_plus, -1j * u_plus], [u_minus, 1j * u_minus]], dtype=complex
    ) / math.sqrt(2.0)


def alpha_beta_change(ham: HamiltonianMatrix) -> BasisChange:
    """Unitary rotating the interferometer's center pair into dimer form."""
    _require_interferometer(ham)
    u = np.eye(ham.dim, dtype=complex)
    p = ham.site_index(PLUS)
    m = ham.site_index(MINUS)
    block = _alpha_beta_block()
    u[np.ix_([p, m], [p, m])] = block
    return BasisChange(matrix=u, inverse=u.conj().T, kind=ALPHA_BETA)


def _require_interferometer(ham: HamiltonianMatrix) -> None:
    if not isinstance(ham.center, Interferometer):
        raise ValueError(
            f"rotation applies to interferometer centers, got {type(ham.center).__name__}"
        )
    if abs(ham.center.phi - DIMER_REDUCTION_PHI) > 1e-12:
        raise ValueError(
            f"no dimer reduction exists away from flux pi/4 (phi={ham.center.phi!r})"
        )


def alpha_beta_rotation(ham: HamiltonianMatrix) -> HamiltonianMatrix:
    """Rotate an interferometer Hamiltonian into its equivalent dimer form.

    The result equals build_hamiltonian(AsymmetricDimer(-(delta+gamma),
    -(delta-gamma)), same lattice) entrywise up to rounding.
    """
    change = alpha_beta_change(ham)
    rotated = change.apply(ham.matrix)
    params = ham.center.dimer_params
    return HamiltonianMatrix(
        matrix=rotated,
        center=AsymmetricDimer(params.mu, params.nu),
        lattice=ham.lattice,
        label="rotated",
    )


def biorthogonal_change(ham: HamiltonianMatrix) -> BasisChange:
    """Diagonal scaling of sites j >= 1 and beta by sqrt(nu/mu)."""
    center = _require_dimer(ham)
    # ratio formed as a real float so the principal square root is taken on
    # (-|x|, +0j) rather than an accidental (-|x|, -0j) from complex division
    scale = cmath.sqrt(complex(center.nu / center.mu, 0.0))
    diag = np.ones(ham.dim, dtype=complex)
    for index in range(*ham.center_span):
        if ham.index_site(index) == BETA:
            diag[index] = scale
    right_start = ham.center_span[1]
    diag[right_start:] = scale
    return BasisChange(
        matrix=np.diag(diag), inverse=np.diag(1.0 / diag), kind=BIORTHOGONAL
    )


def _require_dimer(ham: HamiltonianMatrix) -> AsymmetricDimer:
    if not isinstance(ham.center, AsymmetricDimer):
        raise ValueError(
            f"scaling applies to dimer centers, got {type(ham.center).__name__}"
        )
    if ham.center.mu == 0.0 or ham.center.nu == 0.0:
        raise ValueError("scaling requires both hopping amplitudes nonzero")
    return ham.center


def biorthogonal_scale(ham: HamiltonianMatrix) -> HamiltonianMatrix:
    """Similarity-transform the dimer chain to a symmetric center coupling.

    Both center couplings become -mu*sqrt(nu/mu) (a square root of mu*nu up
    to sign); lead bonds stay -1, so for mu*nu = 1 the result is the Hermitian
    uniform chain. The spectrum is preserved exactly (similarity).
    """
    center = _require_dimer(ham)
    if center.mu == center.nu:
        return HamiltonianMatrix(
            matrix=ham.matrix.copy(), center=center, lattice=ham.lattice, label="scaled"
        )
    change = biorthogonal_change(ham)
    d = np.diagonal(change.matrix)
    d_inv = np.diagonal(change.inverse)
    scaled = ham.matrix * np.outer(d_inv, d)
    return HamiltonianMatrix(
        matrix=scaled, center=center, lattice=ham.lattice, label="scaled"
    )


@dataclass(frozen=True)
class BlockDecomposition:
    """Mirror-parity blocks of the scaled chain, each a -1 half-chain with an
    imaginary end potential.

    Block index 0 is the center combination; index l >= 1 pairs the lead sites
    +-l. ``embed_plus``/``embed_minus`` are the isometries mapping block
    coordinates into the full lattice (symmetric combination first).
    """

    h_plus: np.ndarray
    h_minus: np.ndarray
    embed_plus: np.ndarray
    embed_minus: np.ndarray
    cross_coupling: float

    @property
    def end_potentials(self) -> tuple[complex, complex]:
        return complex(self.h_plus[0, 0]), complex(self.h_minus[0, 0])

    def embedded(self) -> tuple[np.ndarray, np.ndarray]:
        """Blocks pushed back into the full lattice (supported on orthogonal
        parity sectors, so they commute)."""
        hp = self.embed_plus @ self.h_plus @ self.embed_plus.conj().T
        hm = self.embed_minus @ self.h_minus @ self.embed_minus.conj().T
        return hp, hm


def parity_decompose(ham: HamiltonianMatrix, tol: float = 1e-9) -> BlockDecomposition:
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
    c_ab = complex(ham.matrix[a, b])
    c_ba = complex(ham.matrix[b, a])
    if abs(c_ab - c_ba) > tol:
        raise ValueError("center coupling is not symmetric; scale the matrix first")
    if abs(c_ab * c_ab + 1.0) > tol:
        raise ValueError(
            f"center coupling squared must be -1 (singularity), got {c_ab * c_ab!r}"
        )

    n = lat.left_len
    dim = ham.dim
    root2 = math.sqrt(2.0)
    v_plus = np.zeros((dim, n + 1), dtype=complex)
    v_minus = np.zeros((dim, n + 1), dtype=complex)
    # center-combination signs are a gauge freedom (they leave the end
    # potential invariant); chosen so both blocks carry uniform -1 bonds
    v_plus[a, 0] = v_plus[b, 0] = 1.0 / root2
    v_minus[a, 0] = -1.0 / root2
    v_minus[b, 0] = 1.0 / root2
    for l in range(1, n + 1):
        i_left = ham.site_index(-l)
        i_right = ham.site_index(l)
        v_plus[i_right, l] = v_plus[i_left, l] = 1.0 / root2
        v_minus[i_right, l] = 1.0 / root2
        v_minus[i_left, l] = -1.0 / root2

    h_plus = v_plus.conj().T @ ham.matrix @ v_plus
    h_minus = v_minus.conj().T @ ham.matrix @ v_minus
    cross = float(
        max(
            np.max(np.abs(v_plus.conj().T @ ham.matrix @ v_minus)),
            np.max(np.abs(v_minus.conj().T @ ham.matrix @ v_plus)),
        )
    )
    if cross > tol:
        raise ValueError(f"parity blocks do not decouple (cross coupling {cross:.3e})")
    return BlockDecomposition(
        h_plus=h_plus,
        h_minus=h_minus,
        embed_plus=v_plus,
        embed_minus=v_minus,
        cross_coupling=cross,
    )


def spectrum_distance(a, b) -> float:
    """Max pairing distance between two eigenvalue multisets.

    Lexicographic sorting mispairs conjugate clusters whose real parts agree
    only to rounding, so equality is decided by optimal assignment instead.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError("spectra must have the same size")
    from scipy.optimize import linear_sum_assignment

    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())
