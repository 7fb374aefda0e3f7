"""Equivalence transformations between the center representations.

Three maps, each certified numerically on finite matrices:

* a unitary rotation of the gain/loss pair into the asymmetric-hopping pair
  (exists only at flux pi/4), a sparse similarity by the identity with the
  2x2 ALPHA_BETA_BLOCK on the two center sites,
* a biorthogonal diagonal scaling of the right half-chain by sqrt(nu/mu) that
  symmetrizes the dimer coupling (Hermitian uniform chain when mu*nu = 1),
  applied to the stored entries from its length-N diagonal,
* a mirror-parity split of the scaled mu*nu = -1 chain into two decoupled
  half-chains whose end potentials are +i and -i.

Every matrix here is sparse, as H is; none is N x N dense.

Complex square roots use the principal branch (cut on the negative real
axis); for mu*nu < 0 the scale factor is purely imaginary, and only the
unordered set {+i, -i} of parity end potentials is convention-independent.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .lattice import (
    BETA,
    AsymmetricDimer,
    HamiltonianMatrix,
    Interferometer,
    as_dimer,
)

_U_PLUS = cmath.exp(1j * math.pi / 4)
_U_MINUS = cmath.exp(-1j * math.pi / 4)
#: 2x2 unitary with the alpha/beta states as columns in the (plus, minus) basis.
ALPHA_BETA_BLOCK = np.array(
    [[_U_PLUS, -1j * _U_PLUS], [_U_MINUS, 1j * _U_MINUS]], dtype=complex
) / math.sqrt(2.0)
ALPHA_BETA_BLOCK.setflags(write=False)


def alpha_beta_rotation(ham: HamiltonianMatrix) -> HamiltonianMatrix:
    """Rotate an interferometer Hamiltonian into its equivalent dimer form.

    H -> B^dag H B as sparse products, with B = ALPHA_BETA_BLOCK on (plus,
    minus) and the identity elsewhere; equals build_hamiltonian(AsymmetricDimer(
    -(delta+gamma), -(delta-gamma)), same lattice) entrywise up to rounding.
    """
    if not isinstance(ham.center, Interferometer):
        raise ValueError(
            f"rotation applies to interferometer centers, got {type(ham.center).__name__}"
        )
    dimer = as_dimer(ham.center)  # raises off flux pi/4, where no reduction exists
    import scipy.sparse

    start, stop = ham.center_span  # (plus, minus)
    eye = scipy.sparse.identity
    b = scipy.sparse.csr_array(
        scipy.sparse.block_diag((eye(start), ALPHA_BETA_BLOCK, eye(ham.dim - stop)))
    )
    return HamiltonianMatrix.from_matrix(b.conj().T @ ham.matrix @ b, dimer, ham.lattice)


def biorthogonal_scale(ham: HamiltonianMatrix) -> HamiltonianMatrix:
    """Similarity-transform the dimer chain to a symmetric center coupling.

    H -> D^-1 H D with D = 1 up to alpha, sqrt(nu/mu) from beta onward (beta
    is followed by the right lead). Both center couplings become
    -mu*sqrt(nu/mu) (a square root of mu*nu up to sign); lead bonds stay -1,
    so for mu*nu = 1 the result is the Hermitian uniform chain.
    """
    center = ham.center
    if not isinstance(center, AsymmetricDimer):
        raise ValueError(
            f"scaling applies to dimer centers, got {type(center).__name__}"
        )
    if center.mu == 0.0 or center.nu == 0.0:
        raise ValueError("scaling requires both hopping amplitudes nonzero")
    if center.mu == center.nu:
        return ham  # D = 1; the bands are read-only, so no copy is needed
    # ratio formed as a real float so the principal square root is taken on
    # (-|x|, +0j) rather than an accidental (-|x|, -0j) from complex division
    scale = cmath.sqrt(complex(center.nu / center.mu, 0.0))
    d = np.ones(ham.dim, dtype=complex)
    d[ham.site_index(BETA):] = scale
    h = ham.matrix.tocoo()
    h.data = h.data * ((1.0 / d)[h.row] * d[h.col])  # H_ij d_j / d_i, entry by entry
    return HamiltonianMatrix.from_matrix(h, center, ham.lattice)


#: Tolerance of parity_decompose on the center coupling and the cross coupling.
PARITY_TOL = 1e-9


@dataclass(frozen=True)
class BlockDecomposition:
    """Mirror-parity blocks of the scaled chain, each a -1 half-chain with an
    imaginary end potential.

    Block index 0 is the center combination; index l >= 1 pairs the lead sites
    +-l. ``embed_plus``/``embed_minus`` are the isometries mapping block
    coordinates into the full lattice (symmetric combination first). All four
    are SciPy sparse arrays.
    """

    h_plus: "scipy.sparse.sparray"
    h_minus: "scipy.sparse.sparray"
    embed_plus: "scipy.sparse.sparray"
    embed_minus: "scipy.sparse.sparray"
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
    c_ab = complex(ham.matrix[a, b])
    c_ba = complex(ham.matrix[b, a])
    if abs(c_ab - c_ba) > PARITY_TOL:
        raise ValueError("center coupling is not symmetric; scale the matrix first")
    if abs(c_ab * c_ab + 1.0) > PARITY_TOL:
        raise ValueError(
            f"center coupling squared must be -1 (singularity), got {c_ab * c_ab!r}"
        )

    import scipy.sparse

    # column l pairs the sites -l and +l at indices a - l and b + l, and
    # column 0 the center pair (a, b); the center-combination signs are a
    # gauge freedom (they leave the end potential invariant), chosen so both
    # blocks carry uniform -1 bonds
    n = lat.left_len
    l = np.arange(n + 1)
    where = (np.r_[a - l, b + l], np.r_[l, l])
    half = np.full(n + 1, 1.0 / math.sqrt(2.0))
    v_plus = scipy.sparse.csr_array((np.r_[half, half], where), shape=(ham.dim, n + 1))
    v_minus = scipy.sparse.csr_array((np.r_[-half, half], where), shape=(ham.dim, n + 1))

    h_plus = v_plus.conj().T @ ham.matrix @ v_plus
    h_minus = v_minus.conj().T @ ham.matrix @ v_minus
    cross = float(
        max(
            abs(v_plus.conj().T @ ham.matrix @ v_minus).max(),
            abs(v_minus.conj().T @ ham.matrix @ v_plus).max(),
        )
    )
    if cross > PARITY_TOL:
        raise ValueError(f"parity blocks do not decouple (cross coupling {cross:.3e})")
    return BlockDecomposition(
        h_plus=h_plus,
        h_minus=h_minus,
        embed_plus=v_plus,
        embed_minus=v_minus,
        cross_coupling=cross,
    )


def _min_sum_pairing(cost: np.ndarray) -> np.ndarray:
    """Column paired with each row in a minimum-sum pairing of a square cost
    matrix.

    When every row's nearest column is distinct, that pairing is optimal: the
    row minima bound every pairing's sum from below. Every verify comparison
    takes this path, so scipy.optimize loads only when nearest columns collide.
    """
    nearest = cost.argmin(axis=1)
    if np.unique(nearest).size == nearest.size:
        return nearest
    from scipy.optimize import linear_sum_assignment

    return linear_sum_assignment(cost)[1]


def spectrum_distance(a, b) -> float:
    """Largest distance within the minimum-sum pairing of two eigenvalue
    multisets (lexicographic sorting mispairs conjugate clusters whose real
    parts agree only to rounding). It can exceed the bottleneck distance:
    for {0, 3e^{i theta}} and {0, 3} with sin(theta/2) = 5/6 it is 5, where
    the bottleneck (the least largest distance of any pairing) is 3.
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
