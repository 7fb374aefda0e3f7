"""Tight-binding chains with an embedded scattering center.

Two uniform leads (truncated to finite length) are joined by one of three
center types: a complex on-site potential, a flux-threaded gain/loss pair
("interferometer"), or a two-site dimer with asymmetric hopping amplitudes.
Energies are measured in units of the lead hopping, so the lead dispersion is
E_k = -2 cos k and the maximal group velocity is 2. Times are in inverse
hopping units.

H is held as its five diagonals (HamiltonianMatrix.bands), built, stepped and
transformed with NumPy alone.

Leads are finite here while the physics is posed on semi-infinite chains;
callers must size leads so that no probability reaches the open ends during
the simulated window (rule of thumb: len >= |packet site| + 2*t_max + 5*width).
An open end reflects what reaches it: it is a hard wall, and absorb's
mixture fills the left lead up to it.
"""

import cmath
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

ALPHA = "alpha"
BETA = "beta"
PLUS = "plus"
MINUS = "minus"

#: Flux phase at which the interferometer reduces exactly to an asymmetric dimer.
DIMER_REDUCTION_PHI = math.pi / 4

#: Tolerance on |mu*nu -+ 1| within which a dimer is resonant or singular.
LOCUS_TOL = 1e-9

SiteLabel = Union[int, str]


def _require_finite(**values):
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be a finite real, got {value!r}")


@dataclass(frozen=True)
class OnSitePotential:
    """Single center site with complex on-site energy, coupled -1 to both leads."""

    v: complex

    def __post_init__(self):
        v = complex(self.v)
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise ValueError(f"on-site energy must be finite, got {self.v!r}")
        object.__setattr__(self, "v", v)


@dataclass(frozen=True)
class Interferometer:
    """Gain/loss site pair (+i*gamma / -i*gamma) with flux phi on the lead couplings.

    The two center sites are coupled to each other by the real energy delta and
    to the lead ends by -e^{-+i*sigma*phi}/sqrt(2).
    """

    delta: float
    gamma: float
    phi: float

    def __post_init__(self):
        _require_finite(delta=self.delta, gamma=self.gamma, phi=self.phi)


@dataclass(frozen=True)
class AsymmetricDimer:
    """Two center sites with unequal hopping: -mu |alpha><beta| - nu |beta><alpha|."""

    mu: float
    nu: float

    def __post_init__(self):
        _require_finite(mu=self.mu, nu=self.nu)

    @property
    def product(self) -> float:
        return self.mu * self.nu

    def is_resonant(self) -> bool:
        """Reflectionless-transmission locus mu*nu = 1."""
        return abs(self.product - 1.0) <= LOCUS_TOL

    def is_singular(self) -> bool:
        """Spectral-singularity locus mu*nu = -1 (amplitudes diverge at k = pi/2)."""
        return abs(self.product + 1.0) <= LOCUS_TOL


CenterSpec = Union[OnSitePotential, Interferometer, AsymmetricDimer]


def dimer_from_interferometer(delta: float, gamma: float) -> AsymmetricDimer:
    """The dimer equivalent to the interferometer (delta, gamma) at flux pi/4.

    Only valid at phi = pi/4; for any other flux no dimer reduction exists.
    """
    return AsymmetricDimer(mu=-(delta + gamma), nu=-(delta - gamma))


def as_dimer(center: CenterSpec) -> AsymmetricDimer:
    """The asymmetric dimer a center is or reduces to: a dimer is returned
    unchanged and an interferometer at flux pi/4 is reduced. Raises
    ValueError for an on-site center or any other flux, which have no
    dimer reduction."""
    if isinstance(center, AsymmetricDimer):
        return center
    if not isinstance(center, Interferometer):
        raise ValueError(f"{center!r} has no dimer reduction")
    if abs(center.phi - DIMER_REDUCTION_PHI) > 1e-12:
        raise ValueError(
            f"the interferometer reduces to a dimer only at flux pi/4; got phi={center.phi!r}"
        )
    return dimer_from_interferometer(center.delta, center.gamma)


@dataclass(frozen=True)
class LatticeSpec:
    """Finite truncation of the two leads: left lead sites -left_len..-1,
    right lead sites 1..right_len. Each lead's last site is an open end, a
    hard wall."""

    left_len: int
    right_len: int

    def __post_init__(self):
        if self.left_len < 1 or self.right_len < 1:
            raise ValueError("lead lengths must be positive integers")


def center_sites(center: CenterSpec) -> tuple[SiteLabel, ...]:
    """Canonical center-site labels, in matrix order."""
    if isinstance(center, OnSitePotential):
        return (0,)
    if isinstance(center, Interferometer):
        return (PLUS, MINUS)
    if isinstance(center, AsymmetricDimer):
        return (ALPHA, BETA)
    raise TypeError(f"unknown center spec {center!r}")


def lattice_dim(center: CenterSpec, lattice: LatticeSpec) -> int:
    return lattice.left_len + lattice.right_len + len(center_sites(center))


def site_order(center: CenterSpec, lattice: LatticeSpec) -> tuple[SiteLabel, ...]:
    """All site labels in canonical matrix order: left lead, center, right lead."""
    left = tuple(range(-lattice.left_len, 0))
    right = tuple(range(1, lattice.right_len + 1))
    return left + center_sites(center) + right


def site_to_index(lattice: LatticeSpec, site: SiteLabel, center: CenterSpec) -> int:
    """Matrix index of a site label (position in :func:`site_order`): lead
    site j sits at left_len + j on the left, a center label left_len on from
    its position in center_sites, and the right lead follows the center."""
    centers = center_sites(center)
    if site in centers:
        return lattice.left_len + centers.index(site)
    lead = isinstance(site, (int, np.integer)) and -lattice.left_len <= site <= lattice.right_len
    if lead and site != 0:  # the right lead's site 1 follows the center's last label
        return lattice.left_len + int(site) + (len(centers) - 1 if site > 0 else 0)
    raise ValueError(f"site {site!r} does not exist in this lattice")


#: Offsets of the diagonals H lives on: a chain's bonds join neighbouring
#: indices, and a two-site center couples a lead end to the far center site.
BAND_OFFSETS = (-2, -1, 0, 1, 2)
_OFFSETS = np.array(BAND_OFFSETS)[:, None]  # a column: one row per diagonal


@dataclass(frozen=True)
class HamiltonianMatrix:
    """H as its five diagonals, ``bands[2 + k, i] = H[i, i + k]`` for the
    offsets k of BAND_OFFSETS (complex; zero where i + k falls outside the
    matrix), with the specs it is indexed by (a transformed matrix no longer
    follows the build rules of its ``center``). The bands are a read-only copy
    of the input, so writing through them raises. Building, stepping and
    transforming H use only the bands."""

    bands: np.ndarray
    center: CenterSpec
    lattice: LatticeSpec

    def __post_init__(self):
        bands, _ = stack_bands([np.asarray(self.bands, dtype=complex)])  # a copy
        n = lattice_dim(self.center, self.lattice)
        if bands.shape[1] != n:
            raise ValueError(f"bands of shape {bands.shape} do not match lattice dimension {n}")
        bands.setflags(write=False)
        object.__setattr__(self, "bands", bands)

    @property
    def dim(self) -> int:
        return self.bands.shape[1]

    def site_index(self, site: SiteLabel) -> int:
        return site_to_index(self.lattice, site, self.center)

    @property
    def center_span(self) -> tuple[int, int]:
        """Half-open index range [start, stop) occupied by the center sites."""
        start = self.lattice.left_len
        return start, start + len(center_sites(self.center))


def stack_bands(blocks) -> tuple[np.ndarray, np.ndarray]:
    """The diagonals of the block-diagonal matrix whose blocks have the
    diagonals ``blocks`` (each laid out as HamiltonianMatrix.bands), and the
    index at which each block starts, with the total size last. One block is
    one matrix. Raises ValueError if a block holds an entry outside itself,
    which the stack would turn into a coupling to its neighbour, if a block is
    not a non-empty 5 x n array, and if there are no blocks."""
    blocks = [np.asarray(bands) for bands in blocks]
    for bands in blocks:
        if bands.ndim != 2 or bands.shape[0] != len(BAND_OFFSETS) or bands.shape[1] == 0:
            raise ValueError(f"bands must be a non-empty {len(BAND_OFFSETS)} x n array")
    sizes = [bands.shape[1] for bands in blocks]
    starts = np.cumsum([0, *sizes])
    stacked = np.concatenate(blocks, axis=1)
    rows = np.arange(starts[-1]) - np.repeat(starts[:-1], sizes)  # index i in its block
    room = np.repeat(sizes, sizes) - rows  # the block's size m less i
    outside = (rows < -_OFFSETS) | (room <= _OFFSETS)  # (i, i + k) with i + k < 0 or >= m
    if stacked[outside].any():
        k = BAND_OFFSETS[np.nonzero(stacked * outside)[0][0]]
        raise ValueError(f"diagonal {k} holds an entry outside the matrix or block it lies in")
    return stacked, starts


def dense_from_bands(bands: np.ndarray) -> np.ndarray:
    """The N x N array whose diagonals BAND_OFFSETS hold ``bands``, laid out
    as HamiltonianMatrix.bands, and zero elsewhere."""
    n = bands.shape[1]
    dense = np.zeros((n, n), dtype=bands.dtype)
    for band, k in zip(bands, BAND_OFFSETS):
        i = np.arange(max(-k, 0), n - max(k, 0))
        dense[i, i + k] = band[i]
    return dense


def build_hamiltonian(center: CenterSpec, lattice: LatticeSpec) -> HamiltonianMatrix:
    """Assemble the Hamiltonian of a center embedded between two leads on its
    five diagonals -2..2. Every bond (i, i + 1) is -1 but those the center
    replaces by its own entries. Non-Hermitian entries are confined to the
    center block."""
    n = lattice_dim(center, lattice)
    c = lattice.left_len  # first center index
    im1, ip1 = c - 1, n - lattice.right_len  # sites -1 and 1
    if isinstance(center, OnSitePotential):
        cut, entries = [], [(c, c, center.v)]
    elif isinstance(center, Interferometer):
        cut = [im1, c, c + 1]
        entries = [(c, c + 1, center.delta), (c + 1, c, center.delta)]
        entries += [(c, c, 1j * center.gamma), (c + 1, c + 1, -1j * center.gamma)]
        root2 = math.sqrt(2.0)
        for site, s in ((c, +1.0), (c + 1, -1.0)):  # (plus, minus)
            phase = cmath.exp(1j * s * center.phi)
            entries += [
                (im1, site, -phase.conjugate() / root2),
                (site, im1, -phase / root2),
                (ip1, site, -phase / root2),
                (site, ip1, -phase.conjugate() / root2),
            ]
    elif isinstance(center, AsymmetricDimer):
        cut = [c]
        entries = [(c, c + 1, -center.mu), (c + 1, c, -center.nu)]
    else:
        raise TypeError(f"unknown center spec {center!r}")

    bands = np.zeros((len(BAND_OFFSETS), n), dtype=complex)
    bands[3, :-1] = bands[1, 1:] = -1.0  # every bond H[i, i + 1], H[i + 1, i]
    cut = np.array(cut, dtype=int)
    bands[3, cut] = bands[1, cut + 1] = 0.0  # but those the center replaces
    for row, col, value in entries:
        bands[2 + col - row, row] = value
    return HamiltonianMatrix(bands, center, lattice)
