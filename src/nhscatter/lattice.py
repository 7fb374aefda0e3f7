"""Tight-binding chains with an embedded scattering center.

Two uniform leads (truncated to finite length) are joined by one of three
center types: a complex on-site potential, a flux-threaded gain/loss pair
("interferometer"), or a two-site dimer with asymmetric hopping amplitudes.
Energies are measured in units of the lead hopping, so the lead dispersion is
E_k = -2 cos k and the maximal group velocity is 2. Times are in inverse
hopping units.

Leads are finite here while the physics is posed on semi-infinite chains;
callers must size leads so that no probability reaches the open ends during
the simulated window (rule of thumb: len >= |packet site| + 2*t_max + 5*width).
"""

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

ALPHA = "alpha"
BETA = "beta"
PLUS = "plus"
MINUS = "minus"

#: Flux phase at which the interferometer reduces exactly to an asymmetric dimer.
DIMER_REDUCTION_PHI = math.pi / 4

SiteLabel = Union[int, str]


def _require_finite(**values):
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be a finite real, got {value!r}")


@dataclass(frozen=True)
class DimerParams:
    """Asymmetric hopping pair (mu: alpha<-beta, nu: beta<-alpha)."""

    mu: float
    nu: float

    def __post_init__(self):
        _require_finite(mu=self.mu, nu=self.nu)

    @property
    def product(self) -> float:
        return self.mu * self.nu

    def is_resonant(self, tol: float = 1e-9) -> bool:
        """Reflectionless-transmission locus mu*nu = 1."""
        return abs(self.product - 1.0) <= tol

    def is_singular(self, tol: float = 1e-9) -> bool:
        """Spectral-singularity locus mu*nu = -1 (amplitudes diverge at k = pi/2)."""
        return abs(self.product + 1.0) <= tol


def dimer_from_interferometer(delta: float, gamma: float) -> DimerParams:
    """Hopping asymmetry equivalent to the interferometer at flux pi/4.

    Only valid at phi = pi/4; for any other flux no dimer reduction exists.
    """
    _require_finite(delta=delta, gamma=gamma)
    return DimerParams(mu=-(delta + gamma), nu=-(delta - gamma))


def interferometer_from_dimer(params: DimerParams) -> tuple[float, float]:
    """Inverse map: (delta, gamma) whose pi/4-flux reduction gives ``params``."""
    return -(params.mu + params.nu) / 2.0, (params.nu - params.mu) / 2.0


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

    @property
    def dimer_params(self) -> DimerParams:
        """Equivalent dimer parameters; raises ValueError off phi = pi/4, where
        no dimer reduction exists."""
        if abs(self.phi - DIMER_REDUCTION_PHI) > 1e-12:
            raise ValueError(
                f"the interferometer reduces to a dimer only at flux pi/4; got phi={self.phi!r}"
            )
        return dimer_from_interferometer(self.delta, self.gamma)


@dataclass(frozen=True)
class AsymmetricDimer:
    """Two center sites with unequal hopping: -mu |alpha><beta| - nu |beta><alpha|."""

    mu: float
    nu: float

    def __post_init__(self):
        _require_finite(mu=self.mu, nu=self.nu)

    @property
    def dimer_params(self) -> DimerParams:
        return DimerParams(self.mu, self.nu)


CenterSpec = Union[OnSitePotential, Interferometer, AsymmetricDimer]


@dataclass(frozen=True)
class LatticeSpec:
    """Finite truncation of the two leads.

    Left lead sites are -left_len..-1, right lead sites 1..right_len. A hard
    wall at -n0 (``hard_wall_n0``) severs the bond between -n0 and -(n0+1), so
    the dynamically connected left lead spans [-n0, -1]; sites beyond the wall
    stay in the index space but decouple. ``None`` keeps the plain open
    truncation.
    """

    left_len: int
    right_len: int
    hard_wall_n0: int | None = None

    def __post_init__(self):
        if self.left_len < 1 or self.right_len < 1:
            raise ValueError("lead lengths must be positive integers")
        if self.hard_wall_n0 is not None:
            if self.hard_wall_n0 < 1:
                raise ValueError("hard wall position must be a positive integer")
            if self.hard_wall_n0 > self.left_len:
                raise ValueError(
                    f"hard wall at -{self.hard_wall_n0} lies outside the "
                    f"left lead of length {self.left_len}"
                )


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


@lru_cache(maxsize=128)
def site_order(center: CenterSpec, lattice: LatticeSpec) -> tuple[SiteLabel, ...]:
    """All site labels in canonical matrix order: left lead, center, right lead."""
    left = tuple(range(-lattice.left_len, 0))
    right = tuple(range(1, lattice.right_len + 1))
    return left + center_sites(center) + right


@lru_cache(maxsize=128)
def _site_index_map(center: CenterSpec, lattice: LatticeSpec) -> dict:
    return {site: i for i, site in enumerate(site_order(center, lattice))}


def site_to_index(lattice: LatticeSpec, site: SiteLabel, center: CenterSpec) -> int:
    """Matrix index of a site label (bijective with :func:`index_to_site`)."""
    try:
        return _site_index_map(center, lattice)[site]
    except KeyError:
        raise ValueError(f"site {site!r} does not exist in this lattice") from None


def index_to_site(lattice: LatticeSpec, index: int, center: CenterSpec) -> SiteLabel:
    order = site_order(center, lattice)
    if not 0 <= index < len(order):
        raise ValueError(f"index {index} out of range for dimension {len(order)}")
    return order[index]


@dataclass(frozen=True)
class HamiltonianMatrix:
    """Dense complex matrix together with the specs that produced it.

    ``label`` records provenance ("built", "rotated", "scaled") since the
    transform modules return matrices that no longer follow the raw build
    rules for their center metadata.
    """

    matrix: np.ndarray
    center: CenterSpec
    lattice: LatticeSpec
    label: str = "built"

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        expected = lattice_dim(self.center, self.lattice)
        if mat.shape != (expected, expected):
            raise ValueError(
                f"matrix shape {mat.shape} does not match lattice dimension {expected}"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def site_index(self, site: SiteLabel) -> int:
        return site_to_index(self.lattice, site, self.center)

    def index_site(self, index: int) -> SiteLabel:
        return index_to_site(self.lattice, index, self.center)

    @property
    def center_span(self) -> tuple[int, int]:
        """Half-open index range [start, stop) occupied by the center sites."""
        start = self.lattice.left_len
        return start, start + len(center_sites(self.center))


def build_hamiltonian(center: CenterSpec, lattice: LatticeSpec) -> HamiltonianMatrix:
    """Assemble the dense Hamiltonian for a center embedded between two leads.

    Lead bonds are -1 between nearest neighbors. Non-Hermitian entries are
    confined to the center block.
    """
    n = lattice_dim(center, lattice)
    left = lattice.left_len
    h = np.zeros((n, n), dtype=complex)

    idx = _site_index_map(center, lattice)

    # lead bonds
    for j in range(-left, -1):
        a, b = idx[j], idx[j + 1]
        h[a, b] = h[b, a] = -1.0
    for j in range(1, lattice.right_len):
        a, b = idx[j], idx[j + 1]
        h[a, b] = h[b, a] = -1.0
    if lattice.hard_wall_n0 is not None and lattice.hard_wall_n0 < left:
        a, b = idx[-(lattice.hard_wall_n0 + 1)], idx[-lattice.hard_wall_n0]
        h[a, b] = h[b, a] = 0.0

    im1, ip1 = idx[-1], idx[1]
    if isinstance(center, OnSitePotential):
        c = idx[0]
        h[im1, c] = h[c, im1] = -1.0
        h[ip1, c] = h[c, ip1] = -1.0
        h[c, c] = center.v
    elif isinstance(center, Interferometer):
        p, m = idx[PLUS], idx[MINUS]
        root2 = math.sqrt(2.0)
        for sigma, s in ((PLUS, +1.0), (MINUS, -1.0)):
            c = idx[sigma]
            phase = cmath.exp(1j * s * center.phi)
            h[im1, c] = -phase.conjugate() / root2
            h[c, im1] = -phase / root2
            h[ip1, c] = -phase / root2
            h[c, ip1] = -phase.conjugate() / root2
        h[p, m] = h[m, p] = center.delta
        h[p, p] = 1j * center.gamma
        h[m, m] = -1j * center.gamma
    elif isinstance(center, AsymmetricDimer):
        a, b = idx[ALPHA], idx[BETA]
        h[im1, a] = h[a, im1] = -1.0
        h[ip1, b] = h[b, ip1] = -1.0
        h[a, b] = -center.mu
        h[b, a] = -center.nu
    else:
        raise TypeError(f"unknown center spec {center!r}")

    return HamiltonianMatrix(matrix=h, center=center, lattice=lattice)
