import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhscatter.lattice import (
    ALPHA,
    BETA,
    MINUS,
    PLUS,
    AsymmetricDimer,
    DimerParams,
    Interferometer,
    LatticeSpec,
    OnSitePotential,
    build_hamiltonian,
    dimer_from_interferometer,
    index_to_site,
    interferometer_from_dimer,
    lattice_dim,
    site_order,
    site_to_index,
)

finite = st.floats(-5, 5, allow_nan=False, allow_infinity=False)


class TestDimerMap:
    def test_amplifier_parameters(self):
        p = dimer_from_interferometer(-1.25, 0.75)
        assert (p.mu, p.nu) == (0.5, 2.0)
        assert p.is_resonant()

    def test_singular_parameters(self):
        p = dimer_from_interferometer(0.75, 1.25)
        assert (p.mu, p.nu) == (-2.0, 0.5)
        assert p.is_singular()

    def test_no_reduction_off_quarter_flux(self):
        assert Interferometer(-1.25, 0.75, math.pi / 4).dimer_params == DimerParams(0.5, 2.0)
        with pytest.raises(ValueError, match="pi/4"):
            Interferometer(-1.25, 0.75, 0.5).dimer_params

    def test_uniform_chain(self):
        p = dimer_from_interferometer(-1.0, 0.0)
        assert (p.mu, p.nu) == (1.0, 1.0)

    def test_decoupled(self):
        p = dimer_from_interferometer(0.0, 0.0)
        assert (p.mu, p.nu) == (0.0, -0.0)

    @given(delta=finite, gamma=finite)
    def test_inverse_map(self, delta, gamma):
        params = dimer_from_interferometer(delta, gamma)
        d2, g2 = interferometer_from_dimer(params)
        assert math.isclose(d2, delta, abs_tol=1e-12)
        assert math.isclose(g2, gamma, abs_tol=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            DimerParams(math.nan, 1.0)
        with pytest.raises(ValueError):
            Interferometer(1.0, math.inf, 0.0)
        with pytest.raises(ValueError):
            OnSitePotential(complex(math.nan, 0))


class TestSiteIndexing:
    def test_left_lead_starts_at_zero(self):
        lat = LatticeSpec(3, 2)
        assert site_to_index(lat, -3, AsymmetricDimer(1, 1)) == 0

    def test_dimer_center_order(self):
        lat = LatticeSpec(3, 2)
        center = AsymmetricDimer(1, 1)
        assert site_to_index(lat, ALPHA, center) == 3
        assert site_to_index(lat, BETA, center) == 4
        assert site_to_index(lat, 2, center) == 6

    def test_interferometer_center_order(self):
        lat = LatticeSpec(3, 2)
        center = Interferometer(0, 0, 0)
        assert site_to_index(lat, PLUS, center) == 3
        assert site_to_index(lat, MINUS, center) == 4

    def test_onsite_center(self):
        lat = LatticeSpec(3, 2)
        center = OnSitePotential(0)
        assert site_to_index(lat, 0, center) == 3
        assert lattice_dim(center, lat) == 6

    def test_unknown_site(self):
        lat = LatticeSpec(3, 2)
        with pytest.raises(ValueError):
            site_to_index(lat, 5, AsymmetricDimer(1, 1))
        with pytest.raises(ValueError):
            site_to_index(lat, 0, AsymmetricDimer(1, 1))

    @given(left=st.integers(1, 30), right=st.integers(1, 30))
    def test_round_trip_bijection(self, left, right):
        lat = LatticeSpec(left, right)
        center = AsymmetricDimer(0.5, 2.0)
        order = site_order(center, lat)
        assert len(order) == lattice_dim(center, lat)
        for i, site in enumerate(order):
            assert site_to_index(lat, site, center) == i
            assert index_to_site(lat, i, center) == site


class TestLatticeSpec:
    def test_rejects_nonpositive_lengths(self):
        with pytest.raises(ValueError):
            LatticeSpec(0, 5)
        with pytest.raises(ValueError):
            LatticeSpec(5, -1)

    def test_rejects_wall_outside_lead(self):
        with pytest.raises(ValueError):
            LatticeSpec(10, 10, hard_wall_n0=11)
        with pytest.raises(ValueError):
            LatticeSpec(10, 10, hard_wall_n0=0)

    def test_wall_severs_bond(self):
        lat = LatticeSpec(10, 5, hard_wall_n0=4)
        center = OnSitePotential(0)
        h = build_hamiltonian(center, lat).matrix
        i, j = site_to_index(lat, -5, center), site_to_index(lat, -4, center)
        assert h[i, j] == 0 and h[j, i] == 0
        # neighboring bonds survive on both sides of the wall
        assert h[site_to_index(lat, -4, center), site_to_index(lat, -3, center)] == -1
        assert h[site_to_index(lat, -6, center), site_to_index(lat, -5, center)] == -1

    def test_wall_at_lead_end_is_noop(self):
        walled = build_hamiltonian(OnSitePotential(1j), LatticeSpec(6, 6, hard_wall_n0=6))
        open_ = build_hamiltonian(OnSitePotential(1j), LatticeSpec(6, 6))
        assert np.array_equal(walled.matrix, open_.matrix)


class TestBuildHamiltonian:
    def test_onsite_entries(self):
        lat = LatticeSpec(2, 2)
        v = 1.0 + 2.0j
        ham = build_hamiltonian(OnSitePotential(v), lat)
        h = ham.matrix
        c = ham.site_index(0)
        assert h[c, c] == v
        for site in (-1, 1):
            assert h[ham.site_index(site), c] == -1
            assert h[c, ham.site_index(site)] == -1
        assert h[ham.site_index(-2), ham.site_index(-1)] == -1

    def test_onsite_zero_is_uniform_tridiagonal(self):
        lat = LatticeSpec(4, 4)
        h = build_hamiltonian(OnSitePotential(0), lat).matrix
        expected = -(np.eye(9, k=1) + np.eye(9, k=-1))
        assert np.array_equal(h, expected)

    def test_dimer_entries(self):
        lat = LatticeSpec(2, 2)
        ham = build_hamiltonian(AsymmetricDimer(0.5, 2.0), lat)
        h = ham.matrix
        a, b = ham.site_index(ALPHA), ham.site_index(BETA)
        assert h[a, b] == -0.5
        assert h[b, a] == -2.0
        assert h[ham.site_index(-1), a] == -1 and h[a, ham.site_index(-1)] == -1
        assert h[ham.site_index(1), b] == -1 and h[b, ham.site_index(1)] == -1
        # alpha touches only the left lead, beta only the right
        assert h[ham.site_index(1), a] == 0 and h[ham.site_index(-1), b] == 0

    def test_interferometer_entries(self):
        delta, gamma, phi = -1.25, 0.75, math.pi / 4
        lat = LatticeSpec(2, 2)
        ham = build_hamiltonian(Interferometer(delta, gamma, phi), lat)
        h = ham.matrix
        p, m = ham.site_index(PLUS), ham.site_index(MINUS)
        im1, ip1 = ham.site_index(-1), ham.site_index(1)
        root2 = math.sqrt(2)
        assert h[p, p] == 1j * gamma and h[m, m] == -1j * gamma
        assert h[p, m] == delta and h[m, p] == delta
        assert np.isclose(h[im1, p], -np.exp(-1j * phi) / root2)
        assert np.isclose(h[im1, m], -np.exp(+1j * phi) / root2)
        assert np.isclose(h[ip1, p], -np.exp(+1j * phi) / root2)
        assert np.isclose(h[ip1, m], -np.exp(-1j * phi) / root2)
        # conjugate partners
        assert np.isclose(h[p, im1], np.conj(h[im1, p]))
        assert np.isclose(h[m, ip1], np.conj(h[ip1, m]))

    def test_six_by_six_example(self):
        lat = LatticeSpec(2, 2)
        ham = build_hamiltonian(Interferometer(-1.25, 0.75, math.pi / 4), lat)
        assert ham.dim == 6

    @given(delta=finite, gamma=finite, phi=finite)
    @settings(max_examples=50)
    def test_non_hermiticity_confined_to_center(self, delta, gamma, phi):
        lat = LatticeSpec(4, 3)
        ham = build_hamiltonian(Interferometer(delta, gamma, phi), lat)
        defect = ham.matrix - ham.matrix.conj().T
        start, stop = ham.center_span
        mask = np.ones_like(defect, dtype=bool)
        mask[start:stop, start:stop] = False
        assert np.max(np.abs(defect[mask])) == 0.0

    @given(delta=finite, phi=finite)
    @settings(max_examples=50)
    def test_lossless_interferometer_is_hermitian(self, delta, phi):
        lat = LatticeSpec(3, 3)
        h = build_hamiltonian(Interferometer(delta, 0.0, phi), lat).matrix
        assert np.max(np.abs(h - h.conj().T)) < 1e-15

    @given(t0=finite)
    def test_symmetric_dimer_is_hermitian(self, t0):
        h = build_hamiltonian(AsymmetricDimer(t0, t0), LatticeSpec(3, 3)).matrix
        assert np.max(np.abs(h - h.conj().T)) == 0.0

    def test_matrix_is_readonly(self):
        ham = build_hamiltonian(OnSitePotential(0), LatticeSpec(2, 2))
        with pytest.raises(ValueError):
            ham.matrix[0, 0] = 1.0
