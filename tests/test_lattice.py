import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nhscatter.lattice import (
    ALPHA,
    BETA,
    LOCUS_TOL,
    MINUS,
    PLUS,
    AsymmetricDimer,
    HamiltonianMatrix,
    Interferometer,
    LatticeSpec,
    OnSitePotential,
    as_dimer,
    build_hamiltonian,
    dense_from_bands,
    dimer_from_interferometer,
    lattice_dim,
    site_order,
    site_to_index,
    stack_bands,
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
        assert as_dimer(Interferometer(-1.25, 0.75, math.pi / 4)) == AsymmetricDimer(0.5, 2.0)
        with pytest.raises(ValueError, match="pi/4"):
            as_dimer(Interferometer(-1.25, 0.75, 0.5))

    def test_as_dimer_keeps_a_dimer_and_refuses_on_site(self):
        dimer = AsymmetricDimer(-2.0, 0.5)
        assert as_dimer(dimer) is dimer
        with pytest.raises(ValueError, match="no dimer reduction"):
            as_dimer(OnSitePotential(1.0))

    def test_uniform_chain(self):
        p = dimer_from_interferometer(-1.0, 0.0)
        assert (p.mu, p.nu) == (1.0, 1.0)

    def test_decoupled(self):
        p = dimer_from_interferometer(0.0, 0.0)
        assert (p.mu, p.nu) == (0.0, -0.0)

    @given(delta=finite, gamma=finite)
    def test_inverse_map(self, delta, gamma):
        params = dimer_from_interferometer(delta, gamma)
        # mu = -(delta + gamma) and nu = -(delta - gamma), solved for delta, gamma
        d2, g2 = -(params.mu + params.nu) / 2.0, (params.nu - params.mu) / 2.0
        assert math.isclose(d2, delta, abs_tol=1e-12)
        assert math.isclose(g2, gamma, abs_tol=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            AsymmetricDimer(math.nan, 1.0)
        with pytest.raises(ValueError):
            Interferometer(1.0, math.inf, 0.0)
        with pytest.raises(ValueError):
            OnSitePotential(complex(math.nan, 0))


class TestDimerLoci:
    def test_singular(self):
        dimer = AsymmetricDimer(-2.0, 0.5)
        assert dimer.is_singular() and not dimer.is_resonant()

    def test_resonant(self):
        dimer = AsymmetricDimer(0.5, 2.0)
        assert dimer.is_resonant() and not dimer.is_singular()

    def test_neither(self):
        dimer = AsymmetricDimer(3.0, 5.0)
        assert not dimer.is_resonant() and not dimer.is_singular()

    def test_tolerance(self):
        assert 1e-10 < LOCUS_TOL < 1e-6
        assert AsymmetricDimer(1.0, 1.0 + 1e-10).is_resonant()
        assert not AsymmetricDimer(1.0, 1.0 + 1e-6).is_resonant()
        assert AsymmetricDimer(-1.0, 1.0 + 1e-10).is_singular()
        assert not AsymmetricDimer(-1.0, 1.0 + 1e-6).is_singular()


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
        for site, center in [
            *((site, AsymmetricDimer(1, 1)) for site in (5, 3, -4, 0, PLUS, "0", None)),
            *((site, OnSitePotential(0)) for site in (ALPHA, MINUS, 3, -4)),
        ]:
            with pytest.raises(ValueError):
                site_to_index(lat, site, center)

    @given(
        left=st.integers(1, 30),
        right=st.integers(1, 30),
        center=st.sampled_from(
            [AsymmetricDimer(0.5, 2.0), Interferometer(-1.25, 0.75, 1.0), OnSitePotential(2j)]
        ),
    )
    def test_round_trip_bijection(self, left, right, center):
        lat = LatticeSpec(left, right)
        order = site_order(center, lat)
        assert len(order) == lattice_dim(center, lat)
        for i, site in enumerate(order):
            assert site_to_index(lat, site, center) == i


class TestLatticeSpec:
    def test_rejects_nonpositive_lengths(self):
        with pytest.raises(ValueError):
            LatticeSpec(0, 5)
        with pytest.raises(ValueError):
            LatticeSpec(5, -1)

    def test_two_fields(self):
        # the lead lengths are the whole spec: no field cuts a bond
        assert [f.name for f in dataclasses.fields(LatticeSpec)] == ["left_len", "right_len"]

    def test_left_lead_end_is_the_wall(self):
        # site -left_len couples only to -left_len + 1, so nothing passes it
        lat = LatticeSpec(6, 6)
        for center in (
            AsymmetricDimer(10.0, 0.1),
            OnSitePotential(1j),
            Interferometer(-1.25, 0.75, 1.0),
        ):
            h = oracles.csr(build_hamiltonian(center, lat)).toarray()
            order = site_order(center, lat)
            end = site_to_index(lat, -6, center)
            for line in (h[end], h[:, end]):
                assert [order[i] for i in np.flatnonzero(line)] == [-5]


class TestBuildHamiltonian:
    def test_onsite_entries(self):
        lat = LatticeSpec(2, 2)
        v = 1.0 + 2.0j
        center = OnSitePotential(v)
        h = oracles.csr(build_hamiltonian(center, lat))
        at = functools.partial(site_to_index, lat, center=center)
        c = at(0)
        assert h[c, c] == v
        for site in (-1, 1):
            assert h[at(site), c] == -1
            assert h[c, at(site)] == -1
        assert h[at(-2), at(-1)] == -1

    def test_onsite_zero_is_uniform_tridiagonal(self):
        lat = LatticeSpec(4, 4)
        h = oracles.csr(build_hamiltonian(OnSitePotential(0), lat)).toarray()
        expected = -(np.eye(9, k=1) + np.eye(9, k=-1))
        assert np.array_equal(h, expected)

    def test_dimer_entries(self):
        lat = LatticeSpec(2, 2)
        center = AsymmetricDimer(0.5, 2.0)
        h = oracles.csr(build_hamiltonian(center, lat))
        at = functools.partial(site_to_index, lat, center=center)
        a, b = at(ALPHA), at(BETA)
        assert h[a, b] == -0.5
        assert h[b, a] == -2.0
        assert h[at(-1), a] == -1 and h[a, at(-1)] == -1
        assert h[at(1), b] == -1 and h[b, at(1)] == -1
        # alpha touches only the left lead, beta only the right
        assert h[at(1), a] == 0 and h[at(-1), b] == 0

    def test_interferometer_entries(self):
        delta, gamma, phi = -1.25, 0.75, math.pi / 4
        lat = LatticeSpec(2, 2)
        center = Interferometer(delta, gamma, phi)
        h = oracles.csr(build_hamiltonian(center, lat))
        at = functools.partial(site_to_index, lat, center=center)
        p, m = at(PLUS), at(MINUS)
        im1, ip1 = at(-1), at(1)
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

    def test_unknown_center_type_raises(self):
        with pytest.raises(TypeError, match="unknown center spec"):
            build_hamiltonian(object(), LatticeSpec(3, 3))

    def test_six_by_six_example(self):
        lat = LatticeSpec(2, 2)
        ham = build_hamiltonian(Interferometer(-1.25, 0.75, math.pi / 4), lat)
        assert ham.dim == 6

    @given(delta=finite, gamma=finite, phi=finite)
    @settings(max_examples=50)
    def test_non_hermiticity_confined_to_center(self, delta, gamma, phi):
        lat = LatticeSpec(4, 3)
        ham = build_hamiltonian(Interferometer(delta, gamma, phi), lat)
        h = oracles.csr(ham).toarray()
        defect = h - h.conj().T
        start, stop = ham.center_span
        mask = np.ones_like(defect, dtype=bool)
        mask[start:stop, start:stop] = False
        assert np.max(np.abs(defect[mask])) == 0.0

    @given(delta=finite, phi=finite)
    @settings(max_examples=50)
    def test_lossless_interferometer_is_hermitian(self, delta, phi):
        lat = LatticeSpec(3, 3)
        h = oracles.csr(build_hamiltonian(Interferometer(delta, 0.0, phi), lat)).toarray()
        assert np.max(np.abs(h - h.conj().T)) < 1e-15

    @given(t0=finite)
    def test_symmetric_dimer_is_hermitian(self, t0):
        h = oracles.csr(build_hamiltonian(AsymmetricDimer(t0, t0), LatticeSpec(3, 3))).toarray()
        assert np.max(np.abs(h - h.conj().T)) == 0.0

    @pytest.mark.parametrize(
        "center",
        [
            OnSitePotential(1 + 2j),
            OnSitePotential(0),
            Interferometer(-1.25, 0.75, math.pi / 4),
            Interferometer(0.0, 0.0, 0.3),
            AsymmetricDimer(-2.0, 0.5),
            AsymmetricDimer(0.0, 1.0),
        ],
    )
    @pytest.mark.parametrize("left", [1, 4, 20])
    def test_canonical_band_without_stored_zeros(self, center, left):
        lattice = LatticeSpec(left, 7)
        ham = build_hamiltonian(center, lattice)
        h = oracles.csr(ham)
        # the same entries, bit for bit, as the loop-filled dense reference,
        # in the CSR view and in the dense array the bands fill
        dense = oracles.dense_hamiltonian(center, lattice)
        assert np.array_equal(h.toarray(), dense)
        assert np.array_equal(dense_from_bands(ham.bands), dense)
        assert type(h).__name__ == "csr_array" and h.dtype == complex
        # no stored zeros: a zero center entry is left out
        assert h.has_canonical_format and np.all(h.data != 0)
        rows, cols = h.nonzero()
        assert np.max(np.abs(rows - cols)) <= 2


class TestStackBands:
    @pytest.mark.parametrize(
        "band, row", [(0, 0), (0, 1), (1, 0), (3, -1), (4, -2), (4, -1)],
        ids=["-2@0", "-2@1", "-1@0", "+1@last", "+2@next-to-last", "+2@last"],
    )
    def test_refuses_an_entry_coupling_two_blocks(self, band, row):
        # an entry beyond its block's edge would couple it to its neighbour
        bands = build_hamiltonian(AsymmetricDimer(0.7, 1.9), LatticeSpec(3, 3)).bands
        wrong = np.array(bands)
        wrong[band, row] = 0.5
        with pytest.raises(ValueError, match=f"diagonal {band - 2} .* outside the matrix or"):
            stack_bands([bands, wrong, bands])
        stacked, starts = stack_bands([bands, bands, bands])
        assert starts.tolist() == [0, 8, 16, 24]
        assert stacked.tobytes() == np.concatenate([bands] * 3, axis=1).tobytes()

    @pytest.mark.parametrize("blocks", [[], [np.zeros((3, 2))], [np.zeros((5, 0))]])
    def test_refuses_no_blocks_and_malformed_ones(self, blocks):
        with pytest.raises(ValueError, match="at least one array|non-empty 5 x n"):
            stack_bands(blocks)


class TestHamiltonianMatrix:
    def test_build_holds_one_matrix(self):
        # a build allocates O(N), ~130 B per site, never an N x N array
        # (16 N^2 B, 64 MB at N = 2,002); the bound leaves room for other
        # NumPy and SciPy versions
        build_hamiltonian(AsymmetricDimer(0.5, 2.0), LatticeSpec(2, 2))  # imports
        lattice = LatticeSpec(1000, 1000)
        tracemalloc.start()
        try:
            ham = build_hamiltonian(AsymmetricDimer(0.5, 2.0), lattice)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ham.dim == 2002
        assert peak <= 1000 * ham.dim, peak

    def test_holds_given_array_read_only(self):
        center, lattice = AsymmetricDimer(0.5, 2.0), LatticeSpec(2, 2)
        h = np.zeros((6, 6))
        h[0, 1] = 2.0
        ham = oracles.hamiltonian_from_matrix(h, center, lattice)  # converted into a copy
        assert ham.bands.dtype == complex and not ham.bands.flags.writeable
        assert np.count_nonzero(ham.bands) == 1 and ham.bands[3, 0] == 2.0
        h[0, 1] = 3.0  # the caller's array stays its own
        assert ham.bands[3, 0] == 2.0
        bands = np.array(ham.bands)
        direct = HamiltonianMatrix(bands, center, lattice)
        bands[3, 0] = 3.0  # so do the caller's bands
        assert direct.bands[3, 0] == 2.0 and not direct.bands.flags.writeable
        with pytest.raises(ValueError, match="match lattice dimension"):
            oracles.hamiltonian_from_matrix(np.zeros((5, 5)), center, lattice)
        with pytest.raises(ValueError, match="match lattice dimension"):
            HamiltonianMatrix(np.zeros((5, 5)), center, lattice)

    def test_entries_must_lie_on_the_five_diagonals(self):
        center, lattice = AsymmetricDimer(0.5, 2.0), LatticeSpec(2, 2)
        h = np.zeros((6, 6))
        h[0, 3] = 1.0
        with pytest.raises(ValueError, match="off the diagonals"):
            oracles.hamiltonian_from_matrix(h, center, lattice)
        h[0, 3] = 0.0
        h[1, 3] = h[3, 1] = 1.0  # offset 2 is the outermost kept
        assert oracles.hamiltonian_from_matrix(h, center, lattice).bands[4, 1] == 1.0
        bands = np.zeros((5, 6))
        bands[4, 5] = 1.0  # H[5, 7] lies outside a 6 x 6 matrix
        with pytest.raises(ValueError, match="outside the matrix"):
            HamiltonianMatrix(bands, center, lattice)

    @pytest.mark.parametrize(
        "center",
        [
            OnSitePotential(0.3 + 1.1j),
            Interferometer(-1.25, 0.75, 1.0),
            AsymmetricDimer(-2.0, 0.5),
        ],
    )
    def test_matrix_round_trips_through_the_bands(self, center):
        ham = build_hamiltonian(center, LatticeSpec(9, 6))
        again = oracles.hamiltonian_from_matrix(oracles.csr(ham), center, ham.lattice)
        assert np.array_equal(again.bands, ham.bands)
        assert np.array_equal(oracles.csr(again).toarray(), oracles.csr(ham).toarray())
