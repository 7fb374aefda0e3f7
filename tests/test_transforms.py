import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from nhscatter.lattice import (
    AsymmetricDimer,
    HamiltonianMatrix,
    Interferometer,
    LatticeSpec,
    OnSitePotential,
    build_hamiltonian,
    dimer_from_interferometer,
)
from nhscatter.transforms import (
    _CHUNK_STEPS,
    ALPHA_BETA_BLOCK,
    alpha_beta_rotation,
    biorthogonal_scale,
    charpoly_deviation,
    charpoly_deviations,
    parity_decompose,
)
from oracles import spectrum_distance

hopping = st.floats(-2.5, 2.5, allow_nan=False)


def dense(ham):
    return oracles.csr(ham).toarray()


def interferometer_ham(delta, gamma, n=8):
    return build_hamiltonian(Interferometer(delta, gamma, math.pi / 4), LatticeSpec(n, n))


class TestAlphaBetaRotation:
    @pytest.mark.parametrize(
        "delta,gamma,expected",
        [(-1.25, 0.75, (0.5, 2.0)), (0.75, 1.25, (-2.0, 0.5)), (0.0, 0.0, (0.0, 0.0))],
    )
    def test_matches_built_dimer(self, delta, gamma, expected):
        rotated = alpha_beta_rotation(interferometer_ham(delta, gamma))
        dimer = dimer_from_interferometer(delta, gamma)
        assert dimer.mu == pytest.approx(expected[0])
        assert dimer.nu == pytest.approx(expected[1])
        assert rotated.center == dimer
        target = build_hamiltonian(dimer, LatticeSpec(8, 8))
        assert np.max(np.abs(dense(rotated) - dense(target))) < 1e-14

    def test_touches_only_center_rows_and_columns(self):
        ham = interferometer_ham(0.75, 1.25, n=400)
        assert ham.dim == 802
        rotated = alpha_beta_rotation(ham)
        outside = np.ones(ham.dim, dtype=bool)
        outside[slice(*ham.center_span)] = False
        assert np.array_equal(
            dense(rotated)[np.ix_(outside, outside)], dense(ham)[np.ix_(outside, outside)]
        )
        target = build_hamiltonian(AsymmetricDimer(-2.0, 0.5), ham.lattice)
        assert np.max(np.abs(dense(rotated) - dense(target))) < 1e-14

    def test_unitary(self):
        b = ALPHA_BETA_BLOCK
        assert b.shape == (2, 2)
        assert np.max(np.abs(b.conj().T @ b - np.eye(2))) < 1e-14

    def test_rejects_wrong_center(self):
        ham = build_hamiltonian(AsymmetricDimer(1, 1), LatticeSpec(3, 3))
        with pytest.raises(ValueError):
            alpha_beta_rotation(ham)

    def test_rejects_entries_rotated_off_the_bands(self):
        ham = interferometer_ham(-1.25, 0.75, n=4)
        bands = np.array(ham.bands)
        bands[4, ham.center_span[0] + 1] = 1.0  # H[minus, minus + 2], 3 from plus once rotated
        with pytest.raises(ValueError, match="off the diagonals"):
            alpha_beta_rotation(HamiltonianMatrix(bands, ham.center, ham.lattice))

    def test_rejects_off_quarter_flux(self):
        ham = build_hamiltonian(Interferometer(-1.25, 0.75, 0.8), LatticeSpec(3, 3))
        with pytest.raises(ValueError):
            alpha_beta_rotation(ham)

    @given(delta=hopping, gamma=hopping)
    @settings(max_examples=30)
    def test_rotation_preserves_spectrum(self, delta, gamma):
        # stay off |delta| = |gamma|, where one dimer hopping vanishes and the
        # defective matrix costs dense eigensolvers half their digits
        assume(abs(delta**2 - gamma**2) > 0.01)
        ham = interferometer_ham(delta, gamma, n=5)
        rotated = alpha_beta_rotation(ham)
        dist = spectrum_distance(
            np.linalg.eigvals(dense(ham)), np.linalg.eigvals(dense(rotated))
        )
        assert dist < 1e-10


class TestBiorthogonalScale:
    def test_resonant_pair_gives_uniform_chain(self):
        ham = build_hamiltonian(AsymmetricDimer(0.5, 2.0), LatticeSpec(6, 6))
        scaled = biorthogonal_scale(ham)
        n = scaled.dim
        expected = -(np.eye(n, k=1) + np.eye(n, k=-1))
        assert np.max(np.abs(dense(scaled) - expected)) < 1e-15

    def test_symmetric_input_unchanged(self):
        ham = build_hamiltonian(AsymmetricDimer(1.4, 1.4), LatticeSpec(5, 5))
        scaled = biorthogonal_scale(ham)
        assert np.array_equal(dense(scaled), dense(ham))

    def test_singular_pair_symmetric_imaginary_coupling(self):
        ham = build_hamiltonian(AsymmetricDimer(-2.0, 0.5), LatticeSpec(6, 6))
        scaled = biorthogonal_scale(ham)
        a, b = scaled.center_span[0], scaled.center_span[0] + 1
        c_ab, c_ba = dense(scaled)[a, b], dense(scaled)[b, a]
        assert c_ab == c_ba
        assert c_ab**2 == pytest.approx(-1.0, abs=1e-14)

    def test_equals_explicit_diagonal_similarity(self):
        for mu, nu in [(-2.0, 0.5), (0.5, 2.0), (1.5, -0.4)]:
            ham = build_hamiltonian(AsymmetricDimer(mu, nu), LatticeSpec(6, 6))
            d = np.ones(ham.dim, dtype=complex)
            d[ham.center_span[0] + 1:] = np.sqrt(complex(nu / mu))  # beta onward
            explicit = np.diag(1.0 / d) @ dense(ham) @ np.diag(d)
            assert np.max(np.abs(dense(biorthogonal_scale(ham)) - explicit)) < 1e-15

    @pytest.mark.parametrize("mu, nu", [(1e200, 1e-200), (1e-200, 1e200)])
    def test_rejects_scale_that_under_or_overflows(self, mu, nu):
        # nu/mu is 0 or inf as a float, so sqrt(nu/mu) scales no band
        ham = build_hamiltonian(AsymmetricDimer(mu, nu), LatticeSpec(3, 3))
        with pytest.raises(ValueError, match="finite nonzero"):
            biorthogonal_scale(ham)

    @given(mu=hopping, nu=hopping)
    @settings(max_examples=30)
    def test_spectrum_preserved(self, mu, nu):
        assume(abs(mu) > 0.05 and abs(nu) > 0.05)
        ham = build_hamiltonian(AsymmetricDimer(mu, nu), LatticeSpec(25, 25))
        scaled = biorthogonal_scale(ham)
        dist = spectrum_distance(
            np.linalg.eigvals(dense(ham)), np.linalg.eigvals(dense(scaled))
        )
        assert dist < 1e-10
        assert charpoly_deviation([ham.bands], [scaled.bands]) < 1e-12

    @given(
        mag_mu=st.floats(0.1, 2.5),
        mag_nu=st.floats(0.1, 2.5),
        sign=st.sampled_from([-1.0, 1.0]),
    )
    @settings(max_examples=30)
    def test_hermitian_for_positive_product(self, mag_mu, mag_nu, sign):
        mu, nu = sign * mag_mu, sign * mag_nu  # same sign: mu*nu > 0 by construction
        ham = build_hamiltonian(AsymmetricDimer(mu, nu), LatticeSpec(20, 20))
        scaled = biorthogonal_scale(ham)
        assert np.linalg.norm(dense(scaled) - dense(scaled).conj().T) < 1e-12

    def test_resonant_interferometer_chain_hermitian(self):
        ham = interferometer_ham(-1.25, 0.75, n=30)
        chain = biorthogonal_scale(alpha_beta_rotation(ham))
        assert np.linalg.norm(dense(chain) - dense(chain).conj().T) < 1e-12

    def test_rejects_zero_hopping(self):
        ham = build_hamiltonian(AsymmetricDimer(0.0, 1.0), LatticeSpec(3, 3))
        with pytest.raises(ValueError):
            biorthogonal_scale(ham)

    def test_rejects_wrong_center(self):
        ham = build_hamiltonian(OnSitePotential(1j), LatticeSpec(3, 3))
        with pytest.raises(ValueError):
            biorthogonal_scale(ham)


class TestSparseResults:
    def test_results_stay_canonical_band_matrices(self):
        rotated = alpha_beta_rotation(interferometer_ham(0.75, 1.25, n=20))
        for ham in (rotated, biorthogonal_scale(rotated)):
            h = oracles.csr(ham)
            assert h.has_canonical_format and np.all(h.data != 0)
            rows, cols = h.nonzero()
            assert np.max(np.abs(rows - cols)) <= 2

    def test_memory_is_linear_in_n(self):
        # each transform allocates O(N), 130-290 B per site, where one N x N
        # temporary is 16 N^2 B (64 MB at N = 2,002)
        small = scaled_singular(3)
        parity_decompose(small)  # imports and first-call set-up
        alpha_beta_rotation(interferometer_ham(-1.25, 0.75, n=3))
        singular = build_hamiltonian(AsymmetricDimer(-2.0, 0.5), LatticeSpec(1000, 1000))
        steps = [
            (alpha_beta_rotation, interferometer_ham(-1.25, 0.75, n=1000)),
            (biorthogonal_scale, singular),
            (parity_decompose, biorthogonal_scale(singular)),
        ]
        for transform, ham in steps:
            assert ham.dim == 2002
            tracemalloc.start()
            try:
                transform(ham)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 1000 * ham.dim, (transform.__name__, peak)


#: verify's scaling battery, then dimers at the singularity mu*nu = -1
VERIFY_DIMERS = [(0.5, 2.0), (1.5, 0.4), (-1.2, -0.5), (-2.0, 0.5), (0.8, -1.1)]
SINGULAR_DIMERS = [(-2.0, 0.5), (1.0, -1.0), (-0.4, 2.5)]
#: verify's rotation pairs, then pairs with delta^2 - gamma^2 = -1
ROTATION_PAIRS = [(-1.25, 0.75), (0.75, 1.25), (0.4, -0.9), (0.0, 1.0)]
#: lattices whose center pair lies within two sites of an end
EDGE_LATTICES = [LatticeSpec(1, 1), LatticeSpec(2, 1), LatticeSpec(1, 3)]


class TestSparseOracles:
    """The transforms on H's diagonals give the entries of SciPy's sparse
    products of the same similarities (tests/oracles.py), compared with ==
    (equal up to the sign of zero)."""

    @pytest.mark.parametrize("mu, nu", VERIFY_DIMERS + SINGULAR_DIMERS)
    @pytest.mark.parametrize("lattice", [LatticeSpec(40, 40), *EDGE_LATTICES], ids=repr)
    def test_scaled_bands_equal_coo_scaling(self, mu, nu, lattice):
        ham = build_hamiltonian(AsymmetricDimer(mu, nu), lattice)
        expected = oracles.coo_biorthogonal_scale(ham).bands
        assert np.array_equal(biorthogonal_scale(ham).bands, expected)

    @pytest.mark.parametrize("delta, gamma", ROTATION_PAIRS)
    @pytest.mark.parametrize("lattice", [LatticeSpec(10, 10), *EDGE_LATTICES], ids=repr)
    def test_rotated_bands_equal_csr_products(self, delta, gamma, lattice):
        ham = build_hamiltonian(Interferometer(delta, gamma, math.pi / 4), lattice)
        rotated = alpha_beta_rotation(ham)
        assert rotated.center == dimer_from_interferometer(delta, gamma)
        assert np.array_equal(rotated.bands, oracles.csr_alpha_beta_rotation(ham).bands)
        # and scaling the rotated chain, whose entries carry rounding residues
        if abs(delta) != abs(gamma):
            expected = oracles.coo_biorthogonal_scale(rotated).bands
            assert np.array_equal(biorthogonal_scale(rotated).bands, expected)

    @pytest.mark.parametrize("mu, nu", SINGULAR_DIMERS)
    @pytest.mark.parametrize("n", [1, 2, 100])
    def test_parity_blocks_equal_csr_products(self, mu, nu, n):
        scaled = scaled_singular(n, mu, nu)
        blocks = parity_decompose(scaled)
        h_plus, h_minus, cross = oracles.csr_parity_blocks(scaled)
        dense_plus, dense_minus = oracles.dense_blocks(blocks)
        assert np.array_equal(dense_plus, h_plus.toarray())
        assert np.array_equal(dense_minus, h_minus.toarray())
        assert blocks.cross_coupling == cross


def scaled_singular(n=100, mu=-2.0, nu=0.5):
    ham = build_hamiltonian(AsymmetricDimer(mu, nu), LatticeSpec(n, n))
    return biorthogonal_scale(ham)


class TestParityDecompose:
    def test_block_shapes_and_end_potentials(self):
        blocks = parity_decompose(scaled_singular(100))
        assert blocks.plus_bands.shape == (5, 101)
        assert blocks.minus_bands.shape == (5, 101)
        ends = sorted(blocks.end_potentials, key=lambda z: z.imag)
        assert ends[0] == pytest.approx(-1j, abs=1e-12)
        assert ends[1] == pytest.approx(+1j, abs=1e-12)

    def test_blocks_are_uniform_chains_with_end_potential(self):
        blocks = parity_decompose(scaled_singular(40))
        for block in oracles.dense_blocks(blocks):
            off = np.diagonal(block, 1)
            assert np.max(np.abs(off + 1.0)) < 1e-12
            assert np.max(np.abs(np.diagonal(block)[1:])) < 1e-12
            assert np.max(np.abs(np.triu(block, 2))) < 1e-12
            assert np.max(np.abs(np.tril(block, -2))) < 1e-12

    def test_cross_coupling_negligible(self):
        blocks = parity_decompose(scaled_singular(60))
        assert blocks.cross_coupling < 1e-12

    def test_embedded_blocks_commute_and_reconstruct(self):
        scaled = scaled_singular(60)
        blocks = parity_decompose(scaled)
        hp, hm = oracles.embedded_blocks(blocks)
        assert np.linalg.norm(hp @ hm - hm @ hp) < 1e-12
        assert np.linalg.norm(hp + hm - dense(scaled)) < 1e-12

    def test_spectrum_union(self):
        scaled = scaled_singular(60)
        blocks = parity_decompose(scaled)
        union = np.concatenate(
            [np.linalg.eigvals(h) for h in oracles.dense_blocks(blocks)]
        )
        assert spectrum_distance(np.linalg.eigvals(dense(scaled)), union) < 1e-10
        pair = [blocks.plus_bands, blocks.minus_bands]
        assert charpoly_deviation([scaled.bands], pair) < 1e-12
        assert charpoly_deviation([scaled.bands], pair[::-1]) < 1e-12

    def test_embeddings_are_isometries(self):
        for v in (oracles.parity_embedding(30, 1.0), oracles.parity_embedding(30, -1.0)):
            assert np.max(np.abs(v.conj().T @ v - np.eye(v.shape[1]))) < 1e-14

    def test_rejects_unequal_leads(self):
        ham = build_hamiltonian(AsymmetricDimer(-2.0, 0.5), LatticeSpec(10, 12))
        with pytest.raises(ValueError):
            parity_decompose(biorthogonal_scale(ham))

    def test_rejects_off_singularity(self):
        scaled = biorthogonal_scale(
            build_hamiltonian(AsymmetricDimer(0.5, 2.0), LatticeSpec(10, 10))
        )
        with pytest.raises(ValueError):
            parity_decompose(scaled)

    def test_rejects_unscaled_input(self):
        raw = build_hamiltonian(AsymmetricDimer(-2.0, 0.5), LatticeSpec(10, 10))
        with pytest.raises(ValueError):
            parity_decompose(raw)


def _diagonal_bands(values):
    bands = np.zeros((5, len(values)), dtype=complex)
    bands[2] = values
    return bands


class TestCharpolyDeviation:
    def test_chain_against_its_closed_form_eigenvalues(self):
        # the open -1 chain of n sites has eigenvalues -2 cos(pi k / (n + 1))
        for n in (2, 7, 82, 202):
            chain = np.zeros((5, n))
            chain[1, 1:] = chain[3, :-1] = -1.0
            values = -2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1))
            assert charpoly_deviation([chain], [_diagonal_bands(values)]) < 1e-13, n
            halves = [_diagonal_bands(values[: n // 2]), _diagonal_bands(values[n // 2:])]
            assert charpoly_deviation([chain], halves) < 1e-13, n

    def test_one_site_reads_the_moved_eigenvalue(self):
        # p_A / p_B - 1 = (b - a) / (z - b) at z = +-1.5 b, largest at z = 1.5 b
        a, b = 1.0, 1.0 + 1e-6
        assert charpoly_deviation([_diagonal_bands([a])], [_diagonal_bands([b])]) == (
            pytest.approx((b - a) / (0.5 * b), rel=1e-9)
        )
        assert charpoly_deviation([_diagonal_bands([b])], [_diagonal_bands([b])]) == 0.0
        zero = np.zeros((5, 3))  # no Gershgorin radius: any circle encloses the spectra
        assert charpoly_deviation([zero], [zero]) == 0.0

    def test_refuses_bands_that_are_not_tridiagonal(self):
        # an interferometer couples both center sites to sites -1 and 1
        ham = interferometer_ham(-1.25, 0.75, n=5)
        chain = alpha_beta_rotation(ham)  # its dimer, tridiagonal
        with pytest.raises(ValueError, match="not tridiagonal"):
            charpoly_deviation([ham.bands], [chain.bands])
        with pytest.raises(ValueError, match="not tridiagonal"):
            charpoly_deviation([chain.bands], [ham.bands])
        wrong = np.array(chain.bands)
        wrong[0, 4] = 1e-300
        with pytest.raises(ValueError, match="not tridiagonal"):
            charpoly_deviation([chain.bands], [wrong])

    @pytest.mark.parametrize(
        "a_blocks, b_blocks, reason",
        [
            ([_diagonal_bands([1.0, 2.0])], [_diagonal_bands([1.0])], "different orders"),
            ([], [_diagonal_bands([1.0])], "at least one array"),
            ([np.zeros((3, 2))], [_diagonal_bands([1.0, 2.0])], "5 x n"),
            ([np.zeros((5, 0))], [np.zeros((5, 0))], "5 x n"),
        ],
    )
    def test_refuses_malformed_input(self, a_blocks, b_blocks, reason):
        with pytest.raises(ValueError, match=reason):
            charpoly_deviation(a_blocks, b_blocks)

    @pytest.mark.parametrize("n", [1, 31, 32, 33, 64, 65])
    def test_batch_equals_each_pair_alone(self, n):
        # random complex tridiagonal pairs whose spectra differ, at orders on
        # both sides of the recurrence's chunks of 32 steps; each value of the
        # batch equals the loop over its pair alone bit for bit
        rng = np.random.default_rng(n)
        pairs = []
        for spread in (0.0, 1e-9, 1e-3, 1.0):
            a = np.zeros((5, n), dtype=complex)
            a[1:4] = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
            a[1, 0] = a[3, -1] = 0.0
            b = a.copy()
            b[2] += spread * (rng.normal(size=n) + 1j * rng.normal(size=n))
            pairs.append(([a], [b]))
        alone = [oracles.pairwise_charpoly_deviation(a, b) for a, b in pairs]
        assert charpoly_deviations(pairs).tolist() == alone
        assert [charpoly_deviation(a, b) for a, b in pairs] == alone
        assert alone[0] == 0.0 and min(alone[1:]) > 0.0

    def test_stacked_blocks_over_several_chunks_equal_each_pair_alone(self):
        # an order that is no multiple of a chunk and spans four of them, and
        # matrices cut into blocks of uneven sizes (one site, too), which the
        # stack of the whole batch must keep apart; each value equals the loop
        # over its pair alone, whose diagonals are read block by block
        n = 3 * _CHUNK_STEPS + 4
        rng = np.random.default_rng(n)

        def blocks(chain, cuts):
            edges = [0, *cuts, n]
            parts = [np.array(chain[:, lo:hi]) for lo, hi in zip(edges, edges[1:])]
            for part in parts:
                part[1, 0] = part[3, -1] = 0.0  # the couplings the cuts remove
            return parts

        pairs = []
        for a_cuts, b_cuts in [([], []), ([], [37]), ([50], [5, 64, 65, n - 1]), ([31, 32], [])]:
            chain = np.zeros((5, n), dtype=complex)
            chain[1:4] = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
            pairs.append((blocks(chain, a_cuts), blocks(chain, b_cuts)))
        alone = [oracles.pairwise_charpoly_deviation(a, b) for a, b in pairs]
        assert charpoly_deviations(pairs).tolist() == alone
        assert alone[0] == 0.0 and min(alone[1:]) > 1e-3

    def test_batch_refuses_mixed_orders(self):
        pair = ([_diagonal_bands([1.0, 2.0])], [_diagonal_bands([2.0, 1.0])])
        other = ([_diagonal_bands([1.0])], [_diagonal_bands([1.0])])
        with pytest.raises(ValueError, match="different orders: 1, 2"):
            charpoly_deviations([pair, other])
        with pytest.raises(ValueError, match="no pairs"):
            charpoly_deviations([])


class TestSpectrumDistance:
    def test_largest_distance_of_minimum_sum_pairing(self):
        # pairing 0-0 and 3e^{i theta}-3 sums to 5 with largest distance 5;
        # the crossed pairing sums to 6 with largest distance 3 (the bottleneck)
        theta = 2 * math.asin(5 / 6)
        a = [0.0, 3 * np.exp(1j * theta)]
        assert spectrum_distance(a, [0.0, 3.0]) == pytest.approx(5.0, rel=1e-12)
        assert spectrum_distance(a[::-1], [0.0, 3.0]) == pytest.approx(5.0, rel=1e-12)

    def test_rejects_unequal_sizes(self):
        with pytest.raises(ValueError, match="same size"):
            spectrum_distance([0.0, 1.0], [0.0])

    @pytest.mark.parametrize(
        "a, b, reason",
        [
            ([], [], "empty"),
            ([np.nan, 1.0], [1.0, 0.0], "finite"),
            ([0.0, 1.0], [1.0, complex(0.0, np.nan)], "finite"),
            ([np.inf, 1.0], [1.0, 0.0], "finite"),
            ([0.0, complex(1.0, -np.inf)], [1.0, 0.0], "finite"),
        ],
    )
    def test_rejects_empty_or_non_finite_spectra(self, a, b, reason):
        with pytest.raises(ValueError, match=reason):
            spectrum_distance(a, b)
