import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nhscatter.lattice import (
    AsymmetricDimer,
    Interferometer,
    LatticeSpec,
    OnSitePotential,
    build_hamiltonian,
    dimer_from_interferometer,
)
from nhscatter.transforms import (
    alpha_beta_change,
    alpha_beta_rotation,
    biorthogonal_change,
    biorthogonal_scale,
    parity_decompose,
    spectrum_distance,
)

hopping = st.floats(-2.5, 2.5, allow_nan=False)


def interferometer_ham(delta, gamma, n=8):
    return build_hamiltonian(Interferometer(delta, gamma, math.pi / 4), LatticeSpec(n, n))


class TestAlphaBetaRotation:
    @pytest.mark.parametrize(
        "delta,gamma,expected",
        [(-1.25, 0.75, (0.5, 2.0)), (0.75, 1.25, (-2.0, 0.5)), (0.0, 0.0, (0.0, 0.0))],
    )
    def test_matches_built_dimer(self, delta, gamma, expected):
        rotated = alpha_beta_rotation(interferometer_ham(delta, gamma))
        params = dimer_from_interferometer(delta, gamma)
        assert params.mu == pytest.approx(expected[0])
        assert params.nu == pytest.approx(expected[1])
        target = build_hamiltonian(
            AsymmetricDimer(params.mu, params.nu), LatticeSpec(8, 8)
        )
        assert np.max(np.abs(rotated.matrix - target.matrix)) < 1e-14

    def test_unitary(self):
        change = alpha_beta_change(interferometer_ham(-1.25, 0.75))
        u = change.matrix
        assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) < 1e-14
        assert np.max(np.abs(u @ change.inverse - np.eye(u.shape[0]))) < 1e-12
        assert change.kind == "alpha-beta"

    def test_rejects_wrong_center(self):
        ham = build_hamiltonian(AsymmetricDimer(1, 1), LatticeSpec(3, 3))
        with pytest.raises(ValueError):
            alpha_beta_rotation(ham)

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
            np.linalg.eigvals(ham.matrix), np.linalg.eigvals(rotated.matrix)
        )
        assert dist < 1e-10


class TestBiorthogonalScale:
    def test_resonant_pair_gives_uniform_chain(self):
        ham = build_hamiltonian(AsymmetricDimer(0.5, 2.0), LatticeSpec(6, 6))
        scaled = biorthogonal_scale(ham)
        n = scaled.dim
        expected = -(np.eye(n, k=1) + np.eye(n, k=-1))
        assert np.max(np.abs(scaled.matrix - expected)) < 1e-15

    def test_symmetric_input_unchanged(self):
        ham = build_hamiltonian(AsymmetricDimer(1.4, 1.4), LatticeSpec(5, 5))
        scaled = biorthogonal_scale(ham)
        assert np.array_equal(scaled.matrix, ham.matrix)

    def test_singular_pair_symmetric_imaginary_coupling(self):
        ham = build_hamiltonian(AsymmetricDimer(-2.0, 0.5), LatticeSpec(6, 6))
        scaled = biorthogonal_scale(ham)
        a, b = scaled.center_span[0], scaled.center_span[0] + 1
        c_ab, c_ba = scaled.matrix[a, b], scaled.matrix[b, a]
        assert c_ab == c_ba
        assert c_ab**2 == pytest.approx(-1.0, abs=1e-14)

    def test_biorthonormal_relation(self):
        ham = build_hamiltonian(AsymmetricDimer(-2.0, 0.5), LatticeSpec(6, 6))
        change = biorthogonal_change(ham)
        prod = change.inverse @ change.matrix
        assert np.max(np.abs(prod - np.eye(ham.dim))) < 1e-12
        assert change.kind == "biorthogonal-scale"

    @given(mu=hopping, nu=hopping)
    @settings(max_examples=30)
    def test_spectrum_preserved(self, mu, nu):
        assume(abs(mu) > 0.05 and abs(nu) > 0.05)
        ham = build_hamiltonian(AsymmetricDimer(mu, nu), LatticeSpec(25, 25))
        scaled = biorthogonal_scale(ham)
        dist = spectrum_distance(
            np.linalg.eigvals(ham.matrix), np.linalg.eigvals(scaled.matrix)
        )
        assert dist < 1e-10

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
        assert np.linalg.norm(scaled.matrix - scaled.matrix.conj().T) < 1e-12

    def test_resonant_interferometer_chain_hermitian(self):
        ham = interferometer_ham(-1.25, 0.75, n=30)
        chain = biorthogonal_scale(alpha_beta_rotation(ham))
        assert np.linalg.norm(chain.matrix - chain.matrix.conj().T) < 1e-12

    def test_rejects_zero_hopping(self):
        ham = build_hamiltonian(AsymmetricDimer(0.0, 1.0), LatticeSpec(3, 3))
        with pytest.raises(ValueError):
            biorthogonal_scale(ham)

    def test_rejects_wrong_center(self):
        ham = build_hamiltonian(OnSitePotential(1j), LatticeSpec(3, 3))
        with pytest.raises(ValueError):
            biorthogonal_scale(ham)


def scaled_singular(n=100, mu=-2.0, nu=0.5):
    ham = build_hamiltonian(AsymmetricDimer(mu, nu), LatticeSpec(n, n))
    return biorthogonal_scale(ham)


class TestParityDecompose:
    def test_block_shapes_and_end_potentials(self):
        blocks = parity_decompose(scaled_singular(100))
        assert blocks.h_plus.shape == (101, 101)
        assert blocks.h_minus.shape == (101, 101)
        ends = sorted(blocks.end_potentials, key=lambda z: z.imag)
        assert ends[0] == pytest.approx(-1j, abs=1e-12)
        assert ends[1] == pytest.approx(+1j, abs=1e-12)

    def test_blocks_are_uniform_chains_with_end_potential(self):
        blocks = parity_decompose(scaled_singular(40))
        for block in (blocks.h_plus, blocks.h_minus):
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
        hp, hm = blocks.embedded()
        assert np.linalg.norm(hp @ hm - hm @ hp) < 1e-12
        assert np.linalg.norm(hp + hm - scaled.matrix) < 1e-12

    def test_spectrum_union(self):
        scaled = scaled_singular(60)
        blocks = parity_decompose(scaled)
        union = np.concatenate(
            [np.linalg.eigvals(blocks.h_plus), np.linalg.eigvals(blocks.h_minus)]
        )
        assert spectrum_distance(np.linalg.eigvals(scaled.matrix), union) < 1e-10

    def test_embeddings_are_isometries(self):
        blocks = parity_decompose(scaled_singular(30))
        for v in (blocks.embed_plus, blocks.embed_minus):
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
