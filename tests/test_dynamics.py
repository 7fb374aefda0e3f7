import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nhscatter import dynamics
from nhscatter.dynamics import (
    BoundaryContaminationError,
    Propagator,
    PropagatorError,
    WavePacketSpec,
    antisym_two_packets,
    gaussian_packet,
    mixed_state_uniform,
    seed_state,
    split_probability,
    transit_metrics,
    write_frames,
    write_frames_axes,
    write_metrics_txt,
)
from nhscatter.lattice import (
    ALPHA,
    BETA,
    AsymmetricDimer,
    Interferometer,
    LatticeSpec,
    OnSitePotential,
    build_hamiltonian,
    site_order,
    site_to_index,
)

UNIFORM = AsymmetricDimer(1.0, 1.0)
SINGULAR = AsymmetricDimer(-2.0, 0.5)


def _at(psi, lattice, center, site):
    """Amplitude of a state vector on one site label."""
    return psi[site_to_index(lattice, site, center)]


def _states(ham, psi0, times):
    return Propagator(ham).states(psi0, times)


class TestWavePacketSpec:
    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            WavePacketSpec(0, 0.0, 0.0)


class TestGaussianPacket:
    lat = LatticeSpec(400, 400)

    def test_unit_norm(self):
        psi = gaussian_packet(self.lat, WavePacketSpec(-60, math.pi / 2, 0.15), UNIFORM)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)

    def test_mean_position(self):
        psi = gaussian_packet(self.lat, WavePacketSpec(-60, math.pi / 2, 0.15), UNIFORM)
        sites = np.array([s if isinstance(s, int) else 0 for s in site_order(UNIFORM, self.lat)])
        mean = float((sites * np.abs(psi) ** 2).sum())
        assert abs(mean + 60.0) < 0.5

    def test_mean_momentum_by_fourier(self):
        psi = gaussian_packet(self.lat, WavePacketSpec(-60, math.pi / 2, 0.15), UNIFORM)
        power = np.abs(np.fft.fft(psi)) ** 2
        ks = 2 * math.pi * np.fft.fftfreq(psi.size)
        mean_k = float((ks * power).sum() / power.sum())
        assert abs(mean_k - math.pi / 2) < 2 * math.pi / self.lat.left_len

    def test_zero_momentum_packet_is_real(self):
        psi = gaussian_packet(self.lat, WavePacketSpec(-60, 0.0, 0.15), UNIFORM)
        peak = psi[np.argmax(np.abs(psi))]
        aligned = psi * (abs(peak) / peak)
        assert np.max(np.abs(aligned.imag)) < 1e-12
        assert aligned.real.min() >= 0.0

    def test_zero_on_center_sites(self):
        center = AsymmetricDimer(0.5, 2.0)
        psi = gaussian_packet(self.lat, WavePacketSpec(-60, 1.0, 0.15), center)
        assert psi.shape == (len(site_order(center, self.lat)),)
        assert _at(psi, self.lat, center, ALPHA) == 0
        assert _at(psi, self.lat, center, BETA) == 0

    def test_clipped_tail_rejected(self):
        with pytest.raises(ValueError):
            gaussian_packet(LatticeSpec(50, 50), WavePacketSpec(-40, 1.0, 0.15), UNIFORM)


class TestSeedState:
    def test_plus_components(self):
        lat = LatticeSpec(5, 5)
        psi = seed_state(lat, SINGULAR, +1)
        assert _at(psi, lat, SINGULAR, ALPHA) == 1.0
        assert _at(psi, lat, SINGULAR, BETA) == 0.5j
        assert np.count_nonzero(psi) == 2

    def test_minus_components(self):
        lat = LatticeSpec(5, 5)
        psi = seed_state(lat, SINGULAR, -1)
        assert _at(psi, lat, SINGULAR, BETA) == -0.5j

    def test_zero_nu_is_bare_alpha(self):
        lat = LatticeSpec(5, 5)
        dimer = AsymmetricDimer(1.0, 0.0)
        psi = seed_state(lat, dimer, +1)
        assert _at(psi, lat, dimer, ALPHA) == 1.0
        assert np.count_nonzero(psi) == 1

    def test_not_normalized(self):
        lat = LatticeSpec(5, 5)
        psi = seed_state(lat, SINGULAR, -1)
        assert np.linalg.norm(psi) ** 2 == pytest.approx(1.25)

    def test_bad_sign(self):
        with pytest.raises(ValueError):
            seed_state(LatticeSpec(5, 5), AsymmetricDimer(1, 1), 0)


class TestAntisymTwoPackets:
    lat = LatticeSpec(400, 400)
    center = AsymmetricDimer(-2.0, 0.5)

    def test_partial_norms(self):
        psi = antisym_two_packets(self.lat, 60, math.pi / 2, 0.15, 0.5, self.center)
        ham = build_hamiltonian(self.center, self.lat)
        left, mid, right = split_probability(np.abs(psi) ** 2, ham.center_span)
        assert left == pytest.approx(1.0, abs=1e-12)
        assert right == pytest.approx(0.25, abs=1e-12)
        assert mid == 0.0

    def test_mirror_symmetry_of_magnitudes(self):
        psi = antisym_two_packets(self.lat, 60, math.pi / 2, 0.15, 0.5, self.center)
        mags = np.abs(psi)
        for j in range(1, 200):
            left = mags[site_to_index(self.lat, -j, self.center)]
            right = mags[site_to_index(self.lat, j, self.center)]
            assert right == pytest.approx(0.5 * left, abs=1e-12)

    def test_zero_weight_is_single_packet(self):
        psi = antisym_two_packets(self.lat, 60, math.pi / 2, 0.15, 0.0, self.center)
        single = gaussian_packet(self.lat, WavePacketSpec(-60, math.pi / 2, 0.15), self.center)
        assert np.array_equal(psi, single)

    def test_center_overlap_warns(self):
        small = LatticeSpec(60, 60)
        with pytest.warns(UserWarning):
            antisym_two_packets(small, 10, math.pi / 2, 0.15, 0.5, self.center)


class TestEvolveState:
    def test_time_zero_exact(self):
        lat = LatticeSpec(20, 20)
        ham = build_hamiltonian(UNIFORM, lat)
        psi0 = gaussian_packet(lat, WavePacketSpec(-10, 1.0, 0.6), UNIFORM)
        out = _states(ham, psi0, [0.0])
        assert out.shape == (1, ham.dim) and out.dtype == complex
        assert np.array_equal(out[0], psi0)

    def test_hermitian_norm_conserved_to_t100(self):
        lat = LatticeSpec(150, 150)
        ham = build_hamiltonian(UNIFORM, lat)
        psi0 = gaussian_packet(lat, WavePacketSpec(-70, math.pi / 2, 0.15), UNIFORM)
        states = _states(ham, psi0, np.arange(10.0, 101.0, 10.0))
        for s in states:
            assert abs(np.linalg.norm(s) - 1.0) < 1e-9

    def test_semigroup(self):
        lat = LatticeSpec(25, 25)
        ham = build_hamiltonian(AsymmetricDimer(-2.0, 0.5), lat)
        psi0 = seed_state(lat, SINGULAR, +1)
        two_step = _states(ham, _states(ham, psi0, [30.0])[0], [17.0])[0]
        one_shot = _states(ham, psi0, [47.0])[0]
        assert np.max(np.abs(two_step - one_shot)) < 1e-9

    def test_agrees_with_ode_oracle(self):
        lat = LatticeSpec(25, 25)
        ham = build_hamiltonian(AsymmetricDimer(-2.0, 0.5), lat)
        psi0 = seed_state(lat, SINGULAR, +1)
        ours = _states(ham, psi0, [50.0])[0]
        ref = oracles.ode_evolve(ham, psi0, 50.0)
        assert np.max(np.abs(ours - ref)) < 1e-8

    def test_eig_method_agrees(self):
        lat = LatticeSpec(25, 25)
        ham = build_hamiltonian(AsymmetricDimer(0.7, 1.9), lat)
        psi0 = gaussian_packet(lat, WavePacketSpec(-12, 1.2, 0.5), AsymmetricDimer(0.7, 1.9))
        a = _states(ham, psi0, [5.0, 11.0])
        b = oracles.eig_evolve(ham, psi0, [5.0, 11.0])
        for x, y in zip(a, b):
            assert np.max(np.abs(x - y)) < 1e-9

    def test_dimension_mismatch(self):
        ham = build_hamiltonian(UNIFORM, LatticeSpec(5, 5))
        psi = gaussian_packet(LatticeSpec(6, 6), WavePacketSpec(-3, 1.0, 3.0), UNIFORM)
        with pytest.raises(ValueError, match="does not match H dim"):
            _states(ham, psi, [1.0])

    def test_bad_times(self):
        lat = LatticeSpec(5, 5)
        ham = build_hamiltonian(UNIFORM, lat)
        psi = gaussian_packet(lat, WavePacketSpec(-3, 1.0, 3.0), UNIFORM)
        with pytest.raises(ValueError):
            _states(ham, psi, [-1.0])
        with pytest.raises(ValueError):
            _states(ham, psi, [2.0, 1.0])
        with pytest.raises(ValueError):
            _states(ham, psi, [])


class TestBlockFrames:
    """An N x r block steps its columns exactly as each would step alone."""

    TIMES = np.arange(0, 71) * 1.0

    def _check_columns(self, ham, states):
        prop = Propagator(ham)
        block = prop.frames(np.column_stack(states), self.TIMES)
        assert block.shape == (len(self.TIMES), len(states), ham.dim)
        for j, psi0 in enumerate(states):
            alone = prop.frames(psi0, self.TIMES)
            assert np.array_equal(block[:, j], alone)
            assert np.array_equal(prop.frames(psi0[:, None], self.TIMES)[:, 0], alone)

    def test_singularity_cases(self):
        lat = LatticeSpec(400, 400)
        center = SINGULAR
        assert center.is_singular()
        self._check_columns(
            build_hamiltonian(center, lat),
            [
                seed_state(lat, center, +1),
                seed_state(lat, center, -1),
                gaussian_packet(lat, WavePacketSpec(-60, math.pi / 2, 0.15), center),
                antisym_two_packets(lat, 60, math.pi / 2, 0.15, center.nu, center),
            ],
        )

    def test_flux_interferometer_packets(self):
        lat = LatticeSpec(400, 400)
        center = Interferometer(-1.25, 0.75, math.pi / 4 + 0.1 * math.pi)
        self._check_columns(
            build_hamiltonian(center, lat),
            [
                gaussian_packet(lat, WavePacketSpec(-60, k0, 0.15), center)
                for k0 in (math.pi / 3, math.pi / 2.5, math.pi / 2)
            ],
        )


class TestStepCache:
    @pytest.fixture
    def step_builds(self, monkeypatch):
        """Records every step build (one TaylorStep per distinct dt)."""
        calls = []
        build = dynamics.TaylorStep

        def counting(a, dt):
            calls.append(dt)
            return build(a, dt)

        monkeypatch.setattr(dynamics, "TaylorStep", counting)
        return calls

    def _propagator(self):
        lat = LatticeSpec(10, 10)
        center = AsymmetricDimer(-2.0, 0.5)
        ham = build_hamiltonian(center, lat)
        return ham, Propagator(ham), seed_state(lat, SINGULAR, +1)

    def test_round_off_steps_share_one_exponential(self, step_builds):
        # the differences of this grid take 11 distinct float values
        times = np.arange(0, 701) * 0.1
        assert len(set(np.diff(times))) > 1
        ham, prop, psi0 = self._propagator()
        final = prop.states(psi0, times)[-1]
        assert len(step_builds) == 1
        ref = oracles.ode_evolve(ham, psi0, times[-1])
        assert np.max(np.abs(final - ref)) < 1e-8 * np.max(np.abs(ref))

    def test_distinct_steps_build_distinct_exponentials(self, step_builds):
        _, prop, _ = self._propagator()
        first = prop.step_matrix(0.1)
        assert prop.step_matrix(0.1 * (1 + 1e-13)) is first
        assert len(step_builds) == 1
        assert prop.step_matrix(0.1 * (1 + 1e-10)) is not first
        assert len(step_builds) == 2
        prop.step_matrix(5.0)
        prop.step_matrix(6.0)
        assert len(step_builds) == 4


class TestTaylorStep:
    """The sparse Taylor action against dense Pade, at the spectral singularity."""

    CASES = ("seed_plus", "seed_minus", "packet", "pair")

    @pytest.fixture(scope="class")
    def singular_runs(self):
        lat = LatticeSpec(400, 400)
        center = SINGULAR
        ham = build_hamiltonian(center, lat)
        states = [
            seed_state(lat, center, +1),
            seed_state(lat, center, -1),
            gaussian_packet(lat, WavePacketSpec(-60, math.pi / 2, 0.15), center),
            antisym_two_packets(lat, 60, math.pi / 2, 0.15, center.nu, center),
        ]
        times = np.arange(0, 71) * 1.0
        ref = oracles.pade_evolve(ham, np.column_stack(states), times)
        return ham, dict(zip(self.CASES, states)), times, np.array(ref)

    @pytest.mark.parametrize("case", CASES)
    def test_matches_dense_pade_at_singularity(self, singular_runs, case):
        ham, states, times, ref = singular_runs
        assert ham.dim == 802
        want = ref[:, :, self.CASES.index(case)]
        ours = Propagator(ham).states(states[case], times)
        assert np.max(np.abs(ours - want)) < 1e-11 * np.max(np.abs(want))

    def test_plan_uses_power_norms_not_one_norm(self):
        # mu = 10 puts ||H dt||_1 at 22 for dt = 2, so a one-norm plan takes
        # m * s = 150 products; alpha_8 of the powers is 4.8, so 40 do
        lat = LatticeSpec(20, 400, hard_wall_n0=20)
        ham = build_hamiltonian(AsymmetricDimer(10.0, 0.1), lat)
        step = Propagator(ham).step_matrix(2.0)
        assert np.abs(ham.matrix.toarray()).sum(axis=0).max() * 2.0 == pytest.approx(22.0)
        assert step.degree * step.scaling < 80

    def test_rerun_ignores_and_keeps_global_random_state(self):
        lat = LatticeSpec(20, 400, hard_wall_n0=20)
        center = AsymmetricDimer(10.0, 0.1)
        ham = build_hamiltonian(center, lat)
        factor, _ = mixed_state_uniform(lat, center, 20)
        results = []
        saved = np.random.get_state()
        for seed in (1, 2):
            np.random.seed(seed)
            before = np.random.get_state()
            results.append(Propagator(ham).step_matrix(10.0) @ factor)
            after = np.random.get_state()
            assert before[0] == after[0] and np.array_equal(before[1], after[1])
            assert before[2:] == after[2:]
        np.random.set_state(saved)
        assert factor.shape == (ham.dim, 20)
        assert np.array_equal(results[0], results[1])

    def test_overflow_raises(self):
        lat = LatticeSpec(10, 10)
        center = OnSitePotential(300j)
        ham = build_hamiltonian(center, lat)
        psi0 = np.zeros(ham.dim, dtype=complex)
        psi0[ham.site_index(0)] = 1.0
        prop = Propagator(ham)
        # the step is never formed as a matrix; its growth e^3000 shows when applied
        with pytest.raises(PropagatorError, match="overflowed"):
            prop.step_matrix(10.0) @ psi0
        with pytest.raises(PropagatorError, match="overflowed"):
            prop.states(psi0, [0.0, 10.0])
        # a step so long that the norms of (H dt)^p overflow has no plan, and
        # one whose plan would take ~1e16 products is refused up front
        with pytest.raises(PropagatorError, match="overflowed"):
            prop.step_matrix(1e40)
        with pytest.raises(PropagatorError, match="sparse products"):
            prop.step_matrix(1e15)


class TestEvolveDensity:
    """A density matrix is its (factor, weights) pair; it evolves as the
    block states(factor, times), its profile is frames(factor, times, weights)."""

    def test_pure_state_consistency(self):
        lat = LatticeSpec(20, 20)
        center = AsymmetricDimer(-2.0, 0.5)
        ham = build_hamiltonian(center, lat)
        psi0 = seed_state(lat, center, +1)
        times = [3.0, 7.0]
        factors = _states(ham, psi0[:, None], times)
        psis = _states(ham, psi0, times)
        for factor, psi in zip(factors, psis):
            populations = np.diagonal(oracles.density_entries(factor, [1.0])).real
            assert np.max(np.abs(populations - np.abs(psi) ** 2)) < 1e-9

    def test_hermitian_trace_constant(self):
        lat = LatticeSpec(15, 15)
        ham = build_hamiltonian(UNIFORM, lat)
        factor0, weights = mixed_state_uniform(lat, UNIFORM, 10)
        for factor in _states(ham, factor0, [5.0, 20.0, 60.0]):
            assert np.trace(oracles.density_entries(factor, weights)).real == pytest.approx(
                1.0, abs=1e-9
            )
            assert factor.shape == (ham.dim, 10)

    def test_stays_hermitian_psd_and_purity_bounded(self):
        lat = LatticeSpec(15, 15)
        center = AsymmetricDimer(2.0, 0.5)
        ham = build_hamiltonian(center, lat)
        factor0, weights = mixed_state_uniform(lat, center, 8)
        initial = oracles.density_entries(factor0, weights)
        assert np.trace(initial).real == pytest.approx(1.0, abs=1e-12)
        evolved = _states(ham, factor0, [12.0])[0]
        assert evolved.shape == (ham.dim, 8)
        full = oracles.density_entries(evolved, weights)
        tr = np.trace(full).real
        assert np.max(np.abs(full - full.conj().T)) < 1e-14
        assert np.linalg.eigvalsh(full)[0] > -1e-10
        assert np.trace(full @ full).real / tr**2 <= 1.0 + 1e-10

    def test_profile_series_matches_evolve_density(self):
        lat = LatticeSpec(15, 15)
        center = AsymmetricDimer(2.0, 0.5)
        ham = build_hamiltonian(center, lat)
        factor0, weights = mixed_state_uniform(lat, center, 8)
        times = [2.0, 9.0]
        series = Propagator(ham).frames(factor0, times, weights)
        factors = _states(ham, factor0, times)
        assert series.shape == (2, ham.dim)
        for row, factor in zip(series, factors):
            want = np.diagonal(oracles.density_entries(factor, weights)).real
            assert np.max(np.abs(row - want)) < 1e-12

    def test_incoherent_sum_oracle_agreement(self):
        n0 = 6
        lat = LatticeSpec(n0, 60, hard_wall_n0=n0)
        times = [10.0, 40.0]
        # mu*nu = 1 absorbs; at the singularity mu*nu = -1 P(t) grows to ~5e8
        for center in (AsymmetricDimer(10.0, 0.1), AsymmetricDimer(-2.0, 0.5)):
            ham = build_hamiltonian(center, lat)
            factor0, weights = mixed_state_uniform(lat, center, n0)
            ours = Propagator(ham).frames(factor0, times, weights).sum(axis=1)
            ref = oracles.incoherent_sum_probability(ham, lat, center, n0, times)
            assert np.max(np.abs(ours - ref) / np.maximum(1.0, ref)) < 1e-9

    @pytest.mark.parametrize("kind", ["mixed", "pure", "full_rank", "absorb"])
    def test_dense_oracle_agreement_at_singularity(self, kind):
        n0 = 6
        lat = LatticeSpec(n0, 60, hard_wall_n0=n0)
        # "absorb": the mixed state under the absorbing dimer mu = 10, nu = 0.1
        center = AsymmetricDimer(10.0, 0.1) if kind == "absorb" else AsymmetricDimer(-2.0, 0.5)
        ham = build_hamiltonian(center, lat)
        if kind in ("mixed", "absorb"):
            factor0, weights = mixed_state_uniform(lat, center, n0)
            dense = np.zeros((ham.dim, ham.dim), dtype=complex)
            for j in range(1, n0 + 1):
                i = site_to_index(lat, -j, center)
                dense[i, i] = 1.0 / n0
        else:
            if kind == "pure":
                psi = seed_state(lat, center, +1)
                dense = np.outer(psi, psi.conj())
                factor0, weights = psi[:, None], np.array([1.0])
            else:
                rng = np.random.default_rng(5)
                a = rng.normal(size=(ham.dim, ham.dim)) + 1j * rng.normal(size=(ham.dim, ham.dim))
                dense = a @ a.conj().T / np.trace(a @ a.conj().T).real
                factor0, weights = oracles.factor_density(dense)
        times = [10.0, 40.0]
        ref = oracles.dense_density_evolve(ham, dense, times)
        factors = _states(ham, factor0, times)
        series = Propagator(ham).frames(factor0, times, weights)
        for factor, row, want in zip(factors, series, ref):
            # P(40) of the mixed state is ~5e8, so the bound is relative to max(1, P)
            scale = max(1.0, np.trace(want).real)
            assert np.max(np.abs(oracles.density_entries(factor, weights) - want)) / scale < 1e-9
            assert np.max(np.abs(row - np.diagonal(want).real)) / scale < 1e-9


class TestProfile:
    """Frames are T x N arrays: row i holds the site probabilities at times[i]."""

    def test_unit_packet(self):
        lat = LatticeSpec(30, 30)
        psi = gaussian_packet(lat, WavePacketSpec(-15, 1.0, 0.4), UNIFORM)
        frames = Propagator(build_hamiltonian(UNIFORM, lat)).frames(psi, [0.0])
        assert frames.shape == (1, 62)
        assert frames.dtype == np.float64
        assert frames.sum(axis=1)[0] == pytest.approx(1.0, abs=1e-12)
        assert frames.min() >= 0.0

    def test_seed_total(self):
        lat = LatticeSpec(5, 5)
        psi = seed_state(lat, SINGULAR, -1)
        ham = build_hamiltonian(SINGULAR, lat)
        assert Propagator(ham).frames(psi, [0.0]).sum(axis=1)[0] == pytest.approx(1.25)

    def test_frames_equal_state_probabilities(self):
        lat = LatticeSpec(12, 12)
        ham = build_hamiltonian(SINGULAR, lat)
        psi0 = seed_state(lat, SINGULAR, +1)
        prop = Propagator(ham)
        times = [0.0, 0.7, 3.0, 8.5]
        frames = prop.frames(psi0, times)
        expected = np.abs(prop.states(psi0, times)) ** 2
        assert frames.shape == (4, ham.dim)
        assert frames.tobytes() == expected.tobytes()

    def test_density_profile(self):
        lat = LatticeSpec(5, 5)
        center = AsymmetricDimer(2.0, 0.5)
        ham = build_hamiltonian(center, lat)
        factor0, weights = mixed_state_uniform(lat, center, 4)
        times = [0.0, 1.0, 3.0]
        prop = Propagator(ham)
        series = prop.frames(factor0, times, weights)
        assert series.shape == (3, ham.dim)
        assert series.sum(axis=1)[0] == pytest.approx(1.0)
        assert factor0.shape == (ham.dim, 4)
        initial = np.diagonal(oracles.density_entries(factor0, weights)).real
        assert np.array_equal(series[0], initial)
        for row, factor in zip(series, prop.states(factor0, times)):
            assert np.array_equal(row, (np.abs(factor) ** 2) @ weights)

    def test_indefinite_density_rejected(self):
        # a negative weight is an indefinite rho; a non-finite one is no state
        lat = LatticeSpec(3, 3)
        prop = Propagator(build_hamiltonian(UNIFORM, lat))
        factor = np.eye(8, 2, dtype=complex)
        for weights in ([1.0, -0.5], [1.0, math.nan], [math.inf, 0.0]):
            with pytest.raises(ValueError, match="finite and >= 0"):
                prop.frames(factor, [0.0], weights)
        series = prop.frames(factor, [0.0], [1, 0])  # integer weights are taken as floats
        assert series.dtype == np.float64
        assert np.array_equal(series[0], np.eye(8)[0])

    def test_results_do_not_alias_the_initial_state(self):
        lat = LatticeSpec(8, 8)
        center = AsymmetricDimer(2.0, 0.5)
        ham = build_hamiltonian(center, lat)
        prop = Propagator(ham)
        psi0 = gaussian_packet(lat, WavePacketSpec(-4, 1.0, 2.0), center)
        factor0, weights = mixed_state_uniform(lat, center, 3)
        times = [0.0, 1.5]
        results = [
            prop.frames(psi0, times),
            prop.states(psi0, times),
            prop.frames(factor0, times),
            prop.frames(factor0, times, weights),
            prop.states(factor0, times),
        ]
        kept = [r.copy() for r in results]
        psi0[:] = 7.0
        factor0[:] = 7.0
        weights[:] = 7.0
        for r, k in zip(results, kept):
            assert np.array_equal(r, k)


class TestTransitMetrics:
    def _frames(self, center, lat, k0=math.pi / 2, t_max=40.0):
        ham = build_hamiltonian(center, lat)
        psi0 = gaussian_packet(lat, WavePacketSpec(-40, k0, 0.15), center)
        times = np.arange(0.0, t_max + 1.0, 1.0)
        return ham, Propagator(ham).frames(psi0, times)

    def test_uniform_chain_self_comparison(self):
        lat = LatticeSpec(160, 160)
        ham, frames = self._frames(UNIFORM, lat)
        m = transit_metrics(frames, ham.center_span)
        assert abs(m.gain - 1.0) < 1e-3
        assert m.distortion < 1e-3
        assert m.reflected < 1e-6

    def test_resonant_amplifier(self):
        lat = LatticeSpec(160, 160)
        center = Interferometer(-1.25, 0.75, math.pi / 4)
        ham, frames = self._frames(center, lat)
        _, ref = self._frames(UNIFORM, lat)
        m = transit_metrics(frames, ham.center_span, reference_frames=ref)
        assert m.gain == pytest.approx(4.0, rel=1e-6)
        assert m.distortion < 1e-10
        assert m.scale == pytest.approx(4.0, rel=1e-6)
        assert m.shift == 0

    def test_shift_search_finds_shifted_reference(self):
        lat = LatticeSpec(160, 160)
        ham, frames = self._frames(UNIFORM, lat)
        # the reference's transmitted profile sits 3 sites behind the run's
        ref = np.zeros_like(frames)
        ref[:, :-3] = frames[:, 3:]
        m = transit_metrics(frames, ham.center_span, reference_frames=ref)
        assert m.shift == 3
        assert m.distortion < 1e-12
        assert m.scale == pytest.approx(1.0, rel=1e-12)

    def test_boundary_contamination_detected(self):
        lat = LatticeSpec(100, 100)
        ham = build_hamiltonian(UNIFORM, lat)
        psi0 = gaussian_packet(lat, WavePacketSpec(-60, math.pi / 2, 0.15), UNIFORM)
        times = np.arange(0.0, 81.0, 1.0)
        frames = Propagator(ham).frames(psi0, times)
        with pytest.raises(BoundaryContaminationError):
            transit_metrics(frames, ham.center_span)

    def test_mismatched_reference_rejected(self):
        lat = LatticeSpec(160, 160)
        ham, frames = self._frames(UNIFORM, lat)
        with pytest.raises(ValueError):
            transit_metrics(frames, ham.center_span, reference_frames=frames[:-1])


class TestFrameExport:
    def test_frames_npy_round_trip(self, tmp_path):
        lat = LatticeSpec(3, 3)
        center = SINGULAR  # mu*nu = -1: the seed grows
        psi = seed_state(lat, center, +1)
        times = np.arange(0, 6) * 0.3
        frames = Propagator(build_hamiltonian(center, lat)).frames(psi, times)
        path = tmp_path / "frames.npy"
        write_frames(path, frames)
        loaded = np.load(path, allow_pickle=False)
        assert loaded.dtype == np.float64
        assert loaded.shape == (6, 8)
        assert loaded.tobytes() == frames.tobytes()

        axes_path = tmp_path / "frames_axes.json"
        write_frames_axes(axes_path, times, lat, center)
        axes = json.loads(axes_path.read_text())
        assert axes["t"] == times.tolist()
        assert axes["j"] == [-3, -2, -1, "alpha", "beta", 1, 2, 3]
        assert tuple(axes["j"]) == site_order(center, lat)

    def test_metrics_txt(self, tmp_path):
        path = tmp_path / "metrics.txt"
        write_metrics_txt(path, {"gain": 4.0, "note": "ok"})
        text = path.read_text()
        assert "gain = 4.0" in text
        assert "note = 'ok'" in text
