import inspect
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nhscatter import dynamics, experiments
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
    BAND_OFFSETS,
    BETA,
    AsymmetricDimer,
    HamiltonianMatrix,
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


def _mixture(lattice, center, n0):
    """mixed_state_uniform's block with its equal weights 1/n0: the (factor,
    weights) pair that tests/oracles.py takes for rho = V diag(w) V^dag."""
    return mixed_state_uniform(lattice, center, n0), np.full(n0, 1.0 / n0)


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

    def test_hard_wall_is_the_left_end(self):
        # the support -93.3..-26.7 would leave its tail past a left lead
        # that ends at -70
        spec = WavePacketSpec(-60, math.pi / 2, 0.15)
        with pytest.raises(ValueError, match=r"clipped by the lead ends \[-70, 400\]"):
            gaussian_packet(LatticeSpec(70, 400), spec, UNIFORM)
        psi = gaussian_packet(LatticeSpec(94, 400), spec, UNIFORM)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "center",
        [UNIFORM, OnSitePotential(0.5), Interferometer(-1.25, 0.75, math.pi / 4)],
        ids=["dimer", "onsite", "interferometer"],
    )
    def test_equals_the_per_site_loop(self, center):
        # the array evaluation has the loop's bits, signed zeros included:
        # tails that underflow to zero, k0 = 0 and negative k0
        lat = LatticeSpec(120, 97)
        for site, lam in ((-60, 0.15), (60, 0.15), (-10, 0.6), (3, 3.0)):
            for k0 in (math.pi / 2, math.pi / 3, 1.1, 0.0, -1.1, 7.5):
                spec = WavePacketSpec(site, k0, lam)
                want = oracles.gaussian_packet_loop(lat, spec, center)
                assert gaussian_packet(lat, spec, center).tobytes() == want.tobytes(), spec

    @pytest.mark.parametrize("center", [UNIFORM, OnSitePotential(0.5)], ids=["dimer", "onsite"])
    def test_no_lead_weight_rejected(self, center):
        # centred on site 0 with sigma = 1/40, every lead amplitude underflows to 0
        with pytest.raises(ValueError, match="packet has no weight on the lead sites"):
            gaussian_packet(LatticeSpec(50, 50), WavePacketSpec(0, 1.0, 40.0), center)


class TestMirror:
    """Reversing the sites maps the dimer (mu, nu) onto (nu, mu) and a packet
    at +60 with -k0 onto one at -60 with +k0. Stepping keeps that symmetry
    bit for bit: the lead rows' sigma and zero pads, the recomputed center
    rows and the quarter-turn gauge all map onto their mirror images."""

    LAT = LatticeSpec(400, 400)
    TIMES = np.arange(71.0)

    @given(
        mu=st.floats(0.2, 2.5),
        nu=st.floats(0.2, 2.5),
        signs=st.sampled_from([(1, 1), (1, -1), (-1, 1), (-1, -1)]),
        k0=st.floats(0.2, math.pi - 0.2),
        side=st.sampled_from([1, -1]),
    )
    @settings(max_examples=20, derandomize=True, deadline=None)  # about 1 s
    def test_reversed_sites_give_reversed_frames(self, mu, nu, signs, k0, side):
        mu, nu = signs[0] * mu, signs[1] * nu
        start = gaussian_packet(self.LAT, WavePacketSpec(side * 60, -side * k0, 0.15), UNIFORM)
        frames = Propagator(build_hamiltonian(AsymmetricDimer(mu, nu), self.LAT)).frames
        mirrored = Propagator(build_hamiltonian(AsymmetricDimer(nu, mu), self.LAT)).frames
        assert np.array_equal(
            mirrored(start[::-1].copy(), self.TIMES), frames(start, self.TIMES)[:, ::-1]
        )
        image = gaussian_packet(self.LAT, WavePacketSpec(-side * 60, side * k0, 0.15), UNIFORM)
        assert np.array_equal(image, start[::-1])


class TestLeadLength:
    """Longer leads move no shared site: the default packet stepped on
    LatticeSpec(400, 400) and (520, 430) gives frames that are bit-equal on
    the sites both lattices hold, but for the tails that reached the
    truncated ends, which stay below a fixed floor of the frame maximum."""

    SHORT, LONG = LatticeSpec(400, 400), LatticeSpec(520, 430)
    TIMES = np.arange(71.0)
    FLOOR = 1e-150

    @pytest.mark.parametrize(
        "center",
        [
            Interferometer(-1.25, 0.75, math.pi / 4),
            AsymmetricDimer(-2.0, 0.5),
            AsymmetricDimer(0.7, 1.9),
            OnSitePotential(0.3 + 0.5j),
        ],
        ids=["interferometer", "singular_dimer", "dimer", "onsite"],
    )
    def test_shared_sites_step_alike(self, center):  # about 0.05 s each
        short, long = (
            Propagator(build_hamiltonian(center, lattice)).frames(
                gaussian_packet(lattice, WavePacketSpec(-60, math.pi / 2, 0.15), center),
                self.TIMES,
            )
            for lattice in (self.SHORT, self.LONG)
        )
        shift = self.LONG.left_len - self.SHORT.left_len
        shared = long[:, shift : shift + short.shape[1]]
        above = np.maximum(short, shared) > self.FLOOR * short.max(axis=1, keepdims=True)
        assert np.array_equal(shared[above], short[above])
        assert (short != shared).any()  # the tails that reached the ends differ


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

    @pytest.mark.parametrize(
        "times", [[0.0, 1.0, math.nan], [0.0, math.inf], [-math.inf, 1.0]]
    )
    def test_non_finite_times_rejected(self, times):
        lat = LatticeSpec(5, 5)
        prop = Propagator(build_hamiltonian(UNIFORM, lat))
        psi = gaussian_packet(lat, WavePacketSpec(-3, 1.0, 3.0), UNIFORM)
        with pytest.raises(ValueError, match="times must be finite"):
            prop.frames(psi, times)
        with pytest.raises(ValueError, match="times must be finite"):
            prop.states(psi, times)


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
        lat = LatticeSpec(20, 400)
        ham = build_hamiltonian(AsymmetricDimer(10.0, 0.1), lat)
        step = Propagator(ham).step_matrix(2.0)
        assert np.abs(oracles.csr(ham).toarray()).sum(axis=0).max() * 2.0 == pytest.approx(22.0)
        assert step.degree * step.scaling < 80

    def test_rerun_ignores_and_keeps_global_random_state(self):
        lat = LatticeSpec(20, 400)
        center = AsymmetricDimer(10.0, 0.1)
        ham = build_hamiltonian(center, lat)
        factor = mixed_state_uniform(lat, center, 20)
        results = []
        saved = np.random.get_state()
        for seed in (1, 2):
            np.random.seed(seed)
            before = np.random.get_state()
            # through states: on this gauge-real chain the step acts on phi
            results.append(Propagator(ham).states(factor, [0.0, 10.0])[-1])
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
        psi0[site_to_index(lat, 0, center)] = 1.0
        prop = Propagator(ham)
        # the step is never formed as a matrix; its growth e^3000 shows when applied
        with pytest.raises(PropagatorError, match="overflowed"):
            prop.frames(psi0, [10.0])
        with pytest.raises(PropagatorError, match="overflowed"):
            prop.states(psi0, [0.0, 10.0])
        # a step so long that the norms of (H dt)^p overflow has no plan, and
        # one whose plan would take ~1e16 products is refused up front
        with pytest.raises(PropagatorError, match="overflowed"):
            prop.step_matrix(1e40)
        with pytest.raises(PropagatorError, match="sparse products"):
            prop.step_matrix(1e15)


def _born(x):
    """|x|^2 as a frame holds it: re*re + im*im, which, unlike abs(x)**2 (a
    complex hypot), rounds the same at every SIMD level."""
    return x.real * x.real + x.imag * x.imag


def _real_in_gauge(psi):
    """(-i)^n |psi_n| over the index n: a state whose gauge transform is real."""
    return np.array([1, -1j, -1, 1j])[np.arange(len(psi)) % 4] * np.abs(psi)


class TestRealGauge:
    """Steps whose operator is real in the quarter-turn gauge run in real
    arithmetic; their states equal the complex loop's (signed zeros aside)
    and their frames equal it bit for bit."""

    @staticmethod
    def _check(ham, start, times):
        prop = Propagator(ham)
        ref = oracles.complex_taylor_states(ham, start, times)
        assert np.all(prop.states(start, times) == ref)
        for row, x in zip(prop.frames(start, times), ref):
            assert np.array_equal(row, _born(x).T)
        return prop

    @pytest.mark.parametrize(
        "center, lattice, real",
        [
            (UNIFORM, LatticeSpec(30, 30), True),
            (SINGULAR, LatticeSpec(30, 30), True),
            (AsymmetricDimer(10.0, 0.1), LatticeSpec(20, 40), True),
            (OnSitePotential(2j), LatticeSpec(30, 30), True),
            (Interferometer(-1.25, 0.75, math.pi / 4), LatticeSpec(30, 30), False),
            (OnSitePotential(0.3 + 1.1j), LatticeSpec(30, 30), False),
        ],
        ids=["uniform", "singular", "hard_wall_absorber", "onsite_2j", "interferometer", "onsite"],
    )
    def test_gauged_operator_exactly_when_real_in_gauge(self, center, lattice, real):
        step = Propagator(build_hamiltonian(center, lattice)).step_matrix(1.0)
        assert step.operator.dtype == (np.float64 if real else np.complex128)
        # a complex block is stepped in complex arithmetic, never cast to real
        x = np.ones((step.operator.shape[0], 2))
        assert np.array_equal(step @ (1j * x), 1j * (step @ x))

    @pytest.mark.parametrize("gauge_real", [True, False], ids=["gauge_real", "packet"])
    def test_live_packet_steps_on_real_operator(self, monkeypatch, gauge_real):
        # a state real in the gauge has an all-zero imaginary part there,
        # which is skipped; a packet at k = pi/3 has both parts live
        lat = LatticeSpec(40, 40)
        psi0 = gaussian_packet(lat, WavePacketSpec(-20, math.pi / 3, 0.3), UNIFORM)
        if gauge_real:
            psi0 = _real_in_gauge(psi0)
        ham = build_hamiltonian(UNIFORM, lat)
        prop = Propagator(ham)
        step = prop.step_matrix(1.0)  # the plan's probes are not recorded
        products, runs = [], []
        bind = dynamics.BandedOperator.bind

        def spy(self, x, out, factor=1.0):
            products.append((self.dtype, x, out, factor))
            product = bind(self, x, out, factor)
            return lambda: runs.append(factor) or product()

        monkeypatch.setattr(dynamics.BandedOperator, "bind", spy)
        states = prop.states(psi0, [0.0, 1.0])
        assert np.all(states[1] == oracles.complex_taylor_step(ham, 1.0, psi0))
        live = 1 if gauge_real else 2
        # one product per Taylor term j, bound once with its factor 1/j, from
        # the term before into the other buffer, runs in every substep
        factors = [1.0 / j for j in range(1, step.degree + 1)]
        assert [factor for *_, factor in products] == factors
        assert runs == factors * step.scaling
        for (_, _, before, _), (_, x, out, _) in zip(products, products[1:]):
            assert x is before and out is not x
        for operator_dtype, x, out, _ in products:
            assert operator_dtype == x.dtype == out.dtype == np.float64
            assert x.shape == out.shape == (ham.dim, live)

    @pytest.mark.parametrize("nu", [None, *experiments.AbsorbConfig().nu_values])
    def test_absorb_mixture_matches_complex_loop(self, nu):
        # the three absorbing dimers and the uniform control chain (nu None)
        config = experiments.default_config("absorb")
        lat = config.lattice.to_lattice()
        center = UNIFORM if nu is None else AsymmetricDimer(1.0 / nu, nu)
        factor = mixed_state_uniform(lat, center, lat.left_len)
        times = experiments.TimeConfig(t_max=config.absorb.t_max, dt=config.absorb.dt).times()
        prop = self._check(build_hamiltonian(center, lat), factor, times)
        assert prop.step_matrix(config.absorb.dt).operator.dtype == np.float64

    def test_singularity_cases_match_complex_loop(self):
        lat = LatticeSpec(400, 400)
        center = SINGULAR
        assert center.is_singular()
        cases = [
            seed_state(lat, center, +1),
            seed_state(lat, center, -1),
            gaussian_packet(lat, WavePacketSpec(-60, math.pi / 2, 0.15), center),
            antisym_two_packets(lat, 60, math.pi / 2, 0.15, center.nu, center),
        ]
        ham = build_hamiltonian(center, lat)
        assert ham.dim == 802
        self._check(ham, np.column_stack(cases), np.arange(0, 71) * 1.0)

    @pytest.mark.parametrize(
        "center",
        [OnSitePotential(2j), OnSitePotential(0.3 + 1.1j), Interferometer(-1.25, 0.75, 1.0)],
        ids=["onsite_2j", "onsite", "interferometer"],
    )
    def test_packet_matches_complex_loop(self, center):
        # the second column is real in the gauge, so where -iH is real there
        # the block steps as three live real columns
        lat = LatticeSpec(80, 80)
        psi0 = gaussian_packet(lat, WavePacketSpec(-40, math.pi / 2, 0.3), center)
        block = np.column_stack([psi0, _real_in_gauge(psi0)])
        self._check(build_hamiltonian(center, lat), block, np.arange(0, 61) * 0.5)

    def test_zero_column_stays_zero(self):
        lat = LatticeSpec(60, 60)
        packet = gaussian_packet(lat, WavePacketSpec(-30, math.pi / 3, 0.3), SINGULAR)
        block = np.column_stack([seed_state(lat, SINGULAR, +1), np.zeros_like(packet), packet])
        ham = build_hamiltonian(SINGULAR, lat)
        prop = self._check(ham, block, np.arange(0, 31) * 1.0)
        assert not np.any(prop.states(block, [0.0, 30.0])[:, :, 1])


def _placed(values, offset):
    """A copy of ``values`` whose data start ``offset`` bytes past a 64-byte
    boundary."""
    raw = np.empty(values.nbytes + 128, np.uint8)
    start = -raw.ctypes.data % 64 + offset
    placed = raw[start : start + values.nbytes].view(values.dtype).reshape(values.shape)
    placed[...] = values
    return placed


class TestBoundBuffers:
    """A TaylorStep keeps its buffers and bound products per (shape, dtype)
    of the blocks it steps: reuse must not leak one block into another, and
    neither the buffers' placement nor their reuse may change a bit."""

    CENTERS = [
        pytest.param(SINGULAR, id="gauge_real"),
        pytest.param(Interferometer(-1.25, 0.75, 1.0), id="interferometer"),
    ]

    DT = 12.0  # three substeps: each starts its terms from the last sum

    def _step(self, center):
        ham = build_hamiltonian(center, LatticeSpec(40, 40))
        step = Propagator(ham).step_matrix(self.DT)
        assert step.scaling == 3
        return ham, step

    @staticmethod
    def _blocks(n):
        """Real and complex blocks of shapes N, N x 1 and N x 3."""
        rng = np.random.default_rng(3)
        blocks = []
        for shape in [(n,), (n, 1), (n, 3)]:
            x = rng.standard_normal(shape)
            blocks += [x, x + 1j * rng.standard_normal(shape)]
        return blocks

    @pytest.mark.parametrize("center", CENTERS)
    def test_interleaved_blocks_match_fresh_step_and_complex_loop(self, center):
        ham, step = self._step(center)
        # a gauge-real step acts on phi, psi = (-i)^n phi
        gauge = np.array([1, -1j, -1, 1j])[np.arange(ham.dim) % 4]
        if step.operator.dtype == np.complex128:
            gauge = np.ones(ham.dim)
        for b in self._blocks(ham.dim) * 2:  # each (shape, dtype) met again later
            turn = gauge.reshape(-1, *[1] * (b.ndim - 1))
            want = oracles.complex_taylor_step(ham, self.DT, turn * b) * turn.conj()
            ours = step @ b
            assert ours.shape == b.shape
            assert np.all(ours == want)
            assert np.array_equal(ours, self._step(center)[1] @ b)

    @pytest.mark.parametrize("center", CENTERS)
    def test_result_is_never_a_buffer(self, center):
        ham, step = self._step(center)
        for b in self._blocks(ham.dim):
            first = step @ b
            kept = first.copy()
            first[...] = 7.0
            again = step @ b
            assert not np.shares_memory(first, again)
            assert np.array_equal(again, kept)

    @pytest.mark.parametrize("center", CENTERS)
    def test_buffers_are_64_byte_aligned(self, monkeypatch, center):
        ham, step = self._step(center)
        bound = []
        bind = dynamics.BandedOperator.bind

        def spy(self, x, out, factor=1.0):
            bound.append((x, out))
            return bind(self, x, out, factor)

        monkeypatch.setattr(dynamics.BandedOperator, "bind", spy)
        blocks = self._blocks(ham.dim)
        for b in blocks:
            step @ b
        keys = {(b.shape, np.result_type(b, step.operator.dtype)) for b in blocks}
        # one product per Taylor term, bound once per (shape, dtype)
        assert len(bound) == step.degree * len(keys) == step.degree * len(step._series)
        sums = [total for _, total, _ in step._series.values()]
        for a in [*sums, *(a for pair in bound for a in pair)]:
            assert a.ctypes.data % 64 == 0 and a.flags.c_contiguous and a.flags.writeable

    @pytest.mark.parametrize("width", [None, 3, 20], ids=["vector", "r3", "r20"])
    @pytest.mark.parametrize(
        "center", [*CENTERS, pytest.param(OnSitePotential(0.3 + 1.1j), id="onsite")]
    )
    def test_offset_arrays_give_aligned_bits(self, center, width):
        ham, step = self._step(center)
        shape = (ham.dim,) if width is None else (ham.dim, width)
        rng = np.random.default_rng(width or 0)
        x = rng.standard_normal(shape)
        if step.operator.dtype == np.complex128:
            x = x + 1j * rng.standard_normal(shape)
        aligned = _placed(x, 0)
        want = step.operator.bind(aligned, _placed(x, 0))()
        for offset in (8, 16, 32):
            moved = _placed(x, offset)
            assert moved.ctypes.data % 64 == offset
            assert np.array_equal(step.operator.bind(moved, _placed(x, offset))(), want)


#: Centers of the banded-product checks: every chain the scenarios step, and
#: centers whose entries have both parts nonzero (interferometer, onsite).
PRODUCT_CENTERS = [
    pytest.param(UNIFORM, LatticeSpec(30, 30), id="uniform"),
    pytest.param(AsymmetricDimer(0.5, 2.0), LatticeSpec(30, 30), id="resonant"),
    pytest.param(SINGULAR, LatticeSpec(30, 30), id="singular"),
    pytest.param(AsymmetricDimer(10.0, 0.1), LatticeSpec(20, 40), id="hard_wall"),
    pytest.param(Interferometer(-1.25, 0.75, math.pi / 4), LatticeSpec(30, 30), id="interferometer"),
    pytest.param(Interferometer(-1.25, 0.75, 1.0), LatticeSpec(30, 30), id="interferometer_off"),
    pytest.param(OnSitePotential(2j), LatticeSpec(30, 30), id="onsite_2j"),
    pytest.param(OnSitePotential(0.3 + 1.1j), LatticeSpec(30, 30), id="onsite"),
    pytest.param(SINGULAR, LatticeSpec(1, 30), id="dimer_at_left_end"),
    pytest.param(SINGULAR, LatticeSpec(30, 1), id="dimer_at_right_end"),
]

#: Generators off the lead pattern, every row of whose products is recomputed
#: (see _off_pattern).
OFF_PATTERN = [pytest.param(None, name, id=name) for name in ("full_bands", "turned_chain")]


def _off_pattern(name):
    """H with all five diagonals complex and nonzero (TestPowerNorms._full_bands)
    for "full_bands"; for "turned_chain", the uniform chain times e^{0.3i},
    whose lead entries have both parts nonzero."""
    if name == "full_bands":
        return TestPowerNorms._full_bands()
    ham = build_hamiltonian(UNIFORM, LatticeSpec(30, 30))
    return HamiltonianMatrix(ham.bands * np.exp(0.3j), ham.center, ham.lattice)


class TestBandedProducts:
    """The NumPy banded kernel and plan against SciPy's CSR: products equal
    with ==, plans equal for every step the scenarios take."""

    @pytest.mark.parametrize("dt", [0.7, 9.0])
    @pytest.mark.parametrize("center, lattice", PRODUCT_CENTERS)
    def test_operator_is_the_scaled_csr_generator(self, center, lattice, dt):
        ham = build_hamiltonian(center, lattice)
        step = Propagator(ham).step_matrix(dt)
        assert (step.scaling > 1) == (dt > 1)
        reference = (-1j * oracles.csr(ham) * dt / step.scaling).toarray()
        if step.operator.dtype == np.float64:  # in the gauge phi_n = i^n psi_n
            turns = np.array([1, 1j, -1, -1j])[np.arange(ham.dim) % 4]
            reference = turns[:, None] * reference * turns.conj()
            assert not np.any(reference.imag)
            reference = reference.real
        ours = oracles.operator_csr(step.operator)
        assert ours.nnz == np.count_nonzero(reference) == oracles.csr(ham).nnz
        assert np.array_equal(ours.toarray(), reference)

    @pytest.mark.parametrize("width", [None, 1, 3, 20], ids=["vector", "r1", "r3", "r20"])
    @pytest.mark.parametrize("center, lattice", [*PRODUCT_CENTERS, *OFF_PATTERN])
    def test_products_equal_csr(self, center, lattice, width):
        ham = _off_pattern(lattice) if center is None else build_hamiltonian(center, lattice)
        step = Propagator(ham).step_matrix(1.0)
        n = step.operator.shape[0]
        shape = (n,) if width is None else (n, width)
        rng = np.random.default_rng(width or 0)
        x = rng.standard_normal(shape) * 10.0 ** rng.integers(-4, 5, shape)
        if step.operator.dtype == np.complex128:
            x = x + 1j * rng.standard_normal(shape) * 10.0 ** rng.integers(-4, 5, shape)
        ours = step.operator.apply(x, np.empty_like(x))
        assert np.all(ours == oracles.operator_csr(step.operator) @ x)
        # a Taylor term's factor 1/j, folded into the entries as into CSR's
        for j in (3, 35):
            ours = step.operator.bind(x, np.empty_like(x), 1.0 / j)()
            assert np.all(ours == (oracles.operator_csr(step.operator) * (1.0 / j)) @ x)

    @pytest.mark.parametrize("center, lattice", [*PRODUCT_CENTERS, *OFF_PATTERN])
    def test_only_rows_off_the_lead_pattern_are_recomputed(self, center, lattice):
        # a lead pattern that is silently not found still gives CSR's bits,
        # but recomputes every row by the scalar product
        ham = _off_pattern(lattice) if center is None else build_hamiltonian(center, lattice)
        rows = Propagator(ham).step_matrix(1.0).operator._rows.size
        if center is None:
            assert rows == ham.dim
        elif center == UNIFORM:
            assert rows == 0
        else:
            assert 0 < rows <= 6

    @pytest.fixture(scope="class")
    def scenario_steps(self, tmp_path_factory):
        """(H, dt, plan) of every step plan the six default scenarios,
        singularity at dt = 0.1 and the two benchmark warm-ups build."""
        steps = []
        build = dynamics.Propagator.step_matrix

        def recording(prop, dt):
            seen = len(prop._cache)
            step = build(prop, dt)
            if len(prop._cache) > seen:
                steps.append((prop.ham, dt, (step.degree, step.scaling)))
            return step

        runs = [(name, ()) for name in experiments.SCENARIOS]
        runs += [
            ("singularity", ("time.dt=0.1",)),
            ("amplify", ("time.t_max=1.0",)),
            ("absorb", ("absorb.nu_values=0.5, 0.4", "absorb.t_max=50.0", "absorb.dt=50.0")),
        ]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dynamics.Propagator, "step_matrix", recording)
            for i, (name, overrides) in enumerate(runs):
                out = tmp_path_factory.mktemp("steps") / f"{i}-{name}"
                config = experiments.default_config(name)
                config = experiments.apply_overrides(config, [*overrides, f"out_dir={out}"])
                experiments.run_scenario(config)
        return steps

    def test_plans_equal_csr_for_every_scenario_step(self, scenario_steps):
        # amplify 2, flux-deviation 4, singularity 1 and 1 at dt = 0.1,
        # absorb 1, warm-ups 2 + 1; sweep and verify step nothing
        assert len(scenario_steps) == 12
        for ham, dt, plan in scenario_steps:
            assert plan == oracles.csr_taylor_plan(-1j * oracles.csr(ham) * dt), (ham.center, dt)

    @given(
        kind=st.sampled_from(["dimer", "interferometer", "onsite"]),
        p=st.floats(-3, 3),
        q=st.floats(-3, 3),
        phi=st.floats(0, 2 * math.pi),
        dt=st.floats(1e-3, 30),
        left=st.integers(1, 60),
        right=st.integers(1, 60),
    )
    @settings(max_examples=60, derandomize=True)
    def test_plans_equal_csr(self, kind, p, q, phi, dt, left, right):
        # N = left + right + 1 or 2 falls below, at and above the plan's
        # probe width of 37 columns; the plan is made on the generator the
        # Propagator steps, real in the gauge for every dimer
        center = {
            "dimer": AsymmetricDimer(p, q),
            "interferometer": Interferometer(p, q, phi),
            "onsite": OnSitePotential(complex(p, q)),
        }[kind]
        ham = build_hamiltonian(center, LatticeSpec(left, right))
        plan = dynamics._taylor_plan(Propagator(ham)._generator * dt)
        assert plan == oracles.csr_taylor_plan(-1j * oracles.csr(ham) * dt)


class TestPowerNorms:
    """The plan's norms ||A^p||_1 from probe columns against SciPy's CSR
    powers: a plan compares only (degree, scaling), which a norm a few
    percent off can leave unchanged."""

    @staticmethod
    def _full_bands():
        """N = 80 with all five diagonals complex and nonzero: unlike a
        chain's, its powers A^p fill all 2p diagonals either side."""
        n = 80
        rng = np.random.default_rng(5)
        bands = rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n))
        cols = np.arange(n) + np.array(BAND_OFFSETS)[:, None]
        bands[(cols < 0) | (cols >= n)] = 0
        return HamiltonianMatrix(bands, OnSitePotential(0.0), LatticeSpec(40, 39))

    @pytest.mark.parametrize(
        "center, lattice, dt",
        [
            (Interferometer(-1.25, 0.75, math.pi / 4), LatticeSpec(400, 400), 1.0),
            (Interferometer(-1.25, 0.75, 1.0), LatticeSpec(400, 400), 1.0),
            (AsymmetricDimer(10.0, 0.1), LatticeSpec(20, 400), 2.0),
            (None, None, 0.3),
        ],
        ids=["interferometer", "interferometer_off", "hard_wall_mu10", "full_bands"],
    )
    def test_norms_equal_csr_powers(self, center, lattice, dt):
        ham = self._full_bands() if center is None else build_hamiltonian(center, lattice)
        # the generator the Propagator steps: real probes on absorb's
        # gauge-real dimer, complex ones on the others
        norms = dynamics._power_norms(Propagator(ham)._generator * dt)
        a = -1j * oracles.csr(ham) * dt
        power = a
        assert sorted(norms) == list(range(2, 10))
        for p in range(2, 10):
            power = power @ a
            want = float(abs(power).sum(axis=0).max())
            assert norms[p] == pytest.approx(want, rel=1e-14, abs=0), p


class TestEvolveDensity:
    """A density matrix is its (factor, weights) pair (tests/oracles.py); it
    evolves as the block states(factor, times), and its profile is the
    weighted sum weights @ frames(factor, times) of the block's frames."""

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
        factor0, weights = _mixture(lat, UNIFORM, 10)
        for factor in _states(ham, factor0, [5.0, 20.0, 60.0]):
            assert np.trace(oracles.density_entries(factor, weights)).real == pytest.approx(
                1.0, abs=1e-9
            )
            assert factor.shape == (ham.dim, 10)

    def test_stays_hermitian_psd_and_purity_bounded(self):
        lat = LatticeSpec(15, 15)
        center = AsymmetricDimer(2.0, 0.5)
        ham = build_hamiltonian(center, lat)
        factor0, weights = _mixture(lat, center, 8)
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
        factor0, weights = _mixture(lat, center, 8)
        times = [2.0, 9.0]
        series = weights @ Propagator(ham).frames(factor0, times)
        factors = _states(ham, factor0, times)
        assert series.shape == (2, ham.dim)
        for row, factor in zip(series, factors):
            want = np.diagonal(oracles.density_entries(factor, weights)).real
            assert np.max(np.abs(row - want)) < 1e-12

    def test_incoherent_sum_oracle_agreement(self):
        n0 = 6
        lat = LatticeSpec(n0, 60)
        times = [10.0, 40.0]
        # mu*nu = 1 absorbs; at the singularity mu*nu = -1 P(t) grows to ~5e8
        for center in (AsymmetricDimer(10.0, 0.1), AsymmetricDimer(-2.0, 0.5)):
            ham = build_hamiltonian(center, lat)
            factor0 = mixed_state_uniform(lat, center, n0)
            # absorb's readout: each row summed over its cases and sites, / n0
            rows = Propagator(ham).frame_rows(factor0, times)
            ours = np.array([row.sum() / n0 for row in rows])
            ref = oracles.incoherent_sum_probability(ham, lat, center, n0, times)
            assert np.max(np.abs(ours - ref) / np.maximum(1.0, ref)) < 1e-9

    @pytest.mark.parametrize("kind", ["mixed", "pure", "full_rank", "absorb"])
    def test_dense_oracle_agreement_at_singularity(self, kind):
        n0 = 6
        lat = LatticeSpec(n0, 60)
        # "absorb": the mixed state under the absorbing dimer mu = 10, nu = 0.1
        center = AsymmetricDimer(10.0, 0.1) if kind == "absorb" else AsymmetricDimer(-2.0, 0.5)
        ham = build_hamiltonian(center, lat)
        if kind in ("mixed", "absorb"):
            factor0, weights = _mixture(lat, center, n0)
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
        series = weights @ Propagator(ham).frames(factor0, times)
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
        expected = _born(prop.states(psi0, times))
        assert frames.shape == (4, ham.dim)
        assert frames.tobytes() == expected.tobytes()

    def test_density_profile(self):
        lat = LatticeSpec(5, 5)
        center = AsymmetricDimer(2.0, 0.5)
        ham = build_hamiltonian(center, lat)
        factor0, weights = _mixture(lat, center, 4)
        times = [0.0, 1.0, 3.0]
        prop = Propagator(ham)
        frames = prop.frames(factor0, times)
        assert frames.shape == (3, 4, ham.dim)
        series = weights @ frames
        assert series.sum(axis=1)[0] == pytest.approx(1.0)
        assert factor0.shape == (ham.dim, 4)
        initial = np.diagonal(oracles.density_entries(factor0, weights)).real
        assert np.array_equal(series[0], initial)
        for row, factor in zip(frames, prop.states(factor0, times)):
            assert np.array_equal(row, _born(factor).T)

    @pytest.mark.parametrize(
        "center",
        [AsymmetricDimer(2.0, 0.5), Interferometer(-1.25, 0.75, math.pi / 4)],
        ids=["gauge_real_dimer", "interferometer"],
    )
    def test_results_do_not_alias_the_initial_state(self, center):
        # the two ways _evolve runs: in the real gauge and on complex psi
        lat = LatticeSpec(8, 8)
        ham = build_hamiltonian(center, lat)
        prop = Propagator(ham)
        psi0 = gaussian_packet(lat, WavePacketSpec(-4, 1.0, 2.0), center)
        factor0 = mixed_state_uniform(lat, center, 3)
        times = [0.0, 1.5]
        results = [
            prop.frames(psi0, times),
            prop.states(psi0, times),
            prop.frames(factor0, times),
            prop.states(factor0, times),
        ]
        kept = [r.copy() for r in results]
        psi0[:] = 7.0
        factor0[:] = 7.0
        for r, k in zip(results, kept):
            assert np.array_equal(r, k)


class TestMixedStateUniform:
    @pytest.mark.parametrize("center", [UNIFORM, OnSitePotential(0.5)], ids=["dimer", "onsite"])
    def test_unit_columns_on_the_left_lead(self, center):
        lat = LatticeSpec(6, 4)
        order = site_order(center, lat)
        factor = mixed_state_uniform(lat, center, 5)
        assert factor.shape == (len(order), 5) and factor.dtype == complex
        # column j - 1 is the unit vector on site -j, j = 1..5
        for col in range(5):
            (rows,) = np.nonzero(factor[:, col])
            assert [order[i] for i in rows] == [-(col + 1)]
            assert factor[rows[0], col] == 1.0

    def test_n0_must_lie_in_the_left_lead(self):
        lat = LatticeSpec(6, 4)
        assert mixed_state_uniform(lat, UNIFORM, 6).shape[1] == 6
        for n0 in (0, 7):
            with pytest.raises(ValueError, match=rf"n0 must be in 1..left_len, got {n0}"):
                mixed_state_uniform(lat, UNIFORM, n0)


class TestFrameRows:
    """frame_rows streams the rows of frames, bit for bit, in C order."""

    @pytest.mark.parametrize(
        "center",
        [AsymmetricDimer(2.0, 0.5), Interferometer(-1.25, 0.75, math.pi / 4)],
        ids=["gauge_real_dimer", "interferometer"],
    )
    @pytest.mark.parametrize("start", ["vector", "block", "mixture"])
    def test_stream_matches_frames(self, center, start):
        lat = LatticeSpec(60, 60)
        ham = build_hamiltonian(center, lat)
        prop = Propagator(ham)
        packets = [
            gaussian_packet(lat, WavePacketSpec(site, k0, 0.3), center)
            for site, k0 in ((-25, math.pi / 2), (-20, 1.0), (25, -2.0))
        ]
        start = {
            "vector": lambda: packets[0],
            "block": lambda: np.column_stack(packets),
            "mixture": lambda: mixed_state_uniform(lat, center, lat.left_len),  # absorb's start
        }[start]()
        times = np.arange(0, 31) * 0.7
        frames = prop.frames(start, times)
        rows = list(prop.frame_rows(start, times))  # each row kept
        assert len(rows) == len(frames)
        whole = split_probability(frames, ham.center_span)
        for i, (row, frame) in enumerate(zip(rows, frames)):
            assert row.dtype == np.float64 and row.flags.c_contiguous
            assert row.shape == frame.shape and row.tobytes() == frame.tobytes()
            for part, of_whole in zip(split_probability(row, ham.center_span), whole):
                assert part.tobytes() == of_whole[i].tobytes()
            # absorb's readout, a sum over the whole row
            assert row.sum().tobytes() == frame.sum().tobytes()

    @pytest.mark.parametrize("case", ["singular_block", "interferometer_packet", "vector"])
    def test_rows_square_the_stepped_parts_as_states_do(self, case):
        # rows are squared from the stepped parts, in the gauge without
        # turning phi back into psi: they must equal re*re + im*im of the
        # turned-back states bit for bit, at the spectral singularity too
        lat = LatticeSpec(100, 100)
        center = Interferometer(-1.25, 0.75, math.pi / 4) if "interferometer" in case else SINGULAR
        packet = gaussian_packet(lat, WavePacketSpec(-40, math.pi / 2, 0.3), center)
        start = {
            "singular_block": lambda: np.column_stack(
                [
                    seed_state(lat, center, +1),
                    seed_state(lat, center, -1),
                    packet,
                    antisym_two_packets(lat, 40, math.pi / 2, 0.3, center.nu, center),
                ]
            ),
            "interferometer_packet": lambda: packet,
            "vector": lambda: gaussian_packet(lat, WavePacketSpec(-40, 1.0, 0.3), center),
        }[case]()
        ham = build_hamiltonian(center, lat)
        prop = Propagator(ham)
        times = np.arange(0, 41) * 0.5
        live, _ = prop._evolve(start, times)
        # in the gauge the singularity's two seeds have a dead part each and
        # its packets none; the interferometer steps psi; the vector at k0 = 1
        # has both parts live
        assert live.all() == (case != "singular_block")
        assert (prop.step_matrix(0.5).operator.dtype == np.complex128) == (
            case == "interferometer_packet"
        )
        rows = list(prop.frame_rows(start, times))
        assert len(rows) == times.size
        for row, x in zip(rows, prop.states(start, times)):
            assert row.flags.c_contiguous and row.shape == x.T.shape
            assert row.tobytes() == np.ascontiguousarray(_born(x).T).tobytes()

    def test_bad_times_rejected_before_stepping(self):
        lat = LatticeSpec(8, 8)
        prop = Propagator(build_hamiltonian(UNIFORM, lat))
        factor = mixed_state_uniform(lat, UNIFORM, 2)
        for times in ([], [-1.0], [0.0, 2.0, 1.0], [0.0, math.nan]):
            with pytest.raises(ValueError, match="time"):
                prop.frame_rows(factor, times)  # at the call, before the first row

    @pytest.mark.parametrize("method", ["frames", "frame_rows"])
    def test_takes_start_and_times(self, method):
        # no weights: a mixture is its block, and the caller sums its rows
        assert list(inspect.signature(getattr(Propagator, method)).parameters) == [
            "self",
            "start",
            "times",
        ]


class TestTransitMetrics:
    def _frames(self, center, lat, k0=math.pi / 2, t_max=40.0):
        ham = build_hamiltonian(center, lat)
        psi0 = gaussian_packet(lat, WavePacketSpec(-40, k0, 0.15), center)
        times = np.arange(0.0, t_max + 1.0, 1.0)
        return ham, Propagator(ham).frames(psi0, times)

    def test_uniform_chain_self_comparison(self):
        lat = LatticeSpec(160, 160)
        ham, frames = self._frames(UNIFORM, lat)
        m = transit_metrics(frames[0], frames[-1], frames[-1], ham.center_span)
        assert abs(m.gain - 1.0) < 1e-3
        assert m.distortion == 0.0 and m.shift == 0 and m.scale == 1.0
        assert m.reflected < 1e-6

    def test_resonant_amplifier(self):
        lat = LatticeSpec(160, 160)
        center = Interferometer(-1.25, 0.75, math.pi / 4)
        ham, frames = self._frames(center, lat)
        _, ref = self._frames(UNIFORM, lat)
        m = transit_metrics(frames[0], frames[-1], ref[-1], ham.center_span)
        assert m.gain == pytest.approx(4.0, rel=1e-6)
        assert m.distortion < 1e-10
        assert m.scale == pytest.approx(4.0, rel=1e-6)
        assert m.shift == 0

    def test_shift_search_finds_shifted_reference(self):
        lat = LatticeSpec(160, 160)
        ham, frames = self._frames(UNIFORM, lat)
        # the reference's transmitted profile sits 3 sites behind the run's
        ref = np.zeros_like(frames[-1])
        ref[:-3] = frames[-1, 3:]
        m = transit_metrics(frames[0], frames[-1], ref, ham.center_span)
        assert m.shift == 3
        assert m.distortion < 1e-12
        assert m.scale == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("move", [0, 3])
    def test_equals_the_blas_shift_loop(self, move):
        # amplify's lattice, packet and times at flux pi/4 + 5 pi/100, against
        # the uniform chain's last frame, as is or moved 3 sites: the shift
        # and gain are the loop's, and the pairwise sums move scale and
        # distortion at round-off only. The bounds are 10x the worst seen
        # over deviations 1..20, five k0 and moves -3..7: 6.8e-16 relative
        # in scale, 2.9e-14 in distortion (at deviation 1, whose residual is
        # 0.3 % of the profile, so its sums cancel)
        lat, times = LatticeSpec(400, 400), np.arange(71.0)
        center = Interferometer(-1.25, 0.75, math.pi / 4 + 5 * math.pi / 100)
        ham = build_hamiltonian(center, lat)
        frames = Propagator(ham).frames
        refs = Propagator(build_hamiltonian(UNIFORM, lat)).frames
        for k0 in (math.pi / 3, math.pi / 2.5, math.pi / 2):
            spec = WavePacketSpec(-60, k0, 0.15)
            run = frames(gaussian_packet(lat, spec, center), times)
            ref = np.zeros(ham.dim)
            ref[move:] = refs(gaussian_packet(lat, spec, UNIFORM), times)[-1, : ham.dim - move]
            got = transit_metrics(run[0], run[-1], ref, ham.center_span)
            want = oracles.transit_metrics_loop(run[0], run[-1], ref, ham.center_span)
            assert (got.shift, got.gain) == (want.shift, want.gain), k0
            assert got.scale == pytest.approx(want.scale, rel=1e-14, abs=0)
            assert got.distortion == pytest.approx(want.distortion, rel=3e-13, abs=0)

    def test_boundary_contamination_detected(self):
        # the stream checks every case of its block over every frame: the
        # slow packet (k0 = 0.5) stays clear of the ends, the fast one
        # (k0 = pi/2) reaches the right end, so the block aborts on its worst
        lat = LatticeSpec(100, 100)
        ham = build_hamiltonian(UNIFORM, lat)
        packets = [WavePacketSpec(-60, k0, 0.15) for k0 in (0.5, math.pi / 2)]
        start = np.column_stack([gaussian_packet(lat, spec, UNIFORM) for spec in packets])
        times = np.arange(0.0, 81.0, 1.0)
        worst = Propagator(ham).frames(start[:, 1], times)[:, [0, -1]].max()
        with pytest.raises(BoundaryContaminationError, match=f"probability {worst:.3e} "):
            experiments._stream_frames(ham, start, times)
        experiments._stream_frames(ham, start[:, :1], times)  # the slow one alone passes


class TestFrameExport:
    def test_frames_npy_round_trip(self, tmp_path):
        lat = LatticeSpec(3, 3)
        center = SINGULAR  # mu*nu = -1: the seed grows
        psi = seed_state(lat, center, +1)
        times = np.arange(0, 6) * 0.3
        frames = Propagator(build_hamiltonian(center, lat)).frames(psi, times)
        path = tmp_path / "frames.npy"
        with write_frames(path, frames.shape) as out:
            for row in frames:
                out.write(row)
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

    @pytest.mark.parametrize("shape", [(1, 8), (6, 8), (1234, 3)])
    def test_rows_write_the_bytes_of_np_save(self, tmp_path, shape):
        frames = np.random.default_rng(7).random(shape)
        np.save(tmp_path / "saved.npy", frames, allow_pickle=False)
        with write_frames(tmp_path / "rows.npy", shape) as out:
            for row in frames:
                out.write(row)
        assert (tmp_path / "rows.npy").read_bytes() == (tmp_path / "saved.npy").read_bytes()

    @pytest.mark.parametrize("count", [0, 2, 4])
    def test_wrong_row_count_leaves_no_file(self, tmp_path, count):
        # too many rows fail at the extra write, too few on closing
        path = tmp_path / "frames.npy"
        with pytest.raises(ValueError, match="rows"):
            with write_frames(path, (3, 5)) as out:
                for row in np.ones((count, 5)):
                    out.write(row)
        assert not path.exists()

    def test_close_after_too_few_rows_raises(self, tmp_path):
        path = tmp_path / "frames.npy"
        out = write_frames(path, (3, 5))
        out.write(np.ones(5))
        with pytest.raises(ValueError, match="1 rows written, but its header names 3"):
            out.close()
        assert not path.exists()

    def test_failed_stream_leaves_no_file(self, tmp_path):
        path = tmp_path / "frames.npy"
        with pytest.raises(RuntimeError, match="stepping failed"):
            with write_frames(path, (3, 5)) as out:
                out.write(np.ones(5))
                raise RuntimeError("stepping failed")
        assert not path.exists()

    def test_row_of_wrong_length_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="shape"):
            with write_frames(tmp_path / "frames.npy", (3, 5)) as out:
                out.write(np.ones(4))
        assert not (tmp_path / "frames.npy").exists()

    def test_metrics_txt(self, tmp_path):
        path = tmp_path / "metrics.txt"
        write_metrics_txt(path, {"gain": 4.0, "note": "ok"})
        text = path.read_text()
        assert "gain = 4.0" in text
        assert "note = 'ok'" in text
