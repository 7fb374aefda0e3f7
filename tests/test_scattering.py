import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nhscatter.lattice import (
    ALPHA,
    BETA,
    AsymmetricDimer,
    DimerParams,
    Interferometer,
    LatticeSpec,
    OnSitePotential,
)
from nhscatter.scattering import (
    amplification_coefficient,
    amplitudes_for_center,
    assemble_scattering_state,
    classify,
    dimer_amplitudes,
    onsite_amplitudes,
    scattering_residual,
    singular_wavefunction,
    sweep_rows,
    write_sweep_csv,
)

k_interior = st.floats(0.1, math.pi - 0.1, allow_nan=False)
hopping = st.floats(-2.5, 2.5, allow_nan=False)


class TestDimerAmplitudes:
    def test_resonant_point(self):
        a = dimer_amplitudes(DimerParams(0.5, 2.0), math.pi / 2)
        assert a.r == 0
        assert a.t == pytest.approx(2.0, abs=1e-15)
        assert a.T == pytest.approx(4.0, abs=1e-14)

    def test_uniform_chain(self):
        a = dimer_amplitudes(DimerParams(1.0, 1.0), 0.9)
        assert a.r == 0
        assert abs(a.t - 1.0) < 1e-15

    def test_singular_offaxis_magnitudes(self):
        a = dimer_amplitudes(DimerParams(-2.0, 0.5), math.pi / 3)
        assert abs(a.r) == pytest.approx(2.0, abs=1e-12)
        assert abs(a.t) == pytest.approx(math.sqrt(3) / 2, abs=1e-12)

    def test_singular_momentum_flagged(self):
        a = dimer_amplitudes(DimerParams(-2.0, 0.5), math.pi / 2)
        assert a.diverges and a.pole_order == 1
        assert a.T == math.inf and a.R == math.inf
        assert a.r is None and a.t is None

    def test_momentum_domain(self):
        for bad in (0.0, math.pi, -0.5, 4.0):
            with pytest.raises(ValueError):
                dimer_amplitudes(DimerParams(1, 1), bad)

    def test_bad_incidence(self):
        with pytest.raises(ValueError):
            dimer_amplitudes(DimerParams(1, 1), 1.0, incidence="up")

    @given(mu=hopping, nu=hopping, k=k_interior)
    def test_left_right_reflection_identical(self, mu, nu, k):
        assume(abs(mu * nu - cmath.exp(-2j * k)) > 1e-6)
        left = dimer_amplitudes(DimerParams(mu, nu), k, "left")
        right = dimer_amplitudes(DimerParams(mu, nu), k, "right")
        assert left.r == right.r

    @given(mu=hopping, nu=hopping, k=k_interior)
    def test_transmission_ratio(self, mu, nu, k):
        assume(abs(mu) > 0.05 and abs(nu) > 0.05)
        assume(abs(mu * nu - cmath.exp(-2j * k)) > 1e-6)
        left = dimer_amplitudes(DimerParams(mu, nu), k, "left")
        right = dimer_amplitudes(DimerParams(mu, nu), k, "right")
        assert left.t / right.t == pytest.approx(nu / mu, rel=1e-10)

    @given(mu=st.floats(0.2, 3.0), k=k_interior)
    def test_resonance_reflectionless(self, mu, k):
        a = dimer_amplitudes(DimerParams(mu, 1.0 / mu), k)
        assert abs(a.r) < 1e-14

    @given(t0=st.floats(0.2, 2.5), k=k_interior)
    def test_hermitian_unitarity(self, t0, k):
        a = dimer_amplitudes(DimerParams(t0, t0), k)
        assert a.T + a.R == pytest.approx(1.0, abs=1e-12)


class TestOnsiteAmplitudes:
    def test_gain_two_diverges(self):
        a = onsite_amplitudes(2j, math.pi / 2)
        assert a.diverges and a.T == math.inf

    def test_loss_two_quarter(self):
        a = onsite_amplitudes(-2j, math.pi / 2)
        assert a.T == 0.25

    def test_real_unit_potential(self):
        a = onsite_amplitudes(1.0, math.pi / 2)
        assert a.T == pytest.approx(0.8, abs=1e-14)
        assert a.R == pytest.approx(0.2, abs=1e-14)

    @given(v=st.floats(-3, 3), k=k_interior)
    def test_real_potential_unitarity(self, v, k):
        a = onsite_amplitudes(v, k)
        assert a.T + a.R == pytest.approx(1.0, abs=1e-12)

    @given(v=st.floats(-3, 3), k=k_interior)
    def test_real_potential_sign_symmetry(self, v, k):
        assert onsite_amplitudes(v, k).T == pytest.approx(
            onsite_amplitudes(-v, k).T, abs=1e-14
        )

    @given(gamma=st.floats(0.1, 1.8), k=k_interior)
    def test_imaginary_potential_asymmetry(self, gamma, k):
        gain = onsite_amplitudes(1j * gamma, k).T
        loss = onsite_amplitudes(-1j * gamma, k).T
        assert abs(gain - loss) > 1e-10

    def test_direction_independent(self):
        a = onsite_amplitudes(0.7 - 0.4j, 1.1, incidence="left")
        b = onsite_amplitudes(0.7 - 0.4j, 1.1, incidence="right")
        assert a.r == b.r and a.t == b.t


class TestCenterDispatch:
    def test_interferometer_requires_quarter_flux(self):
        with pytest.raises(ValueError):
            amplitudes_for_center(Interferometer(-1.25, 0.75, 0.5), 1.0)

    def test_interferometer_matches_dimer(self):
        a = amplitudes_for_center(Interferometer(-1.25, 0.75, math.pi / 4), 1.0)
        b = dimer_amplitudes(DimerParams(0.5, 2.0), 1.0)
        assert a.r == b.r and a.t == b.t


class TestAmplification:
    def test_value_and_k_independence(self):
        params = DimerParams(0.5, 2.0)
        values = [amplification_coefficient(params, k) for k in (0.3, 1.0, math.pi / 2, 2.6)]
        assert all(v == pytest.approx(4.0, abs=1e-12) for v in values)

    def test_uniform_chain_unit(self):
        assert amplification_coefficient(DimerParams(1, 1), 1.3) == pytest.approx(1.0)

    def test_off_resonance_rejected(self):
        with pytest.raises(ValueError):
            amplification_coefficient(DimerParams(0.5, 2.1), 1.0)


class TestClassify:
    def test_singular_report(self):
        report = classify(DimerParams(-2.0, 0.5))
        assert report.is_singular and not report.is_resonant
        assert report.singular_momenta == (math.pi / 2,)
        assert report.gamma_threshold_met  # gamma = 1.25

    def test_resonant_report(self):
        report = classify(DimerParams(0.5, 2.0))
        assert report.is_resonant and not report.is_singular
        assert report.singular_momenta == ()

    def test_neither(self):
        report = classify(DimerParams(3.0, 5.0))
        assert not report.is_resonant and not report.is_singular

    def test_tolerance(self):
        assert classify(DimerParams(1.0, 1.0 + 1e-10)).is_resonant
        assert not classify(DimerParams(1.0, 1.0 + 1e-6)).is_resonant
        with pytest.raises(ValueError):
            classify(DimerParams(1, 1), tol=0.0)


class TestSingularWavefunction:
    params = DimerParams(-2.0, 0.5)

    def test_center_values(self):
        assert singular_wavefunction(self.params, +1, ALPHA) == 1.0
        assert singular_wavefunction(self.params, +1, BETA) == -0.5j
        assert singular_wavefunction(self.params, -1, BETA) == 0.5j

    def test_lead_values(self):
        assert singular_wavefunction(self.params, +1, -2) == -1.0
        assert singular_wavefunction(self.params, +1, -1) == -1j
        assert singular_wavefunction(self.params, +1, 1) == 0.5 * (1j) ** 2

    def test_solves_eigenproblem_at_zero_energy(self):
        from nhscatter.lattice import build_hamiltonian, site_order

        lat = LatticeSpec(60, 60)
        ham = build_hamiltonian(AsymmetricDimer(-2.0, 0.5), lat)
        for sign in (+1, -1):
            psi = np.array(
                [singular_wavefunction(self.params, sign, s) for s in site_order(ham.center, lat)]
            )
            residual = ham.matrix @ psi  # E_{pi/2} = 0
            assert np.max(np.abs(residual[1:-1])) < 1e-12

    def test_requires_singularity(self):
        with pytest.raises(ValueError):
            singular_wavefunction(DimerParams(0.5, 2.0), +1, ALPHA)
        with pytest.raises(ValueError):
            singular_wavefunction(self.params, 2, ALPHA)
        with pytest.raises(ValueError):
            singular_wavefunction(self.params, +1, "gamma")


class TestScatteringState:
    @given(mu=hopping, nu=hopping, k=st.floats(0.2, math.pi - 0.2))
    @settings(max_examples=40)
    def test_dimer_residual(self, mu, nu, k):
        assume(abs(mu * nu + 1.0) > 0.05)
        lat = LatticeSpec(60, 60)
        res = scattering_residual(AsymmetricDimer(mu, nu), lat, k)
        assert res < 1e-12

    @given(
        re=st.floats(-2, 2), im=st.floats(-2, 2), k=st.floats(0.2, math.pi - 0.2)
    )
    @settings(max_examples=40)
    def test_onsite_residual(self, re, im, k):
        v = complex(re, im)
        assume(abs(2j * math.sin(k) - v) > 0.05)
        lat = LatticeSpec(60, 60)
        res = scattering_residual(OnSitePotential(v), lat, k)
        assert res < 1e-12

    def test_right_incidence_residual(self):
        lat = LatticeSpec(60, 60)
        assert scattering_residual(AsymmetricDimer(0.7, 1.9), lat, 1.3, "right") < 1e-12

    def test_interferometer_residual(self):
        lat = LatticeSpec(60, 60)
        center = Interferometer(-1.25, 0.75, math.pi / 4)
        assert scattering_residual(center, lat, 1.1) < 1e-12

    def test_diverging_state_rejected(self):
        with pytest.raises(ValueError):
            assemble_scattering_state(AsymmetricDimer(-2.0, 0.5), LatticeSpec(10, 10), math.pi / 2)


class TestSweepCsv:
    def test_columns_and_flags(self, tmp_path):
        rows = sweep_rows(OnSitePotential(2j), [math.pi / 4, math.pi / 2])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,re_r,im_r,re_t,im_t,T,R"
        assert lines[2].endswith(",,,,inf,inf")

    def test_deterministic_bytes(self, tmp_path):
        rows = sweep_rows(AsymmetricDimer(0.5, 2.0), np.linspace(0.2, 3.0, 17))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(a, rows)
        write_sweep_csv(b, sweep_rows(AsymmetricDimer(0.5, 2.0), np.linspace(0.2, 3.0, 17)))
        assert a.read_bytes() == b.read_bytes()
