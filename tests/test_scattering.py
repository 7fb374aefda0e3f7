import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from nhscatter.lattice import (
    ALPHA,
    BETA,
    AsymmetricDimer,
    Interferometer,
    LatticeSpec,
    OnSitePotential,
    as_dimer,
    build_hamiltonian,
)
from nhscatter.scattering import (
    CSV_BLOCK_ROWS,
    LEFT,
    RIGHT,
    amplitude_table,
    scattering_residual,
    scattering_residuals,
    scattering_states,
    singular_wavefunction,
    sweep_rows,
    write_sweep_csv,
)
from oracles import closed_form_amplitudes, csr, linear_solve_amplitudes

k_interior = st.floats(0.1, math.pi - 0.1, allow_nan=False)
hopping = st.floats(-2.5, 2.5, allow_nan=False)


class TestDimerAmplitudes:
    def test_resonant_point(self):
        a = amplitude_table(AsymmetricDimer(0.5, 2.0), math.pi / 2)
        assert a.r == 0
        assert a.t == pytest.approx(2.0, abs=1e-15)
        assert a.T == pytest.approx(4.0, abs=1e-14)

    def test_uniform_chain(self):
        a = amplitude_table(AsymmetricDimer(1.0, 1.0), 0.9)
        assert a.r == 0
        assert abs(a.t - 1.0) < 1e-15

    def test_singular_offaxis_magnitudes(self):
        a = amplitude_table(AsymmetricDimer(-2.0, 0.5), math.pi / 3)
        assert abs(a.r) == pytest.approx(2.0, abs=1e-12)
        assert abs(a.t) == pytest.approx(math.sqrt(3) / 2, abs=1e-12)

    def test_singular_momentum_flagged(self):
        a = amplitude_table(AsymmetricDimer(-2.0, 0.5), math.pi / 2)
        assert a.diverges
        assert a.T == math.inf and a.R == math.inf
        assert np.isnan(a.r) and np.isnan(a.t)

    def test_momentum_domain(self):
        for bad in (0.0, math.pi, -0.5, 4.0):
            with pytest.raises(ValueError):
                amplitude_table(AsymmetricDimer(1, 1), bad)

    def test_bad_incidence(self):
        with pytest.raises(ValueError):
            amplitude_table(AsymmetricDimer(1, 1), 1.0, incidence="up")

    @given(mu=hopping, nu=hopping, k=k_interior)
    def test_left_right_reflection_identical(self, mu, nu, k):
        assume(abs(mu * nu - cmath.exp(-2j * k)) > 1e-6)
        left = amplitude_table(AsymmetricDimer(mu, nu), k, "left")
        right = amplitude_table(AsymmetricDimer(mu, nu), k, "right")
        assert left.r == right.r

    @given(mu=hopping, nu=hopping, k=k_interior)
    def test_transmission_ratio(self, mu, nu, k):
        assume(abs(mu) > 0.05 and abs(nu) > 0.05)
        assume(abs(mu * nu - cmath.exp(-2j * k)) > 1e-6)
        left = amplitude_table(AsymmetricDimer(mu, nu), k, "left")
        right = amplitude_table(AsymmetricDimer(mu, nu), k, "right")
        assert left.t / right.t == pytest.approx(nu / mu, rel=1e-10)

    @given(mu=st.floats(0.2, 3.0), k=k_interior)
    def test_resonance_reflectionless(self, mu, k):
        a = amplitude_table(AsymmetricDimer(mu, 1.0 / mu), k)
        assert abs(a.r) < 1e-14

    @given(t0=st.floats(0.2, 2.5), k=k_interior)
    def test_hermitian_unitarity(self, t0, k):
        a = amplitude_table(AsymmetricDimer(t0, t0), k)
        assert a.T + a.R == pytest.approx(1.0, abs=1e-12)


class TestOnsiteAmplitudes:
    def test_gain_two_diverges(self):
        a = amplitude_table(OnSitePotential(2j), math.pi / 2)
        assert a.diverges and a.T == math.inf

    def test_loss_two_quarter(self):
        a = amplitude_table(OnSitePotential(-2j), math.pi / 2)
        assert a.T == 0.25

    def test_real_unit_potential(self):
        a = amplitude_table(OnSitePotential(1.0), math.pi / 2)
        assert a.T == pytest.approx(0.8, abs=1e-14)
        assert a.R == pytest.approx(0.2, abs=1e-14)

    @given(v=st.floats(-3, 3), k=k_interior)
    def test_real_potential_unitarity(self, v, k):
        a = amplitude_table(OnSitePotential(v), k)
        assert a.T + a.R == pytest.approx(1.0, abs=1e-12)

    @given(v=st.floats(-3, 3), k=k_interior)
    def test_real_potential_sign_symmetry(self, v, k):
        assert amplitude_table(OnSitePotential(v), k).T == pytest.approx(
            amplitude_table(OnSitePotential(-v), k).T, abs=1e-14
        )

    @given(gamma=st.floats(0.1, 1.8), k=k_interior)
    def test_imaginary_potential_asymmetry(self, gamma, k):
        gain = amplitude_table(OnSitePotential(1j * gamma), k).T
        loss = amplitude_table(OnSitePotential(-1j * gamma), k).T
        assert abs(gain - loss) > 1e-10

    def test_direction_independent(self):
        a = amplitude_table(OnSitePotential(0.7 - 0.4j), 1.1, incidence="left")
        b = amplitude_table(OnSitePotential(0.7 - 0.4j), 1.1, incidence="right")
        assert a.r == b.r and a.t == b.t


class TestCenterDispatch:
    def test_interferometer_requires_quarter_flux(self):
        with pytest.raises(ValueError):
            amplitude_table(Interferometer(-1.25, 0.75, 0.5), 1.0)

    def test_interferometer_matches_dimer(self):
        a = amplitude_table(Interferometer(-1.25, 0.75, math.pi / 4), 1.0)
        b = amplitude_table(AsymmetricDimer(0.5, 2.0), 1.0)
        assert a.r == b.r and a.t == b.t


class TestAmplification:
    def test_value_and_k_independence(self):
        dimer = AsymmetricDimer(0.5, 2.0)
        values = [amplitude_table(dimer, k).T for k in (0.3, 1.0, math.pi / 2, 2.6)]
        assert all(v == pytest.approx(4.0, abs=1e-12) for v in values)

    def test_uniform_chain_unit(self):
        assert amplitude_table(AsymmetricDimer(1, 1), 1.3).T == pytest.approx(1.0)


class TestSingularWavefunction:
    dimer = AsymmetricDimer(-2.0, 0.5)

    def test_center_values(self):
        assert singular_wavefunction(self.dimer, +1, ALPHA) == 1.0
        assert singular_wavefunction(self.dimer, +1, BETA) == -0.5j
        assert singular_wavefunction(self.dimer, -1, BETA) == 0.5j

    def test_lead_values(self):
        assert singular_wavefunction(self.dimer, +1, -2) == -1.0
        assert singular_wavefunction(self.dimer, +1, -1) == -1j
        assert singular_wavefunction(self.dimer, +1, 1) == 0.5 * (1j) ** 2

    def test_solves_eigenproblem_at_zero_energy(self):
        from nhscatter.lattice import build_hamiltonian, site_order

        lat = LatticeSpec(60, 60)
        ham = build_hamiltonian(AsymmetricDimer(-2.0, 0.5), lat)
        for sign in (+1, -1):
            psi = np.array(
                [singular_wavefunction(self.dimer, sign, s) for s in site_order(ham.center, lat)]
            )
            residual = csr(ham) @ psi  # E_{pi/2} = 0
            assert np.max(np.abs(residual[1:-1])) < 1e-12

    def test_requires_singularity(self):
        with pytest.raises(ValueError):
            singular_wavefunction(AsymmetricDimer(0.5, 2.0), +1, ALPHA)
        with pytest.raises(ValueError):
            singular_wavefunction(self.dimer, 2, ALPHA)
        with pytest.raises(ValueError):
            singular_wavefunction(self.dimer, +1, "gamma")


class TestScatteringState:
    # each residual is checked for both incidence sides: right incidence is the
    # mirror image j -> -j of the left-incidence state
    @given(mu=hopping, nu=hopping, k=st.floats(0.2, math.pi - 0.2))
    @settings(max_examples=40)
    def test_dimer_residual(self, mu, nu, k):
        assume(abs(mu * nu + 1.0) > 0.05)
        lat = LatticeSpec(60, 60)
        for incidence in (LEFT, RIGHT):
            assert scattering_residual(AsymmetricDimer(mu, nu), lat, k, incidence) < 1e-12

    @given(
        re=st.floats(-2, 2), im=st.floats(-2, 2), k=st.floats(0.2, math.pi - 0.2)
    )
    @settings(max_examples=40)
    def test_onsite_residual(self, re, im, k):
        v = complex(re, im)
        assume(abs(2j * math.sin(k) - v) > 0.05)
        lat = LatticeSpec(60, 60)
        for incidence in (LEFT, RIGHT):
            assert scattering_residual(OnSitePotential(v), lat, k, incidence) < 1e-12

    def test_right_incidence_residual(self):
        lat = LatticeSpec(60, 60)
        assert scattering_residual(AsymmetricDimer(0.7, 1.9), lat, 1.3, "right") < 1e-12

    @given(
        delta=st.floats(-2, 2), gamma=st.floats(-2, 2), k=st.floats(0.2, math.pi - 0.2)
    )
    @settings(max_examples=40)
    def test_interferometer_residual(self, delta, gamma, k):
        # reduces to the dimer mu = -(delta + gamma), nu = -(delta - gamma)
        assume(abs(delta**2 - gamma**2 + 1.0) > 0.05)
        lat = LatticeSpec(60, 60)
        center = Interferometer(delta, gamma, math.pi / 4)
        for incidence in (LEFT, RIGHT):
            assert scattering_residual(center, lat, k, incidence) < 1e-12

    @pytest.mark.parametrize("incidence", [LEFT, RIGHT])
    @pytest.mark.parametrize(
        "center",
        [OnSitePotential(0.3 - 0.8j), AsymmetricDimer(0.7, 1.9),
         Interferometer(-1.25, 0.75, math.pi / 4)],
        ids=["onsite", "dimer", "interferometer"],
    )
    def test_residual_on_unequal_leads(self, center, incidence):
        assert scattering_residual(center, LatticeSpec(37, 52), 1.1, incidence) < 1e-12

    @given(
        re=st.floats(-2, 2), im=st.floats(-2, 2), k=st.floats(0.2, math.pi - 0.2)
    )
    @settings(max_examples=40)
    def test_onsite_right_incidence_is_mirror_image(self, re, im, k):
        # with equal leads the lattice is its own mirror image about site 0
        center = OnSitePotential(complex(re, im))
        assume(abs(2j * math.sin(k) - center.v) > 0.05)
        lat = LatticeSpec(30, 30)
        left = scattering_states([(center, lat, k, LEFT)])
        right = scattering_states([(center, lat, k, RIGHT)])
        assert np.array_equal(right, left[::-1])

    def test_diverging_state_rejected(self):
        with pytest.raises(ValueError):
            scattering_states(
                [(AsymmetricDimer(-2.0, 0.5), LatticeSpec(10, 10), math.pi / 2, LEFT)]
            )


class TestStackedStates:
    #: every kind of center, both sides, unequal and one-site leads; the
    #: dimers of one side share an amplitude table, as do the on-site centers
    CASES = [
        (AsymmetricDimer(0.7, 1.9), LatticeSpec(37, 52), 1.1, LEFT),
        (AsymmetricDimer(-2.0, 0.5), LatticeSpec(20, 20), 0.9, RIGHT),
        (AsymmetricDimer(1.3, -0.4), LatticeSpec(1, 3), 2.5, LEFT),
        (OnSitePotential(0.3 - 0.8j), LatticeSpec(30, 11), 1.7, RIGHT),
        (OnSitePotential(0.4), LatticeSpec(12, 30), 0.3, LEFT),
        (Interferometer(-1.25, 0.75, math.pi / 4), LatticeSpec(25, 18), 2.0, RIGHT),
        (Interferometer(0.4, -0.9, math.pi / 4), LatticeSpec(9, 40), 0.6, LEFT),
        (AsymmetricDimer(0.5, 2.0), LatticeSpec(40, 40), 1.2, RIGHT),
    ]

    def test_states_equal_each_case_alone(self):
        single = [oracles.scattering_state(*case) for case in self.CASES]
        stacked = scattering_states(self.CASES)
        assert stacked.tobytes() == np.concatenate(single).tobytes()
        for case, psi in zip(self.CASES, single):
            assert scattering_states([case]).tobytes() == psi.tobytes(), case

    def test_residuals_equal_each_case_alone(self):
        alone = [oracles.state_residual(*case) for case in self.CASES]
        assert scattering_residuals(self.CASES).tolist() == alone
        assert [scattering_residual(*case) for case in self.CASES] == alone
        assert max(alone) < 1e-12

    def test_diverging_case_rejected(self):
        cases = [self.CASES[0], (AsymmetricDimer(-2.0, 0.5), LatticeSpec(10, 10), math.pi / 2, LEFT)]
        with pytest.raises(ValueError, match="diverging"):
            scattering_residuals(cases)


class TestSweepCsv:
    def test_columns_and_flags(self, tmp_path):
        rows = sweep_rows(OnSitePotential(2j), [math.pi / 4, math.pi / 2])
        path = tmp_path / "sweep.csv"
        write_sweep_csv({path: rows})
        lines = path.read_text().splitlines()
        assert lines[0] == "k,re_r,im_r,re_t,im_t,T,R"
        assert lines[2].endswith(",,,,inf,inf")

    def test_deterministic_bytes(self, tmp_path):
        rows = sweep_rows(AsymmetricDimer(0.5, 2.0), np.linspace(0.2, 3.0, 17))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv({a: rows})
        write_sweep_csv({b: sweep_rows(AsymmetricDimer(0.5, 2.0), np.linspace(0.2, 3.0, 17))})
        assert a.read_bytes() == b.read_bytes()


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


def assert_bit_equal_to_scalar(table, center, incidence):
    """Every column of the array evaluation equals the scalar cmath closed
    forms bit for bit, signed zeros included; flagged rows agree."""
    rows = [closed_form_amplitudes(center, k, incidence) for k in table.k.tolist()]
    flags = np.array([a.diverges for a in rows])
    np.testing.assert_array_equal(table.diverges, flags)
    for name in ("r", "t"):
        scalar = np.array([getattr(a, name) for a in rows if not a.diverges], dtype=complex)
        ours = getattr(table, name)[~flags]
        np.testing.assert_array_equal(_bits(ours.real), _bits(scalar.real), err_msg=name)
        np.testing.assert_array_equal(_bits(ours.imag), _bits(scalar.imag), err_msg=name)
        assert np.isnan(getattr(table, name)[flags]).all()
    for name in ("T", "R"):
        scalar = [getattr(a, name) for a in rows]
        np.testing.assert_array_equal(_bits(getattr(table, name)), _bits(scalar), err_msg=name)


#: the sweep grid, pi/2 itself and the ends of (0, pi)
GRID = np.concatenate([
    np.arange(1, 2002) * math.pi / 2002,
    [math.pi / 2, 5e-324, 1e-12, math.nextafter(math.pi, 0.0), math.pi - 1e-9],
])

ARRAY_CENTERS = {
    "singular": AsymmetricDimer(-2.0, 0.5),
    "resonant": AsymmetricDimer(0.5, 2.0),
    "resonant-uniform": AsymmetricDimer(1.0, 1.0),
    "resonant-negative": AsymmetricDimer(-4.0, -0.25),
    "hermitian": AsymmetricDimer(1.3, 1.3),
    "hermitian-negative": AsymmetricDimer(-0.7, -0.7),
    "generic": AsymmetricDimer(0.7, 1.9),
    "interferometer": Interferometer(-1.25, 0.75, math.pi / 4),
    "interferometer-singular": Interferometer(0.0, 1.0, math.pi / 4),
    "onsite-gain-2i": OnSitePotential(2j),
    "onsite-loss-2i": OnSitePotential(-2j),
    "onsite-real": OnSitePotential(0.7),
    "onsite-complex": OnSitePotential(0.3 + 1.1j),
    "onsite-zero": OnSitePotential(0j),
}


class TestArrayClosedForms:
    @pytest.mark.parametrize("incidence", ["left", "right"])
    @pytest.mark.parametrize("name", sorted(ARRAY_CENTERS))
    def test_bit_equal_to_scalar_closed_forms(self, name, incidence):
        center = ARRAY_CENTERS[name]
        table = sweep_rows(center, GRID, incidence)
        assert len(table) == len(GRID) and table.incidence == incidence
        assert_bit_equal_to_scalar(table, center, incidence)

    @pytest.mark.parametrize("incidence", ["left", "right"])
    def test_singular_momentum_flagged(self, incidence):
        table = sweep_rows(AsymmetricDimer(-2.0, 0.5), [1.0, math.pi / 2], incidence)
        assert table.diverges.tolist() == [False, True]
        assert table.T[1] == table.R[1] == math.inf
        assert np.isnan(table.r[1]) and np.isnan(table.t[1])

    def test_single_momentum_gives_zero_d_fields(self):
        # a scalar k gives 0-d fields, bit-equal to the one-row table's row
        for center in (AsymmetricDimer(-2.0, 0.5), OnSitePotential(0.3 + 1.1j)):
            for k in (1.0, math.pi / 2):
                one, row = amplitude_table(center, k), amplitude_table(center, [k])
                for field in ("k", "r", "t", "T", "R", "diverges"):
                    assert np.shape(getattr(one, field)) == ()
                    assert getattr(one, field).tobytes() == getattr(row, field)[0].tobytes()

    def test_resonant_reflection_is_signed_zero(self):
        # r = 0.0 / denom is a zero whose sign follows Smith division; both signs
        # occur, and the bit-equality test pins each one
        table = sweep_rows(AsymmetricDimer(0.5, 2.0), GRID)
        r = table.r[~table.diverges]  # k -> 0 rows are flagged: mu*nu - e^{-2ik} -> 0
        assert len(r) >= 2001 and not np.any(r)
        signs = np.signbit(np.concatenate([r.real, r.imag]))
        assert signs.any() and not signs.all()

    @given(mu=hopping, nu=hopping, k=st.floats(0.0, math.pi, exclude_min=True, exclude_max=True),
           incidence=st.sampled_from(["left", "right"]))
    def test_dimer_property(self, mu, nu, k, incidence):
        dimer = AsymmetricDimer(mu, nu)
        assert_bit_equal_to_scalar(sweep_rows(dimer, [k], incidence), dimer, incidence)

    @given(re=st.floats(-3, 3), im=st.floats(-3, 3),
           k=st.floats(0.0, math.pi, exclude_min=True, exclude_max=True))
    def test_onsite_property(self, re, im, k):
        center = OnSitePotential(complex(re, im))
        assert_bit_equal_to_scalar(sweep_rows(center, [k]), center, "left")

    @pytest.mark.parametrize("bad", [0.0, -0.0, math.pi, -0.5, 4.0, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "center",
        [AsymmetricDimer(0.5, 2.0), OnSitePotential(2j), Interferometer(-1.25, 0.75, math.pi / 4)],
    )
    def test_momentum_outside_band_rejected(self, center, bad):
        with pytest.raises(ValueError, match="momentum k must lie in"):
            sweep_rows(center, [0.5, bad, 1.0])

    def test_bad_incidence_rejected(self):
        for center in (AsymmetricDimer(0.5, 2.0), OnSitePotential(2j)):
            with pytest.raises(ValueError, match="incidence"):
                sweep_rows(center, [1.0], "up")


#: Drawn momenta stay this far, in |denominator| of the closed form, from a
#: pole: next to one the oracle's plane-wave fit loses digits that the closed
#: form keeps.
POLE_DISTANCE = 0.05
#: |T - T_oracle| and |R - R_oracle| relative to max(1, oracle value). The
#: test's 45 draws measure at most 3.5e-14; 1,000 draws of the same strategy
#: measure at most 1.1e-12, where the oracle's fit is least well conditioned.
ORACLE_RTOL = 2e-11
#: |t_L mu - t_R nu| relative to |t_L mu|: at most 9e-16 over 333 drawn dimers.
RATIO_RTOL = 1e-14

# normal hoppings: a subnormal one makes t_R subnormal, with fewer significant
# bits than the ratio check allows
normal_hopping = st.floats(-2.5, 2.5, allow_subnormal=False)
DRAWN_CENTERS = st.one_of(
    st.builds(AsymmetricDimer, normal_hopping, normal_hopping),
    st.builds(OnSitePotential, st.builds(complex, st.floats(-2, 2), st.floats(-2, 2))),
    st.builds(Interferometer, st.floats(-2, 2), st.floats(-2, 2), st.just(math.pi / 4)),
)


def pole_distance(center, k: float) -> float:
    """|denominator| of the center's closed form at k."""
    if isinstance(center, OnSitePotential):
        return abs(2j * math.sin(k) - center.v)
    return abs(as_dimer(center).product - cmath.exp(-2j * k))


class TestLinearSolveOracle:
    """The closed forms at drawn centers of all three kinds, interferometers
    included, against the finite-lattice linear solve."""

    @given(center=DRAWN_CENTERS, k=st.floats(0.15, math.pi - 0.15),
           incidence=st.sampled_from([LEFT, RIGHT]))
    @settings(max_examples=45, derandomize=True, deadline=None)  # about 2 s
    def test_drawn_center_matches_linear_solve(self, center, k, incidence):
        assume(pole_distance(center, k) > POLE_DISTANCE)
        table = amplitude_table(center, k, incidence)
        oracle = linear_solve_amplitudes(center, k)
        for name in ("T", "R"):
            expected = oracle[f"{name}_{incidence}"]
            assert abs(getattr(table, name).item() - expected) <= ORACLE_RTOL * max(1.0, expected)
        if isinstance(center, AsymmetricDimer):
            # t_L / t_R = nu / mu, cross-multiplied so that mu = 0 needs no exclusion
            t_left, t_right = (amplitude_table(center, k, side).t.item() for side in (LEFT, RIGHT))
            forward, backward = t_left * center.mu, t_right * center.nu
            assert abs(forward - backward) <= RATIO_RTOL * abs(forward)


class TestSweepCsvSharing:
    def test_blocks_and_shared_columns_match_single_files(self, tmp_path):
        # two tables written together equal each written alone, across block edges
        n = 2 * CSV_BLOCK_ROWS + 7
        ks = np.arange(1, n + 1) * math.pi / (n + 1)
        left = sweep_rows(AsymmetricDimer(-2.0, 0.5), ks, "left")
        right = sweep_rows(AsymmetricDimer(-2.0, 0.5), ks, "right")
        write_sweep_csv({tmp_path / "l.csv": left, tmp_path / "r.csv": right})
        write_sweep_csv({tmp_path / "l1.csv": left})
        write_sweep_csv({tmp_path / "r1.csv": right})
        assert (tmp_path / "l.csv").read_bytes() == (tmp_path / "l1.csv").read_bytes()
        assert (tmp_path / "r.csv").read_bytes() == (tmp_path / "r1.csv").read_bytes()
        lines = (tmp_path / "l.csv").read_text().splitlines()
        assert len(lines) == len(ks) + 1
        for i, line in enumerate(lines[1:]):
            k, r, t, T, R, diverges = (getattr(left, f)[i].item()
                                       for f in ("k", "r", "t", "T", "R", "diverges"))
            cells = line.split(",")
            assert cells[0] == repr(k) and cells[5] == repr(T) and cells[6] == repr(R)
            if diverges:
                assert cells[1:5] == ["", "", "", ""]
            else:
                assert cells[1:5] == [repr(r.real), repr(r.imag), repr(t.real), repr(t.imag)]
