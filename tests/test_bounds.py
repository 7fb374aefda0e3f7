"""Every built-in assertion bound, pinned.

Each scenario runs at the small config of test_experiments, the sweep at a
resonant, a singular and a Hermitian dimer so that all its conditional
assertions appear, and the manifest's (name, threshold) list must equal the
table below. A bound loosened in code therefore shows up as an edit to this
table. The one data-dependent threshold, seed_minus_no_regrowth's
P(fit_start) + 1e-9, is recomputed from series.csv.
"""

import pytest

from nhscatter.experiments import run_scenario
from test_experiments import small_config

#: Stands for seed_minus_no_regrowth's threshold, which depends on the run.
NO_REGROWTH = object()

BELOW_ZERO_DEV = "below all nonzero-deviation distortions"
BELOW_OTHER_K0 = "below all other k0 at this deviation"
FINITE_OR_FLAGGED = ("amplitudes_finite_or_flagged", "all rows finite unless divergence-flagged")

# label -> (scenario, center overrides, [(assertion name, threshold)] in manifest order)
BOUNDS = {
    "amplify": ("amplify", {}, [
        ("gain_matches_nu_squared", "<= 0.05"),
        ("reflection_negligible", "<= 0.001"),
        ("distortion_free", "<= 0.01"),
    ]),
    "flux-deviation": ("flux-deviation", {}, [
        ("distortion_minimized_at_zero[k0=1.0472]", BELOW_ZERO_DEV),
        ("distortion_minimized_at_zero[k0=1.25664]", BELOW_ZERO_DEV),
        ("distortion_minimized_at_zero[k0=1.5708]", BELOW_ZERO_DEV),
        ("half_pi_least_distorted[dev=5]", BELOW_OTHER_K0),
        ("half_pi_least_distorted[dev=10]", BELOW_OTHER_K0),
    ]),
    "singularity": ("singularity", {}, [
        ("seed_plus_linear_growth", "> 0.99"),
        ("seed_plus_emission_ratio", "<= 0.02"),
        ("seed_minus_bounded", "<= 1.25000000125"),  # P(0) (1 + 1e-9), P(0) = 1 + nu^2
        ("seed_minus_decays", "<= 0.5"),  # 0.4 P(0)
        ("seed_minus_no_regrowth", NO_REGROWTH),
        ("packet_reflected_linear_growth", "> 0.99 with positive slope"),
        ("packet_transmitted_linear_growth", "> 0.99 with positive slope"),
        ("pair_fully_absorbed", "<= 0.02"),
    ]),
    "absorb": ("absorb", {}, [
        ("scales_to_uniform_chain[nu=0.5]", "<= 1e-15"),
        ("scales_to_uniform_chain[nu=0.1]", "<= 1e-15"),
        ("rapid_drop[nu=0.5]", "<= 0.5"),
        ("rapid_drop[nu=0.1]", "<= 0.5"),
        (
            "final_probability_decreasing_in_inverse_nu",
            "strictly decreasing P(t_max) as 1/nu grows",
        ),
        ("near_perfect_absorption[nu=0.1]", "<= 0.05"),
        ("hermitian_control_conserves", "<= 1e-09"),
    ]),
    "verify": ("verify", {}, [
        ("rotation_matches_dimer", "<= 1e-14"),
        ("rotation_unitary", "<= 1e-14"),
        ("scaling_hermitian_when_product_positive", "<= 1e-12"),
        ("scaling_preserves_characteristic_polynomial", "<= 1e-10"),
        ("resonant_chain_hermitian", "<= 1e-12"),
        ("parity_end_potentials_are_plus_minus_i", "<= 1e-09"),
        ("parity_cross_coupling", "<= 1e-12"),
        ("parity_blocks_reproduce_characteristic_polynomial", "<= 1e-10"),
        ("scattering_state_residual", "<= 1e-12"),
        ("resonance_reflectionless", "<= 1e-14"),
        ("amplification_k_independent", "<= 1e-12"),
        ("hermitian_unitarity", "<= 1e-12"),
        ("real_potential_sign_symmetric", "<= 1e-14"),
        ("imaginary_potential_asymmetric", "> 1e-06"),
        ("left_right_transmission_ratio", "<= 1e-12"),
        ("gain_potential_diverges", "divergence flag at k=pi/2 for v=2i"),
        ("loss_potential_quarter", "<= 1e-15"),
        ("singular_state_residual", "<= 1e-12"),
    ]),
    "sweep-resonant": ("sweep", {"mu": 0.5, "nu": 2.0}, [
        FINITE_OR_FLAGGED,
        ("resonant_reflectionless", "<= 1e-14"),
    ]),
    "sweep-singular": ("sweep", {"mu": -2.0, "nu": 0.5}, [
        FINITE_OR_FLAGGED,
        ("singular_momentum_flagged", "k=pi/2 rows carry the divergence flag"),
    ]),
    "sweep-hermitian": ("sweep", {"mu": 1.3, "nu": 1.3}, [
        FINITE_OR_FLAGGED,
        ("hermitian_unitarity", "<= 1e-12"),
    ]),
}


def _no_regrowth_threshold(cfg, out_dir) -> str:
    """P_total of seed_minus at the first grid time >= fit_start, plus 1e-9."""
    for line in (out_dir / "series.csv").read_text().splitlines()[1:]:
        case, t, *_, p_total = line.split(",")
        if case == "seed_minus" and float(t) >= cfg.singularity.fit_start:
            return f"<= {float(p_total) + 1e-9!r}"
    raise AssertionError("series.csv has no seed_minus row at or after fit_start")


@pytest.mark.parametrize("label", BOUNDS)
def test_thresholds_match_table(tmp_path, label):
    scenario, center, table = BOUNDS[label]
    cfg = small_config(scenario, tmp_path / label)
    for name, value in center.items():
        setattr(cfg.center, name, value)
    manifest = run_scenario(cfg)
    assert manifest.passed, [a.name for a in manifest.assertions if not a.passed]
    expected = [
        (name, _no_regrowth_threshold(cfg, tmp_path / label) if bound is NO_REGROWTH else bound)
        for name, bound in table
    ]
    assert [(a.name, a.threshold) for a in manifest.assertions] == expected
