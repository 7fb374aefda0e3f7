import ast
import configparser
import contextlib
import copy
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nhscatter.experiments import (
    SCENARIOS,
    ConfigError,
    TimeConfig,
    _is_hermitian_center,
    apply_overrides,
    default_config,
    from_ini,
    run_scenario,
    to_ini,
)
from nhscatter import experiments
from nhscatter.cli import main
from nhscatter.dynamics import Propagator, mixed_state_uniform
from nhscatter.lattice import (
    AsymmetricDimer,
    Interferometer,
    LatticeSpec,
    OnSitePotential,
    build_hamiltonian,
)
from nhscatter.transforms import (
    biorthogonal_scale,
    charpoly_deviation,
    charpoly_deviations,
    parity_decompose,
)


# An import finder that fails every attempt to import a SciPy module with
# AssertionError, which no `except ImportError` swallows
_NO_SCIPY = """import sys
class NoSciPy:
    def find_spec(self, name, path=None, target=None):
        assert name.split(".")[0] != "scipy", f"attempted import of {name}"
sys.meta_path.insert(0, NoSciPy())
"""


def _run_without_scipy(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter in which SciPy cannot be imported,
    as in an install without it, and fail if anything tries to import it or
    a SciPy module is loaded after all."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        f"{_NO_SCIPY}{code}\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "assert not loaded, loaded"
    )
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )


def small_amplify(out_dir, **extra):
    cfg = default_config("amplify")
    cfg.out_dir = str(out_dir)
    cfg.lattice.left_len = 160
    cfg.lattice.right_len = 160
    cfg.packet.site = -40
    cfg.time.t_max = 40.0
    for key, value in extra.items():
        section, name = key.split("__")
        setattr(getattr(cfg, section), name, value)
    return cfg


def small_singularity(out_dir):
    cfg = default_config("singularity")
    cfg.out_dir = str(out_dir)
    cfg.lattice.left_len = 150
    cfg.lattice.right_len = 150
    cfg.packet.site = -30
    cfg.packet.lam = 0.3
    cfg.packet.pair_site = 30
    cfg.time.t_max = 40.0
    cfg.singularity.fit_start = 10.0
    cfg.singularity.fit_end = 40.0
    cfg.singularity.emission_fit_start = 25.0
    return cfg


def small_absorb(out_dir):
    cfg = default_config("absorb")
    cfg.out_dir = str(out_dir)
    cfg.lattice.left_len = 6
    cfg.lattice.right_len = 120
    cfg.absorb.nu_values = (0.5, 0.1)
    cfg.absorb.t_max = 60.0
    cfg.absorb.dt = 2.0
    cfg.absorb.drop_time = 30.0
    return cfg


def small_config(scenario, out_dir):
    """A run of each scenario small enough for the unit tests."""
    if scenario in ("amplify", "flux-deviation"):  # the same defaults but the name
        cfg = small_amplify(out_dir)
        cfg.scenario = scenario
        return cfg
    if scenario == "singularity":
        return small_singularity(out_dir)
    if scenario == "absorb":
        return small_absorb(out_dir)
    cfg = default_config(scenario)
    cfg.out_dir = str(out_dir)
    return cfg


class TestConfigFormat:
    @pytest.mark.parametrize("scenario", ["sweep", "amplify", "flux-deviation", "singularity", "absorb", "verify"])
    def test_ini_round_trip_lossless(self, scenario):
        cfg = default_config(scenario)
        assert from_ini(to_ini(cfg)) == cfg

    def test_round_trip_preserves_overrides(self):
        cfg = default_config("flux-deviation")
        cfg.center.delta = -1.0 + 1e-13
        cfg.flux.deviations = (0, 3, 7)
        cfg.lattice.right_len = 417
        assert from_ini(to_ini(cfg)) == cfg

    def test_round_trip_preserves_complex_override(self):
        cfg = default_config("sweep")
        cfg.center.kind = "onsite"
        cfg.center.v = 0.25 - 2j
        assert from_ini(to_ini(cfg)) == cfg

    def test_unknown_section_rejected(self):
        # [tol] held the assertion bounds before they were fixed in code; a
        # config.ini written then must not load
        base = to_ini(default_config("amplify"))
        for section in ("nope", "tol"):
            with pytest.raises(ConfigError, match=f"takes no key '{section}.gain_rtol'"):
                from_ini(f"{base}\n[{section}]\ngain_rtol = 1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            from_ini("[scenario]\nscenario = sweep\n[center]\nbogus = 1\n")

    def test_apply_overrides(self):
        cfg = default_config("amplify")
        out = apply_overrides(cfg, ["center.delta=-1.0", "time.t_max=12.5", "packet.k0=1.0"])
        assert out.center.delta == -1.0
        assert out.time.t_max == 12.5
        assert out.packet.k0 == 1.0
        assert cfg.center.delta == -1.25  # original untouched

    def test_override_validation(self):
        cfg = default_config("amplify")
        with pytest.raises(ConfigError):
            apply_overrides(cfg, ["nonsense"])
        with pytest.raises(ConfigError):
            apply_overrides(cfg, ["center.bogus=1"])
        with pytest.raises(ConfigError):
            apply_overrides(cfg, ["bogus.delta=1"])

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            default_config("explode")

    @pytest.mark.parametrize(
        "t_max, dt, count, last",
        [
            (7.0, 2.0, 4, 6.0),  # last multiple of dt not past t_max
            (9.0, 2.0, 5, 8.0),
            (35.0, 10.0, 4, 30.0),
            (0.3, 0.1, 4, 0.30000000000000004),  # t_max on the grid up to round-off
            (70.0, 1.0, 71, 70.0),
            (70.0, 0.1, 701, 70.0),
            (200.0, 2.0, 101, 200.0),
            (200.0, 10.0, 21, 200.0),
            (50.0, 50.0, 2, 50.0),
            (8.0, 2.0, 5, 8.0),
        ],
    )
    def test_time_grid_ends_at_last_step_within_t_max(self, t_max, dt, count, last):
        times = TimeConfig(t_max=t_max, dt=dt).times()
        assert len(times) == count
        assert times[-1] == last


class TestValidation:
    def test_amplify_requires_resonance(self, tmp_path):
        cfg = small_amplify(tmp_path / "x")
        cfg.center.gamma = 0.9  # delta^2 - gamma^2 != 1
        with pytest.raises(ConfigError):
            run_scenario(cfg)
        assert not (tmp_path / "x" / "frames.npy").exists()

    def test_amplify_rejects_onsite_center(self, tmp_path):
        cfg = small_amplify(tmp_path / "x")
        cfg.center.kind = "onsite"
        with pytest.raises(ConfigError):
            run_scenario(cfg)

    def test_amplify_names_the_refused_kind(self, tmp_path, capsys):
        # the on-site center has no dimer reduction; the error names the key
        # amplify reads, not the on-site potential v it does not take
        code = main(["amplify", "--out", str(tmp_path / "x"), "--set", "center.kind=onsite"])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: amplify takes center.kind 'interferometer' or 'dimer', "
            "got 'onsite'\n"
        )

    def test_singularity_requires_singular_product(self, tmp_path):
        cfg = default_config("singularity")
        cfg.out_dir = str(tmp_path / "x")
        cfg.center.mu = 0.5
        cfg.center.nu = 2.0  # mu*nu = 1
        with pytest.raises(ConfigError, match="requires mu\\*nu = -1"):
            run_scenario(cfg)

    @pytest.mark.parametrize("drop_time", [0.0, -5.0, 50.0])
    def test_absorb_drop_time_outside_grid(self, tmp_path, drop_time):
        cfg = default_config("absorb")
        cfg.out_dir = str(tmp_path / "x")
        cfg.absorb.t_max = 20.0
        cfg.absorb.drop_time = drop_time
        with pytest.raises(ConfigError, match="drop_time"):
            run_scenario(cfg)

    @pytest.mark.parametrize(
        "scenario, section, name, values",
        [
            ("absorb", "absorb", "nu_values", (0.5, 0.5)),
            ("flux-deviation", "flux", "k0_values", (math.pi / 2, math.pi / 2)),
            ("flux-deviation", "flux", "deviations", (0, 5, 5)),
        ],
    )
    def test_duplicate_list_entries_rejected(self, tmp_path, scenario, section, name, values):
        cfg = default_config(scenario)
        cfg.out_dir = str(tmp_path / "x")
        setattr(getattr(cfg, section), name, values)
        with pytest.raises(ConfigError, match="more than once"):
            run_scenario(cfg)

    def test_flux_k0_labels_must_differ(self, tmp_path):
        # 1.0 and 1.0000001 would both name distortion_minimized_at_zero[k0=1]
        cfg = default_config("flux-deviation")
        cfg.out_dir = str(tmp_path / "x")
        cfg.flux.k0_values = (1.0, 1.0000001, math.pi / 2)
        with pytest.raises(ConfigError, match="6 significant digits"):
            run_scenario(cfg)
        assert not (tmp_path / "x" / "distortion.csv").exists()

    def test_flux_requires_zero_deviation_row(self, tmp_path):
        cfg = default_config("flux-deviation")
        cfg.out_dir = str(tmp_path / "x")
        cfg.flux.deviations = (5, 10)
        with pytest.raises(ConfigError):
            run_scenario(cfg)

    def test_packet_clipping_is_config_error(self, tmp_path):
        cfg = small_amplify(tmp_path / "x")
        cfg.packet.site = -150
        with pytest.raises(ConfigError):
            run_scenario(cfg)


class TestSweepScenario:
    def test_resonant_dimer_sweep(self, tmp_path):
        cfg = default_config("sweep")
        cfg.out_dir = str(tmp_path / "s")
        manifest = run_scenario(cfg)
        assert manifest.passed
        names = {a.name for a in manifest.assertions}
        assert "resonant_reflectionless" in names
        text = (tmp_path / "s" / "sweep_left.csv").read_text()
        for line in text.splitlines()[1:]:
            cells = line.split(",")
            assert float(cells[1]) == 0.0 and float(cells[2]) == 0.0  # r identically zero

    def test_uniform_dimer_full_transmission(self, tmp_path):
        cfg = default_config("sweep")
        cfg.out_dir = str(tmp_path / "s")
        cfg.center.mu = 1.0
        cfg.center.nu = 1.0
        manifest = run_scenario(cfg)
        assert manifest.passed
        for line in (tmp_path / "s" / "sweep_left.csv").read_text().splitlines()[1:]:
            cells = line.split(",")
            assert float(cells[5]) == pytest.approx(1.0, abs=1e-12)
            assert float(cells[6]) == 0.0

    def test_singular_onsite_flagged_at_half_pi(self, tmp_path):
        cfg = default_config("sweep")
        cfg.out_dir = str(tmp_path / "s")
        cfg.center = type(cfg.center)(kind="onsite", v=2j)
        manifest = run_scenario(cfg)
        assert manifest.passed
        lines = (tmp_path / "s" / "sweep_left.csv").read_text().splitlines()
        flagged = [l for l in lines if l.endswith("inf,inf")]
        assert len(flagged) == 1
        assert float(flagged[0].split(",")[0]) == pytest.approx(math.pi / 2)

    def test_singular_dimer_assertion(self, tmp_path):
        cfg = default_config("sweep")
        cfg.out_dir = str(tmp_path / "s")
        cfg.center.mu = -2.0
        cfg.center.nu = 0.5
        manifest = run_scenario(cfg)
        assert manifest.passed
        assert any(a.name == "singular_momentum_flagged" for a in manifest.assertions)

    def test_hermitian_sweep_unitarity_assertion(self, tmp_path):
        cfg = default_config("sweep")
        cfg.out_dir = str(tmp_path / "s")
        cfg.center.mu = 1.3
        cfg.center.nu = 1.3
        manifest = run_scenario(cfg)
        assert manifest.passed
        assert any(a.name == "hermitian_unitarity" for a in manifest.assertions)

    @pytest.mark.parametrize("eps", [0.0, 4.9e-15, 5e-15, 5.1e-15, 1e-14, 3e-14, 0.5])
    def test_hermitian_center_predicate_matches_probe(self, eps):
        # the probe the predicate replaced: max|H - H^dag| < 1e-14 on a built lattice
        def probe(center):
            h = oracles.csr(build_hamiltonian(center, LatticeSpec(2, 2))).toarray()
            return bool(np.max(np.abs(h - h.conj().T)) < 1e-14)

        centers = [
            OnSitePotential(complex(0.3, eps)),
            OnSitePotential(complex(-2.0, -eps)),
            Interferometer(0.7, eps, 0.4),
            Interferometer(-1.0, -eps, math.pi / 4),
            AsymmetricDimer(0.4, 0.4 + eps),
            AsymmetricDimer(1.3 + 2 * eps, 1.3),
            AsymmetricDimer(eps, -eps),
        ]
        for center in centers:
            assert _is_hermitian_center(center) == probe(center), center

    @pytest.mark.parametrize(
        "overrides",
        [
            ["center.kind=dimer", "center.mu=-2.0", "center.nu=0.5"],
            ["center.kind=interferometer", "center.delta=0.0", "center.gamma=1.0"],  # mu*nu = -1
        ],
    )
    def test_sides_share_k_r_R_and_flagged_rows(self, tmp_path, overrides):
        cfg = apply_overrides(default_config("sweep"), overrides)
        cfg.out_dir = str(tmp_path / "s")
        assert run_scenario(cfg).passed
        left, right = (
            [line.split(",") for line in (tmp_path / "s" / name).read_text().splitlines()]
            for name in ("sweep_left.csv", "sweep_right.csv")
        )
        assert len(left) == len(right) == cfg.sweep.samples + 1
        for a, b in zip(left, right):
            assert [a[0], a[1], a[2], a[6]] == [b[0], b[1], b[2], b[6]]  # k, re_r, im_r, R
            assert (a[5] == "inf") == (b[5] == "inf")
        assert sum(a[5] == "inf" for a in left) == 1
        assert left[1:] != right[1:]  # t differs: nu/mu

    def test_onsite_sides_are_byte_equal(self, tmp_path):
        cfg = apply_overrides(default_config("sweep"), ["center.kind=onsite", "center.v=0.3+1.1j"])
        cfg.out_dir = str(tmp_path / "s")
        assert run_scenario(cfg).passed
        left = (tmp_path / "s" / "sweep_left.csv").read_bytes()
        assert left == (tmp_path / "s" / "sweep_right.csv").read_bytes()
        assert left.count(b"\n") == cfg.sweep.samples + 1

    def test_streamed_sweep_memory(self, tmp_path):
        # 20,001 rows per side: each file's text is ~2.5 MB and a list of row
        # objects ~10 MB; the arrays and one block of formatted cells stay
        # under 6 MB
        cfg = apply_overrides(
            default_config("sweep"),
            ["center.kind=dimer", "center.mu=-2.0", "center.nu=0.5", "sweep.samples=20001"],
        )
        cfg.out_dir = str(tmp_path / "warm")
        run_scenario(cfg)
        cfg.out_dir = str(tmp_path / "s")
        tracemalloc.start()
        try:
            manifest = run_scenario(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert manifest.passed
        assert (tmp_path / "s" / "sweep_left.csv").stat().st_size > 2_000_000
        assert peak <= 6_000_000, peak

    def test_center_phi_is_not_a_key(self):
        # every scenario runs the interferometer at flux pi/4, where it
        # reduces to a dimer, so the flux is no config key
        cfg = default_config("sweep")
        with pytest.raises(ConfigError, match="takes no key 'center.phi'"):
            apply_overrides(cfg, ["center.kind=interferometer", "center.phi=0.5"])

    def test_verify_writes_assertion_report(self, tmp_path):
        cfg = default_config("verify")
        cfg.out_dir = str(tmp_path / "v")
        manifest = run_scenario(cfg)
        assert manifest.passed
        report = (tmp_path / "v" / "assertions.txt").read_text()
        assert "rotation_matches_dimer = pass" in report


def _parity_chain():
    """verify's parity check: the real unscaled mu*nu = -1 chain at N = 202
    and the parity blocks of its scaled form."""
    ham = build_hamiltonian(AsymmetricDimer(-2.0, 0.5), LatticeSpec(100, 100))
    return ham, parity_decompose(biorthogonal_scale(ham))


def _scaling_battery():
    """verify's scaling check: (chain, scaled chain) of each dimer."""
    for mu, nu in [(0.5, 2.0), (1.5, 0.4), (-1.2, -0.5), (-2.0, 0.5), (0.8, -1.1)]:
        ham = build_hamiltonian(AsymmetricDimer(mu, nu), LatticeSpec(40, 40))
        yield ham, biorthogonal_scale(ham)


class TestVerifySpectra:
    #: verify's bound on both characteristic-polynomial comparisons
    BOUND = 1e-10

    def test_eigenvalues_confirm_each_comparison(self):
        # verify's six comparisons read far inside the bound, and the dense
        # eigenvalue oracle finds the same spectra
        for ham, scaled in _scaling_battery():
            assert charpoly_deviation([ham.bands], [scaled.bands]) <= self.BOUND / 1000
            distance = oracles.spectrum_distance(
                oracles.spectrum(ham.bands), oracles.spectrum(scaled.bands)
            )
            assert distance <= 1e-12, ham.center
        ham, blocks = _parity_chain()
        pair = [blocks.plus_bands, blocks.minus_bands]
        assert charpoly_deviation([ham.bands], pair) <= self.BOUND / 1000
        union = np.concatenate([oracles.spectrum(h) for h in pair])
        assert oracles.spectrum_distance(oracles.spectrum(ham.bands), union) <= 1e-12

    def test_runs_without_an_eigensolve(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("verify called an eigensolver")

        for name in ("eigvals", "eig"):
            monkeypatch.setattr(np.linalg, name, refuse)
        cfg = default_config("verify")
        cfg.out_dir = str(tmp_path / "v")
        assert run_scenario(cfg).passed

    @pytest.mark.parametrize("index", [0, 1])
    def test_parity_reference_catches_a_wrong_end_potential(self, index):
        # +-i -> +-1.001i in one block: the blocks miss the real chain's spectrum
        ham, blocks = _parity_chain()
        pair = [blocks.plus_bands, blocks.minus_bands]
        pair[index] = pair[index].copy()
        pair[index][2, 0] *= 1.001
        assert charpoly_deviation([ham.bands], pair) > self.BOUND

    @pytest.mark.parametrize("site", [0, 1, 50, 100])
    @pytest.mark.parametrize("index", [0, 1])
    def test_parity_reference_catches_a_moved_diagonal_entry(self, index, site):
        ham, blocks = _parity_chain()
        pair = [blocks.plus_bands, blocks.minus_bands]
        pair[index] = pair[index].copy()
        pair[index][2, site] += 1e-9
        assert charpoly_deviation([ham.bands], pair) > self.BOUND

    def test_batched_recurrence_equals_each_pair_alone(self):
        # verify's five scaling pairs and the same pairs with a diagonal entry
        # of the scaled chain moved (deviations ~1e-10) in one batch, and the
        # parity pair with a wrong end potential: each value equals the loop
        # over its pair alone bit for bit
        pairs = []
        for ham, scaled in _scaling_battery():
            wrong = scaled.bands.copy()
            wrong[2, 41] += 1e-9
            pairs += [([ham.bands], [scaled.bands]), ([ham.bands], [wrong])]
        alone = [oracles.pairwise_charpoly_deviation(a, b) for a, b in pairs]
        assert charpoly_deviations(pairs).tolist() == alone
        assert min(alone[1::2]) > self.BOUND
        ham, blocks = _parity_chain()
        wrong = blocks.plus_bands.copy()
        wrong[2, 0] *= 1.001
        for pair in ([blocks.plus_bands, blocks.minus_bands], [wrong, blocks.minus_bands]):
            assert charpoly_deviation([ham.bands], pair) == (
                oracles.pairwise_charpoly_deviation([ham.bands], pair)
            )

    @pytest.mark.parametrize("site", [0, 40, 41, 81])
    def test_scaling_reference_catches_a_moved_diagonal_entry(self, site):
        # in each scaled chain with mu*nu < 0, whose center coupling is imaginary
        for ham, scaled in _scaling_battery():
            if ham.center.product < 0:
                wrong = scaled.bands.copy()
                wrong[2, site] += 1e-9
                assert charpoly_deviation([ham.bands], [wrong]) > self.BOUND, ham.center


class TestScatteringStateResidual:
    #: seeds 40 and 1955 failed the bound when the lead phases took e^{ikj}
    #: from the rounded k j; 1578131750 is the benchmark's mixed workload draw
    #: at --seed 2211
    SEEDS = [*range(100), 1955, 1578131750]

    def test_battery_passes_at_every_seed(self):
        worst = {seed: experiments._scattering_state_residual(seed) for seed in self.SEEDS}
        assert {seed: w for seed, w in worst.items() if not w <= 1e-12} == {}
        assert max(worst.values()) < 1e-13  # ~1.6e-14 at seed 40

    def test_stacked_battery_equals_per_state_loop(self):
        # one product over the 30 chains' stacked bands reads each state's own
        stacked = [experiments._scattering_state_residual(seed) for seed in self.SEEDS]
        assert stacked == [oracles.verify_state_residual(seed) for seed in self.SEEDS]


class TestStreamedFrames:
    """singularity, amplify and flux-deviation consume each frame as it is
    stepped, so a run holds O(r N) + O(T r), never a T x r x N block."""

    @pytest.mark.parametrize(
        "scenario, bound", [("singularity", 5_000_000), ("flux-deviation", 8_000_000)]
    )
    def test_fine_time_grid_memory(self, tmp_path, scenario, bound):
        # at dt = 0.1, T = 701 and N = 802: singularity's 4-case block alone
        # is 18 MB, each of flux-deviation's 3-case blocks 13.5 MB; streamed,
        # the runs peak near 2.3 and 3.6 MB
        cfg = apply_overrides(default_config(scenario), ["time.dt=0.1"])
        cfg.out_dir = str(tmp_path / "run")
        tracemalloc.start()
        try:
            manifest = run_scenario(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert manifest.passed
        assert peak <= bound, peak

    def test_streamed_frame_files_load_with_their_axes(self, tmp_path):
        out = tmp_path / "run"
        assert run_scenario(small_amplify(out)).passed
        axes = json.loads((out / "frames_axes.json").read_text())
        for name in ("frames.npy", "frames_reference.npy"):
            frames = np.load(out / name, allow_pickle=False)
            assert frames.dtype == np.float64
            assert frames.shape == (len(axes["t"]), len(axes["j"]))

    @pytest.mark.parametrize(
        "args, worst",
        [
            (["singularity", "lattice.left_len=110", "lattice.right_len=110"], "2.402e+01"),
            (["amplify", "lattice.left_len=100", "lattice.right_len=100"], "2.439e-04"),
            # the amplified packet reaches the right end near t = 44 and leaves
            # it again: the first and last frames hold ~1e-17 there
            (["amplify", "lattice.right_len=40", "packet.site=-45"], "1.308e+00"),
            (["flux-deviation", "lattice.right_len=40", "packet.site=-45"], "6.860e-01"),
            # the dimer run (gain nu^2 = 1/4) peaks at 9.1e-07 on its end site,
            # its uniform-chain reference, which transmits 4 times as much, at 3.646e-06
            (
                ["amplify", "center.kind=dimer", "center.mu=2.0", "center.nu=0.5",
                 "lattice.right_len=104"],
                "3.646e-06",
            ),
        ],
        ids=["singularity", "amplify_at_end", "amplify_mid_run", "flux_mid_run",
             "amplify_reference"],
    )
    def test_boundary_contamination_caught_in_every_frame(self, tmp_path, capsys, args, worst):
        scenario, *sets = args
        argv = [scenario, "--out", str(tmp_path / "x")]
        assert main([*argv, *(arg for item in sets for arg in ("--set", item))]) == 2
        assert capsys.readouterr().err == (
            f"aborted: probability {worst} reached a lattice end; "
            "enlarge the leads or shorten the run\n"
        )

    def test_aborted_rerun_leaves_no_manifest(self, tmp_path, capsys):
        # the aborted rerun overwrites frames.npy with 202 sites next to the
        # first run's 802-site axes: no manifest may vouch for that directory
        out = tmp_path / "amp"
        assert main(["amplify", "--out", str(out)]) == 0
        sets = ["--set", "lattice.left_len=100", "--set", "lattice.right_len=100"]
        assert main(["amplify", "--out", str(out), *sets]) == 2
        assert "aborted: " in capsys.readouterr().err
        assert np.load(out / "frames.npy", allow_pickle=False).shape == (71, 202)
        assert not (out / "manifest.json").exists()


class TestSmallScaleRunners:
    def test_singularity_small(self, tmp_path):
        manifest = run_scenario(small_singularity(tmp_path / "sing"))
        assert manifest.passed, [a.name for a in manifest.assertions if not a.passed]
        series = (tmp_path / "sing" / "series.csv").read_text().splitlines()
        assert series[0] == "case,t,P_left,P_center,P_right,P_total"
        cases = {line.split(",")[0] for line in series[1:]}
        assert cases == {"seed_plus", "seed_minus", "packet", "pair"}

    def test_singularity_frames_sum_to_series(self, tmp_path):
        # the frame arrays and series.csv describe the same runs
        out = tmp_path / "sing"
        run_scenario(small_singularity(out))
        rows = [line.split(",") for line in (out / "series.csv").read_text().splitlines()[1:]]
        axes = json.loads((out / "frames_axes.json").read_text())
        for case in ("seed_plus", "seed_minus", "packet", "pair"):
            frames = np.load(out / f"frames_{case}.npy", allow_pickle=False)
            assert frames.shape == (len(axes["t"]), len(axes["j"])) == (41, 302)
            assert [float(r[1]) for r in rows if r[0] == case] == axes["t"]
            p_total = np.array([float(r[5]) for r in rows if r[0] == case])
            np.testing.assert_allclose(frames.sum(axis=1), p_total, rtol=1e-12, atol=0)

    def test_absorb_small(self, tmp_path):
        # 2 t = right_len = 120: the longest run its right lead holds
        manifest = run_scenario(small_absorb(tmp_path / "abs"))
        assert manifest.passed, [a.name for a in manifest.assertions if not a.passed]
        lines = (tmp_path / "abs" / "ptotal.csv").read_text().splitlines()
        assert lines[0] == "nu,t,P"
        assert any(a.name == "hermitian_control_conserves" for a in manifest.assertions)

    def test_absorb_few_steps_reads_control_on_its_grid(self, tmp_path):
        # a four-step run: the control is read from the same five rows as P(t)
        cfg = default_config("absorb")
        cfg.out_dir = str(tmp_path / "abs")
        cfg.absorb.t_max = 8.0
        cfg.absorb.dt = 2.0
        cfg.absorb.drop_time = 8.0
        manifest = run_scenario(cfg)
        control = [a for a in manifest.assertions if a.name == "hermitian_control_conserves"]
        assert len(control) == 1 and control[0].passed
        lines = (tmp_path / "abs" / "ptotal.csv").read_text().splitlines()
        assert len(lines) == 1 + 3 * 5


class TestLinearFit:
    @pytest.mark.parametrize("dt", [1.0, 0.1])
    def test_matches_lstsq_on_singularity_windows(self, tmp_path, dt):
        # the five series singularity fits, in its own windows, at both
        # reference steps: the closed form's centred sums against LAPACK's
        # least squares. Over dt = 1, 0.5, 0.25 and 0.1 a slope moved at most
        # 7.1e-16 relative (bound 14x that) and every r^2 was bit-equal
        # (bound ~10 ulps)
        cfg = default_config("singularity")
        cfg.out_dir = str(tmp_path)
        cfg.time.dt = dt
        run_scenario(cfg)
        rows = [line.split(",") for line in (tmp_path / "series.csv").read_text().splitlines()[1:]]
        sing = cfg.singularity

        def column(case, name):
            col = "t,P_left,P_center,P_right,P_total".split(",").index(name) + 1
            return np.array([float(r[col]) for r in rows if r[0] == case])

        times = column("seed_plus", "t")
        window = (times >= sing.fit_start) & (times <= sing.fit_end)
        late = (times >= sing.emission_fit_start) & (times <= sing.fit_end)
        fits = [
            ("seed_plus", "P_total", window),
            ("seed_plus", "P_left", window),
            ("seed_plus", "P_right", window),
            ("packet", "P_left", late),
            ("packet", "P_right", late),
        ]
        for case, name, mask in fits:
            slope, r2 = experiments._linear_fit(times[mask], column(case, name)[mask])
            want_slope, _, want_r2 = oracles.lstsq_fit(times[mask], column(case, name)[mask])
            assert slope == pytest.approx(want_slope, rel=1e-14, abs=0), (case, name)
            assert r2 == pytest.approx(want_r2, rel=2e-15, abs=0), (case, name)


class TestAbsorbSimilarity:
    """absorb reads every P_nu(t) from one propagation of the uniform chain,
    as (left + nu^2 right) / n0, since the dimer (1/nu, nu) is that chain under
    a diagonal similarity; each dimer's own propagation, read directly as each
    row's sum / n0, must give the same series at every grid time."""

    @pytest.mark.parametrize("small", [False, True], ids=["defaults", "small_nu_0.3_3.0"])
    def test_ptotal_equals_direct_dimer_readout(self, tmp_path, small):
        if small:  # nu = 3 amplifies; only the series is compared, not the verdicts
            cfg = small_absorb(tmp_path / "abs")
            cfg.absorb.nu_values = (0.3, 3.0)
        else:
            cfg = default_config("absorb")
            cfg.out_dir = str(tmp_path / "abs")
        run_scenario(cfg)
        lattice = cfg.lattice.to_lattice()
        n0 = lattice.left_len
        times = TimeConfig(t_max=cfg.absorb.t_max, dt=cfg.absorb.dt).times()
        lines = (tmp_path / "abs" / "ptotal.csv").read_text().splitlines()[1:]
        cells = np.array([[float(c) for c in line.split(",")] for line in lines])
        assert sorted(set(cells[:, 0])) == sorted(cfg.absorb.nu_values)
        for nu in cfg.absorb.nu_values:
            center = AsymmetricDimer(1.0 / nu, nu)
            factor = mixed_state_uniform(lattice, center, n0)
            rows = Propagator(build_hamiltonian(center, lattice)).frame_rows(factor, times)
            direct = np.array([row.sum() / n0 for row in rows])
            written = cells[cells[:, 0] == nu]
            assert np.array_equal(written[:, 1], times)
            assert np.max(np.abs(written[:, 2] - direct) / direct) < 1e-13, nu


class TestRunArtifacts:
    def test_manifest_and_outputs(self, tmp_path):
        cfg = small_amplify(tmp_path / "run")
        manifest = run_scenario(cfg)
        assert manifest.passed
        out = tmp_path / "run"
        data = json.loads((out / "manifest.json").read_text())
        assert data["passed"] is True
        assert data["scenario"] == "amplify"
        assert set(data["outputs"]) >= {
            "config.ini",
            "manifest.json",
            "frames.npy",
            "frames_reference.npy",
            "frames_axes.json",
            "metrics.txt",
        }
        for name in data["outputs"]:
            assert (out / name).exists()
        assert all(a["measured"] for a in data["assertions"])

    def test_config_snapshot_round_trips(self, tmp_path):
        cfg = small_amplify(tmp_path / "run")
        run_scenario(cfg)
        snapshot = (tmp_path / "run" / "config.ini").read_text()
        assert from_ini(snapshot) == cfg

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_deterministic_outputs(self, tmp_path, scenario):
        # every data file; the manifest holds timings and config.ini the out_dir
        outputs = [
            run_scenario(small_config(scenario, tmp_path / run)).outputs for run in "ab"
        ]
        assert outputs[0] == outputs[1]
        data = [name for name in outputs[0] if name not in ("manifest.json", "config.ini")]
        assert data
        for name in data:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestCli:
    def test_verify_exit_zero(self, tmp_path, capsys):
        code = main(["verify", "--out", str(tmp_path / "v")])
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_config_error_exit_two(self, tmp_path, capsys):
        for scenario, override in [
            ("amplify", "center.gamma=0.9"),
            ("amplify", "packet.lam=0"),
            ("amplify", "lattice.left_len=abc"),
            ("sweep", "center.mu=inf"),
            ("sweep", "sweep.samples=2.5"),
            ("singularity", "packet.pair_site=0"),
            ("amplify", "time.t_max=inf"),
            ("absorb", "absorb.t_max=inf"),
            ("amplify", "time.dt=nan"),
            # specs built from config values refuse these
            ("absorb", "absorb.nu_values=nan, 0.5"),
            ("absorb", "absorb.nu_values=inf, 0.5"),
            ("singularity", "center.mu=nan"),
            ("flux-deviation", "center.delta=inf"),
            ("flux-deviation", "flux.deviations=0, 1" + "0" * 400),
        ]:
            code = main([scenario, "--out", str(tmp_path / "x"), "--set", override])
            err = capsys.readouterr().err
            assert code == 2 and "config error" in err, (scenario, override, code, err)

    @pytest.mark.parametrize(
        "content, reason",
        [
            (None, "cannot read config file"),
            (b"\xff\xfe[scenario]\n", "cannot read config file"),
            (b"scenario = amplify\n", "malformed INI"),
            (b"[time]\ndt = 1.0\ndt = 2.0\n", "malformed INI"),
        ],
        ids=["missing", "not_utf8", "no_section_header", "duplicate_option"],
    )
    def test_unreadable_config_file_exit_two(self, tmp_path, capsys, content, reason):
        path = tmp_path / "bad.ini"
        if content is not None:
            path.write_bytes(content)
        code = main(["amplify", "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"config error: {reason}") and err.count("\n") == 1, err

    @pytest.mark.parametrize("source", ["config_file", "override"])
    def test_scenario_mismatch_exit_two(self, tmp_path, capsys, source):
        # the subcommand names the run; neither source may name another
        args = ["sweep", "--out", str(tmp_path / "o")]
        if source == "config_file":
            path = tmp_path / "verify.ini"
            path.write_text("[scenario]\nscenario = verify\n")
            args += ["--config", str(path)]
        else:
            args += ["--set", "scenario=verify"]
        code = main(args)
        err = capsys.readouterr().err
        assert code == 2 and not (tmp_path / "o").exists()
        assert err == "config error: config names scenario 'verify', not 'sweep'\n"

    @pytest.mark.parametrize(
        "args",
        [["--out", ""], ["--out", " "], ["--set", "out_dir="]],
        ids=["out", "out_blank", "set"],
    )
    def test_empty_out_dir_exit_two(self, tmp_path, capsys, monkeypatch, args):
        # an empty name would write the run into the working directory, and a
        # blank one into a directory named by whitespace
        monkeypatch.chdir(tmp_path)
        assert main(["verify", *args]) == 2
        err = capsys.readouterr().err
        assert err == "config error: out_dir is empty; name an output directory\n"
        assert not os.listdir(tmp_path)

    def test_unusable_out_dir_exit_two(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["sweep", "--out", str(blocker / "x")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: cannot use output directory"), err

    def test_unwritable_output_file_exit_two(self, tmp_path, capsys):
        # a directory where the run writes series.csv
        blocker = tmp_path / "x" / "series.csv"
        blocker.mkdir(parents=True)
        code = main(["singularity", "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"config error: cannot write output file {str(blocker)!r}"), err

    def test_packet_without_lead_weight_exit_two(self, tmp_path, capsys):
        args = ["amplify", "--out", str(tmp_path / "x"), "--set", "packet.site=0"]
        code = main(args + ["--set", "packet.lam=40"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: packet has no weight on the lead sites"), err

    def test_huge_packet_lam_exit_two(self, tmp_path, capsys):
        # lam**2 overflows a float here; the packet's exponent used to raise
        # OverflowError and print a traceback
        args = ["amplify", "--out", str(tmp_path / "x"), "--set", "packet.lam=1e300"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: packet width parameter lam") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "scenario, override",
        [
            ("absorb", "absorb.t_max=1e13"),
            ("singularity", "time.t_max=1e13"),
            ("sweep", "sweep.samples=10000000000"),
        ],
    )
    def test_oversized_grid_exit_two(self, tmp_path, capsys, scenario, override):
        # refused before any array is allocated (these used to raise NumPy's
        # MemoryError for 40-80 TB grids)
        assert main([scenario, "--out", str(tmp_path / "x"), "--set", override]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert str(experiments.MAX_GRID_POINTS) in err

    def test_out_of_memory_exit_two(self, tmp_path, capsys, monkeypatch):
        def runner(config, out_dir):
            raise MemoryError("Unable to allocate 64.0 GiB for an array")

        monkeypatch.setitem(experiments._RUNNERS, "amplify", runner)
        assert main(["amplify", "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == (
            "config error: the run does not fit in memory: "
            "Unable to allocate 64.0 GiB for an array\n"
        )

    def test_program_fault_is_no_config_error(self, tmp_path, capsys, monkeypatch):
        # a ValueError from inside a run is a fault of the program, not of its
        # config: run_scenario passes it on, and the CLI prints its traceback
        def runner(config, out_dir):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setitem(experiments._RUNNERS, "verify", runner)
        config = experiments.default_config("verify")
        config.out_dir = str(tmp_path / "run")
        with pytest.raises(ValueError) as caught:
            run_scenario(config)
        assert type(caught.value) is ValueError
        assert main(["verify", "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "config error" not in err and err.startswith("Traceback"), err
        assert err.endswith("ValueError: operands could not be broadcast together\n"), err

    @pytest.mark.parametrize(
        "args",
        [
            None,  # start-up alone
            ["sweep"],
            ["amplify", "--set", "lattice.left_len=200", "--set", "lattice.right_len=200"],
            [
                "flux-deviation",
                "--set", "lattice.left_len=200",
                "--set", "lattice.right_len=200",
                "--set", "flux.k0_values=1.2566370614359172, 1.5707963267948966",
                "--set", "flux.deviations=0, 10",
            ],
            ["singularity", "--set", "lattice.left_len=200", "--set", "lattice.right_len=200"],
            ["absorb", "--set", "absorb.nu_values=0.5, 0.1"],
            ["verify"],
        ],
        ids=lambda args: "import" if args is None else args[0],
    )
    def test_run_loads_no_scipy(self, tmp_path, args):
        # H is built, stepped and transformed on its diagonals in NumPy, and
        # verify compares spectra by characteristic polynomials there, so every
        # scenario runs where SciPy is not installed and never tries to load it
        code = "import nhscatter.cli"
        if args is not None:
            out = str(tmp_path / "run")
            code = f"from nhscatter.cli import main; assert main({args + ['--out', out]!r}) == 0"
        run = _run_without_scipy(code)
        assert run.returncode == 0, run.stderr

    def test_src_imports_no_scipy(self):
        # also inside functions, where a lazy import escapes the run tests
        # above unless a scenario reaches it
        package = Path(__file__).resolve().parents[1] / "src" / "nhscatter"
        found = []
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                found += [(path.name, node.lineno) for name in names if name.split(".")[0] == "scipy"]
        assert found == []

    def test_src_makes_no_blas_call(self):
        # every sum in src is a NumPy reduction or math.fsum, so no output
        # depends on the BLAS or LAPACK kernel; the one product left is a
        # TaylorStep applied to a state, in Propagator._evolve's step loop
        def nodes(tree, scope=""):  # (node, qualified name of its def or class)
            for child in ast.iter_child_nodes(tree):
                yield child, scope
                named = isinstance(child, (ast.ClassDef, ast.FunctionDef))
                yield from nodes(child, f"{scope}.{child.name}".lstrip(".") if named else scope)

        package = Path(__file__).resolve().parents[1] / "src" / "nhscatter"
        calls = {"dot", "vdot", "inner", "matmul", "einsum", "tensordot"}
        found, products = [], []
        for path in sorted(package.glob("*.py")):
            for node, scope in nodes(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Attribute) and node.attr == "linalg":
                    found.append((path.name, node.lineno))
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = [f"{getattr(node, 'module', '')}.{alias.name}" for alias in node.names]
                    if any("linalg" in name.split(".") for name in names):
                        found.append((path.name, node.lineno))
                elif isinstance(node, ast.Call):
                    func = node.func
                    if getattr(func, "attr", getattr(func, "id", None)) in calls:
                        found.append((path.name, node.lineno))
                elif isinstance(getattr(node, "op", None), ast.MatMult):
                    products.append((path.name, scope))
        assert found == []
        assert products == [("dynamics.py", "Propagator._evolve.steps")]

    def test_bounds_cannot_be_loosened(self, tmp_path, capsys):
        # at t_max = 20 the packet has not crossed the center: the gain check fails
        early = ["amplify", "--out", str(tmp_path / "x"), "--set", "time.t_max=20"]
        assert main(early) == 1
        assert "[FAIL] gain_matches_nu_squared" in capsys.readouterr().out
        code = main(early + ["--set", "tol.gain_rtol=1", "--set", "tol.reflect=1"])
        assert code == 2
        assert "takes no key 'tol.gain_rtol'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, key",
        [
            (["singularity.fit_start=60", "singularity.fit_end=30"], "fit_start"),
            (["singularity.fit_start=68.5"], "fit_start"),
            (["singularity.emission_fit_start=69.5"], "emission_fit_start"),
        ],
    )
    def test_singularity_fit_window_under_three_times_exit_two(
        self, tmp_path, capsys, overrides, key
    ):
        args = ["singularity", "--out", str(tmp_path / "x")]
        for item in overrides:
            args += ["--set", item]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"singularity.{key}=" in err

    @pytest.mark.parametrize(
        "overrides",
        [
            ["flux.k0_values="],
            ["flux.deviations=0", "flux.k0_values=1.0"],
            ["flux.deviations=0"],
            ["flux.k0_values=1.0"],
        ],
        ids=["no_k0", "zero_deviation_one_k0", "zero_deviation_only", "one_k0"],
    )
    def test_flux_without_comparisons_exit_two(self, tmp_path, capsys, overrides):
        # no positive deviation or a single k0 leaves an assertion comparing nothing
        args = ["flux-deviation", "--out", str(tmp_path / "x")]
        for item in overrides:
            args += ["--set", item]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "positive deviation" in err, err
        assert not (tmp_path / "x" / "distortion.csv").exists()

    @pytest.mark.parametrize("k0", ["0.0", repr(math.pi)], ids=["zero", "pi"])
    def test_flux_k0_outside_open_interval_exit_two(self, tmp_path, capsys, k0):
        out = str(tmp_path / "x")
        assert main(["flux-deviation", "--out", out, "--set", f"flux.k0_values={k0}, 1.0"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "packet momentum must lie in (0, pi)" in err, err
        assert not (tmp_path / "x" / "distortion.csv").exists()

    def test_absorb_drop_time_past_t_max_exit_two(self, tmp_path, capsys):
        code = main(
            [
                "absorb",
                "--out", str(tmp_path / "x"),
                "--set", "absorb.t_max=20.0",
                "--set", "absorb.drop_time=50.0",
            ]
        )
        assert code == 2
        assert "drop_time" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sets, message",
        [
            (
                ["absorb.t_max=600", "absorb.nu_values=0.5, 0.1"],
                "absorb runs to t = 600.0, so lattice.right_len must be at least 2 t = 1200.0, "
                "got 400",
            ),
            (  # the grid's last time counts, not t_max: t_max = 43 ends the grid at 42
                ["lattice.right_len=80", "absorb.t_max=43"],
                "absorb runs to t = 42.0, so lattice.right_len must be at least 2 t = 84.0, "
                "got 80",
            ),
        ],
        ids=["long_run", "last_grid_time"],
    )
    def test_absorb_past_its_right_lead_exit_two(self, tmp_path, capsys, sets, message):
        # absorb cannot take the boundary guard (the mixture fills its left
        # lead to the end), and past 2 t = right_len its P(t) depends on the
        # lead length
        args = ["absorb", "--out", str(tmp_path / "x")]
        assert main([*args, *(arg for item in sets for arg in ("--set", item))]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "x" / "ptotal.csv").exists()

    def test_packet_behind_hard_wall_exit_two(self, tmp_path, capsys):
        # the default packet spans sites -93..-27, so a left lead that ends
        # at -70 clips its tail
        args = ["amplify", "--out", str(tmp_path / "x"), "--set", "lattice.left_len=70"]
        assert main(args) == 2
        assert capsys.readouterr().err == (
            "config error: packet at site -60 with 5 sigma = 33.3 is clipped "
            "by the lead ends [-70, 400]\n"
        )

    def test_absorb_n0_is_unknown_key_exit_two(self, tmp_path, capsys):
        code = main(["absorb", "--out", str(tmp_path / "x"), "--set", "absorb.n0=20"])
        assert code == 2
        assert "scenario 'absorb' takes no key 'absorb.n0'" in capsys.readouterr().err

    def test_absorb_config_with_hard_wall_exit_two(self, tmp_path, capsys):
        # absorb's config.ini as written while the lattice had a hard-wall
        # key: the left lead's end is the wall now, and the key is refused
        path = tmp_path / "absorb.ini"
        path.write_text(
            "[scenario]\nscenario = absorb\nout_dir = runs/absorb\n\n"
            "[lattice]\nleft_len = 20\nright_len = 400\nhard_wall_n0 = 20\n\n"
            "[absorb]\nnu_values = 0.5, 0.4, 0.1\nt_max = 200.0\ndt = 2.0\n"
            "drop_time = 50.0\n"
        )
        assert main(["absorb", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == (
            "config error: scenario 'absorb' takes no key 'lattice.hard_wall_n0'\n"
        )
        assert not (tmp_path / "x").exists()

    def test_set_overrides_config_file(self, tmp_path, capsys):
        cfg = small_amplify(tmp_path / "from_file")
        path = tmp_path / "amp.ini"
        path.write_text(to_ini(cfg))
        code = main(
            [
                "amplify",
                "--config",
                str(path),
                "--out",
                str(tmp_path / "out"),
                "--set",
                "time.t_max=38",
            ]
        )
        assert code == 0
        snapshot = from_ini((tmp_path / "out" / "config.ini").read_text())
        assert snapshot.time.t_max == 38.0
        assert snapshot.out_dir == str(tmp_path / "out")

    def test_scenario_mismatch_rejected(self, tmp_path, capsys):
        cfg = default_config("sweep")
        path = tmp_path / "sweep.ini"
        path.write_text(to_ini(cfg))
        code = main(["amplify", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_boundary_contamination_exit_two(self, tmp_path, capsys):
        code = main(
            [
                "amplify",
                "--out",
                str(tmp_path / "x"),
                "--set", "lattice.left_len=80",
                "--set", "lattice.right_len=80",
                "--set", "packet.site=-45",
                "--set", "time.t_max=60",
            ]
        )
        assert code == 2
        assert "aborted" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "step, reason",
        [("1e40", "norms of the powers"), ("1e15", "sparse products")],
        ids=["norm_overflow", "too_many_products"],
    )
    def test_step_without_plan_exit_two(self, tmp_path, capsys, step, reason):
        # one step of t_max: the norms of (H dt)^p overflow at 1e40, and at
        # 1e15 the plan would take more than _MAX_PRODUCTS banded products
        args = ["amplify", "--out", str(tmp_path / "x")]
        code = main([*args, "--set", f"time.t_max={step}", "--set", f"time.dt={step}"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("aborted: ") and err.count("\n") == 1, err
        assert reason in err


#: Each scenario on leads of at most 80 sites and times of at most 15, the
#: base that the config-space test overrides.
SMALL_RUNS = {
    "sweep": ["sweep.samples=15"],
    "amplify": [
        "lattice.left_len=80", "lattice.right_len=80",
        "packet.site=-14", "packet.lam=0.6", "time.t_max=15",
    ],
    "singularity": [
        "lattice.left_len=80", "lattice.right_len=80",
        "packet.site=-14", "packet.pair_site=14", "packet.lam=0.6", "time.t_max=15",
        "singularity.fit_start=8", "singularity.fit_end=15",
        "singularity.emission_fit_start=12",
    ],
    "absorb": [
        "lattice.left_len=6", "lattice.right_len=80",
        "absorb.nu_values=0.5, 0.1", "absorb.t_max=14", "absorb.drop_time=10",
    ],
    "verify": [],  # its matrices are fixed and small
}
SMALL_RUNS["flux-deviation"] = SMALL_RUNS["amplify"]


def _config_keys() -> list[str]:
    """Every config key but the scenario name and the output directory, read
    off the config dataclasses: "section.name", or "name" at the top level."""
    keys = []
    for f in dataclasses.fields(experiments.ScenarioConfig):
        if dataclasses.is_dataclass(f.type):
            keys += [f"{f.name}.{g.name}" for g in dataclasses.fields(f.type)]
        elif f.name not in ("scenario", "out_dir"):
            keys.append(f.name)
    return keys


#: Per scenario, the keys of _config_keys() it takes and those it refuses.
TAKEN = {s: [k for k in _config_keys() if k in experiments._keys(s)] for s in SCENARIOS}
REFUSED = {s: [k for k in _config_keys() if k not in TAKEN[s]] for s in SCENARIOS}

#: Keys that earlier configs held and no config dataclass has now.
RETIRED = ["lattice.hard_wall_n0"]


#: Values at the edges of every key's type, and a few valid ones.
EDGE_VALUES = [
    "0", "1", "-1", "2", "80", "0.5", "3.5", "1e-300", "1e300", "nan", "inf", "-inf",
    "", "none", "1j", "0.5, 0.1", "dimer", "onsite",
]


#: A scenario and one to three --set overrides of keys it takes, on its small run.
SMALL_CONFIGS = st.sampled_from(SCENARIOS).flatmap(
    lambda scenario: st.tuples(
        st.just(scenario),
        st.lists(
            st.tuples(st.sampled_from(TAKEN[scenario]), st.sampled_from(EDGE_VALUES)),
            min_size=1,
            max_size=3,
        ),
    )
)


def _run_small(scenario, overrides, out) -> tuple[int, str]:
    """The CLI's exit code and standard error for a small run into ``out``."""
    sets = [*SMALL_RUNS[scenario], *(f"{key}={value}" for key, value in overrides)]
    argv = [scenario, "--out", str(out), *(arg for item in sets for arg in ("--set", item))]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stderr.getvalue()


class TestConfigSpace:
    """Any --set overrides on a small run: the CLI passes, fails its
    assertions, or refuses the config in one line, a finished run's manifest
    lists exactly the files it wrote, and a rerun writes the same data."""

    @given(run=SMALL_CONFIGS)
    @settings(max_examples=100, derandomize=True, deadline=None)  # verify takes ~0.15 s
    def test_every_config_exits_cleanly(self, run):
        scenario, overrides = run
        with tempfile.TemporaryDirectory() as out:
            code, err = _run_small(scenario, overrides, out)
            assert code in (0, 1, 2), code
            if code == 2:
                assert err.startswith(("config error:", "aborted:")), err
                assert err.count("\n") == 1 and err.endswith("\n"), err
            else:
                manifest = json.loads(Path(out, "manifest.json").read_text())
                assert sorted(manifest["outputs"]) == sorted(os.listdir(out))

    @given(run=SMALL_CONFIGS)
    @settings(max_examples=40, derandomize=True, deadline=None)  # about 2 s
    def test_rerun_writes_identical_data_files(self, run):
        scenario, overrides = run
        # the manifest holds timings and config.ini the output directory
        runs = []
        with tempfile.TemporaryDirectory() as out:
            for name in ("a", "b"):
                code, _ = _run_small(scenario, overrides, Path(out, name))
                files = sorted(Path(out, name).iterdir()) if code != 2 else []
                data = [f for f in files if f.name not in ("manifest.json", "config.ini")]
                runs.append((code, {f.name: f.read_bytes() for f in data}))
        assert runs[0] == runs[1]


#: The center fields that each center kind reads.
CENTER_FIELDS = {"onsite": ("v",), "interferometer": ("delta", "gamma"), "dimer": ("mu", "nu")}


def _recording(obj, reads: set, prefix: str):
    """A copy of the dataclass instance ``obj`` that adds prefix + name to
    ``reads`` whenever one of its non-dataclass fields is read, by a runner
    or by one of obj's own methods."""
    names = {f.name for f in dataclasses.fields(obj) if not dataclasses.is_dataclass(f.type)}

    class Recording(type(obj)):
        def __getattribute__(self, name):
            if name in names:
                reads.add(prefix + name)
            return super().__getattribute__(name)

    clone = copy.copy(obj)
    clone.__class__ = Recording
    return clone


class TestScenarioKeys:
    """Each scenario takes, and its config.ini holds, exactly the keys its
    runner reads."""

    def test_config_ini_holds_the_keys_taken(self):
        assert len(_config_keys()) == 25
        counts = {}
        for scenario in SCENARIOS:
            parser = configparser.ConfigParser(interpolation=None)
            parser.read_string(to_ini(default_config(scenario)))
            keys = [f"{section}.{name}" for section in parser for name in parser[section]]
            assert keys[:2] == ["scenario.scenario", "scenario.out_dir"]
            assert [k.removeprefix("scenario.") for k in keys[2:]] == TAKEN[scenario]
            counts[scenario] = len(TAKEN[scenario])
        assert counts == {
            "sweep": 7,
            "amplify": 12,
            "flux-deviation": 10,
            "singularity": 13,
            "absorb": 6,
            "verify": 1,
        }
        assert sum(counts.values()) == 49  # the settable (scenario, key) pairs

    @pytest.mark.parametrize(
        "scenario, key", [(s, k) for s in SCENARIOS for k in REFUSED[s] + RETIRED], ids=str
    )
    def test_key_not_taken_exit_two(self, tmp_path, capsys, scenario, key):
        # "1" parses as every key's type, so only the key is refused
        assert main([scenario, "--out", str(tmp_path / "x"), "--set", f"{key}=1"]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: scenario {scenario!r} takes no key {key!r}\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_runner_reads_exactly_the_keys_taken(self, tmp_path, scenario):
        # the drift guard: the key table is the runner's measured traffic
        config = apply_overrides(default_config(scenario), SMALL_RUNS[scenario])
        reads = set()
        sections = {
            f.name: _recording(getattr(config, f.name), reads, f"{f.name}.")
            for f in dataclasses.fields(config)
            if dataclasses.is_dataclass(f.type)
        }
        recorded = _recording(dataclasses.replace(config, **sections), reads, "")
        experiments._RUNNERS[scenario](recorded, tmp_path)  # small: verdicts may fail
        other_kinds = set()
        if "center.kind" in TAKEN[scenario]:  # a run reads only its own kind's fields
            other_kinds = {
                f"center.{name}"
                for kind, names in CENTER_FIELDS.items()
                if kind != config.center.kind
                for name in names
            }
        assert reads - {"scenario", "out_dir"} == set(TAKEN[scenario]) - other_kinds
