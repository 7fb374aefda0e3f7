import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

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
from nhscatter.cli import main
from nhscatter.lattice import (
    AsymmetricDimer,
    Interferometer,
    LatticeSpec,
    OnSitePotential,
    build_hamiltonian,
)


def _scipy_modules_after(code: str) -> str:
    """The scipy modules a fresh interpreter holds after running ``code``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code += "\nimport sys\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    run = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return run.stdout.strip().splitlines()[-1]


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
    cfg.lattice.hard_wall_n0 = 6
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
        cfg = default_config("amplify")
        cfg.center.delta = -1.0 + 1e-13
        cfg.flux.deviations = (0, 3, 7)
        cfg.lattice.hard_wall_n0 = 17
        cfg.center.v = 0.25 - 2j
        assert from_ini(to_ini(cfg)) == cfg

    def test_unknown_section_rejected(self):
        # [tol] held the assertion bounds before they were fixed in code; a
        # config.ini written then must not load
        base = to_ini(default_config("amplify"))
        for section in ("nope", "tol"):
            with pytest.raises(ConfigError, match=f"unknown config section '{section}'"):
                from_ini(f"{base}\n[{section}]\ngain_rtol = 1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            from_ini("[scenario]\nscenario = sweep\n[center]\nbogus = 1\n")

    def test_apply_overrides(self):
        cfg = default_config("amplify")
        out = apply_overrides(cfg, ["center.delta=-1.0", "time.t_max=12.5", "seed=7"])
        assert out.center.delta == -1.0
        assert out.time.t_max == 12.5
        assert out.seed == 7
        assert cfg.center.delta == -1.25  # original untouched

    def test_override_validation(self):
        cfg = default_config("amplify")
        with pytest.raises(ConfigError):
            apply_overrides(cfg, ["nonsense"])
        with pytest.raises(ConfigError):
            apply_overrides(cfg, ["center.bogus=1"])
        with pytest.raises(ConfigError):
            apply_overrides(cfg, ["bogus.delta=1"])

    def test_none_field_round_trip(self):
        cfg = default_config("absorb")
        assert cfg.lattice.hard_wall_n0 == 20
        out = apply_overrides(cfg, ["lattice.hard_wall_n0=none"])
        assert out.lattice.hard_wall_n0 is None

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            default_config("explode")

    @pytest.mark.parametrize(
        "t_max, dt, count, last",
        [
            (7.0, 2.0, 4, 6.0),  # last multiple of dt not past t_max
            (9.0, 2.0, 5, 8.0),
            (35.0, 10.0, 4, 30.0),  # absorb control grid at absorb.t_max=35
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

    def test_singularity_requires_singular_product(self, tmp_path):
        cfg = default_config("singularity")
        cfg.out_dir = str(tmp_path / "x")
        cfg.center.gamma = 0.75
        cfg.center.delta = -1.25
        with pytest.raises(ConfigError):
            run_scenario(cfg)

    def test_absorb_requires_matching_wall(self, tmp_path):
        cfg = default_config("absorb")
        cfg.out_dir = str(tmp_path / "x")
        cfg.lattice.hard_wall_n0 = None
        with pytest.raises(ConfigError):
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
            h = build_hamiltonian(center, LatticeSpec(2, 2)).matrix.toarray()
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

    def test_off_quarter_flux_rejected(self, tmp_path):
        cfg = default_config("sweep")
        cfg.out_dir = str(tmp_path / "s")
        cfg.center.kind = "interferometer"
        cfg.center.phi = 0.5
        with pytest.raises(ConfigError):
            run_scenario(cfg)

    def test_verify_writes_assertion_report(self, tmp_path):
        cfg = default_config("verify")
        cfg.out_dir = str(tmp_path / "v")
        manifest = run_scenario(cfg)
        assert manifest.passed
        report = (tmp_path / "v" / "assertions.txt").read_text()
        assert "rotation_matches_dimer = pass" in report


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
        manifest = run_scenario(small_absorb(tmp_path / "abs"))
        assert manifest.passed, [a.name for a in manifest.assertions if not a.passed]
        lines = (tmp_path / "abs" / "ptotal.csv").read_text().splitlines()
        assert lines[0] == "nu,t,P"
        assert any(a.name == "hermitian_control_conserves" for a in manifest.assertions)

    def test_absorb_shorter_than_control_step(self, tmp_path):
        # t_max below the Hermitian control's 10-unit step
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

    def test_unusable_out_dir_exit_two(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["sweep", "--out", str(blocker / "x")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: cannot use output directory"), err

    def test_start_up_loads_no_scipy(self):
        # only building and stepping H need scipy.sparse; it is imported where used
        assert _scipy_modules_after("import nhscatter.cli") == "[]"

    def test_sweep_run_loads_no_scipy(self, tmp_path):
        # closed forms, and a Hermiticity check read off the center spec: no H is built
        out = str(tmp_path / "sweep")
        code = f"from nhscatter.cli import main; assert main(['sweep', '--out', {out!r}]) == 0"
        assert _scipy_modules_after(code) == "[]"

    def test_bounds_cannot_be_loosened(self, tmp_path, capsys):
        # at t_max = 20 the packet has not crossed the center: the gain check fails
        early = ["amplify", "--out", str(tmp_path / "x"), "--set", "time.t_max=20"]
        assert main(early) == 1
        assert "[FAIL] gain_matches_nu_squared" in capsys.readouterr().out
        code = main(early + ["--set", "tol.gain_rtol=1", "--set", "tol.reflect=1"])
        assert code == 2
        assert "unknown config section 'tol'" in capsys.readouterr().err

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

    def test_absorb_n0_is_unknown_key_exit_two(self, tmp_path, capsys):
        code = main(["absorb", "--out", str(tmp_path / "x"), "--set", "absorb.n0=20"])
        assert code == 2
        assert "unknown key absorb.n0" in capsys.readouterr().err

    def test_absorb_without_wall_exit_two(self, tmp_path, capsys):
        code = main(
            ["absorb", "--out", str(tmp_path / "x"), "--set", "lattice.hard_wall_n0=none"]
        )
        assert code == 2
        assert "hard wall" in capsys.readouterr().err

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
