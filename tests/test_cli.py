import csv
import json
import math
import os
import subprocess
import sys
from itertools import groupby
from operator import itemgetter

import numpy as np
import pytest

from locland import dynamics, experiments
from locland.cli import load_config_file, main, resolve_config
from locland.diagnostics import floquet_dos
from locland.dynamics import min_left_population_grid, propagate
from locland.errors import AccuracyError, ConfigError
from locland.experiments import (
    SCHEMAS,
    RunConfig,
    RUNNERS,
    _aah_point,
    _cdt_duo_point,
    _cdt_mono_point,
    _hn_point,
    run_bbh,
    run_cdt_duo,
    run_ssh,
)
from locland.sambe import build_sambe

from oracles import hatano_nelson_mp_reference


def run_cli(args):
    return main(args)


class TestConfigResolution:
    def test_defaults(self, tmp_path):
        class Args:
            config = None
            out = str(tmp_path)
            workers = 1
            set = None
            seed = 0

        config = resolve_config("hn", Args())
        assert config.params["n_sites"] == 120
        assert config.params["r_count"] == 25

    def test_file_and_override_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_sites = 30\nr_count = 5  # small sweep\n\n# comment line\n")

        class Args:
            config = str(cfg)
            out = str(tmp_path)
            workers = 1
            set = ["r_count=7"]
            seed = 0

        config = resolve_config("hn", Args())
        assert config.params["n_sites"] == 30
        assert config.params["r_count"] == 7  # --set wins over the file

    def test_unknown_key_rejected(self, tmp_path):
        class Args:
            config = None
            out = str(tmp_path)
            workers = 1
            set = ["nonsense=3"]
            seed = 0

        with pytest.raises(ConfigError):
            resolve_config("hn", Args())

    def test_bad_value_rejected(self, tmp_path):
        class Args:
            config = None
            out = str(tmp_path)
            workers = 1
            set = ["n_sites=abc"]
            seed = 0

        with pytest.raises(ConfigError):
            resolve_config("hn", Args())
        # a JSON config can carry Infinity or NaN for an integer key
        for value in ("Infinity", "NaN"):
            Args.set = None
            Args.config = str(tmp_path / "config.json")
            (tmp_path / "config.json").write_text(f'{{"n_sites": {value}}}')
            with pytest.raises(ConfigError, match="not an integer"):
                resolve_config("hn", Args())

    def test_swept_axis_needs_two_points(self, tmp_path):
        class Args:
            config = None
            out = str(tmp_path)
            workers = 1
            set = ["r_count=1"]
            seed = 0

        with pytest.raises(ConfigError):
            resolve_config("hn", Args())

    def test_malformed_line_reports_location(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n_sites 30\n")
        with pytest.raises(ConfigError, match="bad.cfg:1"):
            load_config_file(cfg)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config_file(tmp_path / "nope.cfg")

    def test_manifest_roundtrip_as_config(self, tmp_path):
        manifest = {"experiment": "hn", "params": {"n_sites": 24, "r_count": 3}, "seed": 7}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        assert load_config_file(path) == ({"n_sites": 24, "r_count": 3}, 7)

    @pytest.mark.parametrize("flag, seed", [(None, 7), (3, 3), (0, 0)])
    def test_explicit_seed_wins_over_manifest(self, flag, seed, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"experiment": "bounds", "params": {}, "seed": 7}))

        class Args:
            config = str(path)
            out = str(tmp_path)
            workers = 1
            set = None
            seed = flag

        assert resolve_config("bounds", Args()).seed == seed

    def test_every_experiment_has_schema_defaults(self, tmp_path):
        # text given for a key is parsed as the type of its default, so each
        # default given back through --set resolves to itself
        class Args:
            config = None
            out = str(tmp_path)
            workers = 1
            seed = 0

        for name, schema in SCHEMAS.items():
            Args.set = [f"{key}={entry.default}" for key, entry in schema.items()]
            params = resolve_config(name, Args()).params
            for key, entry in schema.items():
                assert type(params[key]) is type(entry.default), (name, key)
                assert params[key] == entry.default, (name, key)
                assert entry.minimum is None or entry.default >= entry.minimum, (name, key)
        Args.set = ["t_left=2"]
        t_left = resolve_config("hn", Args()).params["t_left"]
        assert type(t_left) is float and t_left == 2.0

    def test_peak_detection_needs_three_amplitudes(self, tmp_path):
        # cdt-mono detects peaks on the amplitude axis, which needs three points
        class Args:
            config = None
            out = str(tmp_path)
            workers = 1
            set = ["amp_count=2"]
            seed = 0

        with pytest.raises(ConfigError, match="amp_count"):
            resolve_config("cdt-mono", Args())

    @pytest.mark.parametrize("experiment", ["cdt-mono", "cdt-duo"])
    def test_steps_per_period_floor(self, experiment, tmp_path):
        # the RK4 step may not exceed the fastest drive period over 200
        class Args:
            config = None
            out = str(tmp_path)
            workers = 1
            seed = 0

        Args.set = [f"steps_per_period={dynamics.MIN_STEPS_PER_PERIOD}"]
        resolve_config(experiment, Args())
        Args.set = [f"steps_per_period={dynamics.MIN_STEPS_PER_PERIOD - 1}"]
        with pytest.raises(ConfigError, match="steps_per_period"):
            resolve_config(experiment, Args())


class TestCliExitCodes:
    def test_config_error_exits_2(self, tmp_path, capsys):
        code = run_cli(["hn", "--out", str(tmp_path), "--set", "bogus=1"])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "experiment, args",
        [
            ("hn", ["n_sites=1"]),
            ("hn", ["rcond=2"]),
            ("cdt-mono", ["j_coupling=0"]),
            ("bbh", ["n_x=1"]),
            ("aah", ["truncation=-1"]),
            ("cdt-duo", ["steps_per_period=10", "a_count=2", "b_count=2", "truncation1=1",
                         "truncation2=1"]),
            ("cdt-duo", ["traj_stride=0", "a_count=2", "b_count=2", "truncation1=1",
                         "truncation2=1", "n_periods=1"]),
            ("cdt-duo", ["traj_stride=-5", "a_count=2", "b_count=2", "truncation1=1",
                         "truncation2=1", "n_periods=1"]),
            ("ssh", ["window=-1"]),
            ("bbh", ["window=-1"]),
            # rejected at resolve time, before the Sambe grid runs
            ("cdt-mono", ["steps_per_period=0"]),
            ("cdt-duo", ["steps_per_period=0"]),
            ("cdt-duo", ["traj_stride=0"]),
            ("cdt-duo", ["n_periods=0"]),
        ],
    )
    def test_out_of_range_value_exits_2(self, experiment, args, tmp_path, capsys):
        # the models and solvers reject these with a ValueError subclass
        code = run_cli([experiment, "--out", str(tmp_path)] + [x for a in args for x in ("--set", a)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_workers_below_one_exits_2(self, tmp_path, capsys):
        code = run_cli(["hn", "--out", str(tmp_path), "--workers", "0"])
        assert code == 2
        assert "--workers" in capsys.readouterr().err

    def test_hn_gauge_overflow_exits_3(self, tmp_path, capsys):
        # N |ln r| = 1821 at r = 9e3: the exact landscape is past the float64 range
        args = ["n_sites=200", "r_min=9e3", "r_max=1e4", "r_count=2"]
        code = run_cli(["hn", "--out", str(tmp_path)] + [x for a in args for x in ("--set", a)])
        assert code == 3
        assert "float64" in capsys.readouterr().err

    def test_failed_checks_exit_3(self, tmp_path, capsys):
        # gamma = lam closes the gap: no four-mode corner structure
        code = run_cli(
            ["bbh", "--out", str(tmp_path), "--set", "gamma=1.0", "--set", "n_x=3", "--set", "n_y=3"]
        )
        assert code == 3
        assert "FAIL" in capsys.readouterr().err

    def test_cdt_duo_slow_second_tone_exits_0(self, tmp_path):
        # steps_per_period counts steps of the fastest tone, here omega1 = 10
        args = ["omega2_ratio=0.5", "steps_per_period=300", "a_count=2", "b_count=2",
                "amp_max=2", "truncation1=1", "truncation2=1", "n_periods=1"]
        code = run_cli(["cdt-duo", "--out", str(tmp_path)] + [x for a in args for x in ("--set", a)])
        assert code == 0
        with open(tmp_path / "trajectory_localized_left.csv") as fh:
            rows = list(csv.reader(fh))
        # every traj_stride = 100th step is written
        assert float(rows[2][0]) == pytest.approx(100 * 2.0 * math.pi / 10.0 / 300)

    def test_cdt_duo_norm_drift_exits_3(self, tmp_path, capsys):
        # the coarsest allowed step at A / omega1 = 10 drifts about 3e-5
        # from unit norm on the marked trajectories
        args = ["a_count=2", "b_count=2", "amp_max=10", "n_periods=2", "truncation1=1",
                "truncation2=1", "steps_per_period=200"]
        code = run_cli(["cdt-duo", "--out", str(tmp_path)] + [x for a in args for x in ("--set", a)])
        assert code == 3
        assert "unit norm" in capsys.readouterr().err

    def test_cdt_duo_grid_norm_drift_exits_3(self, tmp_path, capsys):
        # the same coarse step fails the min_PL grid's own gate, before any
        # marked trajectory runs
        args = ["a_count=2", "b_count=2", "amp_max=10", "n_periods=2", "truncation1=1",
                "truncation2=1", "steps_per_period=200"]
        code = run_cli(["cdt-duo", "--out", str(tmp_path)] + [x for a in args for x in ("--set", a)])
        assert code == 3
        assert "min_PL grid drifts from unit norm" in capsys.readouterr().err
        assert not list(tmp_path.glob("trajectory_*.csv"))

    def test_cdt_duo_grid_drift_fails_before_sambe_grid(self, tmp_path, monkeypatch):
        # a slow second tone at 300 steps per period of the faster one passes
        # the resolve-time floor, but the min_PL grid drifts about 2e-5; no
        # lift is built before that gate
        lifts = []

        def counted(*args):
            lifts.append(args)
            return build_sambe(*args)

        monkeypatch.setattr(experiments, "build_sambe", counted)
        config = TestOneFactorization.default_config("cdt-duo", tmp_path)
        config.params.update(omega2_ratio=0.5, steps_per_period=300, a_count=2, b_count=2,
                             truncation1=1, truncation2=1, n_periods=1)
        with pytest.raises(AccuracyError, match="min_PL grid drifts"):
            run_cdt_duo(config)
        assert len(lifts) == 0

    @pytest.mark.parametrize("arg", ["rcond=2", "truncation1=-1", "j_coupling=0", "amp_min=-1"])
    def test_cdt_duo_bounds_fail_before_any_work(self, arg, tmp_path, monkeypatch, capsys):
        # these values only the Sambe grid would reject, after the min_PL grid
        grids = []

        def counted(*args):
            grids.append(args)
            return min_left_population_grid(*args)

        monkeypatch.setattr(experiments, "min_left_population_grid", counted)
        code = run_cli(["cdt-duo", "--out", str(tmp_path), "--set", arg])
        assert code == 2
        assert f"key {arg.split('=')[0]!r}" in capsys.readouterr().err
        assert grids == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_rk4_blow_up_exits_3(self, tmp_path, monkeypatch, capsys):
        # J dt = 31: the min_PL grid overflows to NaN, which its drift gate
        # must reject before any lift is built or trajectory written
        lifts = []

        def counted(*args):
            lifts.append(args)
            return build_sambe(*args)

        monkeypatch.setattr(experiments, "build_sambe", counted)
        args = ["omega1=0.001", "steps_per_period=200", "a_count=2", "b_count=2", "n_periods=1",
                "truncation1=1", "truncation2=1"]
        code = run_cli(["cdt-duo", "--out", str(tmp_path)] + [x for a in args for x in ("--set", a)])
        assert code == 3
        assert "min_PL grid drifts from unit norm by inf" in capsys.readouterr().err
        assert not list(tmp_path.glob("trajectory_*.csv"))
        assert lifts == []

    @pytest.mark.parametrize(
        "experiment, arg",
        [("cdt-mono", "prominence=2"), ("aah", "bin_width=0"), ("ssh", "window=-1"),
         ("bbh", "window=-1"), ("cdt-mono", "omega=0"), ("cdt-duo", "omega1=0"),
         ("cdt-duo", "omega2_ratio=-1"), ("aah", "omega_min=0"), ("aah", "omega_max=-2"),
         ("hn", "n_sites=1"), ("aah", "n_sites=1"), ("ssh", "n_cells=1"), ("bbh", "n_x=1"),
         ("bbh", "n_y=0"), ("bounds", "dimension=0"), ("ssh", "window=nan"),
         ("cdt-mono", "amp_max=inf"), ("hn", "t_left=nan"), ("hn", "r_max=inf"),
         ("aah", "theta=nan"), ("bbh", "gamma=inf"), ("ssh", "t_weak=nan"),
         ("bounds", "n_sites=1")],
    )
    def test_bounded_keys_fail_before_any_work(self, experiment, arg, tmp_path, monkeypatch, capsys):
        # the solvers reject these too, but only after a sweep or a solve
        calls = []
        for name in ("build_sambe", "midgap_report", "monodromy_quasienergies_sweep",
                     "min_left_population_grid", "solve_landscape"):
            monkeypatch.setattr(experiments, name, lambda *a, name=name, **k: calls.append(name))
        out = tmp_path / "out"
        code = run_cli([experiment, "--out", str(out), "--set", arg])
        assert code == 2
        assert f"key {arg.split('=')[0]!r}" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_cdt_duo_b0_reduction_mismatch_exits_3(self, tmp_path, monkeypatch, capsys):
        # the B = 0 sweep and the one-tone sweep are the same lift; a one-part
        # in 1e6 disagreement fails before the marked trajectories run
        mono_point = experiments._cdt_mono_point

        def skewed(u, p):
            point = mono_point(u, p)
            return {**point, "v_max_tot": point["v_max_tot"] * (1.0 + 1e-6)}

        trajectories = []

        def counted(*args, **kwargs):
            trajectories.append(args)
            return propagate(*args, **kwargs)

        monkeypatch.setattr(experiments, "_cdt_mono_point", skewed)
        monkeypatch.setattr(experiments, "propagate", counted)
        args = ["a_count=2", "b_count=2", "truncation1=1", "truncation2=1", "n_periods=1"]
        code = run_cli(["cdt-duo", "--out", str(tmp_path)] + [x for a in args for x in ("--set", a)])
        assert code == 3
        assert "differs from the one-tone sweep by 1.00e-06" in capsys.readouterr().err
        assert trajectories == []

    @pytest.mark.parametrize(
        "experiment, args, names",
        [
            # every r is 1.0, so soft_com and x_cm are constant columns
            ("hn", ["r_min=1.0", "r_max=1.0"], ["pearson_soft_com_x_cm", "spearman_soft_com_x_cm"]),
            # the undriven control: every v_max and min_PL is the same
            ("cdt-duo", ["amp_max=0", "a_count=3", "b_count=3", "truncation1=2", "truncation2=2",
                         "n_periods=2"],
             ["pearson_log10_vmax_min_PL", "pearson_raw_vmax_min_PL", "spearman_vmax_min_PL"]),
        ],
    )
    def test_undefined_correlation_reports_nan(self, experiment, args, names, tmp_path):
        code = run_cli([experiment, "--out", str(tmp_path)] + [x for a in args for x in ("--set", a)])
        assert code == 0
        meta = json.loads((tmp_path / "report.json").read_text())["metadata"]
        assert all(math.isnan(meta[name]) for name in names)

    def test_aah_dos_contract_exits_3(self, tmp_path, monkeypatch, capsys):
        def off_by_1e9(*args, **kwargs):
            centers, density = floquet_dos(*args, **kwargs)
            return centers, density * (1.0 + 1e-9)

        monkeypatch.setattr(experiments, "floquet_dos", off_by_1e9)
        args = ["n_sites=8", "omega_count=2", "truncation=1"]
        code = run_cli(["aah", "--out", str(tmp_path)] + [x for a in args for x in ("--set", a)])
        assert code == 3
        assert "Floquet DOS" in capsys.readouterr().err

    def test_io_error_exits_4(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        code = run_cli(["bounds", "--out", str(blocker / "sub"), "--set", "dimension=4"])
        assert code == 4


class TestEndToEnd:
    def test_hn_outputs(self, tmp_path):
        out = tmp_path / "hn"
        code = run_cli(
            ["hn", "--out", str(out), "--set", "n_sites=30", "--set", "r_count=5"]
        )
        assert code == 0
        for name in ("report.csv", "report.json", "manifest.json", "profile_r0.70.csv", "profile_r1.30.csv"):
            assert (out / name).exists()
        rows = list(csv.reader(open(out / "report.csv")))
        assert rows[0] == ["r", "v_max_tot", "log10_vmax", "sigma_min", "soft_com", "x_cm", "discarded_rank"]
        assert len(rows) == 6
        meta = json.loads((out / "report.json").read_text())["metadata"]
        assert meta["spearman_soft_com_x_cm"] == 1.0
        # the reciprocal point r = 1 has an almost flat symmetric landscape
        report = json.loads((out / "report.json").read_text())
        r_one = report["axes"]["r"].index(1.0)
        assert abs(report["columns"]["soft_com"][r_one] - 15.5) <= 1.0

    @pytest.mark.parametrize(
        "experiment, args",
        [
            ("hn", ["--set", "n_sites=24", "--set", "r_count=4"]),
            ("cdt-mono", ["--set", "amp_count=5", "--set", "amp_max=3", "--set", "truncation=2"]),
            ("cdt-duo", ["--set", "a_count=2", "--set", "b_count=2", "--set", "truncation1=1",
                         "--set", "truncation2=1", "--set", "n_periods=1"]),
            ("aah", ["--set", "n_sites=8", "--set", "omega_count=3", "--set", "truncation=1"]),
            ("ssh", []),
            ("bbh", ["--set", "n_x=4", "--set", "n_y=4"]),
            # the manifest records the seed, which the rerun must draw again
            ("bounds", ["--seed", "7"]),
        ],
        ids=["hn", "cdt-mono", "cdt-duo", "aah", "ssh", "bbh", "bounds"],
    )
    def test_manifest_rerun_bit_exact(self, experiment, args, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert run_cli([experiment, "--out", str(first), *args]) == 0
        assert run_cli([experiment, "--out", str(second), "--config", str(first / "manifest.json")]) == 0
        names = sorted(p.name for p in first.iterdir() if p.name != "manifest.json")
        assert names == sorted(p.name for p in second.iterdir() if p.name != "manifest.json")
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_rerun_into_same_dir_lists_outputs(self, tmp_path):
        args = ["hn", "--out", str(tmp_path), "--set", "n_sites=24", "--set", "r_count=3"]
        listed = []
        for _ in range(2):
            assert run_cli(args) == 0
            listed.append(json.loads((tmp_path / "manifest.json").read_text())["outputs"])
        assert listed[0] == listed[1] == [
            "profile_r0.70.csv", "profile_r1.30.csv", "report.csv", "report.json"
        ]

    def test_cdt_mono_small(self, tmp_path):
        out = tmp_path / "mono"
        code = run_cli(
            [
                "cdt-mono",
                "--out",
                str(out),
                "--set",
                "amp_count=80",
                "--set",
                "amp_max=4",
                "--set",
                "truncation=4",
            ]
        )
        assert code == 0
        meta = json.loads((out / "report.json").read_text())["metadata"]
        assert len(meta["peak_positions"]) == 1  # one root of J0 below 4
        assert abs(meta["peak_positions"][0] - 2.405) < 0.1
        assert 0.0 < meta["max_monodromy_unitarity_defect"] <= 1e-8
        assert (out / "peaks.csv").exists()
        rows = list(csv.reader(open(out / "report.csv")))
        assert rows[0] == [
            "a_over_omega", "v_max_tot", "log10_vmax", "sigma_min", "quasienergy_gap", "discarded_rank",
            "edge_sector_weight",
        ]

    def test_cdt_duo_small(self, tmp_path):
        out = tmp_path / "duo"
        code = run_cli(
            [
                "cdt-duo",
                "--out",
                str(out),
                "--set",
                "a_count=4",
                "--set",
                "b_count=4",
                "--set",
                "amp_max=6",
                "--set",
                "n_periods=10",
                "--set",
                "truncation1=3",
                "--set",
                "truncation2=3",
            ]
        )
        assert code == 0
        meta = json.loads((out / "report.json").read_text())["metadata"]
        assert meta["b0_reduction_max_rel_diff_m2_0"] <= 1e-8
        assert meta["marked_points"]["localized"]["min_PL"] >= meta["marked_points"]["delocalized"]["min_PL"]
        for tag in ("localized", "delocalized"):
            for state in ("left", "partial"):
                assert (out / f"trajectory_{tag}_{state}.csv").exists()
        rows = list(csv.reader(open(out / "report.csv")))
        assert rows[0][:2] == ["a_over_omega1", "b_over_omega1"]
        assert len(rows) == 17
        assert 0.0 < meta["max_norm_drift"] <= 1e-7
        assert 0.0 < meta["grid_max_norm_drift"] <= 1e-7

    def test_cdt_duo_stores_only_written_rows(self, tmp_path, monkeypatch):
        stored = []

        def recorded(*args, **kwargs):
            traj = propagate(*args, **kwargs)
            stored.append(traj.states.shape[0])
            return traj

        monkeypatch.setattr(experiments, "propagate", recorded)
        config = TestOneFactorization.default_config("cdt-duo", tmp_path)
        config.params.update(a_count=2, b_count=2, truncation1=1, truncation2=1, n_periods=1)
        run_cdt_duo(config)
        written = len((tmp_path / "trajectory_localized_left.csv").read_text().splitlines()) - 1
        assert stored == [written]
        p = config.params
        dt = 2.0 * math.pi / (max(1.0, p["omega2_ratio"]) * p["omega1"]) / p["steps_per_period"]
        n_steps = math.ceil(p["n_periods"] * 2.0 * math.pi / p["omega1"] / dt)
        assert written == len(range(0, n_steps + 1, p["traj_stride"]))

    def test_hn_discarded_rank_column(self, tmp_path):
        # at N = 200, r = 1.3 sigma_min^2 / sigma_max^2 = 8.7e-25, under the
        # rcond = 1e-24 cutoff of the generic route; the gauge route keeps
        # every direction and reports the exact blow-up
        pytest.importorskip("mpmath")
        out = tmp_path / "hn"
        args = ["n_sites=200", "r_min=1.0", "r_max=1.3", "r_count=2", "rcond=1e-24"]
        assert run_cli(["hn", "--out", str(out)] + [x for a in args for x in ("--set", a)]) == 0
        rows = list(csv.DictReader(open(out / "report.csv")))
        assert [row["r"] for row in rows] == ["1", "1.3"]
        assert [row["discarded_rank"] for row in rows] == ["0", "0"]
        v_max, _ = hatano_nelson_mp_reference(200, 1.0, 1.3)
        assert float(rows[1]["v_max_tot"]) == pytest.approx(v_max, rel=1e-12)

    def test_aah_small(self, tmp_path):
        out = tmp_path / "aah"
        code = run_cli(
            [
                "aah",
                "--out",
                str(out),
                "--set",
                "n_sites=20",
                "--set",
                "omega_count=4",
                "--set",
                "truncation=2",
            ]
        )
        assert code == 0
        rows = list(csv.reader(open(out / "dos_grid.csv")))
        assert rows[0][0] == "x"
        assert len(rows) == 101  # 100 bins at the default bin width
        dx = 0.01
        for col in range(1, len(rows[0])):
            total = sum(float(r[col]) for r in rows[1:]) * dx
            assert abs(total - 1.0) < 1e-12

    def test_aah_undriven_ipr_frequency_independent(self, tmp_path):
        out = tmp_path / "aah0"
        code = run_cli(
            [
                "aah",
                "--out",
                str(out),
                "--set",
                "n_sites=20",
                "--set",
                "omega_count=3",
                "--set",
                "truncation=2",
                "--set",
                "amplitude=0.0",
            ]
        )
        assert code == 0
        ipr = json.loads((out / "report.json").read_text())["columns"]["ipr_mean"]
        assert max(ipr) - min(ipr) <= 1e-8  # undriven replicas

    def test_ssh_run_passes_checks(self, tmp_path):
        out = tmp_path / "ssh"
        code = run_cli(["ssh", "--out", str(out), "--set", "n_cells=10"])
        assert code == 0
        meta = json.loads((out / "report.json").read_text())["metadata"]
        assert meta["all_checks_pass"] is True
        for variant in ("topological", "trivial", "domain_wall"):
            assert (out / f"profile_{variant}.csv").exists()
        # the domain-wall mode is an exact kernel, dropped by the cutoff
        rows = list(csv.DictReader(open(out / "report.csv")))
        assert [row["discarded_rank"] for row in rows] == ["0", "0", "1"]
        assert "near_null_peak_used" not in meta

    def test_bbh_run_passes_checks(self, tmp_path):
        out = tmp_path / "bbh"
        code = run_cli(["bbh", "--out", str(out), "--set", "n_x=4", "--set", "n_y=4"])
        assert code == 0
        meta = json.loads((out / "report.json").read_text())["metadata"]
        assert meta["all_checks_pass"] is True
        assert (out / "landscape_grid.csv").exists()
        rows = list(csv.DictReader(open(out / "report.csv")))
        assert [row["discarded_rank"] for row in rows] == ["0"]

    def test_bbh_corner_midgap_weight_is_basis_free(self, tmp_path):
        # the four corner cells hold equal shares of the midgap projector,
        # whatever basis the solver picks inside the degenerate pairs
        assert run_cli(["bbh", "--out", str(tmp_path)]) == 0
        meta = json.loads((tmp_path / "report.json").read_text())["metadata"]
        weights = meta["corner_midgap_weight"]
        assert len(weights) == 4 and "mode_argmax_coords" not in meta
        assert max(weights) - min(weights) <= 1e-12
        assert min(weights) > 0.5
        assert all(type(c) is int for c in meta["landscape_argmax_coords"])

    def test_bounds_models(self, tmp_path):
        for model in ("hermitian_pd", "hn", "diag"):
            out = tmp_path / f"bounds_{model}"
            args = ["bounds", "--out", str(out), "--set", f"model={model}", "--seed", "11"]
            if model == "hn":
                args += ["--set", "n_sites=40", "--set", "rcond=1e-30"]
            assert run_cli(args) == 0
            meta = json.loads((out / "report.json").read_text())["metadata"]
            for name, result in meta["results"].items():
                assert result["passed"] is not False, (model, name, result)

    @pytest.mark.parametrize(
        "args",
        [
            ["model=hn", "n_sites=41"],
            ["model=hn", "r=0.5"],
            ["model=diag", "epsilon=1e-7"],
            ["model=diag", "epsilon=0"],
        ],
    )
    def test_bounds_cutoff_leaves_eigenmode_bound_inapplicable(self, args, tmp_path):
        # the cutoff discards a direction of H (an odd chain is singular), so
        # the bound, read off every direction, is reported as not applicable
        out_args = ["bounds", "--out", str(tmp_path)]
        assert run_cli(out_args + [x for a in args for x in ("--set", a)]) == 0
        results = json.loads((tmp_path / "report.json").read_text())["metadata"]["results"]
        assert results["eigenmode_bound"] == {"passed": None, "value": None}
        # at sigma_min = 0 the norm-bound chain has no upper end
        chain = results["norm_bound_chain"]["passed"]
        assert chain is None if "epsilon=0" in args else chain is True

    def test_workers_flag_accepted_and_ignored(self, tmp_path):
        serial = tmp_path / "serial"
        ignored = tmp_path / "ignored"
        base = ["--set", "n_sites=24", "--set", "r_count=6"]
        assert run_cli(["hn", "--out", str(serial)] + base) == 0
        assert run_cli(["hn", "--out", str(ignored), "--workers", "2"] + base) == 0
        assert (serial / "report.csv").read_bytes() == (ignored / "report.csv").read_bytes()

    def test_cli_imports_no_process_pool(self):
        # grids run serially, so the CLI never pays for importing a pool
        code = (
            "import sys, locland.cli; "
            "print([m for m in sys.modules if m.startswith(('multiprocessing', 'concurrent'))])"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        assert out.stdout.strip() == "[]"

    def test_manifest_contents(self, tmp_path):
        out = tmp_path / "m"
        assert run_cli(["hn", "--out", str(out), "--set", "n_sites=24", "--set", "r_count=3"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["experiment"] == "hn"
        assert manifest["params"]["n_sites"] == 24
        assert "numpy" in manifest["versions"]
        assert manifest["wall_time_s"] > 0.0
        assert "report.csv" in manifest["outputs"]
        assert manifest["host"] == {
            "cpu_count": os.cpu_count(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        }
        assert manifest["peak_rss_mib"] > 0.0


class TestOneFactorization:
    """Each operator is factorized once; every observable reads that factorization."""

    @staticmethod
    def record_factorizations(monkeypatch, describe) -> list:
        """describe(routine, input matrix) of every numpy.linalg factorization call."""
        seen = []
        for name in ("svd", "eigh", "eigvalsh", "eig"):

            def counted(matrix, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
                seen.append(describe(_name, np.asarray(matrix)))
                return _original(matrix, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        return seen

    @pytest.fixture
    def calls(self, monkeypatch):
        """(routine, input dtype) of every numpy.linalg factorization call."""
        return self.record_factorizations(monkeypatch, lambda name, matrix: (name, matrix.dtype))

    @staticmethod
    def default_params(experiment):
        return {key: entry.default for key, entry in SCHEMAS[experiment].items()}

    @classmethod
    def default_config(cls, experiment, out_dir):
        return RunConfig(experiment=experiment, params=cls.default_params(experiment), out_dir=out_dir)

    def test_ssh_one_per_variant(self, calls, tmp_path):
        run_ssh(self.default_config("ssh", tmp_path))
        assert calls == [("eigh", np.float64)] * 3

    def test_bbh_one(self, calls, tmp_path):
        run_bbh(self.default_config("bbh", tmp_path))
        assert calls == [("eigh", np.float64)]

    def test_hn_point_one_eigh(self, calls):
        # eigh of the gauge partner T, then the largest eigenvalue of
        # (H^dag H)^-1 for sigma_min; no SVD and no general eigensolver
        point = _hn_point(1.3, {**self.default_params("hn"), "n_sites": 200})
        assert calls == [("eigh", np.float64), ("eigvalsh", np.float64)]
        assert point["discarded_rank"] == 0

    def test_hn_odd_point_svd_and_eig(self, calls):
        # an odd chain carries no gauge: the SVD of H for the landscape, then
        # one general eigensolve for the right-eigenstate density
        point = _hn_point(1.3, {**self.default_params("hn"), "n_sites": 41})
        assert calls == [("svd", np.float64), ("eig", np.float64)]
        assert point["discarded_rank"] == 1

    def test_aah_point_one_eigh(self, calls):
        _aah_point(2.5, {**self.default_params("aah"), "n_sites": 8, "truncation": 1})
        assert calls == [("eigh", np.float64)]


class TestHalfSizeLift:
    """A two-level lift is factorized by one eigh of half its size; other lifts keep a full one."""

    @pytest.fixture
    def shapes(self, monkeypatch):
        """(routine, input dtype, input shape) of every numpy.linalg factorization call."""
        return TestOneFactorization.record_factorizations(
            monkeypatch, lambda name, matrix: (name, matrix.dtype, matrix.shape)
        )

    def test_cdt_mono_point(self, shapes):
        # M = 6: d = 2 x 13 = 26
        _cdt_mono_point(2.4, TestOneFactorization.default_params("cdt-mono"))
        assert shapes == [("eigh", np.float64, (13, 13))]

    def test_cdt_duo_point(self, shapes):
        # M1 = M2 = 6: d = 2 x 13 x 13 = 338
        _cdt_duo_point((2.5, 8.0), TestOneFactorization.default_params("cdt-duo"))
        assert shapes == [("eigh", np.float64, (169, 169))]

    def test_aah_point(self, shapes):
        # N = 80, M = 6: d = 80 x 13 = 1040
        _aah_point(2.5, TestOneFactorization.default_params("aah"))
        assert shapes == [("eigh", np.float64, (1040, 1040))]


class TestStackedSweep:
    """A two-level sweep is solved in stacks inside the entry budget, each point as on its own."""

    def test_cdt_mono_sweep_is_its_points(self, monkeypatch):
        # M = 8: d = 2 x 17 = 34, so 28 lifts per stack and 18 stacked eigh calls
        p = {**TestOneFactorization.default_params("cdt-mono"), "truncation": 8}
        us = np.linspace(0.0, 10.0, 500)
        lifts = []

        def recorded(*args):
            lifted = build_sambe(*args)
            lifts.append(lifted.matrix.entries.shape)
            return lifted

        monkeypatch.setattr(experiments, "build_sambe", recorded)
        shapes = TestOneFactorization.record_factorizations(
            monkeypatch, lambda name, matrix: (name, matrix.shape)
        )
        table = _cdt_mono_point(us, p)
        chunk = experiments._STACK_ENTRIES // 34**2
        assert len(shapes) == math.ceil(us.size / chunk) == 18
        assert {name for name, _ in shapes} == {"eigh"}
        assert sum(shape[0] for _, shape in shapes) == us.size
        assert all(math.prod(shape) <= experiments._STACK_ENTRIES for shape in lifts)
        assert all(math.prod(shape) <= experiments._STACK_ENTRIES for _, shape in shapes)
        monkeypatch.undo()
        for k, u in enumerate(us):
            point = _cdt_mono_point(u, p)
            assert {name: table[name][k] for name in point} == point, k

    def test_cdt_duo_lifts_stay_one_per_call(self, monkeypatch):
        # d = 338 exceeds the budget on its own, so each point is its own half-size eigh
        shapes = TestOneFactorization.record_factorizations(
            monkeypatch, lambda name, matrix: (name, matrix.shape)
        )
        _cdt_duo_point((np.array([0.5, 2.5, 8.0]), np.array([1.0, 8.0, 0.0])),
                       TestOneFactorization.default_params("cdt-duo"))
        assert shapes == [("eigh", (1, 169, 169))] * 3


class TestSweepTable:
    """Each report row of a swept run is its point function at that row's axis value."""

    @pytest.mark.parametrize(
        "experiment, point, small",
        [
            ("hn", _hn_point, {"n_sites": 24, "r_count": 4}),
            ("cdt-mono", _cdt_mono_point, {"amp_count": 5, "amp_max": 3.0, "truncation": 2}),
            ("aah", _aah_point, {"n_sites": 8, "omega_count": 3, "truncation": 1}),
        ],
    )
    def test_columns_are_point_values(self, experiment, point, small, tmp_path):
        config = TestOneFactorization.default_config(experiment, tmp_path)
        config.params.update(small)
        report = RUNNERS[experiment](config)
        (axis,) = report.axes.values()
        for row, x in enumerate(axis):
            values = point(x, config.params)
            values["log10_vmax"] = np.log10(values["v_max_tot"])
            # quasienergy_gap comes from the monodromy sweep, not the landscape
            assert set(report.columns) - set(values) <= {"quasienergy_gap"}
            for name, column in report.columns.items():
                if name in values:
                    assert column[row] == values[name], (name, row)


class TestOneRk4Pass:
    """The min_PL grid and the four marked cdt-duo trajectories take one RK4 pass each."""

    def test_cdt_duo_two_passes(self, monkeypatch, tmp_path):
        blocks = []  # (rows, steps) of every block of step maps, in call order
        step_maps = dynamics._step_maps

        def counted(t, h, j_coupling, amps, freqs):
            blocks.append((amps.shape[0], len(t)))
            return step_maps(t, h, j_coupling, amps, freqs)

        monkeypatch.setattr(dynamics, "_step_maps", counted)
        config = TestOneFactorization.default_config("cdt-duo", tmp_path)
        config.params.update(a_count=3, b_count=2, truncation1=1, truncation2=1, n_periods=1)
        run_cdt_duo(config)
        p = config.params
        dt = 2.0 * math.pi / (max(1.0, p["omega2_ratio"]) * p["omega1"]) / p["steps_per_period"]
        n_steps = math.ceil(p["n_periods"] * 2.0 * math.pi / p["omega1"] / dt)
        passes = [(rows, sum(n for _, n in run)) for rows, run in groupby(blocks, key=itemgetter(0))]
        assert passes == [(6, n_steps), (4, n_steps)]

    def test_cdt_duo_grid_and_trajectories_share_time_span(self, monkeypatch, tmp_path):
        spans = {}  # (t_end, dt) each RK4 entry point was called with

        def recorded(fn):
            def call(drive, psi0, t_end, dt, **kwargs):
                spans[fn.__name__] = (t_end, dt)
                return fn(drive, psi0, t_end, dt, **kwargs)

            return call

        for fn in (min_left_population_grid, propagate):
            monkeypatch.setattr(experiments, fn.__name__, recorded(fn))
        config = TestOneFactorization.default_config("cdt-duo", tmp_path)
        config.params.update(a_count=2, b_count=2, truncation1=1, truncation2=1, n_periods=2)
        run_cdt_duo(config)
        assert spans.keys() == {"min_left_population_grid", "propagate"}
        assert spans["min_left_population_grid"] == spans["propagate"]
