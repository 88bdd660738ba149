"""Experiment drivers and command-line behavior."""

import json

import numpy as np
import pytest

from nspbox.cli import main
from nspbox.config import parse_config
from nspbox.experiments import (
    experiment_check_lemmas,
    experiment_linear,
    experiment_nonlinear,
    experiment_perturb,
    experiment_refine,
)

FAST_NONLINEAR = "\n".join(
    [
        "grid.M = 16",
        "stepper.dt = 1e-3",
        "stepper.t_end = 0.02",
        "init.band_hi = 1",
        "monitor.stride = 5",
    ]
)


class TestDrivers:
    def test_nonlinear_passes_assertions(self, tmp_path):
        cfg = parse_config(FAST_NONLINEAR)
        result = experiment_nonlinear(cfg, tmp_path, do_assert=True)
        assert result.exit_code == 0
        assert (tmp_path / "records.ndjson").exists()
        assert (tmp_path / "records.ndjson.csv").exists()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["experiment"] == "nonlinear"
        assert summary["assertions"]["mass_conservation"] is True

    def test_bound_key_is_the_threshold(self, tmp_path):
        # E(0) / E(0) = 1 at the first sample, so a bound below 1 must fail
        cfg = parse_config(FAST_NONLINEAR + "\nenergy.bound = 0.5\n")
        result = experiment_nonlinear(cfg, tmp_path, do_assert=True)
        assert result.exit_code == 1
        assert result.summary["bound_ratio"] == 0.5
        assert result.summary["max_e_ratio"] >= 1.0
        assert result.summary["assertions"]["global_bound"] is False

    def test_linear_margins_on_single_mode(self, tmp_path):
        text = "\n".join(
            [
                "grid.M = 16",
                "stepper.dt = 1e-3",
                "stepper.t_end = 0.1",
                "init.kind = single-mode",
                "monitor.stride = 10",
            ]
        )
        result = experiment_linear(parse_config(text), tmp_path, do_assert=True)
        assert result.exit_code == 0
        assert result.summary["c_fit"] > 0.0
        assert result.summary["max_margin"] <= 1e-8

    def test_linear_reports_convection_gauge(self, tmp_path):
        text = "\n".join(
            [
                "grid.M = 16",
                "stepper.dt = 1e-3",
                "stepper.t_end = 0.05",
                "init.kind = single-mode",
                "energy.K = 2.0",
            ]
        )
        result = experiment_linear(parse_config(text), tmp_path, do_assert=True)
        assert result.exit_code == 0
        assert result.summary["k_weight"] == 2.0
        max_e = max(
            r["E"] for r in map(json.loads, (tmp_path / "records.ndjson").read_text().splitlines())
        )
        assert 0.0 < result.summary["max_weighted_e"] <= max_e

    def test_perturb_zero_delta_is_bitwise_zero(self, tmp_path):
        cfg = parse_config(FAST_NONLINEAR + "\nperturb.delta = 0")
        result = experiment_perturb(cfg, tmp_path, do_assert=True)
        assert result.exit_code == 0
        rows = [json.loads(line) for line in (tmp_path / "difference.ndjson").read_text().splitlines()]
        assert all(row["diff_e"] == 0.0 for row in rows)

    def test_perturb_small_delta_stays_linear(self, tmp_path):
        cfg = parse_config(FAST_NONLINEAR + "\nperturb.delta = 1e-8")
        result = experiment_perturb(cfg, tmp_path, do_assert=True)
        assert result.exit_code == 0
        assert 0.0 < result.summary["max_normalized"] < 10.0

    def test_refine_covering_projector_gives_zero_distance(self, tmp_path):
        text = "\n".join(
            [
                "grid.N = 2",
                "grid.M = 16",
                "stepper.dt = 1e-3",
                "stepper.t_end = 0.01",
                "stepper.n = 16",  # already covers the lattice, as does 2n
                "init.kind = smooth-random",
                "init.amplitude = 1e-3",
            ]
        )
        result = experiment_refine(parse_config(text), tmp_path, do_assert=True)
        assert result.exit_code == 0
        assert result.summary["max_dist_u"] == 0.0
        assert result.summary["max_dist_h"] == 0.0

    def test_refine_truncation_distance_decreases(self, tmp_path):
        base = [
            "grid.N = 2",
            "grid.M = 16",
            "stepper.dt = 2e-3",
            "stepper.t_end = 0.05",
            "init.kind = smooth-random",
            "init.amplitude = 5e-3",
        ]
        dists = []
        for n in (2.0, 4.0):
            cfg = parse_config("\n".join(base + [f"stepper.n = {n}"]))
            result = experiment_refine(cfg, tmp_path / f"n{n}", do_assert=True)
            dists.append(result.summary["max_dist_u"])
        assert dists[1] < dists[0]

    def test_guard_flag_appears_mid_run(self, tmp_path):
        # large density contrast: the clamp activates once stepping begins
        text = "\n".join(
            [
                "grid.M = 16",
                "stepper.dt = 1e-3",
                "stepper.t_end = 0.005",
                "init.kind = single-mode",
                "init.amplitude = 0.6",
                "monitor.stride = 1",
            ]
        )
        result = experiment_nonlinear(parse_config(text), tmp_path, do_assert=False)
        assert result.summary["guard_ever_active"] is True
        assert result.summary["min_density"] > 0.0
        rows = [
            json.loads(line) for line in (tmp_path / "records.ndjson").read_text().splitlines()
        ]
        assert rows[0]["guarded"] is False  # initial sample precedes any evaluation
        assert rows[-1]["guarded"] is True

    def test_positivity_lost_mid_run_is_recorded_and_fails(self, tmp_path, monkeypatch, capsys):
        # the RHS diagnostics report a negative density from call 5 on, the first stage
        # of step 3; samples follow every step, so sample 3 is the first to see it
        from nspbox import model

        plain_rhs = model.explicit_rhs
        calls = []

        def rhs(*args, **kwargs):
            tend, diag = plain_rhs(*args, **kwargs)
            calls.append(1)
            if len(calls) >= 5:
                diag.min_density = -0.1
            return tend, diag

        monkeypatch.setattr(model, "explicit_rhs", rhs)
        text = "\n".join(
            ["grid.M = 16", "stepper.dt = 1e-3", "stepper.t_end = 0.006", "init.band_hi = 1", "monitor.stride = 1"]
        )
        result = experiment_nonlinear(parse_config(text), tmp_path, do_assert=True)
        assert result.exit_code == 1
        rows = [json.loads(line) for line in (tmp_path / "records.ndjson").read_text().splitlines()]
        assert [row["positivity"] for row in rows] == [True] * 3 + [False] * 4
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["min_density"] == -0.1
        assert summary["assertions"] == {
            "mass_conservation": True,
            "density_positive": False,
            "v_nondecreasing": True,
            "global_bound": True,
        }
        # the assertions line is printed with the results, before the failures
        assert capsys.readouterr().out.splitlines() == [
            "nonlinear: assertions (enforced): mass_conservation, density_positive, v_nondecreasing, global_bound",
            "FAIL nonlinear:density_positive: min density -1.000e-01",
        ]

    @pytest.mark.parametrize("field", ["h", "c", "I"])
    def test_mean_drift_fails_the_mass_check(self, tmp_path, monkeypatch, field):
        # a final h, c or I with a zero mode of 1e-9: the conserved means have drifted
        from nspbox import experiments

        plain = experiments._monitored_run

        def drifted(*args, **kwargs):
            monitor, traj = plain(*args, **kwargs)
            getattr(traj.final_state, field).zero_mode()[0] = 1e-9
            return monitor, traj

        monkeypatch.setattr(experiments, "_monitored_run", drifted)
        result = experiment_nonlinear(parse_config(FAST_NONLINEAR), tmp_path, do_assert=True)
        assert result.exit_code == 1
        assert result.summary["mass_defect"] == 1e-9
        assert result.summary["assertions"]["mass_conservation"] is False

    def test_check_lemmas(self, tmp_path):
        cfg = parse_config("grid.M = 16")
        result = experiment_check_lemmas(cfg, tmp_path, do_assert=True)
        assert result.exit_code == 0
        report = json.loads((tmp_path / "lemmas.json").read_text())
        assert report["partition_defect"] <= 1e-12
        assert report["product_ratio_max"] > 0.0
        assert report["hybrid_vs_besov"] <= 1e-12

    def test_check_lemmas_catches_a_wrong_besov_norm(self, tmp_path, monkeypatch):
        from nspbox import lp

        plain = lp.besov_norm
        monkeypatch.setattr(lp, "besov_norm", lambda f, s: plain(f, s) * (1.0 + 1e-9))
        result = experiment_check_lemmas(parse_config("grid.M = 16"), tmp_path, do_assert=True)
        assert result.exit_code == 1
        assert result.summary["assertions"]["hybrid_equals_besov"] is False

    def test_failed_summary_write_keeps_previous_file(self, tmp_path):
        from nspbox.experiments import _finish

        _finish("demo", tmp_path, {"value": 1.0}, [], do_assert=False)
        before = (tmp_path / "summary.json").read_bytes()
        with pytest.raises(TypeError):
            _finish("demo", tmp_path, {"value": 2.0, "bad": object()}, [], do_assert=False)
        assert (tmp_path / "summary.json").read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["summary.json"]

    @pytest.mark.parametrize("driver", [experiment_nonlinear, experiment_linear])
    def test_initial_data_released_once_prepared(self, driver, tmp_path, monkeypatch):
        # `prepare` projects the initial data into a fresh stack, so no frame of a monitored
        # run keeps them through its steps
        import gc
        import weakref

        from nspbox import experiments, stepper

        made, alive = [], []
        plain_make, plain_step = experiments.make_initial_data, stepper.FriedrichsStepper.step

        def make(cfg):
            s0 = plain_make(cfg)
            made.append(weakref.ref(s0))
            return s0

        def step(self, s):
            gc.collect()
            alive.append(made[0]() is not None)
            return plain_step(self, s)

        monkeypatch.setattr(experiments, "make_initial_data", make)
        monkeypatch.setattr(stepper.FriedrichsStepper, "step", step)
        assert driver(parse_config(FAST_NONLINEAR), tmp_path).exit_code == 0
        assert len(made) == 1 and alive and not any(alive)


class TestCli:
    def test_run_ok(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(FAST_NONLINEAR)
        assert main(["run", "--config", str(cfg), "--assert", "--out", str(tmp_path / "out")]) == 0

    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.txt")]) == 2

    def test_invalid_config_is_config_error(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("params.mu = -2\n")
        assert main(["run", "--config", str(cfg)]) == 2

    def test_infinite_end_time_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("grid.M = 16\nstepper.t_end = inf\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: line 2: invalid value for stepper.t_end") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "refine", "perturb"])
    def test_numerical_abort_exit_code(self, tmp_path, monkeypatch, capsys, command):
        # initial data poisoned with NaN: the stepper's health check ends the run before any
        # norm or distance of the state is formed
        from nspbox import experiments

        plain = experiments.make_initial_data

        def poisoned(cfg):
            state = plain(cfg)
            state.h.coef[0, 1, 0, 0] = np.nan
            return state

        monkeypatch.setattr(experiments, "make_initial_data", poisoned)
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text("grid.M = 16\nstepper.dt = 1e-3\nstepper.t_end = 0.01\ninit.band_hi = 1\n")
        assert main([command, "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical abort: non-finite coefficients") and "Traceback" not in err

    def test_unwritable_output_dir_is_io_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(FAST_NONLINEAR)
        (tmp_path / "plain").write_text("a regular file, not a directory")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "plain" / "out")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("io error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_records_are_bitwise_deterministic(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(FAST_NONLINEAR)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "records.ndjson").read_bytes() == (out2 / "records.ndjson").read_bytes()

    @pytest.mark.parametrize("command", ["run", "linear", "refine", "perturb", "check-lemmas"])
    def test_one_assertions_line_names_the_summary_assertions(self, tmp_path, capsys, command):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(FAST_NONLINEAR)
        out = tmp_path / "out"
        main([command, "--config", str(cfg), "--out", str(out)])
        lines = [line for line in capsys.readouterr().out.splitlines() if ": assertions (reported): " in line]
        assert len(lines) == 1
        listed = lines[0].split(": assertions (reported): ")[1]
        labels = listed.split(", ") if listed else []
        assert labels == list(json.loads((out / "summary.json").read_text())["assertions"])

    def test_default_config_check_lemmas_on_small_grid(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("grid.M = 16\n")
        assert main(["check-lemmas", "--config", str(cfg), "--assert", "--out", str(tmp_path / "o")]) == 0
