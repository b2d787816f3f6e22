"""Command line front end: config validation, file outputs, exit codes."""

import copy
import dataclasses
import json
import math
import random
import subprocess
import sys
import warnings

import numpy as np
import pytest
from conftest import counted, trajectory_text_oracle
from test_golden import STARTS

from nhmech import cli
from nhmech import diagnostics as dg
from nhmech import models as md
from nhmech import problem as pb
from nhmech import solver as sv
from nhmech.errors import ConfigError, SingularError

BALL_CONFIG = {
    "system": {
        "name": "rolling_ball",
        "params": {"m": 1.0, "r": 1.0, "I": 0.4, "Omega": 1.0, "h": 0.01},
    },
    "initial": {"xy0": [0.99, 1.0], "xy1": [1.0, 0.99], "spin": 0.0},
    "steps": 5,
    "solver": {"tol_residual": 1e-10, "max_iters": 50},
    "outputs": {"trajectory": "ball.csv", "summary": "ball_summary.json", "format": "csv"},
    "momentum": {"specs": ["spin"], "tolerance": 1e-9},
    "check": {"samples": 4, "seed": 0, "trajectory_steps": 10},
}

PARTICLE_INITIAL = {"q0": [0.2, -0.4, 0.1], "q1": [0.25, -0.35, 0.08125]}
DEGENERATE_POINT = {"q0": [0.0, -3.0, 0.0], "q1": [1.0, 1.0, -1.0]}


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfigParsing:
    def test_parse_does_not_alias_the_input(self):
        data = copy.deepcopy(BALL_CONFIG)
        data["system"] = {"name": "suslov", "params": {"J": [[1, 0, 0], [0, 2, 0], [0, 0, 3]]}}
        data["check"]["points"] = [copy.deepcopy(BALL_CONFIG["initial"])]
        cfg = cli.parse_config(data)
        before = copy.deepcopy(cfg)
        data["initial"]["spin"] = 1.0
        data["check"]["points"][0]["spin"] = 1.0
        data["momentum"]["specs"].append("plane")
        data["system"]["params"]["J"][0][0] = 5
        assert cfg == before

    def test_parse_fills_every_default(self):
        assert cli.parse_config({"system": {"name": "suslov"}}) == {
            "system": {"name": "suslov", "params": {}},
            "initial": None,
            "steps": None,
            "solver": {},
            "outputs": {"format": "csv", "trajectory": "trajectory.csv",
                        "summary": "summary.json"},
            "momentum": {"tolerance": 1e-9},
            "check": {"samples": 8, "seed": 0, "trajectory_steps": 25, "points": []},
        }
        json_format = {"system": {"name": "suslov"}, "outputs": {"format": "json"}}
        assert cli.parse_config(json_format)["outputs"] == {
            "format": "json", "trajectory": "trajectory.json", "summary": "summary.json"
        }

    def test_parse_keeps_given_values_and_is_idempotent(self):
        cfg = cli.parse_config(BALL_CONFIG)
        assert cfg == dict(BALL_CONFIG, check=dict(BALL_CONFIG["check"], points=[]))
        assert cli.parse_config(cfg) == cfg

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.__setitem__("bogus", 1),
            lambda d: d["system"].__setitem__("extra", 1),
            lambda d: d["solver"].__setitem__("tol", 1e-8),
            lambda d: d["outputs"].__setitem__("plot", "x.png"),
            lambda d: d["momentum"].__setitem__("mode", "fast"),
            lambda d: d["check"].__setitem__("grid", 10),
            lambda d: d["system"]["params"].__setitem__("mass", 1.0),
            lambda d: d["solver"].__setitem__("max_backtracks", 30),
        ],
    )
    def test_unknown_keys_rejected(self, mutate):
        data = copy.deepcopy(BALL_CONFIG)
        mutate(data)
        with pytest.raises(ConfigError, match="unknown"):
            cli.parse_config(data)

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda d: d.__setitem__("steps", -1), "steps"),
            (lambda d: d.__setitem__("steps", True), "steps"),
            (lambda d: d["system"].__setitem__("name", "rattleback"), "system.name"),
            (lambda d: d["solver"].__setitem__("tol_residual", 0.0), "positive"),
            (lambda d: d["solver"].__setitem__("tol_residual", float("inf")), "finite"),
            (lambda d: d["solver"].__setitem__("max_iters", 0), "max_iters"),
            (lambda d: d["outputs"].__setitem__("format", "xml"), "format"),
            (lambda d: d["momentum"].__setitem__("specs", "spin"), "list"),
            (lambda d: d["momentum"].__setitem__("specs", ["spin", "spin"]), "more than once"),
            (lambda d: d["check"].__setitem__("points", {"q0": [0, 0, 0]}), "points"),
            (lambda d: d["check"].__setitem__("seed", -1), "check.seed"),
            (lambda d: d.__setitem__("initial", [1, 2]), "initial"),
        ],
    )
    def test_bad_values_rejected(self, mutate, match):
        data = copy.deepcopy(BALL_CONFIG)
        mutate(data)
        with pytest.raises(ConfigError, match=match):
            cli.parse_config(data)

    def test_invalid_json_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            cli.load_config(str(path))
        code, _, err = run_cli(["simulate", "--config", str(path)], capsys)
        assert code == cli.EXIT_CONFIG
        assert "config error" in err

    @pytest.mark.parametrize("content, match", [
        (b"\xff\xfe{}", "not valid JSON: 'utf-8' codec can't decode"),
        (b'{"steps": ' + b"1" * 5000 + b"}", "not valid JSON: Exceeds the limit"),
    ], ids=["not_utf8", "integer_too_long"])
    def test_undecodable_config_is_a_config_error(self, tmp_path, capsys, content, match):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(ConfigError, match=match):
            cli.load_config(str(path))
        code, out, err = run_cli(["simulate", "--config", str(path), "--out", str(tmp_path)],
                                 capsys)
        assert code == cli.EXIT_CONFIG
        assert out == "" and err.startswith("config error") and "Traceback" not in err


class TestSimulate:
    def test_row_count_and_header(self, tmp_path, capsys):
        path = write_config(tmp_path, BALL_CONFIG)
        code, out, _ = run_cli(["simulate", "--config", path, "--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_OK
        lines = (tmp_path / "ball.csv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + BALL_CONFIG["steps"] + 1
        header = lines[0].split(",")
        assert header[0] == "step"
        assert header[1:14] == md.make_rolling_ball().coord_names
        assert header[14:] == ["iterations", "residual_norm", "cond_estimate", "lambda_1", "lambda_2"]
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[14:] == [""] * 5
        second = lines[2].split(",")
        assert all(cell for cell in second)

    def test_summary_record(self, tmp_path, capsys):
        path = write_config(tmp_path, BALL_CONFIG)
        _, out, _ = run_cli(["simulate", "--config", path, "--out", str(tmp_path)], capsys)
        record = json.loads(out)
        assert record["system"] == "rolling_ball"
        assert record["steps"] == 5
        assert record["max_constraint_violation"] < 1e-12
        assert record["max_momentum_drift"] < 1e-10
        assert set(record["final_state"]) == set(md.make_rolling_ball().coord_names)
        on_disk = json.loads((tmp_path / "ball_summary.json").read_text(encoding="utf-8"))
        assert on_disk == record

    def test_zero_steps_single_row(self, tmp_path, capsys):
        data = copy.deepcopy(BALL_CONFIG)
        data["steps"] = 0
        path = write_config(tmp_path, data)
        code, out, _ = run_cli(["simulate", "--config", path, "--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_OK
        lines = (tmp_path / "ball.csv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        row = lines[1].split(",")
        assert float(row[1]) == 0.99 and float(row[2]) == 1.0
        assert float(row[3]) == 1.0 and float(row[4]) == 0.99
        record = json.loads(out)
        assert record["steps"] == 0
        assert "max_iterations" not in record

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        path = write_config(tmp_path, BALL_CONFIG)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_cli(["simulate", "--config", path, "--out", str(out_a)], capsys)
        run_cli(["simulate", "--config", path, "--out", str(out_b)], capsys)
        assert (out_a / "ball.csv").read_bytes() == (out_b / "ball.csv").read_bytes()
        assert (out_a / "ball_summary.json").read_bytes() == (out_b / "ball_summary.json").read_bytes()

    def test_csv_cells_roundtrip_exactly(self, tmp_path, capsys):
        path = write_config(tmp_path, BALL_CONFIG)
        run_cli(["simulate", "--config", path, "--out", str(tmp_path)], capsys)
        problem = md.make_rolling_ball(**BALL_CONFIG["system"]["params"])
        g0 = problem.initial_builder(BALL_CONFIG["initial"])
        traj = sv.evolve(problem, g0, 5, sv.SolverOptions(tol_residual=1e-10))
        lines = (tmp_path / "ball.csv").read_text(encoding="utf-8").splitlines()
        for idx, g in enumerate(traj.elements):
            cells = lines[1 + idx].split(",")
            parsed = np.array([float(c) for c in cells[1:14]])
            assert np.array_equal(parsed, np.asarray(problem.to_row(g), dtype=float))

    def test_json_trajectory_format(self, tmp_path, capsys):
        data = copy.deepcopy(BALL_CONFIG)
        data["outputs"] = {"trajectory": "ball.json", "format": "json"}
        path = write_config(tmp_path, data)
        code, _, _ = run_cli(["simulate", "--config", path, "--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_OK
        table = json.loads((tmp_path / "ball.json").read_text(encoding="utf-8"))
        assert len(table["rows"]) == 6
        assert len(table["columns"]) == 19
        assert table["rows"][0][14:] == [None] * 5
        assert isinstance(table["rows"][1][14], int)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "name, steps",
        [("rolling_ball", 0), ("rolling_ball", 200), ("suslov", 200), ("chaplygin_sleigh", 200)]
        + [(name, 3) for name in sorted(STARTS) if name != "rolling_ball"],
    )
    def test_text_equals_the_cell_by_cell_oracle(self, name, steps, fmt):
        # the ball rows are those of the README config
        p = md.FACTORIES[name]()
        traj = sv.evolve(p, p.initial_builder(STARTS[name]), steps)
        text = cli._table_text(*cli.trajectory_table(p, traj), fmt)
        assert text == trajectory_text_oracle(p, traj, fmt)

    def test_lf_line_endings(self, tmp_path, capsys):
        path = write_config(tmp_path, BALL_CONFIG)
        run_cli(["simulate", "--config", path, "--out", str(tmp_path)], capsys)
        raw = (tmp_path / "ball.csv").read_bytes()
        assert b"\r" not in raw

    def test_out_dir_is_created(self, tmp_path, capsys):
        path = write_config(tmp_path, BALL_CONFIG)
        nested = tmp_path / "deep" / "er"
        code, _, _ = run_cli(["simulate", "--config", path, "--out", str(nested)], capsys)
        assert code == cli.EXIT_OK
        assert (nested / "ball.csv").exists()

    def test_verbose_goes_to_stderr(self, tmp_path, capsys):
        path = write_config(tmp_path, BALL_CONFIG)
        code, out, err = run_cli(
            ["simulate", "--config", path, "--out", str(tmp_path), "--verbose"], capsys
        )
        assert code == cli.EXIT_OK
        assert "rolling_ball" in err
        json.loads(out)

    @pytest.mark.parametrize(
        "command, note",
        [("check", "checked rolling_ball: reversible=False"),
         ("momentum", "momentum check on rolling_ball: max identity gap ")],
    )
    def test_verbose_notes_of_check_and_momentum(self, tmp_path, capsys, command, note):
        path = write_config(tmp_path, BALL_CONFIG)
        args = [command, "--config", path, "--out", str(tmp_path)]
        code, out, err = run_cli(args + ["--verbose"], capsys)
        assert code == cli.EXIT_OK
        assert err.startswith(note) and err.count("\n") == 1
        _, quiet_out, quiet_err = run_cli(args, capsys)
        assert quiet_err == "" and quiet_out == out


class TestExitCodes:
    def test_missing_initial_section(self, tmp_path, capsys):
        data = copy.deepcopy(BALL_CONFIG)
        del data["initial"]
        path = write_config(tmp_path, data)
        code, _, err = run_cli(["simulate", "--config", path, "--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_CONFIG
        assert "initial" in err

    def test_singular_step_reports_index(self, tmp_path, capsys):
        data = {
            "system": {"name": "constrained_particle"},
            "initial": DEGENERATE_POINT,
            "steps": 3,
        }
        path = write_config(tmp_path, data)
        code, _, err = run_cli(["simulate", "--config", path, "--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_SOLVER
        assert "at step 0" in err

    def test_overflowing_roundoff_floor_exits_3_without_a_warning(self, tmp_path, capsys):
        # the floor eps |J| |g| overflows to inf; the Newton matrix then
        # fails its condition limit at step 0
        data = {"system": {"name": "chaplygin_sleigh"}, "initial": {"xi": [1, 1.7e308]},
                "steps": 3}
        path = write_config(tmp_path, data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["simulate", "--config", path, "--out", str(tmp_path)],
                                     capsys)
        assert code == cli.EXIT_SOLVER
        assert out == "" and err.startswith("solver failure at step 0: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_no_convergence_reports_index(self, tmp_path, capsys):
        data = {
            "system": {"name": "chaplygin_sleigh"},
            "initial": {"xi": [0.7, 0.9]},
            "steps": 3,
            "solver": {"max_iters": 1},
        }
        path = write_config(tmp_path, data)
        code, _, err = run_cli(["simulate", "--config", path, "--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_SOLVER
        assert "at step 0" in err

    @pytest.mark.parametrize(
        "system, params, initial, key",
        [
            ("rolling_ball", {}, dict(BALL_CONFIG["initial"], spin="abc"), "spin"),
            ("rolling_ball", {}, dict(BALL_CONFIG["initial"], spin=[1, 2]), "spin"),
            ("mobile_robot", {}, {"wheels0": [0.3, -0.2], "dphi": "x", "dpsi": 0.1}, "dphi"),
            ("rolling_ball", {"m": "abc"}, BALL_CONFIG["initial"], "m"),
            ("rolling_ball", {"h": float("nan")}, BALL_CONFIG["initial"], "h"),
            ("rolling_ball", {"h": True}, BALL_CONFIG["initial"], "h"),
            ("rolling_ball", {"h": "0.01"}, BALL_CONFIG["initial"], "h"),
            ("rolling_ball", {}, dict(BALL_CONFIG["initial"], spin=True), "spin"),
            ("constrained_particle", {}, dict(PARTICLE_INITIAL, q0=["0.2", -0.4, 0.1]), "q0"),
        ],
    )
    def test_malformed_number_is_config_error(self, tmp_path, capsys, system, params, initial, key):
        data = {"system": {"name": system, "params": params}, "initial": initial, "steps": 2}
        path = write_config(tmp_path, data)
        code, _, err = run_cli(["simulate", "--config", path, "--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_CONFIG
        assert f"config error: {key}" in err

    @pytest.mark.parametrize(
        "system, params, initial, message",
        [
            ("suslov", {"J": [[1, 0, 0], [1, 2, 0], [0, 0, 3]]}, {"omega": [0.4, -0.3]},
             "J must be a symmetric 3x3 matrix"),
            ("suslov", {"J": [[1, 0], [0, 2]]}, {"omega": [0.4, -0.3]},
             "J must be a symmetric 3x3 matrix"),
            ("veselova", {"I": [[2, 0, 0], [0, -3, 0], [0, 0, 4]]},
             {"gamma": [0, 0, 1], "omega": [1, 0, 0]}, "I must be positive definite"),
            ("constrained_particle", {}, {"q1": [0, 0, 0]}, "needs q0"),
            ("constrained_particle", {}, {"q0": [0, 0, 0]}, "needs q1 or velocity"),
            ("suslov", {}, {}, "needs omega"),
            ("chaplygin_sleigh", {}, {}, "needs xi"),
            ("veselova", {}, {"gamma": [0, 0, 1]}, "needs gamma and omega"),
            ("veselova", {}, {"gamma": [0, 0, 0], "omega": [1, 0, 0]}, "gamma must be nonzero"),
            ("rolling_ball", {}, {"xy0": [0, 0]}, "needs xy0 and xy1"),
            ("rolling_ball", {}, {"xy0": [0, 0], "xy1": [1.5, 0]}, "xy0 to xy1 is too large"),
            ("mobile_robot", {}, {"dphi": 0.1, "dpsi": 0.1}, "needs wheels0"),
            ("mobile_robot", {}, {"wheels0": [0, 0], "dphi": 0.1}, "needs wheels1 or dphi/dpsi"),
            ("mobile_robot", {}, {"wheels0": [0, 0], "dphi": 10.0, "dpsi": -10.0},
             "wheels0 to wheels1 (dphi/dpsi) turns the frame past the chart cut"),
            ("holonomic_sphere", {}, {"velocity": [1, 0, 0]}, "needs q0"),
            ("holonomic_sphere", {}, {"q0": [0, 0, 0], "q1": [0, 0, 1]}, "q0 must be nonzero"),
            ("holonomic_sphere", {}, {"q0": [0, 0, 1], "q1": [0, 0, 0]}, "q1 must be nonzero"),
            ("holonomic_sphere", {}, {"q0": [0, 0, 1]}, "needs q1 or velocity"),
            ("mobile_robot", {"J": -0.6}, STARTS["mobile_robot"], "J must be positive"),
            ("mobile_robot", {"m0": 0.0}, STARTS["mobile_robot"], "m0 must be positive"),
            ("mobile_robot", {"m1": -0.25}, STARTS["mobile_robot"], "m1 must be positive"),
            ("mobile_robot", {"l": 5.0}, STARTS["mobile_robot"],
             "J (m0 + 2 m1) must exceed (m0 l)^2"),
            ("suslov", {}, {"omega": [1e200, 0]}, "the element built from omega: math domain error"),
            ("veselova", {}, {"gamma": [0, 0, 1], "omega": [1e200, 0, 0]},
             "the element built from gamma, omega: math domain error"),
            ("constrained_particle", {"h": 1e-200}, STARTS["constrained_particle"],
             "h = 1e-200 is too small"),
            ("rolling_ball", {"h": 1e-200}, STARTS["rolling_ball"], "h = 1e-200 is too small"),
            ("mobile_robot", {"h": 1e-160}, STARTS["mobile_robot"], "h = 1e-160 is too small"),
            ("holonomic_sphere", {"h": 1e-160}, STARTS["holonomic_sphere"],
             "h = 1e-160 is too small"),
            ("veselova", {}, {"gamma": [1, 1, 1], "omega": [1.7e308] * 3},
             "the element built from gamma, omega: math domain error"),
            ("veselova", {}, {"gamma": [1.7e308] * 3, "omega": [1, 0, 0]}, "gamma is too large"),
            ("holonomic_sphere", {}, {"q0": [0, 0, 1], "velocity": [1.7e308, 1.7e308, 0]},
             "initial element violates the discrete constraints (|phi| = nan)"),
            ("constrained_particle", {}, {"q0": [0, 0, 0], "velocity": [1.7e308, 1.7e308]},
             "initial element violates the discrete constraints (|phi| = nan)"),
            ("rolling_ball", {}, {"xy0": [1.7e308, -1.7e308], "xy1": [1.7e308, 1.7e308]},
             "initial element violates the discrete constraints (|phi| = nan)"),
            ("rolling_ball", {}, {"xy0": [0, 0], "xy1": [1.7e308, 0]}, "xy0 to xy1 is too large"),
            ("mobile_robot", {}, {"wheels0": [-1.7e308] * 2, "wheels1": [1.7e308] * 2},
             "initial element violates the discrete constraints (|phi| = nan)"),
            ("mobile_robot", {}, {"wheels0": [0, 0], "dphi": 1.7e308, "dpsi": -1.7e308},
             "turns the frame past the chart cut"),
            ("holonomic_sphere", {}, {"q0": [1.7e308] * 3, "velocity": [1, 1, 1]},
             "q0 is too large: its squared norm overflows"),
            ("holonomic_sphere", {}, {"q0": [1, 0, 0], "q1": [1e200, 1e200, 0]},
             "q1 is too large: its squared norm overflows"),
        ],
        ids=[
            "suslov-J-asymmetric", "suslov-J-shape", "veselova-I-indefinite",
            "particle-no-q0", "particle-no-q1", "suslov-no-omega", "sleigh-no-xi",
            "veselova-no-omega", "veselova-zero-gamma", "ball-no-xy1", "ball-step-too-large",
            "robot-no-wheels0", "robot-no-wheels1", "robot-past-chart-cut",
            "sphere-no-q0", "sphere-zero-q0", "sphere-zero-q1", "sphere-no-q1",
            "robot-J-negative", "robot-m0-zero", "robot-m1-negative", "robot-indefinite-offset",
            "suslov-omega-overflow", "veselova-omega-overflow", "particle-h-underflow",
            "ball-h-underflow", "robot-h-subnormal-square", "sphere-h-subnormal-square",
            "veselova-projected-omega-overflow", "veselova-gamma-norm-overflow",
            "sphere-velocity-overflow", "particle-velocity-overflow", "ball-xy-overflow",
            "ball-xy-inf-step", "robot-wheels-overflow", "robot-inf-turn",
            "sphere-q0-norm-overflow", "sphere-q1-norm-overflow",
        ],
    )
    def test_model_config_error_names_its_key(self, tmp_path, capsys, system, params, initial,
                                              message):
        data = {"system": {"name": system, "params": params}, "initial": initial, "steps": 2}
        path = write_config(tmp_path, data)
        code, out, err = run_cli(["simulate", "--config", path, "--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_CONFIG
        assert err.startswith("config error: ") and message in err
        assert out == "" and list(tmp_path.iterdir()) == [tmp_path / "config.json"]

    def test_robot_wheels1_start_equals_its_increment_start(self):
        p = md.make_mobile_robot()
        wheels0, dphi, dpsi = [0.3, -0.2], 0.12, -0.07
        by_increment = p.initial_builder({"wheels0": wheels0, "dphi": dphi, "dpsi": dpsi})
        by_wheels1 = p.initial_builder(
            {"wheels0": wheels0, "wheels1": [wheels0[0] + dphi, wheels0[1] + dpsi]}
        )
        assert all(np.array_equal(a, b) for a, b in zip(by_wheels1, by_increment))

    def test_sleigh_start_at_the_chart_cut_fails_the_run(self, tmp_path, capsys):
        # the first guess repeats a rotation within 1e-10 of pi, which has no
        # principal log: a ChartDomainError, reported with its step index
        data = {
            "system": {"name": "chaplygin_sleigh"},
            "initial": {"xi": [3.14159265358979, 0.9]},
            "steps": 3,
            "outputs": {"trajectory": "traj.csv"},
        }
        path = write_config(tmp_path, data)
        code, out, err = run_cli(["simulate", "--config", path, "--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_SOLVER
        assert "run failed at step 0" in err
        assert out == ""
        assert not (tmp_path / "traj.csv").exists()

    def test_veselova_start_at_a_half_turn_fails_without_a_step_index(self, tmp_path, capsys):
        # phi refuses the start itself, in the initial constraint check
        data = {
            "system": {"name": "veselova"},
            "initial": {"gamma": [0.0, 0.0, 1.0], "omega": [(np.pi - 1e-5) / 0.05, 0.0, 0.0]},
            "steps": 3,
        }
        path = write_config(tmp_path, data)
        code, out, err = run_cli(["simulate", "--config", path, "--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_SOLVER
        assert err.startswith("solver failure: veselova: rotation angle at pi")
        assert out == ""

    def test_failed_rename_is_io_error_and_leaves_no_temporary(self, tmp_path, capsys,
                                                               monkeypatch):
        def refuse(src, dst):
            raise PermissionError(f"cannot rename {src}")

        monkeypatch.setattr(cli.os, "replace", refuse)
        path = write_config(tmp_path, BALL_CONFIG)
        out = tmp_path / "out"
        code, _, err = run_cli(["simulate", "--config", path, "--out", str(out)], capsys)
        assert code == cli.EXIT_IO
        assert "i/o error" in err
        assert list(out.iterdir()) == []

    def test_failed_rename_and_cleanup_raise_the_rename_error(self, tmp_path, capsys,
                                                              monkeypatch):
        def refuse_rename(src, dst):
            raise PermissionError(f"cannot rename {src}")

        def refuse_removal(path):
            raise PermissionError(f"cannot remove {path}")

        monkeypatch.setattr(cli.os, "replace", refuse_rename)
        monkeypatch.setattr(cli.os, "unlink", refuse_removal)
        with pytest.raises(PermissionError, match="cannot rename"):
            cli._atomic_write(str(tmp_path / "file.txt"), "text")
        path = write_config(tmp_path, BALL_CONFIG)
        code, _, err = run_cli(["simulate", "--config", path, "--out", str(tmp_path / "out")],
                               capsys)
        assert code == cli.EXIT_IO
        assert err.startswith("i/o error: cannot rename")

    def test_unconstrained_problem_has_no_constraint_violation(self):
        p = md.make_constrained_particle()
        trajectory = sv.evolve(p, p.initial_builder(PARTICLE_INITIAL), 2)
        free = dataclasses.replace(p, constraints=pb.ConstraintSet(codim=0, phi=p.phi))
        assert cli._max_constraint_violation(free, trajectory) == 0.0

    @pytest.mark.parametrize("command", ["simulate", "momentum"])
    def test_missing_steps_is_config_error(self, tmp_path, capsys, command):
        data = copy.deepcopy(BALL_CONFIG)
        del data["steps"]
        path = write_config(tmp_path, data)
        code, _, err = run_cli([command, "--config", path, "--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_CONFIG
        assert f"{command} needs a 'steps' count" in err

    @pytest.mark.parametrize(
        "outputs, key",
        [
            ({"trajectory": "out.json", "summary": "out.json"}, "outputs.trajectory"),
            ({"trajectory": "summary.json"}, "outputs.trajectory"),
            ({"trajectory": ""}, "outputs.trajectory"),
            ({"trajectory": "../escape.csv"}, "outputs.trajectory"),
            ({"summary": "sub/summary.json"}, "outputs.summary"),
            ({"report": ".."}, "outputs.report"),
        ],
        ids=["same-name", "default-summary-name", "empty", "parent-dir", "subdir", "dot-dot"],
    )
    def test_bad_output_name_is_config_error(self, tmp_path, capsys, outputs, key):
        path = write_config(tmp_path, dict(BALL_CONFIG, outputs=outputs))
        out = tmp_path / "out"
        code, _, err = run_cli(["simulate", "--config", path, "--out", str(out)], capsys)
        assert code == cli.EXIT_CONFIG
        assert f"config error: {key}" in err
        assert not out.exists() and not (tmp_path / "escape.csv").exists()

    def test_off_constraint_initial_is_config_error(self, tmp_path, capsys):
        data = {
            "system": {"name": "constrained_particle"},
            "initial": {"q0": [0.0, 0.0, 0.0], "q1": [0.1, 0.2, 0.3]},
            "steps": 3,
        }
        path = write_config(tmp_path, data)
        code, _, _ = run_cli(["simulate", "--config", path, "--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_CONFIG

    def test_nan_constraint_value_at_the_start_is_config_error(self, tmp_path, capsys):
        # |phi| overflows to NaN here; the start must fail its constraint check
        data = {
            "system": {"name": "constrained_particle"},
            "initial": {"q0": [0, 1e308, 0], "q1": [1e308, 1e308, 1e308]},
            "steps": 3,
            "outputs": {"trajectory": "traj.csv"},
        }
        path = write_config(tmp_path, data)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run_cli(["simulate", "--config", path, "--out", str(out)], capsys)
        assert code == cli.EXIT_CONFIG
        assert "|phi| = nan" in err
        assert stdout == ""
        assert not (out / "traj.csv").exists()

    def test_missing_config_file_is_io_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["simulate", "--config", str(tmp_path / "absent.json")], capsys
        )
        assert code == cli.EXIT_IO
        assert "i/o error" in err

    def test_failed_run_leaves_no_partial_trajectory(self, tmp_path, capsys):
        data = {
            "system": {"name": "constrained_particle"},
            "initial": DEGENERATE_POINT,
            "steps": 3,
            "outputs": {"trajectory": "traj.csv"},
        }
        path = write_config(tmp_path, data)
        run_cli(["simulate", "--config", path, "--out", str(tmp_path)], capsys)
        assert not (tmp_path / "traj.csv").exists()
        assert not list(tmp_path.glob("*.tmp"))


class TestCheck:
    def test_suslov_reversible_and_identity_regular(self, tmp_path, capsys):
        data = {
            "system": {"name": "suslov", "params": {"h": 0.05}},
            "initial": {"omega": [0.4, -0.3]},
            "check": {"samples": 5, "seed": 3, "trajectory_steps": 10},
        }
        path = write_config(tmp_path, data)
        code, out, _ = run_cli(["check", "--config", path, "--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_OK
        record = json.loads(out)
        assert record["reversible"] is True
        assert record["reversibility"]["solved_steps"] == 5
        assert record["identity_regular"] is True
        assert record["legendre_matching"]["matched"] is True
        assert record["legendre_matching"]["max_gap"] < 1e-9

    def test_veselova_not_reversible(self, tmp_path, capsys):
        data = {
            "system": {"name": "veselova"},
            "initial": {"gamma": [0.2, -0.3, 0.93], "omega": [0.9, -0.4, 0.0]},
            "check": {"samples": 5, "seed": 3, "trajectory_steps": 10},
        }
        path = write_config(tmp_path, data)
        _, out, _ = run_cli(["check", "--config", path, "--out", str(tmp_path)], capsys)
        record = json.loads(out)
        assert record["reversible"] is False
        assert record["reversibility"]["lagrangian_symmetric"] is False
        assert record["reversibility"]["constraint_invariant"] is True
        assert record["reversibility"]["consistent"] is True
        assert record["identity_regular"] is True

    def test_particle_degenerate_point_flagged(self, tmp_path, capsys):
        data = {
            "system": {"name": "constrained_particle"},
            "initial": PARTICLE_INITIAL,
            "check": {"samples": 3, "seed": 1, "points": [DEGENERATE_POINT]},
        }
        path = write_config(tmp_path, data)
        code, out, _ = run_cli(["check", "--config", path, "--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_OK
        record = json.loads(out)
        flagged = [e for e in record["regularity"] if e["point"] == "point_0"]
        assert flagged and flagged[0]["regular"] is False
        assert record["all_points_regular"] is False
        assert record["identity_regular"] is True

    def test_off_constraint_point_is_a_config_error(self, tmp_path, capsys):
        # |phi| = 50: a point off the constraint set is refused as an
        # evolve refuses its initial element, before any report is written
        data = {
            "system": {"name": "constrained_particle"},
            "check": {"samples": 2, "points": [DEGENERATE_POINT, {"q0": [0, 0, 0],
                                                                  "q1": [1, 1, 1]}]},
        }
        path = write_config(tmp_path, data)
        code, out, err = run_cli(["check", "--config", path, "--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_CONFIG
        assert out == "" and err == (
            "config error: constrained_particle: check.points[1] violates the discrete "
            "constraints (|phi| = 5.000e+01)\n"
        )
        assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]

    LONG_PARTICLE = {
        "system": {"name": "constrained_particle"},
        "initial": PARTICLE_INITIAL,
        "check": {"samples": 2, "seed": 0, "trajectory_steps": 2000},
    }

    def test_floor_limited_steps_match_at_their_floor(self, tmp_path, capsys):
        # late in the run the particle's steps stop at their roundoff floor,
        # and their Legendre gaps (up to ~7e-9) exceed 10 tol but not 10 floor
        path = write_config(tmp_path, self.LONG_PARTICLE)
        _, out, _ = run_cli(["check", "--config", path, "--out", str(tmp_path)], capsys)
        matching = json.loads(out)["legendre_matching"]
        assert matching["max_gap"] > 10.0 * sv.SolverOptions().tol_residual
        assert matching["matched"] is True

    def test_perturbed_gap_is_a_mismatch(self, tmp_path, capsys, monkeypatch):
        calls = []
        legendre_minus = sv.legendre_minus

        def shifted(p, h):
            # one late, floor-limited step's gap raised by 1e-6
            cov = legendre_minus(p, h)
            calls.append(h)
            if len(calls) == 1900:
                cov.components = cov.components + 1e-6
            return cov

        monkeypatch.setattr(sv, "legendre_minus", shifted)
        path = write_config(tmp_path, self.LONG_PARTICLE)
        _, out, _ = run_cli(["check", "--config", path, "--out", str(tmp_path)], capsys)
        assert json.loads(out)["legendre_matching"]["matched"] is False

    @pytest.mark.parametrize("name", sorted(md.FACTORIES))
    def test_report_file_matches_stdout(self, tmp_path, capsys, name):
        data = {
            "system": {"name": name},
            "initial": STARTS[name],
            "check": {"samples": 3, "seed": 0, "trajectory_steps": 5},
        }
        path = write_config(tmp_path, data)
        _, out, _ = run_cli(["check", "--config", path, "--out", str(tmp_path)], capsys)
        record = json.loads(out)
        on_disk = json.loads((tmp_path / "check_report.json").read_text(encoding="utf-8"))
        record.pop("report")
        assert on_disk == record

    @pytest.mark.parametrize("name", sorted(md.FACTORIES))
    def test_legendre_matching_builds_no_step_frame(self, tmp_path, capsys, monkeypatch, name):
        # F+ at each element of the Legendre trajectory is the outgoing
        # momentum of the step from it, so no frame is built after evolve
        built, at_return = [0], []
        init, evolve = pb.StepFrame.__init__, sv.evolve

        def counting_init(frame, *args, **kwargs):
            built[0] += 1
            init(frame, *args, **kwargs)

        def evolved(*args, **kwargs):
            trajectory = evolve(*args, **kwargs)
            at_return.append(built[0])
            return trajectory

        monkeypatch.setattr(pb.StepFrame, "__init__", counting_init)
        monkeypatch.setattr(sv, "evolve", evolved)
        data = {"system": {"name": name}, "initial": STARTS[name],
                "check": {"samples": 3, "trajectory_steps": 6}}
        path = write_config(tmp_path, data)
        code, out, _ = run_cli(["check", "--config", path, "--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_OK
        assert json.loads(out)["legendre_matching"]["steps"] == 6
        assert at_return == [built[0]]

    # a Lie group is a groupoid over one point, so its samples share one
    # identity element; the particle's samples have distinct targets
    @pytest.mark.parametrize("name, identity_reports",
                             [("suslov", 1), ("chaplygin_sleigh", 1), ("constrained_particle", 5)])
    def test_one_identity_report_per_base_point(self, tmp_path, capsys, monkeypatch, name,
                                                identity_reports):
        count = [0]
        monkeypatch.setattr(dg, "regularity_report", counted(dg.regularity_report, count))
        data = {"system": {"name": name}, "check": {"samples": 5, "trajectory_steps": 2}}
        path = write_config(tmp_path, data)
        code, _, _ = run_cli(["check", "--config", path, "--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_OK
        assert count[0] == 5 + identity_reports

    @pytest.mark.parametrize("name", sorted(md.FACTORIES))
    def test_identity_entries_equal_fresh_reports(self, tmp_path, capsys, name):
        n, seed = 4, 2
        data = {"system": {"name": name},
                "check": {"samples": n, "seed": seed, "trajectory_steps": 2}}
        path = write_config(tmp_path, data)
        code, out, _ = run_cli(["check", "--config", path, "--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_OK
        entries = {e["point"]: e for e in json.loads(out)["regularity"]}
        p = md.FACTORIES[name]()
        bk = p.backend
        for i, g in enumerate(p.sample_states(np.random.default_rng(seed), n)):
            fresh = dg.regularity_report(p, bk.identity(bk.target(g)))
            assert entries[f"identity_{i}"] == cli._regularity_entry(f"identity_{i}", fresh)

    @pytest.mark.parametrize("name", sorted(md.FACTORIES))
    def test_one_right_gradient_and_one_guess_per_sample(self, tmp_path, capsys, monkeypatch,
                                                         name):
        # a sample's report and its reversibility step share one frame, so
        # each sample's right phi gradient and mirror guess are taken once
        n, samples, calls = 6, [], {"phi_right_jac": 0, "mirror": 0}

        def at_samples(label, fn):
            def counting(g, *args):
                calls[label] += any(g is s for s in samples)
                return fn(g, *args)
            return counting

        build = cli.build_problem

        def built(cfg):
            p = build(cfg)
            sample_states = p.sample_states

            def sampled(rng, count):
                samples.extend(sample_states(rng, count))
                return samples

            p.sample_states = sampled
            p.phi_right_jac = at_samples("phi_right_jac", p.phi_right_jac)
            monkeypatch.setattr(p.backend, "mirror", at_samples("mirror", p.backend.mirror))
            return p

        monkeypatch.setattr(cli, "build_problem", built)
        data = {"system": {"name": name}, "initial": STARTS[name],
                "check": {"samples": n, "trajectory_steps": 2}}
        path = write_config(tmp_path, data)
        code, _, _ = run_cli(["check", "--config", path, "--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_OK
        assert len(samples) == n
        assert calls == {"phi_right_jac": n, "mirror": n}

    def test_undeclared_problem_writes_consistent_null(self, tmp_path, capsys, monkeypatch):
        build = cli.build_problem
        monkeypatch.setattr(cli, "build_problem",
                            lambda cfg: dataclasses.replace(build(cfg), declared_reversible=None))
        data = {"system": {"name": "suslov"}, "check": {"samples": 2, "trajectory_steps": 2}}
        path = write_config(tmp_path, data)
        code, out, _ = run_cli(["check", "--config", path, "--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_OK
        on_disk = (tmp_path / "check_report.json").read_text(encoding="utf-8")
        for text in (out, on_disk):
            reversibility = json.loads(text)["reversibility"]
            assert reversibility["declared"] is None
            assert reversibility["consistent"] is None

    def test_legendre_trajectory_from_a_fold_exits_3(self, tmp_path, capsys):
        # with no initial section the Legendre trajectory starts at sample 0,
        # whose second step stalls at a fold of the evolution operator
        data = {"system": {"name": "chaplygin_sleigh"},
                "check": {"samples": 40, "seed": 3, "trajectory_steps": 2}}
        path = write_config(tmp_path, data)
        code, out, err = run_cli(["check", "--config", path, "--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_SOLVER
        assert "at step 1" in err
        assert out == ""
        assert not (tmp_path / "check_report.json").exists()

    def test_failed_regularity_report_names_the_system_and_the_point(self, tmp_path, capsys):
        # a = 1e300 overflows the sleigh's K, so the two-point pairing of
        # sample 0 has non-finite entries before any step is taken
        data = {"system": {"name": "chaplygin_sleigh", "params": {"a": 1e300}},
                "check": {"samples": 2, "trajectory_steps": 2}}
        path = write_config(tmp_path, data)
        code, out, err = run_cli(["check", "--config", path, "--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_SOLVER
        assert err == ("solver failure: chaplygin_sleigh: regularity test at sample_0: "
                       "two-point pairing has non-finite entries\n")
        assert out == ""

    @pytest.mark.parametrize("failing_call, label", [(1, "identity_0"), (2, "point_0")])
    def test_failed_identity_or_point_report_names_its_label(self, tmp_path, capsys, monkeypatch,
                                                             failing_call, label):
        # reports run in the order sample_0, identity_0, point_0
        calls = []
        report = dg.regularity_report

        def failing(problem, g, frame=None):
            calls.append(g)
            if len(calls) == failing_call + 1:
                raise SingularError("two-point pairing has non-finite entries")
            return report(problem, g, frame)

        monkeypatch.setattr(cli.dg, "regularity_report", failing)
        data = {"system": {"name": "constrained_particle"}, "initial": PARTICLE_INITIAL,
                "check": {"samples": 1, "trajectory_steps": 2, "points": [PARTICLE_INITIAL]}}
        path = write_config(tmp_path, data)
        code, out, err = run_cli(["check", "--config", path, "--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_SOLVER
        assert err == (f"solver failure: constrained_particle: regularity test at {label}: "
                       "two-point pairing has non-finite entries\n")
        assert out == ""

    def test_infinite_condition_is_written_as_null(self, tmp_path, capsys):
        # the sleigh turning by pi per step: its mirror guess has no
        # principal log, so its report's condition estimate is infinite
        point = {"xi": [math.pi, 0.5]}
        data = {"system": {"name": "chaplygin_sleigh"}, "initial": {"xi": [0.7, 0.9]},
                "check": {"samples": 1, "seed": 0, "trajectory_steps": 2, "points": [point]}}
        path = write_config(tmp_path, data)
        code, out, _ = run_cli(["check", "--config", path, "--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_OK

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        p = md.make_chaplygin_sleigh()
        fresh = dg.regularity_report(p, p.initial_builder(point))
        assert fresh.jacobian_condition == math.inf
        assert fresh.left_nondegenerate and fresh.right_nondegenerate
        on_disk = (tmp_path / "check_report.json").read_text(encoding="utf-8")
        for text in (out, on_disk):
            entries = {e["point"]: e for e in json.loads(text, parse_constant=refuse)["regularity"]}
            assert entries["point_0"]["jacobian_condition"] is None
            assert entries["point_0"]["regular"] is True


class TestMomentum:
    def test_particle_drift_table(self, tmp_path, capsys):
        data = {
            "system": {"name": "constrained_particle", "params": {"h": 0.01}},
            "initial": PARTICLE_INITIAL,
            "steps": 40,
            "momentum": {"specs": ["y_translation", "plane_translations"]},
        }
        path = write_config(tmp_path, data)
        code, out, _ = run_cli(["momentum", "--config", path, "--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_OK
        record = json.loads(out)
        assert record["specs"]["y_translation"]["max_abs_drift"] <= 1e-10
        assert record["specs"]["plane_translations"]["within_tolerance"] is True
        assert record["within_tolerance"] is True
        on_disk = json.loads((tmp_path / "momentum_report.json").read_text(encoding="utf-8"))
        rows = on_disk["specs"]["y_translation"]["rows"]
        assert len(rows) == 40
        assert rows[0][0] == 1 and rows[-1][0] == 40
        assert all(len(r) == 4 for r in rows)
        assert "rows" not in record["specs"]["y_translation"]

    def test_system_without_specs_is_config_error(self, tmp_path, capsys):
        data = {
            "system": {"name": "suslov"},
            "initial": {"omega": [0.4, -0.3]},
            "steps": 5,
        }
        path = write_config(tmp_path, data)
        code, _, err = run_cli(["momentum", "--config", path, "--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_CONFIG
        assert "no momentum maps" in err

    def test_unknown_spec_name_is_config_error(self, tmp_path, capsys):
        data = {
            "system": {"name": "constrained_particle"},
            "initial": PARTICLE_INITIAL,
            "steps": 5,
            "momentum": {"specs": ["bogus"]},
        }
        path = write_config(tmp_path, data)
        code, _, err = run_cli(["momentum", "--config", path, "--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_CONFIG
        assert "bogus" in err

    def test_broken_invariance_is_flagged(self):
        base = md.make_constrained_particle(h=0.01)
        tilted = dataclasses.replace(
            base,
            lagrangian=pb.Lagrangian(eval=lambda g: base.lagrangian.eval(g) + 3.0 * g[1][1]),
        )
        g0 = tilted.initial_builder(PARTICLE_INITIAL)
        traj = sv.evolve(tilted, g0, 20, sv.SolverOptions(tol_residual=1e-8))
        report = cli.momentum_report(tilted, ["y_translation"], traj)
        entry = report["specs"]["y_translation"]
        assert entry["within_tolerance"] is False
        assert entry["max_identity_gap"] > 1e-6
        assert report["within_tolerance"] is False


class TestNonFiniteMomentum:
    """A spec whose section is not finite ends the run with exit 3, naming
    the spec, and leaves no output file behind."""

    @pytest.mark.parametrize("command", ["simulate", "momentum"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_section_exits_3(self, tmp_path, capsys, monkeypatch, command, value):
        build = cli.build_problem

        def broken(cfg):
            p = build(cfg)
            spec = dataclasses.replace(
                p.momentum_specs["spin"], section=lambda xi, x: np.full(p.n, value)
            )
            return dataclasses.replace(p, momentum_specs=dict(p.momentum_specs, spin=spec))

        monkeypatch.setattr(cli, "build_problem", broken)
        path = write_config(tmp_path, BALL_CONFIG)
        out = tmp_path / "out"
        code, stdout, err = run_cli([command, "--config", path, "--out", str(out)], capsys)
        assert code == cli.EXIT_SOLVER
        assert "rolling_ball/spin" in err
        assert stdout == ""
        assert list(out.iterdir()) == []


# strings with JSON escapes, non-ASCII text and the item boundaries that
# _json_text re-indents (a JSON string holds them escaped)
_STRINGS = ["", "a", "key", "\u00e9t\u00e9", "\u65e5\u672c", "\u2028", "\x00", '"', "\\", "\n",
            "\t", "\ud800", "},\n    {", "],\n  [", '"},\n      {"', "}, {", "\U0001f600"]
_FLOATS = [0.0, -0.0, 1.5, -2.25e-7, 1e300, -1e-300, 5e-324, 2.2250738585072014e-308 / 3,
           math.nan, math.inf, -math.inf, 0.1, 1 / 3]
_INTS = [0, 1, -1, 7, 10 ** 20, -(10 ** 20), 2 ** 63, True, False]


def _json_scalar(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return rng.choice(_STRINGS) + rng.choice(["", "x", "\u00fc"])
    if kind == 1:
        return rng.choice(_FLOATS)
    if kind == 2:
        return rng.uniform(-1e3, 1e3) * 10.0 ** rng.randint(-20, 20)
    if kind == 3:
        return rng.choice(_INTS)
    return None


def _json_flat(rng, size=None):
    """A flat container: a list, a tuple or a dict (str keys, sometimes int
    keys) of scalars, empty when ``size`` is 0."""
    size = rng.randrange(5) if size is None else size
    members = [_json_scalar(rng) for _ in range(size)]
    kind = rng.randrange(4)
    if kind == 0:
        return members
    if kind == 1:
        return tuple(members)
    if kind == 2:
        return {rng.randrange(-5, 5): m for m in members}
    return {rng.choice(_STRINGS) + str(rng.randrange(9)): m for m in members}


def _json_value(rng, depth=0):
    """A seeded JSON-encodable value of at most four levels."""
    r = rng.random()
    if depth >= 3 or r < 0.2:
        return _json_scalar(rng)
    if r < 0.45:
        return _json_flat(rng)
    if r < 0.6:  # a list of flat dicts, as check's regularity entries
        return [{rng.choice(_STRINGS) + str(i): _json_scalar(rng) for i in range(rng.randrange(4))}
                for _ in range(rng.randrange(1, 5))]
    if r < 0.75:  # a list of flat lists or tuples, as a trajectory's rows
        kind = rng.choice([list, tuple])
        return [kind(_json_scalar(rng) for _ in range(rng.randrange(4)))
                for _ in range(rng.randrange(1, 5))]
    if r < 0.88:
        return [_json_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    if rng.random() < 0.2:
        return {rng.randrange(9): _json_value(rng, depth + 1) for _ in range(rng.randrange(4))}
    return {rng.choice(_STRINGS) + str(i): _json_value(rng, depth + 1)
            for i in range(rng.randrange(4))}


class TestJsonText:
    """``cli._json_text`` against json's own indented encoder."""

    def test_equals_the_indented_encoder_on_seeded_values(self):
        rng = random.Random(30)
        for _ in range(10_000):
            value = _json_value(rng)
            expected = json.dumps(value, indent=2, sort_keys=True)
            assert cli._json_text(value) == expected
            assert cli._json_text(value, "  ") == expected.replace("\n", "\n  ")

    @pytest.mark.parametrize("value", [
        [], {}, (), [[]], [{}], [[], [1]], [{}, {"a": 1}], [[1], {"a": 1}], [(1, 2), [3]],
        {"a": []}, {"a": {}}, [[{"a": [1]}]], {"a": {"b": {"c": [1, {"d": None}]}}},
        [{"a": 1}, {"b": "},\n    {"}], [["],\n    ["], ["x"]], {"z": 1, "a": [2.5, -0.0]},
    ], ids=repr)
    def test_equals_the_indented_encoder_on_edge_cases(self, value):
        assert cli._json_text(value) == json.dumps(value, indent=2, sort_keys=True)

    def test_unserializable_member_is_a_type_error(self):
        for value in (object(), [1, object()], {"a": [object()]}, [{"a": np.int64(1)}]):
            with pytest.raises(TypeError, match="not JSON serializable"):
                cli._json_text(value)


class TestOutputText:
    """stdout and every JSON file a run writes are the indented, key-sorted
    JSON of their record, byte for byte, and each member is encoded once."""

    RUNS = ([(name, "simulate", fmt) for name in sorted(md.FACTORIES) for fmt in ("csv", "json")]
            + [(name, "check", None) for name in sorted(md.FACTORIES)]
            + [(name, "momentum", None) for name in ("constrained_particle", "rolling_ball")])

    @pytest.mark.parametrize("name, command, fmt", RUNS)
    def test_stdout_and_json_files_are_canonical(self, tmp_path, capsys, name, command, fmt):
        data = {"system": {"name": name}, "initial": STARTS[name], "steps": 4,
                "check": {"samples": 3, "trajectory_steps": 4}}
        if fmt is not None:
            data["outputs"] = {"format": fmt}
        path = write_config(tmp_path, data)
        out_dir = tmp_path / "out"
        code, out, _ = run_cli([command, "--config", path, "--out", str(out_dir)], capsys)
        assert code == cli.EXIT_OK
        texts = [out] + [f.read_text(encoding="utf-8") for f in sorted(out_dir.glob("*.json"))]
        assert len(texts) == (3 if fmt == "json" else 2)
        for text in texts:
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("name", sorted(md.FACTORIES))
    def test_simulate_json_trajectory_is_the_indented_encoding(self, tmp_path, capsys, name):
        data = {"system": {"name": name}, "initial": STARTS[name], "steps": 6,
                "outputs": {"format": "json"}}
        path = write_config(tmp_path, data)
        code, _, _ = run_cli(["simulate", "--config", path, "--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_OK
        p = md.FACTORIES[name]()
        trajectory = sv.evolve(p, p.initial_builder(STARTS[name]), 6)
        text = (tmp_path / "trajectory.json").read_text(encoding="utf-8")
        assert text == trajectory_text_oracle(p, trajectory, "json")

    def test_check_encodes_its_regularity_member_once(self, tmp_path, capsys, monkeypatch):
        path = write_config(tmp_path, {"system": {"name": "suslov"}, "check": {"samples": 3}})
        encode, texts = cli._json_text, []

        def recording(*args, **kwargs):
            texts.append(encode(*args, **kwargs))
            return texts[-1]

        monkeypatch.setattr(cli, "_json_text", recording)
        code, _, _ = run_cli(["check", "--config", path, "--out", str(tmp_path)], capsys)
        assert code == cli.EXIT_OK
        assert sum('"point": "sample_0"' in text for text in texts) == 1


class TestProcessEntry:
    def test_usage_error_leaves_the_shared_parser_working(self, tmp_path, capsys):
        # the parser is built once and shared by every later call; a
        # --verbose call followed by a quiet one is in
        # test_verbose_notes_of_check_and_momentum
        assert cli._build_parser() is cli._build_parser()
        path = write_config(tmp_path, BALL_CONFIG)
        args = ["simulate", "--config", path, "--out", str(tmp_path)]
        code, out, _ = run_cli(args, capsys)
        with pytest.raises(SystemExit) as usage:
            cli.main(["simulate", "--verbose"])
        assert usage.value.code == 2
        assert "--config" in capsys.readouterr().err
        assert run_cli(args, capsys) == (cli.EXIT_OK, out, "")

    def test_module_invocation(self, tmp_path):
        path = write_config(tmp_path, BALL_CONFIG)
        proc = subprocess.run(
            [sys.executable, "-m", "nhmech.cli", "simulate", "--config", path,
             "--out", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        record = json.loads(proc.stdout)
        assert record["system"] == "rolling_ball"
