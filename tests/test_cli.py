import csv
import io
import json
import os
import re
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import hfmm
from hfmm import backtest as bt
from hfmm.cli import CONFIG_KEYS, INT, PATH, POLICIES, REAL, REALS, main
from hfmm.estimation import estimate_day, rolling_params
from hfmm.lob import read_events_binary, replay, write_events_binary
from hfmm.model import (ArrivalSchedule, MarketParams, TimeGrid, load_params,
                        save_params)
from hfmm.solver import backward_pass, optimal_spreads
from hfmm.synthetic import SyntheticDayConfig, generate_day

from conftest import symmetric_params
from event_csv import write_events_csv

N_STEPS = 60


@pytest.fixture()
def params_file(tmp_path):
    path = tmp_path / "params.yaml"
    save_params(symmetric_params(100.0, 5.0, 0.2, 0.0, 0.0005, 30), path)
    return path


def make_days(tmp_path, n_days, n_steps=N_STEPS):
    cfg = SyntheticDayConfig(n_steps=n_steps)
    events_dir = tmp_path / "events"
    events_dir.mkdir(exist_ok=True)
    for d in range(n_days):
        events, _ = generate_day(cfg, seed=1000 + d)
        write_events_binary(events, events_dir / f"day_{d:04d}.bin")
    return events_dir


def write_config(tmp_path, **overrides):
    cfg = {"n_steps": N_STEPS, "window": 20, "n_paths": 200}
    cfg.update(overrides)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


# A command that reads each config key
KEY_READER = {
    "params": "solve", "events": "estimate", "out": "report",
    "seed": "report", "workers": "backtest", "lambda": "estimate",
    "window": "estimate", "policies": "backtest", "n_paths": "simulate",
    "S0": "simulate", "pi11_grid": "solve", "inventory_grid": "solve",
    "n_steps": "estimate",
    "level_depth": "estimate", "tick_size": "estimate",
    "step_seconds": "estimate", "session_start_ns": "estimate",
    "break_quantile": "estimate", "order_volume": "backtest",
    "results": "report", "break_flags": "report"}


def command_inputs(tmp_path, params_file, command, unset=None):
    """The flags that give ``command`` good inputs and an --out of
    tmp_path/out, leaving out the flag of key ``unset``."""
    flags = {"out": tmp_path / "out"}
    if command in ("solve", "simulate"):
        flags["params"] = params_file
    if command in ("estimate", "backtest"):
        flags["events"] = make_days(tmp_path, 1)
    if command == "backtest":
        flags["params"] = tmp_path / "params"
        flags["params"].mkdir(exist_ok=True)
        save_params(load_params(params_file),
                    flags["params"] / "params_day_0000.yaml")
    flags.pop(unset, None)
    return [arg for key, path in flags.items()
            for arg in (f"--{key}", str(path))]


def read_surface(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    data = np.array([[float(x) for x in r[1:]] for r in rows[1:]])
    return header[1:], data


class TestExitCodes:
    @pytest.mark.parametrize("command", ["solve", "simulate"])
    def test_missing_params_file(self, tmp_path, capsys, command):
        missing = str(tmp_path / "nope.yaml")
        assert main([command, "--params", missing,
                     "--out", str(tmp_path / "out")]) == 2
        assert (f"parameter file not found: {missing!r}"
                in capsys.readouterr().err)

    def test_missing_config_file(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.yaml")]) == 2

    def test_missing_events_dir(self, tmp_path):
        assert main(["estimate", "--events", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "out"),
                     "--config", str(write_config(tmp_path))]) == 2

    def test_report_without_results(self, tmp_path):
        assert main(["report", "--out", str(tmp_path / "empty")]) == 3

    def test_empty_events_dir_estimate(self, tmp_path, capsys):
        events = tmp_path / "events"
        events.mkdir()
        assert main(["estimate", "--events", str(events),
                     "--out", str(tmp_path / "out"),
                     "--config", str(write_config(tmp_path))]) == 2
        assert str(events) in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("level_depth", 1),
                                           ("tick_size", 0),
                                           ("n_steps", "abc"),
                                           ("window", 0),
                                           ("step_seconds", 0),
                                           ("step_seconds", float("inf")),
                                           ("session_start_ns", "abc"),
                                           ("lambda", "abc"),
                                           ("lambda", -0.5),
                                           ("lambda", float("inf")),
                                           ("break_quantile", 1.0)])
    def test_estimate_bad_setting_named(self, tmp_path, capsys, key, value):
        out = tmp_path / "out"
        assert main(["estimate", "--events", str(make_days(tmp_path, 2)),
                     "--out", str(out), "--config",
                     str(write_config(tmp_path, **{key: value}))]) == 1
        err = capsys.readouterr().err
        assert f" {key}" in err and f"not {value!r}" in err
        assert not out.exists()  # rejected before any day was read

    @pytest.mark.parametrize("value", ["abc", 0, 2.5])
    def test_backtest_bad_order_volume_named(self, tmp_path, params_file,
                                             capsys, value):
        params = tmp_path / "params"
        params.mkdir()
        save_params(load_params(params_file), params / "params_day_0000.yaml")
        out = tmp_path / "out"
        assert main(["backtest", "--events", str(make_days(tmp_path, 1)),
                     "--params", str(params), "--out", str(out), "--config",
                     str(write_config(tmp_path, order_volume=value))]) == 1
        err = capsys.readouterr().err
        assert " order_volume" in err and f"not {value!r}" in err
        assert not out.exists()  # rejected before any day was read

    @pytest.mark.parametrize("command", ["solve", "simulate"])
    @pytest.mark.parametrize("value", ["abc", float("nan")])
    def test_bad_lambda_named(self, tmp_path, params_file, capsys, command,
                              value):
        out = tmp_path / "out"
        config = write_config(tmp_path, **{"lambda": value})
        assert main([command, "--params", str(params_file), "--out", str(out),
                     "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert " lambda" in err and f"not {value!r}" in err
        assert not out.exists()  # rejected before anything was solved

    def test_empty_events_dir_backtest(self, tmp_path, capsys):
        events, params = tmp_path / "events", tmp_path / "params"
        events.mkdir()
        params.mkdir()
        assert main(["backtest", "--events", str(events),
                     "--params", str(params),
                     "--out", str(tmp_path / "out")]) == 2
        assert str(events) in capsys.readouterr().err

    @pytest.mark.parametrize("command,unset", [("estimate", "events"),
                                               ("backtest", "events"),
                                               ("backtest", "params")])
    def test_unset_input_directory(self, tmp_path, params_file, capsys,
                                   monkeypatch, command, unset):
        """An unset directory is missing, not the working directory, even
        when that holds an event file and a day's params file."""
        inputs = command_inputs(tmp_path, params_file, command, unset)
        here = tmp_path / "here"
        here.mkdir()
        (here / "day_0000.bin").write_bytes(
            (tmp_path / "events" / "day_0000.bin").read_bytes())
        save_params(load_params(params_file), here / "params_day_0000.yaml")
        monkeypatch.chdir(here)
        assert main([command, *inputs, "--config",
                     str(write_config(tmp_path))]) == 2
        assert f"{unset} directory not found: None" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_mapping_params_file(self, tmp_path):
        bad = tmp_path / "list.yaml"
        bad.write_text("[1, 2]\n")
        env = dict(os.environ, PYTHONPATH=str(Path(hfmm.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-m", "hfmm.cli", "solve", "--params", str(bad),
             "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True)
        assert out.returncode == 1
        assert str(bad) in out.stderr
        assert "Traceback" not in out.stdout + out.stderr

    def test_config_not_yaml(self, tmp_path, params_file, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("seed: [1\n")
        assert main(["solve", "--params", str(params_file),
                     "--out", str(tmp_path / "out"),
                     "--config", str(bad)]) == 1
        assert str(bad) in capsys.readouterr().err

    def test_config_not_a_mapping(self, tmp_path, params_file, capsys):
        bad = tmp_path / "list.yaml"
        bad.write_text("- 1\n")
        assert main(["solve", "--params", str(params_file),
                     "--out", str(tmp_path / "out"),
                     "--config", str(bad)]) == 1
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("n_paths", 0), ("n_paths", -3),
                                           ("n_paths", "many"), ("seed", -1)])
    def test_simulate_bad_count_or_seed(self, tmp_path, params_file, capsys,
                                        key, value):
        out = tmp_path / "out"
        assert main(["simulate", "--params", str(params_file),
                     "--out", str(out), "--config",
                     str(write_config(tmp_path, **{key: value}))]) == 1
        assert key in capsys.readouterr().err
        assert not out.exists()  # rejected before anything was solved

    @pytest.mark.parametrize("command,key,value,named,bad", [
        ("solve", "pi11_grid", ["abc"], "pi11_grid[0]", "abc"),
        ("solve", "pi11_grid", 0.1, "pi11_grid", 0.1),
        ("solve", "pi11_grid", [0.05, float("nan")], "pi11_grid[1]",
         float("nan")),
        ("solve", "inventory_grid", [0.0, "abc"], "inventory_grid[1]", "abc"),
        ("simulate", "S0", "abc", "S0", "abc"),
        ("simulate", "S0", float("nan"), "S0", float("nan")),
        ("report", "seed", "abc", "seed", "abc"),
        ("backtest", "workers", "abc", "workers", "abc"),
        ("solve", "out", 123, "out", 123),
        ("simulate", "params", 123, "params", 123),
        ("estimate", "events", [1], "events", [1]),
        ("backtest", "events", 1.5, "events", 1.5),
        ("backtest", "params", True, "params", True),
        ("report", "results", 1, "results", 1),
        ("report", "break_flags", False, "break_flags", False),
        ("backtest", "policies", "optimal_martingale", "policies",
         "optimal_martingale"),
        ("backtest", "policies", [1], "policies[0]", 1),
        ("backtest", "policies", [], "policies", []),
        ("backtest", "policies", ["optimal_martingale"] * 2, "policies",
         ["optimal_martingale"] * 2),
        pytest.param("simulate", "S0", 10 ** 400, "S0", 10 ** 400,
                     id="simulate-S0-int-past-float-range"),
    ])
    def test_bad_config_value_named(self, tmp_path, params_file, capsys,
                                    monkeypatch, command, key, value, named,
                                    bad):
        monkeypatch.chdir(tmp_path)  # where a bad out would be created
        out = tmp_path / "out"
        assert main([command, *command_inputs(tmp_path, params_file, command,
                                              key),
                     "--config", str(write_config(tmp_path,
                                                  **{key: value}))]) == 1
        err = capsys.readouterr().err
        assert f" {named}" in err and f"not {bad!r}" in err
        assert not out.exists()  # rejected before anything was written

    @pytest.mark.parametrize("key", sorted(CONFIG_KEYS))
    def test_every_key_rejects_a_wrong_kind(self, tmp_path, params_file,
                                            capsys, monkeypatch, key):
        """Each key in the table, given a value of another kind in a config
        file, fails a command that reads it before --out is created."""
        monkeypatch.chdir(tmp_path)  # where a bad out would be created
        kind = CONFIG_KEYS[key][0]
        value = {INT: 2.5, REAL: "abc", PATH: 123, REALS: 0.1,
                 POLICIES: "optimal_martingale"}[kind]
        command = KEY_READER[key]
        out = tmp_path / "out"
        assert main([command, *command_inputs(tmp_path, params_file, command,
                                              key),
                     "--config", str(write_config(tmp_path,
                                                  **{key: value}))]) == 1
        err = capsys.readouterr().err
        assert f"{command} needs " in err and f" {key}" in err
        assert not out.exists()

    def test_unknown_config_key_rejected(self, tmp_path, params_file, capsys):
        # a misspelt key, and chunk_size, which no setting replaces
        for key, value in (("n_path", 3), ("chunk_size", 300)):
            config = write_config(tmp_path, **{key: value})
            out = tmp_path / "out"
            assert main(["simulate", "--params", str(params_file),
                         "--out", str(out), "--config", str(config)]) == 1
            assert (f"invalid config: {config}: unknown key {key!r}"
                    in capsys.readouterr().err)
            assert not out.exists()

    @pytest.mark.parametrize("side,dropped", [("plus", ["mu_p2"]),
                                              ("minus", ["mu_p", "mu_p2"])])
    def test_simulate_missing_price_moment(self, tmp_path, params_file,
                                           capsys, side, dropped):
        data = yaml.safe_load(params_file.read_text())
        for key in dropped:
            del data["moments"][side][key]
        bad = tmp_path / "no_price_moment.yaml"
        bad.write_text(yaml.safe_dump(data))
        out = tmp_path / "out"
        assert main(["simulate", "--params", str(bad),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"moments.{side}.{dropped[0]}" in err and str(bad) in err
        assert not out.exists()  # rejected before anything was solved

    @pytest.mark.parametrize("var,value", [("HFMM_SEED", "abc")] + [
        (f"HFMM_{key.upper()}", "2.5" if kind == INT else "1e")
        for key, (kind, _, _, flag) in CONFIG_KEYS.items()
        if flag is not None and kind in (INT, REAL)])
    def test_bad_env_value_named(self, tmp_path, params_file, capsys,
                                 monkeypatch, var, value):
        monkeypatch.setenv(var, value)
        assert main(["simulate", "--params", str(params_file),
                     "--out", str(tmp_path / "out")]) == 1
        assert f"{var}={value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "simulate"])
    def test_invalid_params_rejected(self, tmp_path, params_file, capsys,
                                     command):
        text = params_file.read_text().replace("0.2", "1.7")
        bad = tmp_path / "bad.yaml"
        bad.write_text(text)
        assert main([command, "--params", str(bad),
                     "--out", str(tmp_path / "out")]) == 1
        assert "invalid params: " in capsys.readouterr().err

    def test_nan_lambda_in_params_file_rejected(self, tmp_path, params_file,
                                                capsys):
        text = params_file.read_text()
        assert "\nlambda: 0.0005\n" in text
        bad = tmp_path / "bad.yaml"
        bad.write_text(text.replace("\nlambda: 0.0005\n", "\nlambda: .nan\n"))
        out = tmp_path / "out"
        assert main(["solve", "--params", str(bad), "--out", str(out)]) == 1
        assert "lambda must be finite" in capsys.readouterr().err
        assert not (out / "spread_surface.csv").exists()


class TestSolve:
    def test_outputs_and_pi11_monotonicity(self, tmp_path, params_file):
        out = tmp_path / "out"
        assert main(["solve", "--params", str(params_file),
                     "--out", str(out)]) == 0
        assert (out / "coefficients.csv").exists()
        header, data = read_surface(out / "spread_surface.csv")
        assert len(header) == 4  # pi11 grid 0, 0.05, 0.1, 0.2 at I=0
        # spreads strictly decreasing in pi11 at every step
        assert np.all(np.diff(data, axis=1) < 0)

    def test_lambda_zero_flat_surface(self, tmp_path, params_file):
        out = tmp_path / "flat"
        assert main(["solve", "--params", str(params_file),
                     "--out", str(out), "--lambda", "0"]) == 0
        _, data = read_surface(out / "spread_surface.csv")
        assert np.ptp(data, axis=0).max() == 0.0

    def test_spread_surface_matches_row_by_row(self, tmp_path, params_file):
        pi11_grid, inv_grid = [0.0, 0.1, 0.3], [-40.0, 0.0, 25.5]
        out = tmp_path / "out"
        assert main(["solve", "--params", str(params_file), "--out", str(out),
                     "--config", str(write_config(
                         tmp_path, pi11_grid=pi11_grid,
                         inventory_grid=inv_grid))]) == 0
        p = load_params(params_file)
        arr = p.arrivals
        tables = [backward_pass(MarketParams(
            grid=p.grid, moments=p.moments, lam=p.lam,
            arrivals=ArrivalSchedule(
                pi_plus=arr.pi_plus, pi_minus=arr.pi_minus,
                pi_joint=np.clip(pi11, np.maximum(
                    arr.pi_plus + arr.pi_minus - 1.0, 0.0),
                    np.minimum(arr.pi_plus, arr.pi_minus)))))
            for pi11 in pi11_grid]
        want = io.StringIO(newline="")
        w = csv.writer(want)
        w.writerow(["k"] + [f"spread_pi11_{pi11}_I_{I}"
                            for pi11 in pi11_grid for I in inv_grid])
        for k in range(p.grid.n_steps):
            row = [k]
            for t in tables:
                for I in inv_grid:
                    Lp, Lm = optimal_spreads(t, k, I)
                    row.append(f"{Lp + Lm:.10f}")
            w.writerow(row)
        assert (out / "spread_surface.csv").read_bytes() == \
            want.getvalue().encode()

    def test_each_distinct_pi_joint_solved_once(self, tmp_path, params_file,
                                                monkeypatch):
        # the file's pi_joint is 0; 0.3, 0.5 and 0.2 all clip to
        # min(pi_plus, pi_minus) = 0.2
        calls = []

        def counted(p):
            calls.append(p.arrivals.pi_joint[0])
            return backward_pass(p)

        monkeypatch.setattr("hfmm.cli.backward_pass", counted)
        out = tmp_path / "out"
        assert main(["solve", "--params", str(params_file), "--out", str(out),
                     "--config", str(write_config(
                         tmp_path, pi11_grid=[0.0, 0.3, 0.5, 0.2]))]) == 0
        assert calls == [0.0, 0.2]
        _, data = read_surface(out / "spread_surface.csv")
        assert (data[:, 2:] == data[:, [1]]).all()

    def test_idempotent_reruns(self, tmp_path, params_file):
        out = tmp_path / "out"
        main(["solve", "--params", str(params_file), "--out", str(out)])
        first = (out / "spread_surface.csv").read_bytes()
        main(["solve", "--params", str(params_file), "--out", str(out)])
        assert (out / "spread_surface.csv").read_bytes() == first


class TestSimulate:
    def test_summary_contents(self, tmp_path, params_file):
        out = tmp_path / "sim"
        assert main(["simulate", "--params", str(params_file),
                     "--out", str(out),
                     "--config", str(write_config(tmp_path))]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_paths"] == 200
        assert summary["seed"] == 12345
        assert summary["se"] > 0
        assert abs(summary["z"]) < 6
        with open(out / "episode0.csv") as fh:
            assert len(list(csv.reader(fh))) == 31  # header + 30 steps

    def test_single_path_has_no_se(self, tmp_path, params_file):
        out = tmp_path / "sim1"
        cfgp = write_config(tmp_path, n_paths=1)
        assert main(["simulate", "--params", str(params_file),
                     "--out", str(out), "--config", str(cfgp)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["se"] is None and summary["z"] is None

    def test_episode_is_monte_carlo_path_zero(self, tmp_path, params_file):
        # one path: summary.json's mean is that path's terminal objective
        out = tmp_path / "sim1"
        cfgp = write_config(tmp_path, n_paths=1)
        assert main(["simulate", "--params", str(params_file),
                     "--out", str(out), "--config", str(cfgp)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        with open(out / "episode0.csv") as fh:
            row = list(csv.DictReader(fh))[-1]
        last = {k: float(v) for k, v in row.items()}
        S = last["S"]  # the CLI's price path is constant
        W = (last["W"] + (S + last["L_plus"]) * last["Q_plus"]
             - (S - last["L_minus"]) * last["Q_minus"])
        I = last["I"] + last["Q_minus"] - last["Q_plus"]
        objective = W + S * I - 0.0005 * I ** 2
        assert objective == pytest.approx(summary["mean_objective"],
                                          rel=1e-9)

    def test_env_seed_and_flag_precedence(self, tmp_path, params_file,
                                          monkeypatch):
        monkeypatch.setenv("HFMM_SEED", "999")
        out = tmp_path / "env"
        main(["simulate", "--params", str(params_file), "--out", str(out),
              "--config", str(write_config(tmp_path))])
        assert json.loads((out / "summary.json").read_text())["seed"] == 999
        out2 = tmp_path / "flag"
        main(["simulate", "--params", str(params_file), "--out", str(out2),
              "--seed", "7", "--config", str(write_config(tmp_path))])
        assert json.loads((out2 / "summary.json").read_text())["seed"] == 7


class TestPipeline:
    def _estimate(self, tmp_path, n_days):
        events_dir = make_days(tmp_path, n_days)
        params_dir = tmp_path / "calib"
        code = main(["estimate", "--events", str(events_dir),
                     "--out", str(params_dir),
                     "--config", str(write_config(tmp_path))])
        assert code == 0
        return events_dir, params_dir

    def test_window_plus_one_day_gives_one_file(self, tmp_path):
        _, params_dir = self._estimate(tmp_path, 21)
        files = sorted(params_dir.glob("params_day_*.yaml"))
        assert [f.name for f in files] == ["params_day_0020.yaml"]

    def test_rerun_clears_an_earlier_runs_files(self, tmp_path):
        events_dir = make_days(tmp_path, 25)
        params_dir = tmp_path / "calib"
        notes = params_dir / "notes.txt"
        for window in (20, 22):
            if window == 22:
                notes.write_text("not estimate's")
            assert main(["estimate", "--events", str(events_dir),
                         "--out", str(params_dir), "--config",
                         str(write_config(tmp_path, window=window))]) == 0
        assert sorted(f.name for f in params_dir.glob("params_day_*")) == [
            f"params_day_{d:04d}.yaml" for d in (22, 23, 24)]
        assert (params_dir / "break_flags.json").exists()
        assert notes.read_text() == "not estimate's"
        out = tmp_path / "bt"
        assert main(["backtest", "--events", str(events_dir),
                     "--params", str(params_dir), "--out", str(out),
                     "--config", str(write_config(tmp_path))]) == 0
        with open(out / "day_results.csv") as fh:
            assert {r["day"] for r in csv.DictReader(fh)} == {
                "22", "23", "24"}
        # with no more days than the window, no break screen runs
        assert main(["estimate", "--events", str(events_dir),
                     "--out", str(params_dir), "--config",
                     str(write_config(tmp_path, window=25))]) == 0
        assert sorted(p.name for p in params_dir.iterdir()) == ["notes.txt"]

    def test_estimate_backtest_report(self, tmp_path):
        events_dir, params_dir = self._estimate(tmp_path, 26)
        files = sorted(params_dir.glob("params_day_*.yaml"))
        assert len(files) == 6
        assert (params_dir / "break_flags.json").exists()

        out = tmp_path / "bt"
        assert main(["backtest", "--events", str(events_dir),
                     "--params", str(params_dir), "--out", str(out),
                     "--config", str(write_config(tmp_path))]) == 0
        day_csv = out / "day_results.csv"
        with open(day_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert {r["policy"] for r in rows} == {
            "optimal_forecast", "optimal_martingale", "fixed_level_1",
            "fixed_level_2", "fixed_level_3"}
        assert {r["day"] for r in rows} == {str(i) for i in range(20, 26)}

        # byte-identical rerun and worker-count independence
        out2 = tmp_path / "bt2"
        main(["backtest", "--events", str(events_dir),
              "--params", str(params_dir), "--out", str(out2),
              "--config", str(write_config(tmp_path))])
        assert (out2 / "day_results.csv").read_bytes() == \
            day_csv.read_bytes()
        out3 = tmp_path / "bt3"
        main(["backtest", "--events", str(events_dir),
              "--params", str(params_dir), "--out", str(out3),
              "--workers", "2", "--config", str(write_config(tmp_path))])
        assert (out3 / "day_results.csv").read_bytes() == \
            day_csv.read_bytes()

        assert main(["report", "--out", str(out),
                     "--config", str(write_config(tmp_path))]) == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report["policies"]) == {
            "optimal_forecast", "optimal_martingale", "fixed_level_1",
            "fixed_level_2", "fixed_level_3"}
        block = report["policies"]["optimal_martingale"]["all"]
        assert block["n_days"] == 6
        assert "ci_bootstrap" in block
        with open(out / "report.csv") as fh:
            assert len(list(csv.reader(fh))) == 11  # header + 5 x 2

    def test_backtest_drops_each_days_events_once_replayed(
            self, tmp_path, monkeypatch):
        events_dir, params_dir = self._estimate(tmp_path, 22)
        read, run_day, refs = hfmm.cli._read_events, bt.run_day, []

        def read_and_watch(path):
            events = read(path)
            refs.append(weakref.ref(events))
            return events

        def run_day_after_release(*args, **kwargs):
            # the day's event array is gone before its first run
            assert refs and all(ref() is None for ref in refs)
            return run_day(*args, **kwargs)

        monkeypatch.setattr("hfmm.cli._read_events", read_and_watch)
        monkeypatch.setattr(bt, "run_day", run_day_after_release)
        out = tmp_path / "bt"
        assert main(["backtest", "--events", str(events_dir),
                     "--params", str(params_dir), "--out", str(out),
                     "--config", str(write_config(tmp_path))]) == 0
        assert len(refs) == 2

    def test_csv_and_binary_days_give_the_same_run(self, tmp_path):
        """The same days as .csv and as .bin event files give byte-identical
        params files, break flags, day results and reports."""
        bin_dir = make_days(tmp_path, 8)
        csv_dir = tmp_path / "csv_events"
        csv_dir.mkdir()
        for path in bin_dir.iterdir():
            write_events_csv(read_events_binary(path),
                             csv_dir / f"{path.stem}.csv")
        outputs = []
        for events in (bin_dir, csv_dir):
            run = tmp_path / f"run_{events.name}"
            config = str(write_config(tmp_path, window=3, break_flags=str(
                run / "calib" / "break_flags.json")))
            assert main(["estimate", "--events", str(events),
                         "--out", str(run / "calib"),
                         "--config", config]) == 0
            assert main(["backtest", "--events", str(events),
                         "--params", str(run / "calib"),
                         "--out", str(run / "bt"), "--config", config]) == 0
            assert main(["report", "--out", str(run / "bt"),
                         "--config", config]) == 0
            outputs.append({p.relative_to(run): p.read_bytes()
                            for p in sorted(run.rglob("*")) if p.is_file()})
        assert sorted(map(str, outputs[0])) == [
            "bt/day_results.csv", "bt/report.csv", "bt/report.json",
            "calib/break_flags.json"] + [
            f"calib/params_day_{d:04d}.yaml" for d in range(3, 8)]
        assert outputs[0] == outputs[1]


class NotAPolicy:
    """Passes for a Policy until the backtest calls dataclasses.replace on
    it, which raises TypeError: a stand-in for a programming error."""

    def __init__(self, name):
        self.name, self.level = name, 0


def scramble(path):
    """Rewrite an event file in reverse time order, which replay rejects."""
    write_events_binary(read_events_binary(path)[::-1], path)


class TestFailedDays:
    def test_failed_day_shifts_no_window(self, tmp_path):
        """With day 2 rejected, day i's params come from the last 20
        estimated days before i, under day i's own file index."""
        events_dir = make_days(tmp_path, 24)
        scramble(events_dir / "day_0002.bin")
        out = tmp_path / "calib"
        assert main(["estimate", "--events", str(events_dir), "--out",
                     str(out), "--config", str(write_config(tmp_path))]) == 0
        names = sorted(f.name for f in out.glob("params_day_*.yaml"))
        assert names == ["params_day_0021.yaml", "params_day_0022.yaml",
                         "params_day_0023.yaml"]

        grid = TimeGrid(n_steps=N_STEPS, session_start_ns=10 ** 9)
        store = [estimate_day(replay(read_events_binary(
                     events_dir / f"day_{d:04d}.bin"), grid), d)
                 for d in range(24) if d != 2]
        for i in (21, 22, 23):
            prior = [s for s in store if s.day_id < i][-20:]
            assert i not in [s.day_id for s in prior]
            expect = tmp_path / f"expect_{i}.yaml"
            save_params(rolling_params(20, prior, window=20,
                                       session_start_ns=10 ** 9), expect)
            assert (out / f"params_day_{i:04d}.yaml").read_bytes() == \
                expect.read_bytes()

    def test_window_without_valid_interval_fails_one_file(self, tmp_path,
                                                          capsys):
        """Day 0 has no sell MO, so no valid bid-side interval: day 20's
        window (days 0-19) cannot be calibrated, day 21's can."""
        events_dir = make_days(tmp_path, 22)
        events, _ = generate_day(SyntheticDayConfig(
            n_steps=N_STEPS, pi_minus=0.0, pi_joint=0.0), seed=999)
        write_events_binary(events, events_dir / "day_0000.bin")
        out = tmp_path / "calib"
        assert main(["estimate", "--events", str(events_dir), "--out",
                     str(out), "--config", str(write_config(tmp_path))]) == 0
        captured = capsys.readouterr()
        assert "params for day 20 failed: insufficient data" in captured.err
        assert "1 failures" in captured.out
        assert sorted(f.name for f in out.glob("params_day_*.yaml")) == [
            "params_day_0021.yaml"]

    @pytest.mark.parametrize("row,error", [
        ("1000,add,bid", "not enough values to unpack (expected 6, got 3)"),
        ("1000,add,bid,x,5,1", "invalid literal for int() with base 10: "
                               "'x'"),
        ("1000,ADD,bid,10000,5,1", "unknown kind 'ADD'"),
        ("1000,add,bid,4294967296,5,1",
         "price_ticks 4294967296 out of range")],
        ids=["short_row", "non_integer", "unknown_kind", "out_of_range"])
    def test_bad_csv_row_fails_its_day(self, tmp_path, capsys, row, error):
        events_dir = make_days(tmp_path, 22)
        (events_dir / "day_0000.bin").unlink()
        bad = events_dir / "day_0000.csv"
        bad.write_text("ts_ns,kind,side,price_ticks,size,order_ref\n"
                       f"0,add,bid,10000,100,1\n{row}\n")
        out = tmp_path / "calib"
        assert main(["estimate", "--events", str(events_dir), "--out",
                     str(out), "--config", str(write_config(tmp_path))]) == 0
        captured = capsys.readouterr()
        assert f"day day_0000.csv failed: {bad}: line 3: {error}" in \
            captured.err
        assert "estimated 21 days" in captured.out
        assert "1 failures" in captured.out
        assert sorted(f.name for f in out.glob("params_day_*.yaml")) == [
            "params_day_0021.yaml"]

    @pytest.mark.parametrize("field,rule", [
        ("pi_plus", "pi_plus[3] not in (0,1]: 1.7"),
        ("lambda", "lambda must be finite and >= 0 (got nan)")],
        ids=["pi_plus", "lambda"])
    def test_invalid_params_file_fails_its_day(self, tmp_path, capsys,
                                               field, rule):
        """A day's params file that breaks a model rule fails that day,
        naming the file and the rule, under any worker count."""
        events_dir, params_dir = TestPipeline()._estimate(tmp_path, 22)
        bad = params_dir / "params_day_0021.yaml"
        if field == "pi_plus":
            p = load_params(bad)
            pi_plus = p.arrivals.pi_plus.copy()
            pi_plus[3] = 1.7
            save_params(replace(p, arrivals=replace(p.arrivals,
                                                    pi_plus=pi_plus)), bad)
        else:
            text = bad.read_text()
            bad.write_text(re.sub(r"(?m)^lambda: .*$", "lambda: .nan", text))
        outputs = []
        for workers in ("1", "2"):
            out = tmp_path / f"bt{workers}"
            assert main(["backtest", "--events", str(events_dir),
                         "--params", str(params_dir), "--out", str(out),
                         "--workers", workers,
                         "--config", str(write_config(tmp_path))]) == 0
            err = capsys.readouterr().err
            assert f"day 21 failed: ValueError('{bad}: " in err
            assert rule in err
            outputs.append((out / "day_results.csv").read_bytes())
        assert outputs[0] == outputs[1]
        with open(tmp_path / "bt1" / "day_results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["day"]: r["incomplete"] for r in rows} == {"20": "0",
                                                             "21": "1"}

    def test_bad_day_same_for_any_worker_count(self, tmp_path, capsys):
        events_dir, params_dir = TestPipeline()._estimate(tmp_path, 22)
        scramble(events_dir / "day_0021.bin")
        outputs = []
        for workers in ("1", "2"):
            out = tmp_path / f"bt{workers}"
            assert main(["backtest", "--events", str(events_dir),
                         "--params", str(params_dir), "--out", str(out),
                         "--workers", workers,
                         "--config", str(write_config(tmp_path))]) == 0
            assert "day 21 failed" in capsys.readouterr().err
            outputs.append((out / "day_results.csv").read_bytes())
        assert outputs[0] == outputs[1]
        with open(tmp_path / "bt1" / "day_results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["day"]: r["incomplete"] for r in rows} == {"20": "0",
                                                             "21": "1"}

        # a day that fails alone fails the command
        (params_dir / "params_day_0020.yaml").unlink()
        assert main(["backtest", "--events", str(events_dir),
                     "--params", str(params_dir), "--out",
                     str(tmp_path / "bt3"), "--workers", "2",
                     "--config", str(write_config(tmp_path))]) == 1

    def test_broken_params_file_gives_incomplete_row(self, tmp_path, capsys):
        events_dir, params_dir = TestPipeline()._estimate(tmp_path, 22)
        broken = params_dir / "params_day_0021.yaml"
        broken.write_text(broken.read_text().replace("  n_steps:", "  steps:"))
        out = tmp_path / "bt"
        assert main(["backtest", "--events", str(events_dir),
                     "--params", str(params_dir), "--out", str(out),
                     "--config", str(write_config(tmp_path))]) == 0
        err = capsys.readouterr().err
        assert "day 21 failed" in err and "missing key 'n_steps'" in err
        with open(out / "day_results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["day"]: r["incomplete"] for r in rows} == {"20": "0",
                                                             "21": "1"}

    def test_programming_error_ends_backtest_under_any_workers(
            self, tmp_path, monkeypatch):
        events_dir, params_dir = TestPipeline()._estimate(tmp_path, 22)
        monkeypatch.setattr(bt.Policy, "named", NotAPolicy)
        for workers in ("1", "2"):
            out = tmp_path / f"bt{workers}"
            with pytest.raises(TypeError, match="dataclass"):
                main(["backtest", "--events", str(events_dir),
                      "--params", str(params_dir), "--out", str(out),
                      "--workers", workers,
                      "--config", str(write_config(tmp_path))])
            assert not (out / "day_results.csv").exists()

    def test_programming_error_ends_estimate(self, tmp_path, monkeypatch):
        events_dir = make_days(tmp_path, 2)

        def broken(*args, **kwargs):
            raise TypeError("not a day error")

        monkeypatch.setattr("hfmm.cli.estimate_day", broken)
        with pytest.raises(TypeError, match="not a day error"):
            main(["estimate", "--events", str(events_dir),
                  "--out", str(tmp_path / "calib"),
                  "--config", str(write_config(tmp_path))])

    def test_unknown_policy_rejected_before_any_day(self, tmp_path, capsys,
                                                    monkeypatch):
        events_dir = make_days(tmp_path, 1)
        params_dir = tmp_path / "calib"
        params_dir.mkdir()
        save_params(symmetric_params(100.0, 5.0, 0.2, 0.0, 0.0005, N_STEPS),
                    params_dir / "params_day_0000.yaml")

        def no_reads(path):
            raise AssertionError(f"read {path}")

        monkeypatch.setattr("hfmm.cli._read_events", no_reads)
        out = tmp_path / "bt"
        # fixed_level_01 was read as a second fixed_level_1, two rows a day;
        # replay keeps 20 levels a side, so fixed_level_21 quoted level 20
        written = "level must be >= 1, written without leading zeros"
        for policies, why in (
                ("optimal_martingale,fixed_level_0",
                 f"policy 'fixed_level_0': {written}"),
                ("fixed_level_1,fixed_level_01",
                 f"policy 'fixed_level_01': {written}"),
                ("fixed_level_1,fixed_level_21",
                 "the replay keeps 20 levels a side")):
            assert main(["backtest", "--events", str(events_dir),
                         "--params", str(params_dir), "--out", str(out),
                         "--policies", policies,
                         "--config", str(write_config(tmp_path))]) == 1
            bad = policies.rpartition(",")[2]
            assert (f"backtest needs a policy name policies[1], not {bad!r}: "
                    f"{why}\n") == capsys.readouterr().err
            assert not out.exists()

    def test_report_counts_only_excluded_days_it_has(self, tmp_path):
        out = tmp_path / "bt"
        out.mkdir()
        with open(out / "day_results.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["day", "policy", "objective", "liquidation_value",
                        "W_T", "I_T", "S_T", "fills", "incomplete"])
            for day in range(20, 26):
                w.writerow([day, "fixed_level_1", float(day), float(day),
                            0.0, 0.0, 1.0, 0, 0])
        (out / "break_flags.json").write_text(
            json.dumps({"flagged": [3, 21, 24]}))
        assert main(["report", "--out", str(out),
                     "--config", str(write_config(tmp_path))]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["n_excluded"] == 2
        assert report["policies"]["fixed_level_1"]["filtered"]["n_days"] == 4

    @pytest.mark.parametrize("name,text,error", [
        ("day_results.csv", "day,policy,objective\n20,fixed_level_1,1.0,2.0\n",
         "line 2: not enough values to unpack (expected 9, got 4)"),
        ("day_results.csv", "day\n20,fixed_level_1,x,1,0,0,1,0,0\n",
         "line 2: could not convert string to float: 'x'"),
        ("break_flags.json", "{bad", "Expecting property name"),
        ("break_flags.json", "[3, 21]", 'expected {"flagged": [day, ...]}'),
        ("break_flags.json", '{"flagged": "21"}',
         'expected {"flagged": [day, ...]}'),
        ("break_flags.json", '{"flagged": ["21", 24]}',
         'expected {"flagged": [day, ...]}'),
        ("break_flags.json", '{"flagged": [true]}',
         'expected {"flagged": [day, ...]}')],
        ids=["short_row", "non_number", "not_json", "not_a_mapping",
             "not_a_list", "not_day_numbers", "boolean_day"])
    def test_report_malformed_input_named(self, tmp_path, capsys, name,
                                          text, error):
        out = tmp_path / "bt"
        out.mkdir()
        (out / "day_results.csv").write_text(
            "day,policy,objective,liquidation_value,W_T,I_T,S_T,fills,"
            "incomplete\n20,fixed_level_1,1.0,1.0,0.0,0.0,1.0,0,0\n")
        (out / name).write_text(text)
        assert main(["report", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{out / name}: {error}" in err
        assert not (out / "report.json").exists()


def test_readme_parameter_example_solves(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = readme.split("### Parameter files", 1)[1].split(
        "```yaml\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "params.yaml"
    path.write_text(example)
    assert load_params(path).grid.n_steps == 60
    out = tmp_path / "out"
    assert main(["solve", "--params", str(path), "--out", str(out)]) == 0
    assert (out / "spread_surface.csv").exists()


def test_readme_config_keys_match_the_table():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Configuration", 1)[1].split("###", 1)[0]
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in section.splitlines() if line.startswith("| `")]
    documented = {row[0].strip("`"): (row[1], row[3], row[4])
                  for row in rows}
    assert documented == {
        key: (kind, " and ".join(f"{op} {b}" for op, b in bounds),
              f"`--{key}`, `HFMM_{key.upper()}`" if flag else "")
        for key, (kind, _, bounds, flag) in CONFIG_KEYS.items()}


def test_cli_import_leaves_scipy_unloaded(tmp_path, params_file):
    # scipy is a test-only dependency: importing the CLI, which every
    # command does, and a whole simulate run must not load it
    env = dict(os.environ, PYTHONPATH=str(Path(hfmm.__file__).parents[1]))
    code = ("import sys, hfmm.cli; imported = 'scipy' in sys.modules; "
            "code = hfmm.cli.main(sys.argv[1:]); "
            "print(imported, code, 'scipy' in sys.modules)")
    out = subprocess.run(
        [sys.executable, "-c", code, "simulate", "--params", str(params_file),
         "--out", str(tmp_path / "sim"),
         "--config", str(write_config(tmp_path))],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "False 0 False"
    assert (tmp_path / "sim" / "summary.json").exists()


def test_cli_import_leaves_process_pool_unloaded(tmp_path):
    # concurrent.futures, and multiprocessing with it, is loaded only for a
    # backtest with --workers > 1, not by importing the CLI or a serial run
    events_dir, params_dir = TestPipeline()._estimate(tmp_path, 21)
    env = dict(os.environ, PYTHONPATH=str(Path(hfmm.__file__).parents[1]))
    code = ("import sys, hfmm.cli; "
            "imported = 'concurrent.futures' in sys.modules; "
            "code = hfmm.cli.main(sys.argv[1:]); "
            "print(imported, code, 'concurrent.futures' in sys.modules)")
    out = subprocess.run(
        [sys.executable, "-c", code, "backtest", "--events", str(events_dir),
         "--params", str(params_dir), "--out", str(tmp_path / "bt"),
         "--workers", "1", "--config", str(write_config(tmp_path))],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "False 0 False"
    assert (tmp_path / "bt" / "day_results.csv").exists()
