import csv
import json

import numpy as np
import pytest
import yaml

from hfmm.cli import main
from hfmm.estimation import estimate_day, rolling_params
from hfmm.lob import read_events_binary, replay, write_events_binary
from hfmm.model import TimeGrid, save_params, symmetric_params
from hfmm.synthetic import SyntheticDayConfig, generate_day

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


def read_surface(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    data = np.array([[float(x) for x in r[1:]] for r in rows[1:]])
    return header[1:], data


class TestExitCodes:
    def test_missing_params_file(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--params", str(tmp_path / "nope.yaml"),
                  "--out", str(tmp_path / "out")])
        assert exc.value.code == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.yaml")]) == 2

    def test_missing_events_dir(self, tmp_path):
        assert main(["estimate", "--events", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "out"),
                     "--config", str(write_config(tmp_path))]) == 2

    def test_report_without_results(self, tmp_path):
        assert main(["report", "--out", str(tmp_path / "empty")]) == 3

    def test_invalid_params_rejected(self, tmp_path, params_file):
        text = params_file.read_text().replace("0.2", "1.7")
        bad = tmp_path / "bad.yaml"
        bad.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--params", str(bad),
                  "--out", str(tmp_path / "out")])
        assert exc.value.code == 1


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
