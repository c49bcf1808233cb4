"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest hfmmbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pytest  # noqa: E402
import yaml  # noqa: E402

import hfmm.backtest  # noqa: E402
import hfmm.cli  # noqa: E402
import hfmm.lob  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def span(sid, parent, start, end, name="x", **counters):
    return {"id": sid, "parent": parent, "name": name, "rid": None,
            "start": start, "end": end, **counters}


# ---------------------------------------------------------------------------
# Self-time arithmetic and trace accounting
# ---------------------------------------------------------------------------

def test_self_time_is_span_minus_children():
    spans = [span(1, None, 0, 100), span(2, 1, 10, 40), span(3, 2, 20, 30),
             span(4, 1, 50, 60)]
    assert tracer.self_times(spans) == {1: 60, 2: 20, 3: 10, 4: 10}
    assert tracer.accounting_errors(spans) == []


def test_overlapping_children_are_subtracted_once_and_flagged():
    spans = [span(1, None, 0, 100), span(2, 1, 10, 50), span(3, 1, 40, 60)]
    assert tracer.self_times(spans)[1] == 50
    assert len(tracer.accounting_errors(spans)) == 1


def test_child_outside_parent_and_missing_parent_are_flagged():
    escaped = [span(1, None, 0, 100), span(2, 1, 90, 120)]
    assert tracer.self_times(escaped)[1] == 90
    assert len(tracer.accounting_errors(escaped)) == 1
    orphan = [span(1, None, 0, 100), span(2, 7, 10, 20)]
    assert any("missing parent" in p for p in tracer.accounting_errors(orphan))


def test_layer_metrics_sum_calls_self_time_and_counters():
    ms = 1_000_000
    spans = [span(1, None, 0, 100 * ms, name="cli.backtest"),
             span(2, 1, 0, 10 * ms, name="cli.startup"),
             span(3, 1, 20 * ms, 60 * ms, name="lob.replay", events=4000),
             span(4, 1, 60 * ms, 70 * ms, name="backtest.run_day.a",
                  fills=3, quotes=10),
             span(5, 1, 70 * ms, 80 * ms, name="backtest.run_day.b",
                  fills=1, quotes=10)]
    m = tracer.layer_metrics(spans, {"lob.fill_quantity": 7})
    assert m["cli.startup_s"] == pytest.approx(0.010)
    assert m["cli.backtest.self_s"] == pytest.approx(0.030)
    assert m["cli.self_s"] == pytest.approx(0.030)
    assert m["lob.replay.calls"] == 1
    assert m["lob.replay.us_per_event"] == pytest.approx(10.0)
    assert m["lob.fill_quantity.calls"] == 7
    assert m["backtest.run_day.calls"] == 2
    assert m["backtest.run_day.fill_ratio"] == pytest.approx(0.2)
    assert m["backtest.run_day.a.fill_ratio"] == pytest.approx(0.3)
    assert m["backtest.run_day.b.fill_ratio"] == pytest.approx(0.1)
    assert "estimation.estimate_day.valid_ratio" not in m
    total = sum(v for k, v in m.items()
                if k.endswith("self_s") and k != "cli.self_s")
    assert total + m["cli.startup_s"] == pytest.approx(0.100)


def test_trace_overhead_pairs_neighbours_across_a_speed_change():
    # traced at even positions, 1 s dearer; the machine slows by 3 s midway
    walls = [11, 10, 11, 10, 14, 13, 14]
    assert run.trace_overhead(walls) == 1.0
    assert run.trace_overhead([11, 10, 11]) == 1.0


def test_install_wraps_every_binding_and_restores():
    original, original_replay = hfmm.lob.fill_quantity, hfmm.lob.replay
    t = tracer.Tracer()
    restore = t.install(tracer.CLI_SPECS)
    try:
        assert hfmm.backtest.fill_quantity is not original
        assert hfmm.cli.replay.__wrapped__ is original_replay
        hfmm.backtest.fill_quantity(100, 5, "ask", hfmm.lob.IntervalFlow())
        assert t.counts["lob.fill_quantity"] == 1
    finally:
        restore()
    assert hfmm.backtest.fill_quantity is original
    assert hfmm.cli.replay is original_replay


# ---------------------------------------------------------------------------
# Percentile rule
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, pct", [(1, None), (19, None), (20, 50),
                                    (99, 50), (100, 90), (199, 90),
                                    (200, 95), (999, 95), (1000, 99),
                                    (9999, 99), (10000, 99.9)])
def test_tail_percentile_leaves_ten_samples_beyond(n, pct):
    assert stats.tail_percentile(n) == pct


def test_tail_summary_value():
    assert stats.tail_summary(list(range(1, 101))) == (90, 90.0)
    assert stats.tail_summary([1.0] * 19) is None


def test_quartile_spread_matches_statistics_quantiles():
    assert stats.quartile_spread([1, 2, 3, 4, 5]) == pytest.approx(
        (4.5 - 1.5) / 3)


# ---------------------------------------------------------------------------
# Smoke runs at minimal size
# ---------------------------------------------------------------------------

# step-0 alpha, g and spreads of ``solve`` on the 300-step day
TINY_DAY_SOLVE = (-7.232135558781641e-05, 73833.1623739687, 5.0373035883,
                  5.0284860611, 5.0195746332, 5.0014654424)
# g0 of the 20-step market, and the mean of se * sqrt(n_paths) over seeds 1-7
TINY_MC_G0_SD = (4752.565704389423, 1546.8)
TINY = {"year": lambda: workloads.Year(n_days=7, n_steps=60, window=2,
                                       pinned=None),
        "bigday": lambda: workloads.BigDay(n_steps=300,
                                           solve_reference=TINY_DAY_SOLVE,
                                           pinned=None),
        "mc": lambda: workloads.MonteCarlo(n_paths=5000, n_steps=20,
                                           g0_sd=TINY_MC_G0_SD, pinned=None)}


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_untraced(name, tmp_path):
    result = run.run_workload(TINY[name](), seed=3, seconds=0, trace=False,
                              work=tmp_path / name)
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0
    assert len(result["iterations"]) == 2
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(v > 0 for v in result["metrics"].values())


def test_peak_rss_is_the_commands_not_the_benchmarks(tmp_path):
    ballast = b"x" * (192 << 20)  # lifts this process's peak above 192 MB
    result = run.run_workload(TINY["mc"](), seed=3, seconds=0, trace=False,
                              work=tmp_path / "mc")
    del ballast
    assert 20 < result["metrics"]["peak_rss_mb"] < 180


@pytest.mark.parametrize("name", ["year", "mc"])
def test_smoke_traced(name, tmp_path):
    result = run.run_workload(TINY[name](), seed=3, seconds=0, trace=True,
                              work=tmp_path / name)
    assert result["problems"] == []
    assert result["correct"]
    m = result["metrics"]
    assert set(m) == set(run.PER_LAYER)
    assert m["cli.startup_s"] > 0 and m["solver.backward_pass.calls"] > 0
    if name == "year":
        assert m["lob.replay.calls"] == 7 + 5
        assert m["estimation.estimate_day.calls"] == 7
        assert m["backtest.run_day.calls"] == 5 * len(workloads.POLICIES)
        assert m["synthetic.generate_day.calls"] == 7
        assert 0 < m["estimation.estimate_day.valid_ratio"] <= 1
    else:
        assert m["lob.replay.calls"] == 0
        assert m["simulator.monte_carlo_value.path_steps"] == 5000 * 20
    rids = {s["rid"] for s in result["spans"]
            if s["name"] == "estimation.estimate_day"}
    assert rids == (set(range(7)) if name == "year" else set())


# ---------------------------------------------------------------------------
# The output checks catch wrong outputs
# ---------------------------------------------------------------------------

def run_cli(wl, inputs, out):
    for _, args in wl.commands(inputs, out):
        assert hfmm.cli.main(args) == 0


def test_year_check_catches_bad_params_and_missing_rows(tmp_path):
    wl = TINY["year"]()
    inputs = wl.setup(tmp_path / "in", seed=5)
    out = tmp_path / "out"
    run_cli(wl, inputs, out)
    assert wl.check(inputs, out).failed == 0

    path = out / "cal" / "params_day_0004.yaml"
    doc = yaml.safe_load(path.read_text())
    doc["moments"]["plus"]["mu_c"] *= 2
    path.write_text(yaml.safe_dump(doc))
    rows = (out / "bt" / "day_results.csv").read_text().splitlines()
    (out / "bt" / "day_results.csv").write_text("\n".join(rows[:-1]) + "\n")
    outcome = wl.check(inputs, out)
    assert outcome.failed == 2
    assert any("params_day_0004" in p for p in outcome.problems)


def test_bigday_check_catches_a_wrong_value_function(tmp_path):
    wl = TINY["bigday"]()
    inputs = wl.setup(tmp_path / "in", seed=5)
    out = tmp_path / "out"
    run_cli(wl, inputs, out)
    assert wl.check(inputs, out).failed == 0
    path = out / "solve" / "coefficients.csv"
    text = path.read_text()
    path.write_text(text.replace(",73833.16", ",73833.17", 1))
    outcome = wl.check(inputs, out)
    assert outcome.failed == 1
    assert "step 0" in outcome.problems[0]


def test_year_check_catches_a_wrong_objective(tmp_path):
    wl = TINY["year"]()
    inputs = wl.setup(tmp_path / "in", seed=5)
    out = tmp_path / "out"
    run_cli(wl, inputs, out)
    path = out / "bt" / "day_results.csv"
    rows = path.read_text().splitlines()
    cells = rows[1].split(",")
    cells[2] = repr(float(cells[2]) + 1.0)
    path.write_text("\n".join([rows[0], ",".join(cells), *rows[2:]]) + "\n")
    outcome = wl.check(inputs, out)
    assert outcome.failed == 1
    assert "objective" in outcome.problems[0]


def pinned_rows(name):
    return [list(r) for r in workloads.PINNED[name]["day_results"]]


@pytest.mark.parametrize("name, lam, n_steps", [("year", 0.01, 2000),
                                                ("bigday", 0.0005, 19800)])
def test_day_row_invariants(name, lam, n_steps):
    assert workloads.SyntheticDayConfig().lam == 0.0005
    for row in pinned_rows(name):
        assert workloads.day_row_problems(row, lam, n_steps) == []
    row = pinned_rows(name)[0]
    objective, fills = row[2], row[7]
    for k, bad in ((2, objective * (1 + 1e-6)), (7, 2 * n_steps + 1),
                   (7, -1), (5, 0.5), (8, 1)):
        wrong = list(row)
        wrong[k] = bad
        assert workloads.day_row_problems(wrong, lam, n_steps), (k, bad)


def test_close_to_pinned_values():
    rows = pinned_rows("bigday")
    assert workloads.close_to(rows, workloads.PINNED["bigday"]["day_results"])
    rows[2][4] *= 1 + 1e-8
    assert not workloads.close_to(rows,
                                  workloads.PINNED["bigday"]["day_results"])
    assert not workloads.close_to(rows[:-1],
                                  workloads.PINNED["bigday"]["day_results"])
    report = json.loads(json.dumps(workloads.PINNED["year"]["report"]))
    assert workloads.close_to(report, workloads.PINNED["year"]["report"])
    report["policies"]["fixed_level_1"]["all"]["ci_bootstrap"][0] += 1.0
    assert not workloads.close_to(report, workloads.PINNED["year"]["report"])


def mc_check(tmp_path, seed, **summary):
    (tmp_path / "sim").mkdir(exist_ok=True)
    pinned = workloads.PINNED["mc"]
    doc = {"n_paths": 40_000, "seed": seed, "g0": workloads.MC_G0,
           "z": 0.0, **pinned, **summary}
    (tmp_path / "sim" / "summary.json").write_text(json.dumps(doc))
    return workloads.MonteCarlo().check({"seed": seed}, tmp_path)


def test_mc_check_recomputes_z_and_sd_and_pins_seed_1(tmp_path):
    se = workloads.PINNED["mc"]["se"]
    mean = workloads.PINNED["mc"]["mean_objective"]
    assert mc_check(tmp_path, 1).failed == 0
    assert mc_check(tmp_path, 2).failed == 0
    # the program's own z is not trusted
    assert mc_check(tmp_path, 2, mean_objective=workloads.MC_G0 + 5 * se,
                    z=0.0).failed == 1
    # 18% of the paths dropped inflates se by 10%
    assert mc_check(tmp_path, 2, se=se * 1.105).failed == 1
    assert mc_check(tmp_path, 2, g0=workloads.MC_G0 * 1.01).failed == 1
    assert mc_check(tmp_path, 2, se=None).failed == 1
    # a value the seed pins, moved by far less than its standard error
    assert mc_check(tmp_path, 1, mean_objective=mean + se / 100).failed == 1
    assert mc_check(tmp_path, 2, mean_objective=mean + se / 100).failed == 0


def test_mc_check_passes_a_real_tiny_run(tmp_path):
    wl = TINY["mc"]()
    inputs = wl.setup(tmp_path / "in", seed=5)
    out = tmp_path / "out"
    run_cli(wl, inputs, out)
    assert wl.check(inputs, out).failed == 0


def test_run_without_sources_fails_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"),
         "--workload", "mc", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
