"""End-to-end acceptance suite: one test (and one pass/fail line) per
criterion, each pinned to explicit tolerances. Run with ``pytest -v`` to see
the per-criterion verdict lines."""

import math
import time

import numpy as np
import pytest

from hfmm.backtest import Policy, run_day, subsample_bootstrap_ci
from hfmm.estimation import daily_moments, estimate_day, rolling_params
from hfmm.lob import replay, write_events_binary
from hfmm.model import DemandMoments, MarketParams
from hfmm.simulator import (DemandDistribution, PriceModel, SimMarket,
                            TwoPointIndependent, monte_carlo_values)
from hfmm.solver import backward_pass, optimal_spreads
from hfmm.synthetic import (SyntheticDayConfig, generate_day,
                            true_market_params)

from conftest import PerturbedPolicy, random_valid_params, symmetric_params
from demand_families import side_moments
from forecast_oracle import ForecastVector, forecast_shift
from sim_oracle import brute_force_value_small
from solver_oracle import inventory_threshold

_MOMENT_FIELDS = ("mu_c", "mu_c2", "mu_cp", "mu_c2p", "mu_c2p2",
                  "mu_p", "mu_p2")


def announce(num, text):
    print(f"criterion {num}: PASS - {text}")


def benchmark_params(pi_joint, n_steps):
    return symmetric_params(100.0, 5.0, 0.2, pi_joint, 0.0005, n_steps)


def benchmark_market(n_steps=50):
    """Symmetric two-point market whose moments feed the solver exactly."""
    demand = DemandDistribution(
        plus=TwoPointIndependent.from_mean_var(100.0, 400.0, 5.0, 1.0),
        minus=TwoPointIndependent.from_mean_var(100.0, 400.0, 5.0, 1.0))
    side = side_moments(demand.plus)
    base = benchmark_params(0.0, n_steps)
    params = MarketParams(grid=base.grid, arrivals=base.arrivals,
                          moments=DemandMoments(plus=side, minus=side),
                          lam=base.lam)
    market = SimMarket(params=params, demand=demand,
                       price=PriceModel(S0=100.0, vol=0.1))
    return params, market


def test_criterion_01_inventory_cost_negative_and_decreasing():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    modes = [None, None, None, "lower", "upper"]
    for i in range(500):
        p = random_valid_params(rng, force_pi_joint=modes[i % len(modes)],
                                lam=float(rng.uniform(1e-6, 0.01)))
        table = backward_pass(p)
        assert np.all(table.alpha < 0.0)
        assert np.all(np.diff(table.alpha) < 0.0)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    announce(1, f"500 random parameter sets: alpha < 0 and strictly "
                f"decreasing toward the horizon ({elapsed:.1f}s < 10s)")


def _balanced_two_sided_params(rng):
    """Random parameters meeting the positive-spread conditions: identical
    volume moments on both sides, equal arrival probabilities, and
    reservation prices independent of the volume slope per side."""
    n = int(rng.integers(1, 25))
    pi = rng.uniform(0.05, 0.95, size=n)
    lo = np.maximum(2 * pi - 1.0, 0.0)
    pi_j = lo + rng.uniform(0.0, 1.0, size=n) * (pi - lo)
    c = rng.uniform(1.0, 200.0, size=3)
    wc = rng.dirichlet(np.ones(3))
    mu_c = float(np.sum(wc * c))
    mu_c2 = float(np.sum(wc * c ** 2))

    def side():
        p_atoms = rng.uniform(0.5, 10.0, size=3)
        wp = rng.dirichlet(np.ones(3))
        mu_p = float(np.sum(wp * p_atoms))
        mu_p2 = float(np.sum(wp * p_atoms ** 2))
        from hfmm.model import SideMoments
        return SideMoments(mu_c=mu_c, mu_c2=mu_c2, mu_cp=mu_c * mu_p,
                           mu_c2p=mu_c2 * mu_p, mu_c2p2=mu_c2 * mu_p2,
                           mu_p=mu_p, mu_p2=mu_p2)

    from hfmm.model import ArrivalSchedule, TimeGrid
    return MarketParams(
        grid=TimeGrid(n_steps=n),
        arrivals=ArrivalSchedule(pi_plus=pi, pi_minus=pi.copy(),
                                 pi_joint=pi_j),
        moments=DemandMoments(plus=side(), minus=side()),
        lam=float(rng.uniform(0.0, 0.01)))


def test_criterion_02_positive_total_spread():
    rng = np.random.default_rng(202)
    for _ in range(500):
        p = _balanced_two_sided_params(rng)
        table = backward_pass(p)
        k = int(rng.integers(0, p.grid.n_steps))
        I = float(rng.uniform(-1e4, 1e4))
        Lp, Lm = optimal_spreads(table, k, I)
        assert Lp + Lm > 0.0
    announce(2, "500 balanced two-sided parameter draws: total spread "
                "positive at random inventories in [-1e4, 1e4]")


def test_criterion_03_spread_term_structure():
    n = 19800
    grids = {}
    for pj in (0.0, 0.05, 0.1, 0.2):
        table = backward_pass(benchmark_params(pj, n))
        grids[pj] = np.array([sum(optimal_spreads(table, k, 0.0))
                              for k in range(n)])
    for s in grids.values():
        assert np.all(np.diff(s) >= -1e-10)  # non-decreasing in k
    assert np.all(grids[0.0] > grids[0.05])
    assert np.all(grids[0.05] > grids[0.1])
    assert np.all(grids[0.1] > grids[0.2])
    # joint probability equal to both marginals: only simultaneous
    # arrivals remain and the spread is flat across the day
    assert np.ptp(grids[0.2]) < 1e-9
    assert grids[0.0][-1] == pytest.approx(5.2381, abs=1e-4)
    assert grids[0.05][-1] == pytest.approx(5.1807, abs=1e-4)
    announce(3, "19800-step benchmark: spread non-decreasing in time, "
                "strictly decreasing in the joint arrival probability, "
                "terminal values 5.2381 / 5.1807 within 1e-4")


def test_criterion_04_inventory_threshold():
    p = benchmark_params(0.0, 19800)
    hi, lo = inventory_threshold(p)
    assert hi == 250.0 and lo == -250.0
    table = backward_pass(p)
    asks = np.array([optimal_spreads(table, k, 250.0)[0]
                     for k in range(p.grid.n_steps)])
    assert np.max(np.abs(asks - 2.5)) < 1e-10
    announce(4, "inventory threshold +/-250 exact; ask spread at the "
                "threshold equals 2.5 within 1e-10 at every step")


def test_criterion_05_monte_carlo_matches_value_recursion():
    start = time.monotonic()
    params, market = benchmark_market(n_steps=50)
    table = backward_pass(params)
    (stats, _) = monte_carlo_values(
        [Policy.named("optimal_martingale", table)], market, 100_000,
        base_seed=2024)
    mean, se = stats[0]
    g0 = float(table.g[0])
    elapsed = time.monotonic() - start
    assert abs(mean - g0) < 4 * se
    assert elapsed < 60.0
    announce(5, f"1e5-path Monte Carlo mean {mean:.2f} within 4 SE of the "
                f"recursion value {g0:.2f} (|z|="
                f"{abs(mean - g0) / se:.2f}, {elapsed:.1f}s < 60s)")


def test_criterion_06_brute_force_two_step():
    # martingale two-step instance
    p = symmetric_params(10.0, 4.0, 0.5, 0.0, 0.01, 2)
    demand = DemandDistribution(plus=TwoPointIndependent((8, 12), (3, 5)),
                                minus=TwoPointIndependent((8, 12), (3, 5)))
    side = side_moments(demand.plus)
    solver_p = MarketParams(grid=p.grid, arrivals=p.arrivals,
                            moments=DemandMoments(plus=side, minus=side),
                            lam=p.lam)
    table = backward_pass(solver_p)
    market = SimMarket(params=p, demand=demand, price=PriceModel(S0=100.0))
    grid = np.round(np.arange(0.5, 3.51, 0.01), 2)
    value, (lp, lm) = brute_force_value_small(market, grid)
    assert value == pytest.approx(float(table.g[0]), abs=0.01)
    Lp, Lm = optimal_spreads(table, 0, 0.0)
    assert abs(lp - Lp) <= 0.011 and abs(lm - Lm) <= 0.011

    # drifted price path: enumerated controls match the forecast adjustment
    drift = np.array([0.4, -0.2])
    market_d = SimMarket(params=p, demand=demand,
                         price=PriceModel(S0=100.0, drift=drift))
    grid_d = np.round(np.arange(-1.0, 4.01, 0.01), 2)
    _, (lp_d, lm_d) = brute_force_value_small(market_d, grid_d)
    Lp_d, Lm_d = optimal_spreads(
        table, 0, 0.0, forecast_shift(table, 0, ForecastVector(k=0,
                                                              deltas=drift)))
    assert abs(lp_d - Lp_d) <= 0.011 and abs(lm_d - Lm_d) <= 0.011
    announce(6, "two-step enumeration matches the recursion value within "
                "0.01 and its argmax controls within one 0.01 grid cell, "
                "including a drifted-price instance")


def test_criterion_07_uniform_perturbations_lose():
    params, market = benchmark_market(n_steps=50)
    table = backward_pass(params)
    base = Policy.named("optimal_martingale", table)
    eps_list = [0.05, -0.05, 0.1, -0.1, 0.5, -0.5]
    policies = [base] + [PerturbedPolicy(base, e) for e in eps_list]
    _, objectives = monte_carlo_values(policies, market, 100_000,
                                       base_seed=7)
    lines = []
    for e, obj in zip(eps_list, objectives[1:]):
        # common random numbers: the gap's SE comes from the per-path
        # differences, which is what the shared draws make precise
        diff = objectives[0] - obj
        gap = float(diff.mean())
        assert gap >= 0.0
        if abs(e) >= 0.1:
            se_gap = float(diff.std(ddof=1)) / math.sqrt(len(diff))
            assert gap > 3 * se_gap
            lines.append(f"eps={e:+}: z={gap / se_gap:.0f}")
    announce(7, "every uniform spread perturbation underperforms; "
                + ", ".join(lines) + " (all > 3 combined SE)")


def test_criterion_08_twenty_day_estimation_recovery():
    start = time.monotonic()
    cfg = SyntheticDayConfig(n_steps=4000)
    true = true_market_params(cfg)
    per_field = {(s, f): [] for s in ("plus", "minus")
                 for f in _MOMENT_FIELDS}
    arrivals = {"pi_plus": [], "pi_minus": [], "pi_joint": []}
    for d in range(20):
        events, truth = generate_day(cfg, seed=4000 + d)
        rep = replay(events, truth.params.grid, tick_size=cfg.tick_size)
        day = estimate_day(rep, d, tick_size=cfg.tick_size)
        m = daily_moments(day)
        for side_name in ("plus", "minus"):
            side = getattr(m, side_name)
            for f in _MOMENT_FIELDS:
                per_field[(side_name, f)].append(getattr(side, f))
        arrivals["pi_plus"].append(day.ind_plus.mean())
        arrivals["pi_minus"].append(day.ind_minus.mean())
        arrivals["pi_joint"].append((day.ind_plus * day.ind_minus).mean())
    worst = 0.0
    for (side_name, f), vals in per_field.items():
        vals = np.asarray(vals)
        target = getattr(getattr(true.moments, side_name), f)
        sem = vals.std(ddof=1) / math.sqrt(len(vals))
        z = abs(vals.mean() - target) / sem
        worst = max(worst, z)
        assert z < 3.0, (side_name, f, z)
    for key, target in (("pi_plus", cfg.pi_plus), ("pi_minus", cfg.pi_minus),
                        ("pi_joint", cfg.pi_joint)):
        vals = np.asarray(arrivals[key])
        sem = vals.std(ddof=1) / math.sqrt(len(vals))
        z = abs(vals.mean() - target) / sem
        worst = max(worst, z)
        assert z < 3.0, (key, z)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    announce(8, f"20-day recovery: all 14 demand moments and 3 arrival "
                f"rates within 3 SE (worst |z|={worst:.2f}; "
                f"{elapsed:.0f}s < 120s)")


def test_criterion_09_synthetic_year_ordering_and_cis():
    cfg = SyntheticDayConfig(n_steps=2000, p_values=(3.8, 5.0), lam=0.01)
    n_days, window = 252, 20
    replays, store = [], []
    for d in range(n_days):
        events, truth = generate_day(cfg, seed=9000 + d)
        rep = replay(events, truth.params.grid, tick_size=cfg.tick_size)
        replays.append(rep)
        store.append(estimate_day(rep, d, tick_size=cfg.tick_size))
    names = ("optimal_forecast", "optimal_martingale", "fixed_level_1",
             "fixed_level_2", "fixed_level_3", "fixed_level_4")
    objs = {name: [] for name in names}
    for d in range(window, n_days):
        params = rolling_params(d, store, window=window, lam=cfg.lam,
                                tick_size=cfg.tick_size,
                                session_start_ns=10 ** 9)
        table = backward_pass(params)
        for pol in (Policy.named(name, table) for name in names):
            objs[pol.name].append(
                run_day(params, pol, replays[d], day_id=d).objective)
    arr = {k: np.asarray(v) for k, v in objs.items()}
    n = len(arr["optimal_forecast"])
    assert n == 232
    best_fixed = max((k for k in arr if k.startswith("fixed")),
                     key=lambda k: arr[k].mean())

    def combined_z(a, b):
        gap = arr[a].mean() - arr[b].mean()
        se = math.sqrt(arr[a].var(ddof=1) / n + arr[b].var(ddof=1) / n)
        return gap / se

    z1 = combined_z("optimal_forecast", "optimal_martingale")
    z2 = combined_z("optimal_martingale", best_fixed)
    assert z1 > 1.0
    assert z2 > 1.0

    # bootstrap CI checks pinned alongside the year
    rng = np.random.default_rng(0)
    hits = 0
    reps = 1000
    for i in range(reps):
        lo, hi = subsample_bootstrap_ci(rng.normal(size=232), seed=i)
        hits += lo <= 0.0 <= hi
    band = 3 * math.sqrt(0.95 * 0.05 / reps)
    assert abs(hits / reps - 0.95) < band

    # Heavy tails widen the interval relative to the gaussian formula. A
    # single sample is noisy either way, so require the widening both in a
    # majority of samples and on average.
    wider = 0
    ratios = []
    t_rng = np.random.default_rng(42)
    for i in range(200):
        heavy = t_rng.standard_t(2, size=232)
        lo, hi = subsample_bootstrap_ci(heavy, seed=i)
        normal_width = 2 * 1.96 * heavy.std(ddof=1) / math.sqrt(len(heavy))
        ratios.append((hi - lo) / normal_width)
        wider += (hi - lo) > normal_width
    assert wider / 200 > 0.5
    assert np.mean(ratios) > 1.0
    announce(9, f"232 backtested days: forecast > martingale "
                f"(z={z1:.1f}) > {best_fixed} (z={z2:.1f}); bootstrap "
                f"coverage {hits / reps:.3f} within the 3-sigma band; "
                f"heavy-tail CI wider than the gaussian interval in "
                f"{wider / 2:.0f}% of samples (mean width ratio "
                f"{np.mean(ratios):.3f})")


def test_criterion_10_full_day_performance_and_determinism(tmp_path):
    cfg = SyntheticDayConfig()
    events, truth = generate_day(cfg, seed=77)
    assert len(events) > 900_000
    table = backward_pass(truth.params)
    policy = Policy.named("optimal_martingale", table)
    start = time.monotonic()
    rep = replay(events, truth.params.grid, tick_size=cfg.tick_size)
    first = run_day(truth.params, policy, rep, day_id=0)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    second = run_day(truth.params, policy,
                     replay(events, truth.params.grid,
                            tick_size=cfg.tick_size), day_id=0)
    for f in ("W_T", "I_T", "S_T", "objective", "liquidation_value",
              "fills"):
        assert getattr(first, f) == getattr(second, f)

    # worker-count independence through the command-line driver
    from hfmm.cli import main
    from hfmm.model import save_params
    events_dir = tmp_path / "events"
    events_dir.mkdir()
    write_events_binary(events, events_dir / "day_0000.bin")
    params_dir = tmp_path / "params"
    params_dir.mkdir()
    save_params(truth.params, params_dir / "params_day_0000.yaml")
    outputs = []
    for w, out in ((1, tmp_path / "w1"), (2, tmp_path / "w2")):
        code = main(["backtest", "--events", str(events_dir),
                     "--params", str(params_dir), "--out", str(out),
                     "--workers", str(w),
                     "--policies", "optimal_martingale,fixed_level_1"])
        assert code == 0
        outputs.append((out / "day_results.csv").read_bytes())
    assert outputs[0] == outputs[1]
    announce(10, f"one-million-event day backtested in {elapsed:.2f}s < 5s "
                 f"with bit-identical results across runs and worker counts")
