"""Day-by-day strategy replay against recorded event streams.

Each action time: snapshot -> midprice -> (optional drift forecast) ->
spreads -> tick-rounded quote prices -> fills measured against the
interval's realized market-order flow -> cash/inventory update. At the end
of the session the terminal objective applies the quadratic inventory
penalty, and a separate liquidation value walks the closing book.
"""

from __future__ import annotations

import csv as _csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .estimation import drift_forecast_series
from .lob import (BookError, ReplayResult, fill_quantity, liquidate,
                  midprice, replay)
from .model import MarketParams
from .solver import (CoefficientTable, ForecastVector, optimal_spreads,
                     optimal_spreads_with_forecasts, quote_prices)

__all__ = [
    "Policy",
    "DayResult",
    "optimal_martingale_policy",
    "optimal_forecast_policy",
    "fixed_level_policy",
    "run_day",
    "aggregate",
    "subsample_bootstrap_ci",
    "compare_strategies",
    "summarize",
    "report_to_csv",
    "report_to_json",
]

DEFAULT_ORDER_VOLUME = 500


@dataclass(frozen=True)
class Policy:
    kind: str                     # optimal_martingale | optimal_forecast | fixed_level
    name: str
    table: CoefficientTable | None = None
    level: int = 0
    order_volume: int = DEFAULT_ORDER_VOLUME
    min_spread_ticks: int = 1


def optimal_martingale_policy(table: CoefficientTable,
                              order_volume: int = DEFAULT_ORDER_VOLUME) -> Policy:
    return Policy(kind="optimal_martingale", name="optimal_martingale",
                  table=table, order_volume=order_volume)


def optimal_forecast_policy(table: CoefficientTable,
                            order_volume: int = DEFAULT_ORDER_VOLUME) -> Policy:
    return Policy(kind="optimal_forecast", name="optimal_forecast",
                  table=table, order_volume=order_volume)


def fixed_level_policy(level: int,
                       order_volume: int = DEFAULT_ORDER_VOLUME) -> Policy:
    if level < 1:
        raise ValueError("level must be >= 1")
    return Policy(kind="fixed_level", name=f"fixed_level_{level}",
                  level=level, order_volume=order_volume)


@dataclass
class DayResult:
    day_id: object
    W_T: float
    I_T: float
    S_T: float
    objective: float
    liquidation_value: float
    fills: int
    incomplete: bool = False
    flags: list = field(default_factory=list)


def _clamp_quotes(ask_ticks: int, bid_ticks: int, S: float, tick_size: float,
                  min_spread_ticks: int):
    """Keep each quote at least min_spread_ticks away from the rounded mid;
    quotes already at that distance or beyond are untouched."""
    mid_floor = math.floor(S / tick_size + 1e-9)
    mid_ceil = math.ceil(S / tick_size - 1e-9)
    ask_ticks = max(ask_ticks, mid_floor + min_spread_ticks)
    bid_ticks = min(bid_ticks, mid_ceil - min_spread_ticks)
    return ask_ticks, bid_ticks


def run_day(params: MarketParams, policy: Policy, events_or_replay,
            day_id=None, K: int = 20) -> DayResult:
    """Replay one session under one policy. Deterministic."""
    tick = params.tick_size
    if isinstance(events_or_replay, ReplayResult):
        rep = events_or_replay
    else:
        rep = replay(events_or_replay, params.grid, K=K, tick_size=tick)
    n = params.grid.n_steps
    mids = np.asarray(rep.midprices, dtype=float)
    table = policy.table
    use_forecast = policy.kind == "optimal_forecast"
    drifts = drift_forecast_series(mids)[0] if use_forecast else None

    W = 0.0
    I = 0.0
    fills = 0
    flags = []
    for k in range(n):
        S = mids[k]
        if policy.kind == "fixed_level":
            snap = rep.snapshots[k]
            ask_ticks, ask_fb = snap.occupied_price("ask", policy.level)
            bid_ticks, bid_fb = snap.occupied_price("bid", policy.level)
            if ask_fb or bid_fb:
                flags.append(f"level fallback at step {k}")
        else:
            if use_forecast:
                f = ForecastVector(k=k, deltas=np.array([drifts[k]]))
                Lp, Lm = optimal_spreads_with_forecasts(table, k, I, f)
            else:
                Lp, Lm = optimal_spreads(table, k, I)
            ask, bid = quote_prices(S, Lp, Lm, tick)
            ask_ticks = int(round(ask / tick))
            bid_ticks = int(round(bid / tick))
        ask_ticks, bid_ticks = _clamp_quotes(ask_ticks, bid_ticks, S, tick,
                                             policy.min_spread_ticks)
        Qp = fill_quantity(ask_ticks, policy.order_volume, "ask", rep.flows[k])
        Qm = fill_quantity(bid_ticks, policy.order_volume, "bid", rep.flows[k])
        if Qp:
            W += ask_ticks * tick * Qp
            I -= Qp
            fills += 1
        if Qm:
            W -= bid_ticks * tick * Qm
            I += Qm
            fills += 1

    try:
        S_T = midprice(rep.terminal_book, tick)
    except ValueError:
        S_T = float(mids[-1])
    objective = W + S_T * I - params.lam * I ** 2
    if I != 0:
        liq = liquidate(rep.terminal_book, I, tick)
        if liq.insufficient_depth:
            flags.append("liquidation exhausted visible depth")
        liquidation_value = W + liq.proceeds
    else:
        liquidation_value = W
    return DayResult(day_id=day_id, W_T=W, I_T=I, S_T=S_T,
                     objective=objective, liquidation_value=liquidation_value,
                     fills=fills, flags=flags)


def aggregate(results):
    """Sample mean/std/count of the objective and liquidation value over
    complete days."""
    done = [r for r in results if not r.incomplete]
    out = {}
    for metric in ("objective", "liquidation_value"):
        vals = np.array([getattr(r, metric) for r in done], dtype=float)
        if len(vals) == 0:
            out[metric] = (float("nan"), float("nan"), 0)
        elif len(vals) == 1:
            out[metric] = (float(vals[0]), 0.0, 1)
        else:
            out[metric] = (float(np.mean(vals)), float(np.std(vals, ddof=1)),
                           len(vals))
    return out


def subsample_bootstrap_ci(values, level: float = 0.95, m: int | None = None,
                           B: int = 2000, seed: int = 0):
    """Subsample bootstrap CI for the mean (recentered quantile method).

    Draws B subsamples of size m without replacement; the distribution of
    the rescaled recentered roots approximates that of
    sqrt(n) (theta_hat - theta). The interval is symmetric about the mean,
    using the ``level`` quantile of the absolute roots: under heavy tails
    the outlier-driven mixture of subsample means pushes that quantile
    beyond the gaussian 1.96-sigma width, so the interval stays
    conservative where the normal approximation is not.
    """
    x = np.asarray(values, dtype=float)
    n = len(x)
    if n < 5:
        raise ValueError("need at least 5 observations")
    if m is None:
        m = int(n ** (2 / 3))
    m = max(1, min(m, n))
    theta = float(np.mean(x))
    if np.ptp(x) == 0:
        return theta, theta
    rng = np.random.default_rng(seed)
    # subsample without replacement via partial argsort of uniform keys
    keys = rng.random((B, n))
    idx = np.argpartition(keys, m - 1, axis=1)[:, :m]
    sub_means = x[idx].mean(axis=1)
    # finite-population correction: sampling the subsample without
    # replacement from the data deflates Var(theta* - theta_hat) by
    # (1 - m/n), so rescale the roots to keep nominal coverage
    fpc = math.sqrt(1.0 - m / n) if m < n else 1.0
    roots = math.sqrt(m) * (sub_means - theta) / fpc
    q = float(np.quantile(np.abs(roots), level))
    half = q / math.sqrt(n)
    return (theta - half, theta + half)


def compare_strategies(day_params, policies, day_replays, day_ids=None,
                       excluded_days=(), bootstrap_seed: int = 0):
    """Run every policy over every day and ``summarize`` the results; a
    day the book or the parameters reject counts as incomplete.
    ``day_params`` holds each day's calibrated MarketParams (a list
    parallel to ``day_replays``)."""
    day_ids = range(len(day_replays)) if day_ids is None else day_ids
    by_policy = {}
    for policy in policies:
        results = by_policy[policy.name] = []
        for params, rep, day_id in zip(day_params, day_replays, day_ids):
            try:
                results.append(run_day(params, policy, rep, day_id=day_id))
            except (BookError, ValueError, ArithmeticError) as exc:
                results.append(DayResult(day_id, *[np.nan] * 5, fills=0,
                                         incomplete=True,
                                         flags=[f"error: {exc}"]))
    return summarize(by_policy, excluded_days, bootstrap_seed)


def summarize(by_policy, excluded_days=(), bootstrap_seed: int = 0):
    """Report dict over each policy's DayResults: statistics of the complete
    days with and without the excluded (break-flagged) ones, CIs from 5
    days on; ``n_days`` and ``n_excluded`` count days in the results."""
    days = {r.day_id for results in by_policy.values() for r in results}
    excluded = set(excluded_days)
    report = {"policies": {}, "n_days": len(days),
              "n_excluded": len(excluded & days)}
    for name, results in by_policy.items():
        entry = report["policies"][name] = {}
        filtered = [r for r in results if r.day_id not in excluded]
        for label, subset in (("all", results), ("filtered", filtered)):
            agg = aggregate(subset)
            mean, std, cnt = agg["objective"]
            block = {"objective_mean": mean, "objective_std": std,
                     "liquidation_mean": agg["liquidation_value"][0],
                     "liquidation_std": agg["liquidation_value"][1],
                     "n_days": cnt}
            if cnt >= 5:
                vals = [r.objective for r in subset if not r.incomplete]
                lo, hi = subsample_bootstrap_ci(vals, seed=bootstrap_seed)
                block["ci_bootstrap"] = [lo, hi]
                se = std / math.sqrt(cnt)
                block["ci_normal"] = [mean - 1.96 * se, mean + 1.96 * se]
            entry[label] = block
    return report


def report_to_csv(report, path) -> None:
    with open(path, "w", newline="") as fh:
        w = _csv.writer(fh)
        w.writerow(["policy", "subset", "mean", "std", "ci_normal_lo",
                    "ci_normal_hi", "ci_boot_lo", "ci_boot_hi", "n_days",
                    "n_excluded"])
        for name, entry in report["policies"].items():
            for label, block in entry.items():
                cn = block.get("ci_normal", [float("nan")] * 2)
                cb = block.get("ci_bootstrap", [float("nan")] * 2)
                w.writerow([name, label, block["objective_mean"],
                            block["objective_std"], cn[0], cn[1], cb[0],
                            cb[1], block["n_days"], report["n_excluded"]])


def report_to_json(report, path) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
