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
from .lob import ReplayResult, fill_quantity, liquidate, midprice, replay
from .model import MarketParams
from .solver import CoefficientTable, optimal_spreads, quote_prices

__all__ = [
    "Policy",
    "DayResult",
    "run_day",
    "aggregate",
    "subsample_bootstrap_ci",
    "summarize",
    "report_to_csv",
    "report_to_json",
]

DEFAULT_ORDER_VOLUME = 500


@dataclass(frozen=True)
class Policy:
    """One quoting rule of the study: the optimal spreads of ``table``
    under a martingale price or (``forecast``) with the local drift
    forecast, or, for ``level`` >= 1, the price of that book level."""

    table: CoefficientTable | None = None
    level: int = 0
    forecast: bool = False

    @property
    def name(self) -> str:
        if self.level:
            return f"fixed_level_{self.level}"
        return "optimal_forecast" if self.forecast else "optimal_martingale"

    @classmethod
    def named(cls, name: str, table: CoefficientTable | None = None):
        """The rule a report name stands for; the optimal rules quote from
        ``table``."""
        if name in ("optimal_martingale", "optimal_forecast"):
            return cls(table=table, forecast=name == "optimal_forecast")
        prefix, _, level = name.rpartition("_")
        if prefix != "fixed_level" or not level.isdecimal():
            raise ValueError(f"unknown policy {name!r}")
        if int(level) < 1:
            raise ValueError(f"policy {name!r}: level must be >= 1")
        return cls(level=int(level))

    def spreads(self, k: int, S, I, shift=0.0):
        """Optimal spreads (L+, L-) at step k for inventory I; ``shift`` is
        the forecast aggregate (0 for a martingale price)."""
        return optimal_spreads(self.table, k, I, shift)


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


def _quote(policy: Policy, rep: ReplayResult, k: int, S: float, I: float,
           shift: float, tick: float):
    """The step's (ask, bid) quote in ticks, kept a tick off the mid; a
    fixed level falls back to the deepest one the snapshot has."""
    if policy.level:
        snap = rep.snapshots[k]
        ask_ticks = snap.occupied_price("ask", policy.level)[0]
        bid_ticks = snap.occupied_price("bid", policy.level)[0]
    else:
        Lp, Lm = policy.spreads(k, S, I, shift)
        ask, bid = quote_prices(S, Lp, Lm, tick)
        ask_ticks = int(round(ask / tick))
        bid_ticks = int(round(bid / tick))
    return _clamp_quotes(ask_ticks, bid_ticks, S, tick, 1)


def run_day(params: MarketParams, policy: Policy, events_or_replay,
            day_id=None, order_volume: int = DEFAULT_ORDER_VOLUME
            ) -> DayResult:
    """Replay one session under one policy, resting ``order_volume`` shares
    on each side at every step. Deterministic.

    Only the steps whose interval holds a market order are quoted one by
    one: at any other step nothing fills, so cash, inventory and the fill
    count stay as they are. What quoting does there is still taken at
    every step, in array passes: a fixed level's fallback flag, and a quote
    that cannot be formed (a non-finite spread, a one-sided snapshot),
    which ends the day with the error it raises at the first such step."""
    tick = params.tick_size
    if isinstance(events_or_replay, ReplayResult):
        rep = events_or_replay
    else:
        rep = replay(events_or_replay, params.grid, tick_size=tick)
    n = params.grid.n_steps
    mids = np.asarray(rep.midprices, dtype=float)
    drifts = (drift_forecast_series(mids)[0] if policy.forecast
              else np.zeros(n))
    depth = (np.array([min(len(s.asks), len(s.bids))
                       for s in rep.snapshots[:n]]) if policy.level else None)
    quoted = [k for k in range(n) if rep.flows[k].mos]

    W = 0.0
    I = 0.0
    fills = 0
    held = [I]  # inventory before the first quoted step and after each

    def raise_first_failed_quote(stop):
        """Quote steps 0..stop-1 in one array pass, each at the inventory
        ``held`` after the ``quoted`` steps before it, then re-quote through
        ``_quote``, in step order, each step whose quote may not be finite,
        so that the first one that fails raises what it raises there."""
        S = mids[:stop]
        inventory = np.array(held)[np.searchsorted(quoted, np.arange(stop))]
        with np.errstate(all="ignore"):
            bad = ~np.isfinite(S / tick)
            if policy.level:
                bad |= depth[:stop] == 0
            else:
                Lp, Lm = policy.spreads(np.arange(stop), S, inventory,
                                        drifts[:stop])
                ask = np.ceil((S + Lp) / tick - 1e-9) * tick / tick
                bid = np.floor((S - Lm) / tick + 1e-9) * tick / tick
                bad |= ~np.isfinite(ask) | ~np.isfinite(bid) | (not tick > 0)
        for k in np.flatnonzero(bad).tolist():
            _quote(policy, rep, k, mids[k], inventory[k], drifts[k], tick)

    try:
        for k in quoted:
            ask_ticks, bid_ticks = _quote(policy, rep, k, mids[k], I,
                                          drifts[k], tick)
            Qp = fill_quantity(ask_ticks, order_volume, "ask", rep.flows[k])
            Qm = fill_quantity(bid_ticks, order_volume, "bid", rep.flows[k])
            if Qp:
                W += ask_ticks * tick * Qp
                I -= Qp
                fills += 1
            if Qm:
                W -= bid_ticks * tick * Qm
                I += Qm
                fills += 1
            held.append(I)
    except (ValueError, ArithmeticError):  # unless a step before k failed
        raise_first_failed_quote(k)
        raise
    raise_first_failed_quote(n)
    flags = ([] if not policy.level else
             [f"level fallback at step {k}"
              for k in np.flatnonzero(depth < policy.level).tolist()])

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
