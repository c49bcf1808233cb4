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
from .lob import BookError, ReplayResult, fill_quantity, liquidate
from .model import MarketParams, penalized_wealth
from .solver import CoefficientTable, optimal_spreads

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
        # ASCII digits only: str.isdecimal also takes other scripts' digits
        if prefix != "fixed_level" or not (level.isascii()
                                           and level.isdigit()):
            raise ValueError(f"unknown policy {name!r}")
        if level[0] == "0":  # so that one level has one name
            raise ValueError(f"policy {name!r}: level must be >= 1, "
                             "written without leading zeros")
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


def _quote_ticks(S: float, L_plus: float, L_minus: float, tick: float):
    """The (ask, bid) quote in ticks for spreads (L+, L-) about the mid S:
    S + L+ rounded up and S - L- rounded down onto the tick grid, 1e-9 of a
    tick counting as on it, then each kept at least a tick off the mid
    rounded the other way. A non-finite mid or spread raises what
    ``math.ceil`` or ``math.floor`` raises: ValueError for NaN,
    OverflowError for an infinity."""
    ask = math.ceil((S + L_plus) / tick - 1e-9)
    bid = math.floor((S - L_minus) / tick + 1e-9)
    x = S / tick
    return (max(ask, math.floor(x + 1e-9) + 1),
            min(bid, math.ceil(x - 1e-9) - 1))


def _level_day(rep: ReplayResult, level: int, mids, tick: float,
               order_volume: int):
    """(W, I, fills, flags) of quoting book ``level`` (a side's deepest
    level where it has fewer: a level fallback), clamped as by
    ``_quote_ticks``. Each MO takes its volume less what stood at better
    prices, a side fills its MOs' takes up to the order size (as
    ``fill_quantity``), and W sums the cash in step order, ask before bid.
    The first one-sided snapshot raises BookError, ask side first, or
    else the first non-finite mid raises through ``_quote_ticks``; a level
    deeper than the replay kept raises ValueError."""
    if level > rep.book_prices.shape[2]:
        raise ValueError(f"policy fixed_level_{level}: the replay kept "
                         f"{rep.book_prices.shape[2]} levels a side")
    n = len(mids)
    sides = rep.book_depth[:n]
    depth = sides.min(axis=1)
    with np.errstate(all="ignore"):
        x = mids / tick
        bad = (depth == 0) | ~np.isfinite(x)
        for k in np.flatnonzero(bad)[:1].tolist():
            for side, d in (("ask", sides[k, 1]), ("bid", sides[k, 0])):
                if not d:
                    raise BookError(f"one-sided book: no {side} levels")
            _quote_ticks(mids[k], 0.0, 0.0, tick)
    at = np.minimum(sides, level) - 1
    px = np.take_along_axis(rep.book_prices[:n], at[:, :, None], 2)[:, :, 0]
    # the lowest ask and the highest bid _quote_ticks allows, in int64
    # ticks; exact while |x| < 2**62
    ask = np.maximum(px[:, 1], np.floor(x + 1e-9).astype(np.int64) + 1)
    bid = np.minimum(px[:, 0], np.ceil(x - 1e-9).astype(np.int64) - 1)
    k, side = rep.mo_interval, rep.mo_side
    placed = np.where(side == 1, ask[k], bid[k])
    take = np.maximum(rep.mo_volume - rep.better_priced_volume(
        np.arange(len(k)), placed), 0)
    # row k holds step k's ask-side (buy MO) and bid-side fill
    q = np.bincount(2 * k + 1 - side, take, 2 * n).reshape(-1, 2)
    Q = np.where(q <= order_volume, q, max(order_volume, 0))
    filled = Q != 0
    with np.errstate(all="ignore"):
        cash = np.stack([ask * tick, -(bid * tick)], axis=1) * Q
    # cumsum adds in order, unlike sum; the leading 0.0 is W's start
    W = np.cumsum(np.concatenate([[0.0], cash[filled]]))[-1]
    flags = [f"level fallback at step {k}"
             for k in np.flatnonzero(depth < level).tolist()]
    return (float(W), float(Q[:, 1].sum() - Q[:, 0].sum()),
            int(np.count_nonzero(filled)), flags)


def _optimal_day(rep: ReplayResult, policy: Policy, mids, tick: float,
                 order_volume: int):
    """(W, I, fills, no flags) of quoting the optimal rule, shifted by the
    drift forecast for ``optimal_forecast``: a loop over the intervals that
    hold an MO, the only steps at which W, I and fills can change. The
    first step whose S + L+ or S - L- in ticks is not finite at the
    inventory held there raises through ``_quote_ticks``."""
    drifts = (drift_forecast_series(mids) if policy.forecast
              else np.zeros(len(mids)))
    quoted, flows = rep.interval_flows
    held = [0.0]  # inventory before the first quoted step and after each

    def raise_first_failed_quote(stop):
        """Re-quote, so that it raises, the first of steps 0..stop-1 whose
        quote is not finite at the inventory ``held`` there."""
        S = mids[:stop]
        inventory = np.array(held)[np.searchsorted(quoted, np.arange(stop))]
        with np.errstate(all="ignore"):
            Lp, Lm = policy.spreads(np.arange(stop), S, inventory,
                                    drifts[:stop])
            bad = ~(np.isfinite((S + Lp) / tick)
                    & np.isfinite((S - Lm) / tick))
            for k in np.flatnonzero(bad)[:1].tolist():
                _quote_ticks(S[k], Lp[k], Lm[k], tick)

    # optimal_spreads' terms and the drift at the quoted steps
    t, at = policy.table, np.array(quoted, dtype=np.int64)
    with np.errstate(all="ignore"):
        terms = [x.tolist() for x in (
            mids[at], drifts[at], t.A1_plus[at], t.A2_plus[at],
            t.A3_plus[at], t.beta_plus[at] / (2 * t.gamma[at]),
            t.A1_minus[at], t.A2_minus[at], t.A3_minus[at],
            t.beta_minus[at] / (2 * t.gamma[at]))]
    W = I = 0.0
    fills = 0
    try:
        for (k, flow, S, F, a1p, a2p, a3p, bgp, a1m, a2m, a3m,
             bgm) in zip(quoted, flows, *terms):
            # optimal_spreads' expression, in the same order
            ask_ticks, bid_ticks = _quote_ticks(
                S, a1p * I + a2p + a3p + bgp * F,
                -a1m * I - a2m + a3m - bgm * F, tick)
            Qp = fill_quantity(ask_ticks, order_volume, "ask", flow)
            Qm = fill_quantity(bid_ticks, order_volume, "bid", flow)
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
    raise_first_failed_quote(len(mids))
    return W, I, fills, []


def run_day(params: MarketParams, policy: Policy, rep: ReplayResult,
            day_id=None, order_volume: int = DEFAULT_ORDER_VOLUME
            ) -> DayResult:
    """Run one replayed session under one policy, resting ``order_volume``
    shares on each side at every step. Deterministic.

    The day runs as a fixed level's array passes (``_level_day``) or an
    optimal rule's loop over the intervals with an MO (``_optimal_day``),
    each raising its quote's error at the first step it cannot quote; then
    come the closing mid, the objective and the liquidation."""
    tick = params.tick_size
    if not tick > 0:
        raise ValueError("tick_size must be > 0")
    n = params.grid.n_steps
    mids = np.asarray(rep.midprices, dtype=float)
    if policy.level:
        W, I, fills, flags = _level_day(rep, policy.level, mids[:n], tick,
                                        order_volume)
    else:
        W, I, fills, flags = _optimal_day(rep, policy, mids[:n], tick,
                                          order_volume)

    bid, ask = rep.book_prices[-1, :, 0].tolist()
    S_T = ((bid + ask) / 2 * tick if rep.book_depth[-1].all()
           else float(mids[-1]))
    objective = penalized_wealth(W, S_T, I, params.lam)
    if I != 0:
        liq = liquidate(rep, I, tick)
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
