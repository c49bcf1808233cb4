"""Reference backtest for the tests: the per-step loop that quotes and
measures fills at every action time, as ``run_day`` did before it stepped
only through the intervals that hold a market order.
Fills come from ``replay_oracle.sequential_fill`` over the object form of
the ReplayResult. ``hfmm.backtest.run_day`` must return the same DayResult,
flags included, or raise the same error."""

import numpy as np

from hfmm.backtest import (DEFAULT_ORDER_VOLUME, DayResult, Policy,
                           _clamp_quotes)
from hfmm.estimation import drift_forecast_series
from hfmm.lob import ReplayResult, liquidate
from hfmm.model import MarketParams
from hfmm.solver import quote_prices

from replay_oracle import as_objects, midprice, sequential_fill


def run_day(params: MarketParams, policy: Policy, rep: ReplayResult,
            day_id=None, order_volume: int = DEFAULT_ORDER_VOLUME
            ) -> DayResult:
    """Run one replayed session under one policy, resting ``order_volume``
    shares on each side at every step. Deterministic."""
    tick = params.tick_size
    n = params.grid.n_steps
    snapshots, flows, terminal = as_objects(rep)
    mids = np.asarray(rep.midprices, dtype=float)
    drifts = (drift_forecast_series(mids) if policy.forecast
              else np.zeros(n))

    W = 0.0
    I = 0.0
    fills = 0
    flags = []
    for k in range(n):
        S = mids[k]
        if policy.level:
            snap = snapshots[k]
            ask_ticks, ask_fb = snap.occupied_price("ask", policy.level)
            bid_ticks, bid_fb = snap.occupied_price("bid", policy.level)
            if ask_fb or bid_fb:
                flags.append(f"level fallback at step {k}")
        else:
            Lp, Lm = policy.spreads(k, S, I, drifts[k])
            ask, bid = quote_prices(S, Lp, Lm, tick)
            ask_ticks = int(round(ask / tick))
            bid_ticks = int(round(bid / tick))
        ask_ticks, bid_ticks = _clamp_quotes(ask_ticks, bid_ticks, S, tick)
        Qp = sequential_fill(ask_ticks, order_volume, "ask", flows[k])
        Qm = sequential_fill(bid_ticks, order_volume, "bid", flows[k])
        if Qp:
            W += ask_ticks * tick * Qp
            I -= Qp
            fills += 1
        if Qm:
            W -= bid_ticks * tick * Qm
            I += Qm
            fills += 1

    try:
        S_T = midprice(terminal, tick)
    except ValueError:
        S_T = float(mids[-1])
    objective = W + S_T * I - params.lam * I ** 2
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
