"""Reference day generator for the tests: ``generate_day`` as it ran before
its columnar rewrite, one Python loop over the action times that appends
every cancel, add, market order and execute as a tuple. The random draws come
first and in the same order, so ``hfmm.synthetic.generate_day`` must return
the same event array, bit for bit, and an equal SyntheticTruth."""

from __future__ import annotations

import numpy as np

from hfmm.lob import EVENT_DTYPE
from hfmm.synthetic import SyntheticDayConfig, SyntheticTruth, true_market_params

from conftest import action_time_ns


def generate_day(cfg: SyntheticDayConfig, seed: int):
    """Build one day of events. Returns (events array, SyntheticTruth)."""
    rng = np.random.default_rng(seed)
    n = cfg.n_steps
    params = true_market_params(cfg)
    grid = params.grid
    step_ns = int(round(cfg.step_seconds * 1e9))

    # price regimes and moves
    switches = rng.random(n) < cfg.regime_switch_prob
    regimes = np.empty(n, dtype=np.int8)
    r = 1 if rng.random() < 0.5 else -1
    for k in range(n):
        if switches[k]:
            r = -r
        regimes[k] = r
    moves = (rng.random(n) < cfg.move_prob).astype(np.int64) * regimes
    X = cfg.start_price_ticks + np.concatenate([[0], np.cumsum(moves[:-1])])

    # arrivals and demand draws
    u = rng.random(n)
    pj, pp, pm = cfg.pi_joint, cfg.pi_plus, cfg.pi_minus
    ind_p = (u < pj) | ((u >= pj) & (u < pp))
    ind_m = (u < pj) | ((u >= pp) & (u < pp + pm - pj))
    c_p = rng.choice(cfg.c_values, size=n)
    p_p = rng.choice(cfg.p_values, size=n)
    c_m = rng.choice(cfg.c_values, size=n)
    p_m = rng.choice(cfg.p_values, size=n)

    events = []
    add = events.append
    live = {}          # ref -> remaining size
    next_ref = 1
    depth = cfg.depth

    for k in range(n):
        t_k = action_time_ns(grid, k)
        rebuild_ts = t_k - 100_000
        # clear the previous ladder
        for ref, (side_code, price, remaining) in live.items():
            if remaining > 0:
                add((rebuild_ts, 1, side_code, 0, price, remaining, ref, 0))
        live = {}
        x = int(X[k])
        vol_ask = int(round(c_p[k])) if ind_p[k] else cfg.default_volume
        vol_bid = int(round(c_m[k])) if ind_m[k] else cfg.default_volume
        ask_refs = []
        bid_refs = []
        for j in range(depth):
            ref = next_ref
            next_ref += 1
            add((rebuild_ts, 0, 1, 0, x + 1 + j, vol_ask, ref, 0))
            live[ref] = (1, x + 1 + j, vol_ask)
            ask_refs.append(ref)
            ref = next_ref
            next_ref += 1
            add((rebuild_ts, 0, 0, 0, x - j, vol_bid, ref, 0))
            live[ref] = (0, x - j, vol_bid)
            bid_refs.append(ref)

        # market orders: volume c*(p - l_1) with l_1 = 0.5 ticks
        if ind_p[k]:
            vol = int(round(c_p[k] * (p_p[k] - 0.5)))
            ts = t_k + step_ns // 3
            add((ts, 3, 1, 0, x + 1, vol, 0, 0))
            left = vol
            for ref in ask_refs:
                if left <= 0:
                    break
                side_code, price, remaining = live[ref]
                take = min(remaining, left)
                add((ts, 2, 1, 0, price, take, ref, 0))
                live[ref] = (side_code, price, remaining - take)
                left -= take
        if ind_m[k]:
            vol = int(round(c_m[k] * (p_m[k] - 0.5)))
            ts = t_k + 2 * step_ns // 3
            add((ts, 3, 0, 0, x, vol, 0, 0))
            left = vol
            for ref in bid_refs:
                if left <= 0:
                    break
                side_code, price, remaining = live[ref]
                take = min(remaining, left)
                add((ts, 2, 0, 0, price, take, ref, 0))
                live[ref] = (side_code, price, remaining - take)
                left -= take

    arr = np.array(events, dtype=EVENT_DTYPE)
    truth = SyntheticTruth(config=cfg, params=params, mid_ticks=X,
                           ind_plus=ind_p.astype(np.int8),
                           ind_minus=ind_m.astype(np.int8),
                           c_plus=c_p, p_plus=p_p, c_minus=c_m, p_minus=p_m)
    return arr, truth
