"""Reference calibration for the tests: the per-interval demand regression
``hfmm.estimation.estimate_day`` ran before it fitted every interval in one
array pass (a weighted ``np.linalg.lstsq`` per interval side, over each
MO's better-priced volume at every placement). ``estimate_day`` must give
the same ``valid`` masks and indicators, and c and p to 1e-12 relative."""

from dataclasses import dataclass, field

import numpy as np

from hfmm.estimation import DayEstimates

from replay_oracle import as_objects


@dataclass
class IntervalFlow:
    """The market orders (MORecords) of one interval."""

    mos: list = field(default_factory=list)


def arrival_indicators(flows):
    """Per-interval 0/1 arrays: did at least one buy (sell) MO arrive.

    Buy MOs consume the ask side of the book, sell MOs the bid side.
    """
    n = len(flows)
    ind_plus = np.zeros(n, dtype=np.int8)
    ind_minus = np.zeros(n, dtype=np.int8)
    for k, flow in enumerate(flows):
        for mo in flow.mos:
            if mo.side == "ask":
                ind_plus[k] = 1
            else:
                ind_minus[k] = 1
    return ind_plus, ind_minus


def _regress_side(side: str, snapshot, flow: IntervalFlow, S: float,
                  level_depth: int, tick_size: float):
    """Weighted linear fit of measured demand against placement distance,
    each level weighted by the inverse of 1 + its distance in ticks.

    Returns (c, p, valid). Demand at distance l follows D(l) = c (p - l)
    where it is positive; zero-fill levels are censored and excluded.
    """
    mos = [mo for mo in flow.mos if mo.side == side]
    ladder = snapshot.asks if side == "ask" else snapshot.bids
    if not mos or not ladder:
        return 0.0, 0.0, False
    sign = 1 if side == "ask" else -1
    prices = ladder[0][0] + sign * np.arange(level_depth)  # from the touch
    # fill_quantity's closed form at every level, for an order never capped
    fills = sum(np.maximum(mo.volume - mo.better_priced_volume(prices), 0)
                for mo in mos)
    dist = sign * (prices * tick_size - S)
    keep = (fills > 0) & (dist > 0)
    if keep.sum() < 2:
        return 0.0, 0.0, False
    x = dist[keep]
    y = fills[keep]
    w = 1.0 / (1.0 + x / tick_size)
    X = np.column_stack([np.ones_like(x), x])
    Wm = X * w[:, None]
    coef, *_ = np.linalg.lstsq(Wm, y * w, rcond=None)
    intercept, slope = coef
    c = -slope
    if c <= 0:
        return 0.0, 0.0, False
    p = intercept / c
    if p <= 0:
        return 0.0, 0.0, False
    return float(c), float(p), True


def estimate_demand_interval(snapshot, flow: IntervalFlow, S: float,
                             level_depth: int = 10, tick_size: float = 1.0):
    """Per-side demand parameters for one interval.

    Returns (c_plus, p_plus, c_minus, p_minus, (valid_plus, valid_minus)).
    """
    cp, ppr, vp = _regress_side("ask", snapshot, flow, S, level_depth,
                                tick_size)
    cm, pmr, vm = _regress_side("bid", snapshot, flow, S, level_depth,
                                tick_size)
    return cp, ppr, cm, pmr, (vp, vm)


def estimate_day(rep, day_id, level_depth: int = 10,
                 tick_size: float = 1.0) -> DayEstimates:
    """Full single-day pass: indicators plus per-interval regressions, over
    the object form of the ReplayResult ``rep``."""
    snapshots, mos, _ = as_objects(rep)
    flows = [IntervalFlow(mos=m) for m in mos]
    n = len(flows)
    ind_p, ind_m = arrival_indicators(flows)
    c_p = np.zeros(n)
    p_p = np.zeros(n)
    v_p = np.zeros(n, dtype=bool)
    c_m = np.zeros(n)
    p_m = np.zeros(n)
    v_m = np.zeros(n, dtype=bool)
    for k in range(n):
        if not flows[k].mos:
            continue
        cp, ppr, cm, pmr, (vp, vm) = estimate_demand_interval(
            snapshots[k], flows[k], float(rep.midprices[k]),
            level_depth=level_depth, tick_size=tick_size)
        c_p[k], p_p[k], v_p[k] = cp, ppr, vp
        c_m[k], p_m[k], v_m[k] = cm, pmr, vm
    return DayEstimates(day_id=day_id, ind_plus=ind_p, ind_minus=ind_m,
                        c_plus=c_p, p_plus=p_p, valid_plus=v_p,
                        c_minus=c_m, p_minus=p_m, valid_minus=v_m)
