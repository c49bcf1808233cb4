"""Parameter calibration from replayed event streams.

Pipeline: per-interval arrival indicators -> quadratic intraday arrival
curves -> per-interval weighted demand regressions -> daily moment sets ->
rolling window averages -> drift forecasts and structural-break screening.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .lob import IntervalFlow, ReplayResult
from .model import (ArrivalSchedule, DemandMoments, MarketParams, SideMoments,
                    TimeGrid)

__all__ = [
    "DayEstimates",
    "BreakReport",
    "arrival_indicators",
    "fit_arrival_curves",
    "estimate_demand_interval",
    "estimate_day",
    "daily_moments",
    "rolling_params",
    "drift_forecast",
    "drift_forecast_series",
    "structural_break_flags",
    "nearest_rank_quantile",
]

_DRIFT_LAG = 5


@dataclass
class DayEstimates:
    day_id: object
    ind_plus: np.ndarray
    ind_minus: np.ndarray
    c_plus: np.ndarray
    p_plus: np.ndarray
    valid_plus: np.ndarray
    c_minus: np.ndarray
    p_minus: np.ndarray
    valid_minus: np.ndarray
    midprices: np.ndarray


@dataclass
class BreakReport:
    day_ids: list
    err_cp_plus: np.ndarray
    err_cp_minus: np.ndarray
    err_pi11: np.ndarray
    threshold_cp_plus: float
    threshold_cp_minus: float
    threshold_pi11: float
    flagged: list = field(default_factory=list)


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


def _fit_quadratic(series: np.ndarray) -> np.ndarray:
    """Least-squares quadratic in the step index; constant-mean fallback
    when the normal equations are singular."""
    n = len(series)
    k = np.arange(n, dtype=float)
    X = np.column_stack([np.ones(n), k, k * k])
    try:
        coef, *_ = np.linalg.lstsq(X, series, rcond=None)
        fitted = X @ coef
        if not np.all(np.isfinite(fitted)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        warnings.warn("quadratic arrival fit degenerate; using constant mean")
        fitted = np.full(n, float(np.mean(series)))
    return fitted


def fit_arrival_curves(ind_plus_days, ind_minus_days) -> ArrivalSchedule:
    """Cross-day mean indicator (and product) series fitted by quadratics
    in the step index, then clamped into probability range and the joint
    bounds (marginals first, then the joint array)."""
    ip = np.atleast_2d(np.asarray(ind_plus_days, dtype=float))
    im = np.atleast_2d(np.asarray(ind_minus_days, dtype=float))
    if ip.shape != im.shape:
        raise ValueError("indicator histories must have matching shapes")
    pi_p = _fit_quadratic(ip.mean(axis=0))
    pi_m = _fit_quadratic(im.mean(axis=0))
    pi_j = _fit_quadratic((ip * im).mean(axis=0))

    eps = 1e-6
    pi_p = np.clip(pi_p, eps, 1.0)
    pi_m = np.clip(pi_m, eps, 1.0)
    lo = np.maximum(pi_p + pi_m - 1.0, 0.0)
    hi = np.minimum(pi_p, pi_m)
    clipped = np.clip(pi_j, lo, hi)
    if np.any(clipped != pi_j):
        warnings.warn("joint arrival curve clamped to feasible bounds")
    return ArrivalSchedule(pi_plus=pi_p, pi_minus=pi_m, pi_joint=clipped)


def _level_weights(distances: np.ndarray, tick_size: float,
                   scheme: str) -> np.ndarray:
    if scheme == "inverse":
        return 1.0 / (1.0 + distances / tick_size)
    if scheme == "uniform":
        return np.ones_like(distances)
    raise ValueError(f"unknown weight scheme {scheme!r}")


def _regress_side(side: str, snapshot, flow: IntervalFlow, S: float,
                  level_depth: int, tick_size: float, weight_scheme: str):
    """Weighted linear fit of measured demand against placement distance.

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
    w = _level_weights(x, tick_size, weight_scheme)
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
                             level_depth: int = 10, tick_size: float = 1.0,
                             weight_scheme: str = "inverse"):
    """Per-side demand parameters for one interval.

    Returns (c_plus, p_plus, c_minus, p_minus, (valid_plus, valid_minus)).
    """
    cp, ppr, vp = _regress_side("ask", snapshot, flow, S, level_depth,
                                tick_size, weight_scheme)
    cm, pmr, vm = _regress_side("bid", snapshot, flow, S, level_depth,
                                tick_size, weight_scheme)
    return cp, ppr, cm, pmr, (vp, vm)


def estimate_day(rep: ReplayResult, day_id, level_depth: int = 10,
                 tick_size: float = 1.0,
                 weight_scheme: str = "inverse") -> DayEstimates:
    """Full single-day pass: indicators plus per-interval regressions."""
    n = len(rep.flows)
    ind_p, ind_m = arrival_indicators(rep.flows)
    c_p = np.zeros(n)
    p_p = np.zeros(n)
    v_p = np.zeros(n, dtype=bool)
    c_m = np.zeros(n)
    p_m = np.zeros(n)
    v_m = np.zeros(n, dtype=bool)
    for k in range(n):
        if not rep.flows[k].mos:
            continue
        cp, ppr, cm, pmr, (vp, vm) = estimate_demand_interval(
            rep.snapshots[k], rep.flows[k], float(rep.midprices[k]),
            level_depth=level_depth, tick_size=tick_size,
            weight_scheme=weight_scheme)
        c_p[k], p_p[k], v_p[k] = cp, ppr, vp
        c_m[k], p_m[k], v_m[k] = cm, pmr, vm
    return DayEstimates(day_id=day_id, ind_plus=ind_p, ind_minus=ind_m,
                        c_plus=c_p, p_plus=p_p, valid_plus=v_p,
                        c_minus=c_m, p_minus=p_m, valid_minus=v_m,
                        midprices=np.asarray(rep.midprices, dtype=float))


def _side_daily_moments(c, p, valid) -> SideMoments:
    if not np.any(valid):
        raise ValueError("insufficient data: no valid intervals on one side")
    c = c[valid]
    p = p[valid]
    return SideMoments(
        mu_c=float(np.mean(c)),
        mu_c2=float(np.mean(c ** 2)),
        mu_cp=float(np.mean(c * p)),
        mu_c2p=float(np.mean(c ** 2 * p)),
        mu_c2p2=float(np.mean(c ** 2 * p ** 2)),
        mu_p=float(np.mean(p)),
        mu_p2=float(np.mean(p ** 2)),
    )


def daily_moments(day: DayEstimates) -> DemandMoments:
    """Arithmetic means of per-interval regression products over valid
    intervals, conditioning on that side's arrival."""
    return DemandMoments(
        plus=_side_daily_moments(day.c_plus, day.p_plus, day.valid_plus),
        minus=_side_daily_moments(day.c_minus, day.p_minus, day.valid_minus),
    )


def _mean_side(sides) -> SideMoments:
    fields = ("mu_c", "mu_c2", "mu_cp", "mu_c2p", "mu_c2p2", "mu_p", "mu_p2")
    vals = {f: float(np.mean([getattr(s, f) for s in sides])) for f in fields}
    return SideMoments(**vals)


def rolling_params(day_index: int, store, window: int = 20,
                   lam: float = 0.0005, tick_size: float = 1.0,
                   step_seconds: float = 1.0,
                   session_start_ns: int = 0) -> MarketParams:
    """Parameters for day ``day_index`` from the prior ``window`` days."""
    if day_index < window:
        raise ValueError(f"need {window} prior days, have {day_index}")
    days = store[day_index - window:day_index]
    moment_sets = [daily_moments(d) for d in days]
    moments = DemandMoments(
        plus=_mean_side([m.plus for m in moment_sets]),
        minus=_mean_side([m.minus for m in moment_sets]),
    )
    arrivals = fit_arrival_curves([d.ind_plus for d in days],
                                  [d.ind_minus for d in days])
    grid = TimeGrid(n_steps=len(days[0].ind_plus), step_seconds=step_seconds,
                    session_start_ns=session_start_ns)
    return MarketParams(grid=grid, arrivals=arrivals, moments=moments,
                        lam=lam, tick_size=tick_size)


def drift_forecast(midprices) -> float:
    """Average of the last five midprice increments; zero during warm-up."""
    m = np.asarray(midprices, dtype=float)
    if len(m) < _DRIFT_LAG + 1:
        return 0.0
    return float((m[-1] - m[-1 - _DRIFT_LAG]) / _DRIFT_LAG)


def drift_forecast_series(midprices):
    """Per-step forecasts with a warm-up mask (True where history was too
    short and the forecast defaulted to zero)."""
    m = np.asarray(midprices, dtype=float)
    n = len(m)
    out = np.zeros(n)
    warmup = np.ones(n, dtype=bool)
    if n > _DRIFT_LAG:
        out[_DRIFT_LAG:] = (m[_DRIFT_LAG:] - m[:-_DRIFT_LAG]) / _DRIFT_LAG
        warmup[_DRIFT_LAG:] = False
    return out, warmup


def nearest_rank_quantile(values, q: float) -> float:
    """Nearest-rank quantile with exclusive tie handling: the smallest
    element whose rank strictly exceeds q*n (so an all-identical sample
    flags nothing under a strict comparison)."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n == 0:
        raise ValueError("empty sample")
    rank = int(np.ceil(q * n))
    rank = min(max(rank, 1), n)
    return float(x[rank - 1])


def structural_break_flags(day_ids, err_cp_plus, err_cp_minus, err_pi11,
                           q: float = 0.95) -> BreakReport:
    """Flag days whose rolling-vs-realized parameter errors are extreme:
    either cross-moment error beyond its one-sided quantile, or the joint
    arrival error beyond the quantile of its absolute values."""
    ep = np.asarray(err_cp_plus, dtype=float)
    em = np.asarray(err_cp_minus, dtype=float)
    ej = np.asarray(err_pi11, dtype=float)
    thr_p = nearest_rank_quantile(ep, q)
    thr_m = nearest_rank_quantile(em, q)
    thr_j = nearest_rank_quantile(np.abs(ej), q)
    flagged = [day_ids[i] for i in range(len(ep))
               if ep[i] > thr_p or em[i] > thr_m or abs(ej[i]) > thr_j]
    return BreakReport(day_ids=list(day_ids), err_cp_plus=ep, err_cp_minus=em,
                       err_pi11=ej, threshold_cp_plus=thr_p,
                       threshold_cp_minus=thr_m, threshold_pi11=thr_j,
                       flagged=flagged)


def compute_break_errors(store, window: int = 20):
    """Rolling-mean-minus-realized error series feeding the break screen.

    Returns (day_ids, err_cp_plus, err_cp_minus, err_pi11) for every day
    with a full prior window.
    """
    ids, ep, em, ej = [], [], [], []
    cp_p = []
    cp_m = []
    pi11 = []
    for d in store:
        mp = d.c_plus[d.valid_plus] * d.p_plus[d.valid_plus]
        mm = d.c_minus[d.valid_minus] * d.p_minus[d.valid_minus]
        cp_p.append(float(np.mean(mp)) if len(mp) else np.nan)
        cp_m.append(float(np.mean(mm)) if len(mm) else np.nan)
        pi11.append(float(np.mean(d.ind_plus * d.ind_minus)))
    for i in range(window, len(store)):
        ids.append(store[i].day_id)
        ep.append(float(np.nanmean(cp_p[i - window:i])) - cp_p[i])
        em.append(float(np.nanmean(cp_m[i - window:i])) - cp_m[i])
        ej.append(float(np.mean(pi11[i - window:i])) - pi11[i])
    return ids, np.array(ep), np.array(em), np.array(ej)
