"""Parameter calibration from replayed event streams.

Pipeline: per-interval arrival indicators -> quadratic intraday arrival
curves -> per-interval weighted demand regressions (all intervals of a day
in one array pass) -> daily moment sets -> rolling window averages -> drift
forecasts and structural-break screening.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .lob import ReplayResult
from .model import (ArrivalSchedule, DemandMoments, MarketParams, SideMoments,
                    TimeGrid, joint_bounds)

__all__ = [
    "DayEstimates",
    "fit_arrival_curves",
    "estimate_day",
    "daily_moments",
    "rolling_params",
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
    clipped = np.clip(pi_j, *joint_bounds(pi_p, pi_m))
    if np.any(clipped != pi_j):
        warnings.warn("joint arrival curve clamped to feasible bounds")
    return ArrivalSchedule(pi_plus=pi_p, pi_minus=pi_m, pi_joint=clipped)


def estimate_day(rep: ReplayResult, day_id, level_depth: int = 10,
                 tick_size: float = 1.0) -> DayEstimates:
    """Arrival indicators and per-interval demand fits, in array passes.

    Buy MOs consume the ask side (``plus``), sell MOs the bid side. For
    each interval and side with an MO and a non-empty touch, the measured
    demand at the ``level_depth`` placements touch + sign * j (j = 0, 1,
    ...) is the fill an uncapped order there would get from the side's
    MOs, sum of max(V_MO - V_better, 0). Demand at distance l follows D(l)
    = c (p - l) where it is positive; zero-fill levels are censored. The
    levels with a fill and a positive distance, at least 2, get a linear
    fit, each weighted by the inverse of 1 + its distance in ticks, that
    is a least-squares weight w**2. The side is valid if c > 0 and p > 0,
    and not if the kept fills are all equal: that flat profile has c = 0,
    whatever sign rounding gives the fitted slope.
    """
    n = len(rep.midprices)
    side, interval = rep.mo_side, rep.mo_interval
    ind = np.zeros((2, n), dtype=np.int8)
    ind[side, interval] = 1
    j = np.arange(level_depth)

    # group g = side * n + k; every MO at each placement of its group
    sign = np.repeat([-1, 1], n)[:, None]
    touch = rep.book_prices[:n, :, 0].T.reshape(-1, 1)
    placed = touch + sign * j
    group = side * n + interval
    mo = np.arange(len(side))[:, None]
    take = np.maximum(rep.mo_volume[:, None] - rep.better_priced_volume(
        mo, placed[group]), 0)
    fills = np.bincount((group[:, None] * level_depth + j).ravel(),
                        weights=take.ravel(),
                        minlength=2 * n * level_depth).reshape(2 * n, -1)

    dist = sign * (placed * tick_size - np.tile(rep.midprices, 2)[:, None])
    keep = ((fills > 0) & (dist > 0)
            & (rep.book_depth[:n].T.reshape(-1, 1) > 0))
    with np.errstate(all="ignore"):  # at the levels and sides not fitted
        w = 1.0 / (1.0 + dist / tick_size)
        W = np.where(keep, w * w, 0.0)
        s0, sx, sy = W.sum(1), (W * dist).sum(1), (W * fills).sum(1)
        sxx, sxy = (W * dist * dist).sum(1), (W * dist * fills).sum(1)
        c = (sx * sy - s0 * sxy) / (s0 * sxx - sx * sx)  # minus the slope
        p = (sy + c * sx) / s0 / c
    flat = (np.where(keep, fills, np.inf).min(1)
            == np.where(keep, fills, 0.0).max(1))
    valid = (keep.sum(1) >= 2) & ~flat & (c > 0) & (p > 0)
    c, p = np.where(valid, c, 0.0), np.where(valid, p, 0.0)
    return DayEstimates(day_id=day_id, ind_plus=ind[1], ind_minus=ind[0],
                        c_plus=c[n:], p_plus=p[n:], valid_plus=valid[n:],
                        c_minus=c[:n], p_minus=p[:n], valid_minus=valid[:n])


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


def drift_forecast_series(midprices) -> np.ndarray:
    """Per-step forecasts, each the average of the last five midprice
    increments up to that step; zero in the first five steps, where the
    history is too short."""
    m = np.asarray(midprices, dtype=float)
    out = np.zeros(len(m))
    if len(m) > _DRIFT_LAG:
        out[_DRIFT_LAG:] = (m[_DRIFT_LAG:] - m[:-_DRIFT_LAG]) / _DRIFT_LAG
    return out


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
                           q: float = 0.95) -> list:
    """The ids of the days whose rolling-vs-realized parameter errors are
    extreme: either cross-moment error beyond its one-sided quantile, or
    the joint arrival error beyond the quantile of its absolute values."""
    ep = np.asarray(err_cp_plus, dtype=float)
    em = np.asarray(err_cp_minus, dtype=float)
    ej = np.asarray(err_pi11, dtype=float)
    thr_p = nearest_rank_quantile(ep, q)
    thr_m = nearest_rank_quantile(em, q)
    thr_j = nearest_rank_quantile(np.abs(ej), q)
    return [day_ids[i] for i in range(len(ep))
            if ep[i] > thr_p or em[i] > thr_m or abs(ej[i]) > thr_j]


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
