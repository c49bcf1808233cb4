"""Synthetic event-stream day generator with known ground truth.

Each interval the book is rebuilt just before the action time with a fresh
ladder on both sides; the per-level volume on a side equals that side's
drawn demand slope c, and market-order volumes are c * (p - l_1), where
l_1 is the distance of the touch from the mid. With this construction the
measured demand at any deeper placement is exactly c * (p - l): the full
calibration pipeline can be validated against exact parameter values.

The midprice performs a persistent-regime random walk on the tick grid, so
the trailing-increment drift forecast carries real predictive signal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lob import EVENT_DTYPE
from .model import (ArrivalSchedule, DemandMoments, MarketParams, SideMoments,
                    TimeGrid, arrival_indicators)

__all__ = ["SyntheticDayConfig", "SyntheticTruth", "generate_day",
           "true_market_params"]

# generate_day fills at most this many event slots (512 KiB) a block
_BLOCK_SLOTS = 1 << 14


@dataclass(frozen=True)
class SyntheticDayConfig:
    n_steps: int = 19800
    step_seconds: float = 1.0
    tick_size: float = 1.0
    pi_plus: float = 0.2
    pi_minus: float = 0.2
    pi_joint: float = 0.05
    c_values: tuple = (80.0, 120.0)
    p_values: tuple = (4.0, 6.0)
    depth: int = 12           # ladder levels per side
    default_volume: int = 100  # level volume when no MO arrives on a side
    start_price_ticks: int = 10000
    regime_switch_prob: float = 0.02
    move_prob: float = 0.3
    lam: float = 0.0005


@dataclass
class SyntheticTruth:
    config: SyntheticDayConfig
    params: MarketParams
    mid_ticks: np.ndarray   # best-bid tick X_k per action time
    ind_plus: np.ndarray
    ind_minus: np.ndarray
    c_plus: np.ndarray
    p_plus: np.ndarray
    c_minus: np.ndarray
    p_minus: np.ndarray


def _true_side_moments(cfg: SyntheticDayConfig) -> SideMoments:
    c = np.asarray(cfg.c_values, dtype=float)
    p = np.asarray(cfg.p_values, dtype=float)
    ec, ec2 = np.mean(c), np.mean(c ** 2)
    ep, ep2 = np.mean(p), np.mean(p ** 2)
    return SideMoments(mu_c=ec, mu_c2=ec2, mu_cp=ec * ep, mu_c2p=ec2 * ep,
                       mu_c2p2=ec2 * ep2, mu_p=ep, mu_p2=ep2)


def true_market_params(cfg: SyntheticDayConfig) -> MarketParams:
    side = _true_side_moments(cfg)
    return MarketParams(
        grid=TimeGrid(n_steps=cfg.n_steps, step_seconds=cfg.step_seconds,
                      session_start_ns=10 ** 9),
        arrivals=ArrivalSchedule.constant(cfg.pi_plus, cfg.pi_minus,
                                          cfg.pi_joint, cfg.n_steps),
        moments=DemandMoments(plus=side, minus=side),
        lam=cfg.lam,
        tick_size=cfg.tick_size,
    )


def generate_day(cfg: SyntheticDayConfig, seed: int):
    """Build one day of events. Returns (events array, SyntheticTruth)."""
    if cfg.depth < 1:
        raise ValueError(f"depth must be at least 1, got {cfg.depth}")
    rng = np.random.default_rng(seed)
    n = cfg.n_steps
    params = true_market_params(cfg)
    grid = params.grid

    # price regimes and moves
    switches = rng.random(n) < cfg.regime_switch_prob
    r0 = 1 if rng.random() < 0.5 else -1
    regimes = np.where(np.cumsum(switches) % 2 == 1, -r0, r0).astype(np.int8)
    moves = (rng.random(n) < cfg.move_prob).astype(np.int64) * regimes
    X = cfg.start_price_ticks + np.concatenate([[0], np.cumsum(moves[:-1])])

    # arrivals and demand draws
    u = rng.random(n)
    ind_p, ind_m = arrival_indicators(cfg.pi_plus, cfg.pi_minus,
                                      cfg.pi_joint, u)
    c_p = rng.choice(cfg.c_values, size=n)
    p_p = rng.choice(cfg.p_values, size=n)
    c_m = rng.choice(cfg.c_values, size=n)
    p_m = rng.choice(cfg.p_values, size=n)

    # Each step k owns one row of 6*depth + 2 event slots, in stream order:
    # the cancels of step k-1's ladder, the adds of step k's ladder (ask and
    # bid interleaved by level), then per side the market order and its
    # executes. ``keep`` marks the slots that hold an event. The rows are
    # filled a block of steps at a time, and each block's kept records are
    # copied whole to their place in ``events``, so no grid of the whole
    # day is ever built.
    depth = cfg.depth
    ladder = 2 * depth
    width = 6 * depth + 2
    step_ns = int(round(cfg.step_seconds * 1e9))
    t = grid.action_times_ns()[:n]
    rebuild_ts = (t - 100_000)[:, None]
    x = X[:, None]
    level = np.arange(depth)
    keep = np.empty((n, width), dtype=bool)
    price = np.empty((n, ladder), dtype=np.int64)
    size = np.empty_like(price)
    rest = np.empty_like(price)
    orders = []
    col = 2 * ladder
    for side, ind, c, p, ts, touch in (
            (1, ind_p, c_p, p_p, t + step_ns // 3, x + 1 + level),
            (0, ind_m, c_m, p_m, t + 2 * step_ns // 3, x - level)):
        # every level holds vol; a market order of mo = c*(p - l_1) with
        # l_1 = 0.5 ticks takes min(vol, mo - j*vol) from level j while
        # mo - j*vol > 0
        vol = np.where(ind, np.rint(c), cfg.default_volume).astype(
            np.int64)[:, None]
        mo = np.rint(c * (p - 0.5)).astype(np.int64)[:, None]
        left = mo - level * vol
        hit = ind[:, None] & (mo > 0) & (left > 0)
        take = np.minimum(vol, left)
        slots = slice(1 - side, None, 2)
        price[:, slots] = touch
        size[:, slots] = vol
        rest[:, slots] = np.where(hit, vol - take, vol)
        keep[:, col] = ind
        keep[:, col + 1:col + 1 + depth] = hit
        orders.append((col, side, slots, ts[:, None], mo, take))
        col += 1 + depth
    keep[0, :ladder] = False
    keep[1:, :ladder] = rest[:-1] > 0
    keep[:, ladder:2 * ladder] = True
    starts = np.concatenate([[0], np.cumsum(np.count_nonzero(keep, axis=1))])
    events = np.empty(starts[-1], dtype=EVENT_DTYPE)

    def fill(block, ts, kind, side, price, size, ref=0):
        block["ts_ns"], block["kind"], block["side"] = ts, kind, side
        block["price_ticks"], block["size"] = price, size
        block["order_ref"] = ref

    sides = np.tile([1, 0], depth)
    block_steps = max(1, _BLOCK_SLOTS // width)
    for a in range(0, n, block_steps):
        b = min(a + block_steps, n)
        ev = np.zeros((b - a, width), dtype=EVENT_DTYPE)
        # refs[i] are the order refs of step a - 1 + i's ladder
        refs = 1 + ladder * np.arange(a - 1, b)[:, None] + np.arange(ladder)
        for col, side, slots, ts, mo, take in orders:
            fill(ev[:, col:col + 1], ts[a:b], 3, side, x[a:b] + side, mo[a:b])
            fill(ev[:, col + 1:col + 1 + depth], ts[a:b], 2, side,
                 price[a:b, slots], take[a:b], refs[1:, slots])
        first = max(a, 1)  # step 0 has no cancels
        fill(ev[first - a:, :ladder], rebuild_ts[first:b], 1, sides,
             price[first - 1:b - 1], rest[first - 1:b - 1], refs[first - a:-1])
        fill(ev[:, ladder:2 * ladder], rebuild_ts[a:b], 0, sides, price[a:b],
             size[a:b], refs[1:])
        # Whole 32-byte records, since a structured copy goes field by field;
        # "clip" writes straight into out (every index is in range).
        np.take(ev.reshape(-1).view("V32"), np.flatnonzero(keep[a:b]),
                out=events[starts[a]:starts[b]].view("V32"), mode="clip")

    truth = SyntheticTruth(config=cfg, params=params, mid_ticks=X,
                           ind_plus=ind_p.astype(np.int8),
                           ind_minus=ind_m.astype(np.int8),
                           c_plus=c_p, p_plus=p_p, c_minus=c_m, p_minus=p_m)
    return events, truth
