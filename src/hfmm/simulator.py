"""Synthetic-market Monte-Carlo engine.

Implements the exact step dynamics of the model (Bernoulli arrivals plus
linear random demand) once, in a loop that advances many paths together:
``monte_carlo_values`` evaluates quoting policies over many independent
paths with it, and ``run_episode`` records one path of it step by step.

Reproducibility: path i draws exactly what
``Generator(PCG64(SeedSequence(seed).spawn(n_paths)[i]))`` would, so it is
identical regardless of path count, chunking, or worker layout. A path
draws its n_steps x 5 uniforms (u_arrival, u_c+, u_p+, u_c-, u_p-) first,
then its n_steps price normals, drawn only when the price has volatility: a
still price has none, so its normals take neither time nor memory. The step
loop reads the draws step-major, one contiguous row per channel.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import MarketParams, arrival_indicators, penalized_wealth

__all__ = [
    "SideDistribution",
    "TwoPointIndependent",
    "DemandDistribution",
    "PriceModel",
    "SimMarket",
    "EpisodeResult",
    "run_episode",
    "monte_carlo_value",
    "monte_carlo_values",
]

_SAMPLE_FLOOR = 1e-9
# Paths drawn per path-major block before the copy into a step-major chunk:
# 256 paths of 200 steps are 2.4 MB of draws, which stay in cache.
_BLOCK_PATHS = 256
# A chunk holds at most _CHUNK_CELLS float64 draws (32 MB; 6 a path-step),
# so its memory does not grow with the horizon, but never fewer than
# _MIN_CHUNK_PATHS paths: each step costs about 25 us plus 16 ns a path, so
# narrower chunks of a long day would spend their time in per-step overhead.
_CHUNK_CELLS = 1 << 22
_MIN_CHUNK_PATHS = 1024


# ---------------------------------------------------------------------------
# Demand families. Each one maps two uniform channels to (c, p) samples;
# the tests derive their moments and atoms (tests/demand_families.py).
# ---------------------------------------------------------------------------

class SideDistribution:
    """Interface: sample(u_c, u_p) -> (c, p)."""

    def sample(self, u_c, u_p):
        raise NotImplementedError


@dataclass(frozen=True)
class TwoPointIndependent(SideDistribution):
    """c and p each take two values independently."""

    c_values: tuple
    p_values: tuple
    c_prob_low: float = 0.5
    p_prob_low: float = 0.5

    @classmethod
    def from_mean_var(cls, mu_c: float, var_c: float, mu_p: float,
                      var_p: float) -> "TwoPointIndependent":
        dc, dp = math.sqrt(var_c), math.sqrt(var_p)
        return cls((mu_c - dc, mu_c + dc), (mu_p - dp, mu_p + dp))

    def __post_init__(self):
        for name in ("c_values", "p_values"):
            if len(getattr(self, name)) != 2:
                raise ValueError(f"{name} must hold two atoms, got "
                                 f"{getattr(self, name)!r}")
        for name in ("c_prob_low", "p_prob_low"):
            prob = getattr(self, name)
            if not 0.0 <= prob <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {prob!r}")

    @cached_property
    def _floored(self):
        """(c_low, c_high, p_low, p_high), each at least _SAMPLE_FLOOR."""
        return tuple(float(max(v, _SAMPLE_FLOOR))
                     for v in (*self.c_values, *self.p_values))

    @cached_property
    def _tables(self):
        """The atoms of c and of p as [high, low]: entry 1 where u < prob."""
        c_low, c_high, p_low, p_high = self._floored
        return np.array([c_high, c_low]), np.array([p_high, p_low])

    def sample(self, u_c, u_p):
        # a take indexed by the compare's bytes: np.where's select is
        # branchy, and random masks mispredict about half its branches
        c_table, p_table = self._tables
        return (c_table.take((u_c < self.c_prob_low).view(np.uint8)),
                p_table.take((u_p < self.p_prob_low).view(np.uint8)))


@dataclass(frozen=True)
class DemandDistribution:
    plus: SideDistribution
    minus: SideDistribution


# ---------------------------------------------------------------------------
# Price model and market bundle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PriceModel:
    """Fundamental-price dynamics: S_{k+1} = S_k + drift_k + vol_k * Z."""

    S0: float
    drift: object = 0.0  # scalar or per-step array
    vol: object = 0.0    # scalar or per-step array

    def drift_array(self, n: int) -> np.ndarray:
        return np.broadcast_to(np.asarray(self.drift, dtype=float), (n,)).copy()

    def vol_array(self, n: int) -> np.ndarray:
        return np.broadcast_to(np.asarray(self.vol, dtype=float), (n,)).copy()


@dataclass(frozen=True)
class SimMarket:
    params: MarketParams
    demand: DemandDistribution
    price: PriceModel


@dataclass
class EpisodeResult:
    S: np.ndarray        # length n+1 (includes terminal price)
    W: np.ndarray        # length n+1
    I: np.ndarray        # length n+1
    L_plus: np.ndarray   # length n
    L_minus: np.ndarray
    Q_plus: np.ndarray
    Q_minus: np.ndarray
    ind_plus: np.ndarray
    ind_minus: np.ndarray
    terminal_objective: float


# SeedSequence's hashing and PCG64's seeding, as numpy defines them (both
# fixed by its stream-compatibility policy).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_chain(const, mult):
    """SeedSequence's running hash constant: each hash xors its value with
    the current constant and multiplies it by the next one."""
    while True:
        nxt = const * mult & _MASK32
        yield np.uint32(const), np.uint32(nxt)
        const = nxt


def _hashmix(value, chain):
    xor, mult = next(chain)
    value = (value ^ xor) * mult
    return value ^ (value >> np.uint32(16))


def _mix(x, y):
    r = x * _MIX_MULT_L - y * _MIX_MULT_R
    return r ^ (r >> np.uint32(16))


def _path_state_words(seed, n_paths: int) -> np.ndarray:
    """Row i is ``SeedSequence(seed).spawn(n_paths)[i].generate_state(4,
    np.uint64)``, computed for all children at once.

    A child's entropy is the seed's little-endian 32-bit words, zero-padded
    to the pool size, then its spawn index (one word: n_paths is far below
    2**32 for any array that fits in memory). SeedSequence mixes them through
    a chain of hash constants that does not depend on the values, so uint32
    array arithmetic, which wraps as SeedSequence's does, runs that mixing
    over every child in one pass.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed & _MASK32]
    while seed > _MASK32:
        seed >>= 32
        words.append(seed & _MASK32)
    words += [0] * (_POOL_SIZE - len(words))
    entropy = [np.full(n_paths, w, np.uint32) for w in words]
    entropy.append(np.arange(n_paths, dtype=np.uint32))

    chain = _hash_chain(_INIT_A, _MULT_A)
    pool = [_hashmix(e, chain) for e in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], chain))
    for e in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(e, chain))

    chain = _hash_chain(_INIT_B, _MULT_B)
    state = np.empty((n_paths, 8), "<u4")
    for j in range(8):
        state[:, j] = _hashmix(pool[j % _POOL_SIZE], chain)
    return state.view("<u8").astype(np.uint64)


def _path_draws(words, rng, u, z=None):
    """Fill one path's uniforms u (n, 5), then its normals z (n,) unless z
    is None, from ``rng``, reseeded from the path's 4 state words (Python
    ints) by PCG64's own seeding rule: the draws are those of a fresh PCG64
    seeded with them."""
    w0, w1, w2, w3 = words
    inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
    state = ((inc + (w0 << 64 | w1)) * _PCG64_MULT + inc) & _MASK128
    rng.bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
    rng.random(out=u)
    if z is not None:
        rng.standard_normal(out=z)


def _steps(policy, market: SimMarket, u, z):
    """Advance m paths together through the model's step dynamics from S0
    with no cash or inventory, quoting ``policy.spreads(k, S, I)`` (a
    ``backtest.Policy``). After step k it yields the state (S, W, I) and
    the step's (L+, L-, Q+, Q-, arrival indicators), all arrays over the
    paths; W and I are updated in place, so read them before resuming.

    Fills follow the linear demand rule verbatim: they are negative when a
    quote lies beyond the taker's reservation price.

    The draws are step-major, uniforms u (n_steps, 5, m) and normals z
    (n_steps, m), so each step reads whole contiguous rows. z is None when
    the price has no volatility: the step then adds only the drift, which
    is what adding 0 * z gives for any price but -0.0.
    """
    p = market.params
    n = p.grid.n_steps
    drift = market.price.drift_array(n).tolist()
    vol = market.price.vol_array(n).tolist()
    a = p.arrivals
    pp, pm, pj = a.pi_plus.tolist(), a.pi_minus.tolist(), a.pi_joint.tolist()
    plus, minus = market.demand.plus, market.demand.minus
    m = u.shape[2]
    S = np.full(m, market.price.S0)
    W = np.zeros(m)
    I = np.zeros(m)
    for k in range(n):
        u_arr, u_cp, u_pp, u_cm, u_pm = u[k]
        ind_p, ind_m = arrival_indicators(pp[k], pm[k], pj[k], u_arr)
        Lp, Lm = policy.spreads(k, S, I)
        cp, ppr = plus.sample(u_cp, u_pp)
        cm, pmr = minus.sample(u_cm, u_pm)
        # Q = ind * c * (p - L) and W += (S + L+) Q+ - (S - L-) Q-, their
        # products and sums taken in the same order but in place
        Qp = ind_p * cp
        Qp *= ppr - Lp
        Qm = ind_m * cm
        Qm *= pmr - Lm
        cash = S + Lp
        cash *= Qp
        paid = S - Lm
        paid *= Qm
        cash -= paid
        W += cash
        I += Qm - Qp
        S = S + drift[k]
        if z is not None:
            S += vol[k] * z[k]
        yield S, W, I, (Lp, Lm, Qp, Qm, ind_p, ind_m)


def _reject_forecast(policies):
    """The step loop quotes with no forecast shift, so a forecast policy
    would run as its martingale rule: refuse it."""
    for policy in policies:
        if getattr(policy, "forecast", False):
            raise ValueError(f"policy {policy.name!r} quotes on a drift "
                             "forecast, which the simulator does not model")


def run_episode(policy, market: SimMarket, rng_seed) -> EpisodeResult:
    """One path of the Monte-Carlo step loop, recorded step by step;
    deterministic given the seed. A ``SeedSequence`` spawned as path i of
    ``monte_carlo_values`` reproduces that path exactly."""
    _reject_forecast([policy])
    n = market.params.grid.n_steps
    moving = market.price.vol_array(n).any()
    seq = (rng_seed if isinstance(rng_seed, np.random.SeedSequence)
           else np.random.SeedSequence(rng_seed))
    u, z = np.empty((n, 5)), (np.empty(n) if moving else None)
    _path_draws(seq.generate_state(4, np.uint64).tolist(),
                np.random.Generator(np.random.PCG64(0)), u, z)

    states = [(market.price.S0, 0.0, 0.0)]
    logs = []
    for S, W, I, step in _steps(policy, market, u[:, :, None],
                                z[:, None] if moving else None):
        states.append((S[0], W[0], I[0]))
        logs.append([np.ravel(x)[0] for x in step])
    S_log, W_log, I_log = np.array(states).T
    Lp, Lm, Qp, Qm, ind_p, ind_m = np.array(logs).T
    return EpisodeResult(S=S_log, W=W_log, I=I_log, L_plus=Lp, L_minus=Lm,
                         Q_plus=Qp, Q_minus=Qm, ind_plus=ind_p.astype(int),
                         ind_minus=ind_m.astype(int),
                         terminal_objective=penalized_wealth(
                             W, S, I, market.params.lam)[0])


def monte_carlo_values(policies, market: SimMarket, n_paths: int,
                       base_seed: int):
    """Evaluate several policies on identical draws (common random numbers).

    Returns a list of (mean, std_error) tuples, one per policy, plus the
    per-policy objective arrays for further analysis. A forecast policy,
    or n_paths below 1, raises ValueError.

    Paths run in chunks on step-major draws. A chunk holds up to
    ``_CHUNK_CELLS`` draws, but never fewer than ``_MIN_CHUNK_PATHS`` paths.
    Each path still draws its own (n_steps, 5) uniforms, and normals when
    the price has volatility, into a path-major block of ``_BLOCK_PATHS``
    paths, small enough to stay in cache while it is copied into the
    chunk's columns. The budget counts the normals' cells for a still price
    too, so the width does not depend on the price.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be at least 1, got {n_paths}")
    _reject_forecast(policies)
    n = market.params.grid.n_steps
    moving = market.price.vol_array(n).any()
    words = _path_state_words(base_seed, n_paths)
    rng = np.random.Generator(np.random.PCG64(0))

    objectives = [np.empty(n_paths) for _ in policies]
    width = min(n_paths, max(_CHUNK_CELLS // (6 * n), _MIN_CHUNK_PATHS))
    block = min(_BLOCK_PATHS, width)
    u_buf, u_blk = np.empty((n, 5, width)), np.empty((block, n, 5))
    if moving:
        z_buf, z_blk = np.empty((n, width)), np.empty((block, n))
    for start in range(0, n_paths, width):
        stop = min(start + width, n_paths)
        m = stop - start
        u, z = u_buf[:, :, :m], (z_buf[:, :m] if moving else None)
        for b0 in range(0, m, block):
            b1 = min(b0 + block, m)
            for i, path_words in enumerate(
                    words[start + b0:start + b1].tolist()):
                _path_draws(path_words, rng, u_blk[i],
                            z_blk[i] if moving else None)
            u[:, :, b0:b1] = u_blk[:b1 - b0].transpose(1, 2, 0)
            if moving:
                z[:, b0:b1] = z_blk[:b1 - b0].T

        for pol_idx, policy in enumerate(policies):
            for S, W, I, _ in _steps(policy, market, u, z):
                pass
            objectives[pol_idx][start:stop] = penalized_wealth(
                W, S, I, market.params.lam)

    out = []
    for obj in objectives:
        mean = float(np.mean(obj))
        se = (float(np.std(obj, ddof=1) / math.sqrt(n_paths))
              if n_paths > 1 else float("nan"))
        out.append((mean, se))
    return out, objectives


def monte_carlo_value(policy, market: SimMarket, n_paths: int,
                      base_seed: int):
    """Mean and standard error of the terminal objective under one policy."""
    (stats,), _ = monte_carlo_values([policy], market, n_paths, base_seed)
    return stats
