"""Synthetic-market Monte-Carlo engine.

Implements the exact step dynamics of the model (Bernoulli arrivals plus
linear random demand) once, in a loop that advances many paths together:
``monte_carlo_values`` evaluates quoting policies over many independent
paths with it, and ``run_episode`` records one path of it step by step.

Reproducibility: path i draws exactly what
``Generator(PCG64(SeedSequence(seed).spawn(n_paths)[i]))`` would, so it is
identical regardless of path count, chunking, or worker layout. Each step
consumes a fixed channel layout (u_arrival, u_c+, u_p+, u_c-, u_p-, z_price).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .model import DemandMoments, MarketParams, SideMoments

__all__ = [
    "SideDistribution",
    "PointMass",
    "TwoPointIndependent",
    "LognormalIndependent",
    "GaussianCopulaLognormal",
    "DemandDistribution",
    "PriceModel",
    "SimMarket",
    "EpisodeResult",
    "run_episode",
    "monte_carlo_value",
    "monte_carlo_values",
]

_SAMPLE_FLOOR = 1e-9


# ---------------------------------------------------------------------------
# Demand families. Each one maps two uniform channels to (c, p) samples and
# knows its own moments analytically; discrete families also expose their
# atoms for exhaustive enumeration.
# ---------------------------------------------------------------------------

class SideDistribution:
    """Interface: sample(u_c, u_p) -> (c, p); side_moments(); atoms()."""

    def sample(self, u_c, u_p):
        raise NotImplementedError

    def side_moments(self) -> SideMoments:
        raise NotImplementedError

    def atoms(self):
        """List of (c, p, prob) for finite-support families, else None."""
        return None


def _moments_from_atoms(atoms) -> SideMoments:
    arr = np.array([(c, p, w) for c, p, w in atoms], dtype=float)
    c, p, w = arr[:, 0], arr[:, 1], arr[:, 2]
    return SideMoments(
        mu_c=float(w @ c),
        mu_c2=float(w @ c ** 2),
        mu_cp=float(w @ (c * p)),
        mu_c2p=float(w @ (c ** 2 * p)),
        mu_c2p2=float(w @ (c ** 2 * p ** 2)),
        mu_p=float(w @ p),
        mu_p2=float(w @ p ** 2),
    )


@dataclass(frozen=True)
class PointMass(SideDistribution):
    c: float
    p: float

    def sample(self, u_c, u_p):
        shape = np.shape(u_c)
        return np.full(shape, self.c), np.full(shape, self.p)

    def side_moments(self) -> SideMoments:
        return _moments_from_atoms(self.atoms())

    def atoms(self):
        return [(self.c, self.p, 1.0)]


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

    def sample(self, u_c, u_p):
        c = np.where(u_c < self.c_prob_low, self.c_values[0], self.c_values[1])
        p = np.where(u_p < self.p_prob_low, self.p_values[0], self.p_values[1])
        return np.maximum(c, _SAMPLE_FLOOR), np.maximum(p, _SAMPLE_FLOOR)

    def side_moments(self) -> SideMoments:
        return _moments_from_atoms(self.atoms())

    def atoms(self):
        out = []
        for c, wc in zip(self.c_values, (self.c_prob_low, 1 - self.c_prob_low)):
            for p, wp in zip(self.p_values, (self.p_prob_low, 1 - self.p_prob_low)):
                out.append((max(c, _SAMPLE_FLOOR), max(p, _SAMPLE_FLOOR), wc * wp))
        return out


def _lognormal_moment(m, s, order):
    return math.exp(order * m + 0.5 * (order * s) ** 2)


@dataclass(frozen=True)
class LognormalIndependent(SideDistribution):
    """Independent lognormal c and p (log-mean/log-std parameterization)."""

    m_c: float
    s_c: float
    m_p: float
    s_p: float

    @classmethod
    def from_moments(cls, mu_c, mu_c2, mu_p, mu_p2) -> "LognormalIndependent":
        if mu_c2 <= mu_c ** 2 or mu_p2 <= mu_p ** 2:
            raise ValueError("second moments must exceed squared means")
        s_c = math.sqrt(math.log(mu_c2 / mu_c ** 2))
        s_p = math.sqrt(math.log(mu_p2 / mu_p ** 2))
        return cls(math.log(mu_c) - s_c ** 2 / 2, s_c,
                   math.log(mu_p) - s_p ** 2 / 2, s_p)

    def sample(self, u_c, u_p):
        from scipy.special import ndtri  # lazily: scipy is slow to import

        c = np.exp(self.m_c + self.s_c * ndtri(u_c))
        p = np.exp(self.m_p + self.s_p * ndtri(u_p))
        return np.maximum(c, _SAMPLE_FLOOR), np.maximum(p, _SAMPLE_FLOOR)

    def side_moments(self) -> SideMoments:
        ec = _lognormal_moment(self.m_c, self.s_c, 1)
        ec2 = _lognormal_moment(self.m_c, self.s_c, 2)
        ep = _lognormal_moment(self.m_p, self.s_p, 1)
        ep2 = _lognormal_moment(self.m_p, self.s_p, 2)
        return SideMoments(mu_c=ec, mu_c2=ec2, mu_cp=ec * ep,
                           mu_c2p=ec2 * ep, mu_c2p2=ec2 * ep2,
                           mu_p=ep, mu_p2=ep2)


@dataclass(frozen=True)
class GaussianCopulaLognormal(SideDistribution):
    """Jointly lognormal (c, p): their logs are bivariate normal with
    correlation rho, which induces positive (or negative) Cov(c, p)."""

    m_c: float
    s_c: float
    m_p: float
    s_p: float
    rho: float

    @classmethod
    def from_moments(cls, mu_c, mu_c2, mu_p, mu_p2,
                     mu_cp) -> "GaussianCopulaLognormal":
        """Match marginal moments exactly, then bisect rho until the cross
        moment E[cp] hits mu_cp."""
        base = LognormalIndependent.from_moments(mu_c, mu_c2, mu_p, mu_p2)

        def cross(rho):
            return mu_c * mu_p * math.exp(rho * base.s_c * base.s_p)

        lo, hi = -0.999999, 0.999999
        if not cross(lo) <= mu_cp <= cross(hi):
            raise ValueError(f"mu_cp={mu_cp} unreachable for these marginals")
        for _ in range(200):
            mid = (lo + hi) / 2
            if cross(mid) < mu_cp:
                lo = mid
            else:
                hi = mid
        return cls(base.m_c, base.s_c, base.m_p, base.s_p, (lo + hi) / 2)

    def sample(self, u_c, u_p):
        from scipy.special import ndtri  # lazily: scipy is slow to import

        z1 = ndtri(u_c)
        z2 = self.rho * z1 + math.sqrt(1 - self.rho ** 2) * ndtri(u_p)
        c = np.exp(self.m_c + self.s_c * z1)
        p = np.exp(self.m_p + self.s_p * z2)
        return np.maximum(c, _SAMPLE_FLOOR), np.maximum(p, _SAMPLE_FLOOR)

    def side_moments(self) -> SideMoments:
        def mom(a, b):
            return math.exp(a * self.m_c + b * self.m_p
                            + 0.5 * (a ** 2 * self.s_c ** 2
                                     + b ** 2 * self.s_p ** 2
                                     + 2 * a * b * self.rho
                                     * self.s_c * self.s_p))

        return SideMoments(mu_c=mom(1, 0), mu_c2=mom(2, 0), mu_cp=mom(1, 1),
                           mu_c2p=mom(2, 1), mu_c2p2=mom(2, 2),
                           mu_p=mom(0, 1), mu_p2=mom(0, 2))


@dataclass(frozen=True)
class DemandDistribution:
    plus: SideDistribution
    minus: SideDistribution

    def moments(self) -> DemandMoments:
        return DemandMoments(plus=self.plus.side_moments(),
                             minus=self.minus.side_moments())


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


def _arrivals_vec(pp, pm, pj, u):
    """Map uniforms to the joint arrival indicators of one step: both sides
    below pi_joint, buy only up to pi_plus, sell only for the next
    pi_minus - pi_joint."""
    ind_p = (u < pj) | ((u >= pj) & (u < pp))
    ind_m = (u < pj) | ((u >= pp) & (u < pp + pm - pj))
    return ind_p, ind_m


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


def _path_draws(words, rng, u, z):
    """Fill one path's uniforms u (n, 5) and normals z (n,) from ``rng``,
    reseeded from the path's 4 state words (Python ints) by PCG64's own
    seeding rule: the draws are those of a fresh PCG64 seeded with them."""
    w0, w1, w2, w3 = words
    inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
    state = ((inc + (w0 << 64 | w1)) * _PCG64_MULT + inc) & _MASK128
    rng.bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
    rng.random(out=u)
    rng.standard_normal(out=z)


def _steps(policy, market: SimMarket, u, z):
    """Advance len(z) paths together through the model's step dynamics from
    S0 with no cash or inventory, quoting ``policy.spreads(k, S, I)`` (a
    ``backtest.Policy``). After step k it yields the state (S, W, I) and
    the step's (L+, L-, Q+, Q-, arrival indicators), all arrays over the
    paths; W and I are updated in place, so read them before resuming.

    Fills follow the linear demand rule verbatim: they are negative when a
    quote lies beyond the taker's reservation price.
    """
    p = market.params
    n = p.grid.n_steps
    drift = market.price.drift_array(n)
    vol = market.price.vol_array(n)
    pp = p.arrivals.pi_plus
    pm = p.arrivals.pi_minus
    pj = p.arrivals.pi_joint
    S = np.full(len(z), market.price.S0)
    W = np.zeros(len(z))
    I = np.zeros(len(z))
    for k in range(n):
        ind_p, ind_m = _arrivals_vec(pp[k], pm[k], pj[k], u[:, k, 0])
        Lp, Lm = policy.spreads(k, S, I)
        cp, ppr = market.demand.plus.sample(u[:, k, 1], u[:, k, 2])
        cm, pmr = market.demand.minus.sample(u[:, k, 3], u[:, k, 4])
        Qp = ind_p * cp * (ppr - Lp)
        Qm = ind_m * cm * (pmr - Lm)
        W += (S + Lp) * Qp - (S - Lm) * Qm
        I += Qm - Qp
        S = S + drift[k] + vol[k] * z[:, k]
        yield S, W, I, (Lp, Lm, Qp, Qm, ind_p, ind_m)


def _objective(market: SimMarket, S, W, I):
    return W + S * I - market.params.lam * I ** 2


def run_episode(policy, market: SimMarket, rng_seed) -> EpisodeResult:
    """One path of the Monte-Carlo step loop, recorded step by step;
    deterministic given the seed. A ``SeedSequence`` spawned as path i of
    ``monte_carlo_values`` reproduces that path exactly."""
    n = market.params.grid.n_steps
    seq = (rng_seed if isinstance(rng_seed, np.random.SeedSequence)
           else np.random.SeedSequence(rng_seed))
    u, z = np.empty((1, n, 5)), np.empty((1, n))
    _path_draws(seq.generate_state(4, np.uint64).tolist(),
                np.random.Generator(np.random.PCG64(0)), u[0], z[0])

    states = [(market.price.S0, 0.0, 0.0)]
    logs = []
    for S, W, I, step in _steps(policy, market, u, z):
        states.append((S[0], W[0], I[0]))
        logs.append([np.ravel(x)[0] for x in step])
    S_log, W_log, I_log = np.array(states).T
    Lp, Lm, Qp, Qm, ind_p, ind_m = np.array(logs).T
    return EpisodeResult(S=S_log, W=W_log, I=I_log, L_plus=Lp, L_minus=Lm,
                         Q_plus=Qp, Q_minus=Qm, ind_plus=ind_p.astype(int),
                         ind_minus=ind_m.astype(int),
                         terminal_objective=_objective(market, S, W, I)[0])


def monte_carlo_values(policies, market: SimMarket, n_paths: int,
                       base_seed: int, chunk_size: int = 8192):
    """Evaluate several policies on identical draws (common random numbers).

    Returns a list of (mean, std_error) tuples, one per policy, plus the
    per-policy objective arrays for further analysis.
    """
    n = market.params.grid.n_steps
    words = _path_state_words(base_seed, n_paths)
    rng = np.random.Generator(np.random.PCG64(0))

    objectives = [np.empty(n_paths) for _ in policies]
    u_buf = np.empty((min(chunk_size, n_paths), n, 5))
    z_buf = np.empty((min(chunk_size, n_paths), n))
    for start in range(0, n_paths, chunk_size):
        stop = min(start + chunk_size, n_paths)
        m = stop - start
        u, z = u_buf[:m], z_buf[:m]
        for i, path_words in enumerate(words[start:stop].tolist()):
            _path_draws(path_words, rng, u[i], z[i])

        for pol_idx, policy in enumerate(policies):
            for S, W, I, _ in _steps(policy, market, u, z):
                pass
            objectives[pol_idx][start:stop] = _objective(market, S, W, I)

    out = []
    for obj in objectives:
        mean = float(np.mean(obj))
        se = (float(np.std(obj, ddof=1) / math.sqrt(n_paths))
              if n_paths > 1 else float("nan"))
        out.append((mean, se))
    return out, objectives


def monte_carlo_value(policy, market: SimMarket, n_paths: int, base_seed: int,
                      chunk_size: int = 8192):
    """Mean and standard error of the terminal objective under one policy."""
    (stats,), _ = monte_carlo_values([policy], market, n_paths, base_seed,
                                     chunk_size=chunk_size)
    return stats
