"""Reference Monte-Carlo for the tests: one ``SeedSequence`` child and one
fresh ``Generator(PCG64(child))`` per path, as the simulator drew before its
seeds were hashed for all paths in one array pass, and a path-major step
loop that reads each step's draws as strided columns of an
``(n_paths, n_steps, 5)`` buffer. ``hfmm.simulator.monte_carlo_values``
must give every path the same draws, and so the same objectives, bit for
bit.

The oracle keeps its own copies of the step's selects, in their plainest
forms, so that it checks the simulator's rather than follows them: the
arrival indicators as unions of intervals, a two-point draw as
``np.where`` over the floored atoms, and the terminal objective."""

import math

import numpy as np

from hfmm.simulator import SimMarket, TwoPointIndependent

SAMPLE_FLOOR = 1e-9


def _arrivals_vec(pp, pm, pj, u):
    """Both sides below pi_joint, buy only up to pi_plus, sell only for the
    next pi_minus - pi_joint; the probabilities may be arrays shaped as u."""
    ind_p = (u < pj) | ((u >= pj) & (u < pp))
    ind_m = (u < pj) | ((u >= pp) & (u < pp + pm - pj))
    return ind_p, ind_m


def two_point_sample(dist: TwoPointIndependent, u_c, u_p):
    """c and p each the low atom below its probability, else the high one,
    every atom floored at SAMPLE_FLOOR."""
    c_low, c_high, p_low, p_high = (float(max(v, SAMPLE_FLOOR))
                                    for v in (*dist.c_values, *dist.p_values))
    return (np.where(u_c < dist.c_prob_low, c_low, c_high),
            np.where(u_p < dist.p_prob_low, p_low, p_high))


def _sample(dist, u_c, u_p):
    if isinstance(dist, TwoPointIndependent):
        return two_point_sample(dist, u_c, u_p)
    return dist.sample(u_c, u_p)


def _objective(market: SimMarket, S, W, I):
    return W + S * I - market.params.lam * I ** 2


def _path_draws(seed_seq, n: int):
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    return rng.random((n, 5)), rng.standard_normal(n)


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
        cp, ppr = _sample(market.demand.plus, u[:, k, 1], u[:, k, 2])
        cm, pmr = _sample(market.demand.minus, u[:, k, 3], u[:, k, 4])
        Qp = ind_p * cp * (ppr - Lp)
        Qm = ind_m * cm * (pmr - Lm)
        W += (S + Lp) * Qp - (S - Lm) * Qm
        I += Qm - Qp
        S = S + drift[k] + vol[k] * z[:, k]
        yield S, W, I, (Lp, Lm, Qp, Qm, ind_p, ind_m)


def monte_carlo_values(policies, market: SimMarket, n_paths: int,
                       base_seed: int):
    """Evaluate several policies on identical draws (common random numbers).

    Returns a list of (mean, std_error) tuples, one per policy, plus the
    per-policy objective arrays for further analysis.
    """
    n = market.params.grid.n_steps
    children = np.random.SeedSequence(base_seed).spawn(n_paths)
    u = np.empty((n_paths, n, 5))
    z = np.empty((n_paths, n))
    for i, child in enumerate(children):
        u[i], z[i] = _path_draws(child, n)

    objectives = []
    for policy in policies:
        for S, W, I, _ in _steps(policy, market, u, z):
            pass
        objectives.append(_objective(market, S, W, I))

    out = []
    for obj in objectives:
        mean = float(np.mean(obj))
        se = (float(np.std(obj, ddof=1) / math.sqrt(n_paths))
              if n_paths > 1 else float("nan"))
        out.append((mean, se))
    return out, objectives
