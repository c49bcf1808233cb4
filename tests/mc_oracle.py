"""Reference Monte-Carlo for the tests: one ``SeedSequence`` child and one
fresh ``Generator(PCG64(child))`` per path, as the simulator drew before its
seeds were hashed for all paths in one array pass, and a path-major step
loop that reads each step's draws as strided columns of an
``(n_paths, n_steps, 5)`` buffer. ``hfmm.simulator.monte_carlo_values``
must give every path the same draws, and so the same objectives, bit for
bit."""

import math

import numpy as np

from hfmm.simulator import SimMarket, _arrivals_vec, _objective


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
        cp, ppr = market.demand.plus.sample(u[:, k, 1], u[:, k, 2])
        cm, pmr = market.demand.minus.sample(u[:, k, 3], u[:, k, 4])
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
