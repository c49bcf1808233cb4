"""Reference Monte-Carlo seeding for the tests: one ``SeedSequence`` child
and one fresh ``Generator(PCG64(child))`` per path, as the simulator drew
before its seeds were hashed for all paths in one array pass.
``hfmm.simulator.monte_carlo_values`` must give every path the same draws,
and so the same objectives, bit for bit."""

import math

import numpy as np

from hfmm.simulator import SimMarket, _objective, _steps


def _path_draws(seed_seq, n: int):
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    return rng.random((n, 5)), rng.standard_normal(n)


def monte_carlo_values(policies, market: SimMarket, n_paths: int,
                       base_seed: int, chunk_size: int = 8192):
    """Evaluate several policies on identical draws (common random numbers).

    Returns a list of (mean, std_error) tuples, one per policy, plus the
    per-policy objective arrays for further analysis.
    """
    n = market.params.grid.n_steps
    children = np.random.SeedSequence(base_seed).spawn(n_paths)

    objectives = [np.empty(n_paths) for _ in policies]
    for start in range(0, n_paths, chunk_size):
        stop = min(start + chunk_size, n_paths)
        m = stop - start
        u = np.empty((m, n, 5))
        z = np.empty((m, n))
        for i, child in enumerate(children[start:stop]):
            u[i], z[i] = _path_draws(child, n)

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
