from dataclasses import dataclass

import numpy as np
import pytest

from hfmm.model import (ArrivalSchedule, DemandMoments, MarketParams,
                        SideMoments, TimeGrid)


def symmetric_params(mu_c: float, mu_p: float, pi: float, pi_joint: float,
                     lam: float, n_steps: int, *, step_seconds: float = 1.0,
                     tick_size: float = 1.0) -> MarketParams:
    """Symmetric zero-variance configuration: mu_c2 = mu_c^2, c and p independent.

    Identical moments on both sides and constant arrival probabilities;
    the standard setup for comparative statics and closed-form checks.
    """
    if mu_c <= 0 or mu_p <= 0:
        raise ValueError("mu_c and mu_p must be positive")
    if not 0 < pi <= 1:
        raise ValueError("pi must be in (0,1]")
    lo = max(2 * pi - 1.0, 0.0)
    if not lo <= pi_joint <= pi:
        raise ValueError(f"pi_joint={pi_joint} violates Frechet bounds for pi={pi}")
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    side = SideMoments(
        mu_c=mu_c,
        mu_c2=mu_c ** 2,
        mu_cp=mu_c * mu_p,
        mu_c2p=mu_c ** 2 * mu_p,
        mu_c2p2=mu_c ** 2 * mu_p ** 2,
        mu_p=mu_p,
        mu_p2=mu_p ** 2,
    )
    return MarketParams(
        grid=TimeGrid(n_steps=n_steps, step_seconds=step_seconds),
        arrivals=ArrivalSchedule.constant(pi, pi, pi_joint, n_steps),
        moments=DemandMoments(plus=side, minus=side),
        lam=lam,
        tick_size=tick_size,
    )


@pytest.fixture
def bench_params():
    """Symmetric benchmark parameters: mu_c=100, mu_p=5, pi=0.2, lam=5e-4."""
    return symmetric_params(mu_c=100.0, mu_p=5.0, pi=0.2, pi_joint=0.0,
                            lam=0.0005, n_steps=51)


@pytest.fixture
def bench_params_joint():
    return symmetric_params(mu_c=100.0, mu_p=5.0, pi=0.2, pi_joint=0.05,
                            lam=0.0005, n_steps=51)


def random_valid_params(rng, n_steps=None, force_pi_joint=None,
                        lam=None) -> MarketParams:
    """Draw a random MarketParams satisfying every validity rule."""
    n = n_steps if n_steps is not None else int(rng.integers(1, 30))
    pi_p = rng.uniform(0.05, 0.95, size=n)
    pi_m = rng.uniform(0.05, 0.95, size=n)
    lo = np.maximum(pi_p + pi_m - 1.0, 0.0)
    hi = np.minimum(pi_p, pi_m)
    if force_pi_joint is None:
        pi_j = lo + rng.uniform(0.0, 1.0, size=n) * (hi - lo)
    elif force_pi_joint == "lower":
        pi_j = lo
    elif force_pi_joint == "upper":
        pi_j = hi
    else:
        v = float(force_pi_joint)
        # shrink marginals so the requested joint value is feasible exactly
        pi_p = np.clip(pi_p, v + 1e-6, (1.0 + v) / 2)
        pi_m = np.clip(pi_m, v + 1e-6, (1.0 + v) / 2)
        lo = np.maximum(pi_p + pi_m - 1.0, 0.0)
        hi = np.minimum(pi_p, pi_m)
        pi_j = np.clip(np.full(n, v), lo, hi)

    def side():
        # realizable moments: a random four-atom joint distribution of (c, p)
        c = rng.uniform(1.0, 200.0, size=4)
        p = rng.uniform(0.5, 10.0, size=4)
        w = rng.dirichlet(np.ones(4))
        m = lambda f: float(np.sum(w * f))
        return SideMoments(mu_c=m(c), mu_c2=m(c ** 2), mu_cp=m(c * p),
                           mu_c2p=m(c ** 2 * p), mu_c2p2=m(c ** 2 * p ** 2),
                           mu_p=m(p), mu_p2=m(p ** 2))

    return MarketParams(
        grid=TimeGrid(n_steps=n),
        arrivals=ArrivalSchedule(pi_plus=pi_p, pi_minus=pi_m, pi_joint=pi_j),
        moments=DemandMoments(plus=side(), minus=side()),
        lam=lam if lam is not None else float(rng.uniform(0.0, 0.01)),
    )


@dataclass(frozen=True)
class FixedSpreadPolicy:
    """Simulation policy quoting the same spreads at every step."""

    L_plus: float
    L_minus: float

    def spreads(self, k, S, I):
        return (np.broadcast_to(self.L_plus, np.shape(I)),
                np.broadcast_to(self.L_minus, np.shape(I)))


@dataclass(frozen=True)
class PerturbedPolicy:
    """Another policy's spreads, both shifted by ``eps``."""

    base: object
    eps: float

    def spreads(self, k, S, I):
        Lp, Lm = self.base.spreads(k, S, I)
        return Lp + self.eps, Lm + self.eps
