"""Reference sweep for the tests: the backward pass as the solver ran it
before its scalar-float rewrite, one step at a time on numpy scalars with a
helper call per step for the coefficients and for the constant term.
``hfmm.solver.backward_pass`` must produce the same CoefficientTable, bit for
bit, and raise ArithmeticError on the same parameters when gamma vanishes.

``_g_step`` is also the constant-term update of ``forecast_oracle``. The
``pi0_*`` closed forms, the sweep with no joint arrivals, check it on such
markets; ``closed_form_spread_symmetric`` and ``inventory_threshold`` are
the symmetric zero-variance configuration's closed forms, and
``value_function`` the quadratic value ansatz the table's alpha, h and g
define.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hfmm.model import MarketParams, SideMoments
from hfmm.solver import CoefficientTable

_GAMMA_FLOOR = 1e-300


def _step_coefficients(pp: float, pm: float, pj: float, mp: SideMoments,
                       mm: SideMoments, a: float, h_next: float):
    """One backward step: returns (gamma, beta+, beta-, A1±, A2±, A3±)
    given alpha and h at the next time index."""
    ed_p = a * mp.mu_c2 - mp.mu_c
    ed_m = a * mm.mu_c2 - mm.mu_c
    gamma = (pj * a * mp.mu_c * mm.mu_c) ** 2 - pp * pm * ed_p * ed_m
    if abs(gamma) < _GAMMA_FLOOR:
        raise ArithmeticError(f"gamma vanished ({gamma}); invalid parameters")
    beta_p = pp * pm * mp.mu_c * ed_m - pm * pj * a * mp.mu_c * mm.mu_c ** 2
    beta_m = pp * pm * mm.mu_c * ed_p - pp * pj * a * mm.mu_c * mp.mu_c ** 2

    A1p = beta_p * a / gamma
    A1m = beta_m * a / gamma
    A2p = beta_p * h_next / (2 * gamma)
    A2m = beta_m * h_next / (2 * gamma)
    A3p = (pm * ed_m * (pp * (mp.mu_cp - 2 * a * mp.mu_c2p)
                        + 2 * a * pj * mp.mu_c * mm.mu_cp)
           + pj * a * mp.mu_c * mm.mu_c
           * (pm * (mm.mu_cp - 2 * a * mm.mu_c2p)
              + 2 * a * pj * mm.mu_c * mp.mu_cp)) / (2 * gamma)
    A3m = (pp * ed_p * (pm * (mm.mu_cp - 2 * a * mm.mu_c2p)
                        + 2 * a * pj * mm.mu_c * mp.mu_cp)
           + pj * a * mp.mu_c * mm.mu_c
           * (pp * (mp.mu_cp - 2 * a * mp.mu_c2p)
              + 2 * a * pj * mp.mu_c * mm.mu_cp)) / (2 * gamma)
    return gamma, beta_p, beta_m, A1p, A1m, A2p, A2m, A3p, A3m


def backward_pass(p: MarketParams) -> CoefficientTable:
    """Run the full reverse sweep k = N..0 from the terminal conditions
    alpha = -lambda, h = g = 0."""
    n = p.grid.n_steps
    mom_p, mom_m = p.moments.plus, p.moments.minus

    gamma = np.empty(n)
    beta_p = np.empty(n)
    beta_m = np.empty(n)
    A1p = np.empty(n)
    A1m = np.empty(n)
    A2p = np.empty(n)
    A2m = np.empty(n)
    A3p = np.empty(n)
    A3m = np.empty(n)
    xi = np.empty(n)
    alpha = np.empty(n + 1)
    h = np.empty(n + 1)
    g = np.empty(n + 1)
    alpha[n] = -p.lam
    h[n] = 0.0
    g[n] = 0.0

    pi_p = p.arrivals.pi_plus
    pi_m = p.arrivals.pi_minus
    pi_j = p.arrivals.pi_joint

    for k in range(n - 1, -1, -1):
        pp, pm, pj = pi_p[k], pi_m[k], pi_j[k]
        a, hn = alpha[k + 1], h[k + 1]
        (gamma[k], beta_p[k], beta_m[k],
         A1p[k], A1m[k], A2p[k], A2m[k], A3p[k], A3m[k]) = _step_coefficients(
            pp, pm, pj, mom_p, mom_m, a, hn)

        ed_p = a * mom_p.mu_c2 - mom_p.mu_c
        ed_m = a * mom_m.mu_c2 - mom_m.mu_c

        alpha[k] = (a
                    + pp * (ed_p * A1p[k] ** 2 + 2 * a * mom_p.mu_c * A1p[k])
                    + pm * (ed_m * A1m[k] ** 2 + 2 * a * mom_m.mu_c * A1m[k])
                    + 2 * a * pj * mom_p.mu_c * mom_m.mu_c * A1p[k] * A1m[k])

        h_sum = 0.0
        for delta, pi_d, m, ed, A1, A2, A3 in (
                (1.0, pp, mom_p, ed_p, A1p[k], A2p[k], A3p[k]),
                (-1.0, pm, mom_m, ed_m, A1m[k], A2m[k], A3m[k])):
            da = delta * A3 + A2
            h_sum += pi_d * (2 * ed * A1 * da
                             + 2 * a * m.mu_c * da
                             - 2 * a * delta * m.mu_cp
                             + delta * A1 * (m.mu_cp + delta * hn * m.mu_c
                                             - 2 * a * m.mu_c2p))
        h[k] = (hn + h_sum
                - 2 * a * pj * mom_p.mu_c * mom_m.mu_c
                * (A1p[k] * (A3m[k] - A2m[k])
                   - A1m[k] * (A2p[k] + A3p[k])
                   + mom_p.mu_cp / mom_p.mu_c * A1m[k]
                   - mom_m.mu_cp / mom_m.mu_c * A1p[k]))

        g[k] = _g_step(g[k + 1], pp, pm, pj, a, mom_p, mom_m, ed_p, ed_m,
                       A2p[k], A2m[k], A3p[k], A3m[k], hn, 0.0)

        xi[k] = (1.0
                 + a / gamma[k]
                 * (pp * beta_p[k] * (beta_p[k] / gamma[k] * ed_p + 2 * mom_p.mu_c)
                    + pm * beta_m[k] * (beta_m[k] / gamma[k] * ed_m + 2 * mom_m.mu_c))
                 + 2 * a ** 2 / gamma[k] ** 2
                 * pj * mom_p.mu_c * mom_m.mu_c * beta_p[k] * beta_m[k])

    return CoefficientTable(gamma=gamma, beta_plus=beta_p, beta_minus=beta_m,
                            A1_plus=A1p, A1_minus=A1m, A2_plus=A2p,
                            A2_minus=A2m, A3_plus=A3p, A3_minus=A3m,
                            xi=xi, alpha=alpha, h=h, g=g, lam=p.lam)


def _g_step(g_next, pp, pm, pj, a, mom_p, mom_m, ed_p, ed_m,
            A2p, A2m, A3p, A3m, hn, d_j) -> float:
    """One backward update of the constant value term with explicit
    A2/A3 inputs, shared by the martingale (d_j = 0) and forecast-adjusted
    sweeps."""
    g_sum = 0.0
    for delta, pi_d, m, ed, A2, A3 in (
            (1.0, pp, mom_p, ed_p, A2p, A3p),
            (-1.0, pm, mom_m, ed_m, A2m, A3m)):
        da = A3 + delta * A2
        g_sum += pi_d * (ed * da ** 2 + a * m.mu_c2p2
                         - delta * hn * m.mu_cp
                         + (m.mu_cp + delta * hn * m.mu_c
                            - 2 * a * m.mu_c2p) * da)
    cross = (-2 * a * pj * mom_p.mu_c * mom_m.mu_c
             * ((A2p + A3p) * (A3m - A2m)
                - mom_p.mu_cp / mom_p.mu_c * (A3m - A2m)
                - mom_m.mu_cp / mom_m.mu_c * (A2p + A3p)
                + mom_p.mu_cp * mom_m.mu_cp / (mom_p.mu_c * mom_m.mu_c)))
    drift = d_j * ((A3p + A2p) * pp * mom_p.mu_c
                   - (A3m - A2m) * pm * mom_m.mu_c
                   - pp * mom_p.mu_cp + pm * mom_m.mu_cp)
    return g_next + g_sum + cross + drift


# Closed forms of the sweep when joint arrivals never happen (pi11 = 0).

def pi0_inventory_coef(m: SideMoments, alpha_next: float) -> float:
    """Inventory coefficient of the quote when joint arrivals never happen."""
    return alpha_next * m.mu_c / (m.mu_c - alpha_next * m.mu_c2)


def pi0_half_spread(m: SideMoments, alpha_next: float) -> float:
    """Baseline one-side spread when joint arrivals never happen."""
    return (m.mu_cp - 2 * alpha_next * m.mu_c2p) / (
        2 * (m.mu_c - alpha_next * m.mu_c2))


def pi0_alpha_step(pp: float, pm: float, mp: SideMoments, mm: SideMoments,
                   alpha_next: float) -> float:
    """One backward step of the inventory-cost recursion with no joint
    arrivals."""
    a = alpha_next
    return (a
            + pp * (a * mp.mu_c) ** 2 / (mp.mu_c - a * mp.mu_c2)
            + pm * (a * mm.mu_c) ** 2 / (mm.mu_c - a * mm.mu_c2))


# Closed forms of the symmetric configuration and the value ansatz.

@dataclass(frozen=True)
class MarketState:
    k: int
    S: float
    W: float
    I: float


def value_function(table: CoefficientTable, state: MarketState) -> float:
    """Quadratic-in-inventory value ansatz W + alpha I^2 + S I + h I + g."""
    k = state.k
    return (state.W + table.alpha[k] * state.I ** 2 + state.S * state.I
            + table.h[k] * state.I + table.g[k])


def _require_symmetric(p: MarketParams, need_independence: bool = True,
                       need_zero_variance: bool = False) -> None:
    mp, mm = p.moments.plus, p.moments.minus
    if mp != mm:
        raise ValueError("parameters are not symmetric across sides")
    if not np.allclose(p.arrivals.pi_plus, p.arrivals.pi_minus):
        raise ValueError("arrival probabilities differ across sides")
    if mp.mu_p is None:
        raise ValueError("mu_p required for symmetric diagnostics")
    if need_independence:
        if not (math.isclose(mp.mu_cp, mp.mu_c * mp.mu_p, rel_tol=1e-9)
                and math.isclose(mp.mu_c2p, mp.mu_c2 * mp.mu_p, rel_tol=1e-9)):
            raise ValueError("demand slope and reservation price must be "
                             "uncorrelated (mu_cp = mu_c mu_p)")
    if need_zero_variance and not math.isclose(mp.mu_c2, mp.mu_c ** 2,
                                               rel_tol=1e-9):
        raise ValueError("mu_c2 must equal mu_c^2 for this diagnostic")


def closed_form_spread_symmetric(p: MarketParams, k: int,
                                 table: CoefficientTable | None = None) -> float:
    """Total bid-ask spread in the symmetric zero-variance constant-arrival
    configuration, evaluated directly from the closed form."""
    _require_symmetric(p, need_independence=True, need_zero_variance=True)
    if not (np.ptp(p.arrivals.pi_plus) == 0 and np.ptp(p.arrivals.pi_joint) == 0):
        raise ValueError("arrival probabilities must be constant in time")
    if table is None:
        table = backward_pass(p)
    m = p.moments.plus
    pi = float(p.arrivals.pi_plus[0])
    pj = float(p.arrivals.pi_joint[0])
    a = float(table.alpha[k + 1])
    mu_p_sum = m.mu_p + p.moments.minus.mu_p
    num = (pi * (m.mu_c - 2 * a * m.mu_c2) + 2 * a * pj * m.mu_c ** 2) * mu_p_sum
    den = 2 * (pj * a * m.mu_c ** 2 - pi * (a * m.mu_c2 - m.mu_c))
    return num / den


def inventory_threshold(p: MarketParams):
    """Inventory levels beyond which the near-terminal quote tightens on the
    corresponding side instead of widening."""
    _require_symmetric(p, need_independence=True)
    if np.any(p.arrivals.pi_joint != 0):
        raise ValueError("threshold requires zero joint-arrival probability")
    m = p.moments.plus
    bar = m.mu_c2 * m.mu_p / (2 * m.mu_c)
    return bar, -bar
