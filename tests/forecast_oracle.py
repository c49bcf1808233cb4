"""Forecast terms: the xi-product sums written out term by term.

With a ``ForecastVector`` of expected price changes Delta_j, the forecast
aggregate F_k = Delta_k + xi_{k+1} F_{k+1} is the ``shift`` that
``hfmm.solver.optimal_spreads`` takes, and the forecast-adjusted value terms
are h_tilde and g_tilde. These loops expand the sums as explicit products of
xi and rebuild the martingale constant term with its own backward sweep.
Each product is cut once it falls below 1e-15, past double-precision
significance, which keeps the loops usable at 19,800 steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from solver_oracle import _g_step

XI_PRODUCT_FLOOR = 1e-15


@dataclass(frozen=True)
class ForecastVector:
    """Forecast increments as seen from step k: deltas[j - k] is the
    expected price change over [t_j, t_{j+1}). Missing tail entries are 0."""

    k: int
    deltas: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "deltas", np.asarray(self.deltas, dtype=float))

    def delta(self, j: int) -> float:
        idx = j - self.k
        if idx < 0 or idx >= len(self.deltas):
            return 0.0
        return float(self.deltas[idx])


def forecast_shift(table, k, f):
    """Delta_k + sum over j > k of xi_{k+1} ... xi_j Delta_j."""
    total = f.delta(k)
    prod = 1.0
    last = min(table.n_steps, f.k + len(f.deltas))
    for j in range(k + 1, last):
        prod *= table.xi[j]
        if abs(prod) < XI_PRODUCT_FLOOR:
            break
        total += prod * f.delta(j)
    return total


def h_tilde(table, j, f):
    """h_j + sum over m >= j of xi_j ... xi_m Delta_m."""
    total = float(table.h[j])
    prod = 1.0
    for m in range(j, table.n_steps):
        prod *= table.xi[m]
        if abs(prod) < XI_PRODUCT_FLOOR:
            break
        total += prod * f.delta(m)
    return total


def nonmartingale_value_adjustments(table, k, f, p):
    """(h_tilde_k, g_tilde_k - g_k), both constant terms swept from zero."""
    n = table.n_steps
    mom_p, mom_m = p.moments.plus, p.moments.minus
    g_tilde = g_mart = 0.0
    for j in range(n - 1, k - 1, -1):
        pp = p.arrivals.pi_plus[j]
        pm = p.arrivals.pi_minus[j]
        pj = p.arrivals.pi_joint[j]
        a = table.alpha[j + 1]
        gam = table.gamma[j]
        d_j = f.delta(j)
        hn = h_tilde(table, j + 1, f)
        ed_p = a * mom_p.mu_c2 - mom_p.mu_c
        ed_m = a * mom_m.mu_c2 - mom_m.mu_c
        A2p = table.beta_plus[j] * hn / (2 * gam)
        A2m = table.beta_minus[j] * hn / (2 * gam)
        A3p = (table.A3_plus[j]
               + (pm * ed_m * (pp * d_j * mom_p.mu_c)
                  + pj * a * mom_p.mu_c * mom_m.mu_c * (-pm * d_j * mom_m.mu_c))
               / (2 * gam))
        A3m = (table.A3_minus[j]
               + (pp * ed_p * (-pm * d_j * mom_m.mu_c)
                  + pj * a * mom_p.mu_c * mom_m.mu_c * (pp * d_j * mom_p.mu_c))
               / (2 * gam))
        g_tilde = _g_step(g_tilde, pp, pm, pj, a, mom_p, mom_m,
                          ed_p, ed_m, A2p, A2m, A3p, A3m, hn, d_j)
        g_mart = _g_step(g_mart, pp, pm, pj, a, mom_p, mom_m,
                         ed_p, ed_m, table.A2_plus[j], table.A2_minus[j],
                         table.A3_plus[j], table.A3_minus[j],
                         float(table.h[j + 1]), 0.0)
    return h_tilde(table, k, f), g_tilde - g_mart
