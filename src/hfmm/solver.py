"""Backward-induction solver for the optimal two-sided quoting policy.

Computes, in one reverse sweep over the action grid, the per-step
coefficients (gamma, beta, A1/A2/A3, xi) and the value-function terms
(alpha, h, g), then exposes spread/quote/value evaluation on top of them.
All recursions are implemented exactly as derived; in particular negative
computed spreads are reported as-is — clamping is a backtest policy, not a
solver concern.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .model import MarketParams, SideMoments

__all__ = [
    "CoefficientTable",
    "MarketState",
    "ForecastVector",
    "backward_pass",
    "optimal_spreads",
    "forecast_shift",
    "quote_prices",
    "value_function",
    "nonmartingale_value_adjustments",
    "closed_form_spread_symmetric",
    "inventory_threshold",
    "table_to_csv",
]

_GAMMA_FLOOR = 1e-300


@dataclass(frozen=True)
class MarketState:
    k: int
    S: float
    W: float
    I: float


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


@dataclass(frozen=True)
class CoefficientTable:
    """Backward-induction outputs. Per-step arrays (index k = 0..N) hold
    gamma, beta, the A-coefficients, and xi; alpha/h/g have one extra
    terminal entry at index N+1."""

    gamma: np.ndarray
    beta_plus: np.ndarray
    beta_minus: np.ndarray
    A1_plus: np.ndarray
    A1_minus: np.ndarray
    A2_plus: np.ndarray
    A2_minus: np.ndarray
    A3_plus: np.ndarray
    A3_minus: np.ndarray
    xi: np.ndarray
    alpha: np.ndarray
    h: np.ndarray
    g: np.ndarray
    lam: float

    @property
    def n_steps(self) -> int:
        return len(self.gamma)

    @property
    def last_index(self) -> int:
        return self.n_steps - 1


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


def optimal_spreads(table: CoefficientTable, k: int, I, shift=0.0):
    """Optimal spreads (L+, L-) at step k for inventory I, a scalar or an
    array. ``shift`` is the forecast aggregate F_k (``forecast_shift``);
    0 gives the martingale-price spreads."""
    L_plus = (table.A1_plus[k] * I + table.A2_plus[k] + table.A3_plus[k]
              + table.beta_plus[k] / (2 * table.gamma[k]) * shift)
    L_minus = (-table.A1_minus[k] * I - table.A2_minus[k] + table.A3_minus[k]
               - table.beta_minus[k] / (2 * table.gamma[k]) * shift)
    return L_plus, L_minus


def _forecast_aggregates(table: CoefficientTable, k: int,
                         f: ForecastVector) -> np.ndarray:
    """F_j for j = k..N by the backward recursion
    F_j = Delta_j + xi_{j+1} F_{j+1}; F is zero past the forecast's last
    step."""
    F = np.zeros(table.n_steps - k)
    tail = 0.0  # xi_{j+1} F_{j+1}
    for j in range(min(table.n_steps, f.k + len(f.deltas)) - 1, k - 1, -1):
        F[j - k] = f.delta(j) + tail
        tail = table.xi[j] * F[j - k]
    return F


def forecast_shift(table: CoefficientTable, k: int, f: ForecastVector) -> float:
    """The forecast aggregate F_k: Delta_k plus the xi-weighted tail."""
    return float(_forecast_aggregates(table, k, f)[0])


def quote_prices(S: float, L_plus: float, L_minus: float, tick_size: float):
    """Round the raw quotes onto the price grid: ask up, bid down."""
    if tick_size <= 0:
        raise ValueError("tick_size must be > 0")
    ask = math.ceil((S + L_plus) / tick_size - 1e-9) * tick_size
    bid = math.floor((S - L_minus) / tick_size + 1e-9) * tick_size
    return ask, bid


def value_function(table: CoefficientTable, state: MarketState) -> float:
    """Quadratic-in-inventory value ansatz W + alpha I^2 + S I + h I + g."""
    k = state.k
    return (state.W + table.alpha[k] * state.I ** 2 + state.S * state.I
            + table.h[k] * state.I + table.g[k])


def nonmartingale_value_adjustments(table: CoefficientTable, k: int,
                                    f: ForecastVector, p: MarketParams):
    """Forecast-adjusted value terms at step k.

    Returns (h_tilde, g_tilde_delta): the drift-adjusted linear coefficient
    and the increment of the constant term over its martingale value, with
    the forecast path treated as deterministic.
    """
    n = table.n_steps
    # h_tilde[j - k] = h_j + xi_j F_j for j = k..N, then the terminal h.
    h_tilde = np.append(table.h[k:n] + table.xi[k:] * _forecast_aggregates(
        table, k, f), table.h[n])

    mom_p, mom_m = p.moments.plus, p.moments.minus
    g_tilde = 0.0  # value at step j+1, starting from the terminal condition
    # rebuild g tilde backward from N to k with forecast-adjusted A2/A3
    for j in range(n - 1, k - 1, -1):
        pp = p.arrivals.pi_plus[j]
        pm = p.arrivals.pi_minus[j]
        pj = p.arrivals.pi_joint[j]
        a = table.alpha[j + 1]
        gam = table.gamma[j]
        d_j = f.delta(j)
        hn = h_tilde[j + 1 - k]

        ed_p = a * mom_p.mu_c2 - mom_p.mu_c
        ed_m = a * mom_m.mu_c2 - mom_m.mu_c
        A2p = table.beta_plus[j] * hn / (2 * gam)
        A2m = table.beta_minus[j] * hn / (2 * gam)
        # the table's A3 plus the term optimal_spreads adds for a shift d_j
        A3p = table.A3_plus[j] + table.beta_plus[j] * d_j / (2 * gam)
        A3m = table.A3_minus[j] - table.beta_minus[j] * d_j / (2 * gam)

        g_tilde = _g_step(g_tilde, pp, pm, pj, a, mom_p, mom_m,
                          ed_p, ed_m, A2p, A2m, A3p, A3m, hn, d_j)

    return float(h_tilde[0]), float(g_tilde - table.g[k])


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


# ---------------------------------------------------------------------------
# Closed forms for the zero-joint-arrival case, used as independent checks.
# ---------------------------------------------------------------------------

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


def table_to_csv(table: CoefficientTable, path) -> None:
    """Columnar export (one row per action time; terminal row carries only
    alpha/h/g)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["step", "gamma", "beta_plus", "beta_minus",
                    "A1_plus", "A1_minus", "A2_plus", "A2_minus",
                    "A3_plus", "A3_minus", "xi", "alpha", "h", "g"])
        n = table.n_steps
        for k in range(n):
            w.writerow([k, table.gamma[k], table.beta_plus[k],
                        table.beta_minus[k], table.A1_plus[k],
                        table.A1_minus[k], table.A2_plus[k], table.A2_minus[k],
                        table.A3_plus[k], table.A3_minus[k], table.xi[k],
                        table.alpha[k], table.h[k], table.g[k]])
        w.writerow([n, "", "", "", "", "", "", "", "", "", "",
                    table.alpha[n], table.h[n], table.g[n]])
