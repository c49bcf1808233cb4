"""Backward-induction solver for the optimal two-sided quoting policy.

Computes, in one reverse sweep over the action grid, the per-step
coefficients (gamma, beta, A1/A2/A3, xi) and the value-function terms
(alpha, h, g), then exposes spread/quote/value evaluation on top of them.
All recursions are implemented exactly as derived; in particular negative
computed spreads are reported as-is — clamping is a backtest policy, not a
solver concern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import MarketParams

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


def backward_pass(p: MarketParams) -> CoefficientTable:
    """Run the full reverse sweep k = N..0 from the terminal conditions
    alpha = -lambda, h = g = 0.

    Only alpha and h carry from one step to the next, so one loop over
    Python floats computes them with each step's gamma, beta, A1, A2 and
    A3; xi and g feed no recursion of the sweep and are then built
    elementwise over the grid.
    """
    n = p.grid.n_steps
    mom_p, mom_m = p.moments.plus, p.moments.minus
    c_p, c2_p, cp_p, c2p_p = (float(mom_p.mu_c), float(mom_p.mu_c2),
                              float(mom_p.mu_cp), float(mom_p.mu_c2p))
    c_m, c2_m, cp_m, c2p_m = (float(mom_m.mu_c), float(mom_m.mu_c2),
                              float(mom_m.mu_cp), float(mom_m.mu_c2p))
    c_p_sq, c_m_sq = c_p ** 2, c_m ** 2
    r_p, r_m = cp_p / c_p, cp_m / c_m
    pi_p = p.arrivals.pi_plus.tolist()
    pi_m = p.arrivals.pi_minus.tolist()
    pi_j = p.arrivals.pi_joint.tolist()

    gamma, beta_p, beta_m = [0.0] * n, [0.0] * n, [0.0] * n
    A1p, A1m, A2p, A2m = [0.0] * n, [0.0] * n, [0.0] * n, [0.0] * n
    A3p, A3m = [0.0] * n, [0.0] * n
    alpha, h = [0.0] * (n + 1), [0.0] * (n + 1)
    a = alpha[n] = float(-p.lam)
    hn = 0.0

    for k in range(n - 1, -1, -1):
        pp, pm, pj = pi_p[k], pi_m[k], pi_j[k]
        a2 = 2 * a
        ed_p = a * c2_p - c_p
        ed_m = a * c2_m - c_m
        joint = pj * a * c_p * c_m
        gam = joint ** 2 - pp * pm * ed_p * ed_m
        if abs(gam) < _GAMMA_FLOOR:
            raise ArithmeticError(
                f"gamma vanished at step k={k} ({gam}); invalid parameters")
        bp = pp * pm * c_p * ed_m - pm * pj * a * c_p * c_m_sq
        bm = pp * pm * c_m * ed_p - pp * pj * a * c_m * c_p_sq
        a1p = bp * a / gam
        a1m = bm * a / gam
        a2p = bp * hn / (2 * gam)
        a2m = bm * hn / (2 * gam)
        u_p = pp * (cp_p - a2 * c2p_p) + a2 * pj * c_p * cp_m
        u_m = pm * (cp_m - a2 * c2p_m) + a2 * pj * c_m * cp_p
        a3p = (pm * ed_m * u_p + joint * u_m) / (2 * gam)
        a3m = (pp * ed_p * u_m + joint * u_p) / (2 * gam)

        cross = a2 * pj * c_p * c_m
        alpha[k] = (a
                    + pp * (ed_p * a1p ** 2 + a2 * c_p * a1p)
                    + pm * (ed_m * a1m ** 2 + a2 * c_m * a1m)
                    + cross * a1p * a1m)
        # the two sides of the h update, with delta = +1 and delta = -1
        da_p = a3p + a2p
        da_m = a2m - a3m
        h[k] = (hn
                + (pp * (2 * ed_p * a1p * da_p + a2 * c_p * da_p - a2 * cp_p
                         + a1p * (cp_p + hn * c_p - a2 * c2p_p))
                   + pm * (2 * ed_m * a1m * da_m + a2 * c_m * da_m + a2 * cp_m
                           - a1m * (cp_m - hn * c_m - a2 * c2p_m)))
                - cross * (a1p * (a3m - a2m) - a1m * (a2p + a3p)
                           + r_p * a1m - r_m * a1p))

        gamma[k], beta_p[k], beta_m[k] = gam, bp, bm
        A1p[k], A1m[k], A2p[k], A2m[k], A3p[k], A3m[k] = (
            a1p, a1m, a2p, a2m, a3p, a3m)
        a, hn = alpha[k], h[k]

    gamma, beta_p, beta_m = np.array(gamma), np.array(beta_p), np.array(beta_m)
    A1p, A1m, A2p, A2m = (np.array(A1p), np.array(A1m), np.array(A2p),
                          np.array(A2m))
    A3p, A3m = np.array(A3p), np.array(A3m)
    alpha, h = np.array(alpha), np.array(h)

    a = alpha[1:]
    arr = p.arrivals
    ed_p = a * c2_p - c_p
    ed_m = a * c2_m - c_m
    # float_power squares through the C library's pow, as ** does on the
    # sweep's scalars; an array's ** 2 multiplies, which can differ in the
    # last bit
    xi = (1.0
          + a / gamma
          * (arr.pi_plus * beta_p * (beta_p / gamma * ed_p + 2 * c_p)
             + arr.pi_minus * beta_m * (beta_m / gamma * ed_m + 2 * c_m))
          + 2 * np.float_power(a, 2) / np.float_power(gamma, 2)
          * arr.pi_joint * c_p * c_m * beta_p * beta_m)
    g = np.array(_constant_term(arr.pi_plus, arr.pi_minus, arr.pi_joint, a,
                                mom_p, mom_m, A2p, A2m, A3p, A3m, h[1:], 0.0))

    return CoefficientTable(gamma=gamma, beta_plus=beta_p, beta_minus=beta_m,
                            A1_plus=A1p, A1_minus=A1m, A2_plus=A2p,
                            A2_minus=A2m, A3_plus=A3p, A3_minus=A3m,
                            xi=xi, alpha=alpha, h=h, g=g, lam=p.lam)


def optimal_spreads(table: CoefficientTable, k, I, shift=0.0):
    """Optimal spreads (L+, L-) at step k for inventory I, a scalar or an
    array; k may also be an index array or a slice, giving the spreads of
    those steps. ``shift`` is the forecast aggregate F_k
    (``forecast_shift``); 0 gives the martingale-price spreads."""
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

    hn = h_tilde[1:]
    gam = table.gamma[k:]
    beta_p, beta_m = table.beta_plus[k:], table.beta_minus[k:]
    d = np.array([f.delta(j) for j in range(k, n)])
    A2p = beta_p * hn / (2 * gam)
    A2m = beta_m * hn / (2 * gam)
    # the table's A3 plus the term optimal_spreads adds for a shift d_j
    A3p = table.A3_plus[k:] + beta_p * d / (2 * gam)
    A3m = table.A3_minus[k:] - beta_m * d / (2 * gam)
    g_tilde = _constant_term(
        p.arrivals.pi_plus[k:], p.arrivals.pi_minus[k:],
        p.arrivals.pi_joint[k:], table.alpha[k + 1:], p.moments.plus,
        p.moments.minus, A2p, A2m, A3p, A3m, hn, d)[0]

    return float(h_tilde[0]), float(g_tilde - table.g[k])


def _constant_term(pp, pm, pj, a, mom_p, mom_m, A2p, A2m, A3p, A3m, hn,
                   d) -> list:
    """The constant value term g_j for j = 0..M, swept back from g_M = 0
    by g_j = g_{j+1} + side sum + cross term + drift, shared by the
    martingale (d = 0) and forecast-adjusted sweeps.

    Step j's inputs are entry j of arrays over j < M: the arrival
    probabilities, a = alpha_{j+1}, the A2/A3 coefficients, hn = h_{j+1}
    and the price drift d. The three terms are built elementwise (squares
    through ``np.float_power``, as in ``backward_pass``); only the sum,
    taken in the order above, runs step by step.
    """
    ed_p = a * mom_p.mu_c2 - mom_p.mu_c
    ed_m = a * mom_m.mu_c2 - mom_m.mu_c
    g_sum = 0.0
    for delta, pi_d, m, ed, A2, A3 in (
            (1.0, pp, mom_p, ed_p, A2p, A3p),
            (-1.0, pm, mom_m, ed_m, A2m, A3m)):
        da = A3 + delta * A2
        g_sum += pi_d * (ed * np.float_power(da, 2) + a * m.mu_c2p2
                         - delta * hn * m.mu_cp
                         + (m.mu_cp + delta * hn * m.mu_c
                            - 2 * a * m.mu_c2p) * da)
    cross = (-2 * a * pj * mom_p.mu_c * mom_m.mu_c
             * ((A2p + A3p) * (A3m - A2m)
                - mom_p.mu_cp / mom_p.mu_c * (A3m - A2m)
                - mom_m.mu_cp / mom_m.mu_c * (A2p + A3p)
                + mom_p.mu_cp * mom_m.mu_cp / (mom_p.mu_c * mom_m.mu_c)))
    drift = d * ((A3p + A2p) * pp * mom_p.mu_c
                 - (A3m - A2m) * pm * mom_m.mu_c
                 - pp * mom_p.mu_cp + pm * mom_m.mu_cp)
    s, c, dr = g_sum.tolist(), cross.tolist(), drift.tolist()
    g = [0.0] * (len(s) + 1)
    for j in range(len(s) - 1, -1, -1):
        g[j] = g[j + 1] + s[j] + c[j] + dr[j]
    return g


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


_TABLE_COLUMNS = ("gamma", "beta_plus", "beta_minus", "A1_plus", "A1_minus",
                  "A2_plus", "A2_minus", "A3_plus", "A3_minus", "xi", "alpha",
                  "h", "g")


def table_to_csv(table: CoefficientTable, path) -> None:
    """Columnar export (one row per action time; terminal row carries only
    alpha/h/g). Cells are the floats' shortest repr and rows end in CRLF,
    as ``csv.writer`` writes them."""
    n = table.n_steps
    cols = [map(repr, getattr(table, name)[:n].tolist())
            for name in _TABLE_COLUMNS]
    last = [str(n)] + [""] * (len(_TABLE_COLUMNS) - 3) + [
        repr(getattr(table, name)[n].item()) for name in _TABLE_COLUMNS[-3:]]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(("step",) + _TABLE_COLUMNS) + "\r\n")
        fh.writelines(",".join(row) + "\r\n"
                      for row in zip(map(str, range(n)), *cols))
        fh.write(",".join(last) + "\r\n")
