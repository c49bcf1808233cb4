"""Backward-induction solver for the optimal two-sided quoting policy.

Computes, in one reverse sweep over the action grid, the per-step
coefficients (gamma, beta, A1/A2/A3, xi) and the value-function terms
(alpha, h, g), and evaluates the optimal spreads from them. All recursions
are implemented exactly as derived; in particular negative computed
spreads are reported as-is: rounding onto the tick grid and clamping are
the backtest's quoting rule, not a solver concern.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .model import MarketParams

__all__ = [
    "CoefficientTable",
    "backward_pass",
    "optimal_spreads",
    "table_to_csv",
    "write_csv_rows",
]

_GAMMA_FLOOR = 1e-300
# the steps whose terms the sweep's loops, and the backtest's optimal loop,
# hold as Python objects at a time, and the rows a CSV writer joins at a time
_ROW_BLOCK = 2048


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

    @property
    def n_steps(self) -> int:
        return len(self.gamma)


def _reversed_rows(*arrays):
    """The arrays' entries as Python floats, one tuple a step from the last
    step back, converted ``_ROW_BLOCK`` steps at a time: a float object
    costs four times its array entry."""
    return chain.from_iterable(
        zip(*(x[max(hi - _ROW_BLOCK, 0):hi][::-1].tolist() for x in arrays))
        for hi in range(len(arrays[0]), 0, -_ROW_BLOCK))


def backward_pass(p: MarketParams) -> CoefficientTable:
    """Run the full reverse sweep k = N..0 from the terminal conditions
    alpha = -lambda, h = g = 0.

    Only alpha and h carry from one step to the next, so only they are
    swept step by step, each in one loop over Python floats: alpha first,
    then h over the terms of its update that do not involve h. Every other
    coefficient is built elementwise over the grid from alpha (and A2 from
    h), and g's sum is one cumulative sum. Each array term is evaluated in
    the same order as its scalar form, and squares go through ``**`` on
    scalars and ``np.float_power`` on arrays, both the C library's pow (an
    array's ``** 2`` multiplies, which can differ in the last bit).
    """
    n = p.grid.n_steps
    if len(p.arrivals) != n:
        raise ValueError(f"arrival arrays hold {len(p.arrivals)} steps, "
                         f"the grid {n}")
    mom_p, mom_m = p.moments.plus, p.moments.minus
    c_p, c2_p, cp_p, c2p_p = (float(mom_p.mu_c), float(mom_p.mu_c2),
                              float(mom_p.mu_cp), float(mom_p.mu_c2p))
    c_m, c2_m, cp_m, c2p_m = (float(mom_m.mu_c), float(mom_m.mu_c2),
                              float(mom_m.mu_cp), float(mom_m.mu_c2p))
    c_p_sq, c_m_sq = c_p ** 2, c_m ** 2
    r_p, r_m = cp_p / c_p, cp_m / c_m
    arr = p.arrivals
    pi_p, pi_m, pi_j = arr.pi_plus, arr.pi_minus, arr.pi_joint
    ppm = pi_p * pi_m

    alpha = [0.0] * (n + 1)
    a = alpha[n] = float(-p.lam)
    k = n
    # with the products that lead alpha's update terms, left to right
    for pp, pm, pj, pq, pq_p, pq_m, pmj, ppj in _reversed_rows(
            pi_p, pi_m, pi_j, ppm, ppm * c_p, ppm * c_m, pi_m * pi_j,
            pi_p * pi_j):
        k -= 1
        a2 = 2 * a
        ed_p = a * c2_p - c_p
        ed_m = a * c2_m - c_m
        gam = (pj * a * c_p * c_m) ** 2 - pq * ed_p * ed_m
        if abs(gam) < _GAMMA_FLOOR:
            raise ArithmeticError(
                f"gamma vanished at step k={k} ({gam}); invalid parameters")
        a1p = (pq_p * ed_m - pmj * a * c_p * c_m_sq) * a / gam
        a1m = (pq_m * ed_p - ppj * a * c_m * c_p_sq) * a / gam
        a = alpha[k] = (a
                        + pp * (ed_p * a1p ** 2 + a2 * c_p * a1p)
                        + pm * (ed_m * a1m ** 2 + a2 * c_m * a1m)
                        + a2 * pj * c_p * c_m * a1p * a1m)
    alpha = np.array(alpha)

    with np.errstate(all="ignore"):  # as the scalar forms, which never warn
        a = alpha[1:]
        a2 = 2 * a
        ed_p = a * c2_p - c_p
        ed_m = a * c2_m - c_m
        joint = pi_j * a * c_p * c_m
        gamma = np.float_power(joint, 2) - ppm * ed_p * ed_m
        beta_p = ppm * c_p * ed_m - pi_m * pi_j * a * c_p * c_m_sq
        beta_m = ppm * c_m * ed_p - pi_p * pi_j * a * c_m * c_p_sq
        A1p = beta_p * a / gamma
        A1m = beta_m * a / gamma
        u_p = pi_p * (cp_p - a2 * c2p_p) + a2 * pi_j * c_p * cp_m
        u_m = pi_m * (cp_m - a2 * c2p_m) + a2 * pi_j * c_m * cp_p
        gam2 = 2 * gamma
        A3p = (pi_m * ed_m * u_p + joint * u_m) / gam2
        A3m = (pi_p * ed_p * u_m + joint * u_p) / gam2
        cross = a2 * pi_j * c_p * c_m
        h_terms = (pi_p, pi_m, beta_p, beta_m, gam2, A3p, A3m, A1p, A1m,
                   2 * ed_p * A1p, 2 * ed_m * A1m, a2 * c_p, a2 * c_m,
                   a2 * cp_p, a2 * cp_m, a2 * c2p_p, a2 * c2p_m, cross,
                   r_p * A1m, r_m * A1p)

    h = [0.0] * (n + 1)
    hn = 0.0
    k = n
    for (pp, pm, bp, bm, g2, a3p, a3m, a1p, a1m, e1p, e1m, acp, acm, acpp,
         acpm, ac2p, ac2m, x, ra1m, ra1p) in _reversed_rows(*h_terms):
        k -= 1
        a2p = bp * hn / g2
        a2m = bm * hn / g2
        # the two sides of the h update, with delta = +1 and delta = -1
        da_p = a3p + a2p
        da_m = a2m - a3m
        hn = h[k] = (hn
                     + (pp * (e1p * da_p + acp * da_p - acpp
                              + a1p * (cp_p + hn * c_p - ac2p))
                        + pm * (e1m * da_m + acm * da_m + acpm
                                - a1m * (cp_m - hn * c_m - ac2m)))
                     - x * (a1p * (a3m - a2m) - a1m * (a2p + a3p)
                            + ra1m - ra1p))
    h = np.array(h)

    with np.errstate(all="ignore"):
        hn = h[1:]
        A2p = beta_p * hn / gam2
        A2m = beta_m * hn / gam2
        xi = (1.0
              + a / gamma
              * (pi_p * beta_p * (beta_p / gamma * ed_p + 2 * c_p)
                 + pi_m * beta_m * (beta_m / gamma * ed_m + 2 * c_m))
              + 2 * np.float_power(a, 2) / np.float_power(gamma, 2)
              * pi_j * c_p * c_m * beta_p * beta_m)
        # g_k = g_{k+1} + side sum + cross term
        g_sum = 0.0
        for delta, pi_d, m, ed, A2, A3 in (
                (1.0, pi_p, mom_p, ed_p, A2p, A3p),
                (-1.0, pi_m, mom_m, ed_m, A2m, A3m)):
            da = A3 + delta * A2
            g_sum += pi_d * (ed * np.float_power(da, 2) + a * m.mu_c2p2
                             - delta * hn * m.mu_cp
                             + (m.mu_cp + delta * hn * m.mu_c
                                - 2 * a * m.mu_c2p) * da)
        g_cross = (-2 * a * pi_j * c_p * c_m
                   * ((A2p + A3p) * (A3m - A2m) - r_p * (A3m - A2m)
                      - r_m * (A2p + A3p) + cp_p * cp_m / (c_p * c_m)))
        # one running sum from g_{N+1} = 0, over g_sum and g_cross of each
        # step interleaved backwards; cumsum adds in order, unlike sum
        terms = np.zeros(2 * n + 1)
        terms[1::2], terms[2::2] = g_sum[::-1], g_cross[::-1]
        g = np.append(np.cumsum(terms)[2::2][::-1], 0.0)

    return CoefficientTable(gamma=gamma, beta_plus=beta_p, beta_minus=beta_m,
                            A1_plus=A1p, A1_minus=A1m, A2_plus=A2p,
                            A2_minus=A2m, A3_plus=A3p, A3_minus=A3m,
                            xi=xi, alpha=alpha, h=h, g=g)


def optimal_spreads(table: CoefficientTable, k, I, shift=0.0):
    """Optimal spreads (L+, L-) at step k for inventory I, a scalar or an
    array; k may also be an index array or a slice, giving the spreads of
    those steps. ``shift`` is the forecast aggregate F_k, the expected price
    change Delta_k plus xi_{k+1} F_{k+1}; 0 gives the martingale-price
    spreads."""
    L_plus = (table.A1_plus[k] * I + table.A2_plus[k] + table.A3_plus[k]
              + table.beta_plus[k] / (2 * table.gamma[k]) * shift)
    L_minus = (-table.A1_minus[k] * I - table.A2_minus[k] + table.A3_minus[k]
               - table.beta_minus[k] / (2 * table.gamma[k]) * shift)
    return L_plus, L_minus


_TABLE_COLUMNS = ("gamma", "beta_plus", "beta_minus", "A1_plus", "A1_minus",
                  "A2_plus", "A2_minus", "A3_plus", "A3_minus", "xi", "alpha",
                  "h", "g")


def table_to_csv(table: CoefficientTable, path) -> None:
    """Columnar export (one row per action time; terminal row carries only
    alpha/h/g). Cells are the floats' shortest repr, converted
    ``_ROW_BLOCK`` steps at a time."""
    n = table.n_steps
    cols = [getattr(table, name)[:n] for name in _TABLE_COLUMNS]
    body = chain.from_iterable(
        zip(map(str, range(lo, n)),
            *(map(repr, x[lo:lo + _ROW_BLOCK].tolist()) for x in cols))
        for lo in range(0, n, _ROW_BLOCK))
    last = [str(n)] + [""] * (len(_TABLE_COLUMNS) - 3) + [
        repr(getattr(table, name)[n].item()) for name in _TABLE_COLUMNS[-3:]]
    write_csv_rows(path, chain([("step",) + _TABLE_COLUMNS], body, [last]))


def write_csv_rows(path, rows) -> None:
    """Write ``rows``, each a sequence of str cells that need no quoting,
    as ``csv.writer`` writes them: comma-separated, every row ending in
    CRLF. The lines are joined ``_ROW_BLOCK`` at a time, which costs less
    than a write a row and holds few of them at once; each row is joined
    as it comes, so that no block of row tuples is kept for the collector
    to scan."""
    lines = map(",".join, rows)
    with open(path, "w", newline="") as fh:
        while block := list(islice(lines, _ROW_BLOCK)):
            fh.write("\r\n".join(block) + "\r\n")
