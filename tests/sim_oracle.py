"""Exact small-instance oracles for the tests: the quadratic one-step
objective whose maximizer is the closed-form policy, and a brute-force
dynamic program over tiny discrete markets. Neither is used by the
package; tests check the solver and the simulator against them."""

import numpy as np

from hfmm.model import MarketParams
from hfmm.simulator import SimMarket
from hfmm.solver import CoefficientTable

from demand_families import atoms


def one_step_objective(p: MarketParams, table: CoefficientTable, k: int,
                       I: float, L_plus: float, L_minus: float,
                       delta: float = 0.0, h_next: float | None = None,
                       g_next: float | None = None) -> float:
    """Expected continuation value (net of cash and the S*I carry) of
    quoting (L+, L-) at step k, using the next-step quadratic value terms.

    This is the quadratic objective whose maximizer is the closed-form
    policy; tests perturb (L+, L-) around the optimum against it.
    """
    mp_, mm_ = p.moments.plus, p.moments.minus
    pp = p.arrivals.pi_plus[k]
    pm = p.arrivals.pi_minus[k]
    pj = p.arrivals.pi_joint[k]
    a = table.alpha[k + 1]
    hn = table.h[k + 1] if h_next is None else h_next
    gn = table.g[k + 1] if g_next is None else g_next

    total = a * I ** 2 + I * delta + hn * I + gn
    for d, pi_d, m, L in ((1.0, pp, mp_, L_plus), (-1.0, pm, mm_, L_minus)):
        ed = a * m.mu_c2 - m.mu_c
        total += pi_d * (ed * L ** 2
                         + (m.mu_cp + d * hn * m.mu_c
                            + a * (2 * d * m.mu_c * I - 2 * m.mu_c2p)
                            + d * m.mu_c * delta) * L
                         + a * (m.mu_c2p2 - 2 * d * m.mu_cp * I)
                         - d * hn * m.mu_cp - d * m.mu_cp * delta)
    total += 2 * a * pj * (-mp_.mu_c * mm_.mu_c * L_plus * L_minus
                           + mp_.mu_cp * mm_.mu_c * L_minus
                           + mp_.mu_c * mm_.mu_cp * L_plus
                           - mp_.mu_cp * mm_.mu_cp)
    return float(total)


def brute_force_value_small(market: SimMarket, control_grid):
    """Exhaustive-enumeration dynamic program for tiny discrete markets.

    Requires finite demand supports and at most 3 steps. With zero
    joint-arrival probability the per-step maximization separates across
    sides (the three arrival outcomes contribute additively and each side's
    control only affects its own branch), which keeps two-step enumeration
    at fine grid resolution tractable. Joint arrivals are supported for
    single-step instances via a full two-dimensional control grid.

    Returns (value at W=0, I=0, (argmax L+, argmax L-) at step 0).
    """
    p = market.params
    n = p.grid.n_steps
    if n > 3:
        raise ValueError("brute force restricted to at most 3 steps")
    atoms_p = atoms(market.demand.plus)
    atoms_m = atoms(market.demand.minus)
    if atoms_p is None or atoms_m is None:
        raise ValueError("brute force requires finite demand supports")
    if np.any(market.price.vol_array(n) != 0):
        raise ValueError("brute force requires a deterministic price path")
    grid = np.asarray(control_grid, dtype=float)
    drift = market.price.drift_array(n)
    S_path = np.concatenate([[market.price.S0],
                             market.price.S0 + np.cumsum(drift)])
    lam = p.lam

    has_joint = bool(np.any(p.arrivals.pi_joint > 0))
    if has_joint and n > 1:
        raise ValueError("joint arrivals supported only for 1-step instances")

    ac_p = np.array([a[0] for a in atoms_p])
    ap_p = np.array([a[1] for a in atoms_p])
    aw_p = np.array([a[2] for a in atoms_p])
    ac_m = np.array([a[0] for a in atoms_m])
    ap_m = np.array([a[1] for a in atoms_m])
    aw_m = np.array([a[2] for a in atoms_m])

    def value(k, I):
        """Value-to-go net of current cash for an array of inventories."""
        I = np.atleast_1d(np.asarray(I, dtype=float))
        if k == n:
            return S_path[n] * I - lam * I ** 2
        pp = p.arrivals.pi_plus[k]
        pm = p.arrivals.pi_minus[k]
        pj = p.arrivals.pi_joint[k]
        S = S_path[k]
        if not has_joint:
            # fills per (grid level, atom)
            Qp = ac_p[None, :] * (ap_p[None, :] - grid[:, None])
            Qm = ac_m[None, :] * (ap_m[None, :] - grid[:, None])
            best = np.empty((2, len(I)))
            for side, (pi_d, Q, sign) in enumerate(
                    (((pp), Qp, 1.0), ((pm), Qm, -1.0))):
                # candidate continuation inventories: I - sign*Q
                I_next = I[:, None, None] - sign * Q[None, :, :]
                cont = value(k + 1, I_next.ravel()).reshape(I_next.shape)
                cash = sign * (S + sign * grid)[None, :, None] * Q[None, :, :]
                w = aw_p if side == 0 else aw_m
                exp_branch = np.tensordot(cash + cont, w, axes=([2], [0]))
                best[side] = np.max(exp_branch, axis=1)
            no_arrival = value(k + 1, I)
            return (pp * best[0] + pm * best[1]
                    + (1 - pp - pm) * no_arrival)
        # single-step joint enumeration over the full control grid
        out = np.empty(len(I))
        Lp = grid[:, None]
        Lm = grid[None, :]
        for idx, inv in enumerate(I):
            total = np.zeros((len(grid), len(grid)))
            # both arrive
            for cp_, pp_, wp_ in atoms_p:
                for cm_, pm_, wm_ in atoms_m:
                    Qp = cp_ * (pp_ - Lp)
                    Qm = cm_ * (pm_ - Lm)
                    In = inv - Qp + Qm
                    cash = (S + Lp) * Qp - (S - Lm) * Qm
                    total += pj * wp_ * wm_ * (
                        cash + S_path[k + 1] * In - lam * In ** 2)
            for cp_, pp_, wp_ in atoms_p:   # only buy MO
                Qp = cp_ * (pp_ - Lp)
                In = inv - Qp
                total += (pp - pj) * wp_ * (
                    (S + Lp) * Qp + S_path[k + 1] * In - lam * In ** 2)
            for cm_, pm_, wm_ in atoms_m:   # only sell MO
                Qm = cm_ * (pm_ - Lm)
                In = inv + Qm
                total += (pm - pj) * wm_ * (
                    -(S - Lm) * Qm + S_path[k + 1] * In - lam * In ** 2)
            In = inv
            total += (1 - pp - pm + pj) * (
                S_path[k + 1] * In - lam * In ** 2)
            out[idx] = np.max(total)
        return out

    # recover argmax controls at step 0 for I = 0
    if not has_joint:
        pp = p.arrivals.pi_plus[0]
        pm = p.arrivals.pi_minus[0]
        S = S_path[0]
        Qp = ac_p[None, :] * (ap_p[None, :] - grid[:, None])
        Qm = ac_m[None, :] * (ap_m[None, :] - grid[:, None])
        cont_p = value(1, (-Qp).ravel()).reshape(Qp.shape) if n > 1 else (
            S_path[1] * (-Qp) - lam * Qp ** 2)
        cont_m = value(1, Qm.ravel()).reshape(Qm.shape) if n > 1 else (
            S_path[1] * Qm - lam * Qm ** 2)
        branch_p = ((S + grid)[:, None] * Qp + cont_p) @ aw_p
        branch_m = (-(S - grid)[:, None] * Qm + cont_m) @ aw_m
        arg_p = grid[int(np.argmax(branch_p))]
        arg_m = grid[int(np.argmax(branch_m))]
        val = float(value(0, 0.0)[0])
        return val, (float(arg_p), float(arg_m))

    # joint case: recompute the surface at I=0 to locate the argmax
    pp = p.arrivals.pi_plus[0]
    pm = p.arrivals.pi_minus[0]
    pj = p.arrivals.pi_joint[0]
    S = S_path[0]
    Lp = grid[:, None]
    Lm = grid[None, :]
    total = np.zeros((len(grid), len(grid)))
    for cp_, pp_, wp_ in atoms_p:
        for cm_, pm_, wm_ in atoms_m:
            Qp = cp_ * (pp_ - Lp)
            Qm = cm_ * (pm_ - Lm)
            In = -Qp + Qm
            cash = (S + Lp) * Qp - (S - Lm) * Qm
            total += pj * wp_ * wm_ * (cash + S_path[1] * In - lam * In ** 2)
    for cp_, pp_, wp_ in atoms_p:
        Qp = cp_ * (pp_ - Lp)
        total += (pp - pj) * wp_ * ((S + Lp) * Qp + S_path[1] * (-Qp)
                                    - lam * Qp ** 2)
    for cm_, pm_, wm_ in atoms_m:
        Qm = cm_ * (pm_ - Lm)
        total += (pm - pj) * wm_ * (-(S - Lm) * Qm + S_path[1] * Qm
                                    - lam * Qm ** 2)
    flat = int(np.argmax(total))
    i, j = np.unravel_index(flat, total.shape)
    return float(total[i, j]), (float(grid[i]), float(grid[j]))
