import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from hfmm.model import (ArrivalSchedule, DemandMoments, MarketParams,
                        SideMoments, TimeGrid)
from hfmm.solver import (CoefficientTable, backward_pass, optimal_spreads,
                         table_to_csv)
from hfmm.synthetic import SyntheticDayConfig, true_market_params

import solver_oracle
from conftest import random_valid_params, symmetric_params
from forecast_oracle import (ForecastVector, forecast_shift,
                             nonmartingale_value_adjustments)
from solver_oracle import (MarketState, closed_form_spread_symmetric,
                           inventory_threshold, pi0_alpha_step,
                           pi0_half_spread, pi0_inventory_coef,
                           value_function)


def independent_symmetric_c_params(rng, n_steps=None, lam=None,
                                   pi_joint_mode=None):
    """Params meeting the positive-spread conditions: equal c-moments and
    arrival probabilities on both sides, c independent of p per side."""
    n = n_steps if n_steps is not None else int(rng.integers(1, 25))
    mu_c = rng.uniform(1.0, 200.0)
    mu_c2 = mu_c ** 2 * rng.uniform(1.0, 2.0)

    def side():
        mu_p = rng.uniform(0.5, 10.0)
        mu_p2 = mu_p ** 2 * rng.uniform(1.0, 2.0)
        return SideMoments(mu_c=mu_c, mu_c2=mu_c2, mu_cp=mu_c * mu_p,
                           mu_c2p=mu_c2 * mu_p, mu_c2p2=mu_c2 * mu_p2,
                           mu_p=mu_p, mu_p2=mu_p2)

    pi = rng.uniform(0.05, 0.95, size=n)
    lo = np.maximum(2 * pi - 1.0, 0.0)
    if pi_joint_mode == "zero":
        pj = np.maximum(lo, 0.0)
        pi = np.minimum(pi, 0.5)  # keep pi_joint = 0 feasible
        pj = np.zeros(n)
    else:
        pj = lo + rng.uniform(0.0, 1.0, size=n) * (pi - lo)
    return MarketParams(
        grid=TimeGrid(n_steps=n),
        arrivals=ArrivalSchedule(pi_plus=pi, pi_minus=pi, pi_joint=pj),
        moments=DemandMoments(plus=side(), minus=side()),
        lam=lam if lam is not None else float(rng.uniform(1e-6, 0.01)))


class TestBackwardPass:
    def test_terminal_conditions(self, bench_params):
        t = backward_pass(bench_params)
        assert t.alpha[-1] == -bench_params.lam
        assert t.h[-1] == 0.0
        assert t.g[-1] == 0.0

    def test_last_step_hand_values(self, bench_params):
        t = backward_pass(bench_params)
        N = bench_params.grid.n_steps - 1
        assert t.gamma[N] == pytest.approx(-441.0, abs=1e-9)
        assert t.beta_plus[N] == pytest.approx(-420.0, abs=1e-9)
        assert t.beta_minus[N] == pytest.approx(-420.0, abs=1e-9)
        assert t.A1_plus[N] == pytest.approx(-4.7619047619e-4, rel=1e-9)
        assert t.alpha[N] == pytest.approx(-4.904761904762e-4, rel=1e-9)

    def test_zero_penalty_fixed_point(self):
        p = symmetric_params(100, 5, 0.2, 0.0, 0.0, 20)
        t = backward_pass(p)
        np.testing.assert_array_equal(t.alpha, np.zeros(21))
        np.testing.assert_array_equal(t.h, np.zeros(21))
        np.testing.assert_array_equal(t.A1_plus, np.zeros(20))

    def test_sign_invariants_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = random_valid_params(rng, lam=float(rng.uniform(1e-6, 0.01)))
            t = backward_pass(p)
            assert np.all(t.gamma < 0)
            assert np.all(t.beta_plus < 0)
            assert np.all(t.beta_minus < 0)

    def test_alpha_negative_and_decreasing_toward_terminal(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            p = random_valid_params(rng, lam=float(rng.uniform(1e-6, 0.01)))
            a = backward_pass(p).alpha
            assert np.all(a < 0)
            assert np.all(np.diff(a) < 0)  # decreasing as k increases


class TestOptimalSpreads:
    def test_far_from_terminal_near_half_reservation(self):
        p = symmetric_params(100, 5, 0.2, 0.0, 0.0005, 2000)
        t = backward_pass(p)
        Lp, Lm = optimal_spreads(t, 0, 0.0)
        assert Lp == pytest.approx(2.5, abs=1e-2)
        assert Lm == pytest.approx(2.5, abs=1e-2)

    def test_terminal_step_value(self, bench_params):
        t = backward_pass(bench_params)
        N = bench_params.grid.n_steps - 1
        Lp, Lm = optimal_spreads(t, N, 0.0)
        assert Lp == pytest.approx(550.0 / 210.0, rel=1e-12)
        assert Lm == pytest.approx(550.0 / 210.0, rel=1e-12)

    def test_spread_sum_independent_of_inventory(self, bench_params):
        t = backward_pass(bench_params)
        rng = np.random.default_rng(0)
        for k in (0, 10, bench_params.grid.n_steps - 1):
            base = sum(optimal_spreads(t, k, 0.0))
            for I in rng.uniform(-1e4, 1e4, size=10):
                assert sum(optimal_spreads(t, k, I)) == pytest.approx(
                    base, rel=1e-12)

    def test_inventory_array_matches_scalars(self, bench_params_joint):
        t = backward_pass(bench_params_joint)
        I = np.random.default_rng(4).uniform(-1e4, 1e4, size=50)
        for k in (0, 17, bench_params_joint.grid.n_steps - 1):
            for shift in (0.0, 0.3):
                Lp, Lm = optimal_spreads(t, k, I, shift)
                pairs = [optimal_spreads(t, k, float(x), shift) for x in I]
                np.testing.assert_array_equal(Lp, [lp for lp, _ in pairs])
                np.testing.assert_array_equal(Lm, [lm for _, lm in pairs])

    def test_quotes_decreasing_in_inventory(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            p = random_valid_params(rng, lam=float(rng.uniform(1e-6, 0.01)))
            t = backward_pass(p)
            assert np.all(t.A1_plus < 0)
            assert np.all(t.A1_minus < 0)


class TestForecastSpreads:
    def test_zero_forecast_is_identity(self, bench_params):
        t = backward_pass(bench_params)
        f = ForecastVector(k=3, deltas=np.zeros(5))
        assert optimal_spreads(t, 3, 7.0, forecast_shift(t, 3, f)) == \
            optimal_spreads(t, 3, 7.0)

    def test_shift_coefficient_terminal(self, bench_params):
        # beta/(2 gamma) = -420 / -882 at the last step
        t = backward_pass(bench_params)
        N = bench_params.grid.n_steps - 1
        f = ForecastVector(k=N, deltas=np.array([1.0]))
        assert forecast_shift(t, N, f) == 1.0  # no later steps to propagate
        shift = t.beta_plus[N] / (2 * t.gamma[N]) * forecast_shift(t, N, f)
        assert shift == pytest.approx(420.0 / 882.0, rel=1e-12)
        Lp0, Lm0 = optimal_spreads(t, N, 2.0)
        Lp, Lm = optimal_spreads(t, N, 2.0, forecast_shift(t, N, f))
        assert Lp - Lp0 == pytest.approx(shift, rel=1e-12)
        assert Lm - Lm0 == pytest.approx(-shift, rel=1e-12)

    def test_half_delta_shift_at_zero_alpha(self):
        # with zero penalty alpha vanishes and the shift is exactly delta/2
        p = symmetric_params(100, 5, 0.2, 0.0, 0.0, 10)
        t = backward_pass(p)
        f = ForecastVector(k=4, deltas=np.array([0.3]))
        Lp0, Lm0 = optimal_spreads(t, 4, 0.0)
        Lp, Lm = optimal_spreads(t, 4, 0.0, forecast_shift(t, 4, f))
        assert Lp - Lp0 == pytest.approx(0.15, rel=1e-12)
        assert Lm - Lm0 == pytest.approx(-0.15, rel=1e-12)

    def test_spread_sum_invariant_to_forecasts_when_symmetric(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = independent_symmetric_c_params(rng)
            t = backward_pass(p)
            n = p.grid.n_steps
            k = int(rng.integers(0, n))
            f = ForecastVector(k=k,
                               deltas=rng.uniform(-1, 1, size=n - k))
            I = float(rng.uniform(-1e4, 1e4))
            base = sum(optimal_spreads(t, k, 0.0))
            got = sum(optimal_spreads(t, k, I, forecast_shift(t, k, f)))
            assert got == pytest.approx(base, rel=1e-11)


class TestPositiveSpread:
    def test_two_sided_arrivals_give_positive_total_spread(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = independent_symmetric_c_params(rng)
            t = backward_pass(p)
            for k in range(p.grid.n_steps):
                I = float(rng.uniform(-1e4, 1e4))
                Lp, Lm = optimal_spreads(t, k, I)
                assert Lp + Lm > 0


class TestValueFunction:
    def test_terminal_state(self, bench_params):
        t = backward_pass(bench_params)
        k = bench_params.grid.n_steps  # N+1
        v = value_function(t, MarketState(k=k, S=101.0, W=50.0, I=-3.0))
        assert v == pytest.approx(50.0 + 101.0 * -3.0
                                  - bench_params.lam * 9.0, rel=1e-12)

    def test_initial_state_is_g0(self, bench_params):
        t = backward_pass(bench_params)
        v = value_function(t, MarketState(k=0, S=100.0, W=0.0, I=0.0))
        assert v == t.g[0]


class TestNonMartingaleAdjustments:
    def test_zero_forecasts(self, bench_params):
        t = backward_pass(bench_params)
        f = ForecastVector(k=2, deltas=np.zeros(4))
        h_tilde, g_delta = nonmartingale_value_adjustments(t, 2, f, bench_params)
        assert h_tilde == t.h[2]
        assert g_delta == 0.0

    def test_single_immediate_delta(self, bench_params):
        t = backward_pass(bench_params)
        k = 5
        delta = 0.7
        f = ForecastVector(k=k, deltas=np.array([delta]))
        h_tilde, _ = nonmartingale_value_adjustments(t, k, f, bench_params)
        assert h_tilde == pytest.approx(t.h[k] + t.xi[k] * delta, rel=1e-12)


class TestSweepOracle:
    """The scalar-float sweep against the step-by-step loop of
    ``tests/solver_oracle.py``: every array of the table, bit for bit."""

    FIELDS = ("gamma", "beta_plus", "beta_minus", "A1_plus", "A1_minus",
              "A2_plus", "A2_minus", "A3_plus", "A3_minus", "xi", "alpha",
              "h", "g")

    def assert_same(self, p):
        got, want = backward_pass(p), solver_oracle.backward_pass(p)
        for name in self.FIELDS:
            assert np.array_equal(getattr(got, name), getattr(want, name)), \
                name

    def test_random_tables(self):
        # asymmetric moments, pi_joint anywhere inside the Frechet bounds
        rng = np.random.default_rng(21)
        for _ in range(300):
            self.assert_same(random_valid_params(
                rng, n_steps=int(rng.integers(1, 401)),
                lam=float(rng.uniform(1e-5, 1e-2))))

    def test_long_day(self):
        self.assert_same(true_market_params(SyntheticDayConfig()))

    def test_fixtures(self, bench_params, bench_params_joint):
        self.assert_same(bench_params)
        self.assert_same(bench_params_joint)

    def test_gamma_floor_names_the_step(self, bench_params):
        # no arrival on the ask side at step 3: pi+ = pi11 = 0 there
        arr = bench_params.arrivals
        pi_plus, pi_joint = arr.pi_plus.copy(), arr.pi_joint.copy()
        pi_plus[3] = pi_joint[3] = 0.0
        p = MarketParams(grid=bench_params.grid,
                         arrivals=ArrivalSchedule(pi_plus=pi_plus,
                                                  pi_minus=arr.pi_minus,
                                                  pi_joint=pi_joint),
                         moments=bench_params.moments, lam=bench_params.lam)
        with pytest.raises(ArithmeticError, match=r"\bk=3\b"):
            backward_pass(p)
        with pytest.raises(ArithmeticError):
            solver_oracle.backward_pass(p)


    @pytest.mark.parametrize("extra", [-1, 1])
    def test_arrival_length_must_match_the_grid(self, bench_params, extra):
        arr = bench_params.arrivals
        n = bench_params.grid.n_steps + extra
        p = replace(bench_params, arrivals=ArrivalSchedule(
            pi_plus=np.resize(arr.pi_plus, n),
            pi_minus=np.resize(arr.pi_minus, n),
            pi_joint=np.resize(arr.pi_joint, n)))
        with pytest.raises(ValueError, match="arrival arrays"):
            backward_pass(p)


class TestClosedFormSpread:
    def test_benchmark_values(self):
        p0 = symmetric_params(100, 5, 0.2, 0.0, 0.0005, 5)
        t0 = backward_pass(p0)
        N = p0.grid.n_steps - 1
        assert closed_form_spread_symmetric(p0, N, t0) == pytest.approx(
            220.0 / 42.0, rel=1e-12)
        p1 = symmetric_params(100, 5, 0.2, 0.05, 0.0005, 5)
        t1 = backward_pass(p1)
        assert closed_form_spread_symmetric(p1, N, t1) == pytest.approx(
            215.0 / 41.5, rel=1e-12)

    def test_matches_optimal_spreads(self, bench_params_joint):
        t = backward_pass(bench_params_joint)
        for k in (0, 7, bench_params_joint.grid.n_steps - 1):
            spread = sum(optimal_spreads(t, k, 0.0))
            assert closed_form_spread_symmetric(
                bench_params_joint, k, t) == pytest.approx(spread, rel=1e-10)

    def test_zero_alpha_limit(self):
        p = symmetric_params(100, 5, 0.2, 0.0, 0.0, 5)
        t = backward_pass(p)
        assert closed_form_spread_symmetric(p, 0, t) == pytest.approx(
            5.0, rel=1e-12)

    def test_rejects_asymmetric(self):
        rng = np.random.default_rng(2)
        p = random_valid_params(rng, n_steps=3)
        with pytest.raises(ValueError):
            closed_form_spread_symmetric(p, 0)


class TestInventoryThreshold:
    def test_benchmark(self):
        p = symmetric_params(100, 5, 0.2, 0.0, 0.0005, 5)
        assert inventory_threshold(p) == (250.0, -250.0)

    def test_unit_case(self):
        p = symmetric_params(1, 2, 0.5, 0.0, 0.0, 3)
        assert inventory_threshold(p) == (1.0, -1.0)

    def test_rejects_asymmetric(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            inventory_threshold(random_valid_params(rng, n_steps=3))

    def test_ask_spread_at_inventory_threshold(self):
        p = symmetric_params(100, 5, 0.2, 0.0, 0.0005, 40)
        t = backward_pass(p)
        I_bar, _ = inventory_threshold(p)
        for k in range(p.grid.n_steps):
            Lp, _ = optimal_spreads(t, k, I_bar)
            assert Lp == pytest.approx(2.5, abs=1e-10)
            Lp_lo, _ = optimal_spreads(t, k, I_bar - 50)
            Lp_hi, _ = optimal_spreads(t, k, I_bar + 50)
            assert Lp_lo > 2.5 > Lp_hi


class TestPiZeroClosedForms:
    def test_reduction_matches_general_recursion(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            p = random_valid_params(rng, force_pi_joint=0.0,
                                    lam=float(rng.uniform(1e-6, 0.01)))
            assert np.all(p.arrivals.pi_joint == 0.0)
            t = backward_pass(p)
            for k in range(p.grid.n_steps):
                a_next = t.alpha[k + 1]
                assert t.A1_plus[k] == pytest.approx(
                    pi0_inventory_coef(p.moments.plus, a_next), rel=1e-12)
                assert t.A1_minus[k] == pytest.approx(
                    pi0_inventory_coef(p.moments.minus, a_next), rel=1e-12)
                half_p = pi0_half_spread(p.moments.plus, a_next)
                assert t.A2_plus[k] * 0 + t.A3_plus[k] == pytest.approx(
                    half_p + -t.A2_plus[k] * 0 + (t.A3_plus[k] - half_p),
                    rel=1e-12)
                Lp, _ = optimal_spreads(t, k, 0.0)
                h_term = t.h[k + 1] * p.moments.plus.mu_c / (
                    2 * (p.moments.plus.mu_c - a_next * p.moments.plus.mu_c2))
                assert Lp == pytest.approx(half_p + h_term, rel=1e-10)
                assert t.alpha[k] == pytest.approx(
                    pi0_alpha_step(p.arrivals.pi_plus[k],
                                   p.arrivals.pi_minus[k],
                                   p.moments.plus, p.moments.minus, a_next),
                    rel=1e-12)


class TestSpreadMonotonicity:
    def test_spread_nondecreasing_in_k(self):
        p = symmetric_params(100, 5, 0.2, 0.05, 0.0005, 200)
        t = backward_pass(p)
        spreads = [sum(optimal_spreads(t, k, 0.0))
                   for k in range(p.grid.n_steps)]
        assert np.all(np.diff(spreads) >= -1e-12)

    def test_spread_decreasing_in_pi_joint(self):
        prev = None
        for pj in (0.0, 0.05, 0.1, 0.2):
            p = symmetric_params(100, 5, 0.2, pj, 0.0005, 50)
            t = backward_pass(p)
            spreads = np.array([sum(optimal_spreads(t, k, 0.0))
                                for k in range(50)])
            if prev is not None:
                assert np.all(spreads < prev)
            prev = spreads

    def test_joint_only_arrivals_constant_spread(self):
        # pi(1,0) = pi(0,1) = 0: both sides arrive together or not at all
        p = symmetric_params(100, 5, 0.3, 0.3, 0.0005, 100)
        t = backward_pass(p)
        spreads = np.array([sum(optimal_spreads(t, k, 0.0))
                            for k in range(100)])
        np.testing.assert_allclose(spreads, spreads[0], rtol=1e-12)


class TestRecursionTermPin:
    """Pin every additive term of one backward step against a literal
    re-expansion of the update rules on a fixed asymmetric instance."""

    def test_one_step_terms(self):
        plus = SideMoments(mu_c=90.0, mu_c2=9500.0, mu_cp=420.0,
                           mu_c2p=44000.0, mu_c2p2=215000.0)
        minus = SideMoments(mu_c=110.0, mu_c2=13000.0, mu_cp=500.0,
                            mu_c2p=60000.0, mu_c2p2=290000.0)
        pp, pm, pj = 0.3, 0.25, 0.1
        lam = 0.002
        p = MarketParams(
            grid=TimeGrid(n_steps=1),
            arrivals=ArrivalSchedule.constant(pp, pm, pj, 1),
            moments=DemandMoments(plus=plus, minus=minus), lam=lam)
        t = backward_pass(p)
        a = -lam
        hn = 0.0
        Ep = a * plus.mu_c2 - plus.mu_c
        Em = a * minus.mu_c2 - minus.mu_c
        gamma = (pj * a * plus.mu_c * minus.mu_c) ** 2 - pp * pm * Ep * Em
        beta_p = pp * pm * plus.mu_c * Em - pm * pj * a * plus.mu_c \
            * minus.mu_c ** 2
        beta_m = pp * pm * minus.mu_c * Ep - pp * pj * a * minus.mu_c \
            * plus.mu_c ** 2
        assert t.gamma[0] == pytest.approx(gamma, rel=1e-14)
        assert t.beta_plus[0] == pytest.approx(beta_p, rel=1e-14)
        assert t.beta_minus[0] == pytest.approx(beta_m, rel=1e-14)
        A1p = beta_p * a / gamma
        A1m = beta_m * a / gamma
        A2p = beta_p * hn / (2 * gamma)
        A2m = beta_m * hn / (2 * gamma)
        A3p = (pm * Em * (pp * (plus.mu_cp - 2 * a * plus.mu_c2p)
                          + 2 * a * pj * plus.mu_c * minus.mu_cp)
               + pj * a * plus.mu_c * minus.mu_c
               * (pm * (minus.mu_cp - 2 * a * minus.mu_c2p)
                  + 2 * a * pj * minus.mu_c * plus.mu_cp)) / (2 * gamma)
        A3m = (pp * Ep * (pm * (minus.mu_cp - 2 * a * minus.mu_c2p)
                          + 2 * a * pj * minus.mu_c * plus.mu_cp)
               + pj * a * plus.mu_c * minus.mu_c
               * (pp * (plus.mu_cp - 2 * a * plus.mu_c2p)
                  + 2 * a * pj * plus.mu_c * minus.mu_cp)) / (2 * gamma)
        assert t.A1_plus[0] == pytest.approx(A1p, rel=1e-14)
        assert t.A1_minus[0] == pytest.approx(A1m, rel=1e-14)
        assert t.A3_plus[0] == pytest.approx(A3p, rel=1e-14)
        assert t.A3_minus[0] == pytest.approx(A3m, rel=1e-14)

        alpha0 = a
        h0 = hn
        g0 = 0.0
        for d, mom, pi_d, A1, A2, A3 in (
                (+1, plus, pp, A1p, A2p, A3p),
                (-1, minus, pm, A1m, A2m, A3m)):
            E = a * mom.mu_c2 - mom.mu_c
            alpha0 += pi_d * (E * A1 ** 2 + 2 * a * mom.mu_c * A1)
            h0 += pi_d * (2 * E * A1 * (d * A3 + A2)
                          + 2 * a * mom.mu_c * (d * A3 + A2)
                          - 2 * a * (d * mom.mu_cp)
                          + (d * A1) * (mom.mu_cp + d * hn * mom.mu_c
                                        - 2 * a * mom.mu_c2p))
            g0 += pi_d * (E * (A3 + d * A2) ** 2 + a * mom.mu_c2p2
                          - d * hn * mom.mu_cp
                          + (mom.mu_cp + d * hn * mom.mu_c
                             - 2 * a * mom.mu_c2p) * (A3 + d * A2))
        cross = 2 * a * pj * plus.mu_c * minus.mu_c
        alpha0 += cross * A1p * A1m
        h0 -= cross * (A1p * (A3m - A2m) - A1m * (A2p + A3p)
                       + (plus.mu_cp / plus.mu_c) * A1m
                       - (minus.mu_cp / minus.mu_c) * A1p)
        g0 -= cross * ((A2p + A3p) * (A3m - A2m)
                       - (plus.mu_cp / plus.mu_c) * (A3m - A2m)
                       - (minus.mu_cp / minus.mu_c) * (A2p + A3p)
                       + plus.mu_cp * minus.mu_cp
                       / (plus.mu_c * minus.mu_c))
        assert t.alpha[0] == pytest.approx(alpha0, rel=1e-13)
        assert t.h[0] == pytest.approx(h0, rel=1e-13, abs=1e-13)
        assert t.g[0] == pytest.approx(g0, rel=1e-13)

        xi0 = 1.0 + (a / gamma) * (
            pp * beta_p * ((beta_p / gamma) * Ep + 2 * plus.mu_c)
            + pm * beta_m * ((beta_m / gamma) * Em + 2 * minus.mu_c)) \
            + 2 * (a ** 2 / gamma ** 2) * pj * plus.mu_c * minus.mu_c \
            * beta_p * beta_m
        assert t.xi[0] == pytest.approx(xi0, rel=1e-13)


def _csv_writer_table(table, path):
    """table_to_csv as it was, csv.writer over np.float64 cells: the
    reference for the columnar writer's bytes."""
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


# negative, tiny, subnormal and exponent-form values, both sides of the
# 1e-4 and 1e16 switches between positional and exponent form
CSV_FLOATS = [-1.5, 5e-324, -2.2250738585072014e-308, 1e-05,
              9.999999999999999e-05, 0.0001, -0.0, 0.0, 0.1, -2.5e-07,
              123456789.125, 9999999999999998.0, 1e16, -1.5e17, 2.5e+300,
              -1.7976931348623157e+308, math.inf, -math.inf, math.nan]


class TestTableCsv:
    def test_bytes_equal_csv_writer(self, tmp_path):
        rng = np.random.default_rng(5)
        per_step = {name: rng.permutation(CSV_FLOATS) for name in (
            "gamma", "beta_plus", "beta_minus", "A1_plus", "A1_minus",
            "A2_plus", "A2_minus", "A3_plus", "A3_minus", "xi")}
        terminal = {name: rng.permutation(CSV_FLOATS + [-3.0e-20])
                    for name in ("alpha", "h", "g")}
        tables = [CoefficientTable(**per_step, **terminal),
                  backward_pass(symmetric_params(100, 5, 0.2, 0.05, 5e-4, 60)),
                  backward_pass(true_market_params(
                      SyntheticDayConfig(n_steps=300)))]
        # rows are written in blocks of 2048: 4096 rows in all, then 2501
        tables += [backward_pass(true_market_params(
            SyntheticDayConfig(n_steps=n))) for n in (4094, 2499)]
        for t in tables:
            table_to_csv(t, tmp_path / "new.csv")
            _csv_writer_table(t, tmp_path / "old.csv")
            assert ((tmp_path / "new.csv").read_bytes()
                    == (tmp_path / "old.csv").read_bytes())

    def test_columns_round_trip(self, bench_params, tmp_path):
        t = backward_pass(bench_params)
        path = tmp_path / "table.csv"
        table_to_csv(t, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "step"
        assert len(rows) == bench_params.grid.n_steps + 2  # header + N+1 rows
        got_alpha = [float(r[rows[0].index("alpha")]) for r in rows[1:]]
        np.testing.assert_allclose(got_alpha, t.alpha)
