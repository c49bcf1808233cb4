import csv
import json
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hfmm.backtest
from hfmm.backtest import (DayResult, Policy, aggregate, report_to_csv,
                           report_to_json, run_day, subsample_bootstrap_ci,
                           summarize)
from hfmm.backtest import _quote_ticks
from hfmm.lob import KIND_CODES, SIDE_CODES, BookError, replay
from hfmm.model import TimeGrid
from hfmm.solver import backward_pass, optimal_spreads
from hfmm.synthetic import (SyntheticDayConfig, generate_day,
                            true_market_params)

import backtest_oracle
from conftest import symmetric_params


def ev(ts, kind, side, price, size, ref):
    """One event as an EVENT_DTYPE record tuple, kind and side by name."""
    return (ts, KIND_CODES[kind], SIDE_CODES[side], 0, price, size, ref, 0)


def replayed(params, events):
    return replay(events, params.grid, tick_size=params.tick_size)


def one_step_params(lam=0.0005):
    # session starts after the seed adds so the first snapshot sees the book
    p = symmetric_params(100.0, 5.0, 0.2, 0.0, lam, 1)
    return replace(p, grid=TimeGrid(n_steps=1, step_seconds=1.0,
                                    session_start_ns=10 ** 9))


def quiet_day_events():
    """Static two-sided book, no market orders."""
    return [ev(0, "add", "bid", 10000, 1000, 1),
            ev(0, "add", "ask", 10001, 1000, 2)]


def single_mo_events():
    """One buy MO of 600 against asks (10001,200),(10002,500),(10003,500)."""
    events = [ev(0, "add", "bid", 10000, 1000, 1),
              ev(0, "add", "bid", 9999, 1000, 2),
              ev(0, "add", "ask", 10001, 200, 3),
              ev(0, "add", "ask", 10002, 500, 4),
              ev(0, "add", "ask", 10003, 500, 5)]
    t = 10 ** 9 + 400_000_000  # inside [t_0, t_1)
    events += [ev(t, "trade", "ask", 10001, 600, 0),
               ev(t + 1, "execute", "ask", 10001, 200, 3),
               ev(t + 2, "execute", "ask", 10002, 400, 4)]
    return events


def outcome(fn, *args, **kwargs):
    """The result, or the raised error's type and message."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


def oracle_quote_ticks(S, L_plus, L_minus, tick):
    """The oracle's tick rules composed: prices rounded outward, converted
    to ticks, then kept a tick off the mid."""
    ask, bid = backtest_oracle.quote_prices(S, L_plus, L_minus, tick)
    return backtest_oracle.clamp_quotes(int(round(ask / tick)),
                                        int(round(bid / tick)), S, tick)


def _spread_in_ticks():
    return st.one_of(
        st.floats(-1e12, 1e12),       # negative, and up to 1e12 ticks
        st.floats(-1.0, 1.0),         # below a tick
        st.integers(-50, 50).map(float),  # on the grid
        st.sampled_from([math.nan, math.inf, -math.inf]))


class TestQuoteTicks:
    """The one tick rule: S + L+ rounded up and S - L- down onto the tick
    grid, then each kept a tick off the mid rounded the other way."""

    @pytest.mark.parametrize("S,Lp,Lm,tick,want", [
        # the mid rounded down, plus a tick, floors the ask, and the mid
        # rounded up, less a tick, caps the bid
        pytest.param(10000.5, -0.5, -0.5, 1.0, (10001, 10000),
                     id="half_tick_mid"),
        pytest.param(10000.0, 0.0, 0.0, 1.0, (10001, 9999),
                     id="integer_mid"),
        pytest.param(10000.5, 4.5, 5.5, 1.0, (10005, 9995),
                     id="never_widens"),
        pytest.param(100.0, 2.61, 2.61, 0.01, (10261, 9739), id="on_grid"),
        pytest.param(100.005, 2.5, 2.5, 0.01, (10251, 9750),
                     id="rounds_outward"),
        pytest.param(100.0, 0.001, 0.001, 0.01, (10001, 9999),
                     id="minimal_spread_preserved"),
    ])
    def test_case(self, S, Lp, Lm, tick, want):
        assert _quote_ticks(S, Lp, Lm, tick) == want

    @given(tick=st.sampled_from([1.0, 0.5, 0.01]),
           m=st.integers(1, 10 ** 7),
           off=st.one_of(st.sampled_from([0.0, 0.5]),
                         st.floats(-2e-9, 2e-9)),
           lp=_spread_in_ticks(), lm=_spread_in_ticks())
    @settings(max_examples=2000, deadline=None)
    def test_matches_oracle(self, tick, m, off, lp, lm):
        # a mid on a tick, on a half tick or within 2e-9 ticks of one
        S, Lp, Lm = (m + off) * tick, lp * tick, lm * tick
        assert (outcome(_quote_ticks, S, Lp, Lm, tick)
                == outcome(oracle_quote_ticks, S, Lp, Lm, tick))


class TestPolicy:
    @pytest.mark.parametrize("name", ["optimal_forecast", "optimal_martingale",
                                      "fixed_level_1", "fixed_level_12"])
    def test_name_round_trip(self, name):
        assert Policy.named(name).name == name

    @pytest.mark.parametrize("name", ["fixed_level_0", "fixed_level_-1",
                                      "fixed_level_x", "fixed_level_",
                                      "optimal", "level_2", "fixed_level_01",
                                      "fixed_level_00", "fixed_level_+1",
                                      "fixed_level_\u0663",
                                      "fixed_level_1\u0663", "fixed_level_1_0",
                                      "fixed_level_ 1"])
    def test_unknown_or_bad_level_rejected(self, name):
        with pytest.raises(ValueError, match=re.escape(name)):
            Policy.named(name)

    def test_spreads_are_the_solver_rule(self):
        table = backward_pass(symmetric_params(100.0, 5.0, 0.2, 0.05,
                                               0.0005, 10))
        I = np.array([-300.0, 0.0, 120.0])
        for name in ("optimal_forecast", "optimal_martingale"):
            got = Policy.named(name, table).spreads(3, 100.0, I, 0.02)
            want = optimal_spreads(table, 3, I, 0.02)
            np.testing.assert_array_equal(got, want)


class TestRunDay:
    def test_quiet_day_zero_everything(self):
        params = one_step_params()
        table = backward_pass(params)
        for name in ("optimal_martingale", "optimal_forecast",
                     "fixed_level_1"):
            policy = Policy.named(name, table)
            res = run_day(params, policy, replayed(params, quiet_day_events()))
            assert res.W_T == 0.0
            assert res.I_T == 0.0
            assert res.objective == 0.0
            assert res.liquidation_value == 0.0
            assert res.fills == 0

    def test_single_fill_arithmetic(self):
        params = one_step_params()
        res = run_day(params, Policy.named("fixed_level_2"),
                      replayed(params, single_mo_events()))
        # placed at the 2nd ask level 10002; 200 shares priced better
        assert res.I_T == -400.0
        assert res.W_T == pytest.approx(400 * 10002.0)
        # terminal book: bids untouched, asks (10002,100),(10003,500)
        assert res.S_T == pytest.approx(10001.0)
        assert res.objective == pytest.approx(
            400 * 10002 - 10001.0 * 400 - 0.0005 * 400 ** 2)
        # buy back 100 @ 10002 and 300 @ 10003
        assert res.liquidation_value == pytest.approx(
            400 * 10002 - (100 * 10002 + 300 * 10003))

    def test_accounting_identity(self):
        params = one_step_params()
        res = run_day(params, Policy.named("fixed_level_2"),
                      replayed(params, single_mo_events()))
        avg = (100 * 10002 + 300 * 10003) / 400
        lhs = res.objective - res.liquidation_value
        rhs = (res.S_T - params.lam * res.I_T) * res.I_T - avg * res.I_T
        assert lhs == pytest.approx(rhs)

    def test_fixed_level_fallback_flagged(self):
        # only two ask levels, policy wants the 5th
        params = one_step_params()
        res = run_day(params, Policy.named("fixed_level_5"),
                      replayed(params, quiet_day_events()))
        assert any("fallback" in f for f in res.flags)

    def test_level_deeper_than_the_replay_rejected(self):
        # a 30-level book: replayed at the default 20 levels, level 20 is
        # quoted at every step and levels 21 and 25 are not in the replay
        events, truth = generate_day(SyntheticDayConfig(n_steps=200,
                                                        depth=30), seed=1)
        params = truth.params

        def fallbacks(name, rep):
            return [f for f in run_day(params, Policy.named(name), rep).flags
                    if "fallback" in f]

        rep = replayed(params, events)
        assert fallbacks("fixed_level_20", rep) == []
        for name in ("fixed_level_21", "fixed_level_25"):
            with pytest.raises(ValueError, match=f"^policy {name}: the "
                               "replay kept 20 levels a side$"):
                run_day(params, Policy.named(name), rep)
        deep = replay(events, params.grid, K=30, tick_size=params.tick_size)
        assert fallbacks("fixed_level_25", deep) == []

    @pytest.mark.parametrize("tick", [0.0, -1.0])
    @pytest.mark.parametrize("name", ["optimal_forecast",
                                      "optimal_martingale", "fixed_level_1"])
    def test_non_positive_tick_rejected(self, name, tick):
        events, truth = generate_day(SyntheticDayConfig(n_steps=200), seed=4)
        rep = replay(events, truth.params.grid)
        policy = Policy.named(name, backward_pass(truth.params))
        with pytest.raises(ValueError, match=r"^tick_size must be > 0$"):
            run_day(replace(truth.params, tick_size=tick), policy, rep)

    def test_determinism(self):
        cfg = SyntheticDayConfig(n_steps=200)
        events, truth = generate_day(cfg, seed=1)
        table = backward_pass(truth.params)
        policy = Policy.named("optimal_forecast", table)
        a = run_day(truth.params, policy, replayed(truth.params, events))
        b = run_day(truth.params, policy, replayed(truth.params, events))
        assert (a.W_T, a.I_T, a.objective, a.liquidation_value, a.fills) == \
               (b.W_T, b.I_T, b.objective, b.liquidation_value, b.fills)


class TestRunDayMatchesOracle:
    """run_day quotes only the steps with a market order; the per-step
    loop it replaced must give the same DayResult or the same error."""

    NAMES = ("optimal_forecast", "optimal_martingale", "fixed_level_1",
             "fixed_level_2", "fixed_level_3", "fixed_level_20")

    def same(self, params, policy, rep, **kwargs):
        got = outcome(run_day, params, policy, rep, day_id=7, **kwargs)
        want = outcome(backtest_oracle.run_day, params, policy, rep,
                       day_id=7, **kwargs)
        assert got == want
        return got

    @pytest.mark.parametrize("depth", [2, 4, 12])
    @pytest.mark.parametrize("tick", [1.0, 0.5, 0.01])
    def test_synthetic_days(self, tick, depth):
        cfg = SyntheticDayConfig(n_steps=300, tick_size=tick, depth=depth)
        events, truth = generate_day(cfg, seed=11)
        rep = replay(events, truth.params.grid, tick_size=tick)
        table = backward_pass(truth.params)
        flags = set()
        for name in self.NAMES:
            for volume in (1, 37, 500, 10 ** 6):
                r = self.same(truth.params, Policy.named(name, table), rep,
                              order_volume=volume)
                flags.update(f.split(" at ")[0] for f in r.flags)
        # depth 2 falls back from level 3 and runs out of book to liquidate
        assert depth > 2 or flags == {"level fallback",
                                      "liquidation exhausted visible depth"}

    def quiet_steps(self, n_steps=200, seed=4):
        events, truth = generate_day(SyntheticDayConfig(n_steps=n_steps),
                                     seed=seed)
        rep = replay(events, truth.params.grid)
        busy = set(rep.mo_interval.tolist())
        quiet = [k for k in range(n_steps) if k not in busy]
        return truth.params, rep, backward_pass(truth.params), quiet

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad,error", [(np.nan, ValueError),
                                           (np.inf, OverflowError)])
    def test_non_finite_spread_without_mo_ends_day(self, bad, error):
        # the other non-finite value at a later MO step raises the other
        # error, but the step without an MO fails first
        params, rep, table, quiet = self.quiet_steps()
        k = quiet[len(quiet) // 2]
        A2 = table.A2_plus.copy()
        A2[k] = bad
        A2[next(j for j in range(k, 200) if j not in quiet)] = (
            np.inf if np.isnan(bad) else np.nan)
        for name in ("optimal_forecast", "optimal_martingale"):
            policy = Policy.named(name, replace(table, A2_plus=A2))
            assert self.same(params, policy, rep)[0] is error

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_spread_overflowing_at_the_held_inventory(self):
        # A1 = 1e308 overflows the spread only where the inventory held
        # before the step's fills is nonzero, that is after the first fill
        params, rep, table, _ = self.quiet_steps()
        outcomes = []
        for k in range(8):
            A1 = table.A1_plus.copy()
            A1[k] = 1e308
            policy = Policy.named("optimal_martingale",
                                  replace(table, A1_plus=A1))
            outcomes.append(isinstance(self.same(params, policy, rep),
                                       DayResult))
        assert True in outcomes and False in outcomes

    def test_level_fallback_at_some_steps(self):
        # levels 2 and 3 fall back where a side is cut to one or two levels
        params, rep, table, quiet = self.quiet_steps()
        busy = sorted(set(rep.mo_interval.tolist()))
        depth = rep.book_depth.copy()
        cut = [quiet[1], busy[2], busy[5], quiet[7]]
        depth[cut[0], 0] = depth[cut[1], 1] = 1
        depth[cut[2], 0] = depth[cut[3], 1] = 2
        rep = replace(rep, book_depth=depth)
        for name, want in (("fixed_level_2", cut[:2]),
                           ("fixed_level_3", cut)):
            got = self.same(params, Policy.named(name), rep)
            assert got.flags[:len(want)] == [f"level fallback at step {k}"
                                             for k in sorted(want)]

    def test_both_sides_in_one_interval_and_a_binding_cap(self):
        params, rep, table, _ = self.quiet_steps()
        assert len(np.intersect1d(rep.mo_interval[rep.mo_side == 0],
                                  rep.mo_interval[rep.mo_side == 1]))
        for name in self.NAMES:
            policy = Policy.named(name, table)
            capped = self.same(params, policy, rep, order_volume=3)
            free = self.same(params, policy, rep, order_volume=10 ** 6)
            # level 20 is beyond every MO's reach
            assert (capped.W_T != free.W_T) == (name != "fixed_level_20")

    def test_quotes_within_1e_9_of_a_tick(self):
        # mids and quotes a whole or half number of ticks from a tick, give
        # or take up to 2e-9 ticks, where the rounding's and the clamp's
        # 1e-9 allowance decides; spreads below a tick, where the clamp binds
        for tick in (1.0, 0.01):
            events, truth = generate_day(
                SyntheticDayConfig(n_steps=300, tick_size=tick), seed=5)
            rep = replay(events, truth.params.grid, tick_size=tick)
            rng = np.random.default_rng(3)
            n = truth.params.grid.n_steps
            off = [-2e-9, -1e-9, -5e-10, 0.0, 5e-10, 1e-9, 2e-9]
            mids = np.where(rng.random(n) < 0.5, rep.midprices,
                            (np.round(rep.midprices / tick)
                             + rng.choice(off, n)) * tick)
            near = [(rng.integers(-2, 8, n) / 2 + rng.choice(off, n)) * tick
                    for _ in range(2)]
            zero = np.zeros(n)
            table = replace(backward_pass(truth.params), A1_plus=zero,
                            A1_minus=zero, A2_plus=near[0], A2_minus=zero,
                            A3_plus=zero, A3_minus=near[1], beta_plus=zero,
                            beta_minus=zero)
            for name in self.NAMES:
                got = self.same(truth.params, Policy.named(name, table),
                                replace(rep, midprices=mids))
                assert isinstance(got, DayResult)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("where", ["busy_first", "quiet_first"])
    @pytest.mark.parametrize("fault", ["spread", "overflow", "one_sided",
                                       "mid"])
    def test_first_failing_step_raises(self, fault, where):
        # two faults that raise different errors, at a step with an MO and
        # at one without: the earlier one's error ends the day
        params, rep, table, quiet = self.quiet_steps()
        busy = [k for k in sorted(set(rep.mo_interval.tolist()))
                if k > quiet[2]]
        k1, k2 = ((busy[0], next(k for k in quiet if k > busy[0]))
                  if where == "busy_first" else
                  (quiet[2], next(k for k in busy if k > quiet[2])))
        A2, A3 = table.A2_plus.copy(), table.A3_plus.copy()
        mids, depth = rep.midprices.copy(), rep.book_depth.copy()
        if fault == "spread":
            A2[k1], A2[k2] = np.nan, np.inf
            want = {"optimal": ValueError, "level": None}
        elif fault == "overflow":
            A2[k1] = A3[k1] = 1e308  # Lp overflows to inf
            A2[k2] = np.nan
            want = {"optimal": OverflowError, "level": None}
        elif fault == "one_sided":
            depth[k1, 1] = depth[k2, 0] = 0
            want = {"optimal": None, "level": "no ask levels"}
        else:
            mids[k1], mids[k2] = np.inf, np.nan
            want = {"optimal": OverflowError, "level": OverflowError}
        rep = replace(rep, midprices=mids, book_depth=depth)
        table = replace(table, A2_plus=A2, A3_plus=A3)
        for name in self.NAMES:
            policy = Policy.named(name, table)
            got = self.same(params, policy, rep)
            expect = want["level" if policy.level else "optimal"]
            if expect is None:
                assert isinstance(got, DayResult)
            elif isinstance(expect, str):
                assert got[1].endswith(expect)
            else:
                assert got[0] is expect

    def test_one_sided_snapshot_without_mo_ends_day(self):
        params, rep, table, quiet = self.quiet_steps()
        depth = rep.book_depth.copy()
        depth[quiet[3], 1] = 0  # no asks
        rep = replace(rep, book_depth=depth)
        for name in self.NAMES:
            got = self.same(params, Policy.named(name, table), rep)
            assert isinstance(got, DayResult) != bool(Policy.named(name).level)

    @pytest.mark.parametrize("empty,want", [((0,), "no bid levels"),
                                            ((0, 1), "no ask levels")],
                             ids=["bids", "both"])
    def test_missing_side_named(self, empty, want):
        # a fixed level names the empty side, the asks first when both are
        params, rep, table, quiet = self.quiet_steps()
        depth = rep.book_depth.copy()
        depth[quiet[3], list(empty)] = 0
        rep = replace(rep, book_depth=depth)
        for name in self.NAMES:
            got = self.same(params, Policy.named(name, table), rep)
            if Policy.named(name).level:
                assert got[0] is BookError and got[1].endswith(want)
            else:
                assert isinstance(got, DayResult)


class TestOptimalDayInBlocks:
    """The optimal rules' loop converts its terms and flows a block of
    quoted steps at a time; every block size gives the per-step loop's
    DayResult or error."""

    NAMES = ("optimal_forecast", "optimal_martingale")

    def same(self, params, policy, rep, **kwargs):
        got = outcome(run_day, params, policy, rep, day_id=3, **kwargs)
        want = outcome(backtest_oracle.run_day, params, policy, rep,
                       day_id=3, **kwargs)
        assert got == want
        return got

    @pytest.mark.parametrize("block", [1, 3, None], ids=["1", "3", "day"])
    @pytest.mark.parametrize("seed", [11, 12])
    def test_synthetic_days(self, monkeypatch, block, seed):
        events, truth = generate_day(SyntheticDayConfig(n_steps=300),
                                     seed=seed)
        rep = replay(events, truth.params.grid)
        monkeypatch.setattr(hfmm.backtest, "_ROW_BLOCK", block or 300)
        table = backward_pass(truth.params)
        for name in self.NAMES:
            for volume in (37, 500):
                assert isinstance(self.same(truth.params,
                                            Policy.named(name, table), rep,
                                            order_volume=volume), DayResult)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("block", [1, 3, None], ids=["1", "3", "day"])
    def test_failure_in_a_later_block(self, monkeypatch, block):
        # a NaN spread at a quoted step of the fourth block of 3, then a
        # NaN at a step without an MO before an overflow at the next
        # quoted one: the loop fails at the overflow, the NaN raises
        monkeypatch.setattr(hfmm.backtest, "_ROW_BLOCK", block or 200)
        events, truth = generate_day(SyntheticDayConfig(n_steps=200),
                                     seed=4)
        rep = replay(events, truth.params.grid)
        table = backward_pass(truth.params)
        busy = sorted(set(rep.mo_interval.tolist()))
        quiet = next(k for k in range(busy[12], 200) if k not in busy)
        after = next(k for k in busy if k > quiet)
        for A2, error in (({busy[10]: np.nan}, ValueError),
                          ({quiet: np.nan, after: np.inf}, ValueError),
                          ({after: np.inf}, OverflowError)):
            A2_plus = table.A2_plus.copy()
            for k, bad in A2.items():
                A2_plus[k] = bad
            for name in self.NAMES:
                policy = Policy.named(name, replace(table, A2_plus=A2_plus))
                got = self.same(truth.params, policy, rep)
                assert got[0] is error

    def test_first_run_holds_a_block_at_a_time(self):
        """On a full-length day the first optimal run's transient memory
        stays under half the replay's arrays, and what it leaves cached on
        the ReplayResult under a tenth."""
        events, truth = generate_day(SyntheticDayConfig(n_steps=19800),
                                     seed=1)
        rep = replay(events, truth.params.grid)
        del events
        table = backward_pass(truth.params)
        nbytes = sum(x.nbytes for x in vars(rep).values())
        tracemalloc.start()
        try:
            run_day(truth.params, Policy.named("optimal_forecast", table),
                    rep)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * nbytes
        assert held <= 0.1 * nbytes


class TestAggregate:
    def _res(self, obj, incomplete=False):
        return DayResult(day_id=0, W_T=0, I_T=0, S_T=0, objective=obj,
                         liquidation_value=obj, fills=0,
                         incomplete=incomplete)

    def test_two_values(self):
        agg = aggregate([self._res(1.0), self._res(3.0)])
        mean, std, n = agg["objective"]
        assert (mean, n) == (2.0, 2)
        assert std == pytest.approx(math.sqrt(2.0))

    def test_single_value(self):
        assert aggregate([self._res(5.0)])["objective"] == (5.0, 0.0, 1)

    def test_incomplete_excluded(self):
        agg = aggregate([self._res(1.0), self._res(99.0, incomplete=True)])
        assert agg["objective"] == (1.0, 0.0, 1)

    def test_empty(self):
        mean, std, n = aggregate([])["objective"]
        assert n == 0 and math.isnan(mean)


class TestSubsampleBootstrap:
    def test_constant_sample_gives_point(self):
        lo, hi = subsample_bootstrap_ci(np.full(20, 3.5))
        assert lo == hi == 3.5

    def test_too_few_observations(self):
        with pytest.raises(ValueError):
            subsample_bootstrap_ci([1.0, 2.0, 3.0, 4.0])

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=50)
        assert subsample_bootstrap_ci(x, seed=3) == \
               subsample_bootstrap_ci(x, seed=3)

    def test_coverage_normal_data(self):
        rng = np.random.default_rng(1)
        hits = 0
        reps = 200
        for _ in range(reps):
            x = rng.normal(size=60)
            lo, hi = subsample_bootstrap_ci(x, seed=int(rng.integers(1e9)))
            hits += lo <= 0.0 <= hi
        # nominal 95%: allow generous finite-sample slack
        assert 0.85 <= hits / reps <= 1.0

    def test_interval_contains_mean_shrinks_with_n(self):
        rng = np.random.default_rng(2)
        x_small = rng.normal(size=30)
        x_big = rng.normal(size=3000)
        w_small = np.diff(subsample_bootstrap_ci(x_small, seed=1))[0]
        w_big = np.diff(subsample_bootstrap_ci(x_big, seed=1))[0]
        assert w_big < w_small


def quiet_policies(n_days):
    params = one_step_params()
    table = backward_pass(params)
    policies = [Policy.named("optimal_martingale", table),
                Policy.named("fixed_level_1")]
    return params, policies, [replayed(params, quiet_day_events())
                              for _ in range(n_days)]


def sweep(params, policies, days):
    """Each policy's DayResults over the days, as ``cmd_backtest`` runs
    them."""
    return {pol.name: [run_day(params, pol, day, day_id=d)
                       for d, day in enumerate(days)] for pol in policies}


class TestCompareStrategies:
    def test_quiet_days_tie_at_zero(self):
        params, policies, days = quiet_policies(6)
        rep = summarize(sweep(params, policies, days))
        for entry in rep["policies"].values():
            assert entry["all"]["objective_mean"] == 0.0
            assert entry["all"]["n_days"] == len(days)
            assert entry["all"]["ci_bootstrap"] == [0.0, 0.0]

    def test_excluded_days_only_affect_filtered(self):
        params, policies, days = quiet_policies(6)
        rep = summarize(sweep(params, policies, days), excluded_days=[0, 3])
        assert rep["n_excluded"] == 2
        entry = rep["policies"]["fixed_level_1"]
        assert entry["all"]["n_days"] == 6
        assert entry["filtered"]["n_days"] == 4

    def test_failing_day_does_not_abort(self):
        # replay raises on a day the book rejects; the CLI records it as
        # an incomplete row, which summarize counts but does not average
        params, policies, days = quiet_policies(3)
        with pytest.raises(BookError):
            replayed(params, [ev(5, "add", "bid", 10000, 10, 1),
                              ev(4, "add", "ask", 10001, 10, 2)])
        failed = DayResult(1, *[np.nan] * 5, fills=0, incomplete=True)
        rep = summarize({pol.name: [run_day(params, pol, days[0], day_id=0),
                                    failed,
                                    run_day(params, pol, days[2], day_id=2)]
                         for pol in policies})
        assert rep["n_days"] == 3
        assert rep["policies"]["fixed_level_1"]["all"]["n_days"] == 2

    def test_single_day_count(self):
        params, policies, days = quiet_policies(1)
        rep = summarize(sweep(params, policies, days))
        block = rep["policies"]["optimal_martingale"]["all"]
        assert block["n_days"] == 1
        assert "ci_bootstrap" not in block


class TestReportSerialization:
    def test_csv_and_json(self, tmp_path):
        params, policies, days = quiet_policies(5)
        rep = summarize(sweep(params, policies, days))
        csv_path = tmp_path / "report.csv"
        json_path = tmp_path / "report.json"
        report_to_csv(rep, csv_path)
        report_to_json(rep, json_path)
        with open(csv_path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4  # 2 policies x (all, filtered)
        assert {r["policy"] for r in rows} == {"optimal_martingale",
                                               "fixed_level_1"}
        loaded = json.loads(json_path.read_text())
        assert loaded["n_days"] == 5


class TestSyntheticDays:
    def _days(self, cfg, n_days, seed0):
        out = []
        for d in range(n_days):
            events, truth = generate_day(cfg, seed=seed0 + d)
            out.append(replay(events, truth.params.grid,
                              tick_size=cfg.tick_size))
        return out, truth

    def test_liquidation_close_to_objective(self):
        cfg = SyntheticDayConfig(n_steps=400)
        replays, truth = self._days(cfg, 9, seed0=300)
        table = backward_pass(truth.params)
        policy = Policy.named("optimal_martingale", table)
        gaps = []
        for rep in replays:
            r = run_day(truth.params, policy, rep)
            gaps.append(abs(r.objective - r.liquidation_value)
                        / max(abs(r.objective), 1e-9))
        assert np.median(gaps) < 0.10

    def test_mean_objective_matches_solver_value(self):
        # lam=0 keeps the spread flat at 2.5 ticks, exactly on the grid:
        # rounding, clamping, and volume caps are all inactive, so the
        # realized mean objective is an unbiased estimate of the model value
        cfg = SyntheticDayConfig(n_steps=400, lam=0.0)
        replays, truth = self._days(cfg, 40, seed0=500)
        table = backward_pass(truth.params)
        policy = Policy.named("optimal_martingale", table)
        objs = np.array([run_day(truth.params, policy, rep).objective
                         for rep in replays])
        g0 = float(table.g[0])
        se = objs.std(ddof=1) / math.sqrt(len(objs))
        assert abs(objs.mean() - g0) < 4 * se
