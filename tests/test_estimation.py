from dataclasses import fields

import numpy as np
import pytest

from hfmm.estimation import (DayEstimates, compute_break_errors,
                             daily_moments, drift_forecast_series,
                             estimate_day, fit_arrival_curves,
                             nearest_rank_quantile, rolling_params,
                             structural_break_flags)
from hfmm import estimation
from hfmm.estimation import _fit_quadratic
from hfmm.lob import BookError, replay
from hfmm.model import TimeGrid, validate_params
from hfmm.synthetic import SyntheticDayConfig, generate_day

import estimation_oracle
from replay_oracle import BookState, mo, to_arrays

BOOK = BookState(bids=((99, 50),), asks=((101, 50),))


def linear_demand_flow(c_ask=100.0, p_ask=5.0, c_bid=80.0, p_bid=4.0,
                       depth=10):
    """Book and MOs whose measured fill at distance l is exactly
    c*(p - l)."""
    snapshot = BookState(
        bids=tuple((10000 - j, int(c_bid)) for j in range(depth)),
        asks=tuple((10001 + j, int(c_ask)) for j in range(depth)))
    mos = [
        mo("ask", int(c_ask * (p_ask - 0.5)),
           [(10001 + j, int(c_ask)) for j in range(depth)]),
        mo("bid", int(c_bid * (p_bid - 0.5)),
           [(10000 - j, int(c_bid)) for j in range(depth)]),
    ]
    return snapshot, mos


def estimate_demand_interval(snapshot, mos, S, **kwargs):
    """(c_plus, p_plus, c_minus, p_minus, (valid_plus, valid_minus)) of
    one interval's fit by estimate_day."""
    d = estimate_day(to_arrays([snapshot], [mos], mids=[S]), 0, **kwargs)
    return (d.c_plus[0], d.p_plus[0], d.c_minus[0], d.p_minus[0],
            (d.valid_plus[0], d.valid_minus[0]))


def indicators(flows):
    day = estimate_day(to_arrays([BOOK] * len(flows), flows), 0)
    return day.ind_plus, day.ind_minus


class TestArrivalIndicators:
    def test_sides_mapped_to_mo_direction(self):
        flows = [[mo("ask", 10, [(101, 50)])],
                 [],
                 [mo("bid", 10, [(99, 50)]), mo("ask", 5, [(101, 50)])]]
        ip, im = indicators(flows)
        assert ip.tolist() == [1, 0, 1]
        assert im.tolist() == [0, 0, 1]

    def test_multiple_mos_still_binary(self):
        flows = [[mo("ask", 10, [(101, 50)]), mo("ask", 20, [(101, 50)])]]
        ip, im = indicators(flows)
        assert ip.tolist() == [1] and im.tolist() == [0]


class TestFitArrivalCurves:
    def test_quadratic_series_recovered_exactly(self):
        k = np.arange(50, dtype=float)
        series = 0.1 + 0.004 * k - 0.00006 * k * k
        np.testing.assert_allclose(_fit_quadratic(series), series, atol=1e-10)

    def test_all_ones_clamps_to_unit_probability(self):
        ones = np.ones((3, 20))
        sched = fit_arrival_curves(ones, ones)
        np.testing.assert_allclose(sched.pi_plus, 1.0)
        np.testing.assert_allclose(sched.pi_joint, 1.0)

    def test_noisy_quadratic_curve_recovery(self):
        rng = np.random.default_rng(7)
        n, days = 100, 400
        k = np.arange(n, dtype=float)
        true_p = 0.35 - 0.004 * k + 0.00004 * k * k   # U-shaped
        true_m = 0.15 + 0.002 * k - 0.00002 * k * k
        ip = (rng.random((days, n)) < true_p).astype(float)
        im = (rng.random((days, n)) < true_m).astype(float)
        sched = fit_arrival_curves(ip, im)
        assert np.max(np.abs(sched.pi_plus - true_p)) < 0.02
        assert np.max(np.abs(sched.pi_minus - true_m)) < 0.02
        # independent marginals: joint close to the product curve
        assert np.max(np.abs(sched.pi_joint - true_p * true_m)) < 0.02

    def test_infeasible_joint_clamped_with_warning(self):
        ip = [[1, 1, 1, 1, 1, 1], [1, 0, 0, 0, 0, 1]]
        im = [[1, 0, 0, 0, 0, 1], [1, 1, 1, 1, 1, 1]]
        with pytest.warns(UserWarning, match="clamped"):
            sched = fit_arrival_curves(ip, im)
        lo = np.maximum(sched.pi_plus + sched.pi_minus - 1.0, 0.0)
        hi = np.minimum(sched.pi_plus, sched.pi_minus)
        assert np.all(sched.pi_joint >= lo - 1e-12)
        assert np.all(sched.pi_joint <= hi + 1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fit_arrival_curves(np.ones((2, 5)), np.ones((2, 6)))


class TestEstimateDemandInterval:
    def test_exact_linear_demand_recovered(self):
        snapshot, flow = linear_demand_flow()
        cp, pp, cm, pm, (vp, vm) = estimate_demand_interval(
            snapshot, flow, S=10000.5)
        assert vp and vm
        assert cp == pytest.approx(100.0, abs=1e-9)
        assert pp == pytest.approx(5.0, abs=1e-10)
        assert cm == pytest.approx(80.0, abs=1e-9)
        assert pm == pytest.approx(4.0, abs=1e-10)

    def test_missing_side_is_invalid(self):
        snapshot, flow = linear_demand_flow()
        ask_only = [m for m in flow if m.side == "ask"]
        cp, pp, cm, pm, (vp, vm) = estimate_demand_interval(
            snapshot, ask_only, S=10000.5)
        assert vp and not vm
        assert (cm, pm) == (0.0, 0.0)

    def test_single_positive_level_is_invalid(self):
        snapshot, _ = linear_demand_flow()
        tiny = [mo("ask", 10, [(10001 + j, 100) for j in range(10)])]
        _, _, _, _, (vp, vm) = estimate_demand_interval(
            snapshot, tiny, S=10000.5)
        assert not vp and not vm

    def test_noisy_levels_fit_between_extremes(self):
        # jittered ladder sizes: the fit lands near, not on, the base curve
        rng = np.random.default_rng(3)
        sizes = (100 + rng.integers(-15, 15, size=10)).tolist()
        snapshot = BookState(
            bids=((9999, 10),),
            asks=tuple((10001 + j, sizes[j]) for j in range(10)))
        flow = [mo("ask", 450, [(10001 + j, sizes[j]) for j in range(10)])]
        cp, pp, _, _, (vp, _) = estimate_demand_interval(
            snapshot, flow, S=10000.5)
        assert vp
        assert 70 < cp < 130
        assert 4 < pp < 6


def assert_same_as_oracle(rep, **kwargs):
    """estimate_day against the per-interval regression it replaced."""
    got = estimate_day(rep, 0, **kwargs)
    want = estimation_oracle.estimate_day(rep, 0, **kwargs)
    for name in ("ind_plus", "ind_minus", "valid_plus", "valid_minus"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    for name in ("c_plus", "p_plus", "c_minus", "p_minus"):
        np.testing.assert_allclose(getattr(got, name), getattr(want, name),
                                   rtol=1e-12, atol=0, err_msg=name)
    return got


class TestEstimateDayMatchesOracle:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("depth", [2, 4, 12])
    @pytest.mark.parametrize("tick", [1.0, 0.5, 0.01])
    def test_synthetic_days(self, tick, depth, seed):
        cfg = SyntheticDayConfig(n_steps=300, tick_size=tick, depth=depth)
        events, truth = generate_day(cfg, seed=seed)
        rep = replay(events, truth.params.grid, tick_size=tick)
        for level_depth in (2, 3, 10, 25):
            got = assert_same_as_oracle(rep, level_depth=level_depth,
                                        tick_size=tick)
            assert got.valid_plus.any() or level_depth == 2 or depth == 2

    def test_empty_side_in_the_snapshot(self):
        snapshot, mos = linear_demand_flow()
        one_sided = BookState(bids=(), asks=snapshot.asks)
        got = assert_same_as_oracle(to_arrays([one_sided], [mos],
                                              mids=[10000.5]))
        assert got.valid_plus.tolist() == [True]
        assert got.valid_minus.tolist() == [False]

    def test_mo_within_the_better_priced_volume(self):
        snapshot, mos = linear_demand_flow()
        # 60 and 100 shares against 100 at the touch: no fill behind it
        small = [mo("ask", 60, [(10001 + j, 100) for j in range(10)]),
                 mo("bid", 100, [(10000 - j, 80) for j in range(10)])]
        for flow in (small, small + mos):
            assert_same_as_oracle(to_arrays([snapshot], [flow],
                                            mids=[10000.5]))

    def test_mo_against_an_empty_consumed_side(self):
        snapshot, mos = linear_demand_flow()
        empty = [mo("ask", 40, []), mo("bid", 30, [])]
        # beside an MO with a slope, it adds the same fill at every level
        for flow in (empty + mos, mos + empty[:1]):
            assert_same_as_oracle(to_arrays([snapshot, snapshot],
                                            [flow, mos], mids=[10000.5] * 2))
        # alone, its fill profile is flat: c = 0, so the side is invalid;
        # the per-interval fit left that to the sign of a rounding error
        rep = to_arrays([snapshot], [empty], mids=[10000.5])
        for level_depth in (2, 3, 10, 25):
            got = estimate_day(rep, 0, level_depth=level_depth)
            assert not got.valid_plus[0] and not got.valid_minus[0]
            want = estimation_oracle.estimate_day(rep, 0,
                                                  level_depth=level_depth)
            assert max(want.c_plus[0], want.c_minus[0]) < 1e-14


class TestEstimateDayOnOneLevel:
    """``estimate`` replays with K=1: estimate_day reads the touch, whether
    each side is non-empty, the mid and the MOs' ladders, and no level
    below the touch."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("depth", [2, 12])
    @pytest.mark.parametrize("tick", [1.0, 0.5, 0.01])
    def test_synthetic_days(self, tick, depth, seed):
        cfg = SyntheticDayConfig(n_steps=300, tick_size=tick, depth=depth)
        events, truth = generate_day(cfg, seed=seed)
        grid = truth.params.grid
        full = replay(events, grid, tick_size=tick)
        top = replay(events, grid, K=1, tick_size=tick)
        assert top.book_prices.shape[2] == 1
        for level_depth in (2, 10, 25):
            want = estimate_day(full, seed, level_depth=level_depth,
                                tick_size=tick)
            got = estimate_day(top, seed, level_depth=level_depth,
                               tick_size=tick)
            for f in fields(DayEstimates):
                assert np.array_equal(getattr(got, f.name),
                                      getattr(want, f.name)), f.name

    @pytest.mark.parametrize("fault", ["one_sided", "bad_size"])
    def test_failed_day_raises_the_same_error(self, fault):
        cfg = SyntheticDayConfig(n_steps=50, depth=4)
        events, truth = generate_day(cfg, seed=1)
        if fault == "one_sided":
            # step 20's bid ladder never stands: no bids at t_20
            ladder = 2 * cfg.depth
            bid_refs = 1 + ladder * 20 + np.arange(1, ladder, 2)
            events = events[~np.isin(events["order_ref"], bid_refs)]
            want = ("one-sided book", None)
        else:
            bad = len(events) // 2
            events = events.copy()
            events["size"][bad] = 0
            want = (f"event {bad}: size and price must be positive", bad)
        for one_level in ({"K": 1}, {}):
            with pytest.raises(BookError) as err:
                replay(events, truth.params.grid, **one_level)
            assert (str(err.value), err.value.event_index) == want


class TestDailyMoments:
    def _day(self, c_p, p_p, v_p, c_m=None, p_m=None, v_m=None):
        n = len(c_p)
        return DayEstimates(
            day_id=0,
            ind_plus=np.ones(n, dtype=np.int8),
            ind_minus=np.ones(n, dtype=np.int8),
            c_plus=np.asarray(c_p, float), p_plus=np.asarray(p_p, float),
            valid_plus=np.asarray(v_p, bool),
            c_minus=np.asarray(c_m if c_m is not None else c_p, float),
            p_minus=np.asarray(p_m if p_m is not None else p_p, float),
            valid_minus=np.asarray(v_m if v_m is not None else v_p, bool))

    def test_point_mass(self):
        day = self._day([100, 100, 0], [5, 5, 0], [True, True, False])
        m = daily_moments(day)
        assert m.plus.mu_c == 100.0
        assert m.plus.mu_cp == 500.0
        assert m.plus.mu_c2p == 5e4
        assert m.plus.mu_c2p2 == 2.5e5
        assert m.plus.mu_p2 == 25.0

    def test_two_interval_average(self):
        day = self._day([80, 120], [4, 6], [True, True])
        m = daily_moments(day)
        assert m.plus.mu_cp == pytest.approx((320 + 720) / 2)
        assert m.plus.mu_c2 == pytest.approx((6400 + 14400) / 2)

    def test_no_valid_side_raises(self):
        day = self._day([100], [5], [True], v_m=[False])
        with pytest.raises(ValueError, match="insufficient data"):
            daily_moments(day)


class TestRollingParams:
    def _store(self, rng, n_days=3, n=40):
        store = []
        for d in range(n_days):
            c = rng.choice([80.0, 120.0], size=n)
            p = rng.choice([4.0, 6.0], size=n)
            v = rng.random(n) < 0.5
            v[:2] = True
            store.append(DayEstimates(
                day_id=d,
                ind_plus=(rng.random(n) < 0.2).astype(np.int8),
                ind_minus=(rng.random(n) < 0.2).astype(np.int8),
                c_plus=c, p_plus=p, valid_plus=v,
                c_minus=c[::-1].copy(), p_minus=p[::-1].copy(),
                valid_minus=v[::-1].copy()))
        return store

    def test_window_one_passes_through_daily_moments(self):
        rng = np.random.default_rng(11)
        store = self._store(rng)
        params = rolling_params(1, store, window=1, lam=0.001,
                                session_start_ns=10 ** 9)
        daily = daily_moments(store[0])
        assert params.moments.plus.mu_cp == pytest.approx(daily.plus.mu_cp)
        assert params.moments.minus.mu_c2p2 == pytest.approx(
            daily.minus.mu_c2p2)
        assert params.lam == 0.001
        assert params.grid.session_start_ns == 10 ** 9
        assert params.grid.n_steps == 40

    def test_window_average_over_days(self):
        rng = np.random.default_rng(12)
        store = self._store(rng, n_days=3)
        params = rolling_params(2, store, window=2)
        d0 = daily_moments(store[0])
        d1 = daily_moments(store[1])
        assert params.moments.plus.mu_c == pytest.approx(
            (d0.plus.mu_c + d1.plus.mu_c) / 2)

    @pytest.mark.filterwarnings("ignore:joint arrival curve clamped")
    def test_each_days_moments_computed_once(self, monkeypatch):
        store = self._store(np.random.default_rng(15), n_days=6)
        side_moments, calls = estimation._side_daily_moments, []

        def counted(*args):
            calls.append(args)
            return side_moments(*args)

        monkeypatch.setattr(estimation, "_side_daily_moments", counted)
        for i in range(2, 6):
            rolling_params(i, store, window=2)
        assert len(calls) == 2 * 5  # two sides of days 0-4, once each

    def test_no_valid_side_fails_every_window(self):
        rng = np.random.default_rng(16)
        store = self._store(rng, n_days=4)
        store[1].valid_minus[:] = False
        for i in (2, 3):
            with pytest.raises(ValueError, match="no valid intervals"):
                rolling_params(i, store, window=2)
        rolling_params(4, store, window=2)  # days 2-3 have valid sides

    def test_insufficient_history_raises(self):
        rng = np.random.default_rng(13)
        store = self._store(rng)
        with pytest.raises(ValueError):
            rolling_params(1, store, window=2)

    def test_output_validates(self):
        rng = np.random.default_rng(14)
        store = self._store(rng, n_days=5, n=60)
        params = rolling_params(4, store, window=4)
        assert not validate_params(params)


def last_forecast(m):
    """The drift forecast after the last midprice of ``m``."""
    return drift_forecast_series(m)[-1]


class TestDriftForecast:
    def test_linear_trend(self):
        m = 10000.5 + 0.01 * np.arange(30)
        assert last_forecast(m) == pytest.approx(0.01)

    def test_constant_series_and_warmup(self):
        assert last_forecast(np.full(30, 10000.5)) == 0.0
        assert last_forecast(np.full(5, 10000.5)) == 0.0

    def test_translation_invariance(self):
        rng = np.random.default_rng(5)
        m = 10000.5 + np.cumsum(rng.normal(size=50))
        assert last_forecast(m + 123.0) == pytest.approx(last_forecast(m))

    def test_series_matches_scalar(self):
        # step k's forecast uses the midprices up to k and no later one
        rng = np.random.default_rng(6)
        m = 10000.5 + np.cumsum(rng.normal(size=40))
        out = drift_forecast_series(m)
        np.testing.assert_array_equal(out[:5], 0.0)
        for k in range(5, 40):
            assert out[k] == pytest.approx(last_forecast(m[:k + 1]))
            assert out[k] == pytest.approx((m[k] - m[k - 5]) / 5)


class TestNearestRankQuantile:
    def test_examples(self):
        assert nearest_rank_quantile(np.arange(1, 101), 0.95) == 95.0
        assert nearest_rank_quantile([1.0, 2.0, 3.0], 0.5) == 2.0
        assert nearest_rank_quantile([7.0], 0.95) == 7.0
        assert nearest_rank_quantile([3.0, 1.0], 1.0) == 3.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            nearest_rank_quantile([], 0.5)


class TestStructuralBreakFlags:
    def test_iid_flag_rate(self):
        rng = np.random.default_rng(21)
        n = 500
        flagged = structural_break_flags(list(range(n)), rng.normal(size=n),
                                         rng.normal(size=n),
                                         rng.normal(size=n))
        frac = len(flagged) / n
        # union of three ~5% exceedance screens
        assert 0.08 < frac < 0.22

    def test_injected_outlier_flagged(self):
        rng = np.random.default_rng(22)
        n = 100
        ep = rng.normal(size=n)
        ep[40] = 10 * np.max(np.abs(ep))
        flagged = structural_break_flags(list(range(n)), ep,
                                         rng.normal(size=n),
                                         rng.normal(size=n))
        assert 40 in flagged

    def test_identical_errors_flag_nothing(self):
        n = 50
        z = np.zeros(n)
        assert structural_break_flags(list(range(n)), z, z, z) == []

    def test_pi11_uses_absolute_errors(self):
        rng = np.random.default_rng(23)
        n = 100
        z = np.zeros(n)
        ej = rng.normal(size=n) * 0.01
        ej[10] = -5.0   # large negative deviation must still flag
        assert 10 in structural_break_flags(list(range(n)), z, z, ej)


class TestComputeBreakErrors:
    def test_window_arithmetic(self):
        def day(i, cp):
            n = 4
            return DayEstimates(
                day_id=i,
                ind_plus=np.array([1, 0, 1, 0], dtype=np.int8),
                ind_minus=np.array([1, 1, 0, 0], dtype=np.int8),
                c_plus=np.full(n, cp), p_plus=np.ones(n),
                valid_plus=np.ones(n, bool),
                c_minus=np.full(n, 50.0), p_minus=np.ones(n),
                valid_minus=np.ones(n, bool))

        store = [day(0, 100.0), day(1, 110.0), day(2, 90.0)]
        ids, ep, em, ej = compute_break_errors(store, window=2)
        assert ids == [2]
        assert ep[0] == pytest.approx((100 + 110) / 2 - 90)
        assert em[0] == pytest.approx(0.0)
        assert ej[0] == pytest.approx(0.0)


class TestSyntheticRecovery:
    def test_exact_per_interval_recovery(self):
        cfg = SyntheticDayConfig(n_steps=300)
        events, truth = generate_day(cfg, seed=42)
        rep = replay(events, truth.params.grid, tick_size=cfg.tick_size)
        day = estimate_day(rep, day_id=0, tick_size=cfg.tick_size)
        assert day.ind_plus.tolist() == truth.ind_plus.tolist()
        assert day.ind_minus.tolist() == truth.ind_minus.tolist()
        sel = day.valid_plus
        assert sel.sum() > 20
        np.testing.assert_allclose(day.c_plus[sel], truth.c_plus[sel],
                                   atol=1e-8)
        np.testing.assert_allclose(day.p_plus[sel], truth.p_plus[sel],
                                   atol=1e-10)
        selm = day.valid_minus
        np.testing.assert_allclose(day.c_minus[selm], truth.c_minus[selm],
                                   atol=1e-8)
        np.testing.assert_allclose(day.p_minus[selm], truth.p_minus[selm],
                                   atol=1e-10)
        np.testing.assert_allclose(rep.midprices, truth.mid_ticks + 0.5)

    def test_generator_determinism(self):
        cfg = SyntheticDayConfig(n_steps=100)
        a, _ = generate_day(cfg, seed=9)
        b, _ = generate_day(cfg, seed=9)
        assert a.tobytes() == b.tobytes()
        c, _ = generate_day(cfg, seed=10)
        assert a.tobytes() != c.tobytes()

    def test_rolling_recovery_close_to_truth(self):
        cfg = SyntheticDayConfig(n_steps=400)
        store = []
        for d in range(4):
            events, truth = generate_day(cfg, seed=100 + d)
            rep = replay(events, truth.params.grid, tick_size=cfg.tick_size)
            store.append(estimate_day(rep, day_id=d,
                                      tick_size=cfg.tick_size))
        params = rolling_params(4, store, window=4, lam=cfg.lam,
                                session_start_ns=10 ** 9)
        true = truth.params.moments.plus
        assert params.moments.plus.mu_c == pytest.approx(true.mu_c, rel=0.05)
        assert params.moments.plus.mu_cp == pytest.approx(true.mu_cp,
                                                          rel=0.07)
        assert abs(np.mean(params.arrivals.pi_plus) - cfg.pi_plus) < 0.05
        assert abs(np.mean(params.arrivals.pi_joint) - cfg.pi_joint) < 0.04
        assert not validate_params(params)
