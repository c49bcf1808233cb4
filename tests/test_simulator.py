import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfmm import simulator
from hfmm.backtest import Policy
from hfmm.model import (ArrivalSchedule, DemandMoments, MarketParams,
                        TimeGrid, arrival_indicators)
from hfmm.simulator import (DemandDistribution, PriceModel, SimMarket,
                            TwoPointIndependent, _path_draws,
                            _path_state_words, monte_carlo_value,
                            monte_carlo_values, run_episode)
from hfmm.solver import backward_pass, optimal_spreads
from hfmm.synthetic import SyntheticDayConfig, true_market_params

import mc_oracle
from conftest import FixedSpreadPolicy, PerturbedPolicy, symmetric_params
from demand_families import (GaussianCopulaLognormal, LognormalIndependent,
                             PointMass, atoms, side_moments)
from forecast_oracle import ForecastVector, forecast_shift
from sim_oracle import brute_force_value_small, one_step_objective


def point_market(p, c=100.0, pv=5.0, **price_kwargs):
    return SimMarket(
        params=p,
        demand=DemandDistribution(plus=PointMass(c, pv),
                                  minus=PointMass(c, pv)),
        price=PriceModel(S0=100.0, **price_kwargs))


def sure_arrivals_market(pi_plus, pi_minus, c=100.0, pv=5.0):
    """Point-mass demand with each step's arrivals certain (1) or absent
    (0) and no joint arrivals, so every draw gives the same path."""
    n = len(pi_plus)
    base = symmetric_params(c, pv, 0.5, 0.0, 0.0, n)
    p = MarketParams(grid=base.grid,
                     arrivals=ArrivalSchedule(pi_plus=pi_plus,
                                              pi_minus=pi_minus,
                                              pi_joint=np.zeros(n)),
                     moments=base.moments, lam=0.0)
    return point_market(p, c=c, pv=pv)


class TestSampleArrivals:
    def test_degenerate_always_joint(self):
        ip, im = arrival_indicators(1.0, 1.0, 1.0,
                                    np.array([0.0, 0.3, 0.999]))
        assert ip.all() and im.all()

    def test_comonotone_boundary(self):
        ip, im = arrival_indicators(0.4, 0.4, 0.4,
                                    np.linspace(0.001, 0.999, 37))
        np.testing.assert_array_equal(ip, im)

    def test_joint_frequencies(self):
        rng = np.random.default_rng(0)
        n = 200_000
        ip, im = arrival_indicators(0.2, 0.2, 0.04, rng.random(n))
        probs = {(1, 1): 0.04, (1, 0): 0.16, (0, 1): 0.16, (0, 0): 0.64}
        for (want_p, want_m), prob in probs.items():
            freq = np.mean((ip == want_p) & (im == want_m))
            se = np.sqrt(prob * (1 - prob) / n)
            assert abs(freq - prob) < 3 * se


NAN = float("nan")


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


def around(*points):
    """Each point, its float neighbours, and 0, 1 and NaN."""
    out = [0.0, 1.0, NAN]
    for x in points:
        out += [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]
    return np.array(out, dtype=float)


unit_floats = st.floats(0.0, 1.0)
any_floats = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, NAN]))


class TestBranchFreeSelects:
    """The step loop's take-based two-point draw and one-compare buy
    indicator against the ``np.where`` and interval forms kept in
    ``mc_oracle``, bit for bit."""

    @staticmethod
    def assert_sample_as_oracle(dist, u_c, u_p):
        got = dist.sample(u_c, u_p)
        want = mc_oracle.two_point_sample(dist, u_c, u_p)
        assert all(same_bits(g, w) for g, w in zip(got, want))

    @staticmethod
    def assert_arrivals_as_oracle(pp, pm, pj, u):
        got = arrival_indicators(pp, pm, pj, u)
        want = mc_oracle._arrivals_vec(pp, pm, pj, u)
        assert all(same_bits(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("c_prob,p_prob", [
        (0.5, 0.5), (0.3, 0.7), (0.0, 1.0), (1.0, 0.0), (0.0, 0.0),
        (1.0, 1.0)])
    @pytest.mark.parametrize("c_values,p_values", [
        ((80, 120), (4.0, 6.0)),    # distinct atoms
        ((100, 100), (5.0, 5.0)),   # equal atoms
        ((0, 120), (-3.0, 1e-12)),  # floored atoms
        ((120.0, -0.0), (6.0, 4.0))])
    def test_sample_at_thresholds(self, c_prob, p_prob, c_values,
                                  p_values):
        dist = TwoPointIndependent(c_values, p_values, c_prob_low=c_prob,
                                   p_prob_low=p_prob)
        self.assert_sample_as_oracle(dist, around(c_prob, p_prob),
                                     around(p_prob, c_prob))

    @settings(max_examples=200, deadline=None)
    @given(atoms=st.lists(any_floats, min_size=4, max_size=4),
           c_prob=unit_floats, p_prob=unit_floats,
           u=st.lists(unit_floats, min_size=1, max_size=50))
    def test_sample_random(self, atoms, c_prob, p_prob, u):
        dist = TwoPointIndependent(tuple(atoms[:2]), tuple(atoms[2:]),
                                   c_prob_low=c_prob, p_prob_low=p_prob)
        u = np.array(u)
        self.assert_sample_as_oracle(dist, u, u[::-1].copy())

    # pi_joint = 0, = pi_plus, = pi_minus, > pi_plus and NaN; NaN pi_plus
    # and pi_minus too
    @pytest.mark.parametrize("pp,pm,pj", [
        (0.3, 0.3, 0.0), (0.3, 0.4, 0.3), (0.3, 0.2, 0.2), (0.2, 0.3, 0.2),
        (0.2, 0.3, 0.25), (0.3, 0.3, 0.05), (0.0, 0.0, 0.0),
        (1.0, 1.0, 1.0), (0.3, 0.3, NAN), (NAN, 0.3, 0.05),
        (0.3, NAN, 0.05), (NAN, NAN, NAN)])
    def test_arrivals_at_thresholds(self, pp, pm, pj):
        self.assert_arrivals_as_oracle(pp, pm, pj,
                                       around(pj, pp, pp + pm - pj))

    @settings(max_examples=300, deadline=None)
    @given(pp=any_floats, pm=any_floats, pj=any_floats,
           u=st.lists(st.one_of(unit_floats, st.just(NAN)), min_size=1,
                      max_size=50))
    def test_arrivals_random(self, pp, pm, pj, u):
        self.assert_arrivals_as_oracle(pp, pm, pj, np.array(u))

    @pytest.mark.parametrize("pi_joint", [0.0, 0.05])
    def test_benchmark_shape_steps_as_oracle(self, pi_joint):
        """``simulate``'s two-point market over 200 steps and one chunk of
        3,495 paths, the draw budget's width there: every step's state,
        quotes, fills and indicators equal the oracle's step loop."""
        n = 200
        p = true_market_params(SyntheticDayConfig(n_steps=n,
                                                  pi_joint=pi_joint))
        side = {name: TwoPointIndependent.from_mean_var(
                    m.mu_c, m.mu_c2 - m.mu_c ** 2, m.mu_p,
                    m.mu_p2 - m.mu_p ** 2)
                for name, m in (("plus", p.moments.plus),
                                ("minus", p.moments.minus))}
        market = SimMarket(params=p, demand=DemandDistribution(**side),
                           price=PriceModel(S0=100.0))
        width = simulator._CHUNK_CELLS // (6 * n)
        assert width == 3495
        u = np.random.default_rng(8).random((n, 5, width))
        pol = Policy.named("optimal_martingale", backward_pass(p))
        steps = zip(simulator._steps(pol, market, u, None),
                    mc_oracle._steps(pol, market, u.transpose(2, 0, 1),
                                     np.zeros((width, n))))
        for k, ((S, W, I, step), (S_r, W_r, I_r, step_r)) in enumerate(
                steps):
            for got, want in zip((S, W, I, *step), (S_r, W_r, I_r, *step_r)):
                assert same_bits(got, want), k
        assert k == n - 1


class TestStepDynamics:
    def test_no_arrivals(self):
        # a buy fill at step 0 leaves cash and inventory that a step with
        # no arrivals carries over unchanged
        market = sure_arrivals_market([1.0, 0.0], [0.0, 0.0])
        ep = run_episode(FixedSpreadPolicy(2.5, 2.5), market, 0)
        assert (ep.Q_plus[1], ep.Q_minus[1]) == (0.0, 0.0)
        assert (ep.W[2], ep.I[2]) == (ep.W[1], ep.I[1])
        assert ep.I[1] == -250.0
        assert len(ep.W) == 3

    def test_buy_side_fill(self):
        market = sure_arrivals_market([1.0], [0.0])
        ep = run_episode(FixedSpreadPolicy(2.5, 2.5), market, 0)
        assert ep.Q_plus[0] == 250.0
        assert ep.W[1] == pytest.approx(250 * 102.5)
        assert ep.I[1] == -250.0

    def test_boundary_reservation_price(self):
        market = sure_arrivals_market([0.0], [1.0])
        ep = run_episode(FixedSpreadPolicy(2.5, 5.0), market, 0)
        assert ep.Q_minus[0] == 0.0
        assert ep.W[1] == 0.0
        assert ep.I[1] == 0.0

    def test_negative_fill_untruncated(self):
        market = sure_arrivals_market([1.0], [0.0])
        ep = run_episode(FixedSpreadPolicy(6.0, 2.5), market, 0)
        assert ep.Q_plus[0] == pytest.approx(-100.0)  # Q+ = 100*(5-6)
        assert ep.I[1] == pytest.approx(100.0)


class TestRunEpisode:
    def test_zero_demand_zero_objective(self):
        p = symmetric_params(100, 5, 0.2, 0.0, 0.0005, 10)
        market = SimMarket(
            params=p,
            demand=DemandDistribution(plus=PointMass(1e-9, 5.0),
                                      minus=PointMass(1e-9, 5.0)),
            price=PriceModel(S0=100.0))
        ep = run_episode(FixedSpreadPolicy(2.5, 2.5), market, 0)
        assert ep.terminal_objective == pytest.approx(0.0, abs=1e-5)

    def test_one_step_hand_case(self):
        p = symmetric_params(1, 4, 1.0, 1.0, 0.0, 1)
        market = point_market(p, c=1.0, pv=4.0)
        ep = run_episode(FixedSpreadPolicy(2.0, 2.0), market, 0)
        assert ep.Q_plus[0] == pytest.approx(2.0)
        assert ep.Q_minus[0] == pytest.approx(2.0)
        assert ep.terminal_objective == pytest.approx(8.0)

    def test_determinism(self):
        p = symmetric_params(100, 5, 0.2, 0.05, 0.0005, 20)
        t = backward_pass(p)
        market = SimMarket(
            params=p,
            demand=DemandDistribution(
                plus=TwoPointIndependent((80, 120), (4, 6)),
                minus=TwoPointIndependent((80, 120), (4, 6))),
            price=PriceModel(S0=100.0, vol=0.01))
        e1 = run_episode(Policy.named("optimal_martingale", t), market, 42)
        e2 = run_episode(Policy.named("optimal_martingale", t), market, 42)
        np.testing.assert_array_equal(e1.W, e2.W)
        np.testing.assert_array_equal(e1.S, e2.S)

    def test_cash_and_inventory_conservation(self):
        p = symmetric_params(100, 5, 0.3, 0.1, 0.001, 50)
        t = backward_pass(p)
        market = SimMarket(
            params=p,
            demand=DemandDistribution(
                plus=TwoPointIndependent((80, 120), (4, 6)),
                minus=TwoPointIndependent((80, 120), (4, 6))),
            price=PriceModel(S0=100.0, vol=0.02))
        ep = run_episode(Policy.named("optimal_martingale", t), market, 9)
        asks = ep.S[:-1] + ep.L_plus
        bids = ep.S[:-1] - ep.L_minus
        W_T = np.sum(asks * ep.Q_plus - bids * ep.Q_minus)
        I_T = np.sum(ep.Q_minus - ep.Q_plus)
        assert ep.W[-1] == pytest.approx(W_T, rel=1e-12, abs=1e-9)
        assert ep.I[-1] == pytest.approx(I_T, rel=1e-12, abs=1e-9)

    @pytest.mark.parametrize("minus", [
        TwoPointIndependent((80, 120), (4, 6)),
        LognormalIndependent.from_moments(100.0, 10400.0, 5.0, 26.0),
    ])
    def test_equals_monte_carlo_path(self, monkeypatch, minus):
        # run_episode is the Monte-Carlo step loop on one path: with path
        # i's seed it reproduces path i of a chunked run bit for bit
        p = symmetric_params(100, 5, 0.3, 0.1, 0.001, 40)
        market = SimMarket(
            params=p,
            demand=DemandDistribution(
                plus=TwoPointIndependent((80, 120), (4, 6)), minus=minus),
            price=PriceModel(S0=100.0, drift=0.01, vol=0.05))
        set_chunk_width(monkeypatch, market, 64)
        pol = Policy.named("optimal_martingale", backward_pass(p))
        n_paths, seed = 150, 31
        _, (objectives,) = monte_carlo_values([pol], market, n_paths, seed)
        children = np.random.SeedSequence(seed).spawn(n_paths)
        for i, child in enumerate(children):
            ep = run_episode(pol, market, child)
            assert ep.terminal_objective == objectives[i]


class TestSamplerMoments:
    @pytest.mark.parametrize("dist", [
        TwoPointIndependent((80, 120), (4, 6)),
        TwoPointIndependent((50, 150), (3, 7), c_prob_low=0.3,
                            p_prob_low=0.7),
        LognormalIndependent.from_moments(100.0, 10400.0, 5.0, 26.0),
        GaussianCopulaLognormal.from_moments(100.0, 10400.0, 5.0, 26.0,
                                             512.0),
    ])
    def test_empirical_moments_converge(self, dist):
        rng = np.random.default_rng(17)
        n = 1_000_000
        c, p = dist.sample(rng.random(n), rng.random(n))
        m = side_moments(dist)
        checks = [
            (c, m.mu_c), (c ** 2, m.mu_c2), (c * p, m.mu_cp),
            (c ** 2 * p, m.mu_c2p), (c ** 2 * p ** 2, m.mu_c2p2),
        ]
        for sample, target in checks:
            se = np.std(sample) / np.sqrt(n)
            assert abs(np.mean(sample) - target) < 3.5 * se

    def test_floored_atoms_sample_as_before(self):
        # the reference floors every sample, as the sampler did before it
        # floored its atoms once; 0 and -3 fall below _SAMPLE_FLOOR, 1e-12
        # too, and int atoms still sample as floats
        dist = TwoPointIndependent((0, 120), (-3.0, 1e-12), c_prob_low=0.3,
                                   p_prob_low=0.6)
        rng = np.random.default_rng(5)
        u_c, u_p = rng.random(1000), rng.random(1000)
        c, p = dist.sample(u_c, u_p)
        floor = simulator._SAMPLE_FLOOR
        c_ref = np.maximum(np.where(u_c < 0.3, 0, 120), floor)
        p_ref = np.maximum(np.where(u_p < 0.6, -3.0, 1e-12), floor)
        assert c.dtype == p.dtype == np.float64
        assert np.array_equal(c, c_ref) and np.array_equal(p, p_ref)
        assert set(c.tolist()) == {floor, 120.0}
        assert set(p.tolist()) == {floor}
        assert atoms(dist) == [(floor, floor, 0.3 * 0.6),
                                (floor, floor, 0.3 * (1 - 0.6)),
                                (120.0, floor, (1 - 0.3) * 0.6),
                                (120.0, floor, (1 - 0.3) * (1 - 0.6))]

    @pytest.mark.parametrize("field", ["c_prob_low", "p_prob_low"])
    @pytest.mark.parametrize("prob", [1.5, -0.5, NAN, float("inf")])
    def test_probability_outside_unit_interval_rejected(self, field, prob):
        # c_prob_low=1.5 gave mu_c = 60 from weights 1.5 and -0.5
        with pytest.raises(ValueError, match=field):
            TwoPointIndependent((80, 120), (4, 6), **{field: prob})

    @pytest.mark.parametrize("c_values,p_values,field", [
        ((80,), (4, 6, 7), "c_values"), ((80, 100, 120), (4, 6), "c_values"),
        ((80, 120), (4,), "p_values"), ((80, 120), (), "p_values")])
    def test_atom_count_other_than_two_rejected(self, c_values, p_values,
                                                field):
        # (80,), (4, 6, 7) gave mu_c = 42 from c atoms 80 and 4
        with pytest.raises(ValueError, match=field):
            TwoPointIndependent(c_values, p_values)

    @pytest.mark.parametrize("prob", [0, 0.0, 1, 1.0])
    def test_probability_at_unit_interval_ends_accepted(self, prob):
        dist = TwoPointIndependent((80, 120), (4, 6), c_prob_low=prob,
                                   p_prob_low=prob)
        assert side_moments(dist).mu_c == (80.0 if prob else 120.0)

    def test_copula_hits_target_cross_moment(self):
        d = GaussianCopulaLognormal.from_moments(100.0, 10400.0, 5.0, 26.0,
                                                 508.0)
        assert side_moments(d).mu_cp == pytest.approx(508.0, rel=1e-6)


class TestMonteCarlo:
    def _market(self, n_steps=30):
        p = symmetric_params(100, 5, 0.2, 0.05, 0.0005, n_steps)
        demand = DemandDistribution(
            plus=TwoPointIndependent((80, 120), (4, 6)),
            minus=TwoPointIndependent((80, 120), (4, 6)))
        return p, SimMarket(params=p, demand=demand,
                            price=PriceModel(S0=100.0))

    def test_matches_g0(self):
        p, market = self._market()
        # match the solver table to the sampler's exact implied moments
        side = side_moments(market.demand.plus)
        p = MarketParams(grid=p.grid, arrivals=p.arrivals,
                         moments=DemandMoments(plus=side, minus=side),
                         lam=p.lam)
        t = backward_pass(p)
        mean, se = monte_carlo_value(Policy.named("optimal_martingale", t),
                                     market, 20000, 1)
        assert abs(mean - t.g[0]) < 4 * se

    def test_determinism(self):
        p, market = self._market()
        t = backward_pass(MarketParams(
            grid=p.grid, arrivals=p.arrivals,
            moments=DemandMoments(plus=side_moments(market.demand.plus),
                                  minus=side_moments(market.demand.minus)),
            lam=p.lam))
        pol = Policy.named("optimal_martingale", t)
        assert monte_carlo_value(pol, market, 4000, 5) == \
            monte_carlo_value(pol, market, 4000, 5)

    @pytest.mark.parametrize("n_paths", [0, -1])
    def test_no_paths_rejected(self, n_paths):
        p, market = self._market()
        pol = FixedSpreadPolicy(2.0, 3.0)
        with pytest.raises(ValueError, match="n_paths"):
            monte_carlo_values([pol], market, n_paths, 1)
        with pytest.raises(ValueError, match="n_paths"):
            monte_carlo_value(pol, market, n_paths, 1)

    def test_forecast_policy_rejected(self):
        # the step loop quotes with no forecast shift, so a forecast policy
        # would silently run as the martingale rule
        p, market = self._market()
        pol = Policy.named("optimal_forecast", backward_pass(p))
        with pytest.raises(ValueError, match="'optimal_forecast'"):
            monte_carlo_values([Policy.named("optimal_martingale",
                                             pol.table), pol], market, 10, 1)
        with pytest.raises(ValueError, match="'optimal_forecast'"):
            run_episode(pol, market, 1)

    def test_perturbations_do_not_improve(self):
        p, market = self._market()
        side = side_moments(market.demand.plus)
        t = backward_pass(MarketParams(
            grid=p.grid, arrivals=p.arrivals,
            moments=DemandMoments(plus=side, minus=side), lam=p.lam))
        base = Policy.named("optimal_martingale", t)
        policies = [base] + [PerturbedPolicy(base, e)
                             for e in (-0.5, -0.1, 0.1, 0.5)]
        stats, objs = monte_carlo_values(policies, market, 40000, 3)
        opt = objs[0]
        for i in range(1, len(policies)):
            diff = opt - objs[i]
            se = np.std(diff, ddof=1) / np.sqrt(len(diff))
            assert np.mean(diff) > 3 * se


class ChunkRecorder:
    """A policy that records the width of each chunk it quotes for."""

    def __init__(self, policy):
        self.policy, self.widths = policy, []

    def spreads(self, k, S, I):
        if k == 0:
            self.widths.append(len(I))
        return self.policy.spreads(k, S, I)


def spawned_words(seed, n_paths):
    return np.array([child.generate_state(4, np.uint64) for child in
                     np.random.SeedSequence(seed).spawn(n_paths)])


def set_chunk_width(monkeypatch, market, width):
    """Size the draw budget so that ``market``'s chunks are ``width`` paths
    wide, or as many as a run has."""
    cells = 6 * market.params.grid.n_steps * width
    monkeypatch.setattr(simulator, "_CHUNK_CELLS", cells)
    monkeypatch.setattr(simulator, "_MIN_CHUNK_PATHS", 1)


def two_point_market(n_steps=12, pi_joint=0.05, **price_kwargs):
    p = symmetric_params(100, 5, 0.3, pi_joint, 0.001, n_steps)
    return SimMarket(
        params=p,
        demand=DemandDistribution(
            plus=TwoPointIndependent((80, 120), (4, 6)),
            minus=TwoPointIndependent((60, 140), (3, 7))),
        price=PriceModel(S0=100.0, **price_kwargs))


class TestPathSeeding:
    """The array-pass seeding against per-path ``SeedSequence`` children
    (``mc_oracle``): the same state words, draws and objectives."""

    @pytest.mark.parametrize("n_paths", [1, 2, 8193])
    @pytest.mark.parametrize("seed", [0, 1, 12345, 2 ** 32 - 1, 2 ** 32,
                                      2 ** 64 + 3, 2 ** 128 - 1])
    def test_state_words_named_seeds(self, seed, n_paths):
        words = _path_state_words(seed, n_paths)
        assert words.dtype == np.uint64 and words.shape == (n_paths, 4)
        assert np.array_equal(words, spawned_words(seed, n_paths))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 130 - 1), n_paths=st.integers(1, 40))
    def test_state_words_random_seeds(self, seed, n_paths):
        assert np.array_equal(_path_state_words(seed, n_paths),
                              spawned_words(seed, n_paths))

    def test_numpy_integer_seed(self):
        assert np.array_equal(_path_state_words(np.int64(7), 3),
                              spawned_words(7, 3))

    def test_negative_seed_rejected_as_seed_sequence_does(self):
        with pytest.raises(ValueError):
            np.random.SeedSequence(-1)
        with pytest.raises(ValueError):
            _path_state_words(-1, 4)
        market = two_point_market()
        with pytest.raises(ValueError):
            monte_carlo_values([FixedSpreadPolicy(2.0, 2.0)], market, 4, -3)

    @pytest.mark.parametrize("seed", [0, 5, 2 ** 64 + 3])
    def test_path_draws_equal_oracle(self, seed):
        n, n_paths = 37, 300
        rng = np.random.Generator(np.random.PCG64(0))
        children = np.random.SeedSequence(seed).spawn(n_paths)
        for i, words in enumerate(
                _path_state_words(seed, n_paths).tolist()):
            u, z = np.empty((n, 5)), np.empty(n)
            _path_draws(words, rng, u, z)
            u_ref, z_ref = mc_oracle._path_draws(children[i], n)
            assert np.array_equal(u, u_ref) and np.array_equal(z, z_ref)

    # the pairs cross the 256-path draw blocks and the chunk edges
    @pytest.mark.parametrize("n_paths,width", [
        (1, 8192), (2, 1), (7, 1), (150, 64), (200, 200), (333, 100),
        (255, 8192), (257, 8192), (513, 300), (1000, 256), (300, 1),
        (1, 1)])
    def test_objectives_equal_oracle(self, monkeypatch, n_paths, width):
        market = two_point_market(drift=0.01, vol=0.05)
        set_chunk_width(monkeypatch, market, width)
        t = backward_pass(market.params)
        base = Policy.named("optimal_martingale", t)
        policies = [base, PerturbedPolicy(base, 0.3),
                    FixedSpreadPolicy(2.0, 3.0)]
        stats, objs = monte_carlo_values(policies, market, n_paths, 17)
        stats_ref, objs_ref = mc_oracle.monte_carlo_values(
            policies, market, n_paths, 17)
        for obj, obj_ref in zip(objs, objs_ref):
            assert np.array_equal(obj, obj_ref)
        np.testing.assert_array_equal(stats, stats_ref)

    # a still price draws no normals; drift alone leaves it without
    # volatility, and volatility at one step makes every path draw them
    @pytest.mark.parametrize("price", [
        {}, {"drift": 0.01}, {"vol": np.where(np.arange(12) == 5, 0.05, 0)}],
        ids=["still", "drift", "vol_at_step_5"])
    @pytest.mark.parametrize("n_paths,width", [
        (1, 8192), (2, 1), (7, 1), (150, 64), (200, 200), (333, 100),
        (255, 8192), (257, 8192), (513, 300), (1000, 256), (300, 1),
        (1, 1)])
    def test_price_without_normals_equals_oracle(self, monkeypatch, price,
                                                 n_paths, width):
        market = two_point_market(**price)
        set_chunk_width(monkeypatch, market, width)
        t = backward_pass(market.params)
        base = Policy.named("optimal_martingale", t)
        policies = [base, PerturbedPolicy(base, 0.3),
                    FixedSpreadPolicy(2.0, 3.0)]
        stats, objs = monte_carlo_values(policies, market, n_paths, 17)
        stats_ref, objs_ref = mc_oracle.monte_carlo_values(
            policies, market, n_paths, 17)
        for obj, obj_ref in zip(objs, objs_ref):
            assert np.array_equal(obj, obj_ref)
        np.testing.assert_array_equal(stats, stats_ref)
        children = np.random.SeedSequence(17).spawn(n_paths)
        for i in {0, n_paths - 1} | ({255, 256} & set(range(n_paths))):
            ep = run_episode(base, market, children[i])
            assert ep.terminal_objective == objs[0][i]

    @pytest.mark.parametrize("width", [8192, 300])
    def test_episode_equals_path_across_blocks(self, monkeypatch, width):
        market = two_point_market(drift=0.01, vol=0.05)
        set_chunk_width(monkeypatch, market, width)
        pol = Policy.named("optimal_martingale",
                           backward_pass(market.params))
        _, (objectives,) = monte_carlo_values([pol], market, 600, 23)
        children = np.random.SeedSequence(23).spawn(600)
        for i in (0, 255, 256, 599):
            ep = run_episode(pol, market, children[i])
            assert ep.terminal_objective == objectives[i]

    # the budget sets the width (3, and 301: one full 256-path draw block
    # and a part block a chunk), or the path floor sets it (7)
    @pytest.mark.parametrize("cells,floor,width", [
        (6 * 12 * 3, 1, 3), (0, 7, 7), (6 * 12 * 301, 1, 301)])
    def test_budget_chunks_equal_oracle(self, monkeypatch, cells, floor,
                                        width):
        monkeypatch.setattr(simulator, "_CHUNK_CELLS", cells)
        monkeypatch.setattr(simulator, "_MIN_CHUNK_PATHS", floor)
        market = two_point_market(drift=0.01, vol=0.05)
        t = backward_pass(market.params)
        base = Policy.named("optimal_martingale", t)
        policies = [ChunkRecorder(base), PerturbedPolicy(base, 0.3),
                    FixedSpreadPolicy(2.0, 3.0)]
        n_paths = 3 * width + 2
        stats, objs = monte_carlo_values(policies, market, n_paths, 17)
        assert policies[0].widths == [width, width, width, 2]
        stats_ref, objs_ref = mc_oracle.monte_carlo_values(
            policies, market, n_paths, 17)
        for obj, obj_ref in zip(objs, objs_ref):
            assert np.array_equal(obj, obj_ref)
        np.testing.assert_array_equal(stats, stats_ref)
        children = np.random.SeedSequence(17).spawn(n_paths)
        for i in {0, width - 1, width, n_paths - 1} | (
                {255, 256} if width > 256 else set()):
            ep = run_episode(base, market, children[i])
            assert ep.terminal_objective == objs[0][i]

    def test_peak_memory_within_draw_budget(self):
        """A long horizon runs in chunks of the path floor, below the cell
        budget, and its draws in flight stay within one such chunk plus
        one path-major block."""
        n, n_paths = 1000, 3000
        market = two_point_market(n_steps=n)
        pol = ChunkRecorder(Policy.named("optimal_martingale",
                                         backward_pass(market.params)))
        width = max(simulator._CHUNK_CELLS // (6 * n),
                    simulator._MIN_CHUNK_PATHS)
        draws = 8 * 6 * n * (width + simulator._BLOCK_PATHS)
        tracemalloc.start()
        try:
            monte_carlo_value(pol, market, n_paths, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pol.widths == [width, width, n_paths - 2 * width]
        assert peak <= draws + (2 << 20)

    @pytest.mark.parametrize("vol,cell_bytes", [(0.0, 40), (0.05, 48)])
    def test_peak_memory_draws_normals_only_when_price_moves(self, vol,
                                                             cell_bytes):
        """A still price keeps only its 5 uniforms a path-step in flight,
        in a chunk and a path-major block, where a moving price also keeps
        its normals."""
        n = 1000
        market = two_point_market(n_steps=n, vol=vol)
        pol = ChunkRecorder(Policy.named("optimal_martingale",
                                         backward_pass(market.params)))
        width = max(simulator._CHUNK_CELLS // (6 * n),
                    simulator._MIN_CHUNK_PATHS)
        draws = cell_bytes * n * (width + simulator._BLOCK_PATHS)
        tracemalloc.start()
        try:
            monte_carlo_value(pol, market, width + 100, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pol.widths == [width, 100]
        assert peak <= draws + (2 << 20)

    def test_int_seed_episode_draws_from_seed_sequence(self):
        # an int seed is SeedSequence(seed) itself, not a spawned child
        market = two_point_market(n_steps=30, drift=0.02, vol=0.1)
        ep = run_episode(FixedSpreadPolicy(2.0, 3.0), market, 2024)
        u, z = mc_oracle._path_draws(np.random.SeedSequence(2024), 30)
        S = [market.price.S0]
        for k in range(30):
            S.append(S[-1] + 0.02 + 0.1 * z[k])
        assert ep.S.tolist() == S
        a = market.params.arrivals
        ind_p, ind_m = mc_oracle._arrivals_vec(a.pi_plus, a.pi_minus,
                                               a.pi_joint, u[:, 0])
        assert np.array_equal(ep.ind_plus, ind_p.astype(int))
        assert np.array_equal(ep.ind_minus, ind_m.astype(int))


class TestOneStepObjective:
    def test_optimal_spreads_maximize(self):
        rng = np.random.default_rng(21)
        p = symmetric_params(100, 5, 0.25, 0.1, 0.002, 8)
        t = backward_pass(p)
        for _ in range(20):
            k = int(rng.integers(0, 8))
            I = float(rng.uniform(-500, 500))
            Lp, Lm = optimal_spreads(t, k, I)
            best = one_step_objective(p, t, k, I, Lp, Lm)
            for ep in (-0.1, -0.01, 0.01, 0.1):
                for eq in (-0.1, 0.0, 0.1):
                    if ep == 0 and eq == 0:
                        continue
                    assert one_step_objective(p, t, k, I, Lp + ep,
                                              Lm + eq) <= best + 1e-9


class TestBruteForce:
    def test_one_step_joint_point_mass(self):
        p = symmetric_params(1, 4, 1.0, 1.0, 0.0, 1)
        market = point_market(p, c=1.0, pv=4.0)
        grid = np.round(np.arange(0.0, 4.01, 0.01), 2)
        value, (lp, lm) = brute_force_value_small(market, grid)
        assert value == pytest.approx(8.0, abs=0.02)
        assert abs(lp - 2.0) <= 0.011
        assert abs(lm - 2.0) <= 0.011

    def test_two_step_matches_solver(self):
        p = symmetric_params(10, 4, 0.5, 0.0, 0.01, 2)
        market = SimMarket(
            params=p,
            demand=DemandDistribution(
                plus=TwoPointIndependent((8, 12), (3, 5)),
                minus=TwoPointIndependent((8, 12), (3, 5))),
            price=PriceModel(S0=100.0))
        side = side_moments(market.demand.plus)
        solver_p = MarketParams(grid=p.grid, arrivals=p.arrivals,
                                moments=DemandMoments(plus=side, minus=side),
                                lam=p.lam)
        t = backward_pass(solver_p)
        grid = np.round(np.arange(0.5, 3.51, 0.01), 2)
        value, (lp, lm) = brute_force_value_small(market, grid)
        assert value == pytest.approx(t.g[0], abs=0.01)
        Lp, Lm = optimal_spreads(t, 0, 0.0)
        assert abs(lp - Lp) <= 0.011
        assert abs(lm - Lm) <= 0.011

    def test_one_sided_market(self):
        n = 1
        arrivals = ArrivalSchedule(pi_plus=np.array([0.8]),
                                   pi_minus=np.array([1e-9]),
                                   pi_joint=np.array([0.0]))
        side = side_moments(TwoPointIndependent((8, 12), (3, 5)))
        p = MarketParams(grid=TimeGrid(n_steps=n), arrivals=arrivals,
                         moments=DemandMoments(plus=side, minus=side),
                         lam=0.0)
        market = SimMarket(
            params=p,
            demand=DemandDistribution(
                plus=TwoPointIndependent((8, 12), (3, 5)),
                minus=TwoPointIndependent((8, 12), (3, 5))),
            price=PriceModel(S0=100.0))
        t = backward_pass(p)
        grid = np.round(np.arange(0.5, 3.51, 0.01), 2)
        value, _ = brute_force_value_small(market, grid)
        assert value == pytest.approx(t.g[0], abs=0.02)

    def test_drifted_two_step_matches_forecast_solver(self):
        p = symmetric_params(10, 4, 0.5, 0.0, 0.01, 2)
        drift = np.array([0.4, -0.2])
        market = SimMarket(
            params=p,
            demand=DemandDistribution(
                plus=TwoPointIndependent((8, 12), (3, 5)),
                minus=TwoPointIndependent((8, 12), (3, 5))),
            price=PriceModel(S0=100.0, drift=drift))
        side = side_moments(market.demand.plus)
        solver_p = MarketParams(grid=p.grid, arrivals=p.arrivals,
                                moments=DemandMoments(plus=side, minus=side),
                                lam=p.lam)
        t = backward_pass(solver_p)
        grid = np.round(np.arange(-1.0, 4.01, 0.01), 2)
        value, (lp, lm) = brute_force_value_small(market, grid)
        f0 = ForecastVector(k=0, deltas=drift)
        Lp, Lm = optimal_spreads(t, 0, 0.0, forecast_shift(t, 0, f0))
        assert abs(lp - Lp) <= 0.011
        assert abs(lm - Lm) <= 0.011

    def test_rejects_continuous_supports(self):
        p = symmetric_params(100, 5, 0.2, 0.0, 0.0005, 1)
        market = SimMarket(
            params=p,
            demand=DemandDistribution(
                plus=LognormalIndependent.from_moments(100, 10400, 5, 26),
                minus=PointMass(100.0, 5.0)),
            price=PriceModel(S0=100.0))
        with pytest.raises(ValueError):
            brute_force_value_small(market, np.arange(0, 4, 0.5))

