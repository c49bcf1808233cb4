import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from hfmm.model import (ArrivalSchedule, DemandMoments, MarketParams,
                        SideMoments, TimeGrid, load_params, params_from_dict,
                        params_to_dict, save_params, symmetric_params,
                        validate_params)

from conftest import random_valid_params


def _const_params(pi_p, pi_m, pi_j, n=4, **side_overrides):
    side_kwargs = dict(mu_c=100.0, mu_c2=1e4, mu_cp=500.0, mu_c2p=5e4,
                       mu_c2p2=2.5e5)
    side_kwargs.update(side_overrides)
    side = SideMoments(**side_kwargs)
    return MarketParams(
        grid=TimeGrid(n_steps=n),
        arrivals=ArrivalSchedule.constant(pi_p, pi_m, pi_j, n),
        moments=DemandMoments(plus=side, minus=side))


class TestValidateParams:
    def test_inside_frechet_bounds_is_valid(self):
        assert validate_params(_const_params(0.2, 0.2, 0.05)).valid

    def test_joint_above_min_marginal_is_flagged(self):
        report = validate_params(_const_params(0.2, 0.2, 0.3))
        assert not report.valid
        assert any("pi_joint" in v for v in report.violations)

    def test_variance_violation_is_flagged(self):
        report = validate_params(_const_params(0.2, 0.2, 0.05, mu_c2=9000.0))
        assert not report.valid
        assert any("mu_c2" in v for v in report.violations)

    def test_frechet_boundary_exact(self):
        # equality at the upper bound passes; any positive epsilon fails
        assert validate_params(_const_params(0.2, 0.3, 0.2)).valid
        assert not validate_params(_const_params(0.2, 0.3, 0.2 + 1e-12)).valid

    def test_never_raises_collects_all(self):
        report = validate_params(_const_params(0.2, 0.2, 0.3, mu_c2=9000.0))
        assert len(report.violations) >= 2


class TestSymmetricParams:
    def test_benchmark_moments(self):
        p = symmetric_params(100, 5, 0.2, 0.0, 0.0005, 19800)
        for side in (p.moments.plus, p.moments.minus):
            assert side.mu_cp == 500.0
            assert side.mu_c2 == 1e4
            assert side.mu_c2p == 5e4
        assert p.grid.n_steps == 19800
        assert np.all(p.arrivals.pi_joint == 0.0)

    def test_joint_arrival_variant(self):
        p = symmetric_params(100, 5, 0.2, 0.05, 0.0005, 19800)
        assert np.all(p.arrivals.pi_joint == 0.05)
        assert p.moments.plus.mu_cp == 500.0

    def test_unit_case(self):
        p = symmetric_params(1, 1, 0.5, 0.0, 0.0, 1)
        assert p.moments.plus.mu_cp == 1.0
        assert p.grid.n_steps == 1
        assert p.lam == 0.0

    def test_rejects_frechet_violation(self):
        with pytest.raises(ValueError):
            symmetric_params(100, 5, 0.2, 0.3, 0.0005, 10)

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(ValueError):
            symmetric_params(-1, 5, 0.2, 0.0, 0.0005, 10)

    @given(st.floats(1.0, 500.0), st.floats(0.5, 20.0),
           st.floats(0.01, 1.0), st.data())
    @settings(max_examples=60, deadline=None)
    def test_always_validates(self, mu_c, mu_p, pi, data):
        pi_joint = data.draw(st.floats(max(2 * pi - 1.0, 0.0), pi))
        p = symmetric_params(mu_c, mu_p, pi, pi_joint, 0.0005, 5)
        assert validate_params(p).valid


class TestRandomParamsFixture:
    def test_random_draws_are_valid(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            assert validate_params(random_valid_params(rng)).valid

    def test_frechet_boundary_draws_are_valid(self):
        rng = np.random.default_rng(1)
        for mode in ("lower", "upper"):
            for _ in range(20):
                p = random_valid_params(rng, force_pi_joint=mode)
                assert validate_params(p).valid


class TestTimeGrid:
    def test_action_times(self):
        g = TimeGrid(n_steps=3, step_seconds=0.5, session_start_ns=10 ** 9)
        assert g.action_time_ns(0) == 10 ** 9
        assert g.action_time_ns(2) == 2 * 10 ** 9
        assert g.last_index == 2

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            TimeGrid(n_steps=0)
        with pytest.raises(ValueError):
            TimeGrid(n_steps=5, step_seconds=0.0)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        p = random_valid_params(rng, n_steps=7)
        path = tmp_path / "params.yaml"
        save_params(p, path)
        q = load_params(path)
        np.testing.assert_array_equal(p.arrivals.pi_plus, q.arrivals.pi_plus)
        np.testing.assert_array_equal(p.arrivals.pi_joint, q.arrivals.pi_joint)
        assert p.moments.plus.mu_c2p2 == q.moments.plus.mu_c2p2
        assert p.lam == q.lam
        assert p.grid.n_steps == q.grid.n_steps

    def test_quadratic_arrival_expansion(self):
        d = params_to_dict(symmetric_params(100, 5, 0.2, 0.0, 0.0005, 5))
        d["arrivals"]["pi_plus"] = {"a0": 0.3, "a1": 0.01, "a2": 0.001}
        p = params_from_dict(d)
        k = np.arange(5)
        np.testing.assert_allclose(p.arrivals.pi_plus,
                                   0.3 + 0.01 * k + 0.001 * k ** 2)

    @pytest.mark.skipif(not yaml.__with_libyaml__,
                        reason="pyyaml without libyaml")
    def test_libyaml_and_pure_python_agree(self, tmp_path):
        """The libyaml dumper writes the pure-Python dumper's bytes, and both
        loaders read back the same arrays."""
        p = random_valid_params(np.random.default_rng(5), n_steps=300)
        path = tmp_path / "params.yaml"
        save_params(p, path)
        doc = params_to_dict(p)
        assert path.read_text() == yaml.dump(doc, Dumper=yaml.SafeDumper,
                                             sort_keys=False)
        with open(path) as fh:
            pure = params_from_dict(yaml.load(fh, Loader=yaml.SafeLoader))
        fast = load_params(path)
        for name in ("pi_plus", "pi_minus", "pi_joint"):
            a, b = getattr(pure.arrivals, name), getattr(fast.arrivals, name)
            assert a.tobytes() == b.tobytes()
            assert a.tobytes() == getattr(p.arrivals, name).tobytes()
        assert pure.moments == fast.moments == p.moments
