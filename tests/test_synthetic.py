import dataclasses

import numpy as np
import pytest

from hfmm.synthetic import SyntheticDayConfig, generate_day

import synthetic_oracle


def assert_same_day(cfg, seed):
    events, truth = generate_day(cfg, seed)
    ref_events, ref_truth = synthetic_oracle.generate_day(cfg, seed)
    assert events.dtype == ref_events.dtype
    assert np.array_equal(events, ref_events)
    assert truth.config == ref_truth.config
    for f in dataclasses.fields(truth):
        a, b = getattr(truth, f.name), getattr(ref_truth, f.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), f.name
    for key in ("pi_plus", "pi_minus", "pi_joint"):
        assert np.array_equal(getattr(truth.params.arrivals, key),
                              getattr(ref_truth.params.arrivals, key))
    assert truth.params.moments == ref_truth.params.moments
    assert truth.params.grid == ref_truth.params.grid
    return events, truth


CONFIGS = {
    "default": SyntheticDayConfig(n_steps=400),
    "one_step": SyntheticDayConfig(n_steps=1),
    "depth_1": SyntheticDayConfig(n_steps=200, depth=1),
    "no_arrivals": SyntheticDayConfig(n_steps=100, pi_plus=0.0,
                                      pi_minus=0.0, pi_joint=0.0),
    # market orders of c * 29.5 shares walk past all 3 levels of c shares
    "mo_beyond_depth": SyntheticDayConfig(n_steps=200, depth=3,
                                          c_values=(5.0, 9.0),
                                          p_values=(30.0,)),
    # rounding to zero-share levels and non-positive market orders
    "tiny_demand": SyntheticDayConfig(n_steps=200, c_values=(0.3, 2.6),
                                      p_values=(0.2, 8.0)),
    # negative level volumes: a positive market order takes every level
    "negative_demand": SyntheticDayConfig(n_steps=200, depth=4,
                                          c_values=(-3.0, 40.0),
                                          p_values=(0.2, 3.0)),
    "year_day": SyntheticDayConfig(n_steps=300, p_values=(3.8, 5.0),
                                   lam=0.01),
    "busy_uneven": SyntheticDayConfig(n_steps=250, step_seconds=0.37,
                                      c_values=(80, 120, 95),
                                      pi_plus=0.6, pi_minus=0.7,
                                      pi_joint=0.45, depth=5,
                                      regime_switch_prob=0.3),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_matches_oracle(name):
    for seed in range(6):
        assert_same_day(CONFIGS[name], seed)


def test_matches_oracle_random_configs():
    rng = np.random.default_rng(20)
    for seed in range(25):
        pp, pm = rng.uniform(0.0, 1.0, size=2)
        cfg = SyntheticDayConfig(
            n_steps=int(rng.integers(1, 120)),
            step_seconds=float(rng.choice([0.25, 1.0, 1.7])),
            pi_plus=pp, pi_minus=pm,
            pi_joint=rng.uniform(max(pp + pm - 1.0, 0.0), min(pp, pm)),
            c_values=tuple(rng.uniform(1.0, 150.0, size=2)),
            p_values=tuple(rng.uniform(0.0, 8.0, size=2)),
            depth=int(rng.integers(1, 15)),
            default_volume=int(rng.integers(0, 200)),
            regime_switch_prob=rng.uniform(0.0, 0.5))
        assert_same_day(cfg, seed)


def test_edge_days_have_the_expected_shape():
    events, _ = assert_same_day(CONFIGS["no_arrivals"], 1)
    assert set(events["kind"].tolist()) == {0, 1}
    events, _ = assert_same_day(CONFIGS["mo_beyond_depth"], 2)
    executes = events[events["kind"] == 2]
    assert np.all(np.bincount(executes["ts_ns"] // 10 ** 9)[1:] % 3 == 0)
    events, _ = assert_same_day(CONFIGS["one_step"], 3)
    assert not np.any(events["kind"] == 1)
