import re
from dataclasses import replace

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from hfmm.model import (ArrivalSchedule, DemandMoments, MarketParams,
                        SideMoments, TimeGrid, load_params, params_from_dict,
                        params_to_dict, save_params, validate_params)

from conftest import random_valid_params, symmetric_params


def _const_params(pi_p, pi_m, pi_j, n=4, **side_overrides):
    side_kwargs = dict(mu_c=100.0, mu_c2=1e4, mu_cp=500.0, mu_c2p=5e4,
                       mu_c2p2=2.5e5)
    side_kwargs.update(side_overrides)
    side = SideMoments(**side_kwargs)
    return MarketParams(
        grid=TimeGrid(n_steps=n),
        arrivals=ArrivalSchedule.constant(pi_p, pi_m, pi_j, n),
        moments=DemandMoments(plus=side, minus=side))


def _with_joint(p, k, value):
    pj = p.arrivals.pi_joint.copy()
    pj[k] = value
    return replace(p, arrivals=ArrivalSchedule(p.arrivals.pi_plus,
                                               p.arrivals.pi_minus, pj))


def _with_side(p, side, **moments):
    return replace(p, moments=replace(p.moments, **{
        side: replace(getattr(p.moments, side), **moments)}))


class TestValidateParams:
    def test_inside_frechet_bounds_is_valid(self):
        assert not validate_params(_const_params(0.2, 0.2, 0.05))

    def test_joint_above_min_marginal_is_flagged(self):
        report = validate_params(_const_params(0.2, 0.2, 0.3))
        assert report
        assert any("pi_joint" in v for v in report)

    def test_variance_violation_is_flagged(self):
        report = validate_params(_const_params(0.2, 0.2, 0.05, mu_c2=9000.0))
        assert report
        assert any("mu_c2" in v for v in report)

    def test_frechet_boundary_exact(self):
        # equality at the upper bound passes; any positive epsilon fails
        assert not validate_params(_const_params(0.2, 0.3, 0.2))
        assert validate_params(_const_params(0.2, 0.3, 0.2 + 1e-12))

    @pytest.mark.parametrize("change,message", [
        pytest.param(lambda p: replace(p, lam=np.nan),
                     "lambda must be finite and >= 0 (got nan)",
                     id="lambda-nan"),
        pytest.param(lambda p: replace(p, lam=np.inf),
                     "lambda must be finite and >= 0 (got inf)",
                     id="lambda-inf"),
        pytest.param(lambda p: replace(p, tick_size=np.inf),
                     "tick_size must be finite and > 0 (got inf)",
                     id="tick_size-inf"),
        pytest.param(lambda p: replace(p, grid=TimeGrid(n_steps=4,
                                                        step_seconds=np.inf)),
                     "step_seconds must be finite (got inf)",
                     id="step_seconds-inf"),
        pytest.param(lambda p: _with_joint(p, 2, np.nan),
                     "pi_joint[2] is not a number: nan", id="pi_joint-nan"),
        pytest.param(lambda p: _with_side(p, "plus", mu_c2p2=np.inf),
                     "plus.mu_c2p2 must be finite and strictly positive "
                     "(got inf)", id="mu_c2p2-inf"),
        pytest.param(lambda p: _with_side(p, "minus", mu_p2=np.nan),
                     "minus.mu_p2 must be finite (got nan)", id="mu_p2-nan"),
    ])
    def test_non_finite_field_named(self, change, message):
        p = _const_params(0.2, 0.2, 0.05, mu_p=5.0, mu_p2=26.0)
        assert not validate_params(p)
        assert validate_params(change(p)) == [message]

    def test_never_raises_collects_all(self):
        report = validate_params(_const_params(0.2, 0.2, 0.3, mu_c2=9000.0))
        assert len(report) >= 2


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
        assert not validate_params(p)


class TestRandomParamsFixture:
    def test_random_draws_are_valid(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            assert not validate_params(random_valid_params(rng))

    def test_frechet_boundary_draws_are_valid(self):
        rng = np.random.default_rng(1)
        for mode in ("lower", "upper"):
            for _ in range(20):
                p = random_valid_params(rng, force_pi_joint=mode)
                assert not validate_params(p)


class TestTimeGrid:
    def test_action_times(self):
        g = TimeGrid(n_steps=3, step_seconds=0.5, session_start_ns=10 ** 9)
        assert g.action_time_ns(0) == 10 ** 9
        assert g.action_time_ns(2) == 2 * 10 ** 9

    @given(st.integers(1, 300),
           st.one_of(st.floats(1e-9, 100.0),
                     st.sampled_from([0.5e-9, 1.5e-9, 2.5e-9, 1e-3, 0.1])),
           st.integers(-10 ** 12, 10 ** 15))
    @settings(max_examples=300, deadline=None)
    def test_array_action_times_match_scalar(self, n, step, start):
        # half-nanosecond steps put k * step * 1e9 on ties, which both
        # round half to even
        g = TimeGrid(n_steps=n, step_seconds=step, session_start_ns=start)
        times = g.action_times_ns()
        assert times.dtype == np.int64
        assert times.tolist() == [g.action_time_ns(k) for k in range(n + 1)]

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


def _validate_per_step(p: MarketParams) -> list[str]:
    """validate_params' arrival checks as a loop over the steps, the way
    they were written before the array masks."""
    out = []
    n = p.grid.n_steps
    if len(p.arrivals) != n:
        out.append(f"arrival arrays have length {len(p.arrivals)}, "
                   f"grid expects {n}")
    pp, pm, pj = p.arrivals.pi_plus, p.arrivals.pi_minus, p.arrivals.pi_joint
    for k in range(len(p.arrivals)):
        if not 0 < pp[k] <= 1:
            out.append(f"pi_plus[{k}] not in (0,1]: {pp[k]}")
        if not 0 < pm[k] <= 1:
            out.append(f"pi_minus[{k}] not in (0,1]: {pm[k]}")
        if pj[k] != pj[k]:
            out.append(f"pi_joint[{k}] is not a number: {pj[k]}")
        lo = max(pp[k] + pm[k] - 1.0, 0.0)
        hi = min(pp[k], pm[k])
        if pj[k] < lo:
            out.append(f"pi_joint[{k}] below Frechet lower bound "
                       f"({pj[k]} < {lo})")
        if pj[k] > hi:
            out.append(f"pi_joint[{k}] exceeds min marginal ({pj[k]} > {hi})")
    return out


class TestValidateMatchesPerStep:
    def test_planted_violations(self):
        rng = np.random.default_rng(11)
        plants = [("pi_plus", 0.0), ("pi_plus", 1.5), ("pi_minus", -0.1),
                  ("pi_minus", np.nan), ("pi_plus", np.inf),
                  ("pi_joint", -1e-3), ("pi_joint", 0.99),
                  ("pi_joint", np.nan)]
        rules = ("grid expects", "not in (0,1]", "is not a number",
                 "below Frechet", "exceeds min marginal")
        seen = set()
        for trial in range(40):
            p = random_valid_params(rng, n_steps=int(rng.integers(1, 40)))
            arrays = {k: getattr(p.arrivals, k).copy()
                      for k in ("pi_plus", "pi_minus", "pi_joint")}
            n = len(arrays["pi_plus"])
            for _ in range(int(rng.integers(0, 6))):
                key, value = plants[int(rng.integers(len(plants)))]
                arrays[key][int(rng.integers(n))] = value
            # marginals summing past 1, the joint under their lower bound
            k = int(rng.integers(n))
            arrays["pi_plus"][k], arrays["pi_minus"][k] = 0.9, 0.8
            arrays["pi_joint"][k] = 0.6
            q = MarketParams(grid=TimeGrid(n_steps=n + (trial % 3 == 0)),
                             arrivals=ArrivalSchedule(**arrays),
                             moments=p.moments, lam=p.lam)
            violations = validate_params(q)
            assert violations == _validate_per_step(q)
            seen.update(rule for rule in rules for v in violations
                        if rule in v)
        assert seen == set(rules)

    def test_each_rule_reported_in_step_order(self):
        p = _const_params(0.2, 0.2, 0.05, n=5)
        arr = {k: getattr(p.arrivals, k).copy()
               for k in ("pi_plus", "pi_minus", "pi_joint")}
        arr["pi_joint"][1] = 0.3
        arr["pi_plus"][3] = 0.0
        arr["pi_plus"][4], arr["pi_minus"][4], arr["pi_joint"][4] = \
            0.75, 0.75, 0.25
        # min(0.2, nan) is 0.2 and max(nan, 0.0) is nan, as the loop had it
        arr["pi_minus"][2], arr["pi_joint"][2] = np.nan, 0.3
        q = MarketParams(grid=TimeGrid(n_steps=6),
                         arrivals=ArrivalSchedule(**arr), moments=p.moments)
        assert validate_params(q) == [
            "arrival arrays have length 5, grid expects 6",
            "pi_joint[1] exceeds min marginal (0.3 > 0.2)",
            "pi_minus[2] not in (0,1]: nan",
            "pi_joint[2] exceeds min marginal (0.3 > 0.2)",
            "pi_plus[3] not in (0,1]: 0.0",
            "pi_joint[3] exceeds min marginal (0.05 > 0.0)",
            "pi_joint[4] below Frechet lower bound (0.25 < 0.5)",
        ]


# ---------------------------------------------------------------------------
# Params files: the array fast paths against plain YAML
# ---------------------------------------------------------------------------
ARRIVAL_KEYS = ("pi_plus", "pi_minus", "pi_joint")
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e16, 1e17,
                  -1.5e17, 1e-07, 123456789.125, 0.1, 1.0, 2.5e+300]
finite_floats = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.sampled_from(SPECIAL_FLOATS))


def load_by_yaml(path) -> MarketParams:
    with open(path) as fh:
        return params_from_dict(yaml.load(fh, Loader=yaml.SafeLoader))


def assert_same_params(a: MarketParams, b: MarketParams):
    for key in ARRIVAL_KEYS:
        assert getattr(a.arrivals, key).tobytes() == \
            getattr(b.arrivals, key).tobytes()
    assert (a.grid, a.moments, a.lam, a.tick_size) == \
        (b.grid, b.moments, b.lam, b.tick_size)


def params_with_arrays(arrays, seed=0) -> MarketParams:
    p = random_valid_params(np.random.default_rng(seed), n_steps=1)
    return MarketParams(grid=TimeGrid(n_steps=max(len(arrays[0]), 1)),
                        arrivals=ArrivalSchedule(*map(np.array, arrays)),
                        moments=p.moments, lam=p.lam, tick_size=p.tick_size)


@st.composite
def arrival_arrays(draw, elements=finite_floats):
    n = draw(st.integers(1, 12))
    return [draw(st.lists(elements, min_size=n, max_size=n))
            for _ in ARRIVAL_KEYS]


def canonical_text(p: MarketParams) -> str:
    return yaml.dump(params_to_dict(p), Dumper=yaml.SafeDumper,
                     sort_keys=False)


def _replace_item(text, n, new):
    """Replace the n-th arrival item line's value with ``new``."""
    lines = text.split("\n")
    items = [i for i, line in enumerate(lines) if line.startswith("  - ")]
    i = items[n % len(items)]
    lines[i] = new(lines[i])
    return "\n".join(lines)


# Every variant is a params document in a layout save_params does not write.
VARIANTS = {
    "flow": lambda p, t, n: yaml.dump(params_to_dict(p),
                                      Dumper=yaml.SafeDumper,
                                      default_flow_style=True),
    "inf": lambda p, t, n: _replace_item(t, n, lambda s: "  - .inf"),
    "nan": lambda p, t, n: _replace_item(t, n, lambda s: "  - .nan"),
    "minus_inf": lambda p, t, n: _replace_item(t, n, lambda s: "  - -.inf"),
    "yaml_string": lambda p, t, n: _replace_item(t, n, lambda s: "  - -.nan"),
    "item_comment": lambda p, t, n: _replace_item(t, n,
                                                  lambda s: s + " # note"),
    "line_comment": lambda p, t, n: t.replace("  pi_minus:\n",
                                              "# note\n  pi_minus:\n"),
    "end_comment": lambda p, t, n: t.replace("moments:\n",
                                             "# note\nmoments:\n"),
    "scalar": lambda p, t, n: t.replace("  pi_minus:\n",
                                        "  pi_minus: 0.25\n  old:\n"),
    "quadratic": lambda p, t, n: t.replace(
        "  pi_joint:\n", "  pi_joint: {a0: 0.01, a1: 0.001}\n  old:\n"),
    "upper_e": lambda p, t, n: _replace_item(t, n, lambda s: "  - 1.5E+3"),
    "plus_sign": lambda p, t, n: _replace_item(t, n, lambda s: "  - +0.5"),
    "bare_dot": lambda p, t, n: _replace_item(t, n, lambda s: "  - .5"),
    "int_item": lambda p, t, n: _replace_item(t, n, lambda s: "  - 1"),
    "octal_item": lambda p, t, n: _replace_item(t, n, lambda s: "  - 010"),
    "minus_zero_int": lambda p, t, n: _replace_item(t, n, lambda s: "  - -0"),
    "underscore": lambda p, t, n: _replace_item(t, n, lambda s: "  - 1_0.5"),
    "trailing_space": lambda p, t, n: _replace_item(t, n, lambda s: s + " "),
    "crlf": lambda p, t, n: t.replace("\n", "\r\n"),
    "extra_key": lambda p, t, n: t.replace("moments:\n",
                                           "  note: x\nmoments:\n"),
    "reordered": lambda p, t, n: t.replace("pi_plus:", "pi_tmp:").replace(
        "pi_minus:", "pi_plus:").replace("pi_tmp:", "pi_minus:"),
    "anchor": lambda p, t, n: t.replace("  pi_plus:\n", "  pi_plus: &a\n")
    .replace("  pi_joint:\n", "  pi_joint: *a\n  old:\n"),
    "indented_items": lambda p, t, n: t.replace("  - ", "    - "),
    # YAML keeps the last of two equal keys
    "duplicate_section": lambda p, t, n: t + (
        "arrivals: {pi_plus: 0.5, pi_minus: 0.25, pi_joint: 0.125}\n"),
}


class TestParamsFileFastPath:
    @given(arrival_arrays(), st.sampled_from(["canonical"] + sorted(VARIANTS)),
           st.integers(0, 100))
    @settings(max_examples=300, deadline=None)
    def test_load_matches_yaml(self, tmp_path_factory, arrays, variant, n):
        p = params_with_arrays(arrays)
        text = canonical_text(p)
        if variant != "canonical":
            text = VARIANTS[variant](p, text, n)
        path = tmp_path_factory.mktemp("params") / "params.yaml"
        path.write_bytes(text.encode())
        try:
            expected = load_by_yaml(path)
        except ValueError:  # "-.nan" is a YAML string
            with pytest.raises(ValueError, match=re.escape(str(path))):
                load_params(path)
        else:
            assert_same_params(load_params(path), expected)

    @given(arrival_arrays(st.one_of(finite_floats,
                                    st.floats(allow_subnormal=True))))
    @settings(max_examples=300, deadline=None)
    def test_save_writes_yaml_dump_bytes(self, tmp_path_factory, arrays):
        p = params_with_arrays(arrays)
        path = tmp_path_factory.mktemp("params") / "params.yaml"
        save_params(p, path)
        assert path.read_bytes().decode() == canonical_text(p)

    def test_canonical_arrays_skip_yaml(self, tmp_path, monkeypatch):
        p = random_valid_params(np.random.default_rng(4), n_steps=50)
        path = tmp_path / "params.yaml"
        save_params(p, path)
        parsed = []
        real_load = yaml.load
        monkeypatch.setattr(yaml, "load", lambda text, Loader: parsed.append(
            text) or real_load(text, Loader=Loader))
        q = load_params(path)
        assert len(parsed) == 1 and "  - " not in parsed[0]
        assert_same_params(q, p)
        path.write_text(path.read_text().replace("\n  pi_minus",
                                                 " # c\n  pi_minus"))
        parsed.clear()
        assert_same_params(load_params(path), p)
        assert parsed[-1] == path.read_text()

    def test_non_finite_and_empty_arrays_go_through_yaml_dump(self,
                                                               tmp_path):
        for arrays in ([[0.2, np.inf], [0.2, 0.2], [0.0, 0.0]],
                       [[np.nan], [0.2], [-np.inf]], [[], [], []]):
            p = params_with_arrays(arrays)
            path = tmp_path / "params.yaml"
            save_params(p, path)
            assert path.read_text() == canonical_text(p)


BROKEN_PARAMS = {
    "grid": ("grid: {}\n", "'n_steps'"),
    "arrivals": ("arrivals: {}\n", "'pi_plus'"),
    "moments": ("moments: {plus: {}, minus: {}}\n", "'mu_c'"),
}


class TestBrokenParamsFile:
    def _write(self, tmp_path, section):
        text, _ = BROKEN_PARAMS[section]
        doc = params_to_dict(symmetric_params(100, 5, 0.2, 0.0, 0.0005, 5))
        del doc[section]
        path = tmp_path / f"{section}.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=False) + text)
        return path

    @pytest.mark.parametrize("section", sorted(BROKEN_PARAMS))
    def test_missing_key_names_file_and_key(self, tmp_path, section):
        path = self._write(tmp_path, section)
        with pytest.raises(ValueError) as exc:
            load_params(path)
        assert str(path) in str(exc.value)
        assert f"missing key {BROKEN_PARAMS[section][1]}" in str(exc.value)

    def test_unparseable_file_names_file(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("grid: {n_steps: 5\narrivals: [\n")
        with pytest.raises(ValueError) as exc:
            load_params(path)
        assert str(path) in str(exc.value)
        assert "YAML" in str(exc.value)

    @pytest.mark.parametrize("section", sorted(BROKEN_PARAMS) + ["syntax"])
    def test_solve_exits_1_naming_the_file(self, tmp_path, capsys, section):
        from hfmm.cli import main
        if section == "syntax":
            path = tmp_path / "syntax.yaml"
            path.write_text("grid: {n_steps: 5\narrivals: [\n")
        else:
            path = self._write(tmp_path, section)
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--params", str(path),
                  "--out", str(tmp_path / "out")])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert f"invalid params: {path}" in err
        assert "Traceback" not in err
