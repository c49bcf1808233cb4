"""The benchmark's workloads.

Each workload makes its inputs from a seed with ``hfmm.synthetic``, names the
``hfmm`` commands a user would run on them, and checks what those commands
wrote. See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from hfmm import synthetic
from hfmm.lob import write_events_binary
from hfmm.model import save_params
from hfmm.synthetic import SyntheticDayConfig, true_market_params

POLICIES = ("optimal_forecast", "optimal_martingale", "fixed_level_1",
            "fixed_level_2", "fixed_level_3")
MOMENTS = ("mu_c", "mu_c2", "mu_cp", "mu_c2p", "mu_c2p2", "mu_p", "mu_p2")
SIDES = ("plus", "minus")
Z_MAX_ESTIMATION = 3.0   # criterion 8
Z_MAX_MONTE_CARLO = 4.0  # criterion 5
# ``solve`` on the full day's true params, which do not depend on the seed:
# alpha and g at step 0 (coefficients.csv) and the four spreads at step 0
# (spread_surface.csv), as written by the solver the repository's tests check
# against brute-force DP. Float reordering moves them by far less than the
# tolerance; a wrong recursion moves them by far more.
FULL_DAY_SOLVE = (-1.2602924646927019e-06, 4946410.552736928, 5.0006551755,
                  5.0004977911, 5.0003403372, 5.0000252213)
SOLVE_REL_TOL = 1e-9
# ``simulate``'s two-point market does not depend on the seed either: its
# recursion value g0, and the population SD of the terminal objective (the
# mean of se * sqrt(n_paths) over seeds 1-8, which spread by 0.26%). An SD
# off by more than MC_SD_TOL means ``se`` is wrong, or that it was taken
# over fewer paths than reported (18% fewer read as 10% more SD).
MC_G0 = 48795.842638663984
MC_SD = 5100.37
MC_SD_TOL = 0.03
# Every output value of ``backtest``, ``report`` and ``simulate`` for the
# default seed, as written by the code the repository's tests check. Runs of
# that seed must reproduce them within PIN_REL_TOL; any seed must pass the
# invariants of ``day_row_problems``.
PINNED_SEED = 1
PINNED = json.loads((Path(__file__).parent / "seed1_outputs.json")
                    .read_text())
PIN_REL_TOL = 1e-9
ORDER_VOLUME = 500
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@dataclass
class Outcome:
    """What the checks of one iteration found. An operation is a day in a
    command for ``year`` and ``bigday``, and a whole run for ``mc``."""

    ops: int
    failed: int
    problems: list


def day_seed(seed: int, day: int) -> int:
    return seed * 10_000 + day


def _write_config(path: Path, **cfg) -> Path:
    path.write_text(yaml.safe_dump(cfg, sort_keys=True))
    return path


def _read_rows(path: Path):
    if not path.exists():
        return []
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def parse_day_row(row):
    """A ``day_results.csv`` row as [day, policy, objective,
    liquidation_value, W_T, I_T, S_T, fills, incomplete], or None when it
    does not parse."""
    try:
        return [int(row[0]), row[1], *map(float, row[2:7]), int(row[7]),
                int(row[8])]
    except (IndexError, ValueError):
        return None


def _day_results(path: Path):
    return [parse_day_row(r) for r in _read_rows(path)]


def day_row_problems(row, lam: float, n_steps: int) -> list:
    """What is wrong with one parsed result row, by rules that hold for any
    seed: the objective is W_T + S_T * I_T - lam * I_T^2, a day has at most
    one fill per side per step, the inventory is a whole number of shares
    no larger than the fills could carry, and a flat book liquidates at
    W_T."""
    day, policy, objective, liq, W, I, S, fills, incomplete = row
    where = f"day {day} {policy}"
    problems = []
    if incomplete:
        problems.append(f"{where}: marked incomplete")
    scale = max(abs(W), abs(S * I), lam * I * I, 1.0)
    if not abs(objective - (W + S * I - lam * I * I)) <= 1e-9 * scale:
        problems.append(f"{where}: objective {objective} is not "
                        f"W_T + S_T*I_T - lam*I_T^2")
    if not 0 <= fills <= 2 * n_steps:
        problems.append(f"{where}: {fills} fills in {n_steps} steps")
    if I != round(I) or abs(I) > fills * ORDER_VOLUME:
        problems.append(f"{where}: inventory {I} after {fills} fills")
    if I == 0 and liq != W:
        problems.append(f"{where}: flat book liquidates at {liq}, not W_T")
    return problems


def day_problems(rows, day: int, lam: float, n_steps: int) -> list:
    """Every policy has one result row for ``day``, and each passes
    ``day_row_problems``."""
    mine = [r for r in rows if r is not None and r[0] == day]
    if sorted(r[1] for r in mine) != sorted(POLICIES):
        return [f"day {day}: result rows missing"]
    return [p for r in mine for p in day_row_problems(r, lam, n_steps)]


def close_to(got, want) -> bool:
    """``got`` has the structure of ``want``, with numbers within
    PIN_REL_TOL and everything else equal."""
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(close_to(got[k], want[k]) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(map(close_to, got, want)))
    if isinstance(want, float):
        return (isinstance(got, (int, float))
                and math.isclose(got, want, rel_tol=PIN_REL_TOL,
                                 abs_tol=1e-6))
    return got == want


def realized_moments(truth) -> np.ndarray:
    """One day's demand moments as drawn by the generator, over the steps
    with an arrival on each side, in SIDES x MOMENTS order."""
    out = []
    for ind, c, p in ((truth.ind_plus, truth.c_plus, truth.p_plus),
                      (truth.ind_minus, truth.c_minus, truth.p_minus)):
        keep = ind.astype(bool)
        c, p = c[keep], p[keep]
        out += [np.mean(c), np.mean(c ** 2), np.mean(c * p),
                np.mean(c ** 2 * p), np.mean(c ** 2 * p ** 2), np.mean(p),
                np.mean(p ** 2)]
    return np.array(out)


def worst_moment_z(doc: dict, window_truth: np.ndarray) -> float:
    """Largest |estimate - target| / SEM over the 14 demand moments of one
    calibrated params document.

    The target is the truth realised on the window's days, which is what
    the calibration observes; the SEM is the day-to-day spread of that
    truth over the window, as in criterion 8. Checking against the
    population values instead would fail a correct program at roughly the
    test's false-alarm rate on some seeds.
    """
    est = np.array([float(doc["moments"][side][f])
                    for side in SIDES for f in MOMENTS])
    target = window_truth.mean(axis=0)
    sem = window_truth.std(axis=0, ddof=1) / math.sqrt(len(window_truth))
    err = np.abs(est - target)
    exact = err <= 1e-9 * np.abs(target)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(exact, 0.0, err / sem)
    return float(np.max(z))


class Year:
    """``estimate`` -> ``backtest`` -> ``report`` over many short days."""

    name = "year"
    setups_per_iteration = 1

    def __init__(self, n_days=25, n_steps=2000, window=20,
                 pinned=PINNED["year"]):
        self.n_days, self.n_steps, self.window = n_days, n_steps, window
        self.pinned = pinned
        self.day_cfg = SyntheticDayConfig(n_steps=n_steps,
                                          p_values=(3.8, 5.0), lam=0.01)

    def setup(self, root: Path, seed: int, tracer=None) -> dict:
        events = root / "events"
        events.mkdir(parents=True)
        n_events, truth_moments = [], []
        for d in range(self.n_days):
            if tracer is not None:
                tracer.rid = d
            # through the module, so that a traced set-up sees the call
            ev, truth = synthetic.generate_day(self.day_cfg,
                                               seed=day_seed(seed, d))
            write_events_binary(ev, events / f"day_{d:04d}.bin")
            n_events.append(len(ev))
            truth_moments.append(realized_moments(truth))
        config = _write_config(root / "config.yaml", n_steps=self.n_steps,
                               window=self.window, policies=list(POLICIES),
                               order_volume=ORDER_VOLUME,
                               **{"lambda": self.day_cfg.lam})
        return {"events": events, "config": config, "n_events": n_events,
                "truth": np.array(truth_moments), "seed": seed}

    def commands(self, inputs: dict, out: Path):
        common = ["--config", str(inputs["config"]), "--workers", "1"]
        ev = ["--events", str(inputs["events"])]
        return [
            ("estimate", ["estimate", *ev, "--out", str(out / "cal"),
                          *common]),
            ("backtest", ["backtest", *ev, "--params", str(out / "cal"),
                          "--out", str(out / "bt"), *common]),
            ("report", ["report", "--out", str(out / "bt"),
                        "--config", str(inputs["config"])]),
        ]

    def items(self, inputs: dict, walls: dict):
        n = inputs["n_events"]
        read = sum(n) + sum(n[self.window:])
        return "events_per_s", read / (walls["estimate"] + walls["backtest"])

    def check(self, inputs: dict, out: Path) -> Outcome:
        days = range(self.window, self.n_days)
        problems = []
        failed = 0
        for d in days:
            path = out / "cal" / f"params_day_{d:04d}.yaml"
            if not path.exists():
                problems.append(f"missing {path.name}")
                failed += 1
                continue
            with open(path) as fh:
                doc = yaml.load(fh, Loader=_LOADER)
            z = worst_moment_z(doc, inputs["truth"][d - self.window:d])
            if not z < Z_MAX_ESTIMATION:
                problems.append(f"{path.name}: demand moment |z| = {z:.2f}")
                failed += 1
        rows = _day_results(out / "bt" / "day_results.csv")
        for d in days:
            found = day_problems(rows, d, self.day_cfg.lam, self.n_steps)
            problems += found
            failed += bool(found)
        report = out / "bt" / "report.json"
        doc = json.loads(report.read_text()) if report.exists() else None
        if doc is None or sorted(doc["policies"]) != sorted(POLICIES) or (
                doc["n_days"] != len(days)):
            problems.append("report.json missing or wrong")
            failed += 1
        elif self.pinned and inputs["seed"] == PINNED_SEED:
            if not close_to(rows, self.pinned["day_results"]):
                problems.append("day_results.csv differs from the values "
                                f"pinned for seed {PINNED_SEED}")
                failed += 1
            if not close_to(doc, self.pinned["report"]):
                problems.append("report.json differs from the values "
                                f"pinned for seed {PINNED_SEED}")
                failed += 1
        return Outcome(ops=2 * len(days) + 1, failed=failed,
                       problems=problems)


class BigDay:
    """``solve`` then ``backtest`` on one full-length day."""

    name = "bigday"
    setups_per_iteration = 1

    def __init__(self, n_steps=19800, solve_reference=FULL_DAY_SOLVE,
                 pinned=PINNED["bigday"]):
        self.day_cfg = SyntheticDayConfig(n_steps=n_steps)
        self.solve_reference = solve_reference
        self.pinned = pinned

    def setup(self, root: Path, seed: int, tracer=None) -> dict:
        events, params = root / "events", root / "params"
        events.mkdir(parents=True)
        params.mkdir()
        if tracer is not None:
            tracer.rid = 0
        ev, truth = synthetic.generate_day(self.day_cfg,
                                           seed=day_seed(seed, 0))
        write_events_binary(ev, events / "day_0000.bin")
        save_params(truth.params, params / "params_day_0000.yaml")
        config = _write_config(root / "config.yaml", policies=list(POLICIES),
                               order_volume=ORDER_VOLUME)
        return {"events": events, "params": params, "config": config,
                "n_events": len(ev), "seed": seed}

    def commands(self, inputs: dict, out: Path):
        common = ["--config", str(inputs["config"]), "--workers", "1"]
        return [
            ("solve", ["solve", "--params",
                       str(inputs["params"] / "params_day_0000.yaml"),
                       "--out", str(out / "solve"), *common]),
            ("backtest", ["backtest", "--events", str(inputs["events"]),
                          "--params", str(inputs["params"]),
                          "--out", str(out / "bt"), *common]),
        ]

    def items(self, inputs: dict, walls: dict):
        return "events_per_s", inputs["n_events"] / walls["backtest"]

    def check(self, inputs: dict, out: Path) -> Outcome:
        n = self.day_cfg.n_steps
        solve = []
        coef = _read_rows(out / "solve" / "coefficients.csv")
        surface = _read_rows(out / "solve" / "spread_surface.csv")
        if len(coef) != n + 1 or len(surface) != n or any(
                len(r) != 5 for r in surface):
            solve.append(f"solve: {len(coef)} coefficient rows and "
                         f"{len(surface)} surface rows for {n} steps")
        else:
            step0 = [float(coef[0][11]), float(coef[0][13]),
                     *map(float, surface[0][1:])]
            if not all(math.isclose(got, want, rel_tol=SOLVE_REL_TOL)
                       for got, want in zip(step0, self.solve_reference)):
                solve.append(f"solve: step 0 alpha, g and spreads {step0} "
                             f"differ from {self.solve_reference}")
        rows = _day_results(out / "bt" / "day_results.csv")
        backtest = day_problems(rows, 0, self.day_cfg.lam, n)
        if (not backtest and self.pinned and inputs["seed"] == PINNED_SEED
                and not close_to(rows, self.pinned["day_results"])):
            backtest.append("day_results.csv differs from the values pinned "
                            f"for seed {PINNED_SEED}")
        return Outcome(ops=2, failed=bool(solve) + bool(backtest),
                       problems=solve + backtest)


class MonteCarlo:
    """``simulate`` on the symmetric two-point market of criteria 5 and 7."""

    name = "mc"
    setups_per_iteration = 2

    def __init__(self, n_paths=40_000, n_steps=200, g0_sd=(MC_G0, MC_SD),
                 pinned=PINNED["mc"]):
        self.n_paths = n_paths
        self.day_cfg = SyntheticDayConfig(n_steps=n_steps, pi_joint=0.0)
        self.g0, self.sd = g0_sd
        self.pinned = pinned

    def setup(self, root: Path, seed: int, tracer=None) -> dict:
        root.mkdir(parents=True)
        params = root / "params.yaml"
        save_params(true_market_params(self.day_cfg), params)
        config = _write_config(root / "config.yaml", n_paths=self.n_paths)
        return {"params": params, "config": config, "seed": seed}

    def commands(self, inputs: dict, out: Path):
        return [("simulate", ["simulate", "--params", str(inputs["params"]),
                              "--out", str(out / "sim"),
                              "--seed", str(inputs["seed"]),
                              "--config", str(inputs["config"]),
                              "--workers", "1"])]

    def items(self, inputs: dict, walls: dict):
        return ("path_steps_per_s",
                self.n_paths * self.day_cfg.n_steps / walls["simulate"])

    def check(self, inputs: dict, out: Path) -> Outcome:
        """The summary's g0 must be the pinned recursion value. z and the
        SD of the objective are recomputed here from its mean and se and
        checked against g0 and the pinned SD: the program's own z is not
        used."""
        path = out / "sim" / "summary.json"
        problems = []
        s = json.loads(path.read_text()) if path.exists() else None
        if s is None:
            problems.append("summary.json missing")
        elif s["n_paths"] != self.n_paths or s["seed"] != inputs["seed"]:
            problems.append("summary.json: wrong n_paths or seed")
        elif not math.isclose(s["g0"], self.g0, rel_tol=SOLVE_REL_TOL):
            problems.append(f"simulate: g0 = {s['g0']}, not {self.g0}")
        elif not (isinstance(s["se"], float) and s["se"] > 0):
            problems.append(f"simulate: se = {s['se']}")
        else:
            z = (s["mean_objective"] - self.g0) / s["se"]
            sd = s["se"] * math.sqrt(self.n_paths)
            if not abs(z) < Z_MAX_MONTE_CARLO:
                problems.append(f"simulate: z = {z} against g0")
            if not abs(sd / self.sd - 1) < MC_SD_TOL:
                problems.append(f"simulate: SD of the objective {sd}, "
                                f"not {self.sd}")
            mine = {k: s[k] for k in ("mean_objective", "se")}
            if (self.pinned and inputs["seed"] == PINNED_SEED
                    and not close_to(mine, self.pinned)):
                problems.append(f"simulate: {mine} differs from the values "
                                f"pinned for seed {PINNED_SEED}")
        return Outcome(ops=1, failed=int(bool(problems)), problems=problems)


WORKLOADS = {w.name: w for w in (Year, BigDay, MonteCarlo)}
