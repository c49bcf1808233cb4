"""Command-line entry point: solve | simulate | estimate | backtest | report.

Configuration precedence: command-line flags > HFMM_* environment variables >
config-file values > built-in defaults. The default seed is 12345; all
randomness in a run flows from the single configured seed, so repeated runs
with identical inputs produce byte-identical outputs.

Exit codes: 0 success, 1 invalid inputs or total failure, 2 missing
parameter/config file or event files, 3 empty report. A failed check raises
_Fatal, which ``main`` prints to stderr and returns as the exit code.
"""

from __future__ import annotations

import argparse
import bisect
import csv as _csv
import json
import operator
import os
import sys
from dataclasses import replace
from itertools import chain
from pathlib import Path

import numpy as np
import yaml

from . import backtest as bt
from .estimation import (compute_break_errors, estimate_day, rolling_params,
                         structural_break_flags)
from .lob import (BOOK_LEVELS, BookError, read_events_binary, read_events_csv,
                  replay)
from .model import (MarketParams, TimeGrid, joint_bounds, load_params,
                    save_params, validate_params)
from .simulator import (DemandDistribution, PriceModel, SimMarket,
                        TwoPointIndependent, monte_carlo_value, run_episode)
from .solver import (backward_pass, optimal_spreads, table_to_csv,
                     write_csv_rows)

DEFAULT_SEED = 12345
ENV_PREFIX = "HFMM_"

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_MISSING_PARAMS = 2
EXIT_EMPTY_REPORT = 3

# What a bad day raises: a malformed event or params file, a degenerate
# calibration or solve, an unreadable file. Anything else is a programming
# error and ends the run, under any --workers.
_DAY_ERRORS = (BookError, ValueError, ArithmeticError, OSError)


class _Fatal(Exception):
    """A failed check that ends the command: (exit code, message)."""


# ---------------------------------------------------------------------------
# Configuration plumbing
# ---------------------------------------------------------------------------

# The kinds of config value, as an error names them, and the kind of each
# list kind's entries.
INT, REAL, PATH, POLICY = "integer", "finite real", "path", "policy name"
REALS = "list of finite reals"
POLICIES = "non-empty list of distinct policy names"
_ENTRY = {REALS: REAL, POLICIES: POLICY}

# Every key a config file may hold: (kind, default, bounds, the help of its
# flag or None). A key with a flag is also set by HFMM_<KEY>. A key with no
# default must be set, except a path, which is then None.
CONFIG_KEYS = {
    "params": (PATH, None, (), "parameter file (solve/simulate) or "
                               "calibrated params dir (backtest)"),
    "events": (PATH, None, (), "event file directory"),
    "out": (PATH, "out", (), "output directory"),
    "seed": (INT, DEFAULT_SEED, ((">=", 0),),
             f"base random seed (default {DEFAULT_SEED})"),
    "workers": (INT, 1, (), "parallel day workers"),
    "lambda": (REAL, 0.0005, ((">=", 0),), "inventory penalty override"),
    "window": (INT, 20, ((">=", 1),), "rolling window (days)"),
    "policies": (POLICIES, ["optimal_forecast", "optimal_martingale",
                            "fixed_level_1", "fixed_level_2",
                            "fixed_level_3"], (),
                 "comma-separated policy list"),
    "n_paths": (INT, 10000, ((">=", 1),), None),
    "S0": (REAL, 100.0, (), None),
    "pi11_grid": (REALS, [0.0, 0.05, 0.1, 0.2], (), None),
    "inventory_grid": (REALS, [0.0], (), None),
    "n_steps": (INT, None, ((">=", 1),), None),
    "level_depth": (INT, 10, ((">=", 2),), None),
    "tick_size": (REAL, 1.0, ((">", 0),), None),
    "step_seconds": (REAL, 1.0, ((">", 0),), None),
    "session_start_ns": (INT, 10 ** 9, (), None),
    "break_quantile": (REAL, 0.95, ((">", 0), ("<", 1)), None),
    "order_volume": (INT, bt.DEFAULT_ORDER_VOLUME, ((">=", 1),), None),
    "results": (PATH, None, (), None),
    "break_flags": (PATH, None, (), None),
}
# What a flag or HFMM_* text, or a checked number, is read as, by kind
_CAST = {INT: int, REAL: float, PATH: str,
         POLICIES: operator.methodcaller("split", ",")}
_BOUND = {">": operator.gt, ">=": operator.ge, "<": operator.lt}


def load_run_config(args) -> dict:
    """The config values that were set: config file <- environment <-
    flags; _Fatal for a missing or bad config file or HFMM_* value."""
    cfg = {}
    config_path = args.config or os.environ.get(ENV_PREFIX + "CONFIG")
    if config_path:
        if not Path(config_path).exists():
            raise _Fatal(EXIT_MISSING_PARAMS,
                         f"config file not found: {config_path}")
        bad = f"invalid config: {config_path}:"
        try:
            with open(config_path) as fh:
                doc = yaml.safe_load(fh) or {}
        except (yaml.YAMLError, UnicodeDecodeError) as exc:
            raise _Fatal(EXIT_FAILURE, f"{bad} not a readable YAML file: "
                                       f"{exc}") from None
        if not isinstance(doc, dict):
            raise _Fatal(EXIT_FAILURE, f"{bad} config file is not a mapping")
        for key in doc:
            if key not in CONFIG_KEYS:
                raise _Fatal(EXIT_FAILURE, f"{bad} unknown key {key!r}")
        cfg.update(doc)
    for key, (kind, _, _, flag) in CONFIG_KEYS.items():
        if flag is None:
            continue
        var, cast = ENV_PREFIX + key.upper(), _CAST[kind]
        if var in os.environ:
            try:
                cfg[key] = cast(os.environ[var])
            except ValueError:
                raise _Fatal(EXIT_FAILURE, f"invalid config: {var}="
                             f"{os.environ[var]!r} is not a valid "
                             f"{cast.__name__}") from None
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    return cfg


def _read(kind, key, v, bounds=()):
    """v as a value of ``kind`` within ``bounds``, a policy name as its
    Policy; else ValueError(what ``key`` needs, the first bad value, and
    for a policy name the reason it was refused)."""
    why = ()
    if kind in (INT, REAL):
        if not (isinstance(v, bool)
                or not isinstance(v, int if kind == INT else (int, float))
                or kind == REAL and not abs(v) <= sys.float_info.max
                or not all(_BOUND[op](v, b) for op, b in bounds)):
            return _CAST[kind](v)
    elif kind == PATH:
        if isinstance(v, str):
            return v
    elif kind == POLICY and isinstance(v, str):
        try:
            policy = bt.Policy.named(v)
        except ValueError as exc:
            why = exc.args
        else:
            if policy.level <= BOOK_LEVELS:
                return policy
            why = (f"the replay keeps {BOOK_LEVELS} levels a side",)
    elif kind in _ENTRY and isinstance(v, list) and (v or kind == REALS):
        got = [_read(_ENTRY[kind], f"{key}[{i}]", x) for i, x in enumerate(v)]
        if kind == REALS or len(set(v)) == len(v):
            return got
    need = " and ".join(f"{op} {b}" for op, b in bounds)
    article = "an" if kind == INT else "a"
    raise ValueError(f"{article} {kind} {key} {need}".rstrip(), v, *why)


def _checked(command, cfg, *keys):
    """{key: value} for each key, read by its kind from cfg or else from
    its default; _Fatal at the first bad value, as '<command> needs ...,
    not v'."""
    got = {}
    for key in keys:
        kind, default, bounds, _ = CONFIG_KEYS[key]
        v = cfg.get(key, default)
        try:
            got[key] = (None if v is None and kind == PATH and key not in cfg
                        else _read(kind, key, v, bounds))
        except ValueError as exc:
            what, bad, *why = exc.args
            raise _Fatal(EXIT_FAILURE, ": ".join(
                [f"{command} needs {what}, not {bad!r}", *why])) from None
    return got


def _load_params(command, cfg, path) -> MarketParams:
    """The params file at ``path``, with the configured lambda if one is
    set; _Fatal with exit 2 when it is missing and 1 when it is bad."""
    if not path or not Path(path).exists():
        raise _Fatal(EXIT_MISSING_PARAMS,
                     f"parameter file not found: {path!r}")
    try:
        p = load_params(path)
    except ValueError as exc:
        raise _Fatal(EXIT_FAILURE, f"invalid params: {exc}") from None
    if "lambda" in cfg:
        p = replace(p, lam=_checked(command, cfg, "lambda")["lambda"])
    violations = validate_params(p)
    if violations:
        raise _Fatal(EXIT_FAILURE, "\n".join(f"invalid params: {v}"
                                             for v in violations))
    return p


def _outdir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _read_events(path: Path):
    if path.suffix == ".csv":
        return read_events_csv(path)
    return read_events_binary(path)


def _day_files(s, *dirs):
    """The event files in directory s["events"], in day order; _Fatal with
    exit 2 when it or the directory of another key in ``dirs`` is unset or
    missing, or when it holds no event file."""
    for key in ("events", *dirs):
        if s[key] is None or not Path(s[key]).is_dir():
            raise _Fatal(EXIT_MISSING_PARAMS,
                         f"{key} directory not found: {s[key]!r}")
    files = sorted(p for p in Path(s["events"]).iterdir()
                   if p.suffix in (".bin", ".csv"))
    if not files:
        raise _Fatal(EXIT_MISSING_PARAMS, f"no event files in {s['events']}")
    return files


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_solve(cfg) -> int:
    s = _checked("solve", cfg, "params", "out", "pi11_grid", "inventory_grid")
    p = _load_params("solve", cfg, s["params"])
    out = _outdir(s["out"])
    table = backward_pass(p)
    table_to_csv(table, out / "coefficients.csv")

    pi11_grid, inv_grid = s["pi11_grid"], s["inventory_grid"]
    arr = p.arrivals
    bounds = joint_bounds(arr.pi_plus, arr.pi_minus)
    # the variants differ from p only in pi_joint: one sweep per distinct
    # one, dropped once its spread sums are taken; cells are formatted as
    # the rows are written
    sums, columns = {}, []
    for pi11 in pi11_grid:
        pj = np.clip(np.full_like(arr.pi_plus, pi11), *bounds)
        if (key := pj.tobytes()) not in sums:
            t = (table if key == arr.pi_joint.tobytes() else backward_pass(
                replace(p, arrivals=replace(arr, pi_joint=pj))))
            sums[key] = [np.add(*optimal_spreads(t, slice(None), I)).tolist()
                         for I in inv_grid]
            del t
        columns += sums[key]
    header = ["k"] + [f"spread_pi11_{pi11}_I_{I}"
                      for pi11 in pi11_grid for I in inv_grid]
    # no cell holds a comma, quote or line break
    write_csv_rows(out / "spread_surface.csv", chain([header], zip(
        map(str, range(p.grid.n_steps)),
        *(map("{:.10f}".format, c) for c in columns))))
    print(f"wrote {out / 'coefficients.csv'} and {out / 'spread_surface.csv'}")
    return EXIT_OK


def cmd_simulate(cfg) -> int:
    s = _checked("simulate", cfg, "params", "out", "n_paths", "seed", "S0")
    p = _load_params("simulate", cfg, s["params"])
    mom = p.moments
    for name, side in (("plus", mom.plus), ("minus", mom.minus)):
        for key in ("mu_p", "mu_p2"):
            if getattr(side, key) is None:
                raise _Fatal(EXIT_FAILURE, f"simulate needs moments.{name}."
                             f"{key} in the parameter file {s['params']}")
    out = _outdir(s["out"])
    table = backward_pass(p)
    demand = DemandDistribution(
        plus=TwoPointIndependent.from_mean_var(
            mom.plus.mu_c, mom.plus.mu_c2 - mom.plus.mu_c ** 2,
            mom.plus.mu_p, mom.plus.mu_p2 - mom.plus.mu_p ** 2),
        minus=TwoPointIndependent.from_mean_var(
            mom.minus.mu_c, mom.minus.mu_c2 - mom.minus.mu_c ** 2,
            mom.minus.mu_p, mom.minus.mu_p2 - mom.minus.mu_p ** 2))
    market = SimMarket(params=p, demand=demand,
                       price=PriceModel(S0=s["S0"]))
    policy = bt.Policy.named("optimal_martingale", table)
    n_paths, seed = s["n_paths"], s["seed"]
    (mean, se) = monte_carlo_value(policy, market, n_paths, seed)
    g0 = float(table.g[0])
    summary = {
        "n_paths": n_paths,
        "seed": seed,
        "mean_objective": mean,
        "se": se if n_paths > 1 else None,
        "g0": g0,
        "z": (mean - g0) / se if n_paths > 1 and se > 0 else None,
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    # the sample episode is path 0 of the run summarised above
    ep = run_episode(policy, market, np.random.SeedSequence(seed).spawn(1)[0])
    with open(out / "episode0.csv", "w", newline="") as fh:
        w = _csv.writer(fh)
        w.writerow(["k", "S", "W", "I", "L_plus", "L_minus",
                    "Q_plus", "Q_minus"])
        for k in range(p.grid.n_steps):
            w.writerow([k, ep.S[k], ep.W[k], ep.I[k], ep.L_plus[k],
                        ep.L_minus[k], ep.Q_plus[k], ep.Q_minus[k]])
    print(f"mean={mean:.6f} se={se:.6f} g0={g0:.6f}")
    return EXIT_OK


def cmd_estimate(cfg) -> int:
    s = _checked("estimate", cfg, "events", "out", "n_steps", "window",
                 "level_depth", "tick_size", "step_seconds",
                 "session_start_ns", "lambda", "break_quantile")
    files = _day_files(s)
    out = _outdir(s["out"])
    # an earlier run's files would pass for this run's: backtest reads every
    # params file it finds, and report the break flags
    for stale in [*out.glob("params_day_*.yaml"), out / "break_flags.json"]:
        stale.unlink(missing_ok=True)
    tick = s["tick_size"]
    grid = TimeGrid(n_steps=s["n_steps"], step_seconds=s["step_seconds"],
                    session_start_ns=s["session_start_ns"])
    window, lam = s["window"], s["lambda"]
    store = []
    failures = 0
    for i, path in enumerate(files):
        try:
            rep = replay(_read_events(path), grid, tick_size=tick)
            store.append(estimate_day(rep, i, level_depth=s["level_depth"],
                                      tick_size=tick))
        except _DAY_ERRORS as exc:
            print(f"day {path.name} failed: {exc}", file=sys.stderr)
            failures += 1
    if not store:
        raise _Fatal(EXIT_FAILURE, "all days failed")
    # Day i is calibrated on the last ``window`` estimated days before it
    # and named by its file index, so a failed day shifts nothing.
    day_ids = [d.day_id for d in store]
    n_params = 0
    for i in range(len(files)):
        prior = bisect.bisect_left(day_ids, i)
        if prior < window:
            continue
        try:
            p = rolling_params(prior, store, window=window, lam=lam,
                               tick_size=tick, step_seconds=grid.step_seconds,
                               session_start_ns=grid.session_start_ns)
        except _DAY_ERRORS as exc:  # e.g. a side with no valid interval
            print(f"params for day {i} failed: {exc}", file=sys.stderr)
            failures += 1
            continue
        save_params(p, out / f"params_day_{i:04d}.yaml")
        n_params += 1
    if len(store) > window:
        ids, ep, em, ej = compute_break_errors(store, window=window)
        flagged = structural_break_flags(ids, ep, em, ej,
                                         q=s["break_quantile"])
        with open(out / "break_flags.json", "w") as fh:
            json.dump({"flagged": [int(d) for d in flagged]}, fh)
    print(f"estimated {len(store)} days, wrote {n_params} parameter files, "
          f"{failures} failures")
    return EXIT_OK


def _backtest_one_day(task):
    """Worker: (day, params file, events file, policies, order volume) ->
    (day, rows, error); the optimal policies quote from the day's solved
    params, a params file that breaks a model rule fails its day, and a
    failed day gets an incomplete row per policy, in any process."""
    day_idx, params_path, events_path, policies, order_volume = task
    try:
        p = load_params(params_path)
        violations = validate_params(p)
        if violations:
            raise ValueError(f"{params_path}: " + "; ".join(violations))
        events = _read_events(Path(events_path))
        rep = replay(events, p.grid, tick_size=p.tick_size)
        table = (backward_pass(p) if any(not pol.level for pol in policies)
                 else None)
        rows = []
        for pol in policies:
            r = bt.run_day(p, replace(pol, table=table), rep, day_id=day_idx,
                           order_volume=order_volume)
            rows.append([day_idx, pol.name, r.objective, r.liquidation_value,
                         r.W_T, r.I_T, r.S_T, r.fills, int(r.incomplete)])
    except _DAY_ERRORS as exc:  # one bad day must not end the sweep
        nan = float("nan")
        return day_idx, [[day_idx, pol.name, nan, nan, nan, nan, nan, 0, 1]
                         for pol in policies], repr(exc)
    return day_idx, rows, None


def cmd_backtest(cfg) -> int:
    s = _checked("backtest", cfg, "events", "params", "out", "policies",
                 "order_volume", "workers")
    files = _day_files(s, "params")
    out = _outdir(s["out"])
    tasks = []
    for i, path in enumerate(files):
        pp = Path(s["params"]) / f"params_day_{i:04d}.yaml"
        if pp.exists():
            tasks.append((i, str(pp), str(path), s["policies"],
                          s["order_volume"]))
    if not tasks:
        raise _Fatal(EXIT_FAILURE, "no days with calibrated parameters")
    if s["workers"] > 1:
        # imported here: it loads multiprocessing, which no other path needs
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=s["workers"]) as pool:
            outcomes = list(pool.map(_backtest_one_day, tasks))
    else:
        outcomes = [_backtest_one_day(task) for task in tasks]
    failures = [(day, error) for day, _, error in outcomes
                if error is not None]
    for day, error in failures:
        print(f"day {day} failed: {error}", file=sys.stderr)
    if len(failures) == len(tasks):
        raise _Fatal(EXIT_FAILURE, "all days failed")
    with open(out / "day_results.csv", "w", newline="") as fh:
        w = _csv.writer(fh)
        w.writerow(["day", "policy", "objective", "liquidation_value",
                    "W_T", "I_T", "S_T", "fills", "incomplete"])
        for _, rows, _ in outcomes:  # in day order
            w.writerows(rows)
    print(f"backtested {len(outcomes)} days "
          f"({len(failures)} failures) -> {out / 'day_results.csv'}")
    return EXIT_OK


def cmd_report(cfg) -> int:
    s = _checked("report", cfg, "out", "seed", "results", "break_flags")
    out = _outdir(s["out"])
    results_path = Path(s["results"] or out / "day_results.csv")
    if not results_path.exists():
        raise _Fatal(EXIT_EMPTY_REPORT,
                     f"results file not found: {results_path}")
    by_policy, flagged, where = {}, set(), results_path
    flags_path = Path(s["break_flags"] or out / "break_flags.json")
    try:
        with open(results_path, newline="") as fh:
            r = _csv.reader(fh)
            next(r, None)
            for row in filter(None, r):
                where = f"{results_path}: line {r.line_num}"
                day, name, obj, liq, W, I, S, fills, incomplete = row
                by_policy.setdefault(name, []).append(bt.DayResult(
                    day_id=int(day), objective=float(obj),
                    liquidation_value=float(liq), W_T=float(W),
                    I_T=float(I), S_T=float(S), fills=int(fills),
                    incomplete=bool(int(incomplete))))
        where = flags_path
        if flags_path.exists():
            with open(flags_path) as fh:
                doc = json.load(fh)
            flagged = doc.get("flagged", []) if isinstance(doc, dict) else 0
            # type, not isinstance: a bool is an int, and no day
            if not (isinstance(flagged, list)
                    and all(type(d) is int for d in flagged)):
                raise ValueError('expected {"flagged": [day, ...]}')
            flagged = set(flagged)
    except ValueError as exc:
        raise _Fatal(EXIT_FAILURE,
                     f"invalid report input: {where}: {exc}") from None
    if all(r.incomplete for rows in by_policy.values() for r in rows):
        raise _Fatal(EXIT_EMPTY_REPORT, "empty report")
    report = bt.summarize(dict(sorted(by_policy.items())), flagged,
                          bootstrap_seed=s["seed"])
    bt.report_to_csv(report, out / "report.csv")
    bt.report_to_json(report, out / "report.json")
    print(f"wrote {out / 'report.csv'} and {out / 'report.json'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hfmm",
        description="Discrete-time market-making engine: solve, simulate, "
                    "calibrate, backtest, report.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("solve", "simulate", "estimate", "backtest", "report"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="YAML run configuration file")
        for key, (kind, _, _, flag) in CONFIG_KEYS.items():
            if flag is not None:
                sp.add_argument(f"--{key}", type=_CAST[kind], help=flag)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "solve": cmd_solve,
        "simulate": cmd_simulate,
        "estimate": cmd_estimate,
        "backtest": cmd_backtest,
        "report": cmd_report,
    }[args.command]
    try:
        return handler(load_run_config(args))
    except _Fatal as exc:
        code, message = exc.args
        print(message, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
