"""In-memory span tracer for the hfmm benchmark.

The tracer wraps public functions of the ``hfmm`` modules from outside the
package. The CLI imports most of them by name (``from .lob import replay``),
so a function is replaced at every ``hfmm`` module attribute bound to it, not
only in the module that defines it.

A span records a name, start and end (``CLOCK_MONOTONIC`` nanoseconds, which
are comparable across processes), the span that was open when it started,
and a request id: the day index where the call belongs to one day. Spans are
kept in a list and written out by the caller when the work is done.
"""

from __future__ import annotations

import functools
import os
import re
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

from stats import median, tail_summary

# Counters a span may carry; they are summed per span name.
COUNTERS = ("bytes", "events", "valid", "sides", "steps", "fills", "quotes",
            "path_steps")

_DAY = re.compile(r"day_(\d+)")


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def day_from_path(path) -> int | None:
    m = _DAY.search(os.path.basename(str(path)))
    return int(m.group(1)) if m else None


@dataclass(frozen=True)
class Spec:
    """One wrapped function.

    ``name`` is the metric name, or a callable of (args, kwargs) for names
    that depend on an argument. ``rid`` extracts the request id from the
    arguments; a span without one inherits the last id set. ``counters``
    maps (args, kwargs, result) to counter values. A ``count_only`` wrapper
    records no span, only the number of calls: it guards hot inner calls.
    """

    module: str
    func: str
    name: str | Callable | None = None
    rid: Callable | None = None
    counters: Callable | None = None
    count_only: bool = False

    def metric(self) -> str:
        return self.name or f"{self.module.rsplit('.', 1)[-1]}.{self.func}"


def _no_day(args, kwargs):
    return None


CLI_SPECS = (
    Spec("hfmm.lob", "read_events_binary",
         rid=lambda a, k: day_from_path(a[0]),
         counters=lambda a, k, r: {"bytes": int(r.nbytes)}),
    Spec("hfmm.lob", "replay",
         counters=lambda a, k, r: {"events": len(a[0])}),
    Spec("hfmm.lob", "fill_quantity", count_only=True),
    Spec("hfmm.estimation", "estimate_day", rid=lambda a, k: int(a[1]),
         counters=lambda a, k, r: {
             "valid": int(r.valid_plus.sum() + r.valid_minus.sum()),
             "sides": int(r.ind_plus.sum() + r.ind_minus.sum())}),
    Spec("hfmm.estimation", "rolling_params", rid=lambda a, k: int(a[0])),
    Spec("hfmm.estimation", "compute_break_errors",
         name="estimation.break_screen", rid=_no_day),
    Spec("hfmm.estimation", "structural_break_flags",
         name="estimation.break_screen", rid=_no_day),
    Spec("hfmm.model", "load_params", rid=lambda a, k: day_from_path(a[0]),
         counters=lambda a, k, r: {"bytes": os.path.getsize(a[0])}),
    Spec("hfmm.model", "save_params", rid=lambda a, k: day_from_path(a[1]),
         counters=lambda a, k, r: {"bytes": os.path.getsize(a[1])}),
    Spec("hfmm.solver", "backward_pass",
         counters=lambda a, k, r: {"steps": int(a[0].grid.n_steps)}),
    Spec("hfmm.solver", "table_to_csv"),
    Spec("hfmm.solver", "optimal_spreads", count_only=True),
    Spec("hfmm.backtest", "run_day",
         name=lambda a, k: f"backtest.run_day.{a[1].name}",
         rid=lambda a, k: k.get("day_id"),
         counters=lambda a, k, r: {"fills": int(r.fills),
                                   "quotes": 2 * int(a[0].grid.n_steps)}),
    Spec("hfmm.backtest", "subsample_bootstrap_ci", rid=_no_day),
    Spec("hfmm.simulator", "monte_carlo_value",
         counters=lambda a, k, r: {
             "path_steps": int(a[2]) * int(a[1].params.grid.n_steps)}),
    Spec("hfmm.simulator", "run_episode"),
)

SETUP_SPECS = (
    Spec("hfmm.synthetic", "generate_day",
         counters=lambda a, k, r: {"events": len(r[0])}),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.rid = None
        self._stack = []
        self._next_id = 1

    def _span_wrapper(self, fn, spec: Spec):
        tracer = self
        name = spec.metric()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if spec.rid is not None:
                tracer.rid = spec.rid(args, kwargs)
            sid = tracer._next_id
            tracer._next_id += 1
            span = {"id": sid,
                    "parent": tracer._stack[-1] if tracer._stack else None,
                    "name": name(args, kwargs) if callable(name) else name,
                    "rid": tracer.rid}
            tracer._stack.append(sid)
            span["start"] = now_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = now_ns()
                tracer._stack.pop()
                tracer.spans.append(span)
            if spec.counters is not None:
                span.update(spec.counters(args, kwargs, result))
            return result

        return wrapper

    def _count_wrapper(self, fn, spec: Spec):
        counts = self.counts
        name = spec.metric()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, specs) -> Callable[[], None]:
        """Wrap every loaded ``hfmm`` attribute bound to a spec's function.

        Specs whose module is not imported are skipped. Returns a function
        that puts the original functions back.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "hfmm" or n.startswith("hfmm."))]
        undo = []
        for spec in specs:
            home = sys.modules.get(spec.module)
            if home is None:
                continue
            fn = getattr(home, spec.func)
            if spec.count_only:
                wrapper = self._count_wrapper(fn, spec)
            else:
                wrapper = self._span_wrapper(fn, spec)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        undo.append((mod, attr, fn))

        def restore():
            for mod, attr, fn in undo:
                setattr(mod, attr, fn)

        return restore


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def self_times(spans) -> dict:
    """Span id -> its duration minus the part of it that its children cover.

    Child intervals are clipped to the parent and merged, so overlapping
    children are not subtracted twice.
    """
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children[s["id"]]):
            lo, hi = max(lo, s["start"]), min(hi, s["end"])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = s["end"] - s["start"] - covered
    return out


def accounting_errors(spans) -> list:
    """For every root span, the self times of its tree must add up to the
    root's duration exactly. That holds only when every parent exists and
    children nest inside their parent without overlapping."""
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)
    totals = defaultdict(int)
    problems = []
    for s in spans:
        root = s
        while root["parent"] is not None:
            if root["parent"] not in by_id:
                problems.append(f"span {s['name']} has a missing parent")
                break
            root = by_id[root["parent"]]
        totals[root["id"]] += selfs[s["id"]]
    for s in spans:
        if s["parent"] is None and totals[s["id"]] != s["end"] - s["start"]:
            problems.append(
                f"{s['name']}: self times sum to {totals[s['id']]} ns, "
                f"wall is {s['end'] - s['start']} ns")
    return problems


def layer_metrics(spans, counts) -> dict:
    """Per-name calls, self seconds and counters for one traced sample,
    plus the derived per-unit costs and ratios."""
    selfs = self_times(spans)
    out = defaultdict(float)
    for s in spans:
        name = s["name"]
        if name == "cli.startup":
            out["cli.startup_s"] += (s["end"] - s["start"]) / 1e9
            continue
        out[name + ".calls"] += 1
        out[name + ".self_s"] += selfs[s["id"]] / 1e9
        if name.startswith("cli."):
            out["cli.self_s"] += selfs[s["id"]] / 1e9
        if name.startswith("backtest.run_day."):
            out["backtest.run_day.calls"] += 1
            for key in ("fills", "quotes"):
                out["backtest.run_day." + key] += s[key]
        for key in COUNTERS:
            if key in s:
                out[f"{name}.{key}"] += s[key]
    for name, n in counts.items():
        out[name + ".calls"] += n
    out = dict(out)
    for name, num, den, scale in (
            ("lob.replay.us_per_event", "lob.replay.self_s",
             "lob.replay.events", 1e6),
            ("solver.backward_pass.us_per_step",
             "solver.backward_pass.self_s", "solver.backward_pass.steps", 1e6),
            ("estimation.estimate_day.valid_ratio",
             "estimation.estimate_day.valid", "estimation.estimate_day.sides",
             1.0)):
        if out.get(den):
            out[name] = scale * out[num] / out[den]
    # all policies together and each policy on its own
    for quotes in [k for k in out if k.endswith(".quotes")]:
        if out[quotes]:
            base = quotes[:-len(".quotes")]
            out[base + ".fill_ratio"] = out[base + ".fills"] / out[quotes]
    return out


def call_latencies(samples) -> dict:
    """Per-name median latency of single calls (inclusive, ms), pooled over
    traced samples, for names with at least 20 calls; and the tail latency
    where enough calls leave a percentile above the median."""
    durs = defaultdict(list)
    for spans in samples:
        for s in spans:
            durs[s["name"]].append((s["end"] - s["start"]) / 1e6)
    out = {}
    for name, values in durs.items():
        tail = tail_summary(values)
        if tail is not None:
            out[name + ".p50_ms"] = median(values)
        if tail is not None and tail[0] > 50:
            out[name + ".ptail_pct"], out[name + ".ptail_ms"] = tail
    return out
