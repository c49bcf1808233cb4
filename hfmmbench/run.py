"""hfmm benchmark: runs one workload through the real ``hfmm`` CLI.

    python3 hfmmbench/run.py --workload {year,bigday,mc,all} --seed N
                             [--seconds S] [--trace 0|1]

Run it from the root of a checkout. Inputs are made from ``--seed``; each
command runs as its own process with ``--workers 1``, one after another
(a closed loop with one client). The workload's command chain repeats until
``--seconds`` have been measured, at least twice, and every repetition's
outputs are checked. The last line printed is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is 0 only when every check passed.

With ``--trace 1`` the chain alternates traced and untraced repetitions and
the metrics are the per-layer ones (see README.md).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import yaml

from stats import median, tail_summary
from tracer import (COUNTERS, SETUP_SPECS, Tracer, accounting_errors,
                    call_latencies, layer_metrics, now_ns)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".hfmmbench-work"
HARD_LIMIT_S = 170.0

# Metrics on the JSON line, as BENCHMARK.json names them. Every name must
# exist on every workload, so per-command timings, throughputs and the
# per-layer times of layers some workload leaves idle are printed above it
# instead (see README.md).
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
UNITS = {m["name"]: m["unit"]
         for m in SPEC["end_to_end"] + SPEC["per_layer"]}
COUNT_SUFFIXES = (".calls", "_ratio") + tuple("." + c for c in COUNTERS)


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(COUNT_SUFFIXES):
        return "count"
    if ".us_per_" in name:
        return "us"
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_pct", "%")):
        if name.endswith(suffix):
            return unit
    return ""


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("HFMM_")}
    # The commands make no BLAS call large enough to use a second thread,
    # but numpy's and scipy's idle BLAS pools spin on the other core and add
    # CPU time that depends on whether that core is free.
    env["OPENBLAS_NUM_THREADS"] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_command(argv, log_path: Path, timeout: float) -> dict:
    """Run one process to its end and return its exit code, launch and
    exit times (monotonic ns) and CPU seconds."""
    with open(log_path, "wb") as log:
        launch = now_ns()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = now_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "launch": launch, "exit": end,
            "wall": (end - launch) / 1e9,
            "cpu": usage.ru_utime + usage.ru_stime}


def digest_tree(path: Path) -> dict:
    return {str(p.relative_to(path)):
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.rglob("*")) if p.is_file()}


def command_spans(label: str, run: dict, doc: dict, base: int) -> list:
    """The child's spans under a root span for the whole command process and
    a start-up span from launch until ``import hfmm.cli`` returned."""
    root, off = base, base + 1
    spans = [{"id": root, "parent": None, "name": f"cli.{label}", "rid": None,
              "start": run["launch"], "end": run["exit"]},
             {"id": off, "parent": root, "name": "cli.startup", "rid": None,
              "start": run["launch"], "end": doc["import_done"]}]
    for s in doc["spans"]:
        s = dict(s, id=s["id"] + off)
        s["parent"] = root if s["parent"] is None else s["parent"] + off
        spans.append(s)
    return spans


def run_iteration(wl, inputs: dict, out: Path, traced: bool,
                  deadline: float) -> dict:
    out.mkdir(parents=True)
    it = {"traced": traced, "walls": {}, "cpu": 0.0, "rss_mb": 0.0,
          "spans": [], "counts": {}, "problems": []}
    runs = []
    for label, args in wl.commands(inputs, out):
        stem = out.parent / f"{out.name}-{label}"
        report = stem.with_suffix(".report.json")
        argv = [sys.executable, str(HERE / "launch.py"), str(report),
                str(int(traced)), *args]
        run = run_command(argv, stem.with_suffix(".log"),
                          deadline - time.monotonic())
        runs.append(run)
        it["walls"][label] = run["wall"]
        it["cpu"] += run["cpu"]
        if run["code"] != 0:
            it["problems"].append(f"{label} exited with {run['code']}")
            break
        doc = json.loads(report.read_text())
        report.unlink()
        it["rss_mb"] = max(it["rss_mb"], doc["peak_rss_kb"] / 1024)
        if traced:
            base = max((s["id"] for s in it["spans"]), default=0) + 1
            it["spans"] += command_spans(label, run, doc, base)
            for k, v in doc["counts"].items():
                it["counts"][k] = it["counts"].get(k, 0) + v
    it["wall"] = (runs[-1]["exit"] - runs[0]["launch"]) / 1e9
    outcome = wl.check(inputs, out)
    it["ops"], it["failed"] = outcome.ops, outcome.failed
    it["problems"] += outcome.problems
    if traced:
        it["problems"] += accounting_errors(it["spans"])
    if not it["problems"]:
        it["items"] = wl.items(inputs, it["walls"])
    it["digest"] = digest_tree(out)
    shutil.rmtree(out)
    return it


# ---------------------------------------------------------------------------
# One workload run
# ---------------------------------------------------------------------------

def set_up(wl, root: Path, seed: int, tracer) -> tuple:
    """Make the inputs in ``root``; returns them, the seconds it took and,
    when tracing, the set-up's spans."""
    shutil.rmtree(root, ignore_errors=True)
    if tracer is not None:
        tracer.spans = []
    start = time.perf_counter()
    inputs = wl.setup(root, seed, tracer)
    elapsed = time.perf_counter() - start
    # Write the inputs back now: otherwise the kernel flushes them about
    # 30 s later, in the middle of the measured repetitions.
    for path in root.rglob("*"):
        if path.is_file():
            with open(path, "rb") as fh:
                os.fsync(fh.fileno())
    return inputs, elapsed, None if tracer is None else tracer.spans


def repeat_problems(samples, what: str) -> list:
    """Counts must repeat exactly across traced samples of one seed."""
    def counts(m):
        return {k: v for k, v in m.items() if k.endswith(COUNT_SUFFIXES)}
    first = counts(samples[0])
    return [f"{what} counts differ between traced samples: {k}"
            for m in samples[1:] for k in sorted(set(first) | set(counts(m)))
            if first.get(k) != counts(m).get(k)]


def run_workload(wl, seed: int, seconds: float, trace: bool,
                 work: Path) -> dict:
    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer() if trace else None
    restore = tracer.install(SETUP_SPECS) if trace else (lambda: None)
    setup_times, setup_samples = [], []

    def timed_set_up(root: Path) -> dict:
        inputs, elapsed, spans = set_up(wl, root, seed, tracer)
        setup_times.append(elapsed)
        if trace:
            setup_samples.append(spans)
        return inputs

    iters = []
    measured = 0.0
    min_iters = 3 if trace else 2
    try:
        inputs = timed_set_up(work / "inputs")
        while True:
            traced = trace and len(iters) % 2 == 0
            it = run_iteration(wl, inputs, work / f"it{len(iters)}", traced,
                               deadline)
            iters.append(it)
            measured += it["wall"]
            # Set-up is timed again after every repetition, into a directory
            # that is thrown away, so that its median spans the machine's
            # changes in speed over the run, as the other medians do.
            for _ in range(wl.setups_per_iteration):
                timed_set_up(work / "again")
            shutil.rmtree(work / "again")
            if time.monotonic() + 1.5 * it["wall"] > deadline or (
                    len(iters) >= min_iters
                    and measured + it["wall"] > seconds):
                break
    finally:
        restore()

    reference = iters[0]["digest"]
    for k, it in enumerate(iters[1:], 1):
        changed = sorted(set(reference.items()) ^ set(it["digest"].items()))
        if changed:
            it["problems"].append(
                f"outputs differ from the first repetition: "
                f"{sorted({name for name, _ in changed})}")
    for it in iters:
        if it["problems"]:
            it["failed"] = it["ops"]

    result = {"workload": wl.name, "seed": seed, "trace": int(trace),
              "setup_times": setup_times,
              "iterations": [{k: v for k, v in it.items()
                              if k not in ("spans", "digest")}
                             for it in iters],
              "attempted": sum(it["ops"] for it in iters),
              "failed": sum(it["failed"] for it in iters),
              "problems": [p for it in iters for p in it["problems"]]}
    if trace:
        result.update(trace_metrics(iters, setup_samples, result["problems"]))
        result["spans"] = [dict(s, sample=k) for k, it in enumerate(iters)
                           for s in it["spans"]]
    else:
        result["metrics"], result["printed"] = e2e_metrics(iters, setup_times)
    result["correct"] = not result["problems"] and result["failed"] == 0
    result["elapsed_s"] = time.monotonic() - started
    return result


def e2e_metrics(iters, setup_times):
    good = [it for it in iters if not it["problems"]] or iters
    series = {"setup_s": setup_times,
              "wall_s": [it["wall"] for it in good],
              "cpu_s": [it["cpu"] for it in good],
              "peak_rss_mb": [it["rss_mb"] for it in good]}
    for label in good[0]["walls"]:
        series[f"{label}_s"] = [it["walls"][label] for it in good]
    if "items" in good[0]:
        name = good[0]["items"][0]
        series[name] = [it["items"][1] for it in good]
    attempted = sum(it["ops"] for it in iters)
    failed = sum(it["failed"] for it in iters)
    metrics = {name: median(series[name]) for name in END_TO_END}
    printed = {name: summary(values) for name, values in series.items()}
    printed["fail_ratio"] = {"median": failed / attempted, "n": attempted}
    return metrics, printed


def summary(values) -> dict:
    out = {"median": median(values), "n": len(values)}
    tail = tail_summary(values)
    if tail is not None:
        out["tail_pct"], out["tail"] = tail
    return out


def trace_overhead(walls) -> float:
    """Traced minus untraced wall time, from repetitions that alternate
    traced (even positions) and untraced (odd positions).

    Each untraced repetition is compared with the mean of the traced ones
    beside it, and the median of those differences is taken. The machine's
    speed drifts over a run; a difference of the two medians would keep
    that drift, while neighbours cancel it.
    """
    diffs = []
    for k in range(1, len(walls), 2):
        beside = walls[k - 1:k + 2:2]
        diffs.append(sum(beside) / len(beside) - walls[k])
    return median(diffs)


def trace_metrics(iters, setup_samples, problems) -> dict:
    traced = [it for it in iters if it["traced"]]
    samples = [layer_metrics(it["spans"], it["counts"]) for it in traced]
    setup = [layer_metrics(spans, {}) for spans in setup_samples]
    problems += repeat_problems(samples, "command")
    problems += repeat_problems(setup, "set-up")
    layers = {k: median([m.get(k, 0.0) for m in samples])
              for k in set().union(*samples)}
    layers.update({k: median([m.get(k, 0.0) for m in setup])
                   for k in set().union(*setup)})
    layers["trace.overhead_s"] = trace_overhead([it["wall"] for it in iters])
    layers.update(call_latencies([it["spans"] for it in traced]))
    metrics = {k: layers.get(k, 0.0) for k in PER_LAYER}
    return {"metrics": metrics, "layers": dict(sorted(layers.items()))}


# ---------------------------------------------------------------------------
# Machine record and output
# ---------------------------------------------------------------------------

def git_commit():
    """HEAD of the checkout, or None where it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def machine(seed: int) -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src = hashlib.sha256()
    for p in sorted((ROOT / "src" / "hfmm").glob("*.py")):
        src.update(p.name.encode() + p.read_bytes())
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "pyyaml": yaml.__version__,
            "libyaml": bool(getattr(yaml, "__with_libyaml__", False)),
            "git_commit": git_commit(), "src_sha256": src.hexdigest(),
            "seed": seed, "loadavg_start": os.getloadavg()}


def report(result: dict) -> None:
    print(f"# workload {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}  {result['elapsed_s']:.1f} s")
    print("# machine " + json.dumps(result["machine"], sort_keys=True))
    if result["trace"]:
        print("# per-layer metric  unit  median over traced repetitions")
        for name, value in result["layers"].items():
            print(f"{name:48s} {unit_of(name):6s} {value:.6g}")
    else:
        print("# end-to-end metric  unit  median  tail  repetitions")
        for name, s in result["printed"].items():
            tail = (f"p{s['tail_pct']:g}={s['tail']:.6g}" if "tail" in s
                    else "tail n/a (needs >=20)")
            print(f"{name:20s} {unit_of(name):6s} {s['median']:.6g}  "
                  f"{tail}  n={s['n']}")
    for p in result["problems"]:
        print(f"# CHECK FAILED: {p}")
    print(f"# checks {'passed' if result['correct'] else 'FAILED'}: "
          f"{result['failed']} of {result['attempted']} operations failed")


def write_result(result: dict) -> None:
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
    spans = result.pop("spans", None)
    if spans is not None:
        with open(out / f"{stem}-spans.jsonl", "w") as fh:
            for s in spans:
                fh.write(json.dumps(s) + "\n")
    (out / f"{stem}.json").write_text(json.dumps(result, indent=1,
                                                 sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (ROOT / "src" / "hfmm" / "cli.py").is_file():
        print(f"hfmmbench: no hfmm sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    import hfmm.cli  # noqa: F401  (compiles the package before timing)

    results = []
    for name in names:
        info = machine(args.seed)
        result = run_workload(WORKLOADS[name](), args.seed, args.seconds,
                              bool(args.trace), WORK / name)
        info["loadavg_end"] = os.getloadavg()
        result["machine"] = info
        report(result)
        write_result(result)
        results.append(result)
    if len(results) == 1:
        metrics = {k: {"value": v, "unit": unit_of(k)}
                   for k, v in results[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}.{k}": {"value": v, "unit": unit_of(k)}
                   for r in results for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
