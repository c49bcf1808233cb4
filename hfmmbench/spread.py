"""Run-to-run spread of the end-to-end metrics.

    python3 hfmmbench/spread.py [--sets 1]

Runs ``run.py`` ten times on each workload of BENCHMARK.json, one run at a
time, each with another seed (100, 101, ...). Then it prints for every
end-to-end metric, ``setup_s`` included, the median of the runs and the
distance between their first and third quartiles as a share of that median,
next to the metric's bound from BENCHMARK.json. A spread under a third of
the bound leaves room for the run-to-run noise of a shared machine. With
``--sets 2`` or more, each set runs every workload in turn, and each later
set's medians are compared with the first set's: a median worse by more
than the bound would fail the benchmark's comparison of two runs of the same
code. The exit code is 1 when a run failed or a limit was crossed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import median, quartile_spread

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
FIRST_SEED = 100


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "hfmmbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1]) if lines else {"correct": False,
                                                "metrics": {}}
    ok = proc.returncode == 0 and last["correct"]
    values = {k: m["value"] for k, m in last["metrics"].items()}
    print(f"{workload} seed {seed}: "
          + ("" if ok else "RUN FAILED ")
          + ", ".join(f"{k}={v:.4g}" for k, v in values.items()), flush=True)
    return {"ok": ok, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sets", type=int, default=1)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    ok = True
    medians = {}
    seed = FIRST_SEED
    for set_no in range(1, args.sets + 1):
        for workload in workloads:
            values = {}
            for _ in range(RUNS):
                run = run_once(workload, seed, spec["run_seconds"])
                seed += 1
                ok &= run["ok"]
                for name, v in run["values"].items():
                    values.setdefault(name, []).append(v)
            for name, vals in values.items():
                spread, mid = quartile_spread(vals), median(vals)
                limit = bounds[name] / 3
                flag = "" if spread < limit else "  TOO WIDE"
                line = (f"set {set_no} {workload:8s} {name:14s} "
                        f"median {mid:12.6g}  spread {spread:.4f}  "
                        f"bound/3 {limit:.4f}{flag}")
                first = medians.setdefault((workload, name), mid)
                if set_no > 1:
                    worse = (mid - first) / first
                    if better[name] == "higher":
                        worse = -worse
                    moved = ("  WORSE THAN BOUND" if worse > bounds[name]
                             else "")
                    flag += moved
                    line += f"  vs set 1 {worse:+.4f} worse{moved}"
                ok &= not flag
                print(line, flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
