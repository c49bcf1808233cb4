"""Run one ``hfmm`` CLI command for the benchmark and report on it.

Usage: python3 launch.py REPORT_JSON TRACE HFMM_ARGS...

The command runs as ``python3 -m hfmm.cli HFMM_ARGS...`` would. With TRACE
set to 1 the benchmark's tracer is installed first. When the command ends,
REPORT_JSON receives the moment ``import hfmm.cli`` finished, the process's
peak resident memory and, when tracing, the spans and call counts. The exit
code is the command's.

The peak is the process's own ``VmHWM``. The ``ru_maxrss`` the parent gets
from ``wait4`` is no use here: a child inherits its parent's peak at exec,
and the benchmark's own process is large after generating a long day.
"""

import json
import sys
import time

import hfmm.cli

IMPORT_DONE_NS = time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def peak_rss_kb() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    report_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    spans, counts = [], {}
    if trace:
        from tracer import CLI_SPECS, Tracer
        tracer = Tracer()
        tracer.install(CLI_SPECS)
        spans, counts = tracer.spans, tracer.counts
    code = 1
    try:
        code = hfmm.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(
            exc.code is not None)
    finally:
        with open(report_path, "w") as fh:
            json.dump({"import_done": IMPORT_DONE_NS,
                       "peak_rss_kb": peak_rss_kb(), "spans": spans,
                       "counts": dict(counts)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
