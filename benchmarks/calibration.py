"""Machine-speed calibration for a shared, noisy host.

On a host whose cores are shared with other tenants, the same Python code
runs up to 1.7 times slower from one minute to the next, so raw op times
spread far more between runs than any change worth detecting.  The runner
therefore times a fixed pure-Python reference pass before and after each
window of ops and scales the window's times by ``REF_NS`` over the measured
pass time: every reported time is the time the op would take on a machine
where one reference pass takes ``REF_NS``.  The pass uses none of berkline's
code, so a change to the library moves the scaled times exactly as it moves
the raw ones.  Raw times are reported next to the scaled ones.

The pass mixes the kinds of work the workloads do: building and running an
argparse parser, a JSON round trip, string formatting and exact Fractions.
Of the passes tried, this one tracked the slowdowns of both the CLI and the
Fraction-heavy workloads best.
"""

from __future__ import annotations

import argparse
import json
import time
from fractions import Fraction

# One reference pass at reference speed: the median of 300 measurements on a
# 2-core Xeon with Python 3.11.7.
REF_NS = 2_700_000


def reference_pass() -> int:
    parser = argparse.ArgumentParser(prog="reference")
    sub = parser.add_subparsers(dest="command")
    for name in ("eval", "theta", "dck", "genus"):
        p = sub.add_parser(name)
        p.add_argument("input")
        p.add_argument("--json", action="store_true")
        p.add_argument("--at")
    lines = []
    for i in range(20):
        args = parser.parse_args(["theta", f"doc-{i}.json", f"--at={i}/3"])
        doc = json.loads(json.dumps({"terms": [str(Fraction(i, 7) + Fraction(1, i + 2)), args.at, [i] * 5]}))
        lines.append(" ".join(f"[{x}]" for x in doc["terms"][2]))
    return len(lines)


def measure() -> int:
    """Nanoseconds of one reference pass: the fastest of three, so a pass
    interrupted by the scheduler does not count."""
    best = None
    for _ in range(3):
        t0 = time.perf_counter_ns()
        reference_pass()
        dt = time.perf_counter_ns() - t0
        best = dt if best is None else min(best, dt)
    return best
