"""Run one berkline benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the library from ``src/``.
The workload runs as a closed loop with one client in this single process:
each op starts when the previous one and its oracle check are done.  Only
the op is timed; input generation and the oracle are not.

``--trace 0`` runs for S seconds and reports the end-to-end metrics.
``--trace 1`` runs the first ops of the seed untraced, replays the same ops
with every layer wrapped, checks that both runs agree op for op, and reports
the per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import calibration
import inputs
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

SETUP_REPEATS = 5  # set-up runs this often per process; setup_s is the median
WINDOW_NS = 250_000_000  # op time between two reference passes
SMOOTH = 3  # a window's scale uses the reference passes up to this many windows away
TRACE_OPS = {"transport-puiseux": 600, "moebius-mixed": 256, "cli-batch": 600}
MAX_TRACEBACKS = 3


def fresh_import():
    """Import berkline from scratch, so every set-up pays the import."""
    for name in [n for n in sys.modules if n == "berkline" or n.startswith("berkline.")]:
        del sys.modules[name]
    lib = importlib.import_module("berkline")
    importlib.import_module("berkline.documents")
    importlib.import_module("berkline.cli")
    if Path(lib.__file__).resolve().parent != (SRC / "berkline").resolve():
        raise ImportError(f"berkline imported from {lib.__file__}, not from {SRC}")
    return lib


class Tally:
    """What a stretch of ops did: latencies, failures, untimed overheads."""

    def __init__(self) -> None:
        self.latencies: list[int] = []
        self.scale: list[float] = []  # per op: REF_NS over its window's reference pass time
        self.cals: list[int] = []  # reference pass times; window k lies between cals k and k+1
        self.window_ends: list[int] = []  # op count at the end of each window
        self.attempted = 0
        self.failed = 0
        self.oracle_ns = 0
        self.input_ns = 0
        self.tracebacks = 0


def run_ops(
    wl,
    rng,
    tally: Tally,
    max_ops: int | None,
    deadline: float,
    keep: list | None = None,
    calibrate: bool = False,
) -> None:
    """Closed loop: generate an input, time the op, check it; repeat until
    ``max_ops`` ops or the deadline (at least one op always runs).  With
    ``calibrate``, a reference pass is timed around every window of about
    WINDOW_NS of op time, and the ops get the scale factors of their windows."""
    clock = time.perf_counter_ns
    if calibrate:
        tally.cals.append(calibration.measure())
    window_ns = 0
    i = 0
    while True:
        t0 = clock()
        inp = wl.make_input(rng, i)
        t1 = clock()
        try:
            result = wl.op(inp)
            raised = False
        except Exception:
            raised = True
        t2 = clock()
        if raised:
            result = None
            if tally.tracebacks < MAX_TRACEBACKS:
                tally.tracebacks += 1
                traceback.print_exc(file=sys.stderr)
        ok = not raised and wl.check(inp, result)
        t3 = clock()
        tally.latencies.append(t2 - t1)
        tally.input_ns += t1 - t0
        tally.oracle_ns += t3 - t2
        tally.attempted += 1
        tally.failed += not ok
        if keep is not None:
            keep.append((inp, result))
        i += 1
        window_ns += t2 - t1
        last = (max_ops is not None and i >= max_ops) or time.perf_counter() >= deadline
        if calibrate and (last or window_ns >= WINDOW_NS):
            tally.cals.append(calibration.measure())
            tally.window_ends.append(len(tally.latencies))
            window_ns = 0
        if last:
            break
    if not wl.finish():
        print("oracle: a multi-op check failed", file=sys.stderr)
        tally.failed += 1
    if calibrate:
        tally.scale = window_scales(tally.cals, tally.window_ends)


def window_scales(cals: list[int], window_ends: list[int]) -> list[float]:
    """Per-op scale factors.  Window k takes the median of the reference
    passes within SMOOTH windows of it, which follows drifts of the host's
    speed but not the noise of a single pass."""
    scale: list[float] = []
    start = 0
    for k, end in enumerate(window_ends):
        near = cals[max(0, k - SMOOTH + 1) : k + SMOOTH + 1]
        scale.extend([calibration.REF_NS / statistics.median(near)] * (end - start))
        start = end
    return scale


def set_up(cls, seed: int, workdir: str):
    """One set-up: import, build the workload's inputs, warm up.  The
    warm-up inputs do not depend on the seed, so neither does set-up work."""
    lib = fresh_import()
    os.makedirs(workdir)
    wl = cls(lib, seed, workdir)
    wl.setup()
    warm = Tally()
    run_ops(wl, inputs.rng_for(wl.name, 0, "warmup"), warm, wl.warmup_ops, math.inf)
    wl.reset()
    wl.shape.clear()
    return lib, wl, warm


def percentile_ms(sorted_ns: list[int], q: float) -> float:
    """Nearest-rank percentile of sorted nanosecond samples, in ms."""
    rank = max(1, math.ceil(q * len(sorted_ns)))
    return sorted_ns[rank - 1] / 1e6


def end_to_end(tally: Tally, setup_s: list[float]) -> dict:
    lat = sorted(ns * f for ns, f in zip(tally.latencies, tally.scale))
    return {
        "ops_per_s": (len(lat) / (sum(lat) / 1e9), "1/s"),
        "op_p50_ms": (statistics.median(lat) / 1e6, "ms"),
        "op_p99_ms": (percentile_ms(lat, 0.99), "ms"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def run(cls, args, workdir: str) -> dict:
    setup_raw, setup_scaled = [], []
    warm_attempted = warm_failed = 0
    cal = calibration.measure()
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        lib, wl, warm = set_up(cls, args.seed, os.path.join(workdir, f"setup-{k}"))
        elapsed = time.perf_counter() - t0
        cal_after = calibration.measure()
        setup_raw.append(elapsed)
        setup_scaled.append(elapsed * 2 * calibration.REF_NS / (cal + cal_after))
        cal = cal_after
        warm_attempted += warm.attempted
        warm_failed += warm.failed
    gc.collect()
    rng = inputs.rng_for(wl.name, args.seed, "ops")
    tally = Tally()
    tally.attempted += warm_attempted  # warm-up ops are checked too
    tally.failed += warm_failed
    report: dict = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    if not args.trace:
        run_ops(wl, rng, tally, None, time.perf_counter() + args.seconds, calibrate=True)
        metrics = end_to_end(tally, setup_scaled)
        raw = sorted(tally.latencies)
        report["raw"] = {
            "ops_per_s": len(raw) / (sum(raw) / 1e9),
            "op_p50_ms": statistics.median(raw) / 1e6,
            "op_p99_ms": percentile_ms(raw, 0.99),
            "setup_s": statistics.median(setup_raw),
        }
        report["scale_median"] = statistics.median(tally.scale)
        correct = tally.failed == 0
    else:
        import spans

        kept: list = []
        run_ops(wl, rng, tally, TRACE_OPS[wl.name], time.perf_counter() + args.seconds / 3, kept)
        wl.reset()
        tracer = spans.Tracer()
        tracer.install(lib)
        mismatched = 0
        try:
            for k, (inp, result) in enumerate(kept):
                try:
                    again = tracer.run_op(k, wl.op, inp)
                except Exception:
                    again = None
                mismatched += again != result
        finally:
            tracer.uninstall()
        self_ns = tracer.self_times()
        errors = tracer.bookkeeping_errors(self_ns)
        for line in errors:
            print(f"trace bookkeeping: {line}", file=sys.stderr)
        if mismatched:
            print(f"trace: {mismatched} ops returned a different result when traced", file=sys.stderr)
        metrics = tracer.layer_metrics(self_ns, sum(tally.latencies))
        report.update(traced_ops=len(kept), spans=len(self_ns), mismatched=mismatched, bookkeeping_ok=not errors)
        correct = tally.failed == 0 and mismatched == 0 and not errors
    lat_n = len(tally.latencies)
    report.update(
        ops=lat_n,
        p99_samples_beyond=lat_n - math.ceil(0.99 * lat_n),
        fail_frac=tally.failed / tally.attempted,
        op_s=sum(tally.latencies) / 1e9,
        oracle_s=tally.oracle_ns / 1e9,
        input_s=tally.input_ns / 1e9,
        input_shape=wl.shape_report(),
    )
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    print("report " + json.dumps(report, sort_keys=True, default=str))
    return {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="berkline benchmark: one workload per process")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "berkline" / "__init__.py").is_file():
        print(f"run.py: no library sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("BERKLINE_MAX_CHAIN", None)  # the chain budget would change dck/dtree
    workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
    try:
        result = run(workloads.WORKLOADS[args.workload], args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
