"""Self-test of the benchmark itself.

    python3 benchmarks/selftest.py

Run it from the root of a checkout.  It checks that

1. a short run of every workload, untraced and traced, each in its own
   process, is correct, fails no op, and prints every metric that
   BENCHMARK.json names, with its unit;
2. every oracle accepts the real result of an op and rejects a deliberately
   corrupted one (a magnitude off by one exponent, a wrong chain cost, ...);
3. without the library sources next to it, the benchmark exits with a
   nonzero code and prints no result.

Exit code 0 when all of this holds, 1 otherwise.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def short_runs(spec: dict) -> None:
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            what = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{what}: exit code {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what}: result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{what}: correct, fail_frac 0")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted[trace], f"{what}: every named metric with its unit")


def real_and_corrupt(wl, inp, corrupt, what: str) -> None:
    result = wl.op(inp)
    expect(wl.check(inp, result), f"{what}: oracle accepts the real result")
    expect(not wl.check(inp, corrupt(result)), f"{what}: oracle rejects the corrupted result")


def off_by_one(lib, v):
    return lib.AbsValue.of(1 if v.logval is None else v.logval + 1)


def _bump_first(pattern: str):
    return lambda out: re.sub(pattern, lambda m: m[0].replace(m[1], str(int(m[1]) + 1)), out, count=1)


def _bump_eval(out: str) -> str:
    if out == "0":
        return "1"
    value = Fraction(0) if out == "1" else Fraction(out[3:-1])
    return f"β^({value + 1})"


CLI_CORRUPTIONS = {
    "segments": _bump_first(r"slope (-?\d+)"),
    "theta": lambda out: str(Fraction(out) + 1),
    "zeros": lambda out: str(int(out) + 1),
    "pieces": _bump_first(r"exponent (-?\d+)"),
    "eval": _bump_eval,
    "dck": lambda out: str(Fraction(out) + 1),
    "dtree": lambda out: str(Fraction(out) + 1),
    "classify": lambda out: "projective-line" if out.strip() == "tate-curve" else "tate-curve",
    "genus": lambda out: str(int(out) + 1),
    "gromov": lambda out: out.replace("iii=True", "iii=False"),
}


def oracle_rejections(workdir: str) -> None:
    lib, wl, _ = run.set_up(workloads.TransportPuiseux, 7, f"{workdir}/transport")
    rng = inputs.rng_for(wl.name, 7, "selftest")
    inp = wl.make_input(rng, 0)
    real_and_corrupt(wl, inp, lambda r: (off_by_one(lib, r[0]),) + r[1:], "transport: image radius off by one exponent")
    real_and_corrupt(wl, inp, lambda r: r[:1] + (off_by_one(lib, r[1]),) + r[2:], "transport: point diameter off by one exponent")

    lib, wl, _ = run.set_up(workloads.MoebiusMixed, 7, f"{workdir}/moebius")
    rng = inputs.rng_for(wl.name, 7, "selftest")
    for i in range(2):
        inp = wl.make_input(rng, i)
        real_and_corrupt(wl, inp, lambda r: (off_by_one(lib, r[0]),) + r[1:], f"moebius {inp[0]}: moved derivative off by one exponent")
        real_and_corrupt(wl, inp, lambda r: r[:2] + (off_by_one(lib, r[2]),) + r[3:], f"moebius {inp[0]}: chain rule off by one exponent")
    moved = [p for points in wl.moved.values() for p in points if p.point.spec.backend == "padic"]
    expect(workloads.set_matches_dedupe(moved, set(moved)), "moebius: point set matches the pairwise dedupe")
    expect(not workloads.set_matches_dedupe(moved, moved + moved[:1]), "moebius: a duplicate left in the set is rejected")

    lib, wl, _ = run.set_up(workloads.CliBatch, 7, f"{workdir}/cli")
    rng = inputs.rng_for(wl.name, 7, "selftest")
    seen = set()
    i = 0
    while len(seen) < len(workloads.COMMANDS) and i < 1000:
        inp = wl.make_input(rng, i)
        i += 1
        command = inp[0]
        if command in seen:
            continue
        seen.add(command)
        bump = CLI_CORRUPTIONS[command]
        real_and_corrupt(wl, inp, lambda r: (r[0], bump(r[1].rstrip("\n")) + "\n", r[2]), f"cli {command}: corrupted output")
    expect(seen == set(workloads.COMMANDS), "cli: every command checked")
    real_and_corrupt(wl, inp, lambda r: (3,) + r[1:], "cli: nonzero exit code")


def without_sources(workdir: str) -> None:
    bare = Path(workdir) / "bare"
    (bare / "benchmarks").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH_DIR.glob("*.py"):
        shutil.copy(path, bare / "benchmarks")
    cmd = [sys.executable, "benchmarks/run.py", "--workload", "cli-batch", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    expect(proc.returncode != 0 and not proc.stdout.strip(), "without src/: nonzero exit and no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = tempfile.mkdtemp(prefix=".work-selftest-", dir=BENCH_DIR)
    try:
        short_runs(spec)
        oracle_rejections(workdir)
        without_sources(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
