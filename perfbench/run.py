#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the repository root (any directory works; paths are resolved from
this file). The first call configures and builds the engine and the benchmark
program with CMake into .bench_build/ at the repository root; later calls only
rebuild what changed. Build output goes to stderr; the last stdout line is
the program's JSON result. The exit status is the program's: non-zero when
a correctness check fails, or when the build fails (no result is printed
then). With --trace 1 the spans are written to .bench_build/traces/.

--all runs every workload once (untraced) and prints each one's end-to-end
metrics and attempted/failed counts, exiting non-zero if any check failed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["oltp_wire", "olap_mix", "adhoc_plan"]
DEFAULT_SEED = 1
HOLDOUT_SEED = 20261016
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            return False
    return os.path.exists(BINARY)


def run_one(workload, seed, seconds, trace):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, workload + ".tsv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stderr.write("perfbench: %s timed out\n" % workload)
        if e.stdout:
            sys.stderr.write(e.stdout if isinstance(e.stdout, str)
                             else e.stdout.decode())
        return 1, None
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if result is None or set(result) != {"correct", "attempted", "failed",
                                         "metrics"}:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("perfbench: %s printed no result (exit %d)\n"
                         % (workload, proc.returncode))
        return proc.returncode or 1, None
    return proc.returncode, (lines[:-1], result)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload and --all")
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        ap.error("--seed must be >= 0 and --seconds in 1..600")
    if not build():
        sys.stderr.write("perfbench: build failed\n")
        return 2

    if args.workload:
        code, out = run_one(args.workload, args.seed, args.seconds, args.trace)
        if out is None:
            return code
        human, result = out
        print("\n".join(human))
        print(json.dumps(result))
        return 0 if code == 0 and result["correct"] else 1

    worst = 0
    for w in WORKLOADS:
        code, out = run_one(w, args.seed, args.seconds, 0)
        if out is None:
            worst = max(worst, code or 1)
            continue
        human, result = out
        print("\n".join(human))
        worst = max(worst, 0 if code == 0 and result["correct"] else 1)
    return worst


if __name__ == "__main__":
    sys.exit(main())
