#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is built with dune into .bench_build. Its result line must
report exactly the metrics BENCHMARK.json lists for the mode (end_to_end
for --trace 0, per_layer for --trace 1), with their units; this script
checks that and prints the program's output, result line last. It exits
non-zero without a result when the build, the run or that check fails.
"""

import argparse
import json
import math
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/bin/perfbench.exe"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def check_result(result, expected):
    """Problems with a result line, given the expected [{name, unit}]."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append("%s is not a whole number" % key)
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted is below 1")
    units = {m["name"]: m["unit"] for m in expected}
    metrics = result["metrics"]
    if set(metrics) != set(units):
        missing = sorted(set(units) - set(metrics))
        extra = sorted(set(metrics) - set(units))
        problems.append("metrics missing %s, unexpected %s" % (missing, extra))
    for name, m in metrics.items():
        if name not in units:
            continue
        if set(m) != {"value", "unit"} or m["unit"] != units[name]:
            problems.append("metric %s is %s, wants unit %s" % (name, m, units[name]))
        elif not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            problems.append("metric %s has no finite value" % name)
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail("unknown workload %r" % args.workload)

    env = dict(os.environ, DUNE_BUILD_DIR=BUILD_DIR)
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", TARGET],
            env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build did not finish: %s" % e)
    if build.returncode != 0:
        fail("build failed with exit code %d" % build.returncode)

    exe = os.path.join(BUILD_DIR, "default", "perfbench", "bin", "perfbench.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("benchmark did not finish: %s" % e)
    if run.returncode != 0:
        fail("benchmark exited with code %d" % run.returncode)

    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("benchmark printed no result line")
    expected = bench["per_layer" if args.trace else "end_to_end"]
    problems = check_result(result, expected)
    if problems:
        fail("result does not match BENCHMARK.json: " + "; ".join(problems))
    print("\n".join(lines))


if __name__ == "__main__":
    main()
