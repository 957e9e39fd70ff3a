#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 10 --trace 0

Run it from the repository root. The first run compiles perfbench/, and
with it the library sources in src/, into .bench_build/perfbench; later
runs reuse that build. The script then runs the measuring binary
(mot_perfbench for --trace 0, the allocation-counting
mot_perfbench_traced for --trace 1), checks that the metric names and
units it printed are exactly the ones BENCHMARK.json declares for the
mode (end_to_end for --trace 0, per_layer for --trace 1), and prints the
result as one JSON object on the last line of standard output.

Exit codes: 0 when every correctness check passed; 1, after the result
line, when one failed; 2, without a result line, when the build, the
binary or the metric check failed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
# The measuring binary for --trace 0 and for --trace 1.
BINARIES = ("mot_perfbench", "mot_perfbench_traced")
WORKLOADS = ("fleet", "locate", "cluster", "sweep")
# A run measures for --seconds plus a warm-up and one last repetition;
# past this the binary is stuck, and it is killed.
RUN_TIMEOUT_S = 170


def fail(message):
    sys.stderr.write("run.py: %s\n" % message)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources next to perfbench/; "
             "run from a repository checkout")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--parallel", jobs,
                  "--target", *BINARIES])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build step failed: " + " ".join(step))


def declared_units(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as spec:
        metrics = json.load(spec)["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in metrics}


def main():
    parser = argparse.ArgumentParser(
        description="Run one workload of the repository benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds in (0, 120]")

    build()
    command = [os.path.join(BUILD_DIR, BINARIES[args.trace]),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("the benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(done.stdout)
        fail("the benchmark exited with code %d and printed no result"
             % done.returncode)

    metrics = raw["metrics"]
    printed = {name: metric["unit"] for name, metric in metrics.items()}
    declared = declared_units(args.trace)
    if printed != declared:
        fail("printed metrics differ from BENCHMARK.json: %s"
             % sorted(set(printed.items()) ^ set(declared.items())))

    for line in lines[:-1]:
        print(line)
    print(json.dumps({"detail": raw["detail"]}))
    print(json.dumps({"correct": raw["correct"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    sys.exit(0 if raw["correct"] and done.returncode == 0 else 1)


if __name__ == "__main__":
    main()
