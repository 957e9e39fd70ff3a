#!/usr/bin/env python3
"""Self-tests of the repository benchmark. Run from the repository root:

    python3 perfbench/selftest.py

- BENCHMARK.json is well formed: exact keys, valid and unique names and
  units, directions and bounds. run.py also rejects any run whose printed
  metrics differ from it, and every workload runs here in both modes.
- Determinism: one seed twice gives identical deterministic metrics (cost
  ratios and loads; traced, messages and events per op, plus allocations
  per op on the single-threaded workloads) and the same answer digest;
  another seed gives another digest.
- The sweep's figure tables are byte-identical at 1 worker and at one
  worker per allowed CPU. Every sweep run checks this itself: it runs the
  figures once through the pool and every timed, serial repetition must
  reproduce them, or the run fails; every workload runs here.

Exits 0 when every check passes.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
WORKLOADS = ("fleet", "locate", "cluster", "sweep")
SINGLE_THREADED = ("fleet", "locate")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
DETERMINISTIC = ("maint_cost_ratio", "query_cost_ratio", "node_load_max",
                 "node_load_mean")
TRACED_COUNTS = ("proto.msgs_per_op", "sim.events_per_op")
ALLOC_COUNTS = ("proto.allocs_per_op", "proto.alloc_bytes_per_op")

failures = []


def check(condition, message):
    if not condition:
        failures.append(message)


def run(workload, seed, trace):
    """One short run; returns (detail, {metric: value}) or (None, {})."""
    command = RUN + ["--workload", workload, "--seed", str(seed),
                     "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          check=False, cwd=ROOT)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or len(lines) < 2:
        failures.append("%s exited with code %d"
                        % (" ".join(command[1:]), done.returncode))
        return None, {}
    detail = json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])
    return detail, {name: m["value"] for name, m in result["metrics"].items()}


def check_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
          "workload names")
    names = []
    for kind in ("end_to_end", "per_layer"):
        keys = {"name", "unit", "better"}
        if kind == "end_to_end":
            keys.add("bound")
        for metric in spec[kind]:
            name = metric.get("name", "?")
            check(set(metric) == keys, "%s: keys %s" % (name, sorted(metric)))
            check(NAME.fullmatch(name) is not None, "bad name " + name)
            check(UNIT.fullmatch(metric.get("unit", "")) is not None,
                  "bad unit for " + name)
            check(metric.get("better") in ("higher", "lower"),
                  "bad direction for " + name)
            if kind == "end_to_end":
                check(0 < metric.get("bound", 0) <= 0.25,
                      "bad bound for " + name)
            names.append(name)
    check(len(names) == len(set(names)), "metric names repeat")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s"
          and setup[0]["better"] == "lower", "setup_s declaration")
    check(bool(setup) and setup[0]["bound"] ==
          max(m["bound"] for m in spec["end_to_end"]),
          "setup_s must have the largest bound")


def check_workload(workload):
    first, first_metrics = run(workload, 1, 0)
    again, again_metrics = run(workload, 1, 0)
    other, _ = run(workload, 2, 0)
    if first and again and other:
        check(first["digest"] == again["digest"],
              workload + ": one seed gave two digests")
        check(first["digest"] != other["digest"],
              workload + ": two seeds gave one digest")
        for name in DETERMINISTIC:
            check(first_metrics[name] == again_metrics[name],
                  "%s: %s differs between runs of one seed"
                  % (workload, name))
    traced, traced_metrics = run(workload, 1, 1)
    traced_again, traced_again_metrics = run(workload, 1, 1)
    if traced and traced_again:
        counts = TRACED_COUNTS
        if workload in SINGLE_THREADED:
            counts += ALLOC_COUNTS
        for name in counts:
            check(traced_metrics[name] == traced_again_metrics[name],
                  "%s: %s differs between traced runs of one seed"
                  % (workload, name))


def main():
    check_spec()
    for workload in WORKLOADS:
        check_workload(workload)
    if len(os.sched_getaffinity(0)) == 1:
        print("note: one CPU allowed, so the sweep compares one worker "
              "with one worker")
    for failure in failures:
        print("FAIL", failure)
    print("selftest: %d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
