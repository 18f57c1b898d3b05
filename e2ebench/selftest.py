#!/usr/bin/env python3
"""Self-test of the end-to-end campaign benchmark.

    python3 e2ebench/selftest.py

Runs every workload of BENCHMARK.json at a tiny size through run.py, untraced
and traced, and checks that the result line has exactly the contract's keys,
that every end-to-end (untraced) or per-layer (traced) metric is printed with
its unit and a finite value, and that the output checks pass. Then runs one
workload with a deliberately corrupted row and checks that the output checks
catch it. Exits non-zero on the first failure.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(ROOT, "e2ebench", "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--tiny"] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise AssertionError("%s exited with %d" % (cmd, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result, expected, label):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError("%s: result keys %s" % (label, sorted(result)))
    if result["attempted"] < 1:
        raise AssertionError("%s: nothing attempted" % label)
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in expected}
    if set(got) != set(want):
        raise AssertionError("%s: metrics %s, expected %s"
                             % (label, sorted(got), sorted(want)))
    for name, unit in want.items():
        value = got[name]["value"]
        if got[name]["unit"] != unit or not math.isfinite(value):
            raise AssertionError("%s: %s = %r" % (label, name, got[name]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        for trace, expected in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            label = "%s trace=%d" % (w["name"], trace)
            result = run(w["name"], trace)
            check_metrics(result, expected, label)
            if not result["correct"] or result["failed"] != 0:
                raise AssertionError("%s: output checks failed: %s"
                                     % (label, result))
            print("ok   %s: %d rows checked" % (label, result["attempted"]))
    for trace in (0, 1):
        label = "placed_models trace=%d --corrupt-row" % trace
        result = run("placed_models", trace, "--corrupt-row")
        if result["correct"] or result["failed"] < 1:
            raise AssertionError("%s: corruption not detected: %s"
                                 % (label, result))
        print("ok   %s: %d of %d rows flagged"
              % (label, result["failed"], result["attempted"]))
    print("selftest passed")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        sys.stderr.write("selftest FAILED: %s\n" % e)
        sys.exit(1)
