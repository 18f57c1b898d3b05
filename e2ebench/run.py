#!/usr/bin/env python3
"""End-to-end campaign benchmark of the NoC bit-transition reproduction.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds this directory's CMake package
(which builds the repository's libraries) into .bench_build/, then:

  --trace 0  measures set-up time over several launches of e2e_campaign,
             runs the workload untraced for --seconds and reports
             the end-to-end metrics of BENCHMARK.json;
  --trace 1  runs the workload with a traced replay of its rows and reports
             the per-layer metrics.

The last stdout line is one JSON object with exactly the keys correct,
attempted, failed and metrics. The workloads and why each was chosen are
described in e2e_campaign.cpp. --tiny shrinks every workload for the
self-test (selftest.py); --corrupt-row perturbs one row so the self-test
can show the output checks fail.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("placed_models", "window_sweep", "coopt_shared_cache")

# setup_s is the median over this many launches of e2e_campaign, each timed
# from process spawn until it is about to request its first row.
SETUP_LAUNCHES = 15

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")


def build():
    """Configure (once) and build e2e_campaign; returns its path."""
    build_dir = os.path.join(BUILD_ROOT, "e2ebench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "e2ebench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                timeout=850).returncode
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise RuntimeError("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "e2e_campaign")


def setup_seconds(bench_args):
    """Median launch-to-first-row time over SETUP_LAUNCHES launches."""
    samples = []
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        proc = subprocess.Popen(bench_args + ["--setup-only"],
                                stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError("setup launch failed")
        samples.append(elapsed)
    return statistics.median(samples)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--corrupt-row", action="store_true")
    args = ap.parse_args()

    program = build()
    work_dir = os.path.join(BUILD_ROOT, "work",
                            "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    bench_args = [program, "--workload", args.workload, "--seed",
                   str(args.seed), "--seconds", str(args.seconds),
                   "--work-dir", work_dir]
    if args.tiny:
        bench_args.append("--tiny")
    try:
        setup_s = None if args.trace else setup_seconds(bench_args)
        run_args = bench_args + (["--trace"] if args.trace else [])
        if args.corrupt_row:
            run_args.append("--corrupt-row")
        proc = subprocess.run(run_args, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        raise RuntimeError("e2e_campaign exited with %d" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    out = json.loads(lines[-1])
    metrics = out["metrics"]
    if setup_s is not None:
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
    print(json.dumps({"correct": out["failed"] == 0,
                      "attempted": out["attempted"],
                      "failed": out["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except (RuntimeError, OSError, subprocess.SubprocessError,
            ValueError) as e:
        sys.stderr.write("e2ebench: %s\n" % e)
        sys.exit(1)
