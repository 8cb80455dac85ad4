#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the xedbench program from this checkout's sources (CMake, into
.bench_build/ at the checkout root), runs one workload and prints its
result JSON as the last line of stdout:

    python3 perfbench/run.py --workload mc_fig07 --seed 1 --seconds 10 --trace 0

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "cmake")
BINARY = os.path.join(BUILD_DIR, "xedbench")
WORKLOADS = ["mc_fig07", "mc_stress", "detect_table2", "perf_fig11"]

# A run takes --seconds plus a few; cut it off well before three
# minutes. The first build in a checkout may take much longer.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def run_checked(cmd, timeout):
    """Run a build step with its output on stderr; fail on error."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        fail("failed (%d): %s" % (proc.returncode, " ".join(cmd)))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "campaign", "runner.hh")):
        fail("no XED sources next to perfbench/ (expected ../src)")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(tool + " not found")
    # Configure on every run, not only the first: the git description
    # the provenance line reports is taken at configure time.
    run_checked(["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(min(os.cpu_count() or 1, 4))
    run_checked(["cmake", "--build", BUILD_DIR, "--target", "xedbench",
                 "-j", jobs], BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    tag = "%s-seed%d" % (args.workload, args.seed)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir",
           os.path.join(BUILD_ROOT, "work", "%s-%d" % (tag, os.getpid()))]
    if args.trace:
        # One span file per workload and seed; a rerun overwrites it.
        spans = os.path.join(BUILD_ROOT, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, tag + ".jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        fail("workload %s timed out" % args.workload)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("xedbench exited with %d" % proc.returncode)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
