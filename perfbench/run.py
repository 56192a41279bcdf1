#!/usr/bin/env python3
"""Repo benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds the simulator libraries and the benchmark program from source (CMake,
Release) into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench,
relative to the current directory), then runs one workload. The program
prints every metric with its unit and, as the last line of standard output,
one JSON object with the keys correct, attempted, failed and metrics.
Build output goes to standard error. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("paper_figures", "paper_figures_warm", "city_stream", "bloom_faults")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(root)


def run_checked(cmd, timeout, **kwargs):
    """Runs cmd to completion (killed and reaped on timeout); exits on failure."""
    try:
        done = subprocess.run(cmd, timeout=timeout, **kwargs)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")
    if done.returncode != 0:
        fail(f"exit status {done.returncode}: {' '.join(cmd)}")


def build(targets, tests):
    if not os.path.isfile(os.path.join(REPO_ROOT, "src", "CMakeLists.txt")):
        fail(f"simulator sources not found under {REPO_ROOT}/src")
    build_dir = os.path.join(build_root(), "perfbench")
    jobs = str(max(1, min(len(os.sched_getaffinity(0)), 4)))
    run_checked(
        ["cmake", "-S", BENCH_DIR, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release",
         f"-DPERFBENCH_TESTS={'ON' if tests else 'OFF'}"],
        BUILD_TIMEOUT_S, stdout=sys.stderr)
    run_checked(
        ["cmake", "--build", build_dir, "-j", jobs, "--target", *targets],
        BUILD_TIMEOUT_S, stdout=sys.stderr)
    return build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.self_test:
        build_dir = build(["perfbench_tests"], tests=True)
        binary = os.path.join(build_dir, "perfbench_tests")
        work = os.path.join(build_root(), "perfbench-work", "self-test")
        os.makedirs(work, exist_ok=True)
        run_checked([binary], 600, cwd=work)
        return 0

    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    build_dir = build(["perfbench"], tests=False)
    cmd = [
        os.path.join(build_dir, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", os.path.join(build_root(), "perfbench-work"),
        "--engine-baseline", os.path.join(REPO_ROOT, "BENCH_engine.json"),
    ]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
