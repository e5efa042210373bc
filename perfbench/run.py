#!/usr/bin/env python3
"""Builds the libcar benchmark from source and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload serve-ordinary --seed 1 \
        --seconds 15 --trace 0

The benchmark is a CMake package of its own (perfbench/CMakeLists.txt)
that compiles libcar from src/ in Release mode. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) and is reused
by later runs. The last line of standard output is the JSON result.
Build output goes to standard error. Without src/ the build fails and the
script exits with a non-zero code without printing a result.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-ordinary", "serve-dense", "cli-oneshot", "tenant-churn")
# A run measures --seconds plus a one-second warm-up, set-up and the
# answer key; anything far beyond that is a hang.
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures once, then builds incrementally. Returns the binary."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "perfbench")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    scratch = os.path.join(target, f"perfbench-run-{os.getpid()}")
    command = [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--root", ROOT, "--scratch", scratch,
        "--trace-dir", os.path.join(target, "perfbench-traces"),
    ]
    try:
        completed = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return completed.returncode


if __name__ == "__main__":
    sys.exit(main())
