#!/usr/bin/env python3
"""Builds the embed-and-serve benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload oag-large --seed 1 --seconds 20 --trace 0

The build goes to .bench_build/perfbench (configured on first use, then
brought up to date on every run); build output goes to stderr. The
benchmark binary runs from the repository root, writes its stores and
traces under .bench_out/, and prints the result JSON as the last line of
stdout. The exit code is the binary's, or 3 when the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 3
    exe = os.path.join(BUILD, "perfbench")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
