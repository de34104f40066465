#!/usr/bin/env python3
"""Build and run the SmartBlock benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds the runtime library and the benchmark program from
source into .bench_build/perfbench (incrementally after the first run), then
runs one workload.  Build output goes to standard error; the benchmark's report
goes to standard output, whose last line is one JSON object.  The workloads
and metrics are described in perfbench/README.md.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "sb_perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: runtime sources (src/) not found next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "sb_perfbench", "-j", "3"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    build()
    sys.stdout.flush()
    sys.exit(subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
