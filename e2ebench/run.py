#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md).

    python3 e2ebench/run.py --workload churn --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  On first use it configures and builds
e2ebench/ (the library sources under src/ plus the benchmark program) in
Release mode into .bench_build/e2ebench/; later runs only rebuild what
changed.  It then runs the program with every SMPC_* environment knob
removed and passes the program's output and exit code through: the last
line of standard output is the JSON result.  Build output goes to
standard error.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core",
                                       "dynamic_connectivity.h")):
        sys.stderr.write("e2ebench: no library sources under %s\n"
                         % os.path.join(ROOT, "src"))
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j",
                  str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("e2ebench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    if not build():
        return 2
    env = {k: v for k, v in os.environ.items() if not k.startswith("SMPC_")}
    sys.stdout.flush()
    return subprocess.run([os.path.join(BUILD_DIR, "e2ebench")] + sys.argv[1:],
                          env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
