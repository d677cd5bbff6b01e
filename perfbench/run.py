#!/usr/bin/env python3
"""Build the benchmark from the source tree it sits in, then run it.

    python3 perfbench/run.py --workload server-epoll --seed 1 --seconds 10 --trace 0

Run from the root of the source tree.  The arguments go to the benchmark
program unchanged; its last line of output is the JSON result.  The
build is a release build under _perfbench_build/, kept apart from the
development build in _build/, with dune's shared cache off so that
nothing is written outside the tree.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = "_perfbench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "main.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    for need in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no %s next to perfbench/: run from a full source tree" % need)
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--profile", "release",
             "--cache", "disabled", "--build-dir", BUILD_DIR,
             "./perfbench/main.exe"],
            cwd=ROOT, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if build.returncode != 0:
        fail("build failed with status %d" % build.returncode)
    try:
        run = subprocess.run([EXE] + sys.argv[1:], cwd=ROOT, timeout=175)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within 175 s")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
