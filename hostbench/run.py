#!/usr/bin/env python3
"""Build and run hostbench from the root of a source checkout.

    python3 hostbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 hostbench/run.py --selftest

The benchmark is built from source (hostbench/CMakeLists.txt builds the
libraries it needs from src/) into .bench_build/hostbench under the
checkout root; later runs rebuild only what changed. Build output goes
to standard error, so the last line of standard output is the
benchmark's JSON result. A --trace 1 run leaves its spans in
.bench_build/hostbench/spans.csv. The exit code is the benchmark's, or
nonzero when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")
JOBS = str(min(4, os.cpu_count() or 1))


def build(target):
    """Configure (once) and build @target; True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("hostbench: no program sources under src/", file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", target,
                  "-j", JOBS])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            print("hostbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main(argv):
    if argv == ["--selftest"]:
        target = "hostbench_selftest"
        args = []
    else:
        target = "hostbench"
        args = argv + ["--spans", os.path.join(BUILD, "spans.csv")]
    if not build(target):
        return 1
    sys.stdout.flush()
    return subprocess.run([os.path.join(BUILD, target)] + args,
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
