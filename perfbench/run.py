#!/usr/bin/env python3
"""Build and run the ESL-EV end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (which builds the library from src/) in
a Release tree under .bench_build/, then runs one workload. The last
line of standard output is the run's JSON result. Any failure to build
or run exits non-zero without printing a result.
"""

import fcntl
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench-release")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# The build uses at most three of the machine's cores.
BUILD_JOBS = "3"
# A run must end well within the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench/run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                         "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                fail("cmake configure failed")
        compile_cmd = ["cmake", "--build", BUILD_DIR, "-j", BUILD_JOBS]
        if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed")


def main():
    knobs = sorted(k for k in os.environ if k.startswith("ESLEV_"))
    if knobs:
        fail("refusing to run with %s set: every engine option is pinned "
             "in code" % ", ".join(knobs))
    build()
    try:
        run = subprocess.run([BINARY] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
