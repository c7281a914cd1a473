#!/usr/bin/env python3
"""Layer-ledger benchmark entry point.

Builds the ledger (the limcap libraries from src/, the limcap_serve daemon
and the ledger program) as an optimized CMake build under ledger/out/build,
then runs one workload:

    python3 ledger/run.py --workload warm_wide --seed 1 --seconds 10 --trace 0

Run it from the repository root. The last line of stdout is the run's
JSON result; build output goes to ledger/out/build.log. Exits non-zero
without a result when the sources are missing or the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
BUILD = os.path.join(OUT, "build")
WORKLOADS = ("warm_wide", "cold_plan", "fetch_fanout", "serve_mixed")


def fail(message):
    print("ledger: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("limcap sources not found at %s/src" % ROOT)
    os.makedirs(OUT, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(OUT, "build.log"), "ab") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", jobs,
                      "--target", "ledger", "limcap_serve"])
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                fail("build failed (%s); see %s/build.log"
                     % (" ".join(step[:2]), OUT))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    build()
    command = [
        os.path.join(BUILD, "ledger"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", OUT,
        "--serve-binary", os.path.join(BUILD, "limcap_serve"),
    ]
    sys.stdout.flush()
    return subprocess.call(command)


if __name__ == "__main__":
    sys.exit(main())
