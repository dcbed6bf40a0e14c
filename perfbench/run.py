#!/usr/bin/env python3
"""Builds the layer-ledger benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload uni_mix --seed 1 --seconds 10 --trace 0

The engine libraries and the ledger are compiled with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench, relative to the
current directory); later runs reuse that build. Build output goes to
stderr, so the ledger's JSON result stays the last line of stdout. Every
argument is passed through to the ledger (see perfbench/GLOSSARY.md).
"""

import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("perfbench: engine sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return 2
    build = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                         "perfbench")
    binary = os.path.join(build, "perfbench_ledger")
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        configure = ["cmake", "-S", here, "-B", build,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build, "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print("perfbench: build timed out", file=sys.stderr)
            return 3
        if done.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 3
    sys.stdout.flush()
    try:
        done = subprocess.run([binary] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 4
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
