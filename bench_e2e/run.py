#!/usr/bin/env python3
"""Builds bench_e2e from source and runs it with the given arguments.

Run from the repository root:

    python3 bench_e2e/run.py --workload unique-batch16 --seed 1 --seconds 20 --trace 0

The build goes to .bench_build (or $CARGO_TARGET_DIR when set) and is
incremental, so only the first run pays for it. Build output goes to stderr,
so the last line of stdout is the benchmark's JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build, "--target", "bench_e2e", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("bench_e2e: build failed: " + " ".join(step), file=sys.stderr)
            return 1
    sys.stdout.flush()
    return subprocess.run([os.path.join(build, "bench_e2e")] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
