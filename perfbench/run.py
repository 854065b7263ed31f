#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

    python3 perfbench/run.py --workload train|live \
        --seed N --seconds S --trace 0|1

Run from the repository root. The program is built with CMake from
perfbench/CMakeLists.txt into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); the first run builds, later runs only check that
the build is current. Build output goes to stderr, so standard output holds
only the program's lines, the last of which is the JSON result. Snapshots,
WAL and checkpoints live in a working directory under the build directory
that is removed after the run. Exits non-zero, printing no result, when the
build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train", "live")
# A run measures for --seconds plus its set-up; anything far past that is
# a hang.
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def build(build_dir):
    """Configures (once) and builds the program; returns its path or None."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    step = ["cmake", "--build", build_dir, "--target", "perfbench",
            "-j", BUILD_JOBS]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_root = target if os.path.isabs(target) else os.path.join(ROOT, target)
    program = build(os.path.join(build_root, "perfbench"))
    if program is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    workdir = os.path.join(build_root, "work",
                           "%s-%d" % (args.workload, os.getpid()))
    command = [program, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
    try:
        sys.stdout.flush()
        code = subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
