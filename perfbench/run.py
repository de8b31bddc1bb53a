#!/usr/bin/env python3
"""Serving benchmark entry point.

Builds the benchmark (perfbench/CMakeLists.txt, which compiles the
repository's libraries from source) under .bench_build/ in the current
directory, then runs one workload:

    python3 perfbench/run.py --workload varade-cell --seed 1 --seconds 10 --trace 0

Workloads: varade-cell, gbrf-imu, varade-paced. --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer cost ledger. Build output goes to
stderr; the last line of stdout is the JSON result. The exit status is the
benchmark's own (nonzero on a build failure or a score mismatch).
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "cmake")


def build():
    """Configures once, then brings the perfbench target up to date."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["varade-cell", "gbrf-imu", "varade-paced"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([binary, "--workload", args.workload, "--seed", str(args.seed),
                           "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode


if __name__ == "__main__":
    sys.exit(main())
