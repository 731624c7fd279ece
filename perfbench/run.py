#!/usr/bin/env python3
"""Builds the perfbench program from source and runs one benchmark workload.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The engine libraries (../src) and the program are built with CMake into
$CARGO_TARGET_DIR when it is set, else into .bench_build/ at the checkout
root. Build output goes to stderr; the program's stdout, whose last line is
the JSON result, is passed through unchanged. Traced runs also write their
spans as Chrome trace JSON into the build directory.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds the program; returns its path."""
    out = os.path.join(build_dir(), "perfbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench")


def main(argv):
    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    # Every argument goes to the program; a traced run also gets a place for
    # its Chrome trace.
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--workload", default="")
    parser.add_argument("--seed", default="0")
    parser.add_argument("--trace", default="0")
    known, _ = parser.parse_known_args(argv)
    args = list(argv)
    if known.trace == "1":
        name = f"perfbench_{known.workload}_{known.seed}.trace.json"
        args += ["--trace-out", os.path.join(build_dir(), name)]
    return subprocess.run([exe] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
