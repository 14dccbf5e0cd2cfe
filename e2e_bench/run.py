#!/usr/bin/env python3
"""Builds and runs the fnproxy end-to-end benchmark.

Usage, from the root of a checkout:

    python3 e2e_bench/run.py --workload radial_full --seed 1 --seconds 15 \
        --trace 0

Configures and builds e2e_bench/ (which compiles ../src) into .bench_build/
on first use, then runs the fnproxy_e2e program. Its standard output
is passed through unchanged; its last line is the JSON result.
Build output goes to standard error.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "fnproxy_e2e")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no fnproxy sources at %s" % os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "fnproxy_e2e", "-j", jobs],
        check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit("run.py: build failed: %s" % error)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.exit(subprocess.run(command).returncode)


if __name__ == "__main__":
    main()
