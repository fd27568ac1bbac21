#!/usr/bin/env python3
"""Builds the package-query service from source and runs one benchmark run.

    python3 pkgbench/run.py --workload serve|watch|restart --seed N \
        --seconds S --trace 0|1
    python3 pkgbench/run.py --make-reference

Run from the root of a checkout. The driver is built (Release) into
.bench_build/pkgbench; each run generates its seeded inputs under
.bench_data/ and removes them when it ends. The last line of standard
output is the run's JSON result. See pkgbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "pkgbench")
DATA_ROOT = os.path.join(ROOT, ".bench_data")
BINARY = os.path.join(BUILD_DIR, "pkgbench")
REFERENCE = os.path.join(BENCH_DIR, "reference_optima.tsv")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"pkgbench: {message}", file=sys.stderr, flush=True)


def call(argv, timeout=None):
    """Runs argv with stdout passed to our stderr; returns the exit code."""
    try:
        return subprocess.run(argv, stdout=sys.stderr, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(argv)}")
        return 1


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if call(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]) != 0:
            return False
    return call(["cmake", "--build", BUILD_DIR, "-j", jobs]) == 0


def make_reference():
    data = os.path.join(DATA_ROOT, "reference")
    shutil.rmtree(data, ignore_errors=True)
    try:
        if call([BINARY, "gen", "--workload", "serve", "--seed", "1",
                 "--data", data]) != 0:
            return 1
        return call([BINARY, "reference", "--data", data, "--ref", REFERENCE])
    finally:
        shutil.rmtree(data, ignore_errors=True)


def run(args):
    data = os.path.join(DATA_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(data, ignore_errors=True)
    try:
        if call([BINARY, "selftest"]) != 0:
            log("the package checker failed its self-test")
            return 1
        if call([BINARY, "gen", "--workload", args.workload, "--seed",
                 str(args.seed), "--data", data]) != 0:
            return 1
        argv = [BINARY, "run", "--workload", args.workload, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace",
                str(args.trace), "--data", data, "--ref", REFERENCE]
        try:
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log("the run timed out")
            return 1
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            log(f"the run failed with exit code {proc.returncode}")
            return 1
        result = json.loads(lines[-1])
        for line in lines[:-1]:
            print(line, file=sys.stderr)
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(data, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["serve", "watch", "restart"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--make-reference", action="store_true",
                        help="solve the serve statements with DIRECT and "
                             "rewrite reference_optima.tsv")
    args = parser.parse_args()
    if not args.make_reference and args.workload is None:
        parser.error("--workload is required")
    if not build():
        log("build failed")
        return 1
    return make_reference() if args.make_reference else run(args)


if __name__ == "__main__":
    sys.exit(main())
