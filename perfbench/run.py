#!/usr/bin/env python3
"""Builds and runs the xtopk benchmark.

    python3 perfbench/run.py --workload engine_topk --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --test

Run from the root of a checkout. The first call configures and builds
perfbench/ (which compiles the library from src/) into .bench_build/perfbench;
later calls rebuild incrementally. The benchmark's last stdout line is one
JSON object {"correct", "attempted", "failed", "metrics"}; everything else
(build log, progress, layer tables) goes to stderr. perfbench/README.md
describes the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench-work")
WORKLOADS = ("engine_topk", "durable_ingest", "serve_cached")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "engine.h")):
        fail("library sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    for target in targets:
        cmd = ["cmake", "--build", BUILD_DIR, "-j4", "--target", target]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail(f"building {target} failed")


def run_child(cmd, timeout_s, cwd=None):
    """Runs cmd with stdout captured; kills and reaps it on timeout."""
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                             cwd=cwd)
    try:
        out, _ = child.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail(f"{os.path.basename(cmd[0])} did not finish within {timeout_s}s")
    return child.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.test:
        build(["perfbench_test"])
        code, out = run_child([os.path.join(BUILD_DIR, "perfbench_test")], 600, cwd=BUILD_DIR)
        sys.stderr.write(out)
        sys.exit(code)

    if None in (args.workload, args.seed, args.seconds, args.trace):
        fail("--workload, --seed, --seconds and --trace are required")
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be at least 1 and --seed not negative")
    build(["perfbench"])
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", WORK_DIR]
    code, out = run_child(cmd, RUN_TIMEOUT_S)
    if code != 0:
        sys.stderr.write(out)
        fail(f"perfbench exited with code {code}")
    lines = out.rstrip("\n").split("\n")
    sys.stderr.write("".join(line + "\n" for line in lines[:-1]))
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
