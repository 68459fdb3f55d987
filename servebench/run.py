#!/usr/bin/env python3
"""Serving benchmark entry point.

    python3 servebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 servebench/run.py --self-test

Run from the repository root. The first call configures and builds the
benchmark (servebench/CMakeLists.txt, Release) into $CARGO_TARGET_DIR or
.bench_build; later calls reuse the build. Each run is one fresh process of
the servebench binary, whose last stdout line -- one JSON object with
correct/attempted/failed/metrics -- is re-checked here and printed last.
Build output goes to stderr. Traced runs write a Chrome trace under the
build directory.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SOURCE_ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("wiki-x1", "alipay-x2-uds-2hop", "reddit-x2-loc")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run must end within RUN_LIMIT_S, or BUILD_LIMIT_S when it also built.
RUN_LIMIT_S = 175
BUILD_LIMIT_S = 880
BUILD_JOBS = "4"


def fail(message):
    print("servebench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "servebench")


def build(target):
    """Configures once, then builds `target`; returns the build directory."""
    if not os.path.isfile(os.path.join(SOURCE_ROOT, "src", "serve", "sharded_engine.h")):
        fail("repository sources not found next to " + BENCH_DIR)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(
            ["cmake", "--build", out, "--target", target, "-j", BUILD_JOBS],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != RESULT_KEYS:
        raise ValueError("result keys %s" % sorted(result))
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise ValueError(key + " is not a whole number")
    if result["attempted"] < 1 or not result["metrics"]:
        raise ValueError("nothing attempted or measured (trace=%d)" % trace)
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"} or not isinstance(metric["value"], (int, float)):
            raise ValueError("malformed metric " + name)


def run(args):
    started = time.monotonic()
    binary = os.path.join(build("servebench"), "servebench")
    built = time.monotonic() - started > 5
    limit = (BUILD_LIMIT_S if built else RUN_LIMIT_S) - (time.monotonic() - started)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(os.path.dirname(binary), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=max(limit, 1))
    except subprocess.TimeoutExpired:
        fail("run exceeded %.0f s" % limit)  # subprocess.run killed and reaped it
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("servebench exited with %d" % proc.returncode)
    try:
        check_result(lines[-1], args.trace)
    except ValueError as err:
        fail("bad result line: %s" % err)
    sys.stdout.write("\n".join(lines) + "\n")


def self_test():
    binary = os.path.join(build("servebench_test"), "servebench_test")
    sys.exit(subprocess.run([binary]).returncode)


def main():
    if sys.argv[1:] == ["--self-test"]:
        self_test()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    try:
        run(args)
    except subprocess.CalledProcessError as err:
        fail("build failed: %s" % err)


if __name__ == "__main__":
    main()
