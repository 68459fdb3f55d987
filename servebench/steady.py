#!/usr/bin/env python3
"""Steadiness check of the serving benchmark's end-to-end metrics.

    python3 servebench/steady.py [--runs 10] [--first-seed 1]
        [--workloads wiki-x1 ...] [--out servebench/steadiness/record.json]
        [--baseline <earlier record>]

Runs servebench/run.py --trace 0 once per (seed, workload), seeds
interleaved across workloads so a noisy spell of the host lands on all of
them, then reports per workload and metric the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median
against the metric's bound in BENCHMARK.json. With --baseline it also
reports how far each median moved from the earlier record, in the
metric's worse direction. Run from the repository root.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().split("\n")
    host = next((l for l in lines if l.startswith("host:")), "")
    passes = [l for l in lines if l.startswith("pass ")]
    result = json.loads(lines[-1])
    return result, host, passes, time.monotonic() - started


def summarize(values, bound, better, baseline_median=None):
    q1, median, q3 = statistics.quantiles(values, n=4)
    row = {"values": values, "median": median, "q1": q1, "q3": q3,
           "spread": (q3 - q1) / median if median else float("inf"), "bound": bound}
    if baseline_median:
        worse = (median - baseline_median) if better == "lower" else (baseline_median - median)
        row["worse_than_baseline"] = worse / baseline_median
    return row


def main():
    with open(SPEC_PATH) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out", default=None)
    parser.add_argument("--baseline", default=None)
    args = parser.parse_args()
    baseline = {}
    if args.baseline:
        with open(args.baseline) as f:
            baseline = json.load(f)["workloads"]

    samples = {w: {} for w in args.workloads}
    hosts, failures, wall = [], 0, {w: [] for w in args.workloads}
    pass_lines = {w: [] for w in args.workloads}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in args.workloads:
            result, host, passes, seconds = run_once(workload, seed, spec["run_seconds"])
            hosts.append("%s seed=%d %s" % (workload, seed, host))
            pass_lines[workload].append(passes)
            wall[workload].append(seconds)
            failures += 0 if result["correct"] and result["failed"] == 0 else 1
            for name, metric in result["metrics"].items():
                samples[workload].setdefault(name, []).append(metric["value"])
            print("%-20s seed %3d  %5.1f s  %s" % (workload, seed, seconds, host), flush=True)

    record = {"runs_per_workload": args.runs, "first_seed": args.first_seed,
              "run_seconds": spec["run_seconds"], "machine": platform.platform(),
              "nproc": os.cpu_count(), "failed_runs": failures, "hosts": hosts,
              "passes": pass_lines, "workloads": {}}
    worst = 0.0
    print("\n%-20s %-22s %12s %12s %12s %7s %6s %s" % (
        "workload", "metric", "q1", "median", "q3", "spread", "bound", "vs baseline"))
    for workload in args.workloads:
        rows = {"wall_s_median": statistics.median(wall[workload])}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = baseline.get(workload, {}).get(name, {}).get("median")
            row = summarize(samples[workload][name], metric["bound"], metric["better"], base)
            rows[name] = row
            worst = max(worst, row["spread"] / metric["bound"])
            moved = ("%+.1f%%" % (100 * row["worse_than_baseline"])
                     if "worse_than_baseline" in row else "")
            print("%-20s %-22s %12.6g %12.6g %12.6g %6.1f%% %5.0f%% %s" % (
                workload, name, row["q1"], row["median"], row["q3"],
                100 * row["spread"], 100 * metric["bound"], moved))
        record["workloads"][workload] = rows
    print("\nworst spread / bound: %.2f; failed runs: %d" % (worst, failures))
    record["worst_spread_over_bound"] = worst
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
