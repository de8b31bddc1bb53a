#!/usr/bin/env python3
"""Steadiness report for the serving benchmark.

Runs each workload k times through run.py, each with its own seed, and prints
every end-to-end metric's median and quartiles (statistics.quantiles, n=4),
its spread (q3 - q1) / median, and its bound from BENCHMARK.json. A spread
above the bound is flagged FAIL, above a third of it WIDE. The tail latency
and the generator's send lag, which each run prints but does not bound, are
listed under them the same way. With --traced,
each workload also gets one traced run, whose end-to-end numbers are set
beside the untraced medians as the tracing overhead.

    python3 perfbench/steady.py --runs 10 --seed0 1
    python3 perfbench/steady.py --workloads gbrf-imu --runs 5 --traced
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The unbounded figures each run prints in its latency line.
PRINTED = {"latency_p95_ms": r"p95 ([0-9.]+) ms", "latency_p99_ms": r"p99 ([0-9.]+) ms;",
           "send_lag_p99_ms": r"send lag p50 [0-9.]+ ms, p99 ([0-9.]+) ms"}


def run_once(bench, workload, seed, trace):
    """One run; checks its metric names against BENCHMARK.json."""
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    declared = {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != declared:
        raise SystemExit(f"{workload} seed {seed}: metrics differ from BENCHMARK.json:"
                         f" {sorted(set(result['metrics']) ^ declared)}")
    printed = {}
    for name, pattern in PRINTED.items():
        match = re.search(pattern, proc.stdout)
        if match:
            printed[name] = float(match.group(1))
    return result, printed, wall


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for workload in args.workloads.split(","):
        values = {}
        walls = []
        failed = attempted = 0
        for i in range(args.runs):
            result, printed, wall = run_once(bench, workload, args.seed0 + i, 0)
            walls.append(wall)
            for name, value in printed.items():
                values.setdefault(name, []).append(value)
            attempted += result["attempted"]
            failed += result["failed"]
            if not result["correct"]:
                raise SystemExit(f"{workload}: incorrect result")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n{workload}: {args.runs} runs (seeds {args.seed0}..{args.seed0 + args.runs - 1}),"
              f" {max(walls):.1f} s longest run, {failed} of {attempted} samples failed")
        print(f"  {'metric':<22}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}")
        medians = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            medians[name] = med
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is None:
                flag = "(printed, unbounded)"
            elif name != "setup_s":
                flag = "FAIL" if spread > bound else ("WIDE" if spread > bound / 3 else "ok")
            print(f"  {name:<22}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.3f}"
                  f"{bound if bound is not None else '':>7} {flag}")
        if args.traced:
            result, _, wall = run_once(bench, workload, args.seed0, 1)
            print(f"  traced run ({wall:.1f} s): overhead against the untraced medians")
            for name in ("throughput_sps", "latency_p50_ms", "latency_p95_ms",
                         "latency_p99_ms", "cpu_us_per_sample"):
                traced = result["metrics"].get("traced." + name, {}).get("value")
                if traced is not None and medians.get(name):
                    print(f"    {name:<20} untraced {medians[name]:>12.6g}  traced {traced:>12.6g}"
                          f"  ({100.0 * (traced / medians[name] - 1.0):+.1f}%)")
            for name, m in result["metrics"].items():
                if not name.startswith("traced."):
                    print(f"    {name:<44}{m['value']:>16.6g} {m['unit']}")


if __name__ == "__main__":
    main()
