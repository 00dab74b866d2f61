#!/usr/bin/env python3
"""Steadiness of the benchmark: runs each workload N times, each with its
own seed, and prints the median and quartiles of every end-to-end metric
with its quartile spread as a share of the median, next to the metric's
bound from BENCHMARK.json. The bounds in BENCHMARK.json are set from this
output.

Run from the repository root:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads fleet --first-seed 100
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, check=False)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="",
                    help="comma-separated subset (default: all)")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = [w for w in args.workloads.split(",") if w]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    worst = 0.0
    for workload in workloads:
        results = []
        walls = []
        for i in range(args.runs):
            seed = args.first_seed + i
            res, wall = run_once(bench["command"], workload, seed, seconds)
            results.append(res)
            walls.append(wall)
            print(f"  {workload} seed {seed}: {wall:.1f} s wall, "
                  f"{res['attempted']} attempted, {res['failed']} failed, "
                  f"correct={res['correct']}", file=sys.stderr)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"\n{workload}: {args.runs} runs of {seconds} s, "
              f"wall {min(walls):.1f}-{max(walls):.1f} s, "
              f"failed share {shares}")
        print(f"  {'metric':<24} {'unit':<9} {'median':>14} {'q1':>14} "
              f"{'q3':>14} {'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            worst = max(worst, spread / bound)
            print(f"  {name:<24} {unit:<9} {med:>14.6g} {q1:>14.6g} "
                  f"{q3:>14.6g} {spread:>8.4f} {bound:>6.3f}")
    print(f"\nlargest spread/bound: {worst:.3f}")


if __name__ == "__main__":
    main()
