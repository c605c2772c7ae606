#!/usr/bin/env python3
"""Repeat one workload of the benchmark and report how steady its metrics are.

Runs the command from BENCHMARK.json N times with seeds 1..N, each for
BENCHMARK.json's run_seconds with tracing off, and prints per metric the
median, the quartiles (statistics.quantiles, n=4), the interquartile range
and the full range (max - min), both as a share of the median. The IQR
share is compared with a third of the metric's bound.

    python3 benchmark/steady.py --workload oneshot_tc --runs 10

Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    units = {}
    for seed in range(1, args.runs + 1):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ]
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True)
        wall = time.monotonic() - t0
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
        result = json.loads(lines[-1])
        shown = " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items())
        print(f"seed {seed}: {wall:.1f} s wall, attempted {result['attempted']}, "
              f"failed {result['failed']}, correct {result['correct']}: {shown}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s")
    print(f"{'metric':<32} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'range/med':>9}  bound")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
        iqr = (q3 - q1) / med
        rng = (max(vs) - min(vs)) / med
        bound = bounds[name]
        verdict = "ok" if iqr < bound / 3 else "WIDE"
        print(f"{name:<32} {units[name]:<6} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} "
              f"{iqr:>8.3f} {rng:>9.3f}  {bound:.2f} {verdict}")


if __name__ == "__main__":
    main()
