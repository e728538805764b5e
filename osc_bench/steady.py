#!/usr/bin/env python3
"""Steadiness of the benchmark: run each workload N times, alternating
the order of workloads from one round to the next, one seed per round,
and print the median and the spread of every metric.

    python3 osc_bench/steady.py --runs 10 --seed0 1 [--seconds 30]
        [--workloads foj-eager-write,split-lazy-read] [--trace 0]

The spread is (Q3 - Q1) / median, with the quartiles taken as
statistics.quantiles(values, n=4) gives them. The raw results go to
osc_bench/_out/steady-<seed0>-<runs>-trace<trace>.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "osc_bench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workloads", default="foj-eager-write,split-lazy-read")
    a = ap.parse_args()
    workloads = a.workloads.split(",")
    results = {w: [] for w in workloads}
    for i in range(a.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            r = run_once(w, a.seed0 + i, a.seconds, a.trace)
            results[w].append(r)
            print(f"run {i + 1}/{a.runs} {w} seed {a.seed0 + i}: attempted {r['attempted']}"
                  f" failed {r['failed']}", file=sys.stderr, flush=True)
    out = os.path.join(HERE, "_out")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"steady-{a.seed0}-{a.runs}-trace{a.trace}.json")
    with open(path, "w") as f:
        json.dump(results, f, indent=1)
    for w in workloads:
        rs = results[w]
        shares = {r["failed"] / r["attempted"] for r in rs}
        print(f"\n{w}: {len(rs)} runs, seeds {a.seed0}..{a.seed0 + a.runs - 1},"
              f" failed share {sorted(shares)}")
        print(f"  {'metric':34s} {'unit':>6s} {'median':>14s} {'Q1':>14s} {'Q3':>14s} {'IQR/med':>8s}")
        for name, first in rs[0]["metrics"].items():
            vals = [r["metrics"][name]["value"] for r in rs]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:34s} {first['unit']:>6s} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f}")


if __name__ == "__main__":
    main()
