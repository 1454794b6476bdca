#!/usr/bin/env python3
"""Compare two source checkouts on hostbench workloads, in pairs.

    python3 scripts/hostbench_pairs.py BASE_DIR NEW_DIR --workload NAME
        [--workload NAME ...] [--pairs N] [--seconds S] [--seed N]

Runs `python3 hostbench/run.py --workload NAME --seed N --seconds S
--trace 0` in each checkout, N times each, alternating which checkout
goes first in a pair so a drift in host speed lands on both sides. One
unrecorded run per checkout comes first; it builds the benchmark (build
output goes to standard error). Every recorded run must report
`correct: true` with 0 failed, or the script stops with exit code 1.

`--workload` may be given more than once; `--workload all` names every
workload NEW_DIR/BENCHMARK.json declares. The workloads run one after
another, each with its own pairs and its own table.

For each end-to-end metric that NEW_DIR/BENCHMARK.json declares, a
table gives the median and quartiles of both sides, the change of the
medians, and in how many pairs NEW was better (in the metric's declared
direction). Pairs are what to read on a shared host: its speed swings
between runs far more than between the two halves of one pair.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout, workload, args):
    """One hostbench run of @workload in @checkout; its JSON result."""
    cmd = [sys.executable, os.path.join("hostbench", "run.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{checkout}: hostbench exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result.get("correct") or result.get("failed", 1) != 0:
        sys.exit(f"{checkout}: run not correct: {lines[-1]}")
    return result["metrics"]


def quartiles(values):
    """(q1, median, q3) of @values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def compare(workload, metrics, args):
    """Run the pairs of @workload and print its table."""
    for checkout in (args.base, args.new):
        run_once(checkout, workload, args)

    runs = {args.base: [], args.new: []}
    for i in range(args.pairs):
        order = (args.base, args.new) if i % 2 == 0 else (args.new,
                                                          args.base)
        for checkout in order:
            runs[checkout].append(run_once(checkout, workload, args))
        print(f"{workload}: pair {i + 1}/{args.pairs} done",
              file=sys.stderr)

    print(f"{workload}: {args.pairs} pairs of {args.seconds:g} s, "
          f"seed {args.seed}")
    print(f"{'metric':<16} {'base median [q1, q3]':>30} "
          f"{'new median [q1, q3]':>30} {'change':>8} {'new wins':>8}")
    for m in metrics:
        name = m["name"]
        base = [r[name]["value"] for r in runs[args.base]]
        new = [r[name]["value"] for r in runs[args.new]]
        higher = m["better"] == "higher"
        wins = sum(1 for b, n in zip(base, new)
                   if (n > b if higher else n < b))
        bq, nq = quartiles(base), quartiles(new)
        change = (nq[1] - bq[1]) / bq[1] * 100 if bq[1] else float("nan")
        b = f"{bq[1]:.4g} [{bq[0]:.4g}, {bq[2]:.4g}]"
        n = f"{nq[1]:.4g} [{nq[0]:.4g}, {nq[2]:.4g}]"
        print(f"{name:<16} {b:>30} {n:>30} {change:>+7.1f}% "
              f"{wins:>5}/{args.pairs}")
    print(flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload name, or all; may repeat")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with open(os.path.join(args.new, "BENCHMARK.json")) as f:
        declared = json.load(f)
    names = [w["name"] for w in declared["workloads"]]
    workloads = []
    for w in args.workload:
        for name in names if w == "all" else [w]:
            if name not in workloads:
                workloads.append(name)

    for workload in workloads:
        compare(workload, declared["end_to_end"], args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
