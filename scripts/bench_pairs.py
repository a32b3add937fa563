#!/usr/bin/env python3
"""Compare two source trees on benchmark workloads, in alternating pairs.

Usage: python scripts/bench_pairs.py PARENT CHANGE --workload W[,W...]
       --pairs N --seconds S [--seed SEED]

PARENT and CHANGE are checkouts with a perfbench/ directory. Each pair runs
`perfbench/run.py --workload W --seed SEED+k --seconds S --trace 0` once in
each tree, one process at a time; odd pairs start with PARENT, even pairs
with CHANGE, so a drift in machine speed falls on both sides alike. Both
runs of a pair share their seed. With several workloads, each runs its N
pairs in turn, in the order given.

Prints for each workload, per pair, the five end-to-end metrics below for
both trees, then for each metric the two medians, the parent's
interquartile spread and "change lower in k of N" ("higher" for
kevals_per_s, where higher is better). Exits 1 if any run fails, prints no
result or reports `correct: false`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

METRICS = ("train_s", "kevals_per_s", "setup_s", "peak_rss_mb", "train_kernel_evals")
HIGHER_IS_BETTER = {"kevals_per_s"}


def _run(tree: str, workload: str, seed: int, seconds: float):
    """The result object of one benchmark run in tree, or None if it failed."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    result = json.loads(lines[-1])
    if not result.get("correct"):
        sys.stderr.write(proc.stderr)
        return None
    return {name: result["metrics"][name]["value"] for name in METRICS}


def _compare(trees: dict, workload: str, pairs: int, seconds: float, seed: int) -> bool:
    """Run and print the pairs of one workload, then its medians; False if
    any run failed."""
    print(f"workload {workload}")
    results = []  # (parent, change) metrics of each pair whose two runs succeeded
    ok = True
    print("pair side   " + " ".join(f"{name:>18}" for name in METRICS))
    for k in range(1, pairs + 1):
        order = ("parent", "change") if k % 2 else ("change", "parent")
        runs = {}
        for side in order:
            values = _run(trees[side], workload, seed + k - 1, seconds)
            if values is None:
                print(f"{k:>4} {side:<6} failed")
                ok = False
                continue
            runs[side] = values
            print(f"{k:>4} {side:<6} " + " ".join(f"{values[m]:>18.6g}" for m in METRICS))
        if len(runs) == 2:
            results.append((runs["parent"], runs["change"]))

    if results:
        print(f"{workload} medians over {len(results)} pairs:")
        for m in METRICS:
            parents = [p[m] for p, _ in results]
            change = statistics.median(c[m] for _, c in results)
            # statistics.quantiles needs two points; one pair has no spread.
            q1, _, q3 = (statistics.quantiles(parents, n=4, method="inclusive")
                         if len(parents) > 1 else (parents[0],) * 3)
            if m in HIGHER_IS_BETTER:
                word, better = "higher", sum(c[m] > p[m] for p, c in results)
            else:
                word, better = "lower", sum(c[m] < p[m] for p, c in results)
            print(f"  {m}: parent {statistics.median(parents):.6g} "
                  f"(IQR {q3 - q1:.3g}), change {change:.6g}, "
                  f"change {word} in {better} of {len(results)}")
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True,
                    help="a workload name, or several separated by commas")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed", type=int, default=901, help="seed of the first pair")
    args = ap.parse_args(argv)
    workloads = [w.strip() for w in args.workload.split(",") if w.strip()]
    if not workloads:
        ap.error("--workload must name at least one workload")
    if args.pairs < 1 or not args.seconds > 0:
        ap.error("--pairs and --seconds must be positive")

    trees = {"parent": args.parent, "change": args.change}
    ok = True
    for workload in workloads:
        ok &= _compare(trees, workload, args.pairs, args.seconds, args.seed)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
