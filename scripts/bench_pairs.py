#!/usr/bin/env python3
"""Compare two source trees on benchmark workloads, in alternating pairs.

Usage: python scripts/bench_pairs.py PARENT CHANGE --workload W[,W...]|all
       [--pairs N] [--seconds S] [--seed SEED]

PARENT and CHANGE are checkouts with a perfbench/ directory. Each pair runs
`perfbench/run.py --workload W --seed SEED+k --seconds S --trace 0` once in
each tree, one process at a time; odd pairs start with PARENT, even pairs
with CHANGE, so a drift in machine speed falls on both sides alike. Both
runs of a pair share their seed. With several workloads, each runs its N
pairs in turn, in the order given; `all` names every workload of CHANGE's
BENCHMARK.json, in its listed order. N defaults to 10, and S to the
`run_seconds` of CHANGE's BENCHMARK.json, so a claim is measured at the
benchmark's own run length.

The metrics are the `end_to_end` entries of CHANGE's BENCHMARK.json, each
with its `better` direction and `bound`. Prints for each workload, per
pair, every metric for both trees, then for each metric the two medians,
the parent's interquartile spread (IQR), "change lower in k of N" ("higher"
where higher is better) and two verdicts:

- worse: the change's median is worse than the parent's by more than
  bound times the parent's median. Where it is not, but the parent's IQR
  exceeds bound times the parent's median and some run of the change does
  not read better than every run of the parent, the runs spread too widely
  to tell, and the verdict reads "unresolved" in place of "no";
- claim: the change is better in at least 9 of every 10 pairs, and its
  median is better than the parent's by more than the parent's IQR.

Exits 1 if any run fails, prints no result or reports `correct: false`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def _spec(tree: str) -> dict:
    with open(os.path.join(tree, "BENCHMARK.json")) as fh:
        return json.load(fh)


def end_to_end(tree: str) -> list:
    """(name, better, bound) of each end-to-end metric of tree's BENCHMARK.json."""
    return [(m["name"], m["better"], m["bound"]) for m in _spec(tree)["end_to_end"]]


def verdict(pairs: list, better: str, bound: float) -> dict:
    """One metric's summary over pairs [(parent value, change value)]: the
    medians, the parent's IQR, the change's wins in the better direction,
    "worse", "unresolved" and "claim" as the module docstring defines them."""
    parents = [p for p, _ in pairs]
    parent = statistics.median(parents)
    change = statistics.median(c for _, c in pairs)
    # statistics.quantiles needs two points; one pair has no spread.
    q1, _, q3 = (statistics.quantiles(parents, n=4, method="inclusive")
                 if len(parents) > 1 else (parent,) * 3)
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    gain = sign * (change - parent)
    apart = min(sign * c for _, c in pairs) > max(sign * p for p in parents)
    return {"parent": parent, "iqr": q3 - q1, "change": change, "wins": wins,
            "worse": -gain > bound * parent,
            "unresolved": q3 - q1 > bound * parent and not apart,
            "claim": 10 * wins >= 9 * len(pairs) and gain > q3 - q1}


def _run(tree: str, workload: str, seed: int, seconds: float, names: list):
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
    return {name: result["metrics"][name]["value"] for name in names}


def _compare(trees: dict, metrics: list, workload: str, pairs: int, seconds: float,
             seed: int) -> bool:
    """Run and print the pairs of one workload, then its verdicts; False if
    any run failed."""
    print(f"workload {workload}")
    names = [name for name, _, _ in metrics]
    results = []  # (parent, change) metrics of each pair whose two runs succeeded
    ok = True
    print("pair side   " + " ".join(f"{name:>18}" for name in names))
    for k in range(1, pairs + 1):
        order = ("parent", "change") if k % 2 else ("change", "parent")
        runs = {}
        for side in order:
            values = _run(trees[side], workload, seed + k - 1, seconds, names)
            if values is None:
                print(f"{k:>4} {side:<6} failed")
                ok = False
                continue
            runs[side] = values
            print(f"{k:>4} {side:<6} " + " ".join(f"{values[m]:>18.6g}" for m in names))
        if len(runs) == 2:
            results.append((runs["parent"], runs["change"]))

    if results:
        print(f"{workload} medians over {len(results)} pairs:")
        for m, better, bound in metrics:
            v = verdict([(p[m], c[m]) for p, c in results], better, bound)
            worse = "yes" if v["worse"] else "unresolved" if v["unresolved"] else "no"
            print(f"  {m}: parent {v['parent']:.6g} (IQR {v['iqr']:.3g}), "
                  f"change {v['change']:.6g}, change {better} in {v['wins']} of "
                  f"{len(results)}; worse by more than {bound:g}: {worse}; "
                  f"claim holds: {'yes' if v['claim'] else 'no'}")
    return ok


def parse_args(argv=None) -> argparse.Namespace:
    """The command line, with the workloads as the list args.workloads (all
    of CHANGE's for `all`) and --seconds defaulting to CHANGE's run_seconds."""
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True,
                    help="a workload name, several separated by commas, or all")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float,
                    help="seconds of each run; default CHANGE's BENCHMARK.json run_seconds")
    ap.add_argument("--seed", type=int, default=901, help="seed of the first pair")
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(_spec(args.change)["run_seconds"])
    workloads = [w.strip() for w in args.workload.split(",") if w.strip()]
    if workloads == ["all"]:
        workloads = [w["name"] for w in _spec(args.change)["workloads"]]
    if not workloads or "all" in workloads:
        ap.error("--workload must name at least one workload, or be all alone")
    if args.pairs < 1 or not args.seconds > 0:
        ap.error("--pairs and --seconds must be positive")
    args.workloads = workloads
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    trees = {"parent": args.parent, "change": args.change}
    metrics = end_to_end(args.change)
    ok = True
    for workload in args.workloads:
        ok &= _compare(trees, metrics, workload, args.pairs, args.seconds, args.seed)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
