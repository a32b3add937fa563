#!/usr/bin/env python3
"""Run the default synthetic benchmark: error vs. kernel evaluations for all
four solvers on a noisy two-Gaussians instance, ten seeds each.

Usage: python scripts/run_synthetic_bench.py [OUT_DIR]

Exits 1 when any run failed (each is printed, and the plan's failures.txt
lists them), so that a missing run CSV cannot go unnoticed.
"""

import sys

from slacksvm.bench import parse_plan, run_plan

PLAN = """
dataset = synthetic:two_gaussians:n=2000,dimension=2,seed=100,separation=2.0,noise_rate=0.05
test = synthetic:two_gaussians:n=1000,dimension=2,seed=999,separation=2.0,noise_rate=0.05
kernel = gaussian:1.0
repeat = 10
seed = 0

solver.sbp.kind = sbp
solver.sbp.nu = 0.1
solver.sbp.iters = 500

solver.pegasos.kind = pegasos
solver.pegasos.lambda = 0.0005
solver.pegasos.iters = 500

solver.sdca.kind = sdca
solver.sdca.lambda = 0.0005
solver.sdca.iters = 500

solver.perceptron.kind = perceptron
solver.perceptron.passes = 1
"""


def main() -> int:
    out = sys.argv[1] if len(sys.argv) > 1 else "bench_out"
    plan = parse_plan(PLAN)
    result = run_plan(plan, out_dir=out)
    print(f"wrote {len(result['runs'])} runs to {result['out_dir']}")
    for key, msg in sorted(result["failures"].items()):
        print(f"failed: {key}: {msg}", file=sys.stderr)
    return 1 if result["failures"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
