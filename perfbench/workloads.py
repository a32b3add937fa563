"""The benchmark's workloads: seed-derived inputs, set-up, the timed solve,
and the checks on its outputs.

Inputs are generated here from the workload seed with numpy and handed to
slacksvm as LIBSVM files, so the library's own synthetic generator never
decides what is measured. Each workload is one closed loop with one caller:
the next solve starts when the previous one has returned.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

# Library calls go through module attributes, so that the tracer's wrappers,
# installed on those attributes, see them.
from slacksvm import bench, kernels, sbp

GAUSSIAN = "gaussian:1.0"
NU = 0.1
# Held-out 0/1 error above which a solve counts as failed. Chance is 0.5;
# the Bayes error of the data is about 0.19 (class means 2 apart, unit
# variance, 5% label noise), and the plan's four solvers average 0.2-0.3.
ERROR_CEILING = 0.4


def two_gaussians(rng, n, dimension=2, separation=2.0, noise_rate=0.05):
    """Labels in {-1, +1} and features: unit Gaussians whose means differ by
    `separation` along the first axis, with a share of labels flipped."""
    labels = np.where(rng.random(n) < 0.5, 1, -1)
    x = rng.standard_normal((n, dimension))
    x[:, 0] += labels * (separation / 2.0)
    flip = rng.random(n) < noise_rate
    return np.where(flip, -labels, labels), x


def write_libsvm(path, labels, x):
    """LIBSVM text with shortest round-trip floats, so parsing is exact."""
    with open(path, "w", newline="\n") as fh:
        for y, row in zip(labels.tolist(), x.tolist()):
            feats = " ".join(f"{j + 1}:{v!r}" for j, v in enumerate(row) if v != 0.0)
            fh.write(f"{y:+d} {feats}\n")


def _write_pair(rng, workdir, n_train, n_test):
    paths = []
    for name, n in (("train", n_train), ("test", n_test)):
        if n:
            path = os.path.join(workdir, f"{name}.svm")
            write_libsvm(path, *two_gaussians(rng, n))
            paths.append(path)
    return paths


def _build_matrices(*datasets):
    """Build each dataset's CSR matrix, which the first kernel call would."""
    for ds in datasets:
        ds.matrix


def sbp_eval_problem(evals: int, n: int, iterations: int):
    """None when an SBP run spent exactly one diag plus one row per
    iteration, n * (iterations + 1) evaluations; otherwise the problem."""
    expected = n * (iterations + 1)
    if evals != expected:
        return f"train_kernel_evals {evals} != n*(iterations+1) = {expected}"
    return None


def error_problem(error: float):
    if not math.isfinite(error):
        return f"test error {error!r} is not finite"
    if error > ERROR_CEILING:
        return f"test error {error!r} above {ERROR_CEILING}"
    return None


@dataclass
class Outcome:
    """Checked result of one solve."""

    evals: int
    error: float  # held-out 0/1 error; nan where the workload has no model
    fingerprint: bytes
    problems: list = field(default_factory=list)


def _csv_bytes(record, path) -> bytes:
    bench.write_run_csv(record, path)
    with open(path, "rb") as fh:
        return fh.read()


class SbpWorkload:
    probe = "mixed"  # see speed.py

    def __init__(self, name, n, n_test, iterations, use_bias):
        self.name = name
        self.n = n
        self.n_test = n_test
        self.iterations = iterations
        self.use_bias = use_bias

    def make_inputs(self, seed, workdir):
        rng = np.random.default_rng(seed)
        train, test = _write_pair(rng, workdir, self.n, self.n_test)
        return {"train": train, "test": test, "workdir": workdir,
                "solver_seed": int(rng.integers(2**31))}

    def setup(self, inputs):
        train = bench.load_dataset("file:" + inputs["train"])
        test = bench.load_dataset("file:" + inputs["test"])
        _build_matrices(train, test)
        return inputs, train, test

    def solve(self, prep):
        inputs, train, test = prep
        config = sbp.SbpConfig(nu=NU, iterations=self.iterations,
                               seed=inputs["solver_seed"], use_bias=self.use_bias)
        return sbp.sbp_train(train, kernels.kernel_from_spec(GAUSSIAN), config,
                             test_data=test,
                             eval_kernel=kernels.kernel_from_spec(GAUSSIAN))

    def check(self, prep, raw) -> Outcome:
        inputs, train, _ = prep
        model, record = raw
        last = record.samples[-1]
        problems = [p for p in (
            sbp_eval_problem(model.kernel_evals, train.n, self.iterations),
            sbp_eval_problem(last.train_kernel_evals, train.n, self.iterations),
            error_problem(last.test_zero_one),
        ) if p]
        csv = _csv_bytes(record, os.path.join(inputs["workdir"], "sbp.csv"))
        return Outcome(model.kernel_evals, last.test_zero_one, csv, problems)


# The plan of scripts/run_synthetic_bench.py with repeat = 1, on files.
PLAN = """
dataset = file:{train}
test = file:{test}
kernel = gaussian:1.0
repeat = 1
seed = {seed}

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


class PlanWorkload:
    """All four solvers through bench.run_plan: the baselines, Perceptron's
    one-example kernels.cross, checkpoint scoring and CSV output."""

    name = "plan"
    probe = "mixed"

    def make_inputs(self, seed, workdir):
        rng = np.random.default_rng(seed)
        train, test = _write_pair(rng, workdir, 2000, 1000)
        text = PLAN.format(train=train, test=test, seed=int(rng.integers(2**31)))
        return {"plan": text, "train": train, "test": test,
                "out": os.path.join(workdir, "plan_out")}

    def setup(self, inputs):
        # The set-up run_plan itself performs before its first solver call.
        plan = bench.parse_plan(inputs["plan"])
        train = bench.load_dataset("file:" + inputs["train"])
        test = bench.load_dataset("file:" + inputs["test"])
        _build_matrices(train, test)
        return inputs, plan, train.n

    def solve(self, prep):
        inputs, plan, _ = prep
        return bench.run_plan(plan, out_dir=inputs["out"])

    def check(self, prep, raw) -> Outcome:
        inputs, plan, n = prep
        problems = [f"run {key} failed: {msg}" for key, msg in raw["failures"].items()]
        expected = {f"{s.name}_seed{plan.seed + r}.csv"
                    for s in plan.solvers for r in range(plan.repeat)}
        written = {f for f in os.listdir(inputs["out"]) if f != "aggregate.csv"}
        if written != expected:
            problems.append(f"run CSVs {sorted(written)} != {sorted(expected)}")
        sbp_iters = {s.name: int(s.params["iters"]) for s in plan.solvers if s.kind == "sbp"}
        evals = 0
        errors = []
        for (name, _seed), record in raw["runs"].items():
            last = record.samples[-1]
            evals += last.train_kernel_evals
            errors.append(last.test_zero_one)
            if name in sbp_iters:
                problems.append(sbp_eval_problem(last.train_kernel_evals, n,
                                                 sbp_iters[name]))
        error = float(np.mean(errors)) if errors else math.nan
        problems.append(error_problem(error))
        fingerprint = b""
        for fname in sorted(os.listdir(inputs["out"])):
            with open(os.path.join(inputs["out"], fname), "rb") as fh:
                fingerprint += fname.encode() + b"\n" + fh.read()
        return Outcome(evals, error, fingerprint, [p for p in problems if p])


class CalibrateWorkload:
    """calibrate_nu's SDCA on 100 points with the linear kernel: nearly every
    step clamps to zero, so the per-step kernels.pair dominates."""

    name = "calibrate"
    # Each SDCA step is a few dozen interpreter-bound numpy calls on tiny
    # arrays; its speed follows the interpreter probe's.
    probe = "interpreter"
    n = 100
    # With lambda = 3 the box 1/(lambda*n) is small enough that every
    # coordinate sits at its bound after its first visit, so the number of
    # steps a budget buys does not depend on the seed. With lambda = 1/n it
    # follows the count of free support vectors: over ten seeds its
    # interquartile range exceeded its median.
    lam = 3.0
    budget = 50_000

    def make_inputs(self, seed, workdir):
        rng = np.random.default_rng(seed)
        (train,) = _write_pair(rng, workdir, self.n, 0)
        return {"train": train, "solver_seed": int(rng.integers(2**31))}

    def setup(self, inputs):
        train = bench.load_dataset("file:" + inputs["train"])
        _build_matrices(train)
        return inputs, train

    def solve(self, prep):
        inputs, train = prep
        kernel = kernels.kernel_from_spec("linear")
        cal = bench.calibrate_nu(train, kernel, lam=self.lam, budget=self.budget,
                           seed=inputs["solver_seed"])
        return cal, kernel.eval_count

    def check(self, prep, raw) -> Outcome:
        cal, counted = raw
        problems = []
        if cal.kernel_evals > self.budget:
            problems.append(f"spent {cal.kernel_evals} evaluations, budget {self.budget}")
        if cal.kernel_evals != counted:
            problems.append(f"reported {cal.kernel_evals} evaluations, counted {counted}")
        for name in ("nu", "dual_gap"):
            if not math.isfinite(getattr(cal, name)):
                problems.append(f"{name} {getattr(cal, name)!r} is not finite")
        return Outcome(cal.kernel_evals, math.nan, repr(cal).encode(), problems)


WORKLOADS = {w.name: w for w in (
    # The water level dominates the solve and parse_libsvm the set-up; no
    # bias search, pair or one-example cross.
    SbpWorkload("sbp_large", n=20000, n_test=2000, iterations=1000, use_bias=False),
    # The bias bisection makes about 25 find_gamma calls per iteration.
    SbpWorkload("sbp_bias", n=2000, n_test=1000, iterations=300, use_bias=True),
    PlanWorkload(),
    CalibrateWorkload(),
)}
