"""Run metrics: time series of learning progress against kernel-eval cost."""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .data import hinge_loss
from .kernels import kernel_from_spec
from .model import SolverError, TrainedModel, evaluate

# Indices drawn per numpy call. PCG64 keeps the unused half of a 64-bit
# output in the bit generator, not per call, so a block yields the same
# values as one scalar draw at a time; a run's unused tail is never read.
DRAW_BLOCK = 1024


def index_stream(rng, n: int):
    """Uniform indices in [0, n) from rng, without end: the values of one
    rng.integers(n) per draw, drawn DRAW_BLOCK at a time. The values match
    scalar draws only while the stream is rng's one reader."""
    while True:
        yield from rng.integers(n, size=DRAW_BLOCK).tolist()


class Sample(NamedTuple):
    iteration: int
    train_kernel_evals: int
    eval_kernel_evals: int
    empirical_hinge: float
    test_zero_one: float
    wall_clock_ns: int


@dataclass
class RunRecord:
    """A run's samples, ordered by iteration.

    Training and evaluation kernel counters are tracked separately so that
    held-out measurements never pollute the training cost axis.
    """

    samples: list = field(default_factory=list)


def geometric_schedule(iterations: int) -> set:
    """Iterations 1, 2, 4, ... plus the final one (log-axis point density)."""
    sched = set()
    t = 1
    while t <= iterations:
        sched.add(t)
        t *= 2
    sched.add(iterations)
    return sched


def check_count(name: str, value) -> None:
    """Raise ValueError unless value is an integer of at least 1."""
    if not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be at least 1 and an integer, got {value!r}")


def check_seed(seed) -> None:
    """Raise ValueError unless seed is a non-negative integer, as numpy's
    generators take."""
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def check_lam(lam) -> None:
    """Raise ValueError unless the regularization weight is positive and finite."""
    if not 0 < lam < math.inf:
        raise ValueError(f"lambda must be positive and finite, got {lam!r}")


def run_steps(steps, count: int, dataset, kernel, config, test_data=None,
              eval_kernel=None, timing: bool = False):
    """The one training loop; returns (TrainedModel, RunRecord).

    steps(dataset, kernel, config, rng) is a solver's step generator: after
    each step it yields its predictor, one function for the run, returning
    (training margins or None, alpha, bias) of the model the solver would
    return then, alpha None if there is none. The loop takes count steps and
    records the predictor at each checkpoint of geometric_schedule(count).
    With test_data, each checkpoint's model is scored on eval_kernel, by
    default a fresh oracle of kernel's spec. Both counters count from before
    the first step and are read after the checkpoint's held-out scoring,
    which costs evaluations on eval_kernel only. The last checkpoint's model
    is returned; SolverError if none, or if a checkpoint's training margins,
    alpha or bias are not finite.
    """
    record = RunRecord()
    schedule = geometric_schedule(count)
    if test_data is not None and eval_kernel is None:
        eval_kernel = kernel_from_spec(kernel.spec_string)
    start, start_eval = kernel.eval_count, eval_kernel.eval_count if eval_kernel else 0
    start_ns = time.perf_counter_ns()
    predictors = steps(dataset, kernel, config, np.random.default_rng(config.seed))
    for t, predict in zip(range(1, count + 1), predictors):
        if t not in schedule:
            continue
        margins, alpha, bias = predict()
        evals, model, test_error = kernel.eval_count - start, None, math.nan
        if margins is not None and not np.isfinite(margins).all():
            raise SolverError(f"non-finite model at iteration {t}")
        if alpha is not None:
            if not (np.isfinite(alpha).all() and math.isfinite(bias)):
                raise SolverError(f"non-finite model at iteration {t}")
            model = TrainedModel(alpha, bias, dataset, kernel.spec_string,
                                 getattr(config, "use_bias", False), evals)
            if test_data is not None:
                test_error = evaluate(model, test_data, eval_kernel)[1]
        record.samples.append(Sample(
            t, evals, eval_kernel.eval_count - start_eval if eval_kernel else 0,
            hinge_loss(margins), test_error,
            time.perf_counter_ns() - start_ns if timing else 0))
    if model is None:
        raise SolverError("no positive margin achieved at the last step")
    return model, record
