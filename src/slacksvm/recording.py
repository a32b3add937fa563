"""Run metrics: time series of learning progress against kernel-eval cost."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

from .data import evaluate
from .model import TrainedModel

RNG_IDENTITY = "numpy-pcg64"


class Sample(NamedTuple):
    iteration: int
    train_kernel_evals: int
    eval_kernel_evals: int
    empirical_hinge: float
    test_zero_one: float
    wall_clock_ns: int


@dataclass
class RunRecord:
    """Per-run metadata plus samples ordered by iteration.

    Training and evaluation kernel counters are tracked separately so that
    held-out measurements never pollute the training cost axis.
    """

    metadata: dict = field(default_factory=dict)
    samples: list = field(default_factory=list)

    def add(self, *args, **kwargs):
        self.samples.append(Sample(*args, **kwargs))


def geometric_schedule(iterations: int) -> set:
    """Iterations 1, 2, 4, ... plus the final one (log-axis point density)."""
    sched = set()
    t = 1
    while t <= iterations:
        sched.add(t)
        t *= 2
    sched.add(iterations)
    return sched


class Checkpointer:
    """The run bookkeeping every solver shares.

    Created before a solver spends its first kernel evaluation, it holds the
    checkpoint schedule over ``steps`` iterations, the counters the run
    starts from and the RunRecord. At a checkpoint the solver hands over its
    current predictor; its held-out error costs evaluations on eval_kernel
    only, and eval_kernel_evals is read after that scoring, so it includes
    the checkpoint's own cost.
    """

    def __init__(self, dataset, kernel, steps: int, fields: dict,
                 test_data=None, eval_kernel=None, timing: bool = False):
        self.dataset = dataset
        self.kernel = kernel
        self.test_data = test_data
        self.eval_kernel = eval_kernel
        self.timing = timing
        self.schedule = geometric_schedule(steps)
        self.record = RunRecord(metadata={**fields, "rng": RNG_IDENTITY})
        self.start_evals = kernel.eval_count
        self.start_ns = time.perf_counter_ns()

    def _test_error(self, alpha, bias) -> float:
        if alpha is None or self.test_data is None or self.eval_kernel is None:
            return math.nan
        interim = TrainedModel(alpha=alpha, bias=bias, dataset=self.dataset,
                               kernel_spec=self.kernel.spec_string,
                               use_bias=False, kernel_evals=0)
        return evaluate(interim, self.test_data, self.eval_kernel)[1]

    def add(self, t: int, hinge: float, alpha, bias: float = 0.0) -> None:
        """Record iteration t; alpha None means there is no predictor to
        score (test error nan)."""
        train_evals = self.kernel.eval_count - self.start_evals
        test_error = self._test_error(alpha, bias)
        self.record.add(
            iteration=t,
            train_kernel_evals=train_evals,
            eval_kernel_evals=self.eval_kernel.eval_count if self.eval_kernel else 0,
            empirical_hinge=hinge,
            test_zero_one=test_error,
            wall_clock_ns=(time.perf_counter_ns() - self.start_ns) if self.timing else 0,
        )

    def model(self, alpha, bias: float = 0.0, use_bias: bool = False,
              **metadata):
        """(TrainedModel, RunRecord) of the finished run."""
        trained = TrainedModel(
            alpha=alpha, bias=bias, dataset=self.dataset,
            kernel_spec=self.kernel.spec_string, use_bias=use_bias,
            kernel_evals=self.kernel.eval_count - self.start_evals,
            metadata={**self.record.metadata, **metadata},
        )
        return trained, self.record
