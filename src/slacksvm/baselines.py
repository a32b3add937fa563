"""Comparison solvers on the same kernel-evaluation cost model.

Kernelized Pegasos (stochastic subgradient descent on the regularized
hinge objective, no projection step), stochastic dual coordinate ascent on
the regularized dual, and the single-pass online Perceptron.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .kernels import RowSubset
from .recording import Checkpointer


@dataclass
class PegasosConfig:
    lam: float
    iterations: int
    seed: int = 0
    average: bool = False

    def __post_init__(self):
        if not 0 < self.lam < math.inf:
            raise ValueError("lambda must be positive and finite")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")


@dataclass
class SdcaConfig:
    lam: float
    iterations: int
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.lam < math.inf:
            raise ValueError("lambda must be positive and finite")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")


@dataclass
class PerceptronConfig:
    passes: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.passes < 1:
            raise ValueError("passes must be at least 1")


def pegasos_train(dataset: Dataset, kernel, config: PegasosConfig,
                  test_data: Dataset | None = None, eval_kernel=None,
                  timing: bool = False):
    """Kernelized Pegasos without a projection step.

    Non-violation steps only rescale w, applied lazily through a scalar, so
    kernel rows (n evaluations) are spent on violation steps only. With
    average, the checkpoints and the returned model are the running average
    of the iterates, its responses averaged alike.
    """
    n = dataset.n
    y = dataset.labels
    rng = np.random.default_rng(config.seed)
    ckpt = Checkpointer(dataset, kernel, config.iterations, {
        "solver": "pegasos", "lambda": config.lam,
        "iterations": config.iterations, "seed": config.seed,
        "average": config.average,
    }, test_data, eval_kernel, timing)

    raw_alpha = np.zeros(n)
    raw_resp = np.zeros(n)  # effective responses are scale * raw_resp
    scale = 1.0
    alpha_sum = np.zeros(n) if config.average else None
    resp_sum = np.zeros(n) if config.average else None

    for t in range(1, config.iterations + 1):
        i = int(rng.integers(n))
        violation = scale * raw_resp[i] < 1.0
        if t > 1:
            scale *= 1.0 - 1.0 / t
        if violation:
            eta = 1.0 / (config.lam * t)
            row = kernel.row(dataset, i)  # n evaluations
            raw_alpha[i] += eta / scale
            raw_resp += (eta / scale) * y[i] * y * row
        if config.average:
            alpha_sum += scale * raw_alpha
            resp_sum += scale * raw_resp
        if t in ckpt.schedule:  # the last iteration always is
            if config.average:
                alpha, c = alpha_sum / t, resp_sum / t
            else:
                alpha, c = scale * raw_alpha, scale * raw_resp
            ckpt.add(t, float(np.mean(np.maximum(0.0, 1.0 - c))), alpha)
    return ckpt.model(alpha)


def sdca_dual_value(alpha, responses, lam) -> float:
    """Dual objective lambda * (sum alpha - ||w||^2 / 2), with
    ||w||^2 = sum_i alpha_i c_i from the cached responses."""
    return float(lam * (alpha.sum() - 0.5 * (alpha @ responses)))


def _sdca_steps(dataset, kernel, lam, rng):
    """Shared SDCA inner loop, without end: after each step it yields
    (i, delta, alpha, responses), the last two updated in place."""
    n = dataset.n
    y = dataset.labels
    box = 1.0 / (lam * n)
    alpha = np.zeros(n)
    responses = np.zeros(n)
    while True:
        i = int(rng.integers(n))
        kii = kernel.pair(dataset, i, dataset, i)
        if kii == 0.0:
            delta = 0.0  # flat direction, skip
        else:  # on Python floats: numpy's arithmetic, without its scalar cost
            alpha_i = alpha.item(i)
            delta = (1.0 - responses.item(i)) / kii
            delta = min(max(delta, -alpha_i), box - alpha_i)
        if delta != 0.0:
            row = kernel.row(dataset, i)  # n evaluations
            alpha[i] += delta
            responses += delta * y[i] * y * row
        yield i, delta, alpha, responses


def sdca_train(dataset: Dataset, kernel, config: SdcaConfig,
               test_data: Dataset | None = None, eval_kernel=None,
               timing: bool = False):
    """Stochastic dual coordinate ascent with exact coordinate maximization."""
    rng = np.random.default_rng(config.seed)
    ckpt = Checkpointer(dataset, kernel, config.iterations, {
        "solver": "sdca", "lambda": config.lam,
        "iterations": config.iterations, "seed": config.seed,
    }, test_data, eval_kernel, timing)
    steps = _sdca_steps(dataset, kernel, config.lam, rng)
    for t, (_, _, alpha, responses) in zip(range(1, config.iterations + 1), steps):
        if t in ckpt.schedule:
            ckpt.add(t, float(np.mean(np.maximum(0.0, 1.0 - responses))), alpha)
    return ckpt.model(alpha)


def perceptron_train(dataset: Dataset, kernel, config: PerceptronConfig,
                     test_data: Dataset | None = None, eval_kernel=None,
                     timing: bool = False):
    """Online Perceptron; the per-example score against the live support set
    costs exactly the current mistake count in kernel evaluations.

    The model's integer coefficients count the mistakes made on each
    example; metadata["mistakes"] holds their total. Guarantees hold for a
    single pass; later passes are flagged in the record metadata since the
    predictor may then overfit.
    """
    n = dataset.n
    y = dataset.labels
    rng = np.random.default_rng(config.seed)
    ckpt = Checkpointer(dataset, kernel, config.passes * n, {
        "solver": "perceptron", "passes": config.passes, "seed": config.seed,
        "single_pass_valid_through_iteration": n,
        "beyond_single_pass": config.passes > 1,
    }, test_data, eval_kernel, timing)

    alpha = np.zeros(n, dtype=np.int64)
    # The ascending support set, its gathered rows and its coefficients
    # change only on a mistake.
    sv = np.flatnonzero(alpha)
    support, coef = RowSubset(dataset, sv), alpha[sv] * y[sv]
    step = 0
    for _ in range(config.passes):
        for i in rng.permutation(n):
            step += 1
            if sv.size:
                score_i = float(coef @ kernel.row(dataset, int(i), support))
            else:
                score_i = 0.0
            if y[i] * score_i <= 0.0:  # sign(0) counts as a mistake
                alpha[i] += 1
                sv = np.flatnonzero(alpha)
                support, coef = RowSubset(dataset, sv), alpha[sv] * y[sv]
            if step in ckpt.schedule:
                ckpt.add(step, math.nan, alpha.astype(np.float64))

    return ckpt.model(alpha.astype(np.float64), mistakes=int(alpha.sum()))
