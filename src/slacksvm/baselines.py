"""Comparison solvers on the same kernel-evaluation cost model.

Kernelized Pegasos (stochastic subgradient descent on the regularized
hinge objective, no projection step), stochastic dual coordinate ascent on
the regularized dual, and the single-pass online Perceptron.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .kernels import _CROSS_BLOCK_ENTRIES, RowSubset, add_row
from .recording import (check_count, check_lam, check_seed, geometric_schedule,
                        index_stream, run_steps)


@dataclass
class SdcaConfig:
    lam: float
    iterations: int
    seed: int = 0

    def __post_init__(self):
        check_lam(self.lam)
        check_count("iterations", self.iterations)
        check_seed(self.seed)


@dataclass
class PegasosConfig(SdcaConfig):
    """SDCA's parameters, checked alike, plus averaging of the iterates."""
    average: bool = False


@dataclass
class PerceptronConfig:
    passes: int = 1
    seed: int = 0

    def __post_init__(self):
        check_count("passes", self.passes)
        check_seed(self.seed)


def _pegasos_steps(dataset: Dataset, kernel, config: PegasosConfig, rng):
    """Pegasos's step generator (see pegasos_train)."""
    n = dataset.n
    raw_alpha = np.zeros(n)  # the iterate after step t is raw / t
    raw_resp = np.zeros(n)
    alpha_sum = np.zeros(n) if config.average else None
    resp_sum = np.zeros(n) if config.average else None

    def predict():
        if config.average:
            return resp_sum / t, alpha_sum / t, 0.0
        return raw_resp / t, raw_alpha / t, 0.0

    for t, i in enumerate(index_stream(rng, n), 1):
        # The margin of raw / (t - 1) below 1; the iterate is 0 before step 1.
        if raw_resp.item(i) < max(t - 1, 1):
            add_row(kernel, dataset, i, 1.0 / config.lam, raw_alpha, raw_resp)  # n evaluations
        if config.average:
            alpha_sum += raw_alpha * (1.0 / t)
            resp_sum += raw_resp * (1.0 / t)
        yield predict


def pegasos_train(dataset: Dataset, kernel, config: PegasosConfig,
                  test_data: Dataset | None = None, eval_kernel=None,
                  timing: bool = False):
    """Kernelized Pegasos without a projection step.

    Step t scales w by 1 - 1/t and, on a violation, adds y_i x_i / (lambda
    t). From w = 0 the scale factors telescope: w after step t is the sum of
    y_i x_i / lambda over the violations so far, divided by t. Only that sum
    is kept, so kernel rows (n evaluations) are spent on violation steps
    only. With average, the checkpoints and the returned model are the
    running average of the iterates, its responses averaged alike.
    """
    return run_steps(_pegasos_steps, config.iterations, dataset, kernel, config,
                     test_data, eval_kernel, timing)


def sdca_dual_value(alpha, responses, lam) -> float:
    """Dual objective lambda * (sum alpha - ||w||^2 / 2), with
    ||w||^2 = sum_i alpha_i c_i from the cached responses."""
    return float(lam * (alpha.sum() - 0.5 * (alpha @ responses)))


def _sdca_steps(dataset: Dataset, kernel, config: SdcaConfig, rng):
    """SDCA's step generator; its arrays, updated in place, are the model."""
    n = dataset.n
    box = 1.0 / (config.lam * n)
    alpha = np.zeros(n)
    responses = np.zeros(n)

    def predict():
        return responses, alpha, 0.0

    for i in index_stream(rng, n):
        kii = kernel.pair(dataset, i)
        if kii != 0.0:  # else a flat direction, skipped
            # On Python floats: numpy's arithmetic, without its scalar cost.
            alpha_i = alpha.item(i)
            delta = (1.0 - responses.item(i)) / kii
            delta = min(max(delta, -alpha_i), box - alpha_i)
            if delta != 0.0:
                add_row(kernel, dataset, i, delta, alpha, responses)  # n evaluations
        yield predict


def sdca_train(dataset: Dataset, kernel, config: SdcaConfig,
               test_data: Dataset | None = None, eval_kernel=None,
               timing: bool = False):
    """Stochastic dual coordinate ascent with exact coordinate maximization."""
    return run_steps(_sdca_steps, config.iterations, dataset, kernel, config,
                     test_data, eval_kernel, timing)


def _perceptron_steps(dataset: Dataset, kernel, config: PerceptronConfig, rng):
    """The Perceptron's step generator, config.passes permutations long; its
    predictor has no training margins, so the run records no hinge.

    It scores the permutation a block at a time: the next examples, at most
    _CROSS_BLOCK_ENTRIES // |support| of them, up to the next checkpoint of
    the run or the end of the pass. The block's rows are taken once, as a
    RowSubset: one kernel row of the support's rows over them gives every
    block score. A mistake on a new example adds its row over the rest of
    the block to the scores left, and a repeat mistake its row of the
    product. Each (support member, example) pair is evaluated once, as one
    example at a time would, so the counter reads the same at every
    checkpoint."""
    n = dataset.n
    y, labels = dataset.labels.tolist(), dataset.labels
    alpha = np.zeros(n, dtype=np.int64)

    def predict():
        return None, alpha.astype(np.float64), 0.0

    ends = sorted(geometric_schedule(config.passes * n))
    # The ascending support set and its rows, taken at the first block, when
    # they are empty and cost nothing, and again only when the set has grown.
    grown = True
    for p in range(config.passes):
        order = rng.permutation(n)
        lo = 0
        while lo < n:
            if grown:
                sv = np.flatnonzero(alpha)
                support, grown = RowSubset(dataset, sv), False
            t = p * n + lo  # steps taken
            stop = ends[bisect.bisect_left(ends, t + 1)] - t  # the next checkpoint
            hi = min(lo + max(1, _CROSS_BLOCK_ENTRIES // max(1, sv.size)), lo + stop, n)
            block = RowSubset(dataset, order[lo:hi])
            values = kernel.row(dataset, block, support)
            scores = (alpha[sv] * labels[sv]) @ values
            for k, i in enumerate(order[lo:hi].tolist()):
                if y[i] * scores.item(k) <= 0.0:  # sign(0) counts as a mistake
                    if alpha[i]:
                        scores[k + 1:] += y[i] * values[sv.searchsorted(i), k + 1:]
                    else:
                        grown = True
                        if k + 1 < len(block):
                            scores[k + 1:] += y[i] * kernel.row(dataset, i, block[k + 1:])
                    alpha[i] += 1
                yield predict
            lo = hi


def perceptron_train(dataset: Dataset, kernel, config: PerceptronConfig,
                     test_data: Dataset | None = None, eval_kernel=None,
                     timing: bool = False):
    """Online Perceptron; the per-example score against the live support set
    costs exactly its size in kernel evaluations, counted by the checkpoint
    that follows it. The scores of a block of examples come from one kernel
    product, summed in another order than one dot per example: a decision
    can differ from one example at a time only where a score is within
    rounding of zero, as when twin rows of opposite labels cancel.

    The model's integer coefficients count the mistakes made on each
    example, so their sum is the mistake count. The mistake bound holds for
    a single pass; later passes may overfit.
    """
    return run_steps(_perceptron_steps, config.passes * dataset.n, dataset, kernel,
                     config, test_data, eval_kernel, timing)
