"""Slack-constrained kernel SVM training by stochastic supergradient ascent.

The solver maximizes the margin subject to ||w|| <= 1 and a total slack
budget of n*nu, representing w through coefficients on the training points.
Each iteration finds the water level of the cached responses, samples a
covered point, bumps its coefficient, refreshes all responses with one
kernel row (n evaluations), and projects back to the unit ball. The
returned model is the averaged iterate rescaled by its own objective value.

The covered point is drawn within a basin, an index array fixed for the
run: without a bias the one basin holds every index; with one, a fair coin
picks the basin of the positive or of the negative examples, whose
responses are shifted by y * bias. Uniform positions from the basin's index
stream are tested one at a time against the level, and the first index
strictly below it is taken, so a step reads about n / |covered| responses
instead of all n. After _MAX_REJECTIONS misses, or when the slack volume is
0 and nothing lies strictly below the level, the step draws from the
basin's covered set that support_set builds. Both ways the index is uniform
on that set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .kernels import add_row
from .model import SolverError
from .recording import check_count, check_seed, index_stream, run_steps
from .waterfill import (_level_and_bias, covered_bounds, find_gamma, find_gamma_and_bias,
                        support_set)

# Steps between recomputations of the tracked norm from alpha and responses.
_NORM_RECOMPUTE_PERIOD = 1000

# Draws tested against the level before the sampler builds the covered set.
# Each draw hits with probability |covered| / n (about 0.46 at nu = 0.1 on
# two Gaussian classes of n = 20,000, where 64 misses have probability
# 0.54**64 < 1e-17), so the fallback is for levels with nothing, or almost
# nothing, strictly below them.
_MAX_REJECTIONS = 64


@dataclass
class SbpConfig:
    nu: float
    iterations: int
    seed: int = 0
    use_bias: bool = False

    def __post_init__(self):
        if not 0 <= self.nu < math.inf:
            raise ValueError(f"nu must be non-negative and finite, got {self.nu!r}")
        check_count("iterations", self.iterations)
        check_seed(self.seed)


@dataclass
class SbpState:
    alpha: np.ndarray
    responses: np.ndarray
    norm_sq: float
    alpha_sum: np.ndarray
    response_sum: np.ndarray
    t: int
    bias: float
    eta0: float
    # The index arrays the sampler draws within, taken once per run: every
    # index without bias; the positive and the negative examples with it.
    basins: tuple[np.ndarray, ...]
    # Water level of the last no-bias step: the start of the next search.
    level: float | None = None
    # Index streams from the rng of the first step, made then and read by
    # every later step: one on the positions of each basin.
    draws: tuple = ()


def sbp_init(dataset: Dataset, kernel, config: SbpConfig) -> SbpState:
    """Zero state; eta0 = 1/sqrt(max_i K(x_i, x_i)) (n kernel evaluations).

    Raises ValueError, before any evaluation, when the slack budget
    n * nu overflows; SolverError in bias mode unless both classes are
    present, and when every K(x_i, x_i) is 0, which leaves no step size.
    """
    n = dataset.n
    if not math.isfinite(n * config.nu):
        raise ValueError(f"nu = {config.nu!r} times n = {n} overflows the slack budget")
    if config.use_bias:
        basins = (np.flatnonzero(dataset.labels > 0), np.flatnonzero(dataset.labels < 0))
        if not (basins[0].size and basins[1].size):
            raise SolverError("bias mode requires both classes in the training set")
    else:
        basins = (np.arange(n),)
    diag_max = float(kernel.diag(dataset).max())
    if not diag_max > 0.0:
        raise SolverError("every K(x_i, x_i) is 0: no step size")
    eta0 = 1.0 / math.sqrt(diag_max)
    return SbpState(
        alpha=np.zeros(n),
        responses=np.zeros(n),
        norm_sq=0.0,
        alpha_sum=np.zeros(n),
        response_sum=np.zeros(n),
        t=0,
        bias=0.0,
        eta0=eta0,
        basins=basins,
    )


def _sample_covered(c, shift, gamma, volume, basin, draws, rng) -> int:
    """Index uniform on the covered set of basin, for responses c shifted
    by shift at level gamma of the slack volume and draws an index stream
    on the positions of basin.

    It is the first basin[j] of the draws j whose shifted response lies
    under covered_bounds' strict bound, which is uniform on the strict
    covered set. After _MAX_REJECTIONS misses, or at volume 0, where the
    level is the lowest floor and nothing lies strictly below it, it is a
    uniform pick from support_set of the shifted basin, which is that set
    or, when it is empty, the at-level set; when that is empty too (a dry
    class in bias mode), from the basin's argmin.
    """
    if volume > 0.0:
        below, _ = covered_bounds(gamma)
        for _, j in zip(range(_MAX_REJECTIONS), draws):
            i = basin.item(j)
            if c.item(i) + shift < below:
                return i
    shifted = c[basin] + shift
    idx = support_set(shifted, gamma)
    if idx.size == 0:
        idx = np.flatnonzero(shifted == shifted.min())
    return int(basin[idx[rng.integers(idx.size)]])


def sbp_step(state: SbpState, dataset: Dataset, kernel, config: SbpConfig, rng):
    """One full iteration; mutates state, costs exactly n kernel evaluations."""
    t = state.t + 1
    eta = state.eta0 / math.sqrt(t)
    volume = dataset.n * config.nu

    if not state.draws:
        state.draws = tuple(index_stream(rng, b.size) for b in state.basins)
    if config.use_bias:
        gamma, state.bias = _level_and_bias(state.responses, *state.basins, volume)
        # A fair coin picks the class; y * bias is exactly its shift.
        k = int(rng.integers(2))
        shift = -state.bias if k else state.bias
    else:
        gamma = state.level = find_gamma(state.responses, volume, start=state.level)
        k, shift = 0, 0.0
    i = _sample_covered(state.responses, shift, gamma, volume, state.basins[k],
                        state.draws[k], rng)

    c_old_i = state.responses[i]
    kii = add_row(kernel, dataset, i, eta, state.alpha, state.responses)  # n evaluations
    state.norm_sq += 2.0 * eta * c_old_i + eta * eta * kii
    if state.norm_sq > 1.0:
        r = math.sqrt(state.norm_sq)
        state.alpha /= r
        state.responses /= r
        state.norm_sq = 1.0
    state.t = t
    if t % _NORM_RECOMPUTE_PERIOD == 0:
        # Reset accumulated floating-point drift in the tracked norm.
        state.norm_sq = float(state.alpha @ state.responses)
    state.alpha_sum += state.alpha
    state.response_sum += state.responses
    return state


def _sbp_steps(dataset: Dataset, kernel, config: SbpConfig, rng):
    """SBP's step generator; its model is the averaged iterate rescaled by
    its water level, none while that is not positive. sbp_init and sbp_step
    are called through the module, so a wrapper installed on either sees
    every call."""
    y = dataset.labels
    volume = dataset.n * config.nu
    state = sbp_init(dataset, kernel, config)

    def predict():
        cbar = state.response_sum / state.t
        if config.use_bias:
            gamma, bias = find_gamma_and_bias(cbar, y, volume)
        else:
            gamma, bias = find_gamma(cbar, volume), 0.0
        if not gamma > 0:
            return None, None, 0.0
        return ((cbar + y * bias) / gamma, state.alpha_sum / (state.t * gamma),
                bias / gamma)

    while True:
        sbp_step(state, dataset, kernel, config, rng)
        yield predict


def sbp_train(dataset: Dataset, kernel, config: SbpConfig,
              test_data: Dataset | None = None, eval_kernel=None,
              timing: bool = False):
    """Run the full training loop; returns (TrainedModel, RunRecord)."""
    return run_steps(_sbp_steps, config.iterations, dataset, kernel, config,
                     test_data, eval_kernel, timing)
