"""Slow reference implementations used to pin down expected values.

Everything here is deliberately naive: sorting, dense grids, brute force.
Production code must match these, never the other way around.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from slacksvm.data import DataError
from slacksvm.fourier import _interleave
from slacksvm.kernels import KernelOracle, add_row
from slacksvm.waterfill import find_gamma, find_gamma_and_bias, support_set


def water_level_sorted(c, volume):
    """Sort-then-scan solution of sum_i max(0, gamma - c_i) = volume.

    O(n log n); walks the sorted responses until the water needed to reach
    the next floor exceeds the remaining volume.
    """
    c = np.sort(np.asarray(c, dtype=np.float64))
    if volume == 0.0:
        return float(c[0])
    n = c.size
    prefix = np.cumsum(c)
    for k in range(1, n + 1):
        gamma = (volume + prefix[k - 1]) / k
        if k == n or gamma <= c[k]:
            return float(gamma)
    raise AssertionError("unreachable")


def water_level_sorted_fast(c, volume):
    """Vectorized variant of water_level_sorted for large batches of calls."""
    cs = np.sort(np.asarray(c, dtype=np.float64))
    if volume == 0.0:
        return float(cs[0])
    n = cs.size
    k = np.arange(1, n + 1)
    gammas = (volume + np.cumsum(cs)) / k
    feasible = np.empty(n, dtype=bool)
    feasible[:-1] = gammas[:-1] <= cs[1:]
    feasible[-1] = True
    return float(gammas[np.argmax(feasible)])


def water_level_rows(shifted, volume):
    """Water level of every row of a 2-D array for a common volume."""
    cs = np.sort(shifted, axis=1)
    m, n = cs.shape
    if volume == 0.0:
        return cs[:, 0].copy()
    k = np.arange(1, n + 1)
    gammas = (volume + np.cumsum(cs, axis=1)) / k
    feasible = np.empty((m, n), dtype=bool)
    feasible[:, :-1] = gammas[:, :-1] <= cs[:, 1:]
    feasible[:, -1] = True
    first = np.argmax(feasible, axis=1)
    return gammas[np.arange(m), first]


def bias_grid_values(c, y, volume, grid):
    """gamma(b) over the whole grid (for comparing against a claimed max)."""
    c = np.asarray(c, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return np.array([water_level_sorted(c + y * b, volume) for b in grid])


def _slope_counts(c, y, b, volume):
    """Covered counts per class at bias b (d gamma / d b has sign k+ - k-)."""
    shifted = c + y * b
    idx = support_set(shifted, find_gamma(shifted, volume))
    pos = int(np.count_nonzero(y[idx] > 0))
    return pos, idx.size - pos


def bias_level_bisection(c, y, volume: float, max_iter: int = 200):
    """Jointly find the water level and the unregularized bias by bisection;
    returns (gamma, bias).

    Maximizes gamma(b), the water level of the shifted responses
    c_i + y_i * b, over b. gamma(b) is concave with slope of the same sign
    as the covered-count imbalance between the two class basins, so a sign
    bisection converges; at the optimum the basins cover equally many
    indices whenever both still have dry capacity. About 25 water fills
    per call.
    """
    c = np.asarray(c, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if c.shape != y.shape or c.ndim != 1 or c.size == 0:
        raise ValueError("responses and labels must be matching nonempty vectors")
    if not (np.any(y > 0) and np.any(y < 0)):
        raise ValueError("both classes must be present; bias is unbounded otherwise")
    if not volume >= 0.0:
        raise ValueError("volume must be non-negative")

    spread = float(c.max() - c.min())
    half = spread + volume + 1.0
    lo, hi = -half, half
    # Expand until the slope brackets a maximum.
    for _ in range(64):
        if _slope_counts(c, y, lo, volume)[0] >= _slope_counts(c, y, lo, volume)[1]:
            break
        lo *= 2.0
    for _ in range(64):
        kp, kn = _slope_counts(c, y, hi, volume)
        if kn >= kp:
            break
        hi *= 2.0

    b = 0.5 * (lo + hi)
    for _ in range(max_iter):
        b = 0.5 * (lo + hi)
        kp, kn = _slope_counts(c, y, b, volume)
        if kp == kn:
            break
        if kp > kn:
            lo = b
        else:
            hi = b
        if hi - lo <= 1e-14 * max(1.0, abs(lo), abs(hi)):
            b = 0.5 * (lo + hi)
            break

    return find_gamma(c + y * b, volume), float(b)


def sbp_bias_step_reference(state, dataset, kernel, config, rng) -> int:
    """SBP's bias-mode step through the public find_gamma_and_bias, the whole
    shifted response vector c + y * bias, a class mask drawn per step and a
    response update through n-long temporaries. Mutates state as sbp_step
    does, except for the running sums, and returns the sampled index."""
    y = dataset.labels
    t = state.t + 1
    eta = state.eta0 / math.sqrt(t)
    gamma, state.bias = find_gamma_and_bias(state.responses, y, dataset.n * config.nu)
    shifted = state.responses + y * state.bias
    sign = 1.0 if rng.integers(2) == 0 else -1.0
    cls = np.flatnonzero(y == sign)
    idx = cls[support_set(shifted[cls], gamma)]
    if idx.size == 0:
        idx = cls[shifted[cls] == shifted[cls].min()]
    i = int(idx[rng.integers(idx.size)])

    row = kernel.row(dataset, i)
    state.norm_sq += 2.0 * eta * state.responses[i] + eta * eta * row[i]
    state.alpha[i] += eta
    state.responses += eta * y[i] * y * row
    if state.norm_sq > 1.0:
        r = math.sqrt(state.norm_sq)
        state.alpha /= r
        state.responses /= r
        state.norm_sq = 1.0
    state.t = t
    return i


def pegasos_steps_reference(dataset, kernel, config, rng):
    """Pegasos's step generator as it was before block draws: one scalar
    rng.integers(n) per step, otherwise baselines._pegasos_steps line for
    line, so a run through recording.run_steps must give the same bytes."""
    n = dataset.n
    raw_alpha = np.zeros(n)
    raw_resp = np.zeros(n)
    scale = 1.0
    alpha_sum = np.zeros(n) if config.average else None
    resp_sum = np.zeros(n) if config.average else None

    def predict():
        if config.average:
            return resp_sum / t, alpha_sum / t, 0.0
        return scale * raw_resp, scale * raw_alpha, 0.0

    for t in itertools.count(1):
        i = int(rng.integers(n))
        violation = scale * raw_resp[i] < 1.0
        if t > 1:
            scale *= 1.0 - 1.0 / t
        if violation:
            eta = 1.0 / (config.lam * t)
            add_row(kernel, dataset, i, eta / scale, raw_alpha, raw_resp)
        if config.average:
            alpha_sum += scale * raw_alpha
            resp_sum += scale * raw_resp
        yield predict


def best_regularized_on_grid(x, labels, lam, radius=5.0, steps=200):
    """Dense 2-D grid search for the lambda-regularized hinge optimum.
    Returns (w, primal value)."""
    assert x.shape[1] == 2
    axis = np.linspace(-radius, radius, steps)
    best = (np.inf, None)
    for a in axis:
        margins_a = labels * x[:, 0] * a
        for b in axis:
            margins = margins_a + labels * x[:, 1] * b
            hinge = np.maximum(0.0, 1.0 - margins).mean()
            val = 0.5 * lam * (a * a + b * b) + hinge
            if val < best[0]:
                best = (val, np.array([a, b]))
    return best[1], best[0]


def sdca_delta_oracle(c_i, alpha_i, k_ii, box, grid_size=None):
    """Exact 1-D maximizer of the dual restricted to coordinate i.

    The restriction is the concave quadratic
        q(delta) = delta * (1 - c_i) - delta^2 * k_ii / 2
    over [-alpha_i, box - alpha_i]; the maximizer is the clamped vertex.
    """
    lo, hi = -alpha_i, box - alpha_i
    if k_ii == 0.0:
        return 0.0
    vertex = (1.0 - c_i) / k_ii
    return min(max(vertex, lo), hi)


def perceptron_reference(dataset, kernel, passes: int, seed: int):
    """Online Perceptron that recomputes its support set at every visit and
    scores with the kernel values the row contract names for it: on dense
    data one matmul of the ascending support's rows with x_i, mapped by
    kernel._values; on sparse data the full kernel row sliced to it, which
    the contract makes the same bits.

    Visits follow the same seeded permutations as the library's Perceptron.
    Returns (alpha, the support size at each visit, alpha after each step
    keyed by the 1-based step); a visit's cost is its support size, whatever
    the full rows charge on kernel's counter.
    """
    n = dataset.n
    y = dataset.labels
    dense = dataset._dense
    rng = np.random.default_rng(seed)
    alpha = np.zeros(n, dtype=np.int64)
    sizes, after = [], {}
    for _ in range(passes):
        for i in rng.permutation(n):
            sv = np.flatnonzero(alpha)
            sizes.append(sv.size)
            score = 0.0
            if sv.size:
                if dense is not None:
                    values = kernel._values(np.matmul(dense[sv], dense[i]),
                                            dataset.norms[sv], dataset.norms[i])
                else:
                    values = kernel.row(dataset, int(i))[sv]
                score = float((alpha[sv] * y[sv]) @ values)
            if y[i] * score <= 0.0:
                alpha[i] += 1
            after[len(sizes)] = alpha.copy()
    return alpha, sizes, after


def cross_reference(kernel, dataset, rows, other):
    """kernel.cross without blocks and without counting: the whole sparse
    product of dataset[rows] and other over their common features, made
    dense, then mapped to kernel values in one call."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        return np.zeros((0, other.n))
    m = min(dataset.dimension, other.dimension)
    products = (dataset.matrix[rows, :m] @ other.matrix[:, :m].T).toarray()
    return kernel._values(products, dataset.norms[rows][:, None], other.norms[None, :])


def fourier_reference(fmap, dataset):
    """fourier_features_batch by the projection over all dimension columns,
    dataset.matrix[:, :m] @ directions[:, :m].T / sqrt(sigma_sq) with m the
    smaller of the dimension and the map's width, then interleaved."""
    m = min(dataset.dimension, fmap.directions.shape[1])
    proj = np.asarray(dataset.matrix[:, :m] @ fmap.directions[:, :m].T) / np.sqrt(fmap.sigma_sq)
    return _interleave(proj, fmap.k)


class PrecomputedGramKernel(KernelOracle):
    """Gram-matrix lookup.

    Still counts evaluations so reported costs stay comparable across
    kernel modes. Rows are identified by their index within the one dataset
    the Gram matrix was built for.
    """

    def __init__(self, gram: np.ndarray, dataset):
        super().__init__()
        gram = np.asarray(gram, dtype=np.float64)
        if gram.shape != (dataset.n, dataset.n):
            raise DataError("Gram matrix shape does not match the dataset")
        self.gram = gram
        self.dataset = dataset

    def _check(self, *datasets):
        if any(ds is not self.dataset for ds in datasets):
            raise DataError("dataset is not covered by the precomputed Gram matrix")

    def pair(self, dataset, i):
        self._check(dataset)
        self.eval_count += 1
        return float(self.gram[i, i])

    def row(self, dataset, j, rows=None):
        self._check(dataset)
        column = self.gram[:, j] if rows is None else self.gram[rows, j]
        self.eval_count += column.size
        return column.copy()

    def cross(self, dataset, rows, other):
        self._check(dataset, other)
        values = self.gram[rows]
        self.eval_count += values.size
        return values

    def scores(self, dataset, rows, coef, other):
        return coef @ self.cross(dataset, rows, other)

    @property
    def spec_string(self):
        return "precomputed"


@dataclass(frozen=True)
class RescaleReport:
    norm: float
    hinge: float
    norm_bound: float
    loss_bound: float
    norm_ok: bool
    loss_ok: bool


def rescale_check(model, dataset, kernel, reference_norm: float,
                  reference_loss: float, eps_bar: float) -> RescaleReport:
    """Check the rescaled model against the suboptimality bounds
    ||w|| <= ||u||/(1 - eps*||u||), L(w) <= L(u)/(1 - eps*||u||).

    Computes the exact norm and empirical hinge loss of the model, costing
    n^2 kernel evaluations.
    """
    denom = 1.0 - eps_bar * reference_norm
    if denom <= 0:
        raise ValueError("eps_bar * reference_norm must be below 1")
    n = dataset.n
    gram = np.empty((n, n))
    for j in range(n):
        gram[:, j] = kernel.row(dataset, j)
    ay = model.alpha * dataset.labels
    norm = math.sqrt(max(0.0, float(ay @ gram @ ay)))
    margins = dataset.labels * (gram @ ay + model.bias)
    hinge = float(np.mean(np.maximum(0.0, 1.0 - margins)))
    norm_bound = reference_norm / denom
    loss_bound = reference_loss / denom
    return RescaleReport(
        norm=norm, hinge=hinge,
        norm_bound=norm_bound, loss_bound=loss_bound,
        norm_ok=norm <= norm_bound + 1e-12,
        loss_ok=hinge <= loss_bound + 1e-12,
    )
