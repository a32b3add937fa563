"""Slow reference implementations used to pin down expected values.

Everything here is deliberately naive: sorting, dense grids, brute force.
Production code must match these, never the other way around.
"""

import io
import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from slacksvm import kernels
from slacksvm.data import _MAX_FEATURE_INDEX, DataError, Dataset
from slacksvm.fourier import _interleave
from slacksvm.kernels import KernelOracle, add_row
from slacksvm.recording import index_stream
from slacksvm.sbp import _MAX_REJECTIONS, sbp_init, sbp_step
from slacksvm.waterfill import find_gamma, find_gamma_and_bias, support_set


def serialize_libsvm(dataset: Dataset) -> str:
    """LIBSVM text of dataset, which parse_libsvm reads back to an equal
    Dataset; floats use shortest round-trip decimals."""
    bounds = dataset.indptr.tolist()
    ids = (dataset.indices + 1).tolist()
    vals = dataset.values.tolist()
    lines = []
    for i, y in enumerate(dataset.labels.tolist()):
        lo, hi = bounds[i], bounds[i + 1]
        feats = " ".join(f"{k}:{v!r}" for k, v in zip(ids[lo:hi], vals[lo:hi]))
        label = "+1" if y > 0 else "-1"
        lines.append(f"{label} {feats}".rstrip())
    return "\n".join(lines) + "\n"


def parse_libsvm_reference(source, positive_class=None) -> Dataset:
    """Parse LIBSVM/SVM-light sparse text into a Dataset, token by token:
    parse_libsvm must give the same arrays, or raise the same error.

    Each data line is ``label idx:val idx:val ...`` with 1-based, strictly
    ascending indices of at most _MAX_FEATURE_INDEX. Labels may be ``+1/-1``
    or ``0/1`` (0 maps to -1); any other label set requires
    ``positive_class``, a finite label, for an explicit one-vs-rest
    mapping (a non-finite one raises ValueError, and one that matches no
    line's label DataError). A ``#`` starts
    a comment that runs to the end of its line, as SVM-light's ``<features>
    # <info>``; blank lines are skipped and CRLF is accepted. Before its
    comment a line is ASCII without ``_``, so that a number reads as C's
    strtol and strtod read it.
    """
    indptr, indices, values, labels, linenos = [0], [], [], [], []
    target = float(positive_class) if positive_class is not None else None
    if target is not None and not math.isfinite(target):
        raise ValueError(f"positive_class must be finite, got {target!r}")
    if isinstance(source, str):
        source = io.StringIO(source)
    for lineno, raw in enumerate(source, start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        # Python's int and float also read '_' between digits and non-ASCII
        # digits, which LIBSVM's strtol and strtod do not.
        if not line.isascii() or "_" in line:
            bad = next(ch for ch in line if ch == "_" or not ch.isascii())
            raise DataError(f"line {lineno}: {bad!r} is not part of a LIBSVM number")
        tokens = line.split()
        try:
            raw_label = float(tokens[0])
        except ValueError:
            raise DataError(f"line {lineno}: unreadable label {tokens[0]!r}")
        if not math.isfinite(raw_label):
            raise DataError(f"line {lineno}: non-finite label {tokens[0]!r}")
        if target is not None:
            label = 1 if raw_label == target else -1
        elif raw_label in (1.0, -1.0):
            label = int(raw_label)
        elif raw_label == 0.0:
            label = -1
        else:
            raise DataError(
                f"line {lineno}: label {tokens[0]!r} is not binary; "
                "use positive_class for one-vs-rest mapping"
            )
        prev = 0
        for tok in tokens[1:]:
            try:
                idx_s, val_s = tok.split(":", 1)
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise DataError(f"line {lineno}: malformed feature {tok!r}")
            if not math.isfinite(val):
                raise DataError(f"line {lineno}: non-finite feature value {tok!r}")
            if idx <= prev:  # prev starts at 0
                if idx < 1:
                    raise DataError(f"line {lineno}: feature index {idx} is not positive")
                raise DataError(f"line {lineno}: non-ascending feature index {idx}")
            prev = idx
            if val != 0.0:
                indices.append(idx - 1)
                values.append(val)
        if prev > _MAX_FEATURE_INDEX:  # the line's largest index
            raise DataError(f"line {lineno}: feature index {prev} is above {_MAX_FEATURE_INDEX}")
        indptr.append(len(indices))
        labels.append(label)
        linenos.append(lineno)
    if not labels:
        raise DataError("no examples found")
    if target is not None and 1 not in labels:
        raise DataError(f"positive_class {target!r} matches no label")
    try:
        return Dataset(indptr, indices, values, labels)
    except DataError as exc:
        if exc.row is None:
            raise
        raise DataError(f"line {linenos[exc.row]}: {exc.reason}") from None


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


def sorted_level_reference(a, volume):
    """waterfill._sorted_level as it was before its levels were formed in
    place: (volume + cumsum) / arange under np.errstate on every call."""
    with np.errstate(over="ignore"):
        levels = (volume + np.cumsum(a)) / np.arange(1, a.size + 1)
    dry = levels[:-1] <= a[1:]
    gamma = float(levels[dry.argmax() if dry.any() else -1])
    if not math.isfinite(gamma):
        raise ValueError("water level overflows: responses and volume too large")
    return gamma


def _midpoint_level_reference(a, b, k, s):
    lo = max(a[k - 1] if k else -np.inf, s - b[k] if k < b.size else -np.inf)
    hi = min(a[k] if k < a.size else np.inf, s - b[k - 1] if k else np.inf)
    return 0.5 * float(lo) + 0.5 * float(hi)


def level_and_bias_reference(p, q, volume):
    """waterfill._level_and_bias as it was on the gathered classes p and q:
    np.sort copies of each, numpy-scalar ends and midpoints, and
    sorted_level_reference. Returns (gamma, bias); raises ValueError where
    the core does."""
    p = np.sort(p)
    q = np.sort(q)
    if not (p.size and q.size):
        raise ValueError("both classes must be present; bias is unbounded otherwise")
    if not all(map(math.isfinite, (p[0], p[-1], q[0], q[-1]))):
        raise ValueError("responses must be finite")
    m = min(p.size, q.size)
    if not (math.isfinite(float(p[0]) + float(q[0]))
            and math.isfinite(float(p[m - 1]) + float(q[m - 1]))):
        raise ValueError("paired floors p_(j) + q_(j) must be finite")
    floors = p[:m] + q[:m]
    s = sorted_level_reference(floors, volume)
    k = int(np.searchsorted(floors, s))
    u = _midpoint_level_reference(p, q, k, s)
    v = _midpoint_level_reference(q, p, k, s)
    return 0.5 * s, 0.5 * (v - u)


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
    does, except for the running sums, and returns the sampled index.

    The index comes from the index streams on each class's positions that
    the first step makes from rng, as sbp_step does: a fair coin picks the
    class, and the index is the first of at most _MAX_REJECTIONS draws whose
    shifted response lies more than 1e-12 * max(1, |gamma|) below the level.
    After that many misses, or at volume 0, it is a uniform pick from the
    class's support_set, or from its argmin when that set is empty.
    """
    y = dataset.labels
    t = state.t + 1
    eta = state.eta0 / math.sqrt(t)
    volume = dataset.n * config.nu
    if not state.draws:
        state.draws = tuple(index_stream(rng, int(np.count_nonzero(y == sign)))
                            for sign in (1.0, -1.0))
    gamma, state.bias = find_gamma_and_bias(state.responses, y, volume)
    shifted = state.responses + y * state.bias
    sign = 1.0 if rng.integers(2) == 0 else -1.0
    cls = np.flatnonzero(y == sign)
    draws = state.draws[0 if sign > 0 else 1]
    i = None
    for _ in range(_MAX_REJECTIONS if volume > 0.0 else 0):
        j = int(cls[next(draws)])
        if shifted[j] < gamma - 1e-12 * max(1.0, abs(gamma)):
            i = j
            break
    if i is None:
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


def covered_law(c, gamma, classes, bias):
    """{index: probability} of uniform picks from support_set of level gamma
    (classes None), or per class of mass 1/2 from its support_set of the
    responses shifted by y * bias, its argmin when dry (classes the
    positive and the negative index arrays)."""
    if classes is None:
        idx = support_set(c, gamma)
        return {int(i): 1.0 / idx.size for i in idx}
    law = {}
    for cls, sign in zip(classes, (1.0, -1.0)):
        shifted = c[cls] + sign * bias
        idx = support_set(shifted, gamma)
        if idx.size == 0:
            idx = np.flatnonzero(shifted == shifted.min())
        law.update((int(i), 0.5 / idx.size) for i in cls[idx])
    return law


def certified_gap(dataset, kernel, config, checkpoints):
    """{T: U(p_bar) - f(c_bar)} of an SBP run of config after each T steps
    in checkpoints: an upper bound on its suboptimality.

    The problem is max f(w) = gamma(c(w)) over ||w||_K <= 1 (and a free
    bias with config.use_bias), gamma the water level of volume V = n * nu.
    f(c_bar), the level of the averaged responses (at their best bias), is
    a lower bound on the optimum f*: the averaged iterate lies in the unit
    ball. LP duality of the level gives gamma(c) = min over distributions
    p of sum_i p_i c_i + V max_i p_i, so by minimax every p bounds
        f* <= U(p) = ||sum_i p_i y_i phi(x_i)||_K + V max_i p_i,
    with a bias every p with sum_i p_i y_i = 0. p_bar averages each step's
    covered law (covered_law), computed before the step, at the level (and
    bias) of that step's responses; with a bias it puts half its mass on
    each class, so sum_i p_bar_i y_i = 0. U costs |supp p_bar| * n kernel
    evaluations, at most n^2, on kernel's counter as the run's steps do.
    """
    y = dataset.labels
    volume = dataset.n * config.nu
    state = sbp_init(dataset, kernel, config)
    classes = state.basins if config.use_bias else None
    rng = np.random.default_rng(config.seed)
    mass = np.zeros(dataset.n)
    gaps = {}
    for t in range(1, max(checkpoints) + 1):
        c = state.responses
        if config.use_bias:
            gamma, bias = find_gamma_and_bias(c, y, volume)
        else:
            gamma, bias = find_gamma(c, volume), 0.0
        for i, p in covered_law(c, gamma, classes, bias).items():
            mass[i] += p
        sbp_step(state, dataset, kernel, config, rng)
        if t in checkpoints:
            cbar = state.response_sum / t
            lower = (find_gamma_and_bias(cbar, y, volume)[0] if config.use_bias
                     else find_gamma(cbar, volume))
            v = mass / t * y
            kv = sum(v[j] * kernel.row(dataset, j) for j in np.flatnonzero(v))
            upper = math.sqrt(max(float(v @ kv), 0.0)) + volume * float(mass.max()) / t
            gaps[t] = upper - lower
    return gaps


def pegasos_steps_reference(dataset, kernel, config, rng):
    """Pegasos's step generator as it was before block draws: one scalar
    rng.integers(n) per step, otherwise baselines._pegasos_steps line for
    line, so a run through recording.run_steps must give the same bytes."""
    n = dataset.n
    raw_alpha = np.zeros(n)
    raw_resp = np.zeros(n)
    alpha_sum = np.zeros(n) if config.average else None
    resp_sum = np.zeros(n) if config.average else None

    def predict():
        if config.average:
            return resp_sum / t, alpha_sum / t, 0.0
        return raw_resp / t, raw_alpha / t, 0.0

    for t in itertools.count(1):
        i = int(rng.integers(n))
        if raw_resp.item(i) < max(t - 1, 1):
            add_row(kernel, dataset, i, 1.0 / config.lam, raw_alpha, raw_resp)
        if config.average:
            alpha_sum += raw_alpha * (1.0 / t)
            resp_sum += raw_resp * (1.0 / t)
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


def perceptron_reference(dataset, kernel, passes: int, seed: int, scores=None):
    """Online Perceptron that recomputes its support set at every visit and
    scores one example at a time, with the kernel values the row contract
    names for it: on dense data one matmul of the ascending support's rows
    with x_i, mapped by kernel._values; on sparse data the full kernel row
    sliced to it, which the contract makes the same bits. Each score is one
    dot in ascending support order, the order the library's blocks do not
    keep: they decide alike wherever a score is not within rounding of zero.

    Visits follow the same seeded permutations as the library's Perceptron.
    Returns (alpha, the support size at each visit, alpha after each step
    keyed by the 1-based step); a visit's cost is its support size, whatever
    the full rows charge on kernel's counter. With a list scores, appends
    each visit's (score, sum of |coef * K| over the support) to it, (0.0,
    0.0) for an empty support.
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
            score = magnitude = 0.0
            if sv.size:
                if dense is not None:
                    values = kernel._values(np.matmul(dense[sv], dense[i]),
                                            dataset.norms[sv], dataset.norms[i])
                else:
                    values = kernel.row(dataset, int(i))[sv]
                coef = alpha[sv] * y[sv]
                score, magnitude = float(coef @ values), float(np.abs(coef * values).sum())
            if scores is not None:
                scores.append((score, magnitude))
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


def held_out_blocks_reference(self, dataset, rows, other):
    """The block loop that cross and scores ran before their blocks came
    from RowSubset.products, copied verbatim from KernelOracle._blocks with
    the kernel as self; only the block budget is read as
    kernels._CROSS_BLOCK_ENTRIES, so a patched budget applies. Yields (lo,
    block), each block a view of one buffer that the next overwrites."""
    dense = dataset._dense is not None and other._dense is not None
    if dense:
        m = min(dataset.dimension, other.dimension)
        left, right = dataset._dense[:, :m], other._dense[:, :m].T
    else:
        # The rows over other's stored features, in the same order.
        (mine, left), features = dataset.compact, other.compact[0]
        left, right = left[rows], other.transposed
        ids = mine[left.indices]
        kept = np.isin(ids, features)
        left = sp.csr_matrix((left.data[kept], np.searchsorted(features, ids[kept]),
                              np.concatenate(([0], np.cumsum(kept)))[left.indptr]),
                             shape=(rows.size, features.size))
    norms_i = dataset.norms[rows][:, None]
    step = max(1, kernels._CROSS_BLOCK_ENTRIES // other.n)
    buffer = np.empty((min(step, rows.size), other.n))
    for lo in range(0, rows.size, step):
        hi = min(lo + step, rows.size)
        block = buffer[:hi - lo]
        if dense:
            np.matmul(left[rows[lo:hi]], right, out=block)
        else:
            (left[lo:hi] @ right).toarray(out=block)
        yield lo, self._values(block, norms_i[lo:hi], other.norms[None, :])


def cross_blocks_reference(kernel, dataset, rows, other):
    """kernel.cross as it was over held_out_blocks_reference, not counted."""
    rows = np.asarray(rows, dtype=np.int64)
    out = np.empty((rows.size, other.n))
    for lo, block in held_out_blocks_reference(kernel, dataset, rows, other):
        out[lo:lo + len(block)] = block
    return out


def scores_blocks_reference(kernel, dataset, rows, coef, other):
    """kernel.scores as it was over held_out_blocks_reference, not counted."""
    rows = np.asarray(rows, dtype=np.int64)
    out = np.zeros(other.n)
    for lo, block in held_out_blocks_reference(kernel, dataset, rows, other):
        out += coef[lo:lo + len(block)] @ block
    return out


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
    the Gram matrix was built for. pair records each index it evaluates, in
    order, in paired.
    """

    def __init__(self, gram: np.ndarray, dataset):
        super().__init__()
        gram = np.asarray(gram, dtype=np.float64)
        if gram.shape != (dataset.n, dataset.n):
            raise DataError("Gram matrix shape does not match the dataset")
        self.gram = gram
        self.dataset = dataset
        self.paired = []

    def _check(self, *datasets):
        if any(ds is not self.dataset for ds in datasets):
            raise DataError("dataset is not covered by the precomputed Gram matrix")

    def pair(self, dataset, i):
        self._check(dataset)
        self.eval_count += 1
        self.paired.append(i)
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
