"""Water-level finding on response vectors.

Given responses c and a slack volume V, the water level gamma is the unique
solution of sum_i max(0, gamma - c_i) = V (for V > 0), i.e. the level
reached when a volume V of water is poured into a basin whose floor heights
are the c_i. The level equals the slack-constrained objective value at the
current predictor, and the covered indices define the sampling distribution
for stochastic supergradients.

A cold search sorts the floors: over the k lowest floors the level is
(V + their sum) / k, and the answer is the first k whose level does not
pass floor k+1. This is the sort-based threshold of ell-1/simplex
projection (Held, Wolfe and Crowder 1974; Duchi et al. 2008; Condat 2016),
O(n log n) for the sort and O(n) after it. Given a start level, such as the
previous SBP iteration's, Newton (Michelot) passes find the level instead:
each pass pours the volume over the floors strictly below the current
level, and the pass whose floor count repeats is exact. Responses move
little between iterations, so a few O(n) passes suffice there; after
_MAX_NEWTON_PASSES the sorted form finishes the job.

With an unregularized bias b the floors become c_i + y_i * b: positives
stand at level u = gamma - b over their floors p, negatives at
v = gamma + b over their floors q, and the best b maximizes u + v = 2 gamma
subject to the two basins holding V together. The least water that reaches
a level sum s is the infimal convolution of the two basins,
sum_j max(0, s - p_(j) - q_(j)) over the j-th smallest floors of each class,
j <= min(n+, n-). So one sort per class and one water fill of these paired
floors give the exact optimum. The paired floors come out sorted, so their
level needs no further search. The optimal biases form an interval, and its
midpoint is taken.
"""

from __future__ import annotations

import math

import numpy as np

# Newton passes allowed from a start level before falling back to the
# sort. Starts from the previous SBP iteration need 3-6; far starts on
# floors spread over many orders of magnitude can need hundreds.
_MAX_NEWTON_PASSES = 16


def _sorted_level(a: np.ndarray, volume: float) -> float:
    """Level gamma with sum_i max(0, gamma - a_i) == volume >= 0 for
    ascending floors a: the level over the first k floors at the first k
    where it does not pass floor k+1, or over all floors.

    Raises ValueError when the running sum behind that level overflows.
    Levels before the first overflowing sum are unaffected by it, so the
    chosen level is either right or infinite.
    """
    with np.errstate(over="ignore"):
        levels = (volume + np.cumsum(a)) / np.arange(1, a.size + 1)
    dry = levels[:-1] <= a[1:]
    gamma = float(levels[dry.argmax() if dry.any() else -1])
    if not math.isfinite(gamma):
        raise ValueError("water level overflows: responses and volume too large")
    return gamma


def _newton_level(c: np.ndarray, volume: float, start: float) -> float | None:
    """Level gamma with sum_i max(0, gamma - c_i) == volume > 0 by Newton
    passes from start, or None when _MAX_NEWTON_PASSES do not settle it.

    A pass takes the floors strictly below the current level and moves the
    level to where those alone hold the volume. From below the root this
    overshoots it; from above it descends monotonically, never past the
    root. The below-sets of levels are nested, so a pass that finds as many
    floors below as the last one has the same set, and its level is exact.
    A pass whose sum overflows also gives None, for the sorted form to judge.
    """
    gamma = start
    last = -1
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_MAX_NEWTON_PASSES):
            below = c < gamma
            m = int(np.count_nonzero(below))
            if m == last:
                return gamma
            if m == 0:
                # Dry start: the lowest floor alone under volume is above the root.
                gamma = float(c.min()) + volume
            else:
                gamma = (volume + float(c @ below)) / m
            if not math.isfinite(gamma):
                return None
            last = m
    return None


def _responses(c) -> np.ndarray:
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("responses must be a nonempty 1-D vector")
    if not np.isfinite(c).all():
        raise ValueError("responses must be finite")
    return c


def _check_volume(volume: float) -> None:
    if not (volume >= 0.0 and math.isfinite(volume)):
        raise ValueError("volume must be finite and non-negative")


def find_gamma(c, volume: float, start: float | None = None) -> float:
    """Find the water level for responses c and slack volume >= 0.

    Without start, the level comes from the sorted responses in
    O(n log n). With a finite start level, such as the previous SBP
    iteration's, Newton passes of O(n) each find the same level exactly, a
    few passes when start is near it; after _MAX_NEWTON_PASSES the sorted
    form takes over. Raises ValueError when a sum behind the level
    overflows the float range, even where the level itself would fit.
    """
    c = _responses(c)
    _check_volume(volume)
    if start is not None and not math.isfinite(start):
        raise ValueError("start level must be finite")
    if volume == 0.0:
        return float(c.min())
    gamma = None if start is None else _newton_level(c, float(volume), float(start))
    if gamma is None:
        gamma = _sorted_level(np.sort(c), float(volume))
    return gamma


def support_set(c, gamma: float) -> np.ndarray:
    """Indices to sample supergradients from: the covered set of level gamma.

    These are the points strictly below the level, or the at-level set when
    nothing is strictly below (separable case); both within a tolerance of
    1e-12 relative to the level.
    """
    c = np.asarray(c, dtype=np.float64)
    tol = 1e-12 * max(1.0, abs(gamma))
    strict = np.flatnonzero(c < gamma - tol)
    if strict.size:
        return strict
    return np.flatnonzero(c <= gamma + tol)


def _midpoint_level(a: np.ndarray, b: np.ndarray, k: int, s: float) -> float:
    """Midpoint of the optimal levels of the basin with sorted floors a when
    the basin with sorted floors b takes the rest of the level sum s.

    k pairs a_(j) + b_(j) lie strictly below s, so the optimal level of a
    lies in [max(a_(k), s - b_(k+1)), min(a_(k+1), s - b_(k))]; an end that
    does not exist (k == 0, or k past a class's size) yields to the other.
    """
    lo = max(a[k - 1] if k else -np.inf, s - b[k] if k < b.size else -np.inf)
    hi = min(a[k] if k < a.size else np.inf, s - b[k - 1] if k else np.inf)
    return 0.5 * float(lo) + 0.5 * float(hi)


def find_gamma_and_bias(c, y, volume: float) -> tuple[float, float]:
    """Jointly find the water level and the unregularized bias.

    Maximizes gamma(b), the water level of the shifted responses
    c_i + y_i * b, over b, in closed form. With the sorted positive floors
    p_(j) and negative floors q_(j), the level sum s = 2 * gamma is the
    water level of the paired floors p_(j) + q_(j), j <= min(n+, n-). The
    optimal bias b = gamma - u = v - gamma, where u and v = s - u are the
    two class levels, fills an interval; b is taken from the midpoints of
    u's and v's intervals, which keeps b deterministic, equalizes two-point
    instances and negates b exactly under a label flip. Returns
    (gamma, b).
    """
    c = _responses(c)
    y = np.asarray(y, dtype=np.float64)
    if y.shape != c.shape:
        raise ValueError("responses and labels must be matching nonempty vectors")
    if not (np.abs(y) == 1.0).all():
        raise ValueError("labels must be +1 or -1")
    _check_volume(volume)
    return _level_and_bias(c[y > 0], c[y < 0], float(volume))


def _level_and_bias(p: np.ndarray, q: np.ndarray, volume: float) -> tuple[float, float]:
    """find_gamma_and_bias without its input checks, on the unsorted
    positive floors p and negative floors q and a volume >= 0.

    Raises ValueError when a class is empty, when either end of a sorted
    class is not finite (np.sort puts NaN last, so the two ends cover every
    floor), or when a sum behind the level overflows.
    """
    p = np.sort(p)
    q = np.sort(q)
    if not (p.size and q.size):
        raise ValueError("both classes must be present; bias is unbounded otherwise")
    if not all(map(math.isfinite, (p[0], p[-1], q[0], q[-1]))):
        raise ValueError("responses must be finite")

    m = min(p.size, q.size)
    # The paired floors ascend, so only the ends can overflow.
    if not (math.isfinite(float(p[0]) + float(q[0]))
            and math.isfinite(float(p[m - 1]) + float(q[m - 1]))):
        raise ValueError("paired floors p_(j) + q_(j) must be finite")
    floors = p[:m] + q[:m]
    s = _sorted_level(floors, volume)
    k = int(np.searchsorted(floors, s))
    u = _midpoint_level(p, q, k, s)
    v = _midpoint_level(q, p, k, s)
    return 0.5 * s, 0.5 * (v - u)
