"""Water-level finding on response vectors.

Given responses c and a slack volume V, the water level gamma is the unique
solution of sum_i max(0, gamma - c_i) = V (for V > 0), i.e. the level
reached when a volume V of water is poured into a basin whose floor heights
are the c_i. The level equals the slack-constrained objective value at the
current predictor, and the covered indices define the sampling distribution
for stochastic supergradients. covered_bounds states which floors are
covered; support_set lists them, and SBP's sampler tests single floors
against the same bounds.

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


# Below this bound on every partial sum and the volume, the running sums
# of _sorted_level cannot overflow, even after m roundings up.
_SAFE_SUM = 1e300

# The counts 1.0, 2.0, ... that _sorted_level divides by, made once for
# the floor counts most calls have; a larger count builds its own.
_COUNTS = np.arange(1.0, 8193.0)
_COUNTS.flags.writeable = False


def _levels(a: np.ndarray, volume: float) -> np.ndarray:
    """(volume + sum of the k lowest floors) / k for k = 1..m, in place on
    one new array."""
    m = a.size
    levels = np.add.accumulate(a)
    levels += volume
    levels /= _COUNTS[:m] if m <= _COUNTS.size else np.arange(1.0, m + 1.0)
    return levels


def _sorted_level(a: np.ndarray, volume: float) -> float:
    """Level gamma with sum_i max(0, gamma - a_i) == volume >= 0 for
    ascending floors a: the level over the first k floors at the first k
    where it does not pass floor k+1, or over all floors.

    Raises ValueError when the running sum behind that level overflows.
    Levels before the first overflowing sum are unaffected by it, so the
    chosen level is either right or infinite. The sorted ends bound every
    partial sum by m * max(|a_0|, |a_(m-1)|); when that plus the volume is
    below _SAFE_SUM, no sum can overflow, and the sums run unguarded.
    """
    m = a.size
    if m * max(abs(a.item(0)), abs(a.item(-1))) + volume < _SAFE_SUM:
        levels = _levels(a, volume)
    else:
        with np.errstate(over="ignore"):
            levels = _levels(a, volume)
    # dry[k]: the level over k + 1 floors does not pass the next floor; the
    # last entry stands for all m floors, so argmax finds the first dry k.
    dry = np.empty(m, dtype=bool)
    np.less_equal(levels[:-1], a[1:], out=dry[:-1])
    dry[-1] = True
    gamma = levels.item(dry.argmax())
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

    Each level is a dot of all n floors with weights 0 or 1, so a floor that
    is not finite makes it nan or infinite (0 * inf is nan), and that gives
    None, as does a sum that overflows: the sorted form judges both. A dry
    start, below every floor, takes no dot, so it checks the floors itself.
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
                # Dry start: no dot reads the floors, so they are checked
                # here; the lowest floor alone under volume is above the root.
                if not np.isfinite(c).all():
                    return None
                gamma = float(c.min()) + volume
            else:
                gamma = (volume + float(c @ below)) / m
            if not math.isfinite(gamma):
                return None
            last = m
    return None


def _responses(c) -> np.ndarray:
    """c as a float64 array, checked in O(1) to be a nonempty 1-D vector."""
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("responses must be a nonempty 1-D vector")
    return c


def _check_finite(c: np.ndarray) -> None:
    if not np.isfinite(c).all():
        raise ValueError("responses must be finite")


def _check_volume(volume: float) -> None:
    if not (volume >= 0.0 and math.isfinite(volume)):
        raise ValueError("volume must be finite and non-negative")


def find_gamma(c, volume: float, start: float | None = None) -> float:
    """Find the water level for responses c and slack volume >= 0.

    Without start, the level comes from the sorted responses in
    O(n log n). With a finite start level, such as the previous SBP
    iteration's, Newton passes of O(n) each find the same level exactly, a
    few passes when start is near it; after _MAX_NEWTON_PASSES the sorted
    form takes over. Raises ValueError when a response is not finite, and
    when a sum behind the level overflows the float range, even where the
    level itself would fit.

    The shape, volume and start are checked first, in O(1). The O(n) scan
    for finiteness runs only where no pass has read every floor through a
    dot: without start, at volume 0, at a dry start (inside the Newton
    passes) and when Newton gives None. A level Newton returns has passed
    through such a dot, which is not finite if any floor is not.
    """
    c = _responses(c)
    _check_volume(volume)
    if start is not None and not math.isfinite(start):
        raise ValueError("start level must be finite")
    if start is not None and volume > 0.0:
        gamma = _newton_level(c, float(volume), float(start))
        if gamma is not None:
            return gamma
    _check_finite(c)
    if volume == 0.0:
        return float(c.min())
    return _sorted_level(np.sort(c), float(volume))


def covered_bounds(gamma: float) -> tuple[float, float]:
    """The covered rule of level gamma, as (below, at): a floor under below
    is strictly covered, and one at most at is at the level. Both lie a
    tolerance of 1e-12 relative to the level away from it."""
    tol = 1e-12 * max(1.0, abs(gamma))
    return gamma - tol, gamma + tol


def support_set(c, gamma: float) -> np.ndarray:
    """Indices to sample supergradients from: the covered set of level gamma.

    These are the points strictly below the level, or the at-level set when
    nothing is strictly below (separable case), by covered_bounds.
    """
    c = np.asarray(c, dtype=np.float64)
    below, at = covered_bounds(gamma)
    strict = np.flatnonzero(c < below)
    if strict.size:
        return strict
    return np.flatnonzero(c <= at)


def _neighbours(a: np.ndarray, k: int) -> tuple[float, float]:
    """Floors k and k + 1 of the sorted floors a, 1-based, as Python
    floats: -inf for floor 0 and +inf past the last."""
    return (a.item(k - 1) if k else -math.inf), (a.item(k) if k < a.size else math.inf)


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
    (gamma, b). Neither c nor y is modified.
    """
    c = _responses(c)
    _check_finite(c)
    y = np.asarray(y, dtype=np.float64)
    if y.shape != c.shape:
        raise ValueError("responses and labels must be matching nonempty vectors")
    if not (np.abs(y) == 1.0).all():
        raise ValueError("labels must be +1 or -1")
    _check_volume(volume)
    return _level_and_bias(c, y > 0, y < 0, float(volume))


def _level_and_bias(c: np.ndarray, pos, neg, volume: float) -> tuple[float, float]:
    """find_gamma_and_bias without its input checks, on the responses c,
    the index arrays or masks pos and neg of the positive and the negative
    class, and a volume >= 0.

    Each class is gathered once, and that fresh copy is sorted in place, so
    c is never modified. Raises ValueError when a class is empty, when
    either end of a sorted class is not finite (sorting puts NaN last, so
    the two ends cover every floor), or when a sum behind the level
    overflows.
    """
    p = c[pos]
    q = c[neg]
    if not (p.size and q.size):
        raise ValueError("both classes must be present; bias is unbounded otherwise")
    p.sort()
    q.sort()
    p0, q0 = p.item(0), q.item(0)
    if not all(map(math.isfinite, (p0, p.item(-1), q0, q.item(-1)))):
        raise ValueError("responses must be finite")

    m = min(p.size, q.size)
    # The paired floors ascend, so only the ends can overflow.
    if not (math.isfinite(p0 + q0) and math.isfinite(p.item(m - 1) + q.item(m - 1))):
        raise ValueError("paired floors p_(j) + q_(j) must be finite")
    floors = p[:m] + q[:m]
    s = _sorted_level(floors, volume)
    # k pairs lie strictly below s, so the optimal level u of the positive
    # basin lies in [max(p_(k), s - q_(k+1)), min(p_(k+1), s - q_(k))], and
    # v of the negative basin likewise; each is taken at its midpoint. An
    # end that does not exist (k == 0, or k past a class's size) is infinite
    # and yields to the other.
    k = int(floors.searchsorted(s))
    p_lo, p_hi = _neighbours(p, k)
    q_lo, q_hi = _neighbours(q, k)
    u = 0.5 * max(p_lo, s - q_hi) + 0.5 * min(p_hi, s - q_lo)
    v = 0.5 * max(q_lo, s - p_hi) + 0.5 * min(q_hi, s - p_lo)
    return 0.5 * s, 0.5 * (v - u)
