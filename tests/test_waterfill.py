import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from slacksvm.waterfill import (_level_and_bias, _newton_level, find_gamma,
                                find_gamma_and_bias, support_set)

from oracles import (bias_grid_values, bias_level_bisection, level_and_bias_reference,
                     sorted_level_reference, water_level_sorted)

finite_floats = st.floats(min_value=-100.0, max_value=100.0,
                          allow_nan=False, allow_infinity=False)
response_vectors = hnp.arrays(np.float64, st.integers(1, 120),
                              elements=finite_floats)


def test_two_units_of_water():
    c = [0.0, 1.0, 5.0]
    gamma = find_gamma(c, 2.0)
    assert gamma == pytest.approx(1.5)
    assert support_set(c, gamma).tolist() == [0, 1]


def test_everything_submerged():
    # 20 units cover all three floors: gamma = (20 + 6) / 3.
    c = [0.0, 1.0, 5.0]
    gamma = find_gamma(c, 20.0)
    assert gamma == pytest.approx(26.0 / 3.0)
    assert support_set(c, gamma).tolist() == [0, 1, 2]


def test_zero_volume_is_the_minimum():
    c = [3.0, 1.0, 2.0]
    gamma = find_gamma(c, 0.0)
    assert gamma == 1.0
    assert support_set(c, gamma).tolist() == [1]


def test_all_equal_floors():
    c = [2.0, 2.0, 2.0, 2.0]
    gamma = find_gamma(c, 4.0)
    assert gamma == pytest.approx(3.0)
    assert support_set(c, gamma).tolist() == [0, 1, 2, 3]


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        find_gamma([], 1.0)
    with pytest.raises(ValueError):
        find_gamma([1.0], -0.5)


@pytest.mark.parametrize("call", [
    lambda: find_gamma([np.nan, 1.0], 1.0),
    lambda: find_gamma([-np.inf, 1.0], 1.0),
    lambda: find_gamma([0.0, 1.0], np.inf),
    lambda: find_gamma([0.0, 1.0], np.nan),
    lambda: find_gamma([0.0, 1.0], 1.0, start=np.nan),
    lambda: find_gamma([0.0, 1.0], 1.0, start=np.inf),
    lambda: find_gamma_and_bias([np.nan, 1.0], [1.0, -1.0], 1.0),
    lambda: find_gamma_and_bias([np.inf, 1.0], [1.0, -1.0], 1.0),
    lambda: find_gamma_and_bias([0.0, 1.0], [np.nan, -1.0], 1.0),
    lambda: find_gamma_and_bias([0.0, 1.0], [1.0, -np.inf], 1.0),
    lambda: find_gamma_and_bias([0.0, 1.0], [1.0, -1.0], np.inf),
    lambda: find_gamma_and_bias([0.0, 1.0], [1.0, -1.0], np.nan),
    lambda: find_gamma_and_bias([1e308, 1e308], [1.0, -1.0], 1.0),
    lambda: find_gamma([1e308, 1.5e308], 1e308),
    lambda: find_gamma([1e308, 1.5e308], 1e308, start=1.0),
    lambda: find_gamma_and_bias([8e307] * 4, [1.0, 1.0, -1.0, -1.0], 1e308),
], ids=["gamma-nan-response", "gamma-neg-inf-response", "gamma-inf-volume",
        "gamma-nan-volume", "gamma-nan-start", "gamma-inf-start",
        "bias-nan-response", "bias-inf-response", "bias-nan-label",
        "bias-inf-label", "bias-inf-volume", "bias-nan-volume",
        "bias-paired-floors-overflow", "gamma-level-overflow-cold",
        "gamma-level-overflow-warm", "bias-level-overflow"])
def test_rejects_non_finite(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [0, 3, 7])
@pytest.mark.parametrize("start", [-1e9, -0.5, 0.3, 2.0, 1e9])
@pytest.mark.parametrize("volume", [0.0, 0.5, 30.0])
def test_warm_search_rejects_non_finite_floors(bad, where, start, volume):
    # With a start, the finiteness scan runs only where no pass reads every
    # floor through a dot; a level Newton returns has had such a pass, which
    # a non-finite floor anywhere makes nan or infinite.
    c = np.linspace(-1.0, 1.0, 8)
    c[where] = bad
    with pytest.raises(ValueError, match="responses must be finite"):
        find_gamma(c, volume, start=start)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dry_start_rejects_non_finite_floors(bad):
    # From below every floor no dot reads them: the first level is the
    # lowest floor plus the volume, and 1e300 + 1 is 1e300, which the next
    # pass would take as exact.
    with pytest.raises(ValueError, match="responses must be finite"):
        find_gamma([1e300, bad], 1.0, start=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", ["positive", "negative"])
@pytest.mark.parametrize("where", [0, 2, 4])
def test_level_and_bias_rejects_non_finite_floors(bad, side, where):
    # The bias step's core skips the public checks but still raises on a
    # non-finite floor anywhere in either class, beyond the paired floors too.
    p = np.array([0.5, -1.0, 2.0, 0.0, 1.5])
    q = np.array([1.0, -0.5, 3.0])
    floors = p if side == "positive" else q
    floors[where % floors.size] = bad
    with pytest.raises(ValueError):
        _level_and_bias(np.concatenate([p, q]), np.arange(5), np.arange(5, 8), 1.0)


# Floats of every size, so that sums behind a level can overflow, and
# small integers, so that floors tie.
any_floats = st.floats(allow_nan=False, allow_infinity=False)
core_elements = st.sampled_from([finite_floats, st.integers(-5, 5).map(float), any_floats])
core_volumes = st.one_of(st.just(0.0), st.floats(0.0, 300.0), st.floats(0.0, 1e308))


@st.composite
def core_instances(draw):
    """(c, pos, neg, volume): both classes nonempty, a single pair (m = 1)
    included, the classes as index arrays or as masks."""
    n_pos, n_neg = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    c = draw(hnp.arrays(np.float64, n_pos + n_neg, elements=draw(core_elements)))
    order = np.asarray(draw(st.permutations(range(c.size))))
    pos, neg = order[:n_pos], order[n_pos:]
    if draw(st.booleans()):
        pos, neg = np.isin(np.arange(c.size), pos), np.isin(np.arange(c.size), neg)
    return c, pos, neg, draw(core_volumes)


def _outcome(f, *args):
    """f's result as bytes, or its ValueError's message."""
    try:
        return np.array(f(*args)).tobytes()
    except ValueError as err:
        return str(err)


@given(core_instances())
# A single pair.
@example((np.array([2.0, -1.0]), np.array([0]), np.array([1]), 0.5))
# The level sum lands on the paired floor 0 + 2 = 2, a tie at the boundary.
@example((np.array([0.0, 1.0, 1.0, 1.0, 0.0]), np.arange(3), np.arange(3, 5), 2.0))
# Volume 0.
@example((np.array([0.0, 0.0, 2.0, 2.0]), np.arange(2), np.arange(2, 4), 0.0))
# The running sum of the paired floors 1.6e308 overflows.
@example((np.array([8e307] * 4), np.arange(2), np.arange(2, 4), 1e308))
@settings(max_examples=500, deadline=None)
def test_level_and_bias_keeps_the_reference_bits(instance):
    # The core gathers each class once and sorts it in place, forms the
    # levels in place and reads ends as Python floats: the same level and
    # bias, bit for bit, or the same ValueError, as the reference on
    # np.sort copies, and c untouched.
    c, pos, neg, volume = instance
    before = c.tobytes()
    want = _outcome(level_and_bias_reference, c[pos], c[neg], volume)
    assert _outcome(_level_and_bias, c, pos, neg, volume) == want
    assert c.tobytes() == before


@given(hnp.arrays(np.float64, st.integers(1, 120), elements=st.one_of(finite_floats, any_floats)),
       st.one_of(st.floats(0.0, 300.0, exclude_min=True), st.floats(0.0, 1e308, exclude_min=True)))
@settings(max_examples=300, deadline=None)
def test_cold_level_keeps_the_reference_bits(c, volume):
    # find_gamma's sorted form is the same _sorted_level.
    want = _outcome(sorted_level_reference, np.sort(c), volume)
    assert _outcome(find_gamma, c, volume) == want


@pytest.mark.parametrize("n", [8192, 8193, 20_000])
def test_cold_level_keeps_the_reference_bits_past_the_cached_counts(n):
    # Up to 8192 floors the counts are a slice of one array made at import;
    # beyond, each call builds its own.
    c = np.random.default_rng(n).standard_normal(n)
    for volume in (1.0, 0.1 * n, 10.0 * n):
        assert find_gamma(c, volume) == sorted_level_reference(np.sort(c), volume)


def test_find_gamma_and_bias_leaves_its_inputs_unchanged():
    rng = np.random.default_rng(12)
    c = rng.standard_normal(50)
    y = np.where(rng.random(50) < 0.5, 1.0, -1.0)
    y[:2] = 1.0, -1.0
    c_before, y_before = c.tobytes(), y.tobytes()
    find_gamma_and_bias(c, y, 4.0)
    assert (c.tobytes(), y.tobytes()) == (c_before, y_before)


@given(response_vectors, st.floats(min_value=0.0, max_value=500.0))
@settings(max_examples=300, deadline=None)
def test_matches_sorted_oracle(c, volume):
    got = find_gamma(c, volume)
    want = water_level_sorted(c, volume)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


@given(response_vectors, st.floats(min_value=1e-9, max_value=500.0))
@settings(max_examples=300, deadline=None)
def test_volume_conservation(c, volume):
    gamma = find_gamma(c, volume)
    filled = np.maximum(0.0, gamma - c).sum()
    assert filled == pytest.approx(volume, rel=1e-9, abs=1e-9 * max(1.0, volume))


@given(response_vectors, st.floats(min_value=0.0, max_value=100.0),
       st.floats(min_value=0.0, max_value=100.0))
@settings(max_examples=200, deadline=None)
def test_monotone_in_volume(c, v1, v2):
    lo, hi = sorted((v1, v2))
    assert find_gamma(c, lo) <= find_gamma(c, hi) + 1e-12


@given(response_vectors, st.floats(min_value=0.0, max_value=100.0),
       finite_floats)
@settings(max_examples=200, deadline=None)
def test_shift_equivariance(c, volume, shift):
    base = find_gamma(c, volume)
    shifted = find_gamma(c + shift, volume)
    assert shifted == pytest.approx(base + shift, rel=1e-9, abs=1e-9)


@given(response_vectors)
@settings(max_examples=100, deadline=None)
def test_flood_limit(c):
    # With enough water everything is covered: gamma = (v + sum) / n.
    v = float(np.abs(c).sum() + c.size * 100.0)
    gamma = find_gamma(c, v)
    assert support_set(c, gamma).size == c.size
    assert gamma == pytest.approx((v + c.sum()) / c.size, rel=1e-9)


@st.composite
def level_instances(draw):
    """(c, volume): float or integer-valued (tied) floors, single elements
    included, and 0 < volume <= 3n."""
    n = draw(st.integers(1, 80))
    elements = draw(st.sampled_from([finite_floats, st.integers(-5, 5).map(float)]))
    c = draw(hnp.arrays(np.float64, n, elements=elements))
    volume = draw(st.floats(0.0, 3.0 * n, exclude_min=True))
    return c, volume


@given(level_instances())
@example((np.array([2.0]), 0.5))
@example((np.array([1.0, 1.0, 1.0, 3.0]), 6.0))
@settings(max_examples=400, deadline=None)
def test_level_solves_the_defining_equation(instance):
    # Independent of any sorted scan: for volume > 0 the level is the one
    # gamma >= min(c) at which the water above the floors equals the volume.
    c, volume = instance
    gamma = find_gamma(c, volume)
    assert gamma >= c.min()
    assert abs(np.maximum(0.0, gamma - c).sum() - volume) <= 1e-9 * max(1.0, volume)


@st.composite
def warm_instances(draw):
    """(c, volume, start): volume in [0, 3n], start any finite float."""
    c = draw(response_vectors)
    volume = draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0 * c.size)))
    start = draw(st.one_of(finite_floats, st.floats(allow_nan=False, allow_infinity=False)))
    return c, volume, start


@given(warm_instances())
@settings(max_examples=500, deadline=None)
def test_warm_start_matches_cold(instance):
    c, volume, start = instance
    got = find_gamma(c, volume, start=start)
    want = find_gamma(c, volume)
    tol = 1e-12 * max(1.0, abs(want), float(np.abs(c).max()))
    assert got == pytest.approx(want, rel=1e-12, abs=tol)
    # Levels a rounding apart can disagree only on a floor tied with the
    # level: it holds no water, and the last bit decides if it is covered.
    differ = np.setxor1d(support_set(c, got), support_set(c, want))
    if got == want:
        assert differ.size == 0
    assert (np.abs(c[differ] - want) <= 2.0 * tol).all()


def test_warm_start_falls_back_to_selection():
    # Floors spread over 260 decades: Newton from the top floor drops about
    # 12 floors a pass and needs over 100 passes, so the capped passes give
    # up and the sorted form they fall back to must find the exact level.
    c = 1.5 ** np.arange(1500)
    assert _newton_level(c, 1.0, float(c.max())) is None
    got = find_gamma(c, 1.0, start=float(c.max()))
    assert got == find_gamma(c, 1.0)
    assert got == pytest.approx(1.75)


class TestSupportSet:
    def test_argmin_when_strict_is_empty(self):
        c = np.array([1.0, 2.0, 3.0])
        idx = support_set(c, find_gamma(c, 0.0))
        assert idx.tolist() == [0]

    def test_strictly_covered(self):
        c = np.array([0.0, 1.0, 5.0])
        idx = support_set(c, find_gamma(c, 2.0))
        assert idx.tolist() == [0, 1]

    def test_ties_below(self):
        c = np.array([0.0, 0.0])
        idx = support_set(c, find_gamma(c, 6.0))
        assert idx.tolist() == [0, 1]


class TestBias:
    def test_two_point_equalization(self):
        gamma, bias = find_gamma_and_bias([-1.0, 1.0], [1.0, -1.0], 0.0)
        assert bias == pytest.approx(1.0, abs=1e-6)
        assert gamma == pytest.approx(0.0, abs=1e-6)

    def test_four_point_instance(self):
        c = np.array([0.0, 0.0, 2.0, 2.0])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        gamma, bias = find_gamma_and_bias(c, y, 0.0)
        assert bias == pytest.approx(1.0, abs=1e-6)
        assert gamma == pytest.approx(1.0, abs=1e-6)
        # Both basins stand at the level, each covered in full.
        assert support_set(c + y * bias, gamma).tolist() == [0, 1, 2, 3]

    def test_label_flip_negates_bias(self):
        rng = np.random.default_rng(5)
        c = rng.standard_normal(20)
        y = np.where(rng.random(20) < 0.5, 1.0, -1.0)
        y[0], y[1] = 1.0, -1.0  # keep both classes
        a = find_gamma_and_bias(c, y, 3.0)
        b = find_gamma_and_bias(c, -y, 3.0)
        assert a[0] == pytest.approx(b[0], abs=1e-9)
        assert a[1] == pytest.approx(-b[1], abs=1e-6)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            find_gamma_and_bias([1.0, 2.0], [1.0, 1.0], 0.0)

    def test_labels_of_another_shape_rejected(self):
        with pytest.raises(ValueError, match="matching nonempty vectors"):
            find_gamma_and_bias([0.0, 1.0, 2.0], [1.0, -1.0], 1.0)

    def test_beats_dense_grid(self):
        rng = np.random.default_rng(77)
        for _ in range(40):
            n = int(rng.integers(2, 50))
            c = rng.standard_normal(n) * 3.0
            y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            y[0], y[-1] = 1.0, -1.0
            volume = float(rng.uniform(0.0, n))
            gamma, _ = find_gamma_and_bias(c, y, volume)
            grid = np.linspace(-10.0, 10.0, 1000)
            assert gamma >= bias_grid_values(c, y, volume, grid).max() - 1e-6


@st.composite
def bias_instances(draw):
    """(c, y, volume) with both classes present (possibly a single positive),
    float or integer-valued (tied) responses, and 0 <= volume <= 3n."""
    n = draw(st.integers(2, 60))
    elements = draw(st.sampled_from([finite_floats, st.integers(-5, 5).map(float)]))
    c = draw(hnp.arrays(np.float64, n, elements=elements))
    n_pos = draw(st.integers(1, n - 1))
    order = draw(st.permutations(range(n)))
    y = np.where(np.asarray(order) < n_pos, 1.0, -1.0)
    volume = draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0 * n)))
    return c, y, volume


@given(bias_instances())
@example((np.array([0.0, 0.0, 1.0, 1.0, 2.0]),
          np.array([-1.0, 1.0, -1.0, -1.0, -1.0]), 0.0))
@example((np.array([3.0, -1.0, -1.0, 2.0]),
          np.array([1.0, -1.0, -1.0, -1.0]), 12.0))
@settings(max_examples=300, deadline=None)
def test_bias_closed_form_matches_bisection(instance):
    c, y, volume = instance
    gamma, bias = find_gamma_and_bias(c, y, volume)
    want, _ = bias_level_bisection(c, y, volume)
    scale = max(1.0, abs(want))
    assert gamma >= want - 1e-9 * scale
    assert gamma == pytest.approx(want, rel=1e-9, abs=1e-9)
    # The returned bias attains the returned level.
    assert find_gamma(c + y * bias, volume) == pytest.approx(gamma, rel=1e-9, abs=1e-9)
    flipped_gamma, flipped_bias = find_gamma_and_bias(c, -y, volume)
    assert abs(flipped_gamma - gamma) <= 1e-12 * scale
    assert abs(flipped_bias + bias) <= 1e-12 * max(1.0, abs(bias))
