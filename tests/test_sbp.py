import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import chisquare

from slacksvm import sbp
from slacksvm.bench import write_run_csv
from slacksvm.data import SyntheticSpec, generate, parse_libsvm
from slacksvm.kernels import GaussianKernel, LinearKernel, add_row, kernel_from_spec
from slacksvm.model import (SolverError, deserialize_model, load_model,
                            save_model, score_batch, serialize_model)
from slacksvm.recording import index_stream
from slacksvm.sbp import SbpConfig, sbp_init, sbp_step, sbp_train
from slacksvm.waterfill import _level_and_bias, find_gamma, support_set

from oracles import covered_law, rescale_check, sbp_bias_step_reference


def basin_draws(rng, basins):
    """The index streams a run reads: one on each basin's positions."""
    return tuple(index_stream(rng, b.size) for b in basins)


def sample_as_the_step(c, bias, gamma, volume, basins, draws, rng):
    """The index sbp_step samples: in its one basin without bias; with one,
    in the basin of the class a fair coin picks, shifted by y * bias."""
    if len(basins) == 1:
        k, shift = 0, 0.0
    else:
        k = int(rng.integers(2))
        shift = -bias if k else bias
    return sbp._sample_covered(c, shift, gamma, volume, basins[k], draws[k], rng)


def train_pair(n=60, seed=0, **cfg):
    ds = generate(SyntheticSpec(kind="margin_separable", n=n, dimension=2,
                                seed=seed, margin=0.3, radius=1.0))
    kernel = LinearKernel()
    config = SbpConfig(**{"nu": 0.0, "iterations": 200, "seed": 0, **cfg})
    return ds, kernel, config


class TestInit:
    def test_eta0_gaussian_is_one(self):
        ds = parse_libsvm("+1 1:3\n-1 2:4\n")
        state = sbp_init(ds, GaussianKernel(1.0), SbpConfig(nu=0.1, iterations=1))
        assert state.eta0 == 1.0

    def test_eta0_linear(self):
        # max ||x||^2 = 4 -> eta0 = 1/2
        ds = parse_libsvm("+1 1:2\n-1 1:1\n")
        state = sbp_init(ds, LinearKernel(), SbpConfig(nu=0.1, iterations=1))
        assert state.eta0 == 0.5

    def test_init_costs_n_evals(self):
        ds = parse_libsvm("+1 1:1\n-1 1:-1\n+1 2:1\n")
        k = LinearKernel()
        sbp_init(ds, k, SbpConfig(nu=0.0, iterations=1))
        assert k.eval_count == 3

    def test_bias_mode_needs_both_classes(self):
        ds = parse_libsvm("+1 1:1\n+1 1:2\n")
        with pytest.raises(SolverError):
            sbp_init(ds, LinearKernel(), SbpConfig(nu=0.0, iterations=1, use_bias=True))

    @pytest.mark.parametrize("use_bias", [False, True])
    def test_all_zero_diagonal_has_no_step_size(self, use_bias):
        # Label-only rows under the linear kernel: every K(x, x) is 0.
        ds = parse_libsvm("+1\n-1\n+1\n")
        with pytest.raises(SolverError, match="K\\(x_i, x_i\\) is 0"):
            sbp_init(ds, LinearKernel(), SbpConfig(nu=0.1, iterations=1, use_bias=use_bias))

    def test_basins_in_every_mode(self):
        # One basin of every index without bias; the positive and the
        # negative examples with it.
        ds = parse_libsvm("-1 1:1\n+1 1:2\n-1 1:3\n")
        for use_bias, basins in ((False, [[0, 1, 2]]), (True, [[1], [0, 2]])):
            state = sbp_init(ds, LinearKernel(),
                             SbpConfig(nu=0.1, iterations=1, use_bias=use_bias))
            assert [b.tolist() for b in state.basins] == basins
            assert all(b.dtype == np.int64 for b in state.basins)


def test_config_validation():
    for nu in (-0.1, np.inf, np.nan):
        with pytest.raises(ValueError):
            SbpConfig(nu=nu, iterations=10)
    for iterations in (0, 2.5):
        with pytest.raises(ValueError):
            SbpConfig(nu=0.1, iterations=iterations)


@pytest.mark.parametrize("use_bias", [False, True])
def test_slack_budget_overflow_is_refused_before_any_evaluation(use_bias):
    ds = parse_libsvm("+1 1:1\n-1 1:-1\n+1 1:2\n-1 1:-2\n")
    kernel = LinearKernel()
    with pytest.raises(ValueError, match=r"nu = 1e\+308 times n = 4 overflows"):
        sbp_train(ds, kernel, SbpConfig(nu=1e308, iterations=3, use_bias=use_bias))
    assert kernel.eval_count == 0


@pytest.mark.parametrize("spec", ["linear", "gaussian:1.0"])
def test_bias_level_midpoint_stays_finite_near_the_float_limit(spec):
    # n * nu = 1.6e308 is finite, but the sum of the two ends of a bias
    # level's interval is not: the midpoint halves each end before adding.
    ds = generate(SyntheticSpec(kind="two_gaussians", n=4, seed=0))
    config = SbpConfig(nu=4e307, iterations=20, use_bias=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        model, _ = sbp_train(ds, kernel_from_spec(spec), config)
    assert model.kernel_evals == 21 * ds.n
    assert np.all(np.isfinite(model.alpha)) and np.isfinite(model.bias)


def test_hand_traced_single_step():
    # One positive point at x=1, linear kernel, nu=0: gamma starts at 0,
    # the only index is sampled, alpha=[1], c=[1], r^2=1, no rescale.
    ds = parse_libsvm("+1 1:1.0\n")
    k = LinearKernel()
    config = SbpConfig(nu=0.0, iterations=1)
    state = sbp_init(ds, k, config)
    sbp_step(state, ds, k, config, np.random.default_rng(0))
    assert state.alpha.tolist() == [1.0]
    assert state.responses.tolist() == [1.0]
    assert state.norm_sq == 1.0
    assert state.t == 1


def test_step_cost_is_one_row():
    ds, kernel, config = train_pair(n=30)
    state = sbp_init(ds, kernel, config)
    before = kernel.eval_count
    sbp_step(state, ds, kernel, config, np.random.default_rng(1))
    assert kernel.eval_count - before == ds.n


def test_norm_never_exceeds_one():
    ds, kernel, config = train_pair(n=40, iterations=300)
    state = sbp_init(ds, kernel, config)
    rng = np.random.default_rng(config.seed)
    for _ in range(config.iterations):
        sbp_step(state, ds, kernel, config, rng)
        assert state.norm_sq <= 1.0 + 1e-9
        assert np.all(state.alpha >= 0.0)


def test_responses_consistent_with_alpha():
    ds, kernel, config = train_pair(n=50, iterations=250, nu=0.1)
    state = sbp_init(ds, kernel, config)
    rng = np.random.default_rng(config.seed)
    for _ in range(config.iterations):
        sbp_step(state, ds, kernel, config, rng)
    gram = LinearKernel().cross(ds, np.arange(ds.n), ds)
    y = ds.labels
    recomputed = y * (gram @ (state.alpha * y))
    np.testing.assert_allclose(state.responses, recomputed, rtol=1e-6, atol=1e-9)
    assert state.norm_sq == pytest.approx(float(state.alpha @ recomputed), rel=1e-6)


@pytest.mark.parametrize("use_bias", [False, True])
def test_train_exact_eval_budget(use_bias):
    ds, kernel, config = train_pair(n=35, iterations=120, use_bias=use_bias)
    sbp_train(ds, kernel, config)
    assert kernel.eval_count == ds.n * config.iterations + ds.n


@pytest.mark.parametrize("use_bias", [False, True])
def test_train_determinism(use_bias):
    ds, _, config = train_pair(n=40, iterations=150, nu=0.05, use_bias=use_bias)
    m1, r1 = sbp_train(ds, LinearKernel(), config)
    m2, r2 = sbp_train(ds, LinearKernel(), config)
    assert np.array_equal(m1.alpha, m2.alpha)
    assert m1.bias == m2.bias
    assert r1.samples == r2.samples


@pytest.mark.parametrize("spec", ["linear", "gaussian:1.0"])
def test_bias_step_keeps_the_public_path_bits(spec):
    # The step's private level on per-run class indices, its one-class
    # sampler and its in-place update give, step after step, the index, the
    # response bytes and the bias of the public find_gamma_and_bias on the
    # whole shifted vector with n-long temporaries.
    ds = generate(SyntheticSpec(kind="two_gaussians", n=120, seed=7, noise_rate=0.1))
    config = SbpConfig(nu=0.05, iterations=200, seed=3, use_bias=True)
    kernel, ref_kernel = kernel_from_spec(spec), kernel_from_spec(spec)
    drawn = []
    row = kernel.row
    kernel.row = lambda dataset, j, rows=None: drawn.append(j) or row(dataset, j, rows)
    state, ref = sbp_init(ds, kernel, config), sbp_init(ds, ref_kernel, config)
    rng, ref_rng = np.random.default_rng(config.seed), np.random.default_rng(config.seed)
    for _ in range(config.iterations):
        sbp_step(state, ds, kernel, config, rng)
        assert drawn[-1] == sbp_bias_step_reference(ref, ds, ref_kernel, config, ref_rng)
        assert state.responses.tobytes() == ref.responses.tobytes()
        assert np.float64(state.bias).tobytes() == np.float64(ref.bias).tobytes()
        assert state.alpha.tobytes() == ref.alpha.tobytes()
        assert state.norm_sq == ref.norm_sq
    assert len(set(drawn)) > 10 and state.bias != 0.0


def test_bias_step_level_leaves_the_responses_and_labels_unchanged(monkeypatch):
    # The core sorts its gathered copies of the two classes in place; the
    # responses and basins it is handed, and the labels, must not move.
    ds = generate(SyntheticSpec(kind="two_gaussians", n=80, seed=2, noise_rate=0.1))
    config = SbpConfig(nu=0.1, iterations=30, seed=4, use_bias=True)
    kernel = LinearKernel()
    state = sbp_init(ds, kernel, config)
    labels = ds.labels.copy()
    core, unchanged = sbp._level_and_bias, []

    def checked(c, pos, neg, volume):
        before = (c.copy(), pos.copy(), neg.copy())
        out = core(c, pos, neg, volume)
        unchanged.append(c is state.responses and all(
            a.tobytes() == b.tobytes() for a, b in zip(before, (c, pos, neg))))
        return out

    monkeypatch.setattr(sbp, "_level_and_bias", checked)
    rng = np.random.default_rng(config.seed)
    for _ in range(config.iterations):
        sbp_step(state, ds, kernel, config, rng)
    assert unchanged == [True] * config.iterations
    assert ds.labels.tobytes() == labels.tobytes()


# Finite values small enough that no product overflows; products still
# underflow to subnormals and to zeros of either sign.
_update_floats = st.floats(min_value=-1e150, max_value=1e150, allow_nan=False)


@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
           hnp.arrays(np.float64, n, elements=_update_floats),
           hnp.arrays(np.float64, n, elements=st.sampled_from([1.0, -1.0])),
           hnp.arrays(np.float64, n, elements=_update_floats))),
       _update_floats, st.integers(0, 39))
@settings(max_examples=300, deadline=None)
def test_in_place_response_update_keeps_every_bit(arrays, s, i):
    # add_row scales the row in place, as (row * y) * (s * y[i]); labels of
    # exactly +-1 make that round like s * y[i] * y * row, zero signs included.
    responses, y, row = arrays
    i %= y.size
    want = responses + s * y[i] * y * row
    alpha = np.arange(y.size, dtype=np.float64)
    want_alpha = alpha.copy()
    want_alpha[i] += s

    class DrawnRow:
        eval_count = 0

        def row(self, dataset, j):
            assert j == i
            self.eval_count += dataset.n
            return row.copy()

    kernel = DrawnRow()
    dataset = SimpleNamespace(labels=y, n=y.size)
    kii = add_row(kernel, dataset, i, s, alpha, responses)
    assert responses.tobytes() == want.tobytes()
    assert np.float64(kii).tobytes() == row[i].tobytes()
    assert alpha.tobytes() == want_alpha.tobytes()
    assert kernel.eval_count == y.size


def test_warm_level_keeps_run_bytes(tmp_path, monkeypatch):
    # Starting each no-bias level search at the previous iteration's level
    # must give the same run CSV and model bytes as cold searches.
    ds = generate(SyntheticSpec(kind="two_gaussians", n=150, seed=2, noise_rate=0.1))
    test = generate(SyntheticSpec(kind="two_gaussians", n=100, seed=3, noise_rate=0.1))
    config = SbpConfig(nu=0.1, iterations=300, seed=4)

    def run(name):
        model, record = sbp_train(ds, GaussianKernel(1.0), config, test_data=test,
                                  eval_kernel=GaussianKernel(1.0))
        write_run_csv(record, tmp_path / name)
        return (tmp_path / name).read_bytes(), serialize_model(model)

    starts = []

    def spy(c, volume, start=None):
        starts.append(start)
        return find_gamma(c, volume, start=start)

    monkeypatch.setattr(sbp, "find_gamma", spy)
    warm = run("warm.csv")
    # Every step but the first starts warm; the checkpoint levels stay cold.
    assert sum(s is not None for s in starts) == config.iterations - 1
    monkeypatch.setattr(sbp, "find_gamma",
                        lambda c, volume, start=None: find_gamma(c, volume))
    assert run("cold.csv") == warm


def test_train_reaches_good_margin_on_two_points():
    # {(+1 at +1), (-1 at -1)}: optimal unit-norm margin is 1.
    ds = parse_libsvm("+1 1:1\n-1 1:-1\n")
    kernel = LinearKernel()
    config = SbpConfig(nu=0.0, iterations=100, seed=0)
    model, record = sbp_train(ds, kernel, config)
    # f(w_bar) is the final water level before rescaling; the rescaled
    # model therefore has margins >= 1 at hinge 0.
    assert record.samples[-1].empirical_hinge == pytest.approx(0.0)
    gram = np.array([[1.0, -1.0], [-1.0, 1.0]])
    margins = ds.labels * (gram @ (model.alpha * ds.labels))
    assert margins.min() >= 0.9  # objective >= 0.9 of the optimum


def test_support_size_bounded_by_iterations():
    ds, kernel, config = train_pair(n=50, iterations=1)
    model, _ = sbp_train(ds, kernel, config)
    assert model.support_size <= 1


def test_unseparable_all_negative_margin_errors():
    # Single mislabeled pair at the same point: every w gives gamma <= 0.
    ds = parse_libsvm("+1 1:1\n-1 1:1\n")
    with pytest.raises(SolverError, match="no positive margin"):
        sbp_train(ds, LinearKernel(), SbpConfig(nu=0.0, iterations=50, seed=0))


def test_bias_mode_handles_shifted_classes():
    # Classes separated only by an offset along a constant feature need the
    # unregularized bias to reach zero hinge.
    lines = []
    rng = np.random.default_rng(8)
    for _ in range(30):
        lines.append(f"+1 1:{rng.uniform(2.0, 3.0)!r}")
        lines.append(f"-1 1:{rng.uniform(0.5, 1.5)!r}")
    ds = parse_libsvm("\n".join(lines) + "\n")
    config = SbpConfig(nu=0.0, iterations=400, seed=1, use_bias=True)
    model, record = sbp_train(ds, LinearKernel(), config)
    scores = score_batch(model, ds, LinearKernel())
    assert np.all(ds.labels * scores > 0)
    assert model.bias != 0.0


_HUGE = np.array([133218353411.02612, 133218353419.5,
                  -133218353406.16618, -133218353400.0])
_HUGE_CLASSES = (np.array([0, 1]), np.array([2, 3]))


def test_dry_basin_falls_back_to_the_class_argmin():
    # At responses of 1.3e11, rounding leaves the shifted negative floors
    # (2.42997742 and 8.6) above the level 2.42996979 plus its tolerance:
    # a draw of that class finds no covered index and takes its argmin, 2.
    c, classes = _HUGE, _HUGE_CLASSES
    gamma, bias = _level_and_bias(c, *classes, 0.0)
    assert (gamma, bias) == (2.4299697875976562, -133218353408.59616)
    assert support_set(c[classes[1]] - bias, gamma).size == 0
    drawn = set()
    for seed in range(50):
        rng = np.random.default_rng(seed)
        drawn.add(sample_as_the_step(c, bias, gamma, 0.0, classes,
                                     basin_draws(rng, classes), rng))
    assert drawn == {0, 2}


# The sampler's law is uniform on support_set's output: per class, each of
# mass 1/2, in bias mode. Each instance gets SAMPLER_DRAWS draws from a
# generator of seed SAMPLER_SEED, and a chi-square test of their counts
# against that law must give a p-value above SAMPLER_MIN_P.
SAMPLER_DRAWS = 20_000
SAMPLER_SEED = 7
SAMPLER_MIN_P = 1e-4
_ONE_UNDER = 1.0 - 1e-12  # covered_bounds(1.0)[0]


def _random_instance(seed, n):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(n)
    y = np.where(rng.random(n) < 0.4, 1.0, -1.0)
    return c, (np.flatnonzero(y > 0), np.flatnonzero(y < 0))


def _sampler_instance(name):
    """(responses, level, volume, classes or None, bias) of a fixed instance."""
    if name == "strict":
        c, _ = _random_instance(20, 30)
        return c, find_gamma(c, 3.0), 3.0, None, 0.0
    if name == "floors_at_the_strict_bound":
        # Floors 2 and 3 sit exactly at the strict bound of their own level
        # 1.0: at-level, so never drawn while 0 and 1 lie strictly below.
        c = np.array([0.0, 0.5, _ONE_UNDER, _ONE_UNDER, 3.0])
        gamma = find_gamma(c, 1.500000000002)
        assert gamma == 1.0
        return c, gamma, 1.500000000002, None, 0.0
    if name == "at_level":
        # Nothing lies strictly below the level: every draw misses and the
        # sampler falls back to the at-level set {0, 1, 2}.
        c = np.array([1.0, 1.0, 1.0, 5.0, 7.0])
        return c, find_gamma(c, 1e-13), 1e-13, None, 0.0
    if name == "volume_0":
        c = np.array([0.3, 2.0, 0.3, 1.0, 0.3])
        return c, find_gamma(c, 0.0), 0.0, None, 0.0
    if name == "bias":
        c, classes = _random_instance(21, 40)
        gamma, bias = _level_and_bias(c, *classes, 4.0)
        return c, gamma, 4.0, classes, bias
    if name == "bias_floors_at_the_strict_bound":
        # Both classes hold the floors of floors_at_the_strict_bound; the
        # bias is 0 and the level 1.0 again.
        c = np.array([0.0, 0.5, _ONE_UNDER, _ONE_UNDER, 3.0] * 2)
        classes = (np.arange(5), np.arange(5, 10))
        gamma, bias = _level_and_bias(c, *classes, 3.000000000004)
        assert (gamma, bias) == (1.0, 0.0)
        return c, gamma, 3.000000000004, classes, bias
    # The dry-basin instance of test_dry_basin_falls_back_to_the_class_argmin,
    # at volume 0 and at a small volume that still leaves the negative
    # basin dry, so its draws all miss.
    volume = {"dry_basin_volume_0": 0.0, "dry_basin": 1e-6}[name]
    gamma, bias = _level_and_bias(_HUGE, *_HUGE_CLASSES, volume)
    return _HUGE, gamma, volume, _HUGE_CLASSES, bias


@pytest.mark.parametrize("name", ["strict", "floors_at_the_strict_bound", "at_level",
                                  "volume_0", "bias", "bias_floors_at_the_strict_bound",
                                  "dry_basin", "dry_basin_volume_0"])
def test_sampler_is_uniform_on_the_support_set(name):
    c, gamma, volume, classes, bias = _sampler_instance(name)
    rng = np.random.default_rng(SAMPLER_SEED)
    basins = (np.arange(c.size),) if classes is None else classes
    draws = basin_draws(rng, basins)
    picks = [sample_as_the_step(c, bias, gamma, volume, basins, draws, rng)
             for _ in range(SAMPLER_DRAWS)]
    law = covered_law(c, gamma, classes, bias)
    counts = np.bincount(picks, minlength=c.size)
    outside = sorted(set(np.flatnonzero(counts)) - set(law))
    assert not outside, f"drawn outside the covered set: {outside}"
    if len(law) > 1:
        indices = sorted(law)
        pvalue = chisquare(counts[indices],
                           [SAMPLER_DRAWS * law[i] for i in indices]).pvalue
        assert pvalue > SAMPLER_MIN_P, (pvalue, counts[indices])


def test_sampler_takes_the_first_hit_in_stream_order():
    # Level 1.0 covers 0, 2 and 4 of the basin of every index. The sampler
    # reads draws up to the first hit, 4, and no further; after
    # _MAX_REJECTIONS misses it draws from support_set and leaves the
    # stream where the misses ended.
    c = np.array([0.0, 5.0, 0.1, 5.0, 0.2])
    every = np.arange(5)
    rng = np.random.default_rng(0)
    draws = iter([1, 3, 4, 0, 2])
    assert sbp._sample_covered(c, 0.0, 1.0, 1.0, every, draws, rng) == 4
    assert list(draws) == [0, 2]
    draws = iter([1] * sbp._MAX_REJECTIONS + [0])
    assert sbp._sample_covered(c, 0.0, 1.0, 1.0, every, draws, rng) in (0, 2, 4)
    assert list(draws) == [0]
    # In a class's basin (here the positives [1, 2, 4], shifted by bias 0.5
    # to 5.5, 0.6 and 0.7) the draws are positions in it: position 2,
    # index 4, is the first hit.
    draws = iter([0, 2, 1, 0])
    assert sbp._sample_covered(c, 0.5, 1.0, 1.0, np.array([1, 2, 4]), draws, rng) == 4
    assert list(draws) == [1, 0]


MODEL_HEADER = "n=3 kernel=linear use_bias=0 bias=0.0\n"
THREE_ROWS = "+1 1:1\n+1 1:2\n-1 1:3\n"


class TestSerialization:
    def test_round_trip(self, tmp_path):
        ds, kernel, config = train_pair(n=25, iterations=80, nu=0.02)
        model, _ = sbp_train(ds, kernel, config)
        path = tmp_path / "m.model"
        save_model(model, path)
        again = load_model(path, dataset=ds)
        assert np.array_equal(model.alpha, again.alpha)
        assert again.bias == model.bias
        assert again.kernel_spec == model.kernel_spec
        assert again.use_bias == model.use_bias

    def test_bytes_are_deterministic(self):
        ds, _, config = train_pair(n=25, iterations=80)
        m1, _ = sbp_train(ds, LinearKernel(), config)
        m2, _ = sbp_train(ds, LinearKernel(), config)
        assert serialize_model(m1) == serialize_model(m2)

    def test_loaded_model_keeps_its_bytes_and_scores(self, tmp_path):
        # The coefficients index the training set, so a model is only ever
        # loaded with it; loaded, it writes the bytes it was saved from and
        # scores exactly as the trained model.
        ds = generate(SyntheticSpec(kind="two_gaussians", n=40, seed=5, noise_rate=0.1))
        test = generate(SyntheticSpec(kind="two_gaussians", n=30, seed=6))
        path = tmp_path / "m.model"
        for use_bias in (False, True):
            config = SbpConfig(nu=0.1, iterations=60, seed=1, use_bias=use_bias)
            model, _ = sbp_train(ds, GaussianKernel(0.5), config)
            save_model(model, path)
            text = path.read_text()
            for loaded in (load_model(path, ds), deserialize_model(text, ds)):
                assert serialize_model(loaded) == text
                for data in (ds, test):
                    assert np.array_equal(score_batch(loaded, data, GaussianKernel(0.5)),
                                          score_batch(model, data, GaussianKernel(0.5)))
        with pytest.raises(TypeError):
            load_model(path)
        with pytest.raises(TypeError):
            deserialize_model(text)

    def test_dataset_mismatch_detected(self):
        ds, kernel, config = train_pair(n=25, iterations=40)
        model, _ = sbp_train(ds, kernel, config)
        other = parse_libsvm("+1 1:1\n")
        with pytest.raises(ValueError):
            deserialize_model(serialize_model(model), dataset=other)

    def test_support_label_disagreeing_with_the_dataset_raises(self):
        # Row 2 of THREE_ROWS is labeled -1: a model that gives it a nonzero
        # coefficient with label +1 was trained on other data.
        with pytest.raises(ValueError, match="model labels disagree with the dataset"):
            deserialize_model(MODEL_HEADER + "2 0.5 +1\n", parse_libsvm(THREE_ROWS))

    @pytest.mark.parametrize("text, line", [
        (MODEL_HEADER + "-1 0.5 +1\n", 2),
        (MODEL_HEADER + "0 0.5 +5\n", 2),
        (MODEL_HEADER + "3 0.5 +1\n", 2),
        (MODEL_HEADER + "0 0.5 +1\n\n0 0.25 +1\n", 4),
        (MODEL_HEADER + "0 nan +1\n", 2),
        (MODEL_HEADER + "0 0.5\n", 2),
        ("n=3 kernel=linear use_bias=0\n", 1),
        ("\nn=3 kernel=linear use_bias=2 bias=0.0\n", 2),
        ("n=-1 kernel=linear use_bias=0 bias=0.0\n", 1),
        ("n=3 kernel=bogus use_bias=0 bias=0.0\n", 1),
        ("\nn=3 kernel=gaussian:0 use_bias=1 bias=0.0\n", 2),
        ("n=3 kernel=gaussian:x use_bias=1 bias=0.0\n", 1),
        ("n=3 kernel=linear use_bias=0 bias=5.0\n", 1),
        ("n=3 kernel=linear use_bias=0 bias=-1e-300\n", 1),
        ("", None),
    ], ids=["negative-index", "label-5", "index-past-n", "duplicate-index",
            "nan-alpha", "two-fields", "no-bias", "use-bias-2", "negative-n",
            "unknown-kernel", "gaussian-width-0", "gaussian-width-x",
            "bias-without-use-bias", "tiny-bias-without-use-bias", "empty"])
    def test_hostile_text_raises_naming_its_line(self, text, line):
        match = "empty" if line is None else f"^line {line}: "
        with pytest.raises(ValueError, match=match):
            deserialize_model(text, parse_libsvm(THREE_ROWS))

    @pytest.mark.parametrize("header", ["n=3 kernel=linear use_bias=0 bias=-0.0",
                                        "n=3 kernel=gaussian:0.5 use_bias=1 bias=5.0",
                                        "n=3 kernel=gaussian:1 use_bias=0 bias=0.0"])
    def test_valid_headers_load_and_keep_their_bytes(self, header):
        # A zero bias of either sign without use_bias, any bias with it, and
        # any spec that kernel_from_spec reads, kept as written.
        model = deserialize_model(header + "\n0 0.5 +1\n", parse_libsvm(THREE_ROWS))
        assert serialize_model(model) == header + "\n0 0.5 +1\n"


def test_rescale_check_reports_bounds():
    ds, kernel, config = train_pair(n=40, iterations=400)
    model, _ = sbp_train(ds, kernel, config)
    report = rescale_check(model, ds, LinearKernel(),
                           reference_norm=1.0 / 0.3, reference_loss=0.0,
                           eps_bar=0.1)
    assert report.norm_bound == pytest.approx((1.0 / 0.3) / (1.0 - 0.1 / 0.3))
    assert report.norm >= 0.0
    with pytest.raises(ValueError):
        rescale_check(model, ds, LinearKernel(), reference_norm=100.0,
                      reference_loss=0.0, eps_bar=1.0)
