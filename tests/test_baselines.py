import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slacksvm import baselines, kernels
from slacksvm.baselines import (PegasosConfig, PerceptronConfig, SdcaConfig, _sdca_steps,
                                pegasos_train, perceptron_train, sdca_dual_value, sdca_train)
from slacksvm.bench import write_run_csv
from slacksvm.data import Dataset, SyntheticSpec, generate, parse_libsvm
from slacksvm.kernels import LinearKernel, RowSubset, kernel_from_spec
from slacksvm.model import TrainedModel, evaluate, score, serialize_model
from slacksvm.recording import DRAW_BLOCK, geometric_schedule, index_stream, run_steps

from oracles import (PrecomputedGramKernel, pegasos_steps_reference,
                     perceptron_reference, sdca_delta_oracle)


def margin_instance(n=80, seed=0, margin=0.3):
    return generate(SyntheticSpec(kind="margin_separable", n=n, dimension=2,
                                  seed=seed, margin=margin, radius=1.0))


def gaussians(n, seed, dimension=3):
    """Noisy overlapping classes: many mistakes, repeated on later passes."""
    return generate(SyntheticSpec(kind="two_gaussians", n=n, dimension=dimension,
                                  seed=seed, separation=1.0, noise_rate=0.1))


def wide_gaussians(n, seed):
    """gaussians at dimension 5, wider than the 2-D default."""
    return gaussians(n, seed, dimension=5)


def sparse_instance(n, seed, dimension=40):
    """n rows of 1 to 4 stored entries from dimension features, too sparse
    for a dense copy, labeled by a linear teacher with 10% flipped."""
    rng = np.random.default_rng(seed)
    x = np.zeros((n, dimension))
    for i in range(n):
        features = rng.choice(dimension, int(rng.integers(1, 5)), replace=False)
        x[i, features] = rng.standard_normal(features.size)
    labels = np.where((x @ rng.standard_normal(dimension) >= 0.0)
                      != (rng.random(n) < 0.1), 1, -1)
    return Dataset.from_dense(x, labels)


def perceptron_rows(seed, n, d, integer, dense):
    """n rows of d features, in the dense layout or, at three times the
    dimension, the sparse one: integers from +-{1, 2, 3} or standard
    normals. About a fifth of the rows repeat another row with the opposite
    label, and about a fifth, at most half, are all zero."""
    rng = np.random.default_rng(seed)
    if integer:
        x = rng.integers(1, 4, (n, d)) * rng.choice([-1.0, 1.0], (n, d))
    else:
        x = rng.standard_normal((n, d))
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    twins, source = rng.random(n) < 0.2, rng.integers(0, n, n)
    x[twins], labels[twins] = x[source[twins]], -labels[source[twins]]
    zero = rng.random(n) < 0.2
    zero[rng.permutation(n)[n // 2:]] = False
    x[zero] = 0.0
    ds = Dataset.from_dense(x, labels)
    if not dense:
        ds = Dataset(ds.indptr, ds.indices, ds.values, ds.labels, dimension=3 * d)
    assert (ds._dense is not None) == dense
    return ds


# A block score and the loop's sum the same terms in another order, from
# kernel values that may differ in their last bits: where the loop's score
# is further from zero than this share of the sum of its terms' magnitudes,
# both take its sign.
SCORE_TOLERANCE = 64 * np.finfo(np.float64).eps


def dense_gram(ds):
    return LinearKernel().cross(ds, np.arange(ds.n), ds)


class TestIndexStream:
    # Block draws must give the values of one scalar draw per step, or every
    # Pegasos and SDCA output would move with the block size.
    @pytest.mark.parametrize("n", [1, 2, 3, 100, 2000, 20000, 2**31 - 1, 2**31,
                                   2**32 - 1, 2**32, 2**32 + 5, 2**62])
    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_blocks_equal_scalar_draws(self, n, seed):
        steps = 3 * DRAW_BLOCK + 5
        scalar = np.random.default_rng(seed)
        drawn = list(itertools.islice(index_stream(np.random.default_rng(seed), n), steps))
        assert drawn == [int(scalar.integers(n)) for _ in range(steps)]

    def test_sdca_visits_the_scalar_stream(self):
        # Each SDCA step evaluates its coordinate's self-pair once, first.
        ds = margin_instance(n=37, seed=2)
        kernel = PrecomputedGramKernel(dense_gram(ds), ds)
        steps = _sdca_steps(ds, kernel, SdcaConfig(lam=0.05, iterations=2500),
                            np.random.default_rng(9))
        for _ in itertools.islice(steps, 2500):
            pass
        scalar = np.random.default_rng(9)
        assert kernel.paired == [int(scalar.integers(ds.n)) for _ in range(2500)]

    @pytest.mark.parametrize("average", [False, True])
    def test_pegasos_matches_one_draw_per_step(self, tmp_path, average):
        ds, test = margin_instance(n=60, seed=1), margin_instance(n=30, seed=2)
        cfg = PegasosConfig(lam=0.02, iterations=2500, seed=4, average=average)
        runs = {"blocks": pegasos_train(ds, LinearKernel(), cfg, test_data=test),
                "scalar": run_steps(pegasos_steps_reference, cfg.iterations, ds,
                                    LinearKernel(), cfg, test)}
        for name, (_, record) in runs.items():
            write_run_csv(record, tmp_path / f"{name}.csv")
        assert ((tmp_path / "blocks.csv").read_bytes()
                == (tmp_path / "scalar.csv").read_bytes())
        assert (serialize_model(runs["blocks"][0])
                == serialize_model(runs["scalar"][0]))


class TestPegasos:
    def test_config_validation(self):
        for config in (PegasosConfig, SdcaConfig):
            for lam in (0.0, -1.0, np.inf, np.nan):
                with pytest.raises(ValueError):
                    config(lam=lam, iterations=10)
            for iterations in (0, 2.5):
                with pytest.raises(ValueError):
                    config(lam=0.1, iterations=iterations)

    def test_determinism(self):
        ds = margin_instance()
        cfg = PegasosConfig(lam=0.05, iterations=200, seed=3)
        m1, r1 = pegasos_train(ds, LinearKernel(), cfg)
        m2, r2 = pegasos_train(ds, LinearKernel(), cfg)
        assert np.array_equal(m1.alpha, m2.alpha)
        assert r1.samples == r2.samples

    def test_rows_spent_only_on_violations(self):
        # A predictor already satisfying every margin spends no kernel rows.
        ds = parse_libsvm("+1 1:1\n-1 1:-1\n")
        kernel = LinearKernel()
        cfg = PegasosConfig(lam=0.5, iterations=3, seed=0)
        model, record = pegasos_train(ds, kernel, cfg)
        # First step always violates (w=0); later steps may or may not.
        assert kernel.eval_count % ds.n == 0
        assert record.samples[-1].train_kernel_evals == kernel.eval_count

    def test_objective_near_grid_optimum(self):
        ds = margin_instance(n=100, seed=4)
        lam = 1.0 / ds.n
        cfg = PegasosConfig(lam=lam, iterations=10 * ds.n, seed=0)
        model, _ = pegasos_train(ds, LinearKernel(), cfg)
        x = ds.matrix.toarray()
        w = x.T @ (model.alpha * ds.labels)
        margins = ds.labels * (x @ w)
        primal = 0.5 * lam * float(w @ w) + np.maximum(0, 1 - margins).mean()
        from oracles import best_regularized_on_grid
        _, best = best_regularized_on_grid(x, ds.labels, lam, radius=6.0, steps=120)
        assert primal <= best * 1.5 + 0.05

    def test_closed_form_matches_the_recursion(self):
        # Textbook Pegasos on the explicit primal vector, with the library's
        # draws: w <- (1 - 1/t) w, plus y_i x_i / (lambda t) on a violation.
        ds = margin_instance(n=50, seed=3)
        x, y = ds.matrix.toarray(), ds.labels
        cfg = PegasosConfig(lam=0.05, iterations=300, seed=5)
        model, _ = pegasos_train(ds, LinearKernel(), cfg)
        w = np.zeros(ds.dimension)
        rng = np.random.default_rng(cfg.seed)
        for t in range(1, cfg.iterations + 1):
            i = int(rng.integers(ds.n))
            violation = y[i] * (x[i] @ w) < 1.0
            w *= 1.0 - 1.0 / t
            if violation:
                w += y[i] * x[i] / (cfg.lam * t)
        np.testing.assert_allclose(x.T @ (model.alpha * y), w, rtol=1e-12, atol=1e-12)

    def test_averaged_mode(self):
        ds = margin_instance(n=30)
        cfg = PegasosConfig(lam=0.1, iterations=100, seed=0, average=True)
        model, _ = pegasos_train(ds, LinearKernel(), cfg)
        assert model.support_size > 0

class TestSdca:
    def test_pinned_first_update(self):
        # alpha_i=0, c_i=0, K_ii=1, box 1/(lam*n)=0.5: delta = min(1, 0.5).
        ds = parse_libsvm("+1 1:1\n-1 1:-1\n")
        lam = 1.0  # n=2 -> box = 0.5
        cfg = SdcaConfig(lam=lam, iterations=1, seed=0)
        model, _ = sdca_train(ds, LinearKernel(), cfg)
        assert sorted(model.alpha.tolist()) == [0.0, 0.5]

    def test_box_feasibility_and_monotone_dual(self):
        ds = margin_instance(n=50, seed=2)
        lam = 0.02
        box = 1.0 / (lam * ds.n)
        gram = dense_gram(ds)
        kernel = PrecomputedGramKernel(gram, ds)

        steps = _sdca_steps(ds, kernel, SdcaConfig(lam=lam, iterations=2000),
                            np.random.default_rng(0))
        last = 0.0
        for predict in itertools.islice(steps, 2000):
            responses, alpha, _ = predict()
            assert np.all(alpha >= -1e-15) and np.all(alpha <= box + 1e-15)
            d = sdca_dual_value(alpha, responses, lam)
            assert d >= last - 1e-12
            last = d

    def test_updates_match_quadratic_oracle(self):
        ds = margin_instance(n=40, seed=6)
        lam = 0.05
        box = 1.0 / (lam * ds.n)
        gram = dense_gram(ds)
        kernel = PrecomputedGramKernel(gram, ds)

        steps = _sdca_steps(ds, kernel, SdcaConfig(lam=lam, iterations=1000),
                            np.random.default_rng(1))
        alpha_before, c_before = np.zeros(ds.n), np.zeros(ds.n)
        seen = []
        for predict in itertools.islice(steps, 1000):
            responses, alpha, _ = predict()
            i = kernel.paired[-1]
            delta = alpha[i] - alpha_before[i]
            want = sdca_delta_oracle(c_before[i], alpha_before[i], gram[i, i], box)
            assert delta == pytest.approx(want, abs=1e-12)
            seen.append(delta)
            alpha_before, c_before = alpha.copy(), responses.copy()
        assert len(seen) == 1000

    def test_zero_diagonal_skipped(self):
        ds = parse_libsvm("+1 1:1\n")
        gram = np.zeros((1, 1))
        kernel = PrecomputedGramKernel(gram, ds)
        model, _ = sdca_train(ds, kernel, SdcaConfig(lam=1.0, iterations=5, seed=0))
        assert model.alpha.tolist() == [0.0]

    def test_no_row_cost_when_clamped_to_zero(self):
        # At the box bound with a violated margin the clamp gives delta=0,
        # so only the single diagonal evaluation is spent.
        ds = parse_libsvm("+1 1:1\n")
        kernel = LinearKernel()
        sdca_train(ds, kernel, SdcaConfig(lam=1.0, iterations=1, seed=0))
        first = kernel.eval_count  # 1 diag + 1 row: update moved alpha
        assert first == 2


class TestPerceptron:
    def test_first_example_is_always_a_mistake(self):
        ds = parse_libsvm("+1 1:1\n-1 1:-1\n")
        model, _ = perceptron_train(ds, LinearKernel(), PerceptronConfig(seed=0))
        assert model.alpha.sum() >= 1
        assert np.count_nonzero(model.alpha) == model.alpha.sum()

    def test_cost_tracks_support_size(self):
        ds = margin_instance(n=30, seed=1)
        kernel = LinearKernel()
        model, record = perceptron_train(ds, kernel, PerceptronConfig(seed=0))
        # Total cost = sum over examples of support size at visit time,
        # which is at most M * n.
        assert kernel.eval_count <= model.alpha.sum() * ds.n
        assert model.kernel_evals == kernel.eval_count

    def test_mistake_bound_on_separable_data(self):
        for seed in range(10):
            ds = margin_instance(n=60, seed=seed, margin=0.4)
            model, _ = perceptron_train(ds, LinearKernel(), PerceptronConfig(seed=seed))
            radius = float(np.sqrt(ds.norms.max()))
            assert model.alpha.sum() <= (radius / 0.4) ** 2 + 1e-9

    def test_determinism(self):
        ds = margin_instance(n=40, seed=3)
        m1, _ = perceptron_train(ds, LinearKernel(), PerceptronConfig(seed=7))
        m2, _ = perceptron_train(ds, LinearKernel(), PerceptronConfig(seed=7))
        assert np.array_equal(m1.alpha, m2.alpha)

    # The dense cases keep the ids they had before the other data was added.
    @pytest.mark.parametrize("data,spec,passes", [
        pytest.param(data, spec, passes,
                     id=f"{spec}-{passes}" if data == "dense" else f"{data}-{spec}-{passes}")
        for data in ("dense", "sparse", "dense_large")
        for spec in ("linear", "gaussian:0.5") for passes in (1, 3)])
    def test_matches_reference_loop(self, data, spec, passes):
        # Noisy overlapping classes: later passes repeat mistakes on examples
        # already in the support set, which changes its coefficients only.
        # Subset rows of sparse data take scipy's mat-vec over the subset's
        # own features, the full row's bits, and dense ones one matmul of the
        # gathered rows, which the reference computes alike from a support
        # it rebuilds at every visit. dense_large grows its support past 200
        # rows.
        n, test_n, make = {"dense": (40, 25, gaussians), "sparse": (60, 30, sparse_instance),
                           "dense_large": (500, 25, wide_gaussians)}[data]
        ds, test = make(n, 5), make(test_n, 6)
        assert (ds._dense is None) == (data == "sparse")
        kernel, eval_kernel = kernel_from_spec(spec), kernel_from_spec(spec)
        model, record = perceptron_train(ds, kernel, PerceptronConfig(passes=passes, seed=2),
                                         test_data=test, eval_kernel=eval_kernel)
        alpha, sizes, after = perceptron_reference(ds, kernel_from_spec(spec), passes, 2)
        if passes > 1:
            assert alpha.max() > 1
        if data == "dense_large":
            assert np.count_nonzero(alpha) > 200

        assert np.array_equal(model.alpha, alpha)
        assert model.kernel_evals == kernel.eval_count == sum(sizes)
        cost = np.cumsum(sizes)
        scorer = kernel_from_spec(spec)
        expected = []
        for t in sorted(geometric_schedule(passes * ds.n)):
            interim = TrainedModel(alpha=after[t].astype(np.float64), bias=0.0, dataset=ds,
                                   kernel_spec=spec, use_bias=False, kernel_evals=0)
            error = evaluate(interim, test, scorer)[1]
            expected.append((t, int(cost[t - 1]), scorer.eval_count, error, 0))
        assert [(s.iteration, s.train_kernel_evals, s.eval_kernel_evals,
                 s.test_zero_one, s.wall_clock_ns) for s in record.samples] == expected
        assert all(np.isnan(s.empirical_hinge) for s in record.samples)

    @pytest.mark.parametrize("data", ["dense", "sparse"])
    def test_repeat_mistakes_take_no_new_rows(self, monkeypatch, data):
        # A repeat mistake adds its row of its block's kernel product: it
        # calls no kernel method and spends no evaluation. Each block's rows
        # are gathered exactly once, just before its product; the support's
        # just before them, at the first block, where the set is empty, and
        # then only when it has grown. A new mistake's row reads a suffix
        # of the block's rows.
        make = gaussians if data == "dense" else sparse_instance
        ds, cfg = make(40, 5), PerceptronConfig(passes=3, seed=2)
        kernel = kernel_from_spec("gaussian:0.5")
        alpha = np.zeros(ds.n)  # the run's alpha before the step being taken
        events = []

        def gathered(dataset, rows):
            support = np.array_equal(rows, np.flatnonzero(alpha))
            events.append(("support" if support else "block rows", len(rows)))
            return RowSubset(dataset, rows)

        def row(dataset, j, rows=None):
            before = kernel.eval_count
            out = type(kernel).row(kernel, dataset, j, rows)
            events.append(("product" if isinstance(j, RowSubset) else "row",
                           kernel.eval_count - before))
            return out

        def refused(*args):
            raise AssertionError("the Perceptron reads kernel values through row only")

        monkeypatch.setattr(baselines, "RowSubset", gathered)
        kernel.row = row
        for name in ("pair", "diag", "cross", "scores"):
            setattr(kernel, name, refused)
        rng = np.random.default_rng(cfg.seed)
        visits = np.concatenate([rng.permutation(ds.n) for _ in range(cfg.passes)])
        steps = baselines._perceptron_steps(ds, kernel, cfg, np.random.default_rng(cfg.seed))
        repeats, spent, flat = 0, kernel.eval_count, []
        for i, predict in zip(visits.tolist(), steps):
            after = predict()[1]
            taken, cost = list(events), kernel.eval_count - spent
            flat += taken
            if alpha[i] and after[i] > alpha[i]:
                repeats += 1
                # Before its decision, the step may open a block.
                assert [e[0] for e in taken] in ([], ["block rows", "product"],
                                                 ["support", "block rows", "product"])
                assert cost == sum(e[1] for e in taken if e[0] == "product")
            events.clear()
            spent = kernel.eval_count
            alpha[:] = after
        assert repeats > 0 and np.count_nonzero(alpha) > 1
        # Up to each block product: one gather of the block's rows, just
        # before it, and at most one of the support's, just before that;
        # after the last product, neither. Every example's row is gathered
        # once a pass.
        products = [k for k, e in enumerate(flat) if e[0] == "product"]
        for lo, hi in zip([-1] + products, products + [len(flat)]):
            between = [e[0] for e in flat[lo + 1:hi]]
            assert between.count("block rows") == (hi < len(flat))
            assert between[-1:] == ["block rows"] or hi == len(flat)
            assert "support" not in between[:-2] and "support" not in between[-1:]
        assert sum(e[1] for e in flat if e[0] == "block rows") == cfg.passes * ds.n
        # And the support's only once the set has grown, from empty.
        sizes = [e[1] for e in flat if e[0] == "support"]
        assert len(sizes) > 2 and sizes[0] == 0 and sizes == sorted(set(sizes))
        assert sum(e[1] for e in flat if e[0] in ("product", "row")) == kernel.eval_count

    @given(st.integers(0, 2**32), st.integers(1, 30), st.integers(1, 4), st.integers(1, 3),
           st.booleans(), st.sampled_from([1, 7, 64, kernels._CROSS_BLOCK_ENTRIES]),
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_blocks_take_the_loops_steps(self, seed, n, d, passes, dense, budget, integer):
        # Blocks of any size decide as the one-example loop and spend its
        # evaluations at every checkpoint. Under the linear kernel on small
        # integers every product and sum is exact, so they must on every
        # draw, zero scores of twins and zero rows included. Under
        # gaussian:0.5 on standard normals they must wherever no loop score
        # lies within SCORE_TOLERANCE of zero; a draw with such a score is
        # not compared, as either sign is a right rounding of it.
        ds = perceptron_rows(seed, n, d, integer=integer, dense=dense)
        spec = "linear" if integer else "gaussian:0.5"
        cfg = PerceptronConfig(passes=passes, seed=seed)
        with mock.patch.object(baselines, "_CROSS_BLOCK_ENTRIES", budget):
            model, record = perceptron_train(ds, kernel_from_spec(spec), cfg)
        scores = []
        alpha, sizes, _ = perceptron_reference(ds, kernel_from_spec(spec), passes, seed,
                                               scores=scores)
        if not integer and any(abs(score) <= SCORE_TOLERANCE * size and size
                               for score, size in scores):
            return
        assert np.array_equal(model.alpha, alpha)
        cost = np.cumsum(sizes)
        assert [(s.iteration, s.train_kernel_evals) for s in record.samples] == [
            (t, int(cost[t - 1])) for t in sorted(geometric_schedule(passes * n))]

    def test_sparse_support_rows_slice_one_compact_matrix(self, monkeypatch):
        # A sparse dataset decides the column space of its products once:
        # np.unique runs for its compact matrix, and each new support set
        # takes rows of that matrix without deciding it again.
        calls = []
        unique = np.unique

        def counted(*args, **kwargs):
            calls.append(1)
            return unique(*args, **kwargs)

        ds = sparse_instance(200, 7)
        monkeypatch.setattr(np, "unique", counted)
        model, _ = perceptron_train(ds, kernel_from_spec("gaussian:1.0"),
                                    PerceptronConfig(passes=1, seed=3))
        assert np.count_nonzero(model.alpha) > 10
        assert len(calls) == 1

    def test_passes_must_be_a_positive_integer(self):
        for passes in (0, 2.5):
            with pytest.raises(ValueError):
                PerceptronConfig(passes=passes)


class TestPredict:
    def test_empty_support_returns_bias(self):
        ds = parse_libsvm("+1 1:1\n")
        model = TrainedModel(alpha=np.zeros(1), bias=0.25, dataset=ds,
                             kernel_spec="linear", use_bias=True, kernel_evals=0)
        assert score(model, ds, 0, LinearKernel()) == 0.25

    def test_row_out_of_range_raises_before_counting(self):
        # Even with an empty support, which reads no kernel value.
        ds = parse_libsvm("+1 1:1\n")
        model = TrainedModel(alpha=np.zeros(1), bias=0.25, dataset=ds,
                             kernel_spec="linear", use_bias=True, kernel_evals=0)
        k = LinearKernel()
        for i in (5, -3, 1):
            with pytest.raises(IndexError):
                score(model, ds, i, k)
        assert k.eval_count == 0

    def test_single_support_vector(self):
        ds = parse_libsvm("+1 1:0.5\n")
        model = TrainedModel(alpha=np.array([1.0]), bias=0.0, dataset=ds,
                             kernel_spec="linear", use_bias=False, kernel_evals=0)
        assert score(model, ds, 0, LinearKernel()) == pytest.approx(0.25)

    def test_cost_is_support_size(self):
        ds = margin_instance(n=20, seed=0)
        model, _ = perceptron_train(ds, LinearKernel(), PerceptronConfig(seed=0))
        k = LinearKernel()
        score(model, ds, 0, k)
        assert k.eval_count == model.support_size
