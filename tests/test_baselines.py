import numpy as np
import pytest

from slacksvm.baselines import (PegasosConfig, PerceptronConfig, SdcaConfig,
                                pegasos_train, perceptron_train,
                                sdca_dual_value, sdca_train)
from slacksvm.data import SyntheticSpec, evaluate, generate, parse_libsvm
from slacksvm.kernels import LinearKernel, kernel_from_spec
from slacksvm.model import TrainedModel, score
from slacksvm.recording import geometric_schedule

from oracles import PrecomputedGramKernel, perceptron_reference, sdca_delta_oracle


def margin_instance(n=80, seed=0, margin=0.3):
    return generate(SyntheticSpec(kind="margin_separable", n=n, dimension=2,
                                  seed=seed, margin=margin, radius=1.0))


def dense_gram(ds):
    k = LinearKernel()
    return np.array([[k._pair(ds, i, ds, j) for j in range(ds.n)] for i in range(ds.n)])


class TestPegasos:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            PegasosConfig(lam=0.0, iterations=10)

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
        from slacksvm.baselines import _sdca_loop

        rng = np.random.default_rng(0)
        last = [0.0]

        def check(t, i, delta, alpha, responses):
            assert np.all(alpha >= -1e-15) and np.all(alpha <= box + 1e-15)
            d = sdca_dual_value(alpha, responses, lam)
            assert d >= last[0] - 1e-12
            last[0] = d

        _sdca_loop(ds, kernel, lam, rng, iterations=2000, on_step=check)

    def test_updates_match_quadratic_oracle(self):
        ds = margin_instance(n=40, seed=6)
        lam = 0.05
        box = 1.0 / (lam * ds.n)
        gram = dense_gram(ds)
        kernel = PrecomputedGramKernel(gram, ds)
        from slacksvm.baselines import _sdca_loop

        rng = np.random.default_rng(1)
        seen = []

        def check(t, i, delta, alpha, responses):
            c_before = responses[i] - delta * gram[i, i]
            want = sdca_delta_oracle(c_before, alpha[i] - delta, gram[i, i], box)
            assert delta == pytest.approx(want, abs=1e-12)
            seen.append(delta)

        _sdca_loop(ds, kernel, lam, rng, iterations=1000, on_step=check)
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
        assert model.metadata["mistakes"] >= 1
        assert np.count_nonzero(model.alpha) == model.metadata["mistakes"]

    def test_cost_tracks_support_size(self):
        ds = margin_instance(n=30, seed=1)
        kernel = LinearKernel()
        model, record = perceptron_train(ds, kernel, PerceptronConfig(seed=0))
        # Total cost = sum over examples of support size at visit time,
        # which is at most M * n.
        assert kernel.eval_count <= model.metadata["mistakes"] * ds.n
        assert model.kernel_evals == kernel.eval_count

    def test_mistake_bound_on_separable_data(self):
        for seed in range(10):
            ds = margin_instance(n=60, seed=seed, margin=0.4)
            model, _ = perceptron_train(ds, LinearKernel(), PerceptronConfig(seed=seed))
            radius = float(np.sqrt(ds.norms.max()))
            assert model.metadata["mistakes"] <= (radius / 0.4) ** 2 + 1e-9

    def test_determinism(self):
        ds = margin_instance(n=40, seed=3)
        m1, _ = perceptron_train(ds, LinearKernel(), PerceptronConfig(seed=7))
        m2, _ = perceptron_train(ds, LinearKernel(), PerceptronConfig(seed=7))
        assert np.array_equal(m1.alpha, m2.alpha)

    @pytest.mark.parametrize("passes", [1, 3])
    @pytest.mark.parametrize("spec", ["linear", "gaussian:0.5"])
    def test_matches_reference_loop(self, spec, passes):
        # Noisy overlapping classes: later passes repeat mistakes on examples
        # already in the support set, which changes its coefficients only.
        def gaussians(n, seed):
            return generate(SyntheticSpec(kind="two_gaussians", n=n, dimension=3,
                                          seed=seed, separation=1.0, noise_rate=0.1))
        ds, test = gaussians(40, 5), gaussians(25, 6)
        kernel, eval_kernel = kernel_from_spec(spec), kernel_from_spec(spec)
        model, record = perceptron_train(ds, kernel, PerceptronConfig(passes=passes, seed=2),
                                         test_data=test, eval_kernel=eval_kernel)
        alpha, sizes, after = perceptron_reference(ds, kernel_from_spec(spec), passes, 2)
        if passes > 1:
            assert alpha.max() > 1

        assert np.array_equal(model.alpha, alpha)
        assert model.metadata["mistakes"] == alpha.sum()
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

    def test_multi_pass_flagged(self):
        ds = margin_instance(n=20, seed=0)
        _, record = perceptron_train(ds, LinearKernel(),
                                     PerceptronConfig(passes=3, seed=0))
        assert record.metadata["beyond_single_pass"] is True
        with pytest.raises(ValueError):
            PerceptronConfig(passes=0)


class TestPredict:
    def test_empty_support_returns_bias(self):
        ds = parse_libsvm("+1 1:1\n")
        model = TrainedModel(alpha=np.zeros(1), bias=0.25, dataset=ds,
                             kernel_spec="linear", use_bias=True, kernel_evals=0)
        assert score(model, ds, 0, LinearKernel()) == 0.25

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
