import numpy as np
import pytest

from slacksvm.data import Dataset, SyntheticSpec, generate
from slacksvm.fourier import fourier_features_batch, linearize, make_fourier_map
from slacksvm.kernels import GaussianKernel


def dense_rows(*rows):
    """A dataset holding the given dense vectors as its rows."""
    return Dataset.from_dense(np.vstack(rows), np.ones(len(rows)))


def test_map_shape_and_determinism():
    fmap = make_fourier_map(16, 5, 1.0, seed=42)
    assert fmap.directions.shape == (16, 5)
    assert 2 * fmap.k == 32
    again = make_fourier_map(16, 5, 1.0, seed=42)
    assert np.array_equal(fmap.directions, again.directions)
    other = make_fourier_map(16, 5, 1.0, seed=43)
    assert not np.array_equal(fmap.directions, other.directions)


def test_bad_parameters():
    with pytest.raises(ValueError):
        make_fourier_map(0, 5, 1.0, 0)
    for sigma_sq in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="sigma_sq must be positive and finite"):
            make_fourier_map(4, 5, sigma_sq, 0)
    with pytest.raises(ValueError):
        make_fourier_map(4, 0, 1.0, 0)
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        make_fourier_map(4, 5, 1.0, -1)


def test_unit_norm_exact():
    fmap = make_fourier_map(64, 3, 0.7, seed=1)
    rng = np.random.default_rng(2)
    feats = fourier_features_batch(fmap, dense_rows(*rng.standard_normal((20, 3))))
    for p in feats:
        assert abs(p @ p - 1.0) < 1e-12


def test_same_point_gives_kernel_one():
    fmap = make_fourier_map(32, 4, 1.0, seed=0)
    (p,) = fourier_features_batch(fmap, dense_rows([0.3, -1.0, 0.0, 2.0]))
    assert p @ p == pytest.approx(1.0)


def test_inner_products_approximate_gaussian():
    fmap = make_fourier_map(4096, 5, 1.0, seed=0)
    kernel = GaussianKernel(1.0)
    rng = np.random.default_rng(9)
    bad = 0
    for _ in range(100):
        ds = dense_rows(rng.standard_normal(5), rng.standard_normal(5))
        pa, pb = fourier_features_batch(fmap, ds)
        if abs(pa @ pb - kernel.cross(ds, [0], ds)[0, 1]) > 0.05:
            bad += 1
    assert bad <= 1


def test_unbiasedness():
    ds = dense_rows([0.5, -0.2, 1.0], [-0.3, 0.8, 0.1])
    exact = GaussianKernel(1.0).cross(ds, [0], ds)[0, 1]
    k = 64
    estimates = []
    for s in range(200):
        pa, pb = fourier_features_batch(make_fourier_map(k, 3, 1.0, seed=s), ds)
        estimates.append(pa @ pb)
    estimates = np.array(estimates)
    se = estimates.std(ddof=1) / np.sqrt(estimates.size)
    assert abs(estimates.mean() - exact) <= 3.0 * se


def test_cost_accounting():
    fmap = make_fourier_map(8, 3, 1.0, seed=0)
    fourier_features_batch(fmap, dense_rows([1.0, 0.0, 0.0]))
    assert fmap.inner_product_count == 8
    ds = generate(SyntheticSpec(kind="two_gaussians", n=10, dimension=3, seed=0))
    fourier_features_batch(fmap, ds)
    assert fmap.inner_product_count == 8 + 8 * 10


def test_batch_matches_single():
    fmap = make_fourier_map(16, 2, 0.5, seed=3)
    ds = generate(SyntheticSpec(kind="two_gaussians", n=12, seed=4))
    batch = fourier_features_batch(fmap, ds)
    x = ds.matrix.toarray()
    for i in range(ds.n):
        (single,) = fourier_features_batch(fmap, dense_rows(x[i]))
        np.testing.assert_allclose(batch[i], single, rtol=1e-12, atol=1e-12)
    assert fmap.inner_product_count == 2 * 16 * ds.n


def test_linearize_preserves_labels():
    fmap = make_fourier_map(8, 2, 1.0, seed=0)
    ds = generate(SyntheticSpec(kind="two_gaussians", n=15, seed=1))
    lin = linearize(fmap, ds)
    assert isinstance(lin, Dataset)
    assert lin.n == ds.n
    assert np.array_equal(lin.labels, ds.labels)
    assert lin.dimension == 16
    np.testing.assert_allclose(lin.norms, np.ones(ds.n), rtol=1e-12)
