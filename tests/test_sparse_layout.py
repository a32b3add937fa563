"""Every sparse product and the Fourier projection read one layout per
dataset, ``Dataset.compact``: its distinct stored features and its rows as
CSR over them, from one np.unique. No library path reads ``Dataset.matrix``,
the rows over all ``dimension`` columns."""

import contextlib
import io
import sys
from unittest import mock

import numpy as np
import pytest

from slacksvm import cli
from slacksvm.data import Dataset
from slacksvm.fourier import fourier_features_batch, make_fourier_map
from slacksvm.kernels import GaussianKernel, LinearKernel

from oracles import cross_reference, fourier_reference, serialize_libsvm


@contextlib.contextmanager
def compact_only():
    """Make every read of Dataset.matrix raise, and list the arrays that
    the library calls np.unique on (np.isin's own calls are not listed)."""
    calls = []
    unique = np.unique

    def counted(ar, *args, **kwargs):
        if sys._getframe(1).f_globals["__name__"].startswith("slacksvm."):
            calls.append(ar)
        return unique(ar, *args, **kwargs)

    def matrix(self):
        raise AssertionError("read Dataset.matrix")

    with mock.patch.object(Dataset, "matrix", property(matrix)), \
            mock.patch.object(np, "unique", counted):
        yield calls


def once_each(calls, *datasets):
    """np.unique ran once on each dataset's indices and on nothing else."""
    return sorted(map(id, calls)) == sorted(id(ds.indices) for ds in datasets)


def zipf_rows(rng, n, dimension):
    """n rows of about 5 features each, drawn from a Zipf law over
    [0, dimension): text-like, far too sparse for a dense copy."""
    x = np.zeros((n, dimension))
    for i in range(n):
        features = np.minimum(rng.zipf(1.3, 5), dimension) - 1
        x[i, features] = rng.standard_normal(features.size)
    ds = Dataset.from_dense(x, np.where(rng.random(n) < 0.5, 1, -1))
    assert ds._dense is None
    return ds


def test_train_with_a_held_out_set_reads_the_compact_layout(tmp_path):
    path = tmp_path / "sparse.svm"
    path.write_text(serialize_libsvm(zipf_rows(np.random.default_rng(1), 60, 500)))
    with compact_only() as calls, contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["train", str(path), "--test", str(path), "--kernel", "gaussian:1.0",
                         "--iters", "30", "--out", str(tmp_path / "out")])
    assert code == 0
    assert len(calls) == 2  # the training set and the held-out set, each parsed once


@pytest.mark.parametrize("width", [2, 29, 30, 31, 59, 60, 100])
def test_fourier_features_are_the_projection_over_every_column(width):
    # Row 0 stores the map's last column and the one past it (when the data
    # has it), so the projection drops exactly the stored features at or
    # beyond the width. The bits are those of the product over all columns.
    rng = np.random.default_rng(width)
    x = np.zeros((40, 60))
    for i in range(x.shape[0]):
        x[i, rng.choice(60, 4, replace=False)] = rng.standard_normal(4)
    x[0, [c for c in (width - 1, width) if c < 60]] = 1.5
    datasets = (Dataset.from_dense(x, np.ones(40)),
                Dataset.from_dense(rng.standard_normal((12, 3)), np.ones(12)))
    assert datasets[0]._dense is None and datasets[1]._dense is not None
    fmaps = [make_fourier_map(16, width, 0.7, seed) for seed in (0, 1)]
    want = [fourier_reference(fmap, ds) for ds in datasets for fmap in fmaps]
    with compact_only() as calls:
        got = [fourier_features_batch(fmap, ds) for ds in datasets for fmap in fmaps]
    assert once_each(calls, *datasets)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("pair", ["sparse-sparse", "sparse-dense", "dense-sparse", "self"])
def test_cross_and_scores_read_the_compact_layout(pair):
    rng = np.random.default_rng(7)
    make = {"sparse": lambda n: zipf_rows(rng, n, 300),
            "dense": lambda n: Dataset.from_dense(rng.standard_normal((n, 6)),
                                                  np.where(rng.random(n) < 0.5, 1, -1))}
    if pair == "self":
        ds = other = make["sparse"](50)
    else:
        left, right = pair.split("-")
        ds, other = make[left](50), make[right](30)
    rows = rng.integers(0, ds.n, 80)
    coef = rng.standard_normal(rows.size)
    built = []
    for kernel in (LinearKernel(), GaussianKernel(0.8)):
        want = cross_reference(kernel, ds, rows, other)
        with compact_only() as calls:
            got = kernel.cross(ds, rows, other)
            scores = kernel.scores(ds, rows, coef, other)
        assert np.array_equal(got, want)
        np.testing.assert_allclose(scores, coef @ want, rtol=1e-12, atol=1e-12)
        built += calls
    # Built by the first call and kept for the three after it.
    assert once_each(built, *((ds,) if ds is other else (ds, other)))
