import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from slacksvm import kernels
from slacksvm.data import DataError, Dataset, parse_libsvm
from slacksvm.kernels import GaussianKernel, LinearKernel, RowSubset, kernel_from_spec
from slacksvm.model import TrainedModel, score_batch
from slacksvm.sbp import SbpConfig, sbp_train

from oracles import PrecomputedGramKernel, cross_reference


def ex(values, label=1):
    """A one-row dataset holding the dense vector values."""
    return Dataset.from_dense([values], [label])


def test_linear_pair_is_dot_product():
    k = LinearKernel()
    assert k.pair(ex([1.0, 2.0]), 0) == pytest.approx(5.0)
    assert k.cross(ex([1.0, 2.0]), [0], ex([3.0, 4.0]))[0, 0] == pytest.approx(11.0)
    assert k.eval_count == 2


def test_linear_disjoint_support():
    k = LinearKernel()
    a = Dataset([0, 1], [0], [1.0], [1])
    b = Dataset([0, 1], [3], [2.0], [-1])
    assert k.cross(a, [0], b)[0, 0] == 0.0
    assert k.cross(b, [0], a)[0, 0] == 0.0


def test_gaussian_pinned_value():
    # sigma^2 = 0.5, points at distance 1: exp(-1/(2*0.5)) = exp(-1).
    k = GaussianKernel(0.5)
    a = Dataset([0, 1], [0], [1.0], [1])
    b = Dataset([0, 0], [], [], [1])
    assert k.cross(a, [0], b)[0, 0] == pytest.approx(np.exp(-1.0), rel=1e-12)
    assert k.cross(b, [0], a)[0, 0] == pytest.approx(np.exp(-1.0), rel=1e-12)


@given(st.integers(0, 2**32), st.integers(1, 40))
@settings(max_examples=100, deadline=None)
def test_one_self_product_on_every_path(seed, d):
    # K(x, x) has one value, whichever path reads it: the cached squared
    # norm (linear) or exactly 1.0 (Gaussian), where n + n - 2n == 0. The
    # self-pair reads the cache; a cross with a twin dataset of equal rows,
    # the full row, a subset row, the diagonal and cross sum the row's
    # products. Rows of up to 40 entries whose magnitudes differ within a row
    # tell the storage-order sum from any other.
    rng = np.random.default_rng(seed)
    n = 12
    x = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 4, size=(n, d))
    x[rng.random((n, d)) < rng.uniform(0.0, 0.6)] = 0.0
    labels = np.where(rng.random(n) < 0.5, 1, -1)
    ds, twin = Dataset.from_dense(x, labels), Dataset.from_dense(x, labels)
    for kernel, want in ((LinearKernel(), ds.norms), (GaussianKernel(0.7), np.ones(n))):
        cost = 0  # one evaluation a pair, as many as entries read otherwise
        for j in range(n):
            rows = np.append(rng.integers(0, n, int(rng.integers(0, n))), j)
            assert kernel.pair(ds, j) == want[j]
            assert kernel.cross(ds, [j], twin)[0, j] == want[j]
            assert kernel.row(ds, j)[j] == want[j]
            assert kernel.row(ds, j, RowSubset(ds, rows))[-1] == want[j]
            cost += 1 + n + n + rows.size
        assert np.array_equal(kernel.diag(ds), want)
        assert np.array_equal(np.diag(kernel.cross(ds, np.arange(n), ds)), want)
        assert kernel.eval_count == cost + n + n * n


def test_gaussian_self_similarity_is_one():
    k = GaussianKernel(2.0)
    ds = parse_libsvm("+1 1:0.5 3:-2\n-1 2:4\n+1 1:1\n")
    assert np.array_equal(k.diag(ds), np.ones(3))
    for j in range(ds.n):
        assert k.row(ds, j)[j] == 1.0


def test_gaussian_is_finite_up_to_the_norm_bound():
    # Rows x and -x just under the data boundary's norm bound: their squared
    # distance, 4 * 3.6e307, is finite, so no path warns or gives nan.
    ds = Dataset.from_dense([[6e153], [-6e153]], [1, -1])
    k = GaussianKernel(1.0)
    assert k.pair(ds, 0) == k.pair(ds, 1) == 1.0
    assert k.row(ds, 0).tolist() == k.row(ds, 0, RowSubset(ds, [0, 1])).tolist() == [1.0, 0.0]
    assert k.cross(ds, [0, 1], ds).tolist() == [[1.0, 0.0], [0.0, 1.0]]
    assert k.diag(ds).tolist() == [1.0, 1.0]


def test_gaussian_requires_positive_bandwidth():
    for sigma_sq in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            GaussianKernel(sigma_sq)
    for spec in ("gaussian:inf", "gaussian:1e999", "gaussian:-1"):
        with pytest.raises(ValueError):
            kernel_from_spec(spec)


@given(st.integers(0, 2**32), st.floats(0.1, 10.0))
@settings(max_examples=50, deadline=None)
def test_row_matches_pairs(seed, sigma_sq):
    rng = np.random.default_rng(seed)
    n, d = 8, 4
    x = rng.standard_normal((n, d))
    x[rng.random((n, d)) < 0.3] = 0.0
    labels = np.where(rng.random(n) < 0.5, 1, -1)
    ds = Dataset.from_dense(x, labels)
    for kernel in (LinearKernel(), GaussianKernel(sigma_sq)):
        j = int(rng.integers(n))
        row = kernel.row(ds, j)
        assert row[j] == kernel.pair(ds, j)
        np.testing.assert_allclose(row, cross_reference(kernel, ds, np.arange(n), ds)[:, j],
                                   rtol=1e-10, atol=1e-12)


@given(st.integers(0, 2**32), st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_row_at_is_the_full_row_sliced(seed, d):
    # row(ds, j, rows) is row(ds, j)[rows] bit for bit, the self-entry
    # included, at a cost of len(rows) evaluations.
    rng = np.random.default_rng(seed)
    n = 30
    x = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-2, 3)
    x[rng.random((n, d)) < 0.2] = 0.0
    ds = Dataset.from_dense(x, np.where(rng.random(n) < 0.5, 1, -1))
    shared = rng.choice(n, int(rng.integers(0, n)), replace=False)
    for kernel in (LinearKernel(), GaussianKernel(float(rng.uniform(0.1, 10.0)))):
        subset = RowSubset(ds, shared)  # taken once, reused for every j
        for j in range(n):
            rows = np.append(rng.choice(n, int(rng.integers(0, n)), replace=False), j)
            rng.shuffle(rows)
            before = kernel.eval_count
            assert np.array_equal(kernel.row(ds, j, RowSubset(ds, rows)),
                                  kernel.row(ds, j)[rows])
            assert kernel.eval_count - before == rows.size + n
            before = kernel.eval_count
            assert np.array_equal(kernel.row(ds, j, subset), kernel.row(ds, j)[shared])
            assert kernel.eval_count - before == shared.size + n


@given(st.integers(0, 2**32), st.integers(1, 40))
@settings(max_examples=100, deadline=None)
def test_row_at_sums_stored_entries_in_storage_order(seed, d):
    # Rows with more than 8 stored entries tell a sequential sum from a
    # pairwise one; all-zero rows, repeated indices and an empty rows are the
    # edges of a subset's rows. Each must equal the sliced full row exactly.
    rng = np.random.default_rng(seed)
    n = 20
    x = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
    x[rng.random((n, d)) < rng.uniform(0.0, 0.6)] = 0.0
    x[rng.random(n) < 0.2] = 0.0
    ds = Dataset.from_dense(x, np.where(rng.random(n) < 0.5, 1, -1))
    shared = rng.integers(0, n, int(rng.integers(1, 2 * n)))
    for kernel in (LinearKernel(), GaussianKernel(float(rng.uniform(0.1, 10.0)))):
        subset = RowSubset(ds, shared)  # taken once, reused for every j
        for j in range(n):
            rows = rng.integers(0, n, int(rng.integers(1, 2 * n)))
            before = kernel.eval_count
            got = kernel.row(ds, j, RowSubset(ds, rows))
            assert kernel.eval_count - before == rows.size
            assert got.dtype == np.float64
            assert np.array_equal(got, kernel.row(ds, j)[rows])
            before = kernel.eval_count
            got = kernel.row(ds, j, subset)
            assert kernel.eval_count - before == shared.size
            assert got.dtype == np.float64
            assert np.array_equal(got, kernel.row(ds, j)[shared])
        before = kernel.eval_count
        assert kernel.row(ds, int(rng.integers(n)), RowSubset(ds, [])).shape == (0,)
        assert kernel.eval_count == before


@given(st.integers(0, 2**32), st.integers(1, 6), st.floats(0.1, 10.0))
@settings(max_examples=100, deadline=None)
def test_gaussian_is_the_map_of_the_linear_products(seed, d, sigma_sq):
    # On every access path the Gaussian value is exp(-max(d2, 0) / (2 sigma^2))
    # of d2 = n_i + n_j - 2 <x_i, x_j>, with the linear kernel's product from
    # the same path, bit for bit.
    rng = np.random.default_rng(seed)

    def sample(n, dim):
        x = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-2, 3, size=(n, 1))
        x[rng.random((n, dim)) < 0.3] = 0.0
        return Dataset.from_dense(x, np.where(rng.random(n) < 0.5, 1, -1))

    def mapped(products, norms_i, norms_j):
        d2 = norms_i + norms_j - 2.0 * products
        return np.exp(-np.maximum(d2, 0.0) / (2.0 * sigma_sq))

    ds, other = sample(12, d), sample(5, d + int(rng.integers(0, 2)))
    lin, gauss = LinearKernel(), GaussianKernel(sigma_sq)
    for j in range(ds.n):
        assert gauss.pair(ds, j) == mapped(lin.pair(ds, j), ds.norms[j], ds.norms[j]) == 1.0
        assert np.array_equal(gauss.row(ds, j), mapped(
            lin.row(ds, j), ds.norms, ds.norms[j]))
        drawn = rng.integers(0, ds.n, int(rng.integers(1, 2 * ds.n)))
        for rows in (np.append(drawn, j), drawn[drawn != j]):
            subset = RowSubset(ds, rows)
            assert np.array_equal(gauss.row(ds, j, subset), mapped(
                lin.row(ds, j, subset), ds.norms[rows], ds.norms[j]))
    for a, b in ((ds, other), (other, ds)):
        rows = rng.integers(0, a.n, int(rng.integers(1, 8)))
        assert np.array_equal(gauss.cross(a, rows, b), mapped(
            lin.cross(a, rows, b), a.norms[rows][:, None], b.norms[None, :]))
    assert np.array_equal(gauss.diag(ds), np.ones(ds.n))


# Index arrays that numpy would coerce or wrap: floats would be truncated, a
# mask read as the indices 1 and 0, a negative index wrap to the last row.
BAD_ROWS = (([3], IndexError), ([0, -1], IndexError), ([-1], IndexError),
            ([0.7, 1.2], TypeError), ([True, False, True], TypeError),
            ([[0, 1]], TypeError))


def test_row_at_rejects_rows_out_of_range():
    # A RowSubset checks its indices; row takes its rows only as a RowSubset
    # of the dataset being read, and raises before anything is counted for
    # an index array, good or bad, or a subset of an equal twin.
    ds = Dataset.from_dense(np.eye(3), [1, -1, 1])
    k = LinearKernel()
    for rows, error in BAD_ROWS:
        with pytest.raises(error):
            RowSubset(ds, rows)
        with pytest.raises(ValueError):
            k.row(ds, 2, rows)
    twin = Dataset.from_dense(np.eye(3), [1, -1, 1])
    for rows in ([0, 1], np.arange(3), [], RowSubset(twin, [0, 1])):
        with pytest.raises(ValueError):
            k.row(ds, 0, rows)
    assert k.eval_count == 0


def test_cross_rejects_rows_out_of_range():
    # So does scores, and a coef that is not one weight per row.
    ds = Dataset.from_dense(np.eye(3), [1, -1, 1])
    for k in (LinearKernel(), GaussianKernel(1.0)):
        for rows, error in BAD_ROWS:
            with pytest.raises(error):
                k.cross(ds, rows, ds)
            with pytest.raises(error):
                k.scores(ds, rows, np.ones(np.size(rows)), ds)
        with pytest.raises(ValueError):
            k.scores(ds, [0, 1], [1.0], ds)
        assert k.eval_count == 0


def _sample(rng, n, dim):
    """n rows of dimension dim at mixed scales, about a fifth of them empty."""
    x = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-2, 3, size=(n, 1))
    x[rng.random((n, dim)) < 0.3] = 0.0
    x[rng.random(n) < 0.2] = 0.0
    return Dataset.from_dense(x, np.where(rng.random(n) < 0.5, 1, -1))


@given(st.integers(0, 2**32), st.integers(1, 6),
       st.sampled_from([1, 3, 16, 64, kernels._CROSS_BLOCK_ENTRIES]))
@settings(max_examples=100, deadline=None)
def test_blocked_cross_is_the_one_shot_product(seed, d, budget):
    # Whatever the block size, cross equals the whole product mapped at once,
    # bit for bit: blocks of several rows, one row per block once other.n
    # exceeds the budget, empty rows, rows with no stored entries, repeated
    # rows, and datasets of different dimension, both ways round.
    rng = np.random.default_rng(seed)
    ds = _sample(rng, int(rng.integers(1, 30)), d)
    other = _sample(rng, int(rng.integers(1, 12)), int(rng.integers(1, d + 3)))
    with mock.patch.object(kernels, "_CROSS_BLOCK_ENTRIES", budget):
        for kernel in (LinearKernel(), GaussianKernel(float(rng.uniform(0.1, 10.0)))):
            for a, b in ((ds, other), (other, ds)):
                for rows in (rng.integers(0, a.n, int(rng.integers(0, 3 * a.n))),
                             np.zeros(0, dtype=np.int64)):
                    before = kernel.eval_count
                    got = kernel.cross(a, rows, b)
                    assert kernel.eval_count - before == rows.size * b.n
                    assert got.shape == (rows.size, b.n)
                    assert np.array_equal(got, cross_reference(kernel, a, rows, b))


def test_cross_blocks_at_the_module_budget():
    # The same at the shipped budget: 300 rows against 1000 take three
    # blocks, and against more columns than the budget one row a block.
    rng = np.random.default_rng(5)
    ds = _sample(rng, 300, 3)
    cases = ((rng.integers(0, ds.n, 300), _sample(rng, 1000, 3)),
             (np.array([0, 7, 7, 299]), _sample(rng, kernels._CROSS_BLOCK_ENTRIES + 3, 2)))
    for rows, other in cases:
        for kernel in (LinearKernel(), GaussianKernel(0.8)):
            assert np.array_equal(kernel.cross(ds, rows, other),
                                  cross_reference(kernel, ds, rows, other))


def _dense_sample(rng, n, dim):
    """n rows of dimension dim, signs and scales mixed, with up to half of
    the entries zero: dense enough for a feature-major copy."""
    x = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-2, 3, size=(n, 1))
    x.flat[rng.choice(n * dim, int(rng.integers(0, n * dim // 2 + 1)), replace=False)] = 0.0
    return Dataset.from_dense(x, np.where(rng.random(n) < 0.5, 1, -1))


def _same_bits(got, want):
    return (np.array_equal(got, want)
            and np.array_equal(np.signbit(got), np.signbit(want)))


@given(st.integers(0, 2**32), st.integers(1, 7),
       st.sampled_from([1, 16, kernels._CROSS_BLOCK_ENTRIES]))
@settings(max_examples=100, deadline=None)
def test_feature_major_products_are_the_csr_products(seed, d, budget):
    # Dense data sums columns[f] * v from a zeroed buffer over ascending
    # features: full and subset rows, whatever their width, and cross, in
    # one or several blocks, between two datasets whose dimensions differ
    # either way. Every value equals the scipy product, and so does the sign
    # of every zero: a negative value against a zero makes a -0 term, which a
    # sum begun at +0.0 drops.
    rng = np.random.default_rng(seed)
    ds = _dense_sample(rng, int(rng.integers(1, 25)), d)
    other = _dense_sample(rng, int(rng.integers(1, 12)), int(rng.integers(1, d + 3)))
    assert ds._columns is not None and other._columns is not None
    with mock.patch.object(kernels, "_CROSS_BLOCK_ENTRIES", budget):
        for kernel in (LinearKernel(), GaussianKernel(float(rng.uniform(0.1, 10.0)))):
            shared = rng.integers(0, ds.n, int(rng.integers(0, 2 * ds.n)))
            subset = RowSubset(ds, shared)
            for j in range(ds.n):
                x = ds.matrix[j].toarray().ravel()
                want = kernel._values(ds.matrix @ x, ds.norms, ds.norms[j])
                assert _same_bits(kernel.row(ds, j), want)
                assert _same_bits(kernel.row(ds, j, subset), want[shared])
            for a, b in ((ds, other), (other, ds)):
                rows = rng.integers(0, a.n, int(rng.integers(0, 3 * a.n)))
                assert _same_bits(kernel.cross(a, rows, b),
                                  cross_reference(kernel, a, rows, b))


def test_sparse_data_keeps_the_csr_paths():
    # 50,000 features and 50 stored entries a row, drawn with Zipf-like
    # frequencies so that rows share features: far too sparse for a dense
    # copy, so rows and cross are the scipy products, a full row the mat-vec
    # of the matrix over the dataset's distinct features.
    rng = np.random.default_rng(11)
    freq = 1.0 / np.arange(1, 50_001) ** 1.1
    freq /= freq.sum()

    def zipf_rows(n):
        features = [np.sort(rng.choice(50_000, 50, replace=False, p=freq)) for _ in range(n)]
        indptr = np.arange(n + 1) * 50
        return Dataset(indptr, np.concatenate(features), rng.standard_normal(50 * n),
                       np.where(rng.random(n) < 0.5, 1, -1), dimension=50_000)

    ds, other = zipf_rows(40), zipf_rows(15)
    assert ds._columns is None and other._columns is None
    for kernel in (LinearKernel(), GaussianKernel(20.0)):
        for j in range(ds.n):
            x = ds.matrix[j].toarray().ravel()
            assert _same_bits(kernel.row(ds, j),
                              kernel._values(ds.matrix @ x, ds.norms, ds.norms[j]))
        rows = rng.integers(0, ds.n, 30)
        for a, b in ((ds, other), (other, ds)):
            assert _same_bits(kernel.cross(a, rows[rows < a.n], b),
                              cross_reference(kernel, a, rows[rows < a.n], b))


def test_cross_peak_memory_is_near_its_result():
    # A 1000 x 2000 Gaussian cross is 16 MB. Taken in row blocks into the
    # result, it allocates about 2 MB beside it; the whole product made
    # dense and then mapped peaked at 40 MB.
    rng = np.random.default_rng(0)
    a = Dataset.from_dense(rng.standard_normal((1000, 2)), np.ones(1000))
    b = Dataset.from_dense(rng.standard_normal((2000, 2)), np.ones(2000))
    tracemalloc.start()
    try:
        g = GaussianKernel(1.0).cross(a, np.arange(1000), b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.nbytes == 16_000_000
    assert peak < 1.25 * g.nbytes


def _sparse_sample(rng, n, dim):
    """n rows of dimension dim with 1 to 4 stored entries each: too sparse
    for a feature-major copy, so products take the CSR paths."""
    x = np.zeros((n, dim))
    for i in range(n):
        features = rng.choice(dim, int(rng.integers(1, 5)), replace=False)
        x[i, features] = rng.standard_normal(features.size) * 10.0 ** rng.integers(-2, 3)
    return Dataset.from_dense(x, np.where(rng.random(n) < 0.5, 1, -1))


@given(st.integers(0, 2**32), st.booleans())
@settings(max_examples=100, deadline=None)
def test_subset_rows_are_the_full_row_sliced(seed, dense):
    # Dense subsets sum their own feature columns and sparse ones take the
    # mat-vec over their own features; either way row(ds, j, RowSubset(ds,
    # rows)) is row(ds, j)[rows] bit for bit, signs of zero included, for
    # repeated, unordered and empty rows, with and without j among them.
    rng = np.random.default_rng(seed)
    if dense:
        ds = _dense_sample(rng, int(rng.integers(1, 25)), int(rng.integers(1, 8)))
    else:
        ds = _sparse_sample(rng, int(rng.integers(1, 25)), int(rng.integers(8, 60)))
    assert (ds._columns is not None) == dense
    for kernel in (LinearKernel(), GaussianKernel(float(rng.uniform(0.1, 10.0)))):
        for j in range(ds.n):
            rows = rng.integers(0, ds.n, int(rng.integers(0, 2 * ds.n)))
            assert _same_bits(kernel.row(ds, j, RowSubset(ds, rows)), kernel.row(ds, j)[rows])


def test_sparse_subset_rows_need_no_dense_vector():
    # A row's cost follows the stored entries, not the dimension, for full
    # and subset rows and through a whole SBP run: at the largest LIBSVM
    # index a vector of dimension floats would take 16 GiB.
    ds = parse_libsvm("+1 2147483647:2\n-1 1:1 2147483647:-1\n")
    assert ds.dimension == 2**31 - 1 and ds._columns is None
    tracemalloc.start()
    try:
        for kernel, want in ((LinearKernel(), [[4.0, -2.0], [-2.0, 2.0]]),
                             (GaussianKernel(0.5), [[1.0, np.exp(-10.0)], [np.exp(-10.0), 1.0]])):
            for j in (0, 1):
                assert kernel.row(ds, j).tolist() == want[j]
                assert kernel.row(ds, j, RowSubset(ds, [0, 1])).tolist() == want[j]
                assert kernel.row(ds, j, RowSubset(ds, [1 - j])).tolist() == [want[j][1 - j]]
            model, _ = sbp_train(ds, kernel, SbpConfig(nu=0.1, iterations=50, seed=1))
            assert model.kernel_evals == 50 * ds.n + ds.n
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_sparse_scoring_converts_the_held_out_set_once(monkeypatch):
    # The held-out set's transpose, the right factor of every sparse block,
    # is built on the first scoring call and kept with the dataset.
    rng = np.random.default_rng(4)
    ds, other = _sparse_sample(rng, 30, 40), _sparse_sample(rng, 20, 35)
    kernel = GaussianKernel(0.9)
    rows = rng.integers(0, ds.n, 12)
    coef = rng.standard_normal(rows.size)
    want = coef @ cross_reference(kernel, ds, rows, other)
    conversions = []
    convert = sp.csc_matrix.tocsr

    def counted(self, *args, **kwargs):
        conversions.append(self.shape)
        return convert(self, *args, **kwargs)

    monkeypatch.setattr(sp.csc_matrix, "tocsr", counted)
    first = kernel.scores(ds, rows, coef, other)
    assert conversions == [(other.dimension, other.n)]
    assert np.array_equal(kernel.scores(ds, rows, coef, other), first)
    assert conversions == [(other.dimension, other.n)]
    assert np.array_equal(first, want)


def test_a_returned_row_belongs_to_its_caller():
    # The solvers add their responses up in the row they get, in place: an
    # overwritten row changes neither the next call nor the cached norms, on
    # full and subset rows of dense and sparse data, under both kernels.
    rng = np.random.default_rng(21)
    datasets = (_dense_sample(rng, 30, 2), _dense_sample(rng, 30, 6),
                _sparse_sample(rng, 30, 40))
    assert [ds._columns is not None for ds in datasets] == [True, True, False]
    for ds in datasets:
        norms = ds.norms.copy()
        subset = RowSubset(ds, rng.integers(0, ds.n, 12))
        for kernel in (LinearKernel(), GaussianKernel(0.7)):
            for rows in (None, subset):
                for j in (0, ds.n - 1):
                    row = kernel.row(ds, j, rows)
                    want = row.copy()
                    row.fill(np.nan)
                    assert _same_bits(kernel.row(ds, j, rows), want)
                    assert _same_bits(ds.norms, norms)


@given(st.integers(0, 2**32), st.booleans(),
       st.sampled_from([1, 16, kernels._CROSS_BLOCK_ENTRIES]))
@settings(max_examples=100, deadline=None)
def test_scores_are_the_one_shot_reduce(seed, dense, budget):
    # scores(a, rows, coef, b) is coef @ K(a[rows], b) of the one-shot
    # product: summed a block at a time, so it differs only in the order of
    # the sum over rows, within 1e-12 of the sum of the terms' magnitudes,
    # and with the same sign wherever that bound cannot flip it. A one-hot
    # coef reads one row of the reused block buffer, bit for bit.
    rng = np.random.default_rng(seed)
    sample = _dense_sample if dense else _sparse_sample
    d = int(rng.integers(1, 7)) if dense else int(rng.integers(20, 60))
    ds = sample(rng, int(rng.integers(1, 30)), d)
    other = sample(rng, int(rng.integers(1, 12)), d + int(rng.integers(-d // 2, 3)))
    assert (ds._columns is not None) == (other._columns is not None) == dense
    with mock.patch.object(kernels, "_CROSS_BLOCK_ENTRIES", budget):
        for kernel in (LinearKernel(), GaussianKernel(float(rng.uniform(0.1, 10.0)))):
            for a, b in ((ds, other), (other, ds)):
                rows = rng.integers(0, a.n, int(rng.integers(0, 3 * a.n)))
                coef = rng.standard_normal(rows.size) * 10.0 ** rng.integers(-2, 3, rows.size)
                ref = cross_reference(kernel, a, rows, b)
                want, bound = coef @ ref, 1e-12 * (np.abs(coef) @ np.abs(ref))
                before = kernel.eval_count
                got = kernel.scores(a, rows, coef, b)
                assert kernel.eval_count - before == rows.size * b.n
                assert got.shape == (b.n,)
                assert np.all(np.abs(got - want) <= bound)
                assert np.all((np.sign(got) == np.sign(want)) | (np.abs(want) <= bound))
                for r in rng.integers(0, rows.size, min(rows.size, 3)):
                    one_hot = np.zeros(rows.size)
                    one_hot[r] = 1.0
                    assert np.array_equal(kernel.scores(a, rows, one_hot, b), ref[r])


def test_scoring_peak_memory_does_not_grow_with_the_support():
    # 1000 support rows on 2000 test rows: a full kernel block would be
    # 16 MB (17.2 MB at peak through cross), but one block of support rows
    # at a time, 63 blocks at the module budget, keeps the peak under 1 MB.
    rng = np.random.default_rng(0)
    a = Dataset.from_dense(rng.standard_normal((1000, 2)), np.where(rng.random(1000) < 0.5, 1, -1))
    b = Dataset.from_dense(rng.standard_normal((2000, 2)), np.ones(2000))
    model = TrainedModel(alpha=rng.uniform(0.1, 1.0, 1000), bias=0.5, dataset=a,
                         kernel_spec="gaussian:1.0", use_bias=True, kernel_evals=0)
    kernel = GaussianKernel(1.0)
    tracemalloc.start()
    try:
        scores = score_batch(model, b, kernel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert kernel.eval_count == 1000 * 2000
    coef = model.alpha * a.labels
    ref = cross_reference(kernel, a, np.arange(1000), b)
    assert np.all(np.abs(scores - 0.5 - coef @ ref) <= 1e-12 * (np.abs(coef) @ ref))


def test_cross_matches_pairs():
    # Each entry is exp(-||a_i - b_j||^2 / (2 sigma^2)) of the dense rows.
    rng = np.random.default_rng(3)
    xa, xb = rng.standard_normal((5, 3)), rng.standard_normal((4, 3))
    a = Dataset.from_dense(xa, np.ones(5))
    b = Dataset.from_dense(xb, -np.ones(4))
    k = GaussianKernel(1.5)
    g = k.cross(a, [1, 3], b)
    assert g.shape == (2, 4)
    for r, i in enumerate((1, 3)):
        for j in range(4):
            assert g[r, j] == pytest.approx(
                np.exp(-np.sum((xa[i] - xb[j]) ** 2) / 3.0), rel=1e-10)


def test_eval_counter_is_exact():
    ds = parse_libsvm("+1 1:1\n-1 2:1\n+1 1:0.5 2:0.5\n")
    other = parse_libsvm("+1 1:2\n-1 2:3\n")
    k = LinearKernel()
    k.pair(ds, 1)
    k.row(ds, 0)
    k.diag(ds)
    k.cross(ds, [0, 2], other)
    assert k.eval_count == 1 + 3 + 3 + 2 * 2


def test_row_indices_are_checked():
    # Rows are addressed by index; a negative one must not wrap around.
    ds = parse_libsvm("+1 1:1\n-1 2:1\n")
    k = LinearKernel()
    for j in (-1, 2):
        with pytest.raises(IndexError):
            k.pair(ds, j)
        with pytest.raises(IndexError):
            k.row(ds, j)
    assert k.eval_count == 0


def test_counter_never_resets():
    k = LinearKernel()
    before = k.eval_count
    k.pair(ex([1.0]), 0)
    assert k.eval_count == before + 1


def test_mismatched_dimensions_align_on_common_prefix():
    # A model trained on low-dim data may score higher-dim inputs; extra
    # coordinates on either side contribute zero to linear products.
    a = Dataset([0, 1], [0], [2.0], [1], dimension=1)
    b = Dataset([0, 2], [0, 4], [3.0, 7.0], [1], dimension=5)
    k = LinearKernel()
    assert k.cross(a, [0], b)[0, 0] == pytest.approx(6.0)
    assert k.cross(b, [0], a)[0, 0] == pytest.approx(6.0)


def test_precomputed_gram_lookup():
    ds = parse_libsvm("+1 1:1\n-1 2:1\n")
    gram = np.array([[1.0, 0.25], [0.25, 2.0]])
    k = PrecomputedGramKernel(gram, ds)
    assert k.pair(ds, 1) == 2.0
    assert np.array_equal(k.row(ds, 1), gram[:, 1])
    # Rows are known by their index within the one dataset the Gram matrix
    # was built for; an equal copy is another dataset.
    stranger = parse_libsvm("+1 1:1\n-1 2:1\n")
    with pytest.raises(DataError):
        k.pair(stranger, 0)
    with pytest.raises(DataError):
        k.row(stranger, 0)


def test_precomputed_gram_scores():
    ds = parse_libsvm("+1 1:1\n-1 2:1\n")
    k = PrecomputedGramKernel(np.array([[1.0, 0.25], [0.25, 1.0]]), ds)
    assert k.scores(ds, [1, 0], [2.0, -1.0], ds).tolist() == [-0.5, 1.75]
    assert k.eval_count == 4


def test_precomputed_gram_shape_checked():
    ds = parse_libsvm("+1 1:1\n-1 2:1\n")
    with pytest.raises(DataError):
        PrecomputedGramKernel(np.eye(3), ds)


def test_kernel_from_spec():
    assert isinstance(kernel_from_spec("linear"), LinearKernel)
    g = kernel_from_spec("gaussian:0.5")
    assert isinstance(g, GaussianKernel) and g.sigma_sq == 0.5
    assert g.spec_string == "gaussian:0.5"
    for bad in ("rbf", "gaussian:", "gaussian:abc", ""):
        with pytest.raises(ValueError):
            kernel_from_spec(bad)
