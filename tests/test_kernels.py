import contextlib
import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from slacksvm import cli, kernels
from slacksvm.data import DataError, Dataset, parse_libsvm
from slacksvm.kernels import GaussianKernel, LinearKernel, RowSubset, kernel_from_spec
from slacksvm.model import TrainedModel, score_batch
from slacksvm.sbp import SbpConfig, sbp_train

from oracles import PrecomputedGramKernel, cross_reference


def ex(values, label=1):
    """A one-row dataset holding the dense vector values."""
    return Dataset.from_dense([values], [label])


def as_sparse(ds):
    """ds's rows at three times its dimension: too sparse for a dense copy,
    so every product takes the CSR paths, with ds's products and norms."""
    return Dataset(ds.indptr, ds.indices, ds.values, ds.labels, dimension=3 * ds.dimension)


def row_reference(kernel, ds, j, rows=None):
    """row(ds, j) or row(ds, j, RowSubset(ds, rows)), computed apart and not
    counted. Dense data: one np.matmul of the gathered rows (for every row,
    of the dense copy itself) with x_j. Sparse data: scipy's mat-vec of the
    whole matrix with x_j, sliced. Either way mapped by the kernel."""
    if ds._dense is not None:
        products = np.matmul(ds._dense if rows is None else ds._dense[rows], ds._dense[j])
    else:
        products = ds.matrix @ ds.matrix[j].toarray().ravel()
        products = products if rows is None else products[rows]
    return kernel._values(products, ds.norms if rows is None else ds.norms[rows], ds.norms[j])


def cross_path_reference(kernel, a, rows, b, budget=kernels._CROSS_BLOCK_ENTRIES):
    """cross(a, rows, b) at the block budget, computed apart and not
    counted. Two dense datasets: one np.matmul per block of budget // b.n
    rows (at least one), of a's gathered rows with b's dense copy transposed,
    over their common features. Otherwise scipy's one-shot product
    (oracles.cross_reference). Either way mapped by the kernel."""
    rows = np.asarray(rows, dtype=np.int64)
    if a._dense is None or b._dense is None or rows.size == 0:
        return cross_reference(kernel, a, rows, b)
    m, step = min(a.dimension, b.dimension), max(1, budget // b.n)
    products = np.concatenate([np.matmul(a._dense[rows[lo:lo + step], :m], b._dense[:, :m].T)
                               for lo in range(0, rows.size, step)])
    return kernel._values(products, a.norms[rows][:, None], b.norms[None, :])


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
    # The self-pair and the diagonal read K(x, x) from the cached squared
    # norm, on either layout: the norm itself (linear) or exactly 1.0
    # (Gaussian). On sparse data every other path sums the row's products
    # in storage order, as the norm is summed, so a cross with a twin dataset
    # of equal rows, the full row, a subset row and cross give that value
    # too; rows of up to 40 entries whose magnitudes differ within a row tell
    # the storage-order sum from any other. On dense data those paths take
    # BLAS's product of the row with itself, which may differ from the norm
    # in its last bits: the linear row's own entry is the gemv's, and the
    # Gaussian's is its map, at most 1.0 since n + n - 2p is clamped at 0.
    rng = np.random.default_rng(seed)
    n = 12
    x = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 4, size=(n, d))
    x[rng.random((n, d)) < rng.uniform(0.0, 0.6)] = 0.0
    labels = np.where(rng.random(n) < 0.5, 1, -1)
    ds = Dataset.from_dense(x, labels)
    sparse, twin = as_sparse(ds), as_sparse(Dataset.from_dense(x, labels))
    lin, gauss = LinearKernel(), GaussianKernel(0.7)
    for kernel, want in ((lin, ds.norms), (gauss, np.ones(n))):
        cost = 0  # one evaluation a pair, as many as entries read otherwise
        for j in range(n):
            rows = np.append(rng.integers(0, n, int(rng.integers(0, n))), j)
            assert kernel.pair(ds, j) == kernel.pair(sparse, j) == want[j]
            assert kernel.cross(sparse, [j], twin)[0, j] == want[j]
            assert kernel.row(sparse, j)[j] == want[j]
            assert kernel.row(sparse, j, RowSubset(sparse, rows))[-1] == want[j]
            cost += 2 + n + n + rows.size
        assert np.array_equal(kernel.diag(ds), want)
        assert np.array_equal(kernel.diag(sparse), want)
        assert np.array_equal(np.diag(kernel.cross(sparse, np.arange(n), sparse)), want)
        assert kernel.eval_count == cost + 2 * n + n * n
    if ds._dense is not None:
        for j in range(n):
            own = lin.row(ds, j)[j]
            assert own == (ds._dense @ ds._dense[j])[j]
            assert gauss.row(ds, j)[j] == gauss._values(own, ds.norms[j], ds.norms[j]) <= 1.0


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


def test_gaussian_refuses_a_width_whose_factor_overflows():
    # -0.5 / sigma^2 overflows below sigma^2 = 0.5 / 1.8e308, about 2.78e-309;
    # there every self-entry would be 0 * -inf = nan. Just above it the
    # factor is finite and K(x, x) is 1.0 (rows apart would overflow to
    # -inf before exp, with numpy's warning, as the division did).
    for width in (2.7e-309, 1e-320, 5e-324):
        with pytest.raises(ValueError, match=f"sigma_sq = {width!r} is too small"):
            GaussianKernel(width)
        with pytest.raises(ValueError, match=f"sigma_sq = {width!r} is too small"):
            kernel_from_spec(f"gaussian:{width!r}")
    ds = parse_libsvm("+1 1:0.5 3:-2\n-1 1:0.5 3:-2\n")
    k = GaussianKernel(2.8e-309)
    assert k.diag(ds).tolist() == k.row(ds, 0).tolist() == [1.0, 1.0]
    assert k.pair(ds, 1) == 1.0


@given(st.integers(0, 2**32), st.integers(-60, 60))
@settings(max_examples=100, deadline=None)
def test_gaussian_map_at_power_of_two_widths_equals_the_division(seed, k):
    # Where 2 sigma^2 is a power of two, -0.5 / sigma^2 is exact, so the
    # multiply rounds as the division by -2 sigma^2 that it replaced, on
    # arrays and on one pair's float: such widths keep their bytes.
    sigma_sq = 2.0 ** k / 2
    rng = np.random.default_rng(seed)
    d2 = sigma_sq * rng.random(200) * 10.0 ** rng.integers(-320, 4, 200)
    d2[:3] = (0.0, -sigma_sq, 5e-324)
    old = np.exp(np.maximum(d2, 0.0) / (-2.0 * sigma_sq))
    gauss = GaussianKernel(sigma_sq)
    zeros = np.zeros(d2.size)
    assert np.array_equal(gauss._values(zeros.copy(), d2, zeros), old)
    for value, want in zip(d2.tolist(), old.tolist()):
        assert gauss._values(0.0, value, 0.0) == want


@given(st.integers(0, 2**32), st.floats(0.1, 10.0))
@settings(max_examples=50, deadline=None)
def test_row_matches_pairs(seed, sigma_sq):
    rng = np.random.default_rng(seed)
    n, d = 8, 4
    x = rng.standard_normal((n, d))
    x[rng.random((n, d)) < 0.3] = 0.0
    labels = np.where(rng.random(n) < 0.5, 1, -1)
    # The self-pair reads the norm; the row's own entry equals it on sparse
    # data, and on dense data the row is the one gemv of the copy with x_j.
    dense = Dataset.from_dense(x, labels)
    for ds in (dense, as_sparse(dense)):
        for kernel in (LinearKernel(), GaussianKernel(sigma_sq)):
            j = int(rng.integers(n))
            row = kernel.row(ds, j)
            norm = ds.norms.item(j)
            assert kernel.pair(ds, j) == kernel._values(norm, norm, norm)
            if ds._dense is None:
                assert row[j] == kernel.pair(ds, j)
            else:
                assert np.array_equal(row, row_reference(kernel, ds, j))
            np.testing.assert_allclose(row, cross_reference(kernel, ds, np.arange(n), ds)[:, j],
                                       rtol=1e-10, atol=1e-12)


@given(st.integers(0, 2**32), st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_row_at_is_the_full_row_sliced(seed, d):
    # On sparse data row(ds, j, rows) is row(ds, j)[rows] bit for bit, the
    # self-entry included. On dense data it is the same matmul on the same
    # gathered rows, which BLAS need not sum as it sums the full row. Either
    # way it costs len(rows) evaluations, and a subset taken once and reused
    # for every j gives the bits of a fresh one.
    rng = np.random.default_rng(seed)
    n = 30
    x = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-2, 3)
    x[rng.random((n, d)) < 0.2] = 0.0
    dense = Dataset.from_dense(x, np.where(rng.random(n) < 0.5, 1, -1))
    shared = rng.choice(n, int(rng.integers(0, n)), replace=False)
    for ds in (dense, as_sparse(dense)):
        for kernel in (LinearKernel(), GaussianKernel(float(rng.uniform(0.1, 10.0)))):
            subset = RowSubset(ds, shared)  # taken once, reused for every j
            for j in range(n):
                rows = np.append(rng.choice(n, int(rng.integers(0, n)), replace=False), j)
                rng.shuffle(rows)
                full = kernel.row(ds, j)
                before = kernel.eval_count
                got = kernel.row(ds, j, RowSubset(ds, rows))
                assert kernel.eval_count - before == rows.size
                assert np.array_equal(got, row_reference(kernel, ds, j, rows))
                before = kernel.eval_count
                got = kernel.row(ds, j, subset)
                assert kernel.eval_count - before == shared.size
                assert np.array_equal(got, kernel.row(ds, j, RowSubset(ds, shared)))
                assert np.array_equal(got, row_reference(kernel, ds, j, shared))
                if ds._dense is None:
                    assert np.array_equal(got, full[shared])


@given(st.integers(0, 2**32), st.integers(1, 40))
@settings(max_examples=100, deadline=None)
def test_row_at_sums_stored_entries_in_storage_order(seed, d):
    # Rows with more than 8 stored entries tell a sequential sum from a
    # pairwise one; all-zero rows, repeated indices and an empty rows are the
    # edges of a subset's rows. On sparse data each must equal the sliced
    # full row exactly, scipy's storage-order mat-vec; on dense data the
    # same matmul on the same gathered rows.
    rng = np.random.default_rng(seed)
    n = 20
    x = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
    x[rng.random((n, d)) < rng.uniform(0.0, 0.6)] = 0.0
    x[rng.random(n) < 0.2] = 0.0
    dense = Dataset.from_dense(x, np.where(rng.random(n) < 0.5, 1, -1))
    shared = rng.integers(0, n, int(rng.integers(1, 2 * n)))
    for ds in (dense, as_sparse(dense)):
        for kernel in (LinearKernel(), GaussianKernel(float(rng.uniform(0.1, 10.0)))):
            subset = RowSubset(ds, shared)  # taken once, reused for every j
            for j in range(n):
                rows = rng.integers(0, n, int(rng.integers(1, 2 * n)))
                before = kernel.eval_count
                got = kernel.row(ds, j, RowSubset(ds, rows))
                assert kernel.eval_count - before == rows.size
                assert got.dtype == np.float64
                assert np.array_equal(got, row_reference(kernel, ds, j, rows))
                before = kernel.eval_count
                got = kernel.row(ds, j, subset)
                assert kernel.eval_count - before == shared.size
                assert got.dtype == np.float64
                assert np.array_equal(got, row_reference(kernel, ds, j, shared))
            before = kernel.eval_count
            assert kernel.row(ds, int(rng.integers(n)), RowSubset(ds, [])).shape == (0,)
            assert kernel.eval_count == before


@given(st.integers(0, 2**32), st.integers(1, 6), st.floats(0.1, 10.0))
@settings(max_examples=100, deadline=None)
def test_gaussian_is_the_map_of_the_linear_products(seed, d, sigma_sq):
    # On every access path the Gaussian value is
    # exp(max(d2, 0) * (-0.5 / sigma^2)) of d2 = n_i + n_j - 2 <x_i, x_j>,
    # with the linear kernel's product from the same path, bit for bit.
    rng = np.random.default_rng(seed)

    def sample(n, dim):
        x = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-2, 3, size=(n, 1))
        x[rng.random((n, dim)) < 0.3] = 0.0
        return Dataset.from_dense(x, np.where(rng.random(n) < 0.5, 1, -1))

    def mapped(products, norms_i, norms_j):
        d2 = norms_i + norms_j - 2.0 * products
        return np.exp(np.maximum(d2, 0.0) * (-0.5 / sigma_sq))

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


def test_row_rejects_a_bad_index_array_before_counting():
    # A block of rows j is a RowSubset of the dataset being read: a subset
    # of an equal twin raises ValueError, and an index array or a list,
    # good or bad, TypeError, before anything is counted.
    ds = Dataset.from_dense(np.eye(3), [1, -1, 1])
    twin = Dataset.from_dense(np.eye(3), [1, -1, 1])
    for k in (LinearKernel(), GaussianKernel(1.0)):
        for subset in (None, RowSubset(ds, [0, 2])):
            with pytest.raises(ValueError):
                k.row(ds, RowSubset(twin, [0, 1]), subset)
            for j in [[0, 1], [1], []] + [rows for rows, _ in BAD_ROWS]:
                with pytest.raises(TypeError):
                    k.row(ds, np.array(j), subset)
            with pytest.raises(TypeError):
                k.row(ds, [0, 1], subset)
        assert k.eval_count == 0


@pytest.mark.parametrize("i, error", [(1.5, TypeError), (True, TypeError),
                                      (np.float64(1.0), TypeError), (np.True_, TypeError),
                                      (-1, IndexError), (3, IndexError), (2**70, IndexError)])
def test_a_bad_row_index_is_refused_before_counting(i, error):
    # A float or a bool is no row index, though it compares as one: row and
    # pair refuse it, and an integer outside [0, n), before they count.
    # Numpy's integers are indices.
    ds = Dataset.from_dense(np.eye(3), [1, -1, 1])
    for k in (LinearKernel(), GaussianKernel(1.0)):
        for read in (lambda: k.row(ds, i), lambda: k.row(ds, i, RowSubset(ds, [0, 2])),
                     lambda: k.pair(ds, i)):
            with pytest.raises(error, match=None if error is TypeError else "row index"):
                read()
        assert k.eval_count == 0
        assert k.row(ds, np.int64(1)).shape == (3,) and k.pair(ds, np.int32(2)) == 1.0
        assert k.eval_count == 4


# A blocked value against the scalar row's: a dot of d terms summed in
# another order moves by at most a few eps times the sum of its terms'
# magnitudes, and the Gaussian's value by K times that change over sigma^2.
BLOCK_TOLERANCE = 64 * np.finfo(np.float64).eps


@given(st.integers(0, 2**32), st.integers(1, 5), st.booleans(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_row_of_an_index_array_is_its_rows_side_by_side(seed, d, dense, integer):
    # row(ds, j, rows) for j a RowSubset of an index array: one column per
    # row of j, repeated and unordered ones included, (len(rows), len(j))
    # values that cost len(rows) * len(j) evaluations. Sparse columns are
    # the scalar rows bit for bit up to the sign of zeros. Dense ones come
    # from one gemm: on integer rows the linear columns are the scalar rows
    # bit for bit, and otherwise within BLOCK_TOLERANCE of them.
    rng = np.random.default_rng(seed)
    n = 20
    if integer:
        x = rng.integers(-3, 4, (n, d)).astype(np.float64)
    else:
        x = rng.standard_normal((n, d))
    x[rng.random(n) < 0.2] = 0.0
    ds = Dataset.from_dense(x, np.where(rng.random(n) < 0.5, 1, -1))
    if not dense:
        ds = as_sparse(ds)
    sigma_sq = float(rng.uniform(0.5, 10.0))
    for kernel in (LinearKernel(), GaussianKernel(sigma_sq)):
        for rows in (None, rng.integers(0, n, int(rng.integers(0, 2 * n)))):
            subset = None if rows is None else RowSubset(ds, rows)
            size = n if rows is None else rows.size
            j = rng.integers(0, n, int(rng.integers(1, 2 * n)))
            before = kernel.eval_count
            got = kernel.row(ds, RowSubset(ds, j), subset)
            assert got.shape == (size, j.size) and got.dtype == np.float64
            assert kernel.eval_count - before == size * j.size
            for c, jc in enumerate(j.tolist()):
                want = kernel.row(ds, jc, subset)
                if ds._dense is None or (integer and isinstance(kernel, LinearKernel)):
                    assert np.array_equal(got[:, c], want)
                    continue
                terms = np.abs(x if rows is None else x[rows]) @ np.abs(x[jc])
                if isinstance(kernel, GaussianKernel):
                    terms = want * (1.0 + terms / sigma_sq)
                assert np.all(np.abs(got[:, c] - want) <= BLOCK_TOLERANCE * terms)
            before = kernel.eval_count
            for empty in (np.zeros(0, dtype=np.int64), np.array([])):
                assert kernel.row(ds, RowSubset(ds, empty), subset).shape == (size, 0)
            assert kernel.eval_count == before


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
    # Whatever the block size, a cross with a sparse side equals scipy's
    # whole product mapped at once, bit for bit, and one between two dense
    # datasets equals one np.matmul per block of the same rows: blocks of
    # several rows, one row per block once other.n exceeds the budget, empty
    # rows, rows with no stored entries, repeated rows, and datasets of
    # different dimension, both ways round.
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
                    assert np.array_equal(got, cross_path_reference(kernel, a, rows, b, budget))


def test_cross_blocks_at_the_module_budget():
    # The same at the shipped budget: 300 rows against 1000 take three
    # blocks, and against more columns than the budget one row a block
    # (numpy's matmul takes a one-row block through gemv, not gemm).
    rng = np.random.default_rng(5)
    ds = _sample(rng, 300, 3)
    cases = ((rng.integers(0, ds.n, 300), _sample(rng, 1000, 3)),
             (np.array([0, 7, 7, 299]), _sample(rng, kernels._CROSS_BLOCK_ENTRIES + 3, 2)))
    for rows, other in cases:
        for kernel in (LinearKernel(), GaussianKernel(0.8)):
            assert np.array_equal(kernel.cross(ds, rows, other),
                                  cross_path_reference(kernel, ds, rows, other))


def _dense_sample(rng, n, dim):
    """n rows of dimension dim, signs and scales mixed, with up to half of
    the entries zero: dense enough for a dense copy."""
    x = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-2, 3, size=(n, 1))
    x.flat[rng.choice(n * dim, int(rng.integers(0, n * dim // 2 + 1)), replace=False)] = 0.0
    return Dataset.from_dense(x, np.where(rng.random(n) < 0.5, 1, -1))


def _same_bits(got, want):
    return (np.array_equal(got, want)
            and np.array_equal(np.signbit(got), np.signbit(want)))


@given(st.integers(0, 2**32), st.integers(1, 7),
       st.sampled_from([1, 16, kernels._CROSS_BLOCK_ENTRIES]))
@settings(max_examples=100, deadline=None)
def test_dense_products_are_blas_matmuls(seed, d, budget):
    # Dense data takes its products from numpy's matmul: full and subset
    # rows are one matmul of the gathered rows with x_j, whatever their
    # width, and cross, in one or several blocks, between two datasets whose
    # dimensions differ either way, one matmul per block. Each equals
    # np.matmul on the same operands bit for bit, signs of zero included. On
    # the same rows rounded to small integers every sum is exact in any
    # order, so there each product equals scipy's CSR product: the dense
    # path multiplies the right entries. (Only the values are compared
    # there: BLAS may give -0 where scipy's sum begun at +0.0 gives +0.)
    rng = np.random.default_rng(seed)
    ds = _dense_sample(rng, int(rng.integers(1, 25)), d)
    other = _dense_sample(rng, int(rng.integers(1, 12)), int(rng.integers(1, d + 3)))
    assert ds._dense is not None and other._dense is not None
    with mock.patch.object(kernels, "_CROSS_BLOCK_ENTRIES", budget):
        for kernel in (LinearKernel(), GaussianKernel(float(rng.uniform(0.1, 10.0)))):
            shared = rng.integers(0, ds.n, int(rng.integers(0, 2 * ds.n)))
            subset = RowSubset(ds, shared)
            for j in range(ds.n):
                assert _same_bits(kernel.row(ds, j), row_reference(kernel, ds, j))
                assert _same_bits(kernel.row(ds, j, subset), row_reference(kernel, ds, j, shared))
            for a, b in ((ds, other), (other, ds)):
                rows = rng.integers(0, a.n, int(rng.integers(0, 3 * a.n)))
                assert _same_bits(kernel.cross(a, rows, b),
                                  cross_path_reference(kernel, a, rows, b, budget))
            exact, exact_other = (Dataset.from_dense(np.round(z.matrix.toarray()), z.labels)
                                  for z in (ds, other))
            for j in range(exact.n):
                x = exact.matrix[j].toarray().ravel()
                want = kernel._values(exact.matrix @ x, exact.norms, exact.norms[j])
                assert np.array_equal(kernel.row(exact, j), want)
                if exact._dense is not None:
                    assert np.array_equal(kernel.row(exact, j, RowSubset(exact, shared)),
                                          want[shared])
            for a, b in ((exact, exact_other), (exact_other, exact)):
                rows = rng.integers(0, a.n, int(rng.integers(0, 3 * a.n)))
                assert np.array_equal(kernel.cross(a, rows, b), cross_reference(kernel, a, rows, b))


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
    assert ds._dense is None and other._dense is None
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
    """n rows of dimension dim with 1 to 4 stored entries each: for dim of
    at least 9, too sparse for a dense copy, so products take the CSR
    paths."""
    x = np.zeros((n, dim))
    for i in range(n):
        features = rng.choice(dim, int(rng.integers(1, 5)), replace=False)
        x[i, features] = rng.standard_normal(features.size) * 10.0 ** rng.integers(-2, 3)
    return Dataset.from_dense(x, np.where(rng.random(n) < 0.5, 1, -1))


@given(st.integers(0, 2**32), st.booleans())
@settings(max_examples=100, deadline=None)
def test_subset_rows_are_the_full_row_sliced(seed, dense):
    # Sparse subsets take the mat-vec over their own features, and
    # row(ds, j, RowSubset(ds, rows)) is row(ds, j)[rows] bit for bit, signs
    # of zero included, for repeated, unordered and empty rows, with and
    # without j among them. Dense subsets multiply their gathered rows by
    # x_j, which equals the same np.matmul on the same rows bit for bit.
    rng = np.random.default_rng(seed)
    if dense:
        ds = _dense_sample(rng, int(rng.integers(1, 25)), int(rng.integers(1, 8)))
    else:
        ds = _sparse_sample(rng, int(rng.integers(1, 25)), int(rng.integers(9, 60)))
    assert (ds._dense is not None) == dense
    for kernel in (LinearKernel(), GaussianKernel(float(rng.uniform(0.1, 10.0)))):
        for j in range(ds.n):
            rows = rng.integers(0, ds.n, int(rng.integers(0, 2 * ds.n)))
            want = row_reference(kernel, ds, j, rows) if dense else kernel.row(ds, j)[rows]
            assert _same_bits(kernel.row(ds, j, RowSubset(ds, rows)), want)


def test_sparse_subset_rows_need_no_dense_vector():
    # A row's cost follows the stored entries, not the dimension, for full
    # and subset rows and through a whole SBP run: at the largest LIBSVM
    # index a vector of dimension floats would take 16 GiB.
    ds = parse_libsvm("+1 2147483647:2\n-1 1:1 2147483647:-1\n")
    assert ds.dimension == 2**31 - 1 and ds._dense is None
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


def test_sparse_held_out_scoring_needs_no_dimension_long_array(tmp_path):
    # `train --test` on a file whose largest index is 2**31 - 1 scores every
    # checkpoint on the held-out set, transposed over its own stored
    # features: a transpose over the dimension would ask for 8 GiB of row
    # pointers.
    path = tmp_path / "huge.svm"
    path.write_text("+1 2147483647:2\n-1 1:1 2147483647:-1\n")
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["train", str(path), "--iters", "50", "--test", str(path),
                             "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 1 << 20


def test_sparse_scoring_converts_the_held_out_set_once(monkeypatch):
    # The held-out set's transpose over its own stored features, the right
    # factor of every sparse block, is built on the first scoring call and
    # kept with the dataset.
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
    stored = np.unique(other.indices).size
    first = kernel.scores(ds, rows, coef, other)
    assert conversions == [(stored, other.n)]
    assert np.array_equal(kernel.scores(ds, rows, coef, other), first)
    assert conversions == [(stored, other.n)]
    assert np.array_equal(first, want)


def test_a_returned_row_belongs_to_its_caller():
    # The solvers add their responses up in the row they get, in place: an
    # overwritten row changes neither the next call nor the cached norms, on
    # full and subset rows of dense and sparse data, under both kernels.
    rng = np.random.default_rng(21)
    datasets = (_dense_sample(rng, 30, 2), _dense_sample(rng, 30, 6),
                _sparse_sample(rng, 30, 40))
    assert [ds._dense is not None for ds in datasets] == [True, True, False]
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
    # scores(a, rows, coef, b) is coef @ K(a[rows], b) of cross's values
    # (the one-shot product with a sparse side, one matmul per block between
    # dense datasets): summed a block at a time, so it differs only in the
    # order of the sum over rows, within 1e-12 of the sum of the terms'
    # magnitudes, and with the same sign wherever that bound cannot flip it.
    # A one-hot coef reads one row of the reused block buffer, bit for bit.
    rng = np.random.default_rng(seed)
    sample = _dense_sample if dense else _sparse_sample
    d = int(rng.integers(1, 7)) if dense else int(rng.integers(20, 60))
    ds = sample(rng, int(rng.integers(1, 30)), d)
    other = sample(rng, int(rng.integers(1, 12)), d + int(rng.integers(-d // 2, 3)))
    assert (ds._dense is not None) == (other._dense is not None) == dense
    with mock.patch.object(kernels, "_CROSS_BLOCK_ENTRIES", budget):
        for kernel in (LinearKernel(), GaussianKernel(float(rng.uniform(0.1, 10.0)))):
            for a, b in ((ds, other), (other, ds)):
                rows = rng.integers(0, a.n, int(rng.integers(0, 3 * a.n)))
                coef = rng.standard_normal(rows.size) * 10.0 ** rng.integers(-2, 3, rows.size)
                ref = cross_path_reference(kernel, a, rows, b, budget)
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
