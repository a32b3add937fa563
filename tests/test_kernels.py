import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slacksvm.data import DataError, Dataset, parse_libsvm
from slacksvm.kernels import GaussianKernel, LinearKernel, kernel_from_spec

from oracles import PrecomputedGramKernel


def ex(values, label=1):
    """A one-row dataset holding the dense vector values."""
    return Dataset.from_dense([values], [label])


def test_linear_pair_is_dot_product():
    k = LinearKernel()
    assert k.pair(ex([1.0, 2.0]), 0, ex([3.0, 4.0]), 0) == pytest.approx(11.0)
    assert k.eval_count == 1


def test_linear_disjoint_support():
    k = LinearKernel()
    a = Dataset([0, 1], [0], [1.0], [1])
    b = Dataset([0, 1], [3], [2.0], [-1])
    assert k.pair(a, 0, b, 0) == 0.0
    assert k.pair(b, 0, a, 0) == 0.0


def test_gaussian_pinned_value():
    # sigma^2 = 0.5, points at distance 1: exp(-1/(2*0.5)) = exp(-1).
    k = GaussianKernel(0.5)
    a = Dataset([0, 1], [0], [1.0], [1])
    b = Dataset([0, 0], [], [], [1])
    assert k.pair(a, 0, b, 0) == pytest.approx(np.exp(-1.0), rel=1e-12)


@given(st.integers(0, 2**32))
@settings(max_examples=50, deadline=None)
def test_self_pair_reads_the_cache(seed):
    # K(x, x) is the cached squared norm (linear) or exactly 1 (Gaussian):
    # the same bits as the general formula, where 2a - 2a == 0. A twin
    # dataset with equal rows takes the general path.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((6, 5)) * 10.0 ** rng.integers(-3, 4)
    x[rng.random(x.shape) < 0.3] = 0.0
    labels = np.where(rng.random(6) < 0.5, 1, -1)
    ds, twin = Dataset.from_dense(x, labels), Dataset.from_dense(x, labels)
    for kernel, want in ((LinearKernel(), ds.norms), (GaussianKernel(0.7), np.ones(6))):
        for i in range(ds.n):
            assert kernel.pair(ds, i, ds, i) == want[i]
            assert kernel.pair(ds, i, twin, i) == want[i]
        assert kernel.eval_count == 2 * ds.n


def test_gaussian_self_similarity_is_one():
    k = GaussianKernel(2.0)
    ds = parse_libsvm("+1 1:0.5 3:-2\n-1 2:4\n+1 1:1\n")
    assert np.array_equal(k.diag(ds), np.ones(3))
    for j in range(ds.n):
        assert k.row(ds, j)[j] == 1.0


def test_gaussian_requires_positive_bandwidth():
    with pytest.raises(ValueError):
        GaussianKernel(0.0)


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
        for i in range(n):
            assert row[i] == pytest.approx(
                kernel.pair(ds, i, ds, j), rel=1e-10, abs=1e-12)


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
    for kernel in (LinearKernel(), GaussianKernel(float(rng.uniform(0.1, 10.0)))):
        for j in range(n):
            rows = np.append(rng.choice(n, int(rng.integers(0, n)), replace=False), j)
            rng.shuffle(rows)
            before = kernel.eval_count
            assert np.array_equal(kernel.row(ds, j, rows), kernel.row(ds, j)[rows])
            assert kernel.eval_count - before == rows.size + n


@given(st.integers(0, 2**32), st.integers(1, 40))
@settings(max_examples=100, deadline=None)
def test_row_at_sums_stored_entries_in_storage_order(seed, d):
    # Rows with more than 8 stored entries tell a sequential sum from a
    # pairwise one; all-zero rows, repeated indices and an empty rows are the
    # edges of the CSR gather. Each must equal the sliced full row exactly.
    rng = np.random.default_rng(seed)
    n = 20
    x = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
    x[rng.random((n, d)) < rng.uniform(0.0, 0.6)] = 0.0
    x[rng.random(n) < 0.2] = 0.0
    ds = Dataset.from_dense(x, np.where(rng.random(n) < 0.5, 1, -1))
    for kernel in (LinearKernel(), GaussianKernel(float(rng.uniform(0.1, 10.0)))):
        for j in range(n):
            rows = rng.integers(0, n, int(rng.integers(1, 2 * n)))
            before = kernel.eval_count
            got = kernel.row(ds, j, rows)
            assert kernel.eval_count - before == rows.size
            assert got.dtype == np.float64
            assert np.array_equal(got, kernel.row(ds, j)[rows])
        before = kernel.eval_count
        assert kernel.row(ds, int(rng.integers(n)), []).shape == (0,)
        assert kernel.eval_count == before


def test_row_at_rejects_rows_out_of_range():
    ds = Dataset.from_dense(np.eye(3), [1, -1, 1])
    for rows in ([3], [0, -1]):
        with pytest.raises(IndexError):
            LinearKernel().row(ds, 0, rows)


def test_cross_matches_pairs():
    rng = np.random.default_rng(3)
    a = Dataset.from_dense(rng.standard_normal((5, 3)), np.ones(5))
    b = Dataset.from_dense(rng.standard_normal((4, 3)), -np.ones(4))
    k = GaussianKernel(1.5)
    g = k.cross(a, [1, 3], b)
    assert g.shape == (2, 4)
    for r, i in enumerate((1, 3)):
        for j in range(4):
            assert g[r, j] == pytest.approx(
                k.pair(a, i, b, j), rel=1e-10)


def test_eval_counter_is_exact():
    ds = parse_libsvm("+1 1:1\n-1 2:1\n+1 1:0.5 2:0.5\n")
    other = parse_libsvm("+1 1:2\n-1 2:3\n")
    k = LinearKernel()
    k.pair(ds, 0, ds, 1)
    k.row(ds, 0)
    k.diag(ds)
    k.cross(ds, [0, 2], other)
    assert k.eval_count == 1 + 3 + 3 + 2 * 2


def test_row_indices_are_checked():
    # Rows are addressed by index; a negative one must not wrap around.
    ds = parse_libsvm("+1 1:1\n-1 2:1\n")
    k = LinearKernel()
    for i, j in ((-1, 0), (0, -1), (2, 0), (0, 2)):
        with pytest.raises(IndexError):
            k.pair(ds, i, ds, j)
    for j in (-1, 2):
        with pytest.raises(IndexError):
            k.row(ds, j)
    assert k.eval_count == 0


def test_counter_never_resets():
    k = LinearKernel()
    before = k.eval_count
    k.pair(ex([1.0]), 0, ex([1.0]), 0)
    assert k.eval_count == before + 1


def test_mismatched_dimensions_align_on_common_prefix():
    # A model trained on low-dim data may score higher-dim inputs; extra
    # coordinates on either side contribute zero to linear products.
    a = Dataset([0, 1], [0], [2.0], [1], dimension=1)
    b = Dataset([0, 2], [0, 4], [3.0, 7.0], [1], dimension=5)
    k = LinearKernel()
    assert k.cross(a, [0], b)[0, 0] == pytest.approx(6.0)
    assert k.pair(a, 0, b, 0) == k.pair(b, 0, a, 0) == pytest.approx(6.0)


def test_precomputed_gram_lookup():
    ds = parse_libsvm("+1 1:1\n-1 2:1\n")
    gram = np.array([[1.0, 0.25], [0.25, 1.0]])
    k = PrecomputedGramKernel(gram, ds)
    assert k.pair(ds, 0, ds, 1) == 0.25
    assert np.array_equal(k.row(ds, 1), gram[:, 1])
    # Rows are known by their index within the one dataset the Gram matrix
    # was built for; an equal copy is another dataset.
    stranger = parse_libsvm("+1 1:1\n-1 2:1\n")
    with pytest.raises(DataError):
        k.pair(ds, 0, stranger, 0)
    with pytest.raises(DataError):
        k.row(stranger, 0)


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
