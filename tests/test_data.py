import numpy as np
import pytest

from slacksvm.data import (DataError, Dataset, SyntheticSpec, generate,
                           parse_libsvm, serialize_libsvm)
from slacksvm.fourier import linearize, make_fourier_map
from slacksvm.kernels import LinearKernel
from slacksvm.model import TrainedModel, evaluate

from oracles import PrecomputedGramKernel


class TestParse:
    def test_basic(self):
        ds = parse_libsvm("+1 1:0.5 3:-2.0\n-1 2:1\n")
        assert ds.n == 2
        assert ds.dimension == 3
        assert ds.labels.tolist() == [1.0, -1.0]
        assert ds.indptr.tolist() == [0, 2, 3]
        assert ds.indices.tolist() == [0, 2, 1]
        assert ds.values.tolist() == [0.5, -2.0, 1.0]

    def test_comments_blank_lines_crlf(self):
        ds = parse_libsvm("# header\n\n+1 1:1\r\n-1 1:-1\n")
        assert ds.n == 2
        # SVM-light's trailing comment, `<features> # <info>`, also after a
        # label with no features.
        ds = parse_libsvm("+1 1:1 # note\n-1 2:3 #tight:1\r\n+1 # x\n")
        assert ds.labels.tolist() == [1.0, -1.0, 1.0]
        assert ds.indptr.tolist() == [0, 1, 2, 2]
        assert ds.indices.tolist() == [0, 1] and ds.values.tolist() == [1.0, 3.0]

    def test_zero_one_labels(self):
        ds = parse_libsvm("1 1:1\n0 1:2\n")
        assert ds.labels.tolist() == [1.0, -1.0]

    def test_multiclass_needs_mapping(self):
        with pytest.raises(DataError, match="line 2"):
            parse_libsvm("1 1:1\n3 1:2\n")
        ds = parse_libsvm("1 1:1\n3 1:2\n7 1:3\n", positive_class=3)
        assert ds.labels.tolist() == [-1.0, 1.0, -1.0]

    def test_positive_class_matching_no_label_raises(self):
        # It would make a one-class dataset, every label -1.
        with pytest.raises(DataError, match=r"^positive_class 5\.0 matches no label$"):
            parse_libsvm("1 1:1\n3 1:2\n7 1:3\n", positive_class=5)
        assert parse_libsvm("1 1:1\n3 1:2\n", positive_class=1).labels.tolist() == [1.0, -1.0]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_positive_class_raises_before_reading(self, value):
        # A usage error, not a DataError, raised before the first line.
        def lines():
            raise AssertionError("read a line")
            yield

        with pytest.raises(ValueError, match="positive_class must be finite") as info:
            parse_libsvm(lines(), positive_class=value)
        assert not isinstance(info.value, DataError)

    def test_explicit_zero_dropped(self):
        ds = parse_libsvm("+1 1:0.0 2:5\n")
        assert ds.indptr.tolist() == [0, 1]
        assert ds.indices.tolist() == [1]

    def test_error_lines_are_numbered(self):
        with pytest.raises(DataError, match="line 1"):
            parse_libsvm("abc 1:1\n")
        with pytest.raises(DataError, match="line 2.*malformed"):
            parse_libsvm("+1 1:1\n-1 1:x\n")
        with pytest.raises(DataError, match="line 1.*not positive"):
            parse_libsvm("+1 0:1\n")
        with pytest.raises(DataError, match="line 1.*non-ascending"):
            parse_libsvm("+1 2:1 2:2\n")
        with pytest.raises(DataError, match="line 2.*2147483648 is above 2147483647"):
            parse_libsvm("+1 1:1\n-1 3:1 2147483648:1\n")
        assert parse_libsvm("+1 2147483647:1\n").dimension == 2**31 - 1
        for value in ("nan", "inf", "-inf", "NaN", "-Infinity"):
            with pytest.raises(DataError, match="line 2.*non-finite"):
                parse_libsvm(f"+1 1:1\n-1 1:2 3:{value}\n")
        with pytest.raises(DataError):
            parse_libsvm("")

    def test_round_trip(self):
        text = "+1 1:0.5 3:-2.0\n-1 2:1.25\n"
        ds = parse_libsvm(text)
        again = parse_libsvm(serialize_libsvm(ds))
        assert ds == again


def one_row(indices, values, label):
    """A dataset whose only row follows a good one, so a rule broken in it
    is reported for row 1."""
    return Dataset([0, 1, 1 + len(indices)], [0] + list(indices),
                   [1.0] + list(values), [1, label])


class TestSparseExample:
    """The rules for each sparse row, which the Dataset constructor checks."""

    def test_invariants_enforced(self):
        for row, message in [
            (([1, 1], [1.0, 2.0], 1), "ascending"),  # duplicate index
            (([2, 1], [1.0, 2.0], 1), "ascending"),  # descending
            (([-1], [1.0], 1), "non-negative"),
            (([0], [0.0], 1), "zero"),  # stored zero
            (([0], [1.0], 2), "label"),  # bad label
        ]:
            with pytest.raises(DataError, match=f"row 1: .*{message}") as err:
                one_row(*row)
            assert err.value.row == 1

    def test_ascending_is_checked_within_rows_only(self):
        # Index 0 after index 2 is fine when it starts the next row.
        ds = Dataset([0, 2, 3], [1, 2, 0], [1.0, 2.0, 3.0], [1, -1])
        assert ds.dimension == 3

    @pytest.mark.parametrize("value", [np.nan, -np.inf, 1e200, 1e154],
                             ids=["nan", "neg-inf", "square-overflows",
                                  "norm-above-quarter-max"])
    def test_non_finite_rejected(self, value):
        # 1e200 is finite, but its square is not: K(x, x) would be inf and
        # the Gaussian kernel nan. 1e154 squares to 1e308, finite, but two
        # such rows would give n_i + n_j - 2 <x_i, x_j> = inf - inf.
        with pytest.raises(DataError, match="row 1: .*finite"):
            one_row([0, 1], [1.0, value], 1)

    def test_norm_just_under_the_bound_accepted(self):
        # 6e153 squares to 3.6e307, below max / 4, so any two such rows have
        # a finite squared distance.
        ds = one_row([0], [6e153], -1)
        assert ds.norms[1] == 6e153 * 6e153

    def test_norm_cached(self):
        ds = one_row([0, 2], [3.0, 4.0], -1)
        assert ds.norms.tolist() == [1.0, 25.0]
        assert ds.matrix.toarray()[1].tolist() == [3.0, 0.0, 4.0]


class TestDataset:
    def test_nonempty_required(self):
        with pytest.raises(DataError):
            Dataset([0], [], [], [])

    @pytest.mark.parametrize("arrays", [
        ([0, 2], [0], [1.0], [1]),  # indptr past the entries
        ([0, 1, 0], [0], [1.0], [1, 1]),  # decreasing indptr
        ([0, 1], [0, 1], [1.0], [1]),  # indices and values differ in length
        ([0, 1], [0], [1.0], [1, -1]),  # a label without a row
    ])
    def test_csr_shape_checked(self, arrays):
        with pytest.raises(DataError, match="CSR"):
            Dataset(*arrays)

    def test_dimension_inference_and_check(self):
        ds = Dataset([0, 1], [4], [1.0], [1])
        assert ds.dimension == 5
        with pytest.raises(DataError):
            Dataset([0, 1], [4], [1.0], [1], dimension=3)

    def test_class_counts(self):
        ds = parse_libsvm("+1 1:1\n+1 1:2\n-1 1:3\n")
        assert int(np.sum(ds.labels > 0)) == 2
        assert int(np.sum(ds.labels < 0)) == 1

    def test_matrix_matches_dense(self):
        ds = parse_libsvm("+1 1:1 3:2\n-1 2:-1\n")
        assert np.array_equal(ds.matrix.toarray(), [[1.0, 0.0, 2.0], [0.0, -1.0, 0.0]])

    def test_from_dense_drops_zeros(self):
        x = np.array([[0.0, 2.0, -0.0], [0.0, 0.0, 0.0], [-1.5, 0.0, 3.0]])
        ds = Dataset.from_dense(x, [1, -1, 1])
        assert ds.indptr.tolist() == [0, 1, 1, 3]
        assert ds.indices.tolist() == [1, 0, 2]
        assert ds.values.tolist() == [2.0, -1.5, 3.0]
        assert ds.dimension == 3
        assert np.array_equal(ds.matrix.toarray(), x)

    def test_norms_are_per_row_dots(self):
        # Gaussian rows and calibrate outputs read these bits: each must be
        # the row's squares summed left to right from 0.0, as every inner
        # product is, so that K(x, x) has one value on every kernel path.
        base = generate(SyntheticSpec(kind="two_gaussians", n=200, dimension=5, seed=3))
        fmap = make_fourier_map(32, base.dimension, 1.0, seed=4)
        ds = linearize(fmap, base)
        assert ds.dimension == 2 * fmap.k == 64
        dense = ds.matrix.toarray()
        for i in range(ds.n):
            total = 0.0
            for v in dense[i][np.flatnonzero(dense[i])].tolist():
                total += v * v
            assert ds.norms[i] == total


class TestSynthetic:
    def test_seed_determinism(self):
        spec = SyntheticSpec(kind="two_gaussians", n=50, seed=9)
        assert generate(spec) == generate(spec)

    def test_margin_separable_has_margin(self):
        spec = SyntheticSpec(kind="margin_separable", n=200, dimension=3,
                             seed=1, margin=0.4, radius=1.0)
        ds = generate(spec)
        norms = np.sqrt(ds.norms)
        assert norms.max() <= 1.0 + 1e-9
        # A unit separator with margin >= 0.4 must exist; check via the
        # same construction invariant the generator verifies internally.
        assert np.any(ds.labels > 0) and np.any(ds.labels < 0)

    def test_xor_ring_is_not_linearly_separable(self):
        ds = generate(SyntheticSpec(kind="xor_ring", n=400, seed=2))
        x = ds.matrix.toarray()
        # Every linear direction misclassifies a decent fraction.
        worst = 1.0
        for theta in np.linspace(0, 2 * np.pi, 36, endpoint=False):
            w = np.array([np.cos(theta), np.sin(theta)])
            err = np.mean(ds.labels * (x @ w) <= 0)
            worst = min(worst, err)
        assert worst > 0.2

    def test_bad_specs(self):
        with pytest.raises(DataError):
            generate(SyntheticSpec(kind="nope", n=10))
        with pytest.raises(DataError):
            generate(SyntheticSpec(kind="two_gaussians", n=0))
        with pytest.raises(DataError):
            generate(SyntheticSpec(kind="margin_separable", n=10,
                                   margin=2.0, radius=1.0))


def test_evaluate_pinned_example():
    # Margins [2, 0.5, -1]: hinge (0 + 0.5 + 2)/3 = 5/6, errors 1/3.
    ds = parse_libsvm("+1 1:2\n+1 1:0.5\n-1 1:1\n")
    # Diagonal lookup table making the margins come out [2, 0.5, -1].
    gram = np.diag([2.0, 0.5, -1.0])
    model = TrainedModel(alpha=np.array([1.0, 1.0, 1.0]), bias=0.0,
                         dataset=ds, kernel_spec="precomputed",
                         use_bias=False, kernel_evals=0)
    kernel = PrecomputedGramKernel(gram, ds)
    hinge, zero_one = evaluate(model, ds, kernel)
    assert hinge == pytest.approx(5.0 / 6.0)
    assert zero_one == pytest.approx(1.0 / 3.0)


def test_evaluate_zero_score_is_an_error():
    ds = parse_libsvm("+1 1:1\n")
    model = TrainedModel(alpha=np.zeros(1), bias=0.0, dataset=ds,
                         kernel_spec="linear", use_bias=False, kernel_evals=0)
    _, zero_one = evaluate(model, ds, LinearKernel())
    assert zero_one == 1.0
