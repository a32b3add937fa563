import io
import os
import tempfile
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slacksvm import data
from slacksvm.data import DataError, Dataset, SyntheticSpec, generate, parse_libsvm
from slacksvm.fourier import linearize, make_fourier_map
from slacksvm.kernels import LinearKernel
from slacksvm.model import TrainedModel, evaluate

from oracles import PrecomputedGramKernel, parse_libsvm_reference, serialize_libsvm


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

    @pytest.mark.parametrize("label", ["nan", "inf", "-1e999", "-Infinity"])
    @pytest.mark.parametrize("positive_class", [None, 1])
    def test_non_finite_label_raises_naming_its_line(self, label, positive_class):
        # Under positive_class it would be read as -1, not being the target.
        with pytest.raises(DataError, match=f"^line 2: non-finite label '{label}'$"):
            parse_libsvm(f"1 1:1\n{label} 1:2\n", positive_class=positive_class)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_positive_class_raises_before_reading(self, value):
        # A usage error, not a DataError, raised before the first line.
        class Unread(io.StringIO):
            def readlines(self, hint=-1):
                raise AssertionError("read a line")

        with pytest.raises(ValueError, match="positive_class must be finite") as info:
            parse_libsvm(Unread("+1 1:1\n"), positive_class=value)
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

    @pytest.mark.parametrize("text, bad", [
        ("+1 1_0:2_5\n-1 1:1\n", "_"),      # read as feature 10 of value 25
        ("+1 1:1\n-1 1:\u0661\n", "\u0661"),  # an Arabic-Indic digit, read as 1.0
        ("+1_0 1:1\n", "_"),                 # read as label 10
        ("+1 1:\uff12\n", "\uff12"),          # a full-width digit, read as 2.0
    ])
    def test_only_c_numerals_are_read(self, text, bad):
        # Python's int and float take these; LIBSVM's strtol and strtod do not.
        line = text.count("\n", 0, text.index(bad)) + 1
        with pytest.raises(DataError, match=f"^line {line}: {bad!r} is not part of"):
            parse_libsvm(text)

    def test_comments_may_hold_any_text(self):
        ds = parse_libsvm("+1 1:2.5 # caf\u00e9 no_1 \u0661\n")
        assert ds.values.tolist() == [2.5]

    def test_round_trip(self):
        text = "+1 1:0.5 3:-2.0\n-1 2:1.25\n"
        ds = parse_libsvm(text)
        assert_same_rows(ds, parse_libsvm(serialize_libsvm(ds)))


def mostly(good, bad):
    """good nine times in ten, and otherwise bad."""
    return st.sampled_from([good] * 9 + [bad]).flatmap(lambda strategy: strategy)


# Unusual text that the format allows: every separator of str.split, which
# pad a line too, as do non-ASCII spaces; comments of any text; a lone "\r",
# which ends a line of a text-mode file but not of a str; signed and
# zero-padded indices; values that round to an explicit zero.
_spaces = st.sampled_from([" "] * 3 + ["\t", "\v", "\f", "\r", "\x1c", "\x1d", "\x1e",
                                       "\x1f", "  "])
_pads = st.sampled_from([""] * 3 + [" ", "\t", "\x1f", "\r", "\u3000", "\xa0", "\x85"])
_tails = st.sampled_from([""] * 3 + [" # caf\u00e9 no_1 \u0661", "#1:1", " #", " \u3000 # x"])
_ends = st.sampled_from(["\n"] * 6 + ["\r\n", "\r", "\n\n", "\x0b\n"])
_indices = st.sampled_from(["{}"] * 3 + ["+{}", "00{}"])
_values = st.one_of(st.floats(-1e3, 1e3).map(repr), st.sampled_from(
    ["0", "-0.0", "1e-999", ".5", "5.", "-.5e-3", "1E+5", "4e153"]))
# Text that breaks a rule, at most one line of it in a text.
_bad = {
    "label": st.sampled_from(["nan", "inf", "1e999", "-1e999", "x", "1_0", "\u0661", "+",
                              ".", "1:1", "1:", "0x1", "1.2.3", "1e", "+-1", "1\x001", "nan(1)"]),
    "index": st.sampled_from(["-{}", "{}_0", "{}.0", "{}e0", "", "x", "0", "-0", "+-{}",
                              "2147483648", "9007199254740993", "1" + "0" * 400]),
    "value": st.sampled_from(["1e999", "nan", "nan(1)", "inf", "0x10", "1.2.3", "", "e5",
                              "1e", "1e+", ".", "+-1", "1-1", "1e5e5", "1e5.0", "1:1", "1e200",
                              "1\x1b", "\u0661", "1_0", "\x00"]),
    "tail": st.sampled_from(["_ # x", "\u0661 # x", "\x00", "\x1b", " \u3000x"]),
    "feature": st.sampled_from(["10", ":", "10:", "10:1:", "10::1", "::1", ":10:1", "10 1:",
                                "10: 1", "10 :1"]),
    "order": st.just(None),
}


@st.composite
def libsvm_line(draw, labels, bad):
    """One line of text whose labels are drawn from labels, breaking a rule
    if bad."""
    if draw(st.integers(0, 14)) == 0:
        return draw(st.sampled_from(["", " ", "# only a comment", "\u3000"])) + draw(_ends)
    slot = draw(st.sampled_from(sorted(_bad))) if bad else None
    ids = sorted(draw(st.lists(st.integers(1, 9), unique=True, max_size=4)))
    label = draw(_bad["label"] if slot == "label" else st.sampled_from(labels))
    feats = [draw(_indices).format(i) + ":" + draw(_values) for i in ids]
    if draw(st.integers(0, 9)) == 0:
        feats.append("2147483647:1")
    if slot == "order":
        feats.insert(0, "10:1")
    elif slot == "feature":
        feats.append(draw(_bad["feature"]))
    elif slot in ("index", "value"):
        index, value = draw(_bad["index"]).format(10) if slot == "index" else "10", "1"
        feats.insert(draw(mostly(st.just(len(feats)), st.integers(0, len(feats)))),
                     f"{index}:{draw(_bad['value']) if slot == 'value' else value}")
    line = draw(_pads) + label
    for feat in feats:
        line += draw(_spaces) + feat
    tail = draw(_bad["tail"] if slot == "tail" else _tails)
    return line + draw(_pads) + tail + draw(_ends)


@st.composite
def libsvm_texts(draw):
    """(text, positive_class): LIBSVM text of up to 12 lines, in about half
    of the texts one of them bad, and a positive_class for its labels."""
    positive_class = draw(mostly(st.none(), st.sampled_from([1, 3, 0, -1, 2.5])))
    labels = (["+1", "-1", "1", "0", "-0", "1.0", "+1e0"] if positive_class is None
              else ["1", "-1", "0", "3", "2.5", "7", "+3e0"])
    n = draw(st.integers(0, 12))
    bad = draw(st.one_of(st.just(-1), st.integers(0, 11)))
    return "".join(draw(libsvm_line(labels, k == bad)) for k in range(n)), positive_class


def parse_outcome(parse, source, positive_class):
    """The arrays of the Dataset parse reads from source, bytes and dtypes,
    or the type and message of what it raises."""
    try:
        ds = parse(source, positive_class=positive_class)
    except Exception as exc:
        return type(exc), str(exc)
    return ds.dimension, [(a.dtype.str, a.tobytes()) for a in
                          (ds.indptr, ds.indices, ds.values, ds.labels, ds.norms)]


_DEFAULT_BLOCK = data._BLOCK_CHARS


@given(libsvm_texts(), st.sampled_from([_DEFAULT_BLOCK, 1, 40]))
@settings(max_examples=500, deadline=None)
# Each breaks one of the block checks alone, which random text seldom does.
@example(("+1 10 1:\n", None), _DEFAULT_BLOCK)
@example(("+1 1:1:\n", None), _DEFAULT_BLOCK)
@example(("1: 2:3\n", None), _DEFAULT_BLOCK)
@example(("+1 1: 2\n", None), _DEFAULT_BLOCK)
@example(("+1 2.0:1\n-1 2e0:1\n", None), _DEFAULT_BLOCK)
def test_parse_matches_the_token_loop(case, block):
    # Both as a str and as a text-mode file, whose "\r" and "\r\n" end
    # lines; with small blocks too, so a bad line or a row error may fall in
    # a later block. A DeprecationWarning is an error inside the parses only:
    # as a mark it would also hold while Hypothesis reports a failure.
    text, positive_class = case
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(data, "_BLOCK_CHARS", block), warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        path = os.path.join(tmp, "data.svm")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        outcomes = [parse_outcome(parse, text, positive_class)
                    for parse in (parse_libsvm, parse_libsvm_reference)]
        for parse in (parse_libsvm, parse_libsvm_reference):
            with open(path, encoding="utf-8") as fh:
                outcomes.append(parse_outcome(parse, fh, positive_class))
    assert outcomes[0] == outcomes[1] and outcomes[2] == outcomes[3], outcomes


def test_parse_memory_stays_at_the_token_loop(tmp_path):
    # A 20,000-line file of two features in shortest-repr floats, as the
    # benchmark writes: the block parse holds no more than about one block
    # of text at a time, so it peaks at most a quarter above the loop's lists.
    rng = np.random.default_rng(11)
    x = rng.standard_normal((20000, 2))
    path = tmp_path / "train.svm"
    path.write_text("".join(f"{y:+d} 1:{a!r} 2:{b!r}\n" for y, (a, b) in
                            zip(np.where(rng.random(20000) < 0.5, 1, -1).tolist(), x.tolist())))
    peaks = []
    for parse in (parse_libsvm_reference, parse_libsvm):
        with open(path) as fh:
            tracemalloc.start()
            try:
                ds = parse(fh)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert ds.n == 20000
    assert peaks[1] <= 1.25 * peaks[0], peaks


def assert_same_rows(a, b):
    """a and b hold the same labels and the same stored entries."""
    for name in ("labels", "indptr", "indices", "values"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


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
        assert_same_rows(generate(spec), generate(spec))

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
