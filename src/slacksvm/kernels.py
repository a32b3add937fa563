"""Kernel oracles with black-box access semantics and exact evaluation counting.

Every kernel product, of a training row, a block of training rows or a block
of held-out values, comes from one body, RowSubset.products."""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from .data import Dataset


# Kernel values per block of support rows in cross and scores (256 KB of
# float64): one block's products with the held-out set, and the Gaussian's norm
# sums over it, stay a few hundred KB. Larger blocks cost page faults, as their
# temporaries are mapped afresh on every block: scoring 1000 support rows
# against 1000 test rows (2-D, Gaussian, after warm-up, 2-core x86-64) took 0
# minor faults a call (ru_minflt) with 2**13 to 2**15 entries and about 3300
# with 2**16 and 2**17, and 4.0 against 8.3 ms; against 2000 test rows, 0 up
# to 2**16 and 7125 with 2**17, and 7.6 against 18.3 ms.
_CROSS_BLOCK_ENTRIES = 1 << 15


def _checked_rows(rows, n: int) -> np.ndarray:
    """rows as int64 indices into a dataset of n rows. Raises TypeError for
    anything but a 1-d array of integers (floats and masks are not indices)
    and IndexError for an index outside [0, n); callers check before they
    count."""
    rows = np.asarray(rows)
    if rows.size == 0:
        return np.zeros(0, dtype=np.int64)
    if rows.ndim != 1 or rows.dtype.kind not in "iu":
        raise TypeError("rows must be a 1-d array of integer indices")
    if rows.min() < 0 or rows.max() >= n:
        raise IndexError("rows index out of range")
    return rows.astype(np.int64, copy=False)


class RowSubset:
    """Rows of one dataset, taken once for any number of subset rows, with
    their cached squared norms; rows None takes every row and shares the
    dataset's arrays. Dense data keeps the rows of the dataset's row-major
    copy, `dataset._dense[rows]`; sparse data keeps the rows of its compact
    layout, `dataset.compact[1][rows]`. _rows_over takes rows of one
    dataset over the columns of another, for their products with it."""

    def __init__(self, dataset: Dataset, rows):
        self.dataset = dataset
        self.norms, self.dense = dataset.norms, dataset._dense
        if rows is not None:
            rows = _checked_rows(rows, dataset.n)
            self.norms = self.norms[rows]
            if self.dense is not None:
                self.dense = self.dense.take(rows, axis=0)
        if self.dense is None:
            self.sparse = dataset.compact[1] if rows is None else dataset.compact[1][rows]

    def __len__(self) -> int:
        return self.norms.size

    def __getitem__(self, part: slice) -> RowSubset:
        """The rows of a slice of this subset, without gathering or checking
        them again: views of its arrays (a new sparse matrix on sparse
        data)."""
        sub = object.__new__(RowSubset)
        sub.dataset, sub.norms = self.dataset, self.norms[part]
        sub.dense = None if self.dense is None else self.dense[part]
        if sub.dense is None:
            sub.sparse = self.sparse[part]
        return sub

    def products(self, j) -> np.ndarray:
        """[<x_i, x_j>] for i in rows, as a fresh array. Dense rows are one
        matmul of the gathered rows with x_j (BLAS's gemv, the dataset's copy
        itself for every row), summed in BLAS's order: a subset row is the
        same matmul on the same gathered rows, not always the full row
        sliced. Sparse rows take scipy's mat-vec of row j of the compact
        rows, placed at its compact columns, 0.0 where row j stores none,
        and equal the product over all dimension columns bit for bit: each
        sum runs from 0.0 in ascending feature order.

        For a RowSubset j of the dataset, the (len(rows), len(j)) products
        with each row of j: one gemm with j's rows transposed, whose columns
        may differ from gemv's in the last bits, or scipy's product with j's
        compact rows transposed, which skips the zero terms, so its columns
        equal the mat-vec's up to the sign of zeros.

        For a Dataset j, the held-out set over whose columns these rows were
        taken (_rows_over), the (len(rows), j.n) products with every row of
        j: one gemm with j's copy transposed over the common features (gemv
        for one row), or scipy's product with j.transposed, built once per
        dataset, which equals the one-shot product over all dimension
        columns bit for bit."""
        if isinstance(j, Dataset):
            if self.dense is not None:
                return self.dense @ j._dense[:, :self.dense.shape[1]].T
            return (self.sparse @ j.transposed).toarray()
        if isinstance(j, RowSubset):
            if self.dense is not None:
                return self.dense @ j.dense.T
            return (self.sparse @ j.sparse.T).toarray()
        if self.dense is not None:
            return self.dense @ self.dataset._dense[j]
        compact = self.dataset.compact[1]
        lo, hi = compact.indptr[j], compact.indptr[j + 1]
        x = np.zeros(compact.shape[1])
        x[compact.indices[lo:hi]] = compact.data[lo:hi]
        return self.sparse @ x


def _rows_over(dataset: Dataset, rows, other: Dataset) -> RowSubset:
    """dataset[rows] over other's columns: the RowSubset whose products with
    other (RowSubset.products(other)) are the one-shot products over their
    common features. Two dense datasets keep the rows' first m features, m
    the smaller dimension, gathered from dataset's copy as
    `dataset._dense[:, :m][rows]`. Otherwise the rows are dataset's compact
    rows, each stored entry's feature mapped by one searchsorted into
    other's stored features, `other.compact[0]`, and kept where it is one
    of them: the map drops only terms that other does not store."""
    rows = _checked_rows(rows, dataset.n)
    sub = object.__new__(RowSubset)
    sub.dataset, sub.norms, sub.dense = dataset, dataset.norms[rows], None
    if dataset._dense is not None and other._dense is not None:
        sub.dense = dataset._dense[:, :other.dimension][rows]
        return sub
    (mine, compact), features = dataset.compact, other.compact[0]
    compact = compact[rows]
    ids = mine[compact.indices]
    at = np.searchsorted(features, ids)
    # A side with no stored features has nothing to match.
    kept = features[np.minimum(at, features.size - 1)] == ids if features.size else at < 0
    sub.sparse = sp.csr_matrix((compact.data[kept], at[kept],
                                np.concatenate(([0], np.cumsum(kept)))[compact.indptr]),
                               shape=(rows.size, features.size))
    return sub


def _row_norm(dataset: Dataset, i) -> float:
    """Row i's squared norm; numpy's item refuses a float, a bool or an array."""
    try:
        norm = dataset.norms.item(i)
    except (IndexError, OverflowError):
        norm = None
    if norm is None or i < 0:
        raise IndexError(f"row index {i} out of range")
    return norm


class KernelOracle:
    """Base kernel wrapper: every counted access goes through pair/row/diag/
    cross/scores, which bump eval_count by the exact number of kernel
    evaluations performed. The counter only ever increases; it is the cost
    unit all solvers report. row also takes a RowSubset j, for the rows of
    a block of examples at once, at what its rows would cost one by one.

    A kernel is one map _values(products, norms_i, norms_j) of the inner
    products read from the dataset's arrays (a fresh array, which it maps in
    place and returns, or one pair's float) and the cached squared norms.
    pair and diag read the norms, so K(x, x) is the norm there (linear) and
    exactly 1.0 (Gaussian). Sparse products sum in storage order as the
    norms do, so a sparse row's own entry equals pair. Dense products come
    from BLAS, whose product of a row with itself may differ from its norm
    in the last bits: a dense row's own entry need not equal pair, and a
    Gaussian's is 1.0 or just below it, as n_i + n_j - 2p is clamped at 0.
    """

    def __init__(self):
        self.eval_count = 0

    def pair(self, dataset: Dataset, i: int) -> float:
        """K(x_i, x_i) from row i's cached squared norm; one evaluation."""
        norm = _row_norm(dataset, i)
        self.eval_count += 1
        return float(self._values(norm, norm, norm))

    def row(self, dataset: Dataset, j, rows=None) -> np.ndarray:
        """[K(x_i, x_j)]_i over the whole dataset (n evaluations), or over
        the rows of rows only, a RowSubset of dataset taken once for every
        j (len(rows) evaluations). The row is a fresh array that the caller
        owns and may overwrite.

        j may also be a RowSubset of dataset: then the result is the
        (len(rows), len(j)) array of the rows for each row of j, whose
        columns may differ from the scalar rows in the last bits
        (RowSubset.products), and costs len(rows) * len(j) evaluations; an
        empty j costs none. Either j is checked before anything counts."""
        if rows is None:
            rows = RowSubset(dataset, None)
        elif not (isinstance(rows, RowSubset) and rows.dataset is dataset):
            raise ValueError("rows must be a RowSubset of dataset")
        if isinstance(j, RowSubset):
            if j.dataset is not dataset:
                raise ValueError("j must be a row index or a RowSubset of dataset")
            width, norms_i, norms_j = len(j), rows.norms[:, None], j.norms
        else:
            width, norms_i, norms_j = 1, rows.norms, _row_norm(dataset, j)
        self.eval_count += len(rows) * width
        return self._values(rows.products(j), norms_i, norms_j)

    def diag(self, dataset: Dataset) -> np.ndarray:
        """[K(x_i, x_i)]_i; costs n evaluations."""
        self.eval_count += dataset.n
        return self._values(dataset.norms.copy(), dataset.norms, dataset.norms)

    def cross(self, dataset: Dataset, rows, other: Dataset) -> np.ndarray:
        """K between dataset[rows] and every example of other over their common
        features: (len(rows), other.n) values and evaluations. A block of rows
        at a time is mapped and copied into the result, so no temporary grows
        with the result."""
        rows = _rows_over(dataset, rows, other)
        self.eval_count += len(rows) * other.n
        out = np.empty((len(rows), other.n))
        step = max(1, _CROSS_BLOCK_ENTRIES // other.n)
        for lo in range(0, len(rows), step):
            out[lo:lo + step] = self._block_values(rows[lo:lo + step], other)
        return out

    def scores(self, dataset: Dataset, rows, coef, other: Dataset) -> np.ndarray:
        """coef @ K(dataset[rows], other): the other.n weighted sums of kernel
        values, as len(rows) * other.n evaluations. A block of rows at a time
        is mapped and added into the result, so the kernel values take
        memory by the block size, not by len(rows); the rows themselves are
        taken once, as by _rows_over."""
        rows = _rows_over(dataset, rows, other)
        coef = np.asarray(coef, dtype=np.float64)
        if coef.shape != (len(rows),):
            raise ValueError("coef must have one weight per row")
        self.eval_count += len(rows) * other.n
        out = np.zeros(other.n)
        step = max(1, _CROSS_BLOCK_ENTRIES // other.n)
        for lo in range(0, len(rows), step):
            out += coef[lo:lo + step] @ self._block_values(rows[lo:lo + step], other)
        return out

    def _block_values(self, rows: RowSubset, other: Dataset) -> np.ndarray:
        """The (len(rows), other.n) kernel values of rows, taken over other's
        columns by _rows_over, and every row of other; not counted."""
        return self._values(rows.products(other), rows.norms[:, None], other.norms)


class LinearKernel(KernelOracle):
    def _values(self, products, norms_i, norms_j):
        return products

    @property
    def spec_string(self):
        return "linear"


class GaussianKernel(KernelOracle):
    """K(x, x') = exp(-||x - x'||^2 / (2 sigma^2)), values in (0, 1]; with the
    cached norms one evaluation costs one d-dimensional inner product."""

    def __init__(self, sigma_sq: float):
        super().__init__()
        if not 0 < sigma_sq < np.inf:
            raise ValueError("sigma_sq must be positive and finite")
        self.sigma_sq = float(sigma_sq)
        # One multiply a value instead of a divide. It rounds as
        # -d2 / (2 sigma^2) whenever 2 sigma^2 is a power of two; an infinite
        # factor would make the self-entries 0 * -inf = nan.
        self._factor = -0.5 / self.sigma_sq
        if not math.isfinite(self._factor):
            raise ValueError(f"sigma_sq = {self.sigma_sq!r} is too small: "
                             "-1 / (2 sigma_sq) overflows")

    def _values(self, products, norms_i, norms_j):
        # -2p + (n_i + n_j) rounds as n_i + n_j - 2p; an array in place, one
        # pair's float without numpy.
        d2 = products
        d2 *= -2.0
        d2 += norms_i + norms_j
        if isinstance(d2, float):
            return 1.0 if d2 <= 0.0 else np.exp(d2 * self._factor)
        np.maximum(d2, 0.0, out=d2)
        d2 *= self._factor
        return np.exp(d2, out=d2)

    @property
    def spec_string(self):
        return f"gaussian:{self.sigma_sq!r}"


def add_row(kernel, dataset: Dataset, i: int, s: float, alpha, responses) -> float:
    """alpha[i] += s and responses += s * y[i] * y * K(., x_i) through the
    kernel's row i (n evaluations); returns K(x_i, x_i). The row is scaled in
    place, as (row * y) * (s * y[i]): labels are exactly +-1, so this rounds
    like s * y[i] * y * row, zero signs included.

    Raises SolverError, before taking the row, when s is not finite (as
    Pegasos's step 1/lambda at lambda = 1e-320): the model would not be,
    and a zero kernel value times s would be nan."""
    if not math.isfinite(s):
        from .model import SolverError  # model imports this module
        raise SolverError(f"non-finite step {s}")
    y = dataset.labels
    row = kernel.row(dataset, i)
    kii = row.item(i)
    alpha[i] += s
    row *= y
    row *= s * y[i]
    responses += row
    return kii


def kernel_from_spec(spec: str) -> KernelOracle:
    """Build a fresh oracle from 'linear' or 'gaussian:SIGMA2'."""
    if spec == "linear":
        return LinearKernel()
    if spec.startswith("gaussian:"):
        try:
            sigma_sq = float(spec.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad kernel spec {spec!r}")
        return GaussianKernel(sigma_sq)
    raise ValueError(f"unknown kernel spec {spec!r}")
