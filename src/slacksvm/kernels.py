"""Kernel oracles with black-box access semantics and exact evaluation counting."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .data import Dataset


# Kernel values per block of cross and scores (256 KB of float64): the product
# of one block, and the Gaussian's norm sums over it, stay a few hundred KB.
# Larger blocks cost page faults, as their temporaries are mapped afresh on
# every call: scoring 1000 support rows against 1000 test rows (2-D, Gaussian,
# after warm-up, 2-core x86-64) took 0 minor faults a call (ru_minflt) with
# 2**13 to 2**15 entries, 222 with 2**16 and 496 with 2**17, and 8-11 ms
# against 14 ms with 2**17; 954 rows against 2000 took 0, 218 and 491 faults.
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
    layout, `dataset.compact[1][rows]`."""

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

    def products(self, j: int) -> np.ndarray:
        """[<x_i, x_j>] for i in rows, as a fresh array. Dense rows are one
        matmul of the gathered rows with x_j (BLAS's gemv, the dataset's copy
        itself for every row), summed in BLAS's order: a subset row is the
        same matmul on the same gathered rows, not always the full row
        sliced. Sparse rows take scipy's mat-vec of row j of the compact
        rows, placed at its compact columns, 0.0 where row j stores none,
        and equal the product over all dimension columns bit for bit: each
        sum runs from 0.0 in ascending feature order."""
        if self.dense is not None:
            return self.dense @ self.dataset._dense[j]
        compact = self.dataset.compact[1]
        lo, hi = compact.indptr[j], compact.indptr[j + 1]
        x = np.zeros(compact.shape[1])
        x[compact.indices[lo:hi]] = compact.data[lo:hi]
        return self.sparse @ x


class KernelOracle:
    """Base kernel wrapper: every counted access goes through pair/row/diag/
    cross/scores, which bump eval_count by the exact number of kernel
    evaluations performed. The counter only ever increases; it is the cost
    unit all solvers report.

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
        if not 0 <= i < dataset.n:
            raise IndexError(f"row index {i} out of range")
        self.eval_count += 1
        norm = dataset.norms.item(i)
        return float(self._values(norm, norm, norm))

    def row(self, dataset: Dataset, j: int, rows=None) -> np.ndarray:
        """[K(x_i, x_j)]_i over the whole dataset (n evaluations), or over
        the rows of rows only, a RowSubset of dataset taken once for every
        j (len(rows) evaluations). The row is a fresh array that the caller
        owns and may overwrite."""
        if not 0 <= j < dataset.n:
            raise IndexError(f"row index {j} out of range")
        if rows is None:
            rows = RowSubset(dataset, None)
        elif not (isinstance(rows, RowSubset) and rows.dataset is dataset):
            raise ValueError("rows must be a RowSubset of dataset")
        self.eval_count += len(rows)
        return self._values(rows.products(j), rows.norms, dataset.norms[j])

    def diag(self, dataset: Dataset) -> np.ndarray:
        """[K(x_i, x_i)]_i; costs n evaluations."""
        self.eval_count += dataset.n
        return self._values(dataset.norms.copy(), dataset.norms, dataset.norms)

    def cross(self, dataset: Dataset, rows, other: Dataset) -> np.ndarray:
        """K between dataset[rows] and every example of other over their common
        features: (len(rows), other.n) values and evaluations.
        Each block of rows is copied into the result, so no temporary grows
        with the result."""
        rows = _checked_rows(rows, dataset.n)
        self.eval_count += rows.size * other.n
        out = np.empty((rows.size, other.n))
        for lo, block in self._blocks(dataset, rows, other):
            out[lo:lo + len(block)] = block
        return out

    def scores(self, dataset: Dataset, rows, coef, other: Dataset) -> np.ndarray:
        """coef @ K(dataset[rows], other): the other.n weighted sums of kernel
        values, as len(rows) * other.n evaluations. Each block of rows is mapped
        into one reused buffer and added into the result at once, so memory
        depends on the block size, not on len(rows)."""
        rows = _checked_rows(rows, dataset.n)
        coef = np.asarray(coef, dtype=np.float64)
        if coef.shape != rows.shape:
            raise ValueError("coef must have one weight per row")
        self.eval_count += rows.size * other.n
        out = np.zeros(other.n)
        for lo, block in self._blocks(dataset, rows, other):
            out += coef[lo:lo + len(block)] @ block
        return out

    def _blocks(self, dataset: Dataset, rows: np.ndarray, other: Dataset):
        """Yield (lo, block): the kernel values between dataset[rows[lo:hi]]
        and other, hi = lo + len(block), a block of rows at a time, each a
        view of one buffer that the next block overwrites. Two dense
        datasets multiply the block's rows, gathered from dataset's copy, by
        other's copy transposed over their common features: one np.matmul
        into the buffer, summed in BLAS's order. Otherwise the block is
        scipy's sparse product of dataset's compact rows, their features
        mapped into other's (features other lacks add no term), with other's
        transpose, so it equals the one-shot product bit for bit."""
        dense = dataset._dense is not None and other._dense is not None
        if dense:
            m = min(dataset.dimension, other.dimension)
            left, right = dataset._dense[:, :m], other._dense[:, :m].T
        else:
            # The rows over other's stored features, in the same order.
            (mine, left), features = dataset.compact, other.compact[0]
            left, right = left[rows], other.transposed
            ids = mine[left.indices]
            kept = np.isin(ids, features)
            left = sp.csr_matrix((left.data[kept], np.searchsorted(features, ids[kept]),
                                  np.concatenate(([0], np.cumsum(kept)))[left.indptr]),
                                 shape=(rows.size, features.size))
        norms_i = dataset.norms[rows][:, None]
        step = max(1, _CROSS_BLOCK_ENTRIES // other.n)
        buffer = np.empty((min(step, rows.size), other.n))
        for lo in range(0, rows.size, step):
            hi = min(lo + step, rows.size)
            block = buffer[:hi - lo]
            if dense:
                np.matmul(left[rows[lo:hi]], right, out=block)
            else:
                (left[lo:hi] @ right).toarray(out=block)
            yield lo, self._values(block, norms_i[lo:hi], other.norms[None, :])


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

    def _values(self, products, norms_i, norms_j):
        # -2p + (n_i + n_j) and m / -(2 sigma^2) round as n_i + n_j - 2p and
        # -m / (2 sigma^2); an array in place, one pair's float without numpy.
        d2 = products
        d2 *= -2.0
        d2 += norms_i + norms_j
        if isinstance(d2, float):
            return 1.0 if d2 <= 0.0 else np.exp(d2 / (-2.0 * self.sigma_sq))
        np.maximum(d2, 0.0, out=d2)
        d2 /= -2.0 * self.sigma_sq
        return np.exp(d2, out=d2)

    @property
    def spec_string(self):
        return f"gaussian:{self.sigma_sq!r}"


def add_row(kernel, dataset: Dataset, i: int, s: float, alpha, responses) -> float:
    """alpha[i] += s and responses += s * y[i] * y * K(., x_i) through the
    kernel's row i (n evaluations); returns K(x_i, x_i). The row is scaled in
    place, as (row * y) * (s * y[i]): labels are exactly +-1, so this rounds
    like s * y[i] * y * row, zero signs included."""
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
