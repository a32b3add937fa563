"""Kernel oracles with black-box access semantics and exact evaluation counting."""

from __future__ import annotations

import numpy as np

from .data import Dataset


def _dense(dataset: Dataset, j: int) -> np.ndarray:
    """Row j of dataset as a dense vector of length dataset.dimension."""
    lo, hi = dataset.indptr[j], dataset.indptr[j + 1]
    out = np.zeros(dataset.dimension)
    out[dataset.indices[lo:hi]] = dataset.values[lo:hi]
    return out


def _dot(a: Dataset, i: int, b: Dataset, j: int) -> float:
    """Inner product of row i of a and row j of b over their common features."""
    lo, hi = a.indptr[i], a.indptr[i + 1]
    idx = a.indices[lo:hi]
    keep = idx < b.dimension
    return float(a.values[lo:hi][keep] @ _dense(b, j)[idx[keep]])


def _products_at(dataset: Dataset, j: int, rows: np.ndarray) -> np.ndarray:
    """[<x_i, x_j>] for i in rows, read straight from the CSR arrays.

    Each row's stored products are summed one after another in storage
    order, as scipy's CSR mat-vec does, so the result equals
    (dataset.matrix @ _dense(dataset, j))[rows] bit for bit; a pairwise
    sum such as np.add.reduceat would round differently.
    """
    ends = dataset.indptr[rows + 1]
    counts = ends - dataset.indptr[rows]
    last = np.cumsum(counts)
    # Position in the CSR arrays of the stored entries of the selected rows,
    # row after row: gathered entry k of a row sits at k + (end - last).
    pos = np.repeat(ends - last, counts)
    pos += np.arange(pos.size)
    products = dataset.values[pos] * _dense(dataset, j)[dataset.indices[pos]]
    sums = np.bincount(np.repeat(np.arange(rows.size), counts), weights=products,
                       minlength=rows.size)
    return sums.astype(np.float64, copy=False)  # no stored entry: integer zeros


class KernelOracle:
    """Base kernel wrapper: every counted access goes through pair/row/diag/
    cross, which bump eval_count by the exact number of kernel evaluations
    performed. The counter only ever increases; it is the cost unit all
    solvers report.

    A kernel is one map _values(products, norms_i, norms_j, same) of the inner
    products read from the CSR arrays (a fresh array it may overwrite, or one
    pair's float) and the cached squared norms; same indexes the array
    entries where x_i is x_j.
    """

    def __init__(self):
        self.eval_count = 0

    def pair(self, dataset: Dataset, i: int, other: Dataset, j: int) -> float:
        """K(row i of dataset, row j of other); one evaluation. The product of
        a row with itself is its cached squared norm, so n_i + n_j - 2p is 0."""
        if not (0 <= i < dataset.n and 0 <= j < other.n):
            raise IndexError(f"row index {i} or {j} out of range")
        self.eval_count += 1
        if dataset is other and i == j:
            product = norm_i = norm_j = dataset.norms.item(i)
        else:
            product = _dot(dataset, i, other, j)
            norm_i, norm_j = dataset.norms.item(i), other.norms.item(j)
        return float(self._values(product, norm_i, norm_j, False))

    def row(self, dataset: Dataset, j: int, rows=None) -> np.ndarray:
        """[K(x_i, x_j)]_i over the whole dataset (n evaluations), or over
        the indices i in rows only (len(rows) evaluations)."""
        if not 0 <= j < dataset.n:
            raise IndexError(f"row index {j} out of range")
        if rows is None:
            self.eval_count += dataset.n
            return self._values(dataset.matrix @ _dense(dataset, j),
                                dataset.norms, dataset.norms[j], j)
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and not (0 <= rows.min() and rows.max() < dataset.n):
            raise IndexError("rows index out of range")
        self.eval_count += int(rows.size)
        return self._values(_products_at(dataset, j, rows),
                            dataset.norms[rows], dataset.norms[j], rows == j)

    def diag(self, dataset: Dataset) -> np.ndarray:
        """[K(x_i, x_i)]_i; costs n evaluations."""
        self.eval_count += dataset.n
        return self._values(dataset.norms.copy(), dataset.norms, dataset.norms, True)

    def cross(self, dataset: Dataset, rows, other: Dataset) -> np.ndarray:
        """K between dataset[rows] and every example of other over their common
        features: (len(rows), other.n) values and evaluations, none a self-pair."""
        rows = np.asarray(rows, dtype=np.int64)
        self.eval_count += int(rows.size) * other.n
        if rows.size == 0:
            return np.zeros((0, other.n))
        m = min(dataset.dimension, other.dimension)
        products = (dataset.matrix[rows, :m] @ other.matrix[:, :m].T).toarray()
        return self._values(products, dataset.norms[rows][:, None],
                            other.norms[None, :], False)

    @property
    def spec_string(self) -> str:
        raise NotImplementedError


class LinearKernel(KernelOracle):
    def _values(self, products, norms_i, norms_j, same):
        return products

    @property
    def spec_string(self):
        return "linear"


class GaussianKernel(KernelOracle):
    """K(x, x') = exp(-||x - x'||^2 / (2 sigma^2)), values in (0, 1]; with the
    cached norms one evaluation costs one d-dimensional inner product."""

    def __init__(self, sigma_sq: float):
        super().__init__()
        if not sigma_sq > 0:
            raise ValueError("sigma_sq must be positive")
        self.sigma_sq = float(sigma_sq)

    def _values(self, products, norms_i, norms_j, same):
        # -2p + (n_i + n_j) and m / -(2 sigma^2) round as n_i + n_j - 2p and
        # -m / (2 sigma^2); an array in place, one pair's float without numpy.
        d2 = products
        d2 *= -2.0
        d2 += norms_i + norms_j
        if isinstance(d2, float):
            return 1.0 if d2 <= 0.0 else np.exp(d2 / (-2.0 * self.sigma_sq))
        d2[same] = 0.0  # self-distance is zero by definition
        np.maximum(d2, 0.0, out=d2)
        d2 /= -2.0 * self.sigma_sq
        return np.exp(d2, out=d2)

    @property
    def spec_string(self):
        return f"gaussian:{self.sigma_sq!r}"


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
