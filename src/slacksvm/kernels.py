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
    """Inner product of row i of a and row j of b; features past either
    dimension contribute zero."""
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
    """Base kernel wrapper.

    Every counted access goes through pair/row/diag/cross, which bump
    eval_count by the exact number of kernel evaluations performed. The
    counter only ever increases; it is the cost unit all solvers report.
    """

    def __init__(self):
        self.eval_count = 0

    def pair(self, dataset: Dataset, i: int, other: Dataset, j: int) -> float:
        """K(row i of dataset, row j of other); one evaluation. A self-pair,
        the same row of the same dataset, needs no arithmetic: it is the
        cached squared norm (linear) or 1 (Gaussian)."""
        if not (0 <= i < dataset.n and 0 <= j < other.n):
            raise IndexError(f"row index {i} or {j} out of range")
        self.eval_count += 1
        return self._pair(dataset, i, other, j)

    def row(self, dataset: Dataset, j: int, rows=None) -> np.ndarray:
        """[K(x_i, x_j)]_i over the whole dataset (n evaluations), or over
        the indices i in rows only (len(rows) evaluations)."""
        if not 0 <= j < dataset.n:
            raise IndexError(f"row index {j} out of range")
        if rows is None:
            self.eval_count += dataset.n
            return self._row(dataset, j)
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and not (0 <= rows.min() and rows.max() < dataset.n):
            raise IndexError("rows index out of range")
        self.eval_count += int(rows.size)
        return self._row_at(dataset, j, rows)

    def diag(self, dataset: Dataset) -> np.ndarray:
        """[K(x_i, x_i)]_i; costs n evaluations."""
        self.eval_count += dataset.n
        return self._diag(dataset)

    def cross(self, dataset: Dataset, rows, other: Dataset) -> np.ndarray:
        """K between dataset[rows] and every example of other.

        Costs len(rows) * other.n evaluations. Shape (len(rows), other.n).
        """
        rows = np.asarray(rows, dtype=np.int64)
        self.eval_count += int(rows.size) * other.n
        if rows.size == 0:
            return np.zeros((0, other.n))
        return self._cross(dataset, rows, other)

    @property
    def spec_string(self) -> str:
        raise NotImplementedError


def _aligned_products(a, rows, b):
    """Inner products between rows of dataset a and all of dataset b."""
    m = min(a.dimension, b.dimension)
    return (a.matrix[rows, :m] @ b.matrix[:, :m].T).toarray()


class LinearKernel(KernelOracle):
    def _pair(self, a, i, b, j):
        if a is b and i == j:
            return float(a.norms[i])
        return _dot(a, i, b, j)

    def _row(self, dataset, j):
        return dataset.matrix @ _dense(dataset, j)

    def _row_at(self, dataset, j, rows):
        return _products_at(dataset, j, rows)

    def _diag(self, dataset):
        return dataset.norms.copy()

    def _cross(self, dataset, rows, other):
        return _aligned_products(dataset, rows, other)

    @property
    def spec_string(self):
        return "linear"


class GaussianKernel(KernelOracle):
    """K(x, x') = exp(-||x - x'||^2 / (2 sigma^2)), values in (0, 1].

    Squared distances use precomputed self-norms, so each evaluation costs
    one d-dimensional inner product.
    """

    def __init__(self, sigma_sq: float):
        super().__init__()
        if not sigma_sq > 0:
            raise ValueError("sigma_sq must be positive")
        self.sigma_sq = float(sigma_sq)

    def _gauss(self, d2):
        return np.exp(-np.maximum(d2, 0.0) / (2.0 * self.sigma_sq))

    def _pair(self, a, i, b, j):
        if a is b and i == j:
            return 1.0  # self-distance is zero by definition
        d2 = a.norms[i] + b.norms[j] - 2.0 * _dot(a, i, b, j)
        return float(self._gauss(d2))

    def _row(self, dataset, j):
        d2 = dataset.norms + dataset.norms[j] - 2.0 * (dataset.matrix @ _dense(dataset, j))
        d2[j] = 0.0  # self-distance is zero by definition
        return self._gauss(d2)

    def _row_at(self, dataset, j, rows):
        d2 = (dataset.norms[rows] + dataset.norms[j]
              - 2.0 * _products_at(dataset, j, rows))
        d2[rows == j] = 0.0  # self-distance is zero, as in _row
        return self._gauss(d2)

    def _diag(self, dataset):
        return np.ones(dataset.n)

    def _cross(self, dataset, rows, other):
        d2 = (dataset.norms[rows][:, None] + other.norms[None, :]
              - 2.0 * _aligned_products(dataset, rows, other))
        return self._gauss(d2)

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
