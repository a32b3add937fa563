"""Kernel oracles with black-box access semantics and exact evaluation counting."""

from __future__ import annotations

import numpy as np

from .data import Dataset, SparseExample


def _sparse_dot(a: SparseExample, b: SparseExample) -> float:
    _, ca, cb = np.intersect1d(a.indices, b.indices, assume_unique=True,
                               return_indices=True)
    return float(a.values[ca] @ b.values[cb])


class KernelOracle:
    """Base kernel wrapper.

    Every counted access goes through pair/row/diag/cross, which bump
    eval_count by the exact number of kernel evaluations performed. The
    counter only ever increases; it is the cost unit all solvers report.
    """

    def __init__(self):
        self.eval_count = 0

    def pair(self, a: SparseExample, b: SparseExample) -> float:
        self.eval_count += 1
        return self._pair(a, b)

    def row(self, dataset: Dataset, j: int, rows=None) -> np.ndarray:
        """[K(x_i, x_j)]_i over the whole dataset (n evaluations), or over
        the indices i in rows only (len(rows) evaluations)."""
        if not 0 <= j < dataset.n:
            raise IndexError(f"row index {j} out of range")
        if rows is None:
            self.eval_count += dataset.n
            return self._row(dataset, j)
        rows = np.asarray(rows, dtype=np.int64)
        self.eval_count += int(rows.size)
        return self._row_at(dataset, j, rows)

    def diag(self, dataset: Dataset) -> np.ndarray:
        """[K(x_i, x_i)]_i; costs n evaluations."""
        self.eval_count += dataset.n
        return self._diag(dataset)

    def cross(self, dataset: Dataset, rows, other: Dataset) -> np.ndarray:
        """K between dataset[rows] and every example of other.

        Costs len(rows) * len(other) evaluations. Shape (len(rows), other.n).
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
    def _pair(self, a, b):
        return _sparse_dot(a, b)

    def _row(self, dataset, j):
        xj = dataset.examples[j].dense(dataset.dimension)
        return dataset.matrix @ xj

    def _row_at(self, dataset, j, rows):
        return dataset.matrix[rows] @ dataset.examples[j].dense(dataset.dimension)

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

    def _pair(self, a, b):
        d2 = a.norm_sq + b.norm_sq - 2.0 * _sparse_dot(a, b)
        return float(self._gauss(d2))

    def _row(self, dataset, j):
        xj = dataset.examples[j]
        d2 = dataset.norms + xj.norm_sq - 2.0 * (dataset.matrix @ xj.dense(dataset.dimension))
        d2[j] = 0.0  # self-distance is zero by definition
        return self._gauss(d2)

    def _row_at(self, dataset, j, rows):
        # Computed like pair and cross: no self-distance override.
        xj = dataset.examples[j]
        d2 = (dataset.norms[rows] + xj.norm_sq
              - 2.0 * (dataset.matrix[rows] @ xj.dense(dataset.dimension)))
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
