"""Random Fourier features approximating the Gaussian kernel.

Each example maps to a 2k-dimensional feature vector built from k random
directions; inner products of mapped vectors approximate
K(x, x') = exp(-||x - x'||^2 / (2 sigma^2)). Mapping one example costs k
d-dimensional inner products, which is the unit the linearized pipeline
reports instead of kernel evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .recording import check_seed


@dataclass
class FourierMap:
    """Frozen random directions plus a counter of inner products spent.

    The mapped feature dimension is 2k for k directions: one cosine and one
    sine coordinate per direction.
    """

    directions: np.ndarray  # shape (k, original dimension)
    sigma_sq: float
    inner_product_count: int = 0

    @property
    def k(self) -> int:
        return self.directions.shape[0]


def make_fourier_map(k: int, dim: int, sigma_sq: float, seed: int) -> FourierMap:
    if k < 1:
        raise ValueError("direction count must be positive")
    if not 0 < sigma_sq < np.inf:
        raise ValueError("sigma_sq must be positive and finite")
    if dim < 1:
        raise ValueError("dimension must be positive")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    return FourierMap(directions=rng.standard_normal((k, dim)), sigma_sq=sigma_sq)


def _project(fmap: FourierMap, mat, dim: int) -> np.ndarray:
    m = min(dim, fmap.directions.shape[1])
    return np.asarray(mat[:, :m] @ fmap.directions[:, :m].T) / np.sqrt(fmap.sigma_sq)


def _interleave(proj: np.ndarray, k: int) -> np.ndarray:
    # Coordinate 2i is cos(<v_i, x>/sigma)/sqrt(k), 2i+1 the matching sin,
    # so every mapped vector has exactly unit norm and the expectation of
    # <P(x), P(x')> over the directions is the Gaussian kernel value.
    out = np.empty(proj.shape[:-1] + (2 * k,))
    out[..., 0::2] = np.cos(proj) / np.sqrt(k)
    out[..., 1::2] = np.sin(proj) / np.sqrt(k)
    return out


def fourier_features_batch(fmap: FourierMap, dataset: Dataset) -> np.ndarray:
    """Map every example at once; costs k inner products per example."""
    fmap.inner_product_count += fmap.k * dataset.n
    proj = _project(fmap, dataset.matrix, dataset.dimension)
    return _interleave(proj, fmap.k)


def linearize(fmap: FourierMap, dataset: Dataset) -> Dataset:
    """Mapped copy of the dataset, ready for any linear-kernel solver."""
    return Dataset.from_dense(fourier_features_batch(fmap, dataset), dataset.labels)
