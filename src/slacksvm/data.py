"""Dataset ingestion (LIBSVM/SVM-light sparse text), synthetic generators, loss evaluation."""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


class DataError(ValueError):
    """Malformed input data or an infeasible synthetic specification."""


class SparseExample:
    """A labeled sparse feature vector.

    Indices are 0-based and strictly ascending; explicit zeros are never
    stored; the label is -1 or +1. The squared norm is cached at
    construction so kernels never pay for it, and must be finite: that
    rejects nan and inf values, and values whose squares overflow.
    """

    __slots__ = ("indices", "values", "label", "norm_sq")

    def __init__(self, indices, values, label):
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if indices.ndim != 1 or indices.shape != values.shape:
            raise DataError("indices and values must be 1-D and the same length")
        if indices.size:
            if indices[0] < 0:
                raise DataError("feature indices must be non-negative")
            if np.any(np.diff(indices) <= 0):
                raise DataError("feature indices must be strictly ascending")
        if np.any(values == 0.0):
            raise DataError("explicit zero values must not be stored")
        if label not in (-1, 1):
            raise DataError(f"label must be -1 or +1, got {label!r}")
        self.indices = indices
        self.values = values
        self.label = int(label)
        self.norm_sq = float(values @ values)
        if not math.isfinite(self.norm_sq):
            raise DataError("feature values must be finite with a finite squared norm")

    def dense(self, dimension: int) -> np.ndarray:
        out = np.zeros(dimension)
        out[self.indices] = self.values
        return out

    def __eq__(self, other):
        return (
            isinstance(other, SparseExample)
            and self.label == other.label
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self):
        return f"SparseExample(nnz={self.indices.size}, label={self.label:+d})"


class Dataset:
    """An ordered, nonempty collection of SparseExamples."""

    def __init__(self, examples, dimension=None):
        examples = list(examples)
        if not examples:
            raise DataError("dataset must be nonempty")
        max_id = -1
        for e in examples:
            if e.indices.size:
                max_id = max(max_id, int(e.indices[-1]))
        self.examples = examples
        self.dimension = int(dimension) if dimension is not None else max(max_id + 1, 1)
        if self.dimension < max_id + 1:
            raise DataError("dimension smaller than the largest feature index")
        self.labels = np.array([e.label for e in examples], dtype=np.float64)
        self.norms = np.array([e.norm_sq for e in examples], dtype=np.float64)
        self._matrix = None

    @property
    def n(self) -> int:
        return len(self.examples)

    def __len__(self):
        return len(self.examples)

    def __eq__(self, other):
        return (
            isinstance(other, Dataset)
            and len(self) == len(other)
            and all(a == b for a, b in zip(self.examples, other.examples))
        )

    @property
    def class_counts(self):
        pos = int(np.sum(self.labels > 0))
        return {+1: pos, -1: self.n - pos}

    @property
    def matrix(self) -> sp.csr_matrix:
        """CSR matrix of the feature vectors, built once on first use."""
        if self._matrix is None:
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            for i, e in enumerate(self.examples):
                indptr[i + 1] = indptr[i] + e.indices.size
            idx = np.concatenate([e.indices for e in self.examples]) if indptr[-1] else np.empty(0, np.int64)
            val = np.concatenate([e.values for e in self.examples]) if indptr[-1] else np.empty(0, np.float64)
            self._matrix = sp.csr_matrix((val, idx, indptr), shape=(self.n, self.dimension))
        return self._matrix


def _as_lines(source):
    if isinstance(source, str):
        return io.StringIO(source)
    return source


def parse_libsvm(source, positive_class=None) -> Dataset:
    """Parse LIBSVM/SVM-light sparse text into a Dataset.

    Each data line is ``label idx:val idx:val ...`` with 1-based, strictly
    ascending indices. Labels may be ``+1/-1`` or ``0/1`` (0 maps to -1);
    any other label set requires ``positive_class`` for an explicit
    one-vs-rest mapping. Blank lines and ``#`` comments are skipped; CRLF
    is accepted.
    """
    examples = []
    target = float(positive_class) if positive_class is not None else None
    for lineno, raw in enumerate(_as_lines(source), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        try:
            raw_label = float(tokens[0])
        except ValueError:
            raise DataError(f"line {lineno}: unreadable label {tokens[0]!r}")
        if target is not None:
            label = 1 if raw_label == target else -1
        elif raw_label in (1.0, -1.0):
            label = int(raw_label)
        elif raw_label == 0.0:
            label = -1
        else:
            raise DataError(
                f"line {lineno}: label {tokens[0]!r} is not binary; "
                "use positive_class for one-vs-rest mapping"
            )
        indices, values = [], []
        prev = 0
        for tok in tokens[1:]:
            try:
                idx_s, val_s = tok.split(":", 1)
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise DataError(f"line {lineno}: malformed feature {tok!r}")
            if not math.isfinite(val):
                raise DataError(f"line {lineno}: non-finite feature value {tok!r}")
            if idx < 1:
                raise DataError(f"line {lineno}: feature index {idx} is not positive")
            if idx <= prev:
                raise DataError(f"line {lineno}: non-ascending feature index {idx}")
            prev = idx
            if val != 0.0:
                indices.append(idx - 1)
                values.append(val)
        try:
            examples.append(SparseExample(indices, values, label))
        except DataError as exc:
            raise DataError(f"line {lineno}: {exc}") from None
    if not examples:
        raise DataError("no examples found")
    return Dataset(examples)


def serialize_libsvm(dataset: Dataset) -> str:
    """Inverse of parse_libsvm; floats use shortest round-trip decimals."""
    lines = []
    for e in dataset.examples:
        feats = " ".join(f"{i + 1}:{float(v)!r}" for i, v in zip(e.indices, e.values))
        label = "+1" if e.label > 0 else "-1"
        lines.append(f"{label} {feats}".rstrip())
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SyntheticSpec:
    """Seed-deterministic synthetic dataset description.

    Kinds: ``two_gaussians`` (separation, noise_rate), ``xor_ring``, and
    ``margin_separable`` (margin, radius; guarantees a unit-norm separator
    with at least the requested margin).
    """

    kind: str
    n: int
    dimension: int = 2
    seed: int = 0
    separation: float = 2.0
    noise_rate: float = 0.0
    margin: float = 0.5
    radius: float = 1.0


def _to_sparse(row: np.ndarray, label: int) -> SparseExample:
    nz = np.flatnonzero(row)
    return SparseExample(nz, row[nz], label)


def generate(spec: SyntheticSpec) -> Dataset:
    """Build the dataset described by spec, deterministically in the seed."""
    if spec.n < 1 or spec.dimension < 1:
        raise DataError("n and dimension must be positive")
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "two_gaussians":
        if spec.separation <= 0 or not 0 <= spec.noise_rate < 1:
            raise DataError("two_gaussians needs separation > 0 and noise_rate in [0, 1)")
        labels = np.where(rng.random(spec.n) < 0.5, 1, -1)
        x = rng.standard_normal((spec.n, spec.dimension))
        x[:, 0] += labels * (spec.separation / 2.0)
        flip = rng.random(spec.n) < spec.noise_rate
        labels = np.where(flip, -labels, labels)
        return Dataset([_to_sparse(x[i], int(labels[i])) for i in range(spec.n)],
                       dimension=spec.dimension)
    if spec.kind == "xor_ring":
        if spec.dimension < 2:
            raise DataError("xor_ring needs dimension >= 2")
        theta = rng.uniform(0.0, 2.0 * np.pi, spec.n)
        radius = rng.uniform(0.8, 1.2, spec.n)
        x = 0.05 * rng.standard_normal((spec.n, spec.dimension))
        x[:, 0] += radius * np.cos(theta)
        x[:, 1] += radius * np.sin(theta)
        prods = x[:, 0] * x[:, 1]
        labels = np.where(prods > 0, 1, -1)
        return Dataset([_to_sparse(x[i], int(labels[i])) for i in range(spec.n)],
                       dimension=spec.dimension)
    if spec.kind == "margin_separable":
        if not 0 < spec.margin < spec.radius:
            raise DataError("margin_separable needs 0 < margin < radius")
        # Build against u = e1, then rotate by a random orthogonal matrix.
        labels = np.where(rng.random(spec.n) < 0.5, 1, -1)
        m1 = rng.uniform(spec.margin, spec.radius, spec.n)
        x = np.zeros((spec.n, spec.dimension))
        x[:, 0] = labels * m1
        if spec.dimension > 1:
            rest = rng.standard_normal((spec.n, spec.dimension - 1))
            rest /= np.maximum(np.linalg.norm(rest, axis=1, keepdims=True), 1e-30)
            room = np.sqrt(np.maximum(spec.radius**2 - m1**2, 0.0))
            x[:, 1:] = rest * (rng.random(spec.n) * room)[:, None]
        q, _ = np.linalg.qr(rng.standard_normal((spec.dimension, spec.dimension)))
        x = x @ q.T
        u = q[:, 0]
        margins = labels * (x @ u)
        if margins.min() < spec.margin - 1e-9:
            raise DataError("margin construction failed verification")
        return Dataset([_to_sparse(x[i], int(labels[i])) for i in range(spec.n)],
                       dimension=spec.dimension)
    raise DataError(f"unknown synthetic kind {spec.kind!r}")


def evaluate(model, dataset: Dataset, kernel):
    """Mean hinge loss and 0/1 error of model on dataset.

    A score of exactly zero counts as an error. Kernel cost is
    support_size * len(dataset) on the supplied oracle's counter.
    """
    from .model import score_batch

    scores = score_batch(model, dataset, kernel)
    margins = dataset.labels * scores
    hinge = float(np.mean(np.maximum(0.0, 1.0 - margins)))
    zero_one = float(np.mean(margins <= 0.0))
    return hinge, zero_one
