"""Dataset ingestion (LIBSVM/SVM-light sparse text), synthetic generators, hinge loss."""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


class DataError(ValueError):
    """Malformed input data or an infeasible synthetic specification.

    ``row`` is the index of the offending dataset row when there is one, and
    ``reason`` the message without its row prefix.
    """

    def __init__(self, reason, row=None):
        super().__init__(reason if row is None else f"row {row}: {reason}")
        self.reason = reason
        self.row = row


def _first(bad, rows, reason):
    """Raise reason for the row of the first True entry of bad, if any."""
    hits = np.flatnonzero(bad)
    if hits.size:
        raise DataError(reason, int(rows[hits[0]]))


# The largest squared row norm: under it, n_i + n_j and 2 <x_i, x_j> are
# both finite, so a squared distance is never inf - inf.
_MAX_NORM = np.finfo(np.float64).max / 4


class Dataset:
    """A nonempty, ordered set of labeled sparse rows held as CSR arrays.

    Row i has the values ``values[indptr[i]:indptr[i + 1]]`` at the 0-based
    feature indices ``indices[indptr[i]:indptr[i + 1]]``. The constructor
    checks that indices are non-negative and strictly ascending within each
    row, that no explicit zero is stored, that labels are -1 or +1, and that
    ``dimension`` is above the largest index. ``norms[i]``, the squared norm
    of row i summed in storage order, is cached so kernels never pay for
    it, and must be at most _MAX_NORM: that rejects nan and inf values and
    values whose squares overflow, and keeps ``norms[i] + norms[j] - 2
    <x_i, x_j>`` finite for any two rows, in one dataset or two. Dense
    data, with at least half of its n x dimension entries stored, also
    keeps ``_dense``, the entries as one C-contiguous n x dimension array,
    whose rows the kernels multiply through BLAS; on sparse data it is
    None, so no dense copy is held. ``compact``, the one sparse layout,
    and its transpose ``transposed`` are built on first use and kept.
    """

    def __init__(self, indptr, indices, values, labels, dimension=None):
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        labels = np.array(labels, dtype=np.float64)  # a copy: it may be another dataset's
        n = labels.size
        if n == 0:
            raise DataError("dataset must be nonempty")
        if (labels.ndim != 1 or indptr.shape != (n + 1,) or indices.ndim != 1
                or indices.shape != values.shape or indptr[0] != 0
                or indptr[-1] != indices.size or np.any(np.diff(indptr) < 0)):
            raise DataError("indptr, indices, values and labels do not form CSR rows")
        rows = np.repeat(np.arange(n), np.diff(indptr))
        _first(indices < 0, rows, "feature indices must be non-negative")
        _first((np.diff(indices) <= 0) & (rows[1:] == rows[:-1]), rows,
               "feature indices must be strictly ascending")
        _first(values == 0.0, rows, "explicit zero values must not be stored")
        bad = np.flatnonzero((labels != 1.0) & (labels != -1.0))
        if bad.size:
            raise DataError(f"label must be -1 or +1, got {float(labels[bad[0]])!r}",
                            int(bad[0]))
        # Each squared norm is summed term after term from 0.0 in storage
        # order, as scipy sums a sparse row's products, so a sparse row's own
        # product is its norm; BLAS sums a dense row in its own order, which
        # may round otherwise.
        with np.errstate(over="ignore", invalid="ignore"):
            norms = np.bincount(rows, weights=values * values, minlength=n)
        norms = norms.astype(np.float64, copy=False)  # no entries: integer zeros
        _first(~(norms <= _MAX_NORM), np.arange(n), "feature values must be finite "
               f"with a squared norm of at most {_MAX_NORM:.4g}")
        max_id = int(indices.max()) if indices.size else -1
        self.dimension = int(dimension) if dimension is not None else max(max_id + 1, 1)
        if self.dimension < max_id + 1:
            raise DataError("dimension smaller than the largest feature index")
        self.indptr, self.indices, self.values = indptr, indices, values
        self.labels, self.norms = labels, norms
        self._dense = None
        if 2 * indices.size >= n * self.dimension:
            self._dense = np.zeros((n, self.dimension))
            self._dense[rows, indices] = values
        self._compact = self._transposed = None

    @classmethod
    def from_dense(cls, x, labels) -> Dataset:
        """The rows of the 2-D array x with their zeros dropped."""
        x = np.asarray(x, dtype=np.float64)
        stored = x != 0.0
        indptr = np.zeros(x.shape[0] + 1, dtype=np.int64)
        np.cumsum(stored.sum(axis=1), out=indptr[1:])
        return cls(indptr, np.nonzero(stored)[1], x[stored], labels, dimension=x.shape[1])

    @property
    def n(self) -> int:
        return self.labels.size

    @property
    def matrix(self) -> sp.csr_matrix:
        """The arrays as scipy CSR over all ``dimension`` columns, wrapped on
        every read: no library path reads it, only the tests and perfbench."""
        return sp.csr_matrix((self.values, self.indices, self.indptr),
                             shape=(self.n, self.dimension))

    @property
    def compact(self) -> tuple:
        """(features, rows): the distinct stored features, ascending, and the
        rows as CSR over them, from one np.unique on first use and kept: the
        layout of every sparse product and of the Fourier projection."""
        if self._compact is None:
            features, at = np.unique(self.indices, return_inverse=True)
            self._compact = features, sp.csr_matrix(
                (self.values, at, self.indptr), shape=(self.n, features.size))
        return self._compact

    @property
    def transposed(self) -> sp.csr_matrix:
        """The compact rows transposed to CSR, one row a stored feature,
        built on first use and kept: the right factor of every sparse
        product with this dataset."""
        if self._transposed is None:
            self._transposed = self.compact[1].T.tocsr()
        return self._transposed


def _as_lines(source):
    if isinstance(source, str):
        return io.StringIO(source)
    return source


_MAX_FEATURE_INDEX = 2**31 - 1  # a LIBSVM index is a C int


def parse_libsvm(source, positive_class=None) -> Dataset:
    """Parse LIBSVM/SVM-light sparse text into a Dataset.

    Each data line is ``label idx:val idx:val ...`` with 1-based, strictly
    ascending indices of at most _MAX_FEATURE_INDEX. Labels may be ``+1/-1``
    or ``0/1`` (0 maps to -1); any other label set requires
    ``positive_class``, a finite label, for an explicit one-vs-rest
    mapping (a non-finite one raises ValueError, and one that matches no
    line's label DataError). A ``#`` starts
    a comment that runs to the end of its line, as SVM-light's ``<features>
    # <info>``; blank lines are skipped and CRLF is accepted. Before its
    comment a line is ASCII without ``_``, so that a number reads as C's
    strtol and strtod read it.
    """
    indptr, indices, values, labels, linenos = [0], [], [], [], []
    target = float(positive_class) if positive_class is not None else None
    if target is not None and not math.isfinite(target):
        raise ValueError(f"positive_class must be finite, got {target!r}")
    for lineno, raw in enumerate(_as_lines(source), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        # Python's int and float also read '_' between digits and non-ASCII
        # digits, which LIBSVM's strtol and strtod do not.
        if not line.isascii() or "_" in line:
            bad = next(ch for ch in line if ch == "_" or not ch.isascii())
            raise DataError(f"line {lineno}: {bad!r} is not part of a LIBSVM number")
        tokens = line.split()
        try:
            raw_label = float(tokens[0])
        except ValueError:
            raise DataError(f"line {lineno}: unreadable label {tokens[0]!r}")
        if not math.isfinite(raw_label):
            raise DataError(f"line {lineno}: non-finite label {tokens[0]!r}")
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
            if idx <= prev:  # prev starts at 0
                if idx < 1:
                    raise DataError(f"line {lineno}: feature index {idx} is not positive")
                raise DataError(f"line {lineno}: non-ascending feature index {idx}")
            prev = idx
            if val != 0.0:
                indices.append(idx - 1)
                values.append(val)
        if prev > _MAX_FEATURE_INDEX:  # the line's largest index
            raise DataError(f"line {lineno}: feature index {prev} is above {_MAX_FEATURE_INDEX}")
        indptr.append(len(indices))
        labels.append(label)
        linenos.append(lineno)
    if not labels:
        raise DataError("no examples found")
    if target is not None and 1 not in labels:
        raise DataError(f"positive_class {target!r} matches no label")
    try:
        return Dataset(indptr, indices, values, labels)
    except DataError as exc:
        if exc.row is None:
            raise
        raise DataError(f"line {linenos[exc.row]}: {exc.reason}") from None


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


def generate(spec: SyntheticSpec) -> Dataset:
    """Build the dataset described by spec, deterministically in the seed."""
    if spec.n < 1 or spec.dimension < 1:
        raise DataError("n and dimension must be positive")
    if spec.seed < 0:
        raise DataError(f"seed must be a non-negative integer, got {spec.seed}")
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "two_gaussians":
        if spec.separation <= 0 or not 0 <= spec.noise_rate < 1:
            raise DataError("two_gaussians needs separation > 0 and noise_rate in [0, 1)")
        labels = np.where(rng.random(spec.n) < 0.5, 1, -1)
        x = rng.standard_normal((spec.n, spec.dimension))
        x[:, 0] += labels * (spec.separation / 2.0)
        flip = rng.random(spec.n) < spec.noise_rate
        labels = np.where(flip, -labels, labels)
        return Dataset.from_dense(x, labels)
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
        return Dataset.from_dense(x, labels)
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
        return Dataset.from_dense(x, labels)
    raise DataError(f"unknown synthetic kind {spec.kind!r}")


def hinge_loss(margins) -> float:
    """Mean hinge loss max(0, 1 - margin) of the margins; nan for None."""
    return math.nan if margins is None else float(np.mean(np.maximum(0.0, 1.0 - margins)))
