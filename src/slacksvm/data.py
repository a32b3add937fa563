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


_MAX_FEATURE_INDEX = 2**31 - 1  # a LIBSVM index is a C int
_BLOCK_CHARS = 1 << 18  # text read per block, about 256 KB

# The kind of each byte of a block: a space of str.split, the colon, a
# character of an index (a digit or a sign), or any other.
_SPACES = b"\t\n\v\f\r\x1c\x1d\x1e\x1f "
_SPACE, _COLON, _INDEX, _OTHER = range(4)
_KINDS = bytes(_SPACE if byte in _SPACES else _COLON if byte == ord(":")
               else _INDEX if byte in b"0123456789+-" else _OTHER for byte in range(256))
# np.fromstring reads numbers apart by " ", and not every str.split space.
_TO_SPACES = bytes.maketrans(_SPACES + b":", b" " * (len(_SPACES) + 1))


def _check_line(lineno, raw, target):
    """Raise the DataError of the first rule of the format that the line
    raw, numbered lineno, breaks; return None if it breaks none.

    These are the per-line rules, read token by token: they name the bad
    line of a block that failed _read_block's checks."""
    line = raw.partition("#")[0].strip()
    if not line:
        return
    # Python's int and float also read '_' between digits and non-ASCII
    # digits, which LIBSVM's strtol and strtod do not.
    if not line.isascii() or "_" in line:
        bad = next(ch for ch in line if ch == "_" or not ch.isascii())
        raise DataError(f"line {lineno}: {bad!r} is not part of a LIBSVM number")
    tokens = line.split()
    try:
        label = float(tokens[0])
    except ValueError:
        raise DataError(f"line {lineno}: unreadable label {tokens[0]!r}") from None
    if not math.isfinite(label):
        raise DataError(f"line {lineno}: non-finite label {tokens[0]!r}")
    if target is None and label not in (1.0, -1.0, 0.0):
        raise DataError(f"line {lineno}: label {tokens[0]!r} is not binary; "
                        "use positive_class for one-vs-rest mapping")
    prev = 0
    for tok in tokens[1:]:
        try:
            idx_s, val_s = tok.split(":", 1)
            idx = int(idx_s)
            val = float(val_s)
        except ValueError:
            raise DataError(f"line {lineno}: malformed feature {tok!r}") from None
        if not math.isfinite(val):
            raise DataError(f"line {lineno}: non-finite feature value {tok!r}")
        if idx <= prev:  # prev starts at 0
            if idx < 1:
                raise DataError(f"line {lineno}: feature index {idx} is not positive")
            raise DataError(f"line {lineno}: non-ascending feature index {idx}")
        prev = idx
    if prev > _MAX_FEATURE_INDEX:  # the line's largest index
        raise DataError(f"line {lineno}: feature index {prev} is above {_MAX_FEATURE_INDEX}")


def _read_block(lines, lineno, target):
    """(labels, row lengths, indices, values, line numbers) of the rows of
    lines, the first numbered lineno, with 0-based indices and explicit
    zeros dropped; the DataError of _check_line for the first bad line."""
    text = "\n".join(["", *lines, ""])
    if "#" in text or not text.isascii():
        # Cut comments, and the non-ASCII spaces that may pad a line, as the
        # line rules do.
        lines = [raw.partition("#")[0].strip() for raw in lines]
        text = "\n".join(["", *lines, ""])
    # Line k ends at the "\n" after it; it may hold "\n" itself.
    ends = (np.fromiter(map(len, lines), np.int64, len(lines)) + 1).cumsum()
    # Past ASCII, a character is read as "?", which breaks a rule as it does.
    rows = _scan(text.encode("ascii", "replace"), ends, target)
    if rows is None:
        for k, raw in enumerate(lines, lineno):
            _check_line(k, raw, target)
        raise RuntimeError(f"lines {lineno}-{k}: the block checks and the line rules disagree")
    labels, counts, indices, values, rows_at = rows
    return labels, counts, indices, values, rows_at + lineno


def _scan(data, ends, target):
    """_read_block's rows of data, ASCII bytes that start with a space and
    whose line k ends at the space ends[k]; None if a line breaks a rule.

    Numpy passes find the fields, the runs of bytes between spaces and
    colons, and check their shape: each line is a label and then index:value
    pairs, and an index holds only digits and signs. np.fromstring
    then reads every field with the strtod of float, which keeps each
    value's bits, and stops at a field that float would not read.
    """
    kind = np.frombuffer(data.translate(_KINDS), np.uint8)
    apart = kind <= _COLON
    bounds = (apart[1:] != apart[:-1]).nonzero()[0] + 1
    lo, hi = bounds[0::2], bounds[1::2]
    count = lo.searchsorted(ends)  # fields up to the end of each line
    count[1:] -= count[:-1]  # fields on each line
    rows_at = count.nonzero()[0]
    widths = count[rows_at]
    if not (widths & 1).all():
        return None
    first = widths.cumsum() - widths  # each row's label
    pair = np.ones(lo.size, bool)
    pair[first] = False
    index, value = pair.nonzero()[0].reshape(-1, 2).T
    if (np.count_nonzero(kind == _COLON) != index.size or (kind[hi[index]] != _COLON).any()
            or (lo[value] - hi[index] != 1).any()):
        return None
    # The bytes of every index, which strtol reads whole.
    width = hi[index] - lo[index]
    at = np.arange(width.sum()) + (lo[index] - width.cumsum() + width).repeat(width)
    if (kind[at] == _OTHER).any():
        return None
    try:
        # Text of spaces alone reads as [-1.0].
        numbers = np.fromstring(data.translate(_TO_SPACES), sep=" ") if lo.size else np.zeros(0)
    except ValueError:  # numpy 2: text that is not a number
        return None
    # numpy 1 reads up to text that is not a number.
    if numbers.size != lo.size or not np.isfinite(numbers).all():
        return None
    labels, ids, values = numbers[first], numbers[index], numbers[value]
    if target is not None:
        labels = np.where(labels == target, 1.0, -1.0)
    elif ((labels == 1.0) | (labels == -1.0) | (labels == 0.0)).all():
        labels = np.where(labels == 1.0, 1.0, -1.0)
    else:
        return None
    row = np.arange(first.size).repeat(widths // 2)
    if (not ((ids >= 1.0) & (ids <= _MAX_FEATURE_INDEX)).all()
            or ((ids[1:] <= ids[:-1]) & (row[1:] == row[:-1])).any()):
        return None
    keep = values != 0.0
    return (labels, np.bincount(row[keep], minlength=first.size),
            ids[keep].astype(np.int64) - 1, values[keep], rows_at)


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

    source is a str or a text stream, read in blocks of
    readlines(_BLOCK_CHARS); line k is the k-th line it yields, so a str
    breaks lines at "\n" alone and a file as its newline mode does. Numpy
    passes check each block's structure and one np.fromstring reads all its
    numbers with the strtod that float uses. A block that breaks a rule is
    read again line by line by _check_line, which raises the DataError of
    its first bad line.
    """
    target = float(positive_class) if positive_class is not None else None
    if target is not None and not math.isfinite(target):
        raise ValueError(f"positive_class must be finite, got {target!r}")
    if isinstance(source, str):
        source = io.StringIO(source)
    parts, lineno = [], 1
    while lines := source.readlines(_BLOCK_CHARS):
        parts.append(_read_block(lines, lineno, target))
        lineno += len(lines)
    if not sum(part[0].size for part in parts):
        raise DataError("no examples found")
    labels, counts, indices, values, linenos = map(np.concatenate, zip(*parts))
    if target is not None and not (labels == 1.0).any():
        raise DataError(f"positive_class {target!r} matches no label")
    indptr = np.zeros(labels.size + 1, np.int64)
    counts.cumsum(out=indptr[1:])
    try:
        return Dataset(indptr, indices, values, labels)
    except DataError as exc:
        if exc.row is None:
            raise
        raise DataError(f"line {int(linenos[exc.row])}: {exc.reason}") from None


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
