"""Trained kernel-expansion models: scoring and flat-text serialization."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, hinge_loss
from .kernels import kernel_from_spec


class SolverError(RuntimeError):
    """A training run could not produce a valid model."""


@dataclass
class TrainedModel:
    """Predictor x -> sum_j alpha_j y_j K(x_j, x) + bias.

    alpha is indexed over the backing training dataset; only nonzero
    entries are support vectors (and are what gets serialized).
    """

    alpha: np.ndarray
    bias: float
    dataset: Dataset  # the training set the coefficients refer to
    kernel_spec: str
    use_bias: bool
    kernel_evals: int

    @property
    def support_size(self) -> int:
        return int(np.count_nonzero(self.alpha))

    def support_indices(self) -> np.ndarray:
        return np.flatnonzero(self.alpha)


def score_batch(model: TrainedModel, dataset, kernel) -> np.ndarray:
    """Raw scores on every example of dataset; costs support_size * n evals.
    Memory does not grow with the support: kernel.scores reduces the kernel
    values a block of support rows at a time."""
    sv = model.support_indices()
    coef = model.alpha[sv] * model.dataset.labels[sv]
    return kernel.scores(model.dataset, sv, coef, dataset) + model.bias


def evaluate(model: TrainedModel, dataset: Dataset, kernel):
    """Mean hinge loss and 0/1 error of model on dataset.

    A score of exactly zero counts as an error. Kernel cost is
    support_size * dataset.n on the supplied oracle's counter.
    """
    margins = dataset.labels * score_batch(model, dataset, kernel)
    return hinge_loss(margins), float(np.mean(margins <= 0.0))


def score(model: TrainedModel, dataset: Dataset, i: int, kernel) -> float:
    """Score row i of dataset through score_batch; support_size evaluations."""
    if not 0 <= i < dataset.n:
        raise IndexError(f"row index {i} out of range")
    lo, hi = dataset.indptr[i], dataset.indptr[i + 1]
    row = Dataset([0, hi - lo], dataset.indices[lo:hi], dataset.values[lo:hi],
                  dataset.labels[i:i + 1], dimension=dataset.dimension)
    return float(score_batch(model, row, kernel)[0])


def serialize_model(model: TrainedModel) -> str:
    """Header line, then one `index alpha y` line per nonzero coefficient.

    Field order is fixed and floats use shortest round-trip decimals, so
    identical models produce identical bytes.
    """
    header = (f"n={model.dataset.n} kernel={model.kernel_spec} "
              f"use_bias={int(model.use_bias)} bias={float(model.bias)!r}")
    lines = [header]
    for j in model.support_indices():
        y = int(model.dataset.labels[j])
        lines.append(f"{j} {float(model.alpha[j])!r} {y:+d}")
    return "\n".join(lines) + "\n"


def save_model(model: TrainedModel, path):
    with open(path, "w", newline="\n") as fh:
        fh.write(serialize_model(model))


def deserialize_model(text: str, dataset: Dataset) -> TrainedModel:
    """Inverse of serialize_model, for the training set dataset that the
    coefficients index; checked against its size and labels. Text not in
    that format, or a header no run writes (an unknown kernel, a nonzero
    bias without use_bias), raises ValueError naming its line."""
    lines = [(k, ln) for k, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise ValueError("model text is empty")
    try:
        fields = dict(item.split("=", 1) for item in lines[0][1].split())
        n, bias, kernel_spec = int(fields["n"]), float(fields["bias"]), fields["kernel"]
        kernel_from_spec(kernel_spec)
        if (n < 1 or not math.isfinite(bias) or fields["use_bias"] not in ("0", "1")
                or fields["use_bias"] == "0" and bias != 0.0):
            raise ValueError
    except (KeyError, ValueError):
        raise ValueError(f"line {lines[0][0]}: expected the header 'n=N kernel=SPEC "
                         "use_bias=0|1 bias=B', N positive, SPEC a kernel spec and B "
                         "finite, 0 when use_bias=0") from None
    if dataset.n != n:
        raise ValueError("model does not match the dataset size")
    alpha = np.zeros(n)
    labels = np.zeros(n)
    for lineno, ln in lines[1:]:
        try:
            idx_s, a_s, y_s = ln.split()
            j, a, y = int(idx_s), float(a_s), int(y_s)
            if not (0 <= j < n and math.isfinite(a) and y in (1, -1)):
                raise ValueError
        except ValueError:
            raise ValueError(f"line {lineno}: expected 'index alpha label', index "
                             f"in 0..{n - 1}, alpha finite, label +1 or -1") from None
        if labels[j]:
            raise ValueError(f"line {lineno}: index {j} appears twice")
        alpha[j], labels[j] = a, y
    sv = np.flatnonzero(alpha)
    if not np.array_equal(labels[sv], dataset.labels[sv]):
        raise ValueError("model labels disagree with the dataset")
    return TrainedModel(
        alpha=alpha,
        bias=bias,
        dataset=dataset,
        kernel_spec=kernel_spec,
        use_bias=fields["use_bias"] == "1",
        kernel_evals=0,
    )


def load_model(path, dataset: Dataset) -> TrainedModel:
    with open(path) as fh:
        return deserialize_model(fh.read(), dataset)
