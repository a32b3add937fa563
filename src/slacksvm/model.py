"""Trained kernel-expansion models: scoring and flat-text serialization."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


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
    dataset: object  # the training Dataset the coefficients refer to
    kernel_spec: str
    use_bias: bool
    kernel_evals: int
    metadata: dict = field(default_factory=dict)

    @property
    def support_size(self) -> int:
        return int(np.count_nonzero(self.alpha))

    def support_indices(self) -> np.ndarray:
        return np.flatnonzero(self.alpha)


def score_batch(model: TrainedModel, dataset, kernel) -> np.ndarray:
    """Raw scores on every example of dataset; costs support_size * n evals."""
    sv = model.support_indices()
    if sv.size == 0:
        return np.full(dataset.n, model.bias)
    g = kernel.cross(model.dataset, sv, dataset)
    coef = model.alpha[sv] * model.dataset.labels[sv]
    return coef @ g + model.bias


def score(model: TrainedModel, dataset, i: int, kernel) -> float:
    """Score row i of dataset; costs support_size evaluations."""
    sv = model.support_indices()
    total = model.bias
    for j in sv:
        total += model.alpha[j] * model.dataset.labels[j] * kernel.pair(
            model.dataset, j, dataset, i)
    return float(total)


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


def deserialize_model(text: str, dataset=None) -> TrainedModel:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    fields = dict(item.split("=", 1) for item in lines[0].split())
    n = int(fields["n"])
    alpha = np.zeros(n)
    labels = np.zeros(n)
    for ln in lines[1:]:
        idx_s, a_s, y_s = ln.split()
        alpha[int(idx_s)] = float(a_s)
        labels[int(idx_s)] = int(y_s)
    if dataset is not None:
        if dataset.n != n:
            raise ValueError("model does not match the dataset size")
        sv = np.flatnonzero(alpha)
        if not np.array_equal(labels[sv], dataset.labels[sv]):
            raise ValueError("model labels disagree with the dataset")
    return TrainedModel(
        alpha=alpha,
        bias=float(fields["bias"]),
        dataset=dataset,
        kernel_spec=fields["kernel"],
        use_bias=bool(int(fields["use_bias"])),
        kernel_evals=0,
        metadata={"loaded": True},
    )


def load_model(path, dataset=None) -> TrainedModel:
    with open(path) as fh:
        return deserialize_model(fh.read(), dataset=dataset)
