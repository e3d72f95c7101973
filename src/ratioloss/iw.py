"""Importance-weighted kernel ridge regression.

Density ratio estimates enter downstream regression as per-sample
weights: weighted kernel ridge regression reweights the squared loss.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kernels import GRAM_JITTER, KernelSpec, as_points, gram, gram_dot

Predictor = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class WeightedRegressionTask:
    """Inputs, 1-d targets, nonnegative weights, and the ridge setup."""

    xs: np.ndarray
    ys: np.ndarray
    weights: np.ndarray
    kernel: KernelSpec
    alpha: float

    def __post_init__(self):
        xs = as_points(self.xs)
        ys = np.asarray(self.ys, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if ys.ndim != 1 or not np.all(np.isfinite(ys)):
            raise ValueError("ys must be 1-d and finite")
        if len(ys) != len(xs) or len(w) != len(xs):
            raise ValueError("xs, ys, weights must have matching lengths")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite and nonnegative")
        if not 0.0 <= self.alpha < np.inf:
            raise ValueError("alpha must be finite and nonnegative")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "weights", w)


def weighted_krr(task: WeightedRegressionTask) -> np.ndarray:
    """Coefficients of weighted kernel ridge regression.

    Solves (W K / N + alpha I + jitter I) c = W y / N; the jitter keeps
    the system solvable when alpha is effectively zero and the kernel
    matrix is rank-deficient.
    """
    k_matrix = gram(task.kernel, task.xs, task.xs)
    n = len(task.xs)
    lhs = task.weights[:, None] * k_matrix / n
    lhs[np.diag_indices(n)] += task.alpha + GRAM_JITTER
    rhs = task.weights * task.ys / n
    try:
        return np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"weighted ridge system is singular: {exc}") from exc


def krr_predictor(task: WeightedRegressionTask,
                  coeffs: np.ndarray) -> Predictor:
    def predict(xs):
        return gram_dot(task.kernel, xs, task.xs, coeffs)
    return predict
