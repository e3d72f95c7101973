"""Importance-weighted regression, validation, and aggregation.

Density ratio estimates enter downstream regression as per-sample
weights: weighted kernel ridge regression reweights the squared loss,
weighted validation scores candidate models on reweighted held-out risk,
and weighted aggregation solves for the best linear combination of
candidates under the same risk.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kernels import GRAM_JITTER, KernelSpec, as_points, gram, gram_dot

AGG_RIDGE = 1e-8

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


def weighted_risk(f: Predictor, xs, ys, weights) -> float:
    """(1/N) sum_i w_i (y_i - f(x_i))^2 for 1-d targets ys."""
    xs = as_points(xs)
    ys = np.asarray(ys, dtype=float)
    if ys.ndim != 1:
        raise ValueError("ys must be 1-d")
    w = np.asarray(weights, dtype=float)
    resid = ys - np.asarray(f(xs), dtype=float).reshape(ys.shape)
    return float(np.mean(w * resid ** 2))


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


@dataclass(frozen=True)
class CandidateSet:
    """Candidate predictors to select among or aggregate over."""

    models: tuple
    labels: tuple

    def __post_init__(self):
        if len(self.models) == 0:
            raise ValueError("need at least one candidate")
        if len(self.labels) != len(self.models):
            raise ValueError("one label per model")


def iwv_select(candidates: CandidateSet, xs, ys, weights) -> int:
    """Index of the candidate with smallest weighted validation risk;
    ties resolve to the smallest index."""
    risks = [weighted_risk(m, xs, ys, weights) for m in candidates.models]
    return int(np.argmin(risks))


def iwa_aggregate(candidates: CandidateSet, xs, ys, weights,
                  ridge: float = AGG_RIDGE) -> np.ndarray:
    """Linear-combination coefficients minimizing weighted risk.

    Solves the ridge-stabilized normal equations
    (A' W A / N + ridge I) c = A' W y / N over the candidate design A.
    """
    xs = as_points(xs)
    ys = np.asarray(ys, dtype=float).ravel()
    w = np.asarray(weights, dtype=float)
    n = len(xs)
    a = np.column_stack([np.asarray(m(xs), dtype=float).ravel()
                         for m in candidates.models])
    lhs = a.T @ (w[:, None] * a) / n
    lhs[np.diag_indices(len(candidates.models))] += ridge
    rhs = a.T @ (w * ys) / n
    try:
        return np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"aggregation system is singular: {exc}") from exc


def aggregate_predictor(candidates: CandidateSet,
                        coeffs: np.ndarray) -> Predictor:
    def predict(xs):
        a = np.column_stack([np.asarray(m(xs), dtype=float).ravel()
                             for m in candidates.models])
        return a @ coeffs
    return predict
