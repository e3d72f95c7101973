"""Importance-weighted polynomial ridge regression on 1-d inputs.

Density ratio estimates enter downstream regression as per-sample
weights: importance-weighted least squares (Sugiyama, Krauledat &
Müller, JMLR 8, 2007) reweights the squared loss.  The polynomial
kernel (x y + 1)^d on 1-d inputs has the d + 1 features
sqrt(C(d, j)) x^j, so the dual kernel ridge solve
(W K / N + lambda I) c = W y / N and the primal one
(Phi' W Phi / N + lambda I) theta = Phi' W y / N give the same
predictor (push-through identity); the primal is (d+1) x (d+1).
"""
from __future__ import annotations

import math

import numpy as np

from .kernels import GRAM_JITTER, KernelSpec


def weighted_poly_ridge(xs, ys, weights, degree: int,
                        alpha: float) -> np.ndarray:
    """Ascending coefficients of the weighted ridge polynomial fit.

    theta minimizes (1/N) sum_i w_i (y_i - phi(x_i)'theta)^2
    + lambda |theta|^2 over the features phi of the kernel
    (x y + 1)^degree, for lambda = alpha + GRAM_JITTER; the jitter keeps
    the system solvable at alpha 0.  Returns the ascending coefficients
    a_j = sqrt(C(d, j)) theta_j, so np.polyval(a[::-1], x) predicts.
    The sums over the N points are einsum loops in a fixed order, not
    BLAS calls, so their bits do not depend on the thread count.
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    w = np.asarray(weights, dtype=float)
    if x.ndim != 1 or not np.all(np.isfinite(x)):
        raise ValueError("xs must be 1-d and finite")
    if y.ndim != 1 or not np.all(np.isfinite(y)):
        raise ValueError("ys must be 1-d and finite")
    if len(y) != len(x) or w.shape != x.shape:
        raise ValueError("xs, ys, weights must have matching lengths")
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite and nonnegative")
    if not 0.0 <= alpha < np.inf:
        raise ValueError("alpha must be finite and nonnegative")
    KernelSpec(kind="polynomial", degree=degree)  # refuses a bad degree
    scale = np.sqrt([math.comb(degree, j) for j in range(degree + 1)])
    phi = scale * x[:, None] ** np.arange(degree + 1)
    n = max(len(x), 1)
    lhs = np.einsum("i,ij,ik->jk", w, phi, phi) / n
    lhs[np.diag_indices(degree + 1)] += alpha + GRAM_JITTER
    rhs = np.einsum("i,ij,i->j", w, phi, y) / n
    return scale * np.linalg.solve(lhs, rhs)
