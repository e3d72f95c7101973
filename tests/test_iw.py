"""Importance-weighted polynomial ridge regression."""
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

from ratioloss import GRAM_JITTER, KernelSpec, gram, weighted_poly_ridge


def test_task_validation():
    xs = np.array([0.0, 1.0])
    with pytest.raises(ValueError, match="matching lengths"):
        weighted_poly_ridge(xs, np.ones(3), np.ones(2), 2, 0.1)
    with pytest.raises(ValueError, match="matching lengths"):
        weighted_poly_ridge(xs, np.ones(2), np.ones(3), 2, 0.1)
    with pytest.raises(ValueError, match="nonnegative"):
        weighted_poly_ridge(xs, np.ones(2), np.array([1.0, -1.0]), 2, 0.1)
    for alpha in (-0.5, np.nan, np.inf):
        with pytest.raises(ValueError,
                           match="^alpha must be finite and nonnegative$"):
            weighted_poly_ridge(xs, np.ones(2), np.ones(2), 2, alpha)
    # targets are 1-d: one label per input
    with pytest.raises(ValueError, match="1-d"):
        weighted_poly_ridge(xs, np.ones((2, 1)), np.ones(2), 2, 0.1)
    with pytest.raises(ValueError, match="integer degree >= 1"):
        weighted_poly_ridge(xs, np.ones(2), np.ones(2), 0, 0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_task_refuses_non_finite_targets(bad):
    with pytest.raises(ValueError, match="finite"):
        weighted_poly_ridge(np.array([0.0, 1.0]), np.array([1.0, bad]),
                            np.ones(2), 2, 0.1)


def _problem(n, seed):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-1.0, 1.0, n)
    ys = np.sin(2.5 * xs) + 0.1 * rng.standard_normal(n)
    return xs, ys, rng.uniform(0.2, 3.0, n)


def test_weighted_poly_ridge_first_order_optimality():
    # theta = a / sqrt(C(d, j)) must zero the gradient of the penalized
    # objective J(theta) = (1/n) sum w_i (y_i - phi_i'theta)^2
    # + lambda |theta|^2 over the features phi_ij = sqrt(C(d, j)) x_i^j
    xs, ys, w = _problem(20, 0)
    d, lam = 4, 0.05 + GRAM_JITTER
    scale = np.sqrt([comb(d, j) for j in range(d + 1)])
    phi = scale * xs[:, None] ** np.arange(d + 1)
    theta = weighted_poly_ridge(xs, ys, w, d, 0.05) / scale
    grad = -2.0 * phi.T @ (w * (ys - phi @ theta)) / 20 + 2.0 * lam * theta
    assert float(np.max(np.abs(grad))) < 1e-12


@pytest.mark.parametrize("degree", [1, 3, 5])
def test_predictor_is_the_dual_kernel_ridge_predictor(degree):
    # push-through: the dual solve (W K / N + lambda I) c = W y / N with
    # the kernel (x y + 1)^d predicts k(x, xs) c, the same function
    xs, ys, w = _problem(30, degree)
    kernel = KernelSpec(kind="polynomial", degree=degree)
    lhs = w[:, None] * gram(kernel, xs, xs) / 30
    lhs[np.diag_indices(30)] += 1e-2 + GRAM_JITTER
    c = np.linalg.solve(lhs, w * ys / 30)
    grid = np.linspace(-1.2, 1.2, 41)
    want = gram(kernel, grid, xs) @ c
    got = polyval(grid, weighted_poly_ridge(xs, ys, w, degree, 1e-2))
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_matches_exact_arithmetic_at_the_jitter_ridge():
    # at alpha 1e-32 the ridge is GRAM_JITTER alone; the 6 x 6 primal
    # system is solved to rounding, against the same system in rationals
    xs, ys, w = _problem(12, 3)
    d, n = 5, 12
    a = weighted_poly_ridge(xs, ys, w, d, 1e-32)
    x, y, v = ([Fraction(t) for t in arr] for arr in (xs, ys, w))
    # with a = sqrt(C) theta: (M / n + lambda C^-1) a = b / n
    rows = [[sum(vi * xi ** (j + k) for vi, xi in zip(v, x)) / n
             for k in range(d + 1)]
            + [sum(vi * xi ** j * yi for vi, xi, yi in zip(v, x, y)) / n]
            for j in range(d + 1)]
    for j in range(d + 1):
        rows[j][j] += Fraction(1e-32 + GRAM_JITTER) / comb(d, j)
    for i in range(d + 1):
        for r in range(i + 1, d + 1):
            f = rows[r][i] / rows[i][i]
            rows[r] = [p - f * q for p, q in zip(rows[r], rows[i])]
    exact = [Fraction(0)] * (d + 1)
    for i in reversed(range(d + 1)):
        exact[i] = (rows[i][-1] - sum(rows[i][k] * exact[k]
                                      for k in range(i + 1, d + 1))) / rows[i][i]
    grid = np.linspace(-1.0, 1.0, 21)
    want = np.array([float(sum(e * Fraction(t) ** j
                               for j, e in enumerate(exact))) for t in grid])
    assert np.max(np.abs(polyval(grid, a) - want)) <= 1e-12


def test_weighted_poly_ridge_interpolates_at_zero_ridge():
    # d + 1 distinct points and a degree-d fit: the ridge is the jitter
    xs = np.array([-1.0, -0.2, 0.5, 1.3])
    ys = np.array([2.0, -1.0, 0.5, 1.0])
    a = weighted_poly_ridge(xs, ys, np.ones(4), 3, 0.0)
    assert np.max(np.abs(polyval(xs, a) - ys)) < 1e-5


def test_no_points_give_the_zero_polynomial():
    a = weighted_poly_ridge(np.zeros(0), np.zeros(0), np.zeros(0), 3, 0.0)
    assert np.array_equal(a, np.zeros(4))
