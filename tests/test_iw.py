"""Importance-weighted kernel ridge regression."""
import numpy as np
import pytest

from ratioloss import (KernelSpec, WeightedRegressionTask, gram,
                       krr_predictor, weighted_krr)


def test_task_validation():
    xs = np.array([0.0, 1.0])
    kernel = KernelSpec(kind="gaussian", sigma=1.0)
    with pytest.raises(ValueError):
        WeightedRegressionTask(xs=xs, ys=np.ones(3), weights=np.ones(2),
                               kernel=kernel, alpha=0.1)
    with pytest.raises(ValueError):
        WeightedRegressionTask(xs=xs, ys=np.ones(2),
                               weights=np.array([1.0, -1.0]),
                               kernel=kernel, alpha=0.1)
    for alpha in (-0.5, np.nan, np.inf):
        with pytest.raises(ValueError):
            WeightedRegressionTask(xs=xs, ys=np.ones(2), weights=np.ones(2),
                                   kernel=kernel, alpha=alpha)
    # targets are 1-d: one label per input
    with pytest.raises(ValueError):
        WeightedRegressionTask(xs=xs, ys=np.ones((2, 1)), weights=np.ones(2),
                               kernel=kernel, alpha=0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_task_refuses_non_finite_targets(bad):
    with pytest.raises(ValueError, match="finite"):
        WeightedRegressionTask(xs=np.array([0.0, 1.0]),
                               ys=np.array([1.0, bad]), weights=np.ones(2),
                               kernel=KernelSpec(kind="gaussian", sigma=1.0),
                               alpha=0.1)


def test_weighted_krr_first_order_optimality():
    # the coefficients must zero the gradient of the penalized objective
    # J(c) = (1/n) sum w_i (y_i - (Kc)_i)^2 + alpha c'Kc
    rng = np.random.default_rng(0)
    xs = rng.uniform(-1.0, 1.0, 20)
    ys = np.sin(2.0 * xs) + 0.1 * rng.standard_normal(20)
    w = rng.uniform(0.2, 3.0, 20)
    kernel = KernelSpec(kind="gaussian", sigma=0.6)
    task = WeightedRegressionTask(xs=xs, ys=ys, weights=w, kernel=kernel,
                                  alpha=0.05)
    coeffs = weighted_krr(task)
    k = gram(kernel, xs, xs)
    grad = -2.0 * k @ (w * (ys - k @ coeffs)) / 20 + 2.0 * 0.05 * k @ coeffs
    assert float(np.max(np.abs(grad))) < 1e-8


def test_weighted_krr_interpolates_at_zero_ridge():
    xs = np.array([-1.0, -0.2, 0.5, 1.3])
    ys = np.array([2.0, -1.0, 0.5, 1.0])
    kernel = KernelSpec(kind="gaussian", sigma=0.9)
    task = WeightedRegressionTask(xs=xs, ys=ys, weights=np.ones(4),
                                  kernel=kernel, alpha=0.0)
    f = krr_predictor(task, weighted_krr(task))
    assert np.max(np.abs(f(xs) - ys)) < 1e-5
