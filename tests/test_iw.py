"""Weighted regression, validation-based selection, and aggregation."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ratioloss import (CandidateSet, KernelSpec, WeightedRegressionTask,
                       aggregate_predictor, gram, iwa_aggregate, iwv_select,
                       krr_predictor, weighted_krr, weighted_risk)


def test_weighted_risk_frozen_case():
    # squared errors (1, 4) under weights (1, 3): mean is 13/2
    risk = weighted_risk(lambda xs: np.zeros(len(xs)),
                         np.array([0.0, 1.0]), np.array([1.0, 2.0]),
                         np.array([1.0, 3.0]))
    assert risk == pytest.approx(6.5, abs=1e-15)


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
    with pytest.raises(ValueError):
        weighted_risk(lambda x: np.zeros((len(x), 1)), xs, np.ones((2, 1)),
                      np.ones(2))


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


def test_candidate_set_validation():
    with pytest.raises(ValueError):
        CandidateSet(models=(), labels=())
    with pytest.raises(ValueError):
        CandidateSet(models=(lambda x: x,), labels=("a", "b"))


def test_selection_prefers_lower_weighted_risk():
    xs = np.linspace(-1.0, 1.0, 40)
    ys = xs ** 2
    cands = CandidateSet(
        models=(lambda x: np.asarray(x)[:, 0] ** 2 + 0.1,
                lambda x: np.zeros(len(x)),
                lambda x: np.asarray(x)[:, 0] ** 2 + 0.1),
        labels=("biased", "zero", "biased-copy"))
    # small uniform bias beats the zero model on average, and the
    # duplicate at index 2 loses the tie to index 0
    assert iwv_select(cands, xs, ys, np.ones(40)) == 0
    # weights concentrated near the origin, where the target is almost
    # zero, flip the choice to the zero model
    w = (np.abs(xs) < 0.05).astype(float)
    assert iwv_select(cands, xs, ys, w) == 1


def test_aggregation_recovers_the_true_combination():
    xs = np.linspace(-1.0, 1.0, 60)
    f1 = lambda x: np.asarray(x)[:, 0]
    f2 = lambda x: np.asarray(x)[:, 0] ** 2
    ys = 2.0 * xs - 1.0 * xs ** 2
    cands = CandidateSet(models=(f1, f2), labels=("lin", "sq"))
    coeffs = iwa_aggregate(cands, xs, ys, np.ones(60))
    assert np.allclose(coeffs, [2.0, -1.0], atol=1e-5)
    pred = aggregate_predictor(cands, coeffs)
    assert weighted_risk(pred, xs, ys, np.ones(60)) < 1e-10


@given(st.integers(0, 2 ** 31 - 1))
def test_aggregate_never_worse_than_best_candidate(seed):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-1.0, 1.0, 30)
    ys = rng.standard_normal(30)
    w = rng.uniform(0.0, 2.0, 30)
    cands = CandidateSet(
        models=(lambda x: np.asarray(x)[:, 0],
                lambda x: np.cos(np.asarray(x)[:, 0]),
                lambda x: np.full(len(x), float(ys.mean()))),
        labels=("lin", "cos", "mean"))
    coeffs = iwa_aggregate(cands, xs, ys, w)
    agg_risk = weighted_risk(aggregate_predictor(cands, coeffs), xs, ys, w)
    single = [weighted_risk(m, xs, ys, w) for m in cands.models]
    assert agg_risk <= min(single) + 1e-6
