"""Composite Simpson rule: exactness, accuracy, input validation."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ratioloss import integrate, simpson_nodes, simpson_weights


def test_nodes_are_uniform_and_inclusive():
    xs = simpson_nodes(0.0, 1.0, 5)
    assert np.allclose(xs, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_weights_sum_to_interval_length():
    # integral of the constant 1 must come out exact
    w = simpson_weights(-2.0, 3.0, 101)
    assert abs(float(w.sum()) - 5.0) < 1e-13


@pytest.mark.parametrize("n_nodes", [3, 5, 21])
def test_exact_for_cubics(n_nodes):
    # Simpson integrates polynomials up to degree three without error
    assert abs(integrate(lambda x: x ** 2, 0.0, 1.0, n_nodes) - 1.0 / 3.0) < 1e-14
    assert abs(integrate(lambda x: x ** 3, 0.0, 1.0, n_nodes) - 0.25) < 1e-14


def test_smooth_integrand_accuracy():
    assert abs(integrate(np.sin, 0.0, np.pi, 2001) - 2.0) < 1e-12
    assert abs(integrate(np.exp, 0.0, 1.0, 2001) - (np.e - 1.0)) < 1e-12


@pytest.mark.parametrize("n_nodes", [2, 4, 100, 1, 0])
def test_even_or_tiny_node_counts_rejected(n_nodes):
    with pytest.raises(ValueError):
        simpson_nodes(0.0, 1.0, n_nodes)


@pytest.mark.parametrize("lo,hi", [(1.0, 1.0), (2.0, 1.0),
                                   (np.nan, 1.0), (0.0, np.inf)])
def test_bad_interval_rejected(lo, hi):
    with pytest.raises(ValueError):
        simpson_nodes(lo, hi, 5)


def test_integrand_must_be_vectorized():
    with pytest.raises(ValueError):
        integrate(lambda x: 1.0, 0.0, 1.0, 5)


@given(a=st.floats(-3.0, 3.0), b=st.floats(0.1, 3.0))
def test_quadratic_integrals_match_antiderivative(a, b):
    hi = a + b
    exact = (hi ** 3 - a ** 3) / 3.0 - (hi - a)
    got = integrate(lambda x: x ** 2 - 1.0, a, hi, 41)
    assert abs(got - exact) < 1e-10 * max(1.0, abs(exact))


@pytest.mark.parametrize("n_nodes", [2, 4, 100, 1, 0])
def test_weights_reject_what_nodes_reject(n_nodes):
    # 4 nodes would give weights summing to 8/9 on [0, 1]; 1 node a
    # division by zero
    with pytest.raises(ValueError):
        simpson_weights(0.0, 1.0, n_nodes)
    with pytest.raises(ValueError):
        simpson_weights(1.0, 0.0, 5)
