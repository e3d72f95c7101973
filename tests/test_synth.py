"""Synthetic pairs: piecewise densities, Gaussian pair, named RNG
streams, and the covariate-shift regression task."""
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ratioloss import (PiecewisePairSpec, Rng, default_pair, gaussian_pair,
                       piecewise_beta, regression_task, sample_piecewise,
                       target_function)


def test_named_streams_are_deterministic_and_separated():
    rng = Rng(42)
    a1 = rng.stream("draws/a").uniform(size=5)
    a2 = rng.stream("draws/a").uniform(size=5)
    b = rng.stream("draws/b").uniform(size=5)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, Rng(43).stream("draws/a").uniform(size=5))


def test_spec_validation():
    with pytest.raises(ValueError):
        PiecewisePairSpec(lo=1.0, hi=0.0, breakpoints=(), p_levels=(1.0,),
                          q_levels=(1.0,))
    with pytest.raises(ValueError):
        PiecewisePairSpec(lo=0.0, hi=1.0, breakpoints=(0.8, 0.2),
                          p_levels=(1.0,) * 3, q_levels=(1.0,) * 3)
    with pytest.raises(ValueError):
        PiecewisePairSpec(lo=0.0, hi=1.0, breakpoints=(0.5,),
                          p_levels=(1.0,), q_levels=(1.0, 1.0))
    with pytest.raises(ValueError):  # q must be positive
        PiecewisePairSpec(lo=0.0, hi=1.0, breakpoints=(0.5,),
                          p_levels=(1.0, 1.0), q_levels=(2.0, 0.0))
    with pytest.raises(ValueError):  # densities must integrate to one
        PiecewisePairSpec(lo=0.0, hi=1.0, breakpoints=(0.5,),
                          p_levels=(1.0, 1.5), q_levels=(1.0, 1.0))


def test_default_pair_frozen_shape():
    spec = default_pair()
    w = spec.widths
    assert float(np.dot(spec.p_levels, w)) == pytest.approx(1.0, abs=1e-15)
    assert float(np.dot(spec.q_levels, w)) == pytest.approx(1.0, abs=1e-15)
    centers = np.array([-0.9, -0.7, 0.0, 0.7, 0.9])
    assert np.allclose(piecewise_beta(spec, centers),
                       [11.0, 1.0, 0.25, 1.0, 11.0], atol=1e-13)
    # mean ratio under the denominator measure is the numerator mass
    mean_beta = float(np.dot(np.asarray(spec.q_levels) * w,
                             piecewise_beta(spec, centers)))
    assert mean_beta == pytest.approx(1.0, abs=1e-13)


def test_piece_index_and_range_guard():
    spec = default_pair()
    assert list(spec.piece_index([-1.0, -0.7, 0.0, 0.7, 1.0])) == [0, 1, 2, 3, 4]
    with pytest.raises(ValueError):
        piecewise_beta(spec, np.array([1.5]))


def test_density_lookup():
    spec = default_pair()
    assert float(spec.density("q", 0.0)) == pytest.approx(4.0 / 9.0)
    assert float(spec.density("p", 0.95)) == pytest.approx(22.0 / 15.0)


def test_sampling_respects_piece_masses():
    spec = default_pair()
    rng = Rng(0)
    for which in ("p", "q"):
        xs = sample_piecewise(spec, which, 20000, rng)
        assert xs.min() >= spec.lo and xs.max() <= spec.hi
        levels = np.asarray({"p": spec.p_levels, "q": spec.q_levels}[which])
        masses = levels * spec.widths
        counts = np.bincount(spec.piece_index(xs), minlength=5) / len(xs)
        assert np.max(np.abs(counts - masses)) < 0.02


def test_sampling_validation():
    spec = default_pair()
    with pytest.raises(ValueError):
        sample_piecewise(spec, "r", 10, Rng(0))
    with pytest.raises(ValueError):
        sample_piecewise(spec, "p", 0, Rng(0))


def test_gaussian_pair_exact_ratio():
    sampler, exact_beta = gaussian_pair()
    # default P = N(1, 0.5), Q = N(0, 1): beta(1) = 2 exp(1/2)
    assert float(exact_beta(1.0)) == pytest.approx(2.0 * np.sqrt(np.e),
                                                   rel=1e-12)
    assert float(exact_beta(0.0)) == pytest.approx(2.0 * np.exp(-2.0),
                                                   rel=1e-12)
    xs = sampler("q", 1000, Rng(5))
    assert xs.shape == (1000,)
    assert abs(float(xs.mean())) < 0.15
    with pytest.raises(ValueError):
        gaussian_pair(sigma_p=0.0)


def test_target_function_values():
    assert float(target_function(0.0)) == 0.0
    assert float(target_function(1.0)) == pytest.approx(np.sin(3.0), rel=1e-15)


def test_regression_task_shapes_and_noise():
    spec = default_pair()
    task = regression_task(spec, 30, 0.0, Rng(1))
    assert task.src_xs.shape == (30,)
    assert np.array_equal(task.src_ys, target_function(task.src_xs))
    noisy = regression_task(spec, 30, 0.3, Rng(1))
    assert np.array_equal(noisy.src_xs, task.src_xs)
    assert not np.array_equal(noisy.src_ys, task.src_ys)


@pytest.mark.parametrize("noise", [np.nan, np.inf, -0.5])
def test_regression_task_refuses_bad_noise(noise):
    with pytest.raises(ValueError, match="noise_sigma"):
        regression_task(default_pair(), 30, noise, Rng(1))


@given(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=5),
       st.lists(st.floats(0.05, 1.0), min_size=1, max_size=5),
       st.lists(st.floats(-0.9, 0.9), unique=True, max_size=4))
def test_random_specs_validate_and_sample(p_mass, q_mass, raw_bp):
    bp = tuple(sorted(raw_bp))
    edges = np.array([-1.0, *bp, 1.0])
    widths = edges[1:] - edges[:-1]
    assume(np.all(widths > 1e-3))
    n = len(bp) + 1
    pm = np.resize(np.asarray(p_mass), n)
    qm = np.resize(np.asarray(q_mass), n)
    spec = PiecewisePairSpec(
        lo=-1.0, hi=1.0, breakpoints=bp,
        p_levels=tuple(pm / pm.sum() / widths),
        q_levels=tuple(qm / qm.sum() / widths))
    xs = sample_piecewise(spec, "p", 64, Rng(9))
    assert np.all((xs >= -1.0) & (xs <= 1.0))
    assert np.all(piecewise_beta(spec, xs) > 0.0)


def test_pieces_integrate_each_density_to_one():
    spec = default_pair()
    pieces = list(spec.pieces(5))
    assert len(pieces) == len(spec.p_levels)
    for (xs, w, _, _), lo, hi in zip(pieces, spec.edges[:-1], spec.edges[1:]):
        assert xs[0] == lo and xs[-1] == hi and xs.shape == w.shape == (5,)
    for which in (2, 3):
        assert sum(float(p[1].sum()) * p[which] for p in pieces) == (
            pytest.approx(1.0, abs=1e-12))
    with pytest.raises(ValueError):
        list(spec.pieces(4))
