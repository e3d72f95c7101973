"""Kernel density-ratio fitting: empirical risk, closed-form kulsif,
cross-validation, and the parametric population fit."""
import dataclasses
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from ratioloss import (GRAM_JITTER, FitError, KernelSpec, PiecewisePairSpec,
                       RatioModel, Rng, SampleSet, builtin_generator,
                       cross_validate_alpha, default_pair, empirical_risk,
                       family_loss, fit, grad_check, gram,
                       kulsif_fit_closed_form, median_heuristic,
                       population_fit_parametric, predict_ratio,
                       sample_piecewise, sup_error, piecewise_beta)
from ratioloss.dre import _run_jobs, _select_alpha


def small_samples(n=12, m=12, seed=0):
    spec = default_pair()
    rng = Rng(seed)
    return SampleSet(xs_p=sample_piecewise(spec, "p", n, rng, name="t/fit"),
                     xs_q=sample_piecewise(spec, "q", m, rng, name="t/fit"))


def test_sample_set_pooling_and_labels():
    s = SampleSet(xs_p=np.array([0.0, 1.0]), xs_q=np.array([2.0]))
    assert s.pooled.shape == (3, 1)
    assert np.array_equal(s.labels, [1.0, 1.0, -1.0])
    with pytest.raises(ValueError):
        SampleSet(xs_p=np.zeros((2, 1)), xs_q=np.zeros((2, 2)))


@pytest.mark.parametrize("xs_p,xs_q", [(np.zeros(0), np.array([1.0])),
                                       (np.array([1.0]), np.zeros((0, 1)))])
def test_sample_set_rejects_an_empty_class(xs_p, xs_q):
    with pytest.raises(ValueError, match="at least one point"):
        SampleSet(xs_p=xs_p, xs_q=xs_q)


def test_empirical_risk_at_zero_coefficients():
    # zero scores: every lr partial loss evaluates to log 2
    s = small_samples()
    loss = family_loss("lr")
    g = gram(KernelSpec(kind="gaussian", sigma=1.0), s.pooled, s.pooled)
    value, grad = empirical_risk(loss, g, s.labels, np.zeros(24), 0.1)
    assert value == pytest.approx(np.log(2.0), rel=1e-12)
    assert grad.shape == (24,)


@pytest.mark.parametrize("family", ["lr", "ew", "klest"])
def test_empirical_risk_gradient(family):
    s = small_samples()
    loss = family_loss(family)
    g = gram(KernelSpec(kind="gaussian", sigma=0.7), s.pooled, s.pooled)
    rng = np.random.default_rng(3)
    c0 = 0.05 * rng.standard_normal(len(s.labels))

    def obj(c):
        return empirical_risk(loss, g, s.labels, c, 0.05)

    assert grad_check(obj, c0) < 1e-5


def test_closed_form_kulsif_zeroes_the_risk_gradient():
    # optimality certificate computed through the generic loss machinery,
    # not the linear algebra that produced the coefficients
    s = small_samples(n=15, m=13)
    kernel = KernelSpec(kind="gaussian", sigma=median_heuristic(s.pooled))
    model = kulsif_fit_closed_form(s, kernel, alpha=1e-3)
    g = gram(kernel, s.pooled, s.pooled)
    _, grad = empirical_risk(family_loss("kulsif"), g, s.labels,
                             model.coeffs, 1e-3)
    assert float(np.max(np.abs(grad))) < 1e-10


def test_closed_form_kulsif_at_alpha_zero_uses_the_jitter_ridge():
    # alpha 0 solves with ridge GRAM_JITTER: the P coefficients are exactly
    # 1/GRAM_JITTER and the ill-conditioned Q block is solved only
    # backward-stably, so the pin is its normwise residual
    s = small_samples(n=100, m=100)
    kernel = KernelSpec(kind="gaussian", sigma=median_heuristic(s.pooled))
    model = kulsif_fit_closed_form(s, kernel, alpha=0.0)
    assert model.status == "closed_form"
    c_p, c_q = model.coeffs[:100], model.coeffs[100:]
    assert np.all(c_p == 1.0 / GRAM_JITTER)
    g = gram(kernel, s.pooled, s.pooled)
    lhs = g[100:, 100:] + GRAM_JITTER * np.eye(100)
    rhs = -g[100:, :100] @ c_p
    assert np.linalg.cond(lhs) > 1e10
    residual = np.linalg.norm(lhs @ c_q - rhs) / (
        np.linalg.norm(lhs, 2) * np.linalg.norm(c_q) + np.linalg.norm(rhs))
    assert residual < 1e-14


@pytest.mark.parametrize("seed,n,alpha", [(2, 10, 1e-2), (0, 15, 1e-3),
                                          (1, 20, 1e-3)])
def test_bfgs_fit_matches_closed_form(seed, n, alpha):
    # the quadratic objective is flat along near-null directions of the
    # gram matrix, so coefficients are only identified through the scores;
    # the contract is ratio agreement at the training points
    s = small_samples(n=n, m=n, seed=seed)
    kernel = KernelSpec(kind="gaussian", sigma=median_heuristic(s.pooled))
    direct = kulsif_fit_closed_form(s, kernel, alpha=alpha)
    iterative = fit(s, family_loss("kulsif"), kernel, alpha=alpha,
                    max_iter=400, grad_tol=1e-10)
    assert np.max(np.abs(predict_ratio(direct, s.pooled)
                         - predict_ratio(iterative, s.pooled))) < 1e-6
    # off-sample predictions track the same function, just less tightly
    xs = np.linspace(-1.0, 1.0, 101)
    assert np.max(np.abs(predict_ratio(direct, xs)
                         - predict_ratio(iterative, xs))) < 1e-5


def test_fit_validation_and_budget():
    s = small_samples()
    kernel = KernelSpec(kind="gaussian", sigma=1.0)
    with pytest.raises(ValueError):
        fit(s, family_loss("lr"), kernel, alpha=-0.1)
    # a degenerate bounds pair marks every score as out of range
    loss = dataclasses.replace(family_loss("lr"), score_bounds=(0.0, 0.0))
    with pytest.raises(FitError):
        fit(s, loss, kernel, alpha=0.1, max_iter=30)


def test_predict_ratio_caps_and_counts():
    kernel = KernelSpec(kind="gaussian", sigma=1.0)
    model = RatioModel(kernel=kernel, centers=np.array([[0.0]]),
                       coeffs=np.array([2e6]), loss=family_loss("klest"),
                       alpha=0.0)
    out = predict_ratio(model, np.array([0.0]))
    assert float(out[0]) == 1e6
    assert np.array_equal(model.coeffs, [2e6])
    model.coeffs = np.array([-5.0])
    out = predict_ratio(model, np.array([0.0]))
    assert float(out[0]) == 1e-12
    assert np.array_equal(model.coeffs, [-5.0])
    assert not hasattr(model, "clamp_count")


def test_cross_validation_selects_from_the_table():
    s = small_samples(n=14, m=14, seed=4)
    kernel = KernelSpec(kind="gaussian", sigma=median_heuristic(s.pooled))
    cv = cross_validate_alpha(s, family_loss("kulsif"), kernel,
                              alphas=(10.0, 1e-3), n_folds=2, rng=Rng(0),
                              max_iter=120)
    chosen, table = cv.alpha, cv.table
    assert len(table) == 2
    assert all(np.isfinite(r) for _, r in table)
    best = min(r for _, r in table)
    assert chosen == min(a for a, r in table if r == best)


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
def test_run_jobs_returns_results_in_job_order(usable_cpus, cpus):
    usable_cpus(cpus)
    parent = os.getpid()
    results = _run_jobs(lambda i: (i, os.getpid() != parent, np.arange(i)), 7)
    assert [r[0] for r in results] == list(range(7))
    assert all(np.array_equal(r[2], np.arange(i))
               for i, r in enumerate(results))
    # one CPU runs every job here, more run them all in forked workers
    assert {r[1] for r in results} == {cpus > 1}
    assert _run_jobs(lambda i: i, 0) == []
    _assert_no_child_left()


@needs_fork
def test_run_jobs_raises_the_first_failure_in_job_order(usable_cpus):
    usable_cpus(2)

    def job(i):
        if i in (3, 4, 6):  # workers 1 and 0 fail at jobs 3 and 4
            raise FitError(f"job {i}")
        return i

    with pytest.raises(FitError, match="^job 3$"):
        _run_jobs(job, 8)
    _assert_no_child_left()


@needs_fork
def test_a_worker_that_exits_without_results_raises(usable_cpus):
    usable_cpus(2)

    def job(i):
        if i == 3:
            os._exit(1)
        return i

    with pytest.raises(RuntimeError, match="worker 1 exited with status 1"):
        _run_jobs(job, 6)
    _assert_no_child_left()


@needs_fork
def test_run_jobs_runs_here_when_a_fork_fails(monkeypatch, usable_cpus):
    # the first worker forks, the second cannot: the first is stopped
    # and reaped, and every job runs in the caller
    real_fork = os.fork
    forks = []

    def fork_once():
        if forks:
            raise OSError("no process to spare")
        forks.append(real_fork())
        return forks[-1]

    usable_cpus(2)
    monkeypatch.setattr(os, "fork", fork_once)
    parent = os.getpid()
    assert _run_jobs(lambda i: (i, os.getpid() == parent), 4) == [
        (i, True) for i in range(4)]
    assert len(forks) == 1
    _assert_no_child_left()


@needs_fork
def test_an_interrupted_caller_reaps_its_workers(usable_cpus):
    class Interrupted(Exception):
        pass

    def interrupt(signum, frame):
        raise Interrupted

    usable_cpus(2)
    previous = signal.signal(signal.SIGALRM, interrupt)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.2)
        start = time.monotonic()
        with pytest.raises(Interrupted):
            _run_jobs(lambda i: time.sleep(30), 2)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 10
    _assert_no_child_left()


def test_importing_the_cli_loads_no_process_pool():
    code = ("import sys, ratioloss.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('multiprocessing', 'concurrent')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=dict(
                             os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert out.stdout == "[]\n"


def test_select_alpha_skips_non_finite_risks():
    # a non-finite risk is never chosen, wherever it sits in the table
    alphas = (10.0, 0.1, 1e-3)
    assert _select_alpha(alphas, (np.nan, 0.5, 0.7)) == 0.1
    assert _select_alpha(alphas, (0.5, np.nan, 0.2)) == 1e-3
    assert _select_alpha(alphas, (np.inf, 0.4, 0.4)) == 1e-3


def test_select_alpha_fails_when_no_risk_is_finite():
    with pytest.raises(FitError, match="non-finite"):
        _select_alpha((10.0, 0.1), (np.nan, np.inf))


def test_cross_validation_needs_enough_points_per_class():
    s = SampleSet(xs_p=np.array([0.0, 1.0]), xs_q=np.array([0.5, 1.5]))
    kernel = KernelSpec(kind="gaussian", sigma=1.0)
    with pytest.raises(ValueError):
        cross_validate_alpha(s, family_loss("kulsif"), kernel,
                             alphas=(0.1,), n_folds=5)


def _piece_moment(levels, edges, power):
    total = 0.0
    for i, level in enumerate(levels):
        total += level * (edges[i + 1] ** (power + 1)
                          - edges[i] ** (power + 1)) / (power + 1)
    return total


def test_population_fit_matches_least_squares_oracle():
    # for the quadratic generator the divergence is L2(Q), so the best
    # t1 x^2 + t2 solves a 2x2 moment system computable in closed form;
    # the pair is chosen so the projected intercept is positive, keeping
    # the softplus-constrained optimum interior where the oracle applies
    spec = PiecewisePairSpec(lo=-1.0, hi=1.0, breakpoints=(-0.5, 0.5),
                             p_levels=(2 / 3, 1 / 3, 2 / 3),
                             q_levels=(1 / 3, 2 / 3, 1 / 3))
    edges = spec.edges
    m2q = _piece_moment(spec.q_levels, edges, 2)
    m4q = _piece_moment(spec.q_levels, edges, 4)
    m2p = _piece_moment(spec.p_levels, edges, 2)
    theta_direct = np.linalg.solve(np.array([[m4q, m2q], [m2q, 1.0]]),
                                   np.array([m2p, 1.0]))
    pf = population_fit_parametric(builtin_generator("kulsif"), spec,
                                   quad_nodes=801, max_iter=300)
    assert pf.divergence >= 0.0
    assert np.max(np.abs(pf.theta - theta_direct)) < 1e-6


def test_population_fit_validation():
    spec = default_pair()
    gen = builtin_generator("kulsif")
    with pytest.raises(ValueError):
        population_fit_parametric(gen, spec, quad_nodes=100)
    with pytest.raises(ValueError):
        population_fit_parametric(gen, spec, theta0=(1.0, -1.0))


def test_sup_error_of_shifted_curve():
    spec = default_pair()
    shifted = lambda xs: piecewise_beta(spec, xs) + 0.7
    assert sup_error(shifted, spec, 0.9, 1.0) == pytest.approx(0.7, abs=1e-12)
