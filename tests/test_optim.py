"""BFGS and projected Newton minimizers and gradient checker."""
import contextlib
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from ratioloss import (KernelSpec, Rng, SampleSet, bfgs, default_pair, dre,
                       family_loss, fit, gram, median_heuristic, optim,
                       sample_piecewise)
from ratioloss.optim import (CURVATURE_FLOOR, OptimResult, _backtrack,
                             _projected_newton)

from oracles import empirical_risk, grad_check


def spd_objective(a, b):
    def obj(x):
        return 0.5 * float(x @ (a @ x)) - float(b @ x), a @ x - b
    return obj


@pytest.mark.parametrize("n", [2, 5, 10])
def test_spd_quadratic_matches_direct_solve(n):
    rng = np.random.default_rng(n)
    m = rng.standard_normal((n, n))
    a = m.T @ m + np.eye(n)
    b = rng.standard_normal(n)
    res = bfgs(spd_objective(a, b), np.zeros(n), max_iter=200, grad_tol=1e-10)
    assert res.status == "converged"
    assert np.max(np.abs(res.x_star - np.linalg.solve(a, b))) < 1e-8


def _rosenbrock(x):
    v = 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2
    g = np.array([-400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
                  200.0 * (x[1] - x[0] ** 2)])
    return v, g


def test_rosenbrock():
    res = bfgs(_rosenbrock, np.array([-1.2, 1.0]), max_iter=500, grad_tol=1e-10)
    assert res.status == "converged"
    assert np.max(np.abs(res.x_star - 1.0)) < 1e-6


def test_infinite_values_treated_as_out_of_domain():
    # -log x + x has its minimum at 1; probes below zero must be rejected
    def obj(x):
        if x[0] <= 0.0:
            return np.inf, np.array([0.0])
        return float(-np.log(x[0]) + x[0]), np.array([1.0 - 1.0 / x[0]])
    res = bfgs(obj, np.array([3.0]), max_iter=100, grad_tol=1e-10)
    assert res.status == "converged"
    assert float(res.x_star[0]) == pytest.approx(1.0, abs=1e-8)


def test_non_finite_start_rejected():
    with pytest.raises(ValueError):
        bfgs(lambda x: (np.inf, np.zeros(1)), np.zeros(1))


def test_x0_must_be_vector():
    with pytest.raises(ValueError):
        bfgs(lambda x: (0.0, x), np.zeros((2, 2)))


def test_line_search_failure_reported():
    # start at the minimum but lie about the gradient: every trial point
    # increases the value, so no Armijo step can pass
    def obj(x):
        return float(x[0] ** 2), np.array([1.0])
    res = bfgs(obj, np.array([0.0]), max_iter=50)
    assert res.status == "line_search_failed"


def test_already_optimal_start():
    res = bfgs(spd_objective(np.eye(2), np.zeros(2)), np.zeros(2))
    assert res.status == "converged"
    assert res.iterations == 0


def test_grad_check_accepts_true_gradient():
    a = np.array([[2.0, 0.3], [0.3, 1.0]])
    b = np.array([0.5, -1.0])
    assert grad_check(spd_objective(a, b), np.array([0.7, 0.2])) < 1e-7


def test_grad_check_flags_doubled_gradient():
    def obj(x):
        return float(x @ x), 4.0 * x  # true gradient is 2x
    err = grad_check(obj, np.array([1.0, -2.0]))
    assert 0.5 < err < 1.5


def test_steep_start_retries_along_scaled_gradient():
    # x - log x near its domain edge: the gradient is about -1e12, so no
    # halving of the unit step along -g passes Armijo; the retry along
    # -g / |g|_inf does, as it does for klest fits from zero scores
    def obj(x):
        if x[0] <= 0.0:
            return np.inf, np.array([0.0])
        return float(x[0] - np.log(x[0])), np.array([1.0 - 1.0 / x[0]])
    res = bfgs(obj, np.array([1e-12]), max_iter=100, grad_tol=1e-10)
    assert res.status == "converged"
    assert float(res.x_star[0]) == pytest.approx(1.0, abs=1e-8)


def reference_bfgs(obj, x0, max_iter=100, grad_tol=1e-8, start=None):
    """bfgs with the textbook dense update: two matvecs and three outer
    products per iteration, a fresh start on every restart.  Same line
    search, curvature skip and restart policy as bfgs; no number of
    updates restarts it.  start, when given, maps x to D g(x) for the
    penalty start D; the dense matrix then holds H - D, and the scaled
    retry restarts it for good with the identity."""
    x = np.array(x0, dtype=float)
    f, g = obj(x)
    f = float(f)
    g = np.asarray(g, dtype=float)
    n = x.size

    def fresh():
        return np.eye(n) if start is None else np.zeros((n, n))

    def h_dot(hinv, x, g):
        return hinv @ g if start is None else hinv @ g + start(x)

    hinv = fresh()
    iterations = 0
    status = "max_iter"
    for _ in range(max_iter):
        gnorm = float(np.max(np.abs(g)))
        if gnorm < grad_tol:
            status = "converged"
            break
        p = -h_dot(hinv, x, g)
        dd = float(p @ g)
        restarted = False
        if dd >= 0.0:
            hinv = fresh()
            p = -h_dot(hinv, x, g)
            if float(p @ g) >= 0.0:
                start = None
                hinv = fresh()
                p = -g
            dd = float(p @ g)
            restarted = True
        trial = _backtrack(lambda pt: obj(pt[0]), x, x, f, p, p, dd, np.asarray)
        if trial is None and (not restarted or gnorm > 1.0
                              or start is not None):
            start = None
            hinv = fresh()
            p = -g / max(1.0, gnorm)
            dd = float(p @ g)
            trial = _backtrack(lambda pt: obj(pt[0]), x, x, f, p, p, dd,
                               np.asarray)
        if trial is None:
            status = "line_search_failed"
            break
        (x_new, _), f_new, _, g_new = trial
        g_new = np.asarray(g_new, dtype=float)
        s = x_new - x
        yv = g_new - g
        sy = float(s @ yv)
        if sy > CURVATURE_FLOOR * float(np.linalg.norm(s)) * float(np.linalg.norm(yv)):
            rho = 1.0 / sy
            hy = hinv @ yv
            if start is not None:
                hy += start(x_new) - start(x)
            hinv -= rho * (np.outer(s, hy) + np.outer(hy, s))
            hinv += rho * rho * (float(yv @ hy) + sy) * np.outer(s, s)
        x, f, g = x_new, f_new, g_new
        iterations += 1
    else:
        if float(np.max(np.abs(g))) < grad_tol:
            status = "converged"
    return OptimResult(x_star=x, f_star=f, grad_norm=float(np.max(np.abs(g))),
                       iterations=iterations, status=status)


def _kinked_objective(q, dq):
    # 1.5 (x0 - 5)^2 for x0 >= 0, curvature 1e30 below zero, plus q(x1).
    # From x0 = -1e-10 the unit steepest-descent step fails and the
    # scaled retry crosses the kink; the secant update then rounds the x0
    # row of the inverse Hessian to zero, so once x1 is done the
    # quasi-Newton direction vanishes and bfgs restarts from a
    # non-identity matrix.
    def obj(x):
        x0, x1 = x
        if x0 >= 0.0:
            return (1.5 * (x0 - 5.0) ** 2 + q(x1),
                    np.array([3.0 * (x0 - 5.0), dq(x1)]))
        return (37.5 - 15.0 * x0 + 0.5e30 * x0 * x0 + q(x1),
                np.array([-15.0 + 1e30 * x0, dq(x1)]))
    return obj


_kinked = _kinked_objective(lambda t: 0.5 * (t - 1.0) ** 2, lambda t: t - 1.0)


def _assert_same_run(obj, x0, space=None, **kw):
    """bfgs and reference_bfgs end with the same status after the same
    number of iterations and objective evaluations, at the same point."""
    runs = []
    for solver in (reference_bfgs, bfgs):
        calls = []

        def counted(x):
            calls.append(None)
            return obj(x)

        runs.append((solver(counted, x0, **kw), len(calls)))
    (ref, ref_calls), (res, res_calls) = runs
    assert (res.status, res.iterations, res_calls) == (
        ref.status, ref.iterations, ref_calls)
    a, b = (ref.x_star, res.x_star) if space is None else (
        space @ ref.x_star, space @ res.x_star)
    assert np.linalg.norm(b - a) <= 1e-10 * np.linalg.norm(a)
    assert res.f_star == pytest.approx(ref.f_star, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("n", [2, 10, 40])
def test_matches_dense_reference_on_spd_quadratic(n):
    rng = np.random.default_rng(n)
    m = rng.standard_normal((n, n))
    a = m.T @ m + np.eye(n)
    b = rng.standard_normal(n)
    _assert_same_run(spd_objective(a, b), np.zeros(n), max_iter=200,
                     grad_tol=1e-10)


def test_matches_dense_reference_on_rosenbrock():
    _assert_same_run(_rosenbrock, np.array([-1.2, 1.0]), max_iter=500,
                     grad_tol=1e-10)


def test_matches_dense_reference_on_ew_risk():
    # the gaussian gram matrix has condition number ~1e19, so coefficients
    # along its near-null directions are not identified and carry rounding
    # drift; the fitted scores G c are what both runs must agree on
    spec = default_pair()
    rng = Rng(0)
    s = SampleSet(xs_p=sample_piecewise(spec, "p", 30, rng, name="t/p"),
                  xs_q=sample_piecewise(spec, "q", 30, rng, name="t/q"))
    g = gram(KernelSpec(kind="gaussian", sigma=median_heuristic(s.pooled)),
             s.pooled, s.pooled)
    loss = family_loss("ew")

    def obj(c):
        return empirical_risk(loss, g, len(s.xs_p), c, 1e-2)

    _assert_same_run(obj, np.zeros(60), space=g, max_iter=300)


def test_matches_dense_reference_through_restarts(monkeypatch):
    resets = []
    reset = optim._reset

    def recording(hinv):
        # the discarded inverse Hessian, materialized
        resets.append(hinv.dot(np.eye(2)))
        reset(hinv)

    monkeypatch.setattr(optim, "_reset", recording)
    x0 = np.array([-1e-10, 3.0])
    res = bfgs(_kinked, x0, max_iter=100, grad_tol=1e-10)
    assert res.status == "converged"
    assert np.allclose(res.x_star, [5.0, 1.0])
    # the scaled retry at iteration 0, then a reset of an updated matrix
    assert len(resets) == 2
    assert not np.array_equal(resets[1], np.eye(2))
    monkeypatch.undo()
    _assert_same_run(_kinked, x0, max_iter=100, grad_tol=1e-10)


def test_more_than_n_pairs_match_dense_reference_through_a_restart(
        monkeypatch):
    # with cosh in x1 the run takes 10 updates, so it holds more than
    # n = 2 pairs at once, and the restart discards an updated matrix
    obj = _kinked_objective(lambda t: np.cosh(t - 1.0),
                            lambda t: np.sinh(t - 1.0))
    held = []
    discarded = []
    update = optim._InverseHessian.update
    reset = optim._reset

    def recording_update(hinv, s, w):
        update(hinv, s, w)
        held.append(hinv.k)

    def recording_reset(hinv):
        discarded.append(hinv.dot(np.eye(2)))
        reset(hinv)

    monkeypatch.setattr(optim._InverseHessian, "update", recording_update)
    monkeypatch.setattr(optim, "_reset", recording_reset)
    x0 = np.array([-1e-10, 3.0])
    res = bfgs(obj, x0, max_iter=100, grad_tol=1e-10)
    assert res.status == "converged"
    assert max(held) > 2
    assert len(discarded) == 2
    assert np.array_equal(discarded[0], np.eye(2))
    assert not np.array_equal(discarded[1], np.eye(2))
    monkeypatch.undo()
    _assert_same_run(obj, x0, max_iter=100, grad_tol=1e-10)


def test_large_problem_holds_no_dense_inverse_hessian():
    # a quadratic with three distinct eigenvalues at n = 2000: a dense
    # inverse Hessian alone would take n^2 doubles
    n = 2000
    a = np.repeat([1.0, 3.0, 10.0], [700, 700, 600])
    b = np.linspace(-1.0, 1.0, n)

    def obj(x):
        ax = a * x
        return 0.5 * float(x @ ax) - float(b @ x), ax - b

    tracemalloc.start()
    try:
        res = bfgs(obj, np.zeros(n), max_iter=100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.status == "converged"
    assert np.allclose(res.x_star, b / a, atol=1e-7)
    assert peak < 0.25 * n * n * 8


class _CountingGram(np.ndarray):
    """A Gram matrix that counts its matrix-vector products."""

    def __matmul__(self, other):
        self.products[0] += 1
        return np.asarray(self) @ other

    def __rmatmul__(self, other):
        self.products[0] += 1
        return other @ np.asarray(self)


def _ew_samples(n=30, seed=0):
    spec = default_pair()
    rng = Rng(seed)
    s = SampleSet(xs_p=sample_piecewise(spec, "p", n, rng, name="t/p"),
                  xs_q=sample_piecewise(spec, "q", n, rng, name="t/q"))
    return s, KernelSpec(kind="gaussian", sigma=median_heuristic(s.pooled))


def test_kernel_fit_takes_two_gram_products_per_iteration(monkeypatch):
    # rejected backtracking trials cost no product with G: the scores move
    # as s + t G p along the line, and G u is formed for accepted trials;
    # the start at c = 0 has scores 0, so G u is its only product
    products = [0]
    calls = []

    def counting_gram(*args):
        g = gram(*args).view(_CountingGram)
        g.products = products
        return g

    def counting_bfgs(obj, *args, **kwargs):
        def counted(point):
            calls.append(None)
            return obj(point)
        return optim.bfgs(counted, *args, **kwargs)

    monkeypatch.setattr(dre, "gram", counting_gram)
    monkeypatch.setattr(dre, "bfgs", counting_bfgs)
    monkeypatch.setattr(dre, "DUAL_NEWTON_MAX_Q", 0)  # ew by BFGS
    s, kernel = _ew_samples()
    model = fit(s, family_loss("ew"), kernel, 1e-2, max_iter=300)
    assert model.status == "converged"
    assert len(calls) > model.iterations + 1  # some trials were rejected
    assert products[0] <= 2 * model.iterations + 2


@pytest.mark.parametrize("family,alpha", [("ew", 1e-2), ("kulsif", 1e-3)])
def test_score_space_fit_matches_dense_reference(monkeypatch, family, alpha):
    # fit carries the scores along each line; reference_bfgs recomputes
    # G c and G v at every trial of the same line search.  Both start
    # from the penalty's inverse Hessian, D g = u / (2 alpha)
    monkeypatch.setattr(dre, "DUAL_NEWTON_MAX_Q", 0)  # ew by BFGS
    s, kernel = _ew_samples()
    loss = family_loss(family)
    g = gram(kernel, s.pooled, s.pooled)

    def start(c):
        return dre._score_risk(loss, len(s.xs_p), c, g @ c, alpha)[1] / (
            2.0 * alpha)

    ref = reference_bfgs(
        lambda c: empirical_risk(loss, g, len(s.xs_p), c, alpha),
        np.zeros(60), max_iter=300, start=start)
    model = fit(s, loss, kernel, alpha, max_iter=300, clamp_budget=None)
    assert model.status == ref.status == "converged"
    assert model.h0 == "penalty"
    assert model.train_risk == pytest.approx(ref.f_star, rel=1e-12)


def _assert_scores_stay_on_the_gram_image(monkeypatch, loss, alpha, seed,
                                          max_iter, h0,
                                          start=contextlib.nullcontext):
    """A BFGS fit of loss at alpha on _ew_samples(seed), run in the
    context start(), takes at least 200 iterations, ending on start h0,
    and the scores carried through every accepted step still equal G c
    to rounding."""
    points = []

    def recording_bfgs(obj, *args, **kwargs):
        def recorded(point):
            points.append(point)
            return obj(point)
        return optim.bfgs(recorded, *args, **kwargs)

    monkeypatch.setattr(dre, "bfgs", recording_bfgs)
    monkeypatch.setattr(dre, "DUAL_NEWTON_MAX_Q", 0)  # ew, poly by BFGS
    s, kernel = _ew_samples(seed=seed)
    with start():
        model = fit(s, loss, kernel, alpha, max_iter=max_iter,
                    clamp_budget=None)
    assert model.iterations >= 200
    assert model.h0 == h0
    c, scores = points[-1]
    assert c is model.coeffs
    fresh = gram(kernel, s.pooled, s.pooled) @ c
    assert np.linalg.norm(scores - fresh) < 1e-12 * np.linalg.norm(fresh)


def test_carried_scores_stay_on_the_gram_image(monkeypatch, identity_start):
    # ew at alpha 1e-6 takes about 600 iterations from the identity
    _assert_scores_stay_on_the_gram_image(monkeypatch, family_loss("ew"),
                                          1e-6, 0, 1000, "identity",
                                          identity_start)


def test_carried_scores_stay_on_the_gram_image_from_the_penalty_start(
        monkeypatch):
    # from the penalty start, ew at alpha 1e-6 would converge in under 100
    # iterations; poly (k = 6) at alpha 1e-4 on seed 1 stalls at its kink
    # and runs all 300
    _assert_scores_stay_on_the_gram_image(
        monkeypatch, family_loss("poly", k=6.0), 1e-4, 1, 300, "penalty")


def test_fit_is_unchanged_by_an_objective_wrapper(monkeypatch):
    # a benchmark tracer hands bfgs a one-argument closure with no
    # attributes; the fit must not depend on what the objective is
    s, kernel = _ew_samples()
    plain = fit(s, family_loss("lr"), kernel, 1e-3)
    monkeypatch.setattr(dre, "bfgs", lambda obj, *args, **kwargs: optim.bfgs(
        lambda x: obj(x), *args, **kwargs))
    wrapped = fit(s, family_loss("lr"), kernel, 1e-3)
    assert wrapped.coeffs.tobytes() == plain.coeffs.tobytes()
    assert (wrapped.train_risk, wrapped.iterations) == (
        plain.train_risk, plain.iterations)


def test_linear_objective_matches_the_plain_protocol():
    # f(x) = F(x, A x) with F(x, z) = 0.5 x'z - b'z and A symmetric
    # positive definite: the gradient A x - A b is A u for u = x - b
    rng = np.random.default_rng(3)
    m = rng.standard_normal((8, 8))
    a = m.T @ m + np.eye(8)
    b = rng.standard_normal(8)

    def plain(x):
        return 0.5 * float(x @ (a @ x)) - float(b @ (a @ x)), a @ (x - b)

    def linear(point):
        x, z = point
        return 0.5 * float(x @ z) - float(b @ z), x - b

    ref = bfgs(plain, np.zeros(8), max_iter=200, grad_tol=1e-10)
    res = bfgs(linear, np.zeros(8), max_iter=200, grad_tol=1e-10, linear=a)
    assert res.status == ref.status == "converged"
    assert res.iterations == ref.iterations
    assert np.allclose(res.x_star, b, atol=1e-8)
    assert res.h0 == ref.h0 == "identity"
    # the Hessian is A, so the penalty start (1 A)^-1 is exact: the unit
    # step along -u lands on b
    res = bfgs(linear, np.zeros(8), max_iter=200, grad_tol=1e-10, linear=a,
               curvature=1.0)
    assert (res.status, res.iterations, res.h0) == ("converged", 1, "penalty")
    assert np.allclose(res.x_star, b, atol=1e-12)


@pytest.mark.parametrize("curvature", [0.0, -1.0, np.inf, np.nan])
def test_a_curvature_outside_zero_to_inf_is_refused(curvature):
    with pytest.raises(ValueError, match="curvature in"):
        bfgs(spd_objective(np.eye(2), np.ones(2)), np.zeros(2),
             curvature=curvature)


def _cosh_objective(a, t, mu):
    """F(x, z) = sum cosh(z - t) + mu x'z/2 with z = A x, in both
    protocols, and the penalty start's D g(x) = u(x) / mu."""
    def linear(point):
        x, z = point
        return (float(np.sum(np.cosh(z - t))) + 0.5 * mu * float(x @ z),
                np.sinh(z - t) + mu * x)

    def plain(x):
        value, u = linear((x, a @ x))
        return value, a @ u

    return plain, linear, lambda x: linear((x, a @ x))[1] / mu


_COSH_A = np.array([[2.0, 0.5, 0.1], [0.5, 1.0, 0.3], [0.1, 0.3, 1.5]])
_COSH_T = np.array([3.0, -2.0, 1.0])


def _recording_pairs(monkeypatch):
    """The number of pairs held after each update, and the rows of the
    pair buffers it was written to."""
    held = []
    update = optim._InverseHessian.update

    def recording_update(hinv, s, w):
        update(hinv, s, w)
        held.append((hinv.k, len(hinv.s)))

    monkeypatch.setattr(optim._InverseHessian, "update", recording_update)
    return held


def test_penalty_start_keeps_its_pairs_past_n(monkeypatch):
    # n = 3 and 11 updates: the penalty start holds more than n
    # pairs at once, as the identity start does
    plain, linear, start = _cosh_objective(_COSH_A, _COSH_T, 3.0)
    held = _recording_pairs(monkeypatch)
    res = bfgs(linear, np.zeros(3), max_iter=100, grad_tol=1e-10,
               linear=_COSH_A, curvature=3.0)
    monkeypatch.undo()
    assert (res.status, res.h0) == ("converged", "penalty")
    assert max(k for k, _ in held) > 3
    ref = reference_bfgs(plain, np.zeros(3), max_iter=100, grad_tol=1e-10,
                         start=start)
    assert (res.status, res.iterations) == (ref.status, ref.iterations)
    assert np.allclose(res.x_star, ref.x_star, rtol=1e-10, atol=1e-12)
    # at mu 0.1, D is a poor scale; with its curvature kept, the penalty
    # start still needs no more iterations than the identity
    _, linear, _ = _cosh_objective(_COSH_A, _COSH_T, 0.1)
    penalty, identity = (bfgs(linear, np.zeros(3), max_iter=100,
                              linear=_COSH_A, curvature=mu)
                         for mu in (0.1, None))
    assert (penalty.status, penalty.h0) == ("converged", "penalty")
    assert (identity.status, identity.h0) == ("converged", "identity")
    assert penalty.iterations <= identity.iterations


@pytest.mark.parametrize("curvature", [None, 0.1])
def test_pair_buffers_grow_as_held_not_by_max_iter(monkeypatch, curvature):
    # max_iter 10^9 rows of pairs would take 48 GB; the buffers start at
    # n = 3 rows and double only as the run holds more pairs
    plain, linear, start = _cosh_objective(_COSH_A, _COSH_T, 0.1)
    held = _recording_pairs(monkeypatch)
    tracemalloc.start()
    try:
        res = bfgs(linear, np.zeros(3), max_iter=10**9, grad_tol=1e-10,
                   linear=_COSH_A, curvature=curvature)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    monkeypatch.undo()
    assert res.status == "converged"
    assert max(k for k, _ in held) > 3
    assert held[0][1] == 3
    assert all(k <= rows < 2 * k for k, rows in held if rows > 3)
    assert peak < 16 * 1024
    ref = reference_bfgs(plain, np.zeros(3), max_iter=10**9, grad_tol=1e-10,
                         start=None if curvature is None else start)
    assert (res.status, res.iterations) == (ref.status, ref.iterations)
    assert np.allclose(res.x_star, ref.x_star, rtol=1e-10, atol=1e-12)


def test_f_evals_counts_every_objective_evaluation():
    calls = []

    def counted(x):
        calls.append(None)
        return _rosenbrock(x)

    res = bfgs(counted, np.array([-1.2, 1.0]), max_iter=500, grad_tol=1e-10)
    assert res.f_evals == len(calls) > res.iterations + 1
    assert _projected_newton(counted, lambda x: np.eye(2), np.zeros(2),
                             -np.inf).f_evals is None


def test_a_non_finite_update_is_skipped():
    # lr at alpha 0 on separable points drives s'y down to about 1e-155,
    # where rho^2 overflows: that update is skipped like one that fails
    # the curvature test, so no NaN reaches the search direction and
    # the run goes on to max_iter rather than failing its search
    rng = Rng(7354)
    samples = SampleSet(xs_p=sample_piecewise(default_pair(), "p", 5, rng),
                        xs_q=sample_piecewise(default_pair(), "q", 5, rng))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = fit(samples, family_loss("lr"),
                    KernelSpec(kind="gaussian", sigma="median"), alpha=0.0,
                    max_iter=3000, grad_tol=0.0, clamp_budget=None)
    assert (model.status, model.iterations) == ("max_iter", 3000)
    assert np.all(np.isfinite(model.coeffs))


@pytest.mark.parametrize("max_iter,grad_tol", [(-1, 1e-8), (10, -1e-8),
                                               (10, np.nan)])
def test_negative_max_iter_or_bad_grad_tol_is_refused(max_iter, grad_tol):
    obj = spd_objective(np.eye(2), np.ones(2))
    with pytest.raises(ValueError, match="max_iter >= 0 and grad_tol >= 0"):
        bfgs(obj, np.zeros(2), max_iter=max_iter, grad_tol=grad_tol)


def test_zero_max_iter_and_zero_grad_tol_are_allowed():
    obj = spd_objective(np.eye(2), np.ones(2))
    res = bfgs(obj, np.zeros(2), max_iter=0)
    assert (res.status, res.iterations, res.grad_norm) == ("max_iter", 0, 1.0)
    res = bfgs(obj, np.zeros(2), grad_tol=0.0)
    assert np.array_equal(res.x_star, np.ones(2)) and res.grad_norm == 0.0


def test_grad_check_reports_a_nan_gradient():
    def obj(x):
        g = 2.0 * x
        g[1] = np.nan
        return float(x @ x), g
    assert np.isnan(grad_check(obj, np.array([1.0, -2.0, 0.5])))


def _box_kkt_point(a, b, lower):
    """The minimizer of x'a x/2 - b'x over x >= lower for a positive
    definite a: the one free set whose solve is feasible and leaves
    every held coordinate a nonnegative gradient."""
    n = len(b)
    for mask in itertools.product([False, True], repeat=n):
        free = np.array(mask)
        x = np.full(n, lower)
        x[free] = np.linalg.solve(a[np.ix_(free, free)],
                                  b[free] - a[np.ix_(free, ~free)] @ x[~free])
        if np.all(x >= lower) and np.all((a @ x - b)[~free] >= 0.0):
            return x
    raise AssertionError("no KKT point")


@pytest.mark.parametrize("lower", [0.0, -0.3])
def test_projected_newton_reaches_the_kkt_point_of_box_quadratics(lower):
    # random SPD quadratics with up to half their coordinates at the
    # bound, each against its KKT point found by trying every free set
    rng = np.random.default_rng(11)
    for n in (3, 5, 8, 10):
        m = rng.standard_normal((n, n))
        a = m.T @ m + 0.5 * np.eye(n)
        b = rng.standard_normal(n)
        res = _projected_newton(spd_objective(a, b), lambda x, a=a: a,
                                np.ones(n), lower, max_iter=50,
                                grad_tol=1e-12)
        assert res.status == "converged"
        assert np.all(res.x_star >= lower)
        assert np.max(np.abs(res.x_star - _box_kkt_point(a, b, lower))) <= 1e-8


def test_projected_newton_without_a_bound_is_one_newton_step():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((6, 6))
    a = m.T @ m + np.eye(6)
    b = rng.standard_normal(6)
    res = _projected_newton(spd_objective(a, b), lambda x: a, np.ones(6),
                            -np.inf, grad_tol=1e-10)
    assert (res.status, res.iterations) == ("converged", 1)
    assert np.allclose(res.x_star, np.linalg.solve(a, b), atol=1e-12)


def test_projected_newton_takes_a_bound_per_coordinate():
    # the unconstrained minimizer is (-2, -1); bounding only the second
    # coordinate at 0 holds it there, and the first, free, goes negative
    a = np.array([[2.0, 0.5], [0.5, 1.0]])
    b = a @ np.array([-2.0, -1.0])
    obj = spd_objective(a, b)
    res = _projected_newton(obj, lambda x: a, np.ones(2),
                            np.array([-np.inf, 0.0]), grad_tol=1e-12)
    assert res.status == "converged"
    assert res.x_star[1] == 0.0
    assert obj(res.x_star)[1][1] > 0.0
    assert res.x_star[0] < 0.0
    assert res.x_star[0] == pytest.approx(b[0] / a[0, 0], abs=1e-12)


def test_projected_newton_at_the_value_resolution_is_converged():
    # the gradient floor of 1e6 sum (x - a_i)^2 near its minimizer is
    # about 2e-7, above grad_tol, and no step lowers the 7e8 value
    # measurably: the fit has reached the value's resolution
    pts = np.random.default_rng(0).uniform(0.0, 3.0, 1000)

    def obj(x):
        r = x[0] - pts
        return 1e6 * float(r @ r), np.array([2e6 * float(np.sum(r))])

    res = _projected_newton(obj, lambda x: np.array([[2e6 * pts.size]]),
                            np.zeros(1), -np.inf)
    assert res.status == "converged"
    assert res.grad_norm > 1e-8
    assert abs(res.x_star[0] - np.mean(pts)) <= np.spacing(np.mean(pts))


def test_projected_newton_shares_the_stopping_checks():
    obj = spd_objective(np.eye(2), np.ones(2))
    for max_iter, grad_tol in ((-1, 1e-8), (10, np.nan)):
        with pytest.raises(ValueError,
                           match="max_iter >= 0 and grad_tol >= 0"):
            _projected_newton(obj, lambda x: np.eye(2), np.zeros(2), 0.0,
                              max_iter=max_iter, grad_tol=grad_tol)
    res = _projected_newton(obj, lambda x: np.eye(2), np.zeros(2), 0.0,
                            max_iter=0)
    assert (res.status, res.iterations, res.grad_norm) == ("max_iter", 0, 1.0)
