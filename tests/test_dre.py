"""Kernel density-ratio fitting: empirical risk, closed-form kulsif,
cross-validation, and the parametric population fit."""
import dataclasses
import itertools
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from ratioloss import (GRAM_JITTER, RATIO_CAP, FitError, KernelSpec,
                       PiecewisePairSpec, RatioModel, Rng, SampleSet, bfgs,
                       builtin_generator, canonical_ratio_map, construct_loss,
                       cross_validate_alpha, default_pair, family_loss, fit,
                       gram, kulsif_fit_closed_form, median_heuristic,
                       population_fit_parametric, predict_ratio,
                       sample_piecewise, sup_error, piecewise_beta,
                       gaussian_pair)
from ratioloss import dre, optim
from ratioloss.generators import parse_family
from ratioloss.dre import _run_jobs, _select_alpha

from oracles import empirical_risk, grad_check


def small_samples(n=12, m=12, seed=0):
    spec = default_pair()
    rng = Rng(seed)
    return SampleSet(xs_p=sample_piecewise(spec, "p", n, rng, name="t/fit"),
                     xs_q=sample_piecewise(spec, "q", m, rng, name="t/fit"))


def test_sample_set_pools_p_before_q():
    s = SampleSet(xs_p=np.array([0.0, 1.0]), xs_q=np.array([2.0]))
    assert s.pooled.shape == (3, 1)
    assert np.array_equal(s.pooled[:, 0], [0.0, 1.0, 2.0])
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
    value, grad = empirical_risk(loss, g, len(s.xs_p), np.zeros(24), 0.1)
    assert value == pytest.approx(np.log(2.0), rel=1e-12)
    assert grad.shape == (24,)


@pytest.mark.parametrize("family", ["lr", "ew", "klest"])
def test_empirical_risk_gradient(family):
    s = small_samples()
    loss = family_loss(family)
    g = gram(KernelSpec(kind="gaussian", sigma=0.7), s.pooled, s.pooled)
    rng = np.random.default_rng(3)
    c0 = 0.05 * rng.standard_normal(len(s.pooled))

    def obj(c):
        return empirical_risk(loss, g, len(s.xs_p), c, 0.05)

    assert grad_check(obj, c0) < 1e-5


def test_closed_form_kulsif_zeroes_the_risk_gradient():
    # optimality certificate computed through the generic loss machinery,
    # not the linear algebra that produced the coefficients
    s = small_samples(n=15, m=13)
    kernel = KernelSpec(kind="gaussian", sigma=median_heuristic(s.pooled))
    model = kulsif_fit_closed_form(s, kernel, alpha=1e-3)
    g = gram(kernel, s.pooled, s.pooled)
    _, grad = empirical_risk(family_loss("kulsif"), g, len(s.xs_p),
                             model.coeffs, 1e-3)
    assert float(np.max(np.abs(grad))) < 1e-10


def test_closed_form_kulsif_at_alpha_zero_uses_the_jitter_ridge():
    # alpha 0 solves with ridge GRAM_JITTER: the P coefficients are exactly
    # 1/GRAM_JITTER and the ill-conditioned Q block is solved only
    # backward-stably, so the pin is its normwise residual
    s = small_samples(n=100, m=100)
    kernel = KernelSpec(kind="gaussian", sigma=median_heuristic(s.pooled))
    model = kulsif_fit_closed_form(s, kernel, alpha=0.0)
    assert (model.status, model.solver) == ("closed_form", "closed_form")
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


@pytest.mark.parametrize("family,k", [("ew", 0.0), ("poly", 1.0),
                                      ("poly", 6.0)])
@pytest.mark.parametrize("alpha", [1e-6, 1e-2, 1.0])
def test_dual_newton_fit_reaches_the_minimum(family, k, alpha):
    # projected Newton on the Q-block dual against BFGS run on to
    # grad_tol 1e-14 on the primal: no higher risk, the P coefficients of
    # the dual form c_P = w_P/rho, and no Q coordinate held at its bound
    # while the dual gradient pulls it up.  With n = 20 and m = 24 the
    # class weights w_P = N/(2n) and w_Q = N/(2m) are not 1
    s = small_samples(n=20, m=24, seed=1)
    kernel = KernelSpec(kind="gaussian", sigma=median_heuristic(s.pooled))
    loss = family_loss(family, k=k)
    model = fit(s, loss, kernel, alpha, max_iter=300)
    assert model.status == "converged"
    g = gram(kernel, s.pooled, s.pooled)
    ref = bfgs(lambda c: empirical_risk(loss, g, len(s.xs_p), c, alpha),
               np.zeros(44), max_iter=3000, grad_tol=1e-14)
    assert model.train_risk <= ref.f_star + 1e-12 * max(1.0,
                                                       abs(ref.f_star))
    rho = 2.0 * alpha * 44
    w_p, w_q = 44 / (2 * 20), 44 / (2 * 24)
    assert np.all(model.coeffs[:20] == w_p / rho)
    beta = -rho * model.coeffs[20:] / w_q
    lower = float(loss.ratio_map.g(-np.inf))
    held = np.abs(beta - lower) <= 1e-12 * abs(lower)
    dual_grad = loss.ratio_map.g_inv(beta) - g[20:] @ model.coeffs
    assert np.all(dual_grad[held] >= -1e-8)


def test_dual_newton_fit_with_ratios_below_the_generators_floor():
    # canonical klest: g(-inf) = 0 lies below phi's clip at domain_eps,
    # and Q points far from P take ratios there.  The fit still reaches
    # the primal minimum and holds those ratios at the bound
    gen = builtin_generator("klest")
    loss = construct_loss(gen, canonical_ratio_map(gen))
    s = SampleSet(xs_p=np.linspace(-0.5, 0.5, 20),
                  xs_q=np.linspace(-1.0, 6.0, 24))
    kernel = KernelSpec(kind="gaussian", sigma=0.3)
    alpha = 1e-6
    model = fit(s, loss, kernel, alpha, max_iter=300, clamp_budget=None)
    assert model.solver == "newton"
    assert model.status == "converged"
    g = gram(kernel, s.pooled, s.pooled)
    ref = bfgs(lambda c: empirical_risk(loss, g, len(s.xs_p), c, alpha),
               np.zeros(44), max_iter=3000, grad_tol=1e-14)
    assert model.train_risk <= ref.f_star + 1e-12 * max(1.0,
                                                       abs(ref.f_star))
    beta = -2.0 * alpha * 44 * model.coeffs[20:] / (44 / (2 * 24))
    held = beta < gen.domain_eps
    assert np.all(beta[held] == 0.0) and np.sum(held) >= 2
    dual_grad = gen.phi1(beta) - g[20:] @ model.coeffs
    assert np.all(dual_grad[held] >= 0.0)


def test_dual_newton_fit_with_repeated_q_points_converges(monkeypatch):
    # repeated Q points repeat rows of the dual Hessian; once their
    # ratios reach the bound the Newton block is singular, and those
    # steps fall back to the diagonally scaled gradient
    singular = []

    def watched(*args):
        try:
            return real(*args)
        except np.linalg.LinAlgError:
            singular.append(None)
            raise

    real = optim._newton_direction
    monkeypatch.setattr(optim, "_newton_direction", watched)
    spec = default_pair()
    rng = Rng(0)
    xs_q = sample_piecewise(spec, "q", 15, rng, name="q")
    s = SampleSet(xs_p=sample_piecewise(spec, "p", 30, rng, name="p"),
                  xs_q=np.concatenate([xs_q, xs_q, xs_q[:5]]))
    kernel = KernelSpec(kind="gaussian", sigma=median_heuristic(s.pooled))
    model = fit(s, family_loss("poly", k=6.0), kernel, 1e-6, max_iter=300)
    assert model.status == "converged"
    assert singular


@pytest.mark.parametrize("label", ["kulsif", "lr", "klest", "boost", "ew",
                                   "poly1", "poly6", "closed-form"])
def test_duplicating_every_p_point_leaves_the_estimate_unchanged(label):
    # the class-balanced risk sum_P ell_pos/(2n) + sum_Q ell_neg/(2m) +
    # alpha |f|^2 is the same function of f when every P point is
    # repeated, so the fitted ratio is too; an unbalanced risk reads the
    # doubled P sample as a doubled ratio (0.72 to 1.5e12 relative on this
    # grid).  Measured over sampling seeds 0-9: at most 3.2e-7 for the
    # BFGS fits, which stop at |G u|_inf < 1e-12 on flat optima (kulsif
    # along near-null directions of G the largest, 4.1e-10 for lr), and
    # at most 1.6e-11 for the Newton fits and the closed form.  Each bound
    # is 3 and 6 times the largest of its group, and 7e5 below the
    # smallest unbalanced change
    xs_p = sample_piecewise(default_pair(), "p", 30, Rng(0), name="t/dup/p")
    xs_q = sample_piecewise(default_pair(), "q", 40, Rng(0), name="t/dup/q")
    once = SampleSet(xs_p=xs_p, xs_q=xs_q)
    twice = SampleSet(xs_p=np.concatenate([xs_p, xs_p]), xs_q=xs_q)
    kernel = KernelSpec(kind="gaussian", sigma=0.3)
    if label == "closed-form":
        models = [kulsif_fit_closed_form(s, kernel, 0.01) for s in (once, twice)]
    else:
        name, k = parse_family(label)
        models = [fit(s, family_loss(name, k=k), kernel, 0.01, max_iter=2000,
                      grad_tol=1e-12) for s in (once, twice)]
        assert [m.status for m in models] == ["converged"] * 2
    grid = np.linspace(-1.0, 1.0, 101)
    a, b = (predict_ratio(m, grid) for m in models)
    bound = 1e-6 if models[0].solver == "bfgs" else 1e-10
    assert np.max(np.abs(a - b) / a) <= bound


def test_solver_selection(monkeypatch):
    # projected Newton takes canonical-link fits with alpha > 0 and at
    # most DUAL_NEWTON_MAX_Q Q points; every other fit runs bfgs; the
    # model names the solver that ran
    used = []

    def spy(name, real):
        def wrapped(*args, **kwargs):
            used.append(name)
            return real(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(dre, "_projected_newton",
                        spy("newton", optim._projected_newton))
    monkeypatch.setattr(dre, "bfgs", spy("bfgs", optim.bfgs))
    assert dre.DUAL_NEWTON_MAX_Q == 128
    cases = [("ew", 0.0, 0.1, 128, "newton"),
             ("poly", 6.0, 0.1, 128, "newton"),
             ("ew", 0.0, 0.1, 129, "bfgs"), ("poly", 6.0, 0.1, 129, "bfgs"),
             ("ew", 0.0, 0.0, 10, "bfgs"), ("poly", 1.0, 0.0, 10, "bfgs")]
    cases += [(name, 0.0, 0.1, 10, "bfgs")
              for name in ("lr", "boost", "klest", "kulsif")]
    kernel = KernelSpec(kind="gaussian", sigma=1.0)
    for family, k, alpha, m, solver in cases:
        used.clear()
        model = fit(small_samples(n=5, m=m), family_loss(family, k=k),
                    kernel, alpha, max_iter=5, clamp_budget=None)
        assert used == [solver], (family, k, alpha, m)
        assert model.solver == solver, (family, k, alpha, m)


def _fit_samples(n, m, seed, pair="piecewise"):
    """The sample fit draws for --n n --m m --seed seed --pair pair."""
    rng = Rng(seed)
    if pair == "piecewise":
        spec = default_pair()
        return SampleSet(
            xs_p=sample_piecewise(spec, "p", n, rng, name="cli/fit"),
            xs_q=sample_piecewise(spec, "q", m, rng, name="cli/fit"))
    sampler, _ = gaussian_pair()
    return SampleSet(xs_p=sampler("p", n, rng, name="cli/fit"),
                     xs_q=sampler("q", m, rng, name="cli/fit"))


@pytest.mark.parametrize("pair,n,m,alphas", [
    ("piecewise", 60, 60, (10.0, 0.1, 1e-3, 1e-4)),
    ("piecewise", 90, 40, (10.0, 0.1, 1e-3, 1e-4)),
    ("gaussian", 50, 50, (1e-5, 1e-6, 1e-8))],
    ids=["60-60", "90-40", "gaussian-50-50"])
@pytest.mark.parametrize("family,k", [
    ("kulsif", 0.0), ("lr", 0.0), ("klest", 0.0), ("boost", 0.0),
    ("ew", 0.0), ("poly", 6.0), ("poly", 1.0)])
def test_penalty_start_converges_wherever_the_identity_start_does(
        monkeypatch, identity_start, family, k, pair, n, m, alphas):
    # every BFGS fit over alphas and three seeds, first from the identity,
    # then from the penalty's inverse Hessian: no fit is lost and none
    # ends higher
    monkeypatch.setattr(dre, "DUAL_NEWTON_MAX_Q", 0)  # ew, poly by BFGS
    loss = family_loss(family, k=k)
    kernel = KernelSpec(kind="gaussian", sigma="median")
    for alpha, seed in itertools.product(alphas, range(3)):
        s = _fit_samples(n, m, seed, pair)
        with identity_start():
            identity = fit(s, loss, kernel, alpha, max_iter=300,
                           clamp_budget=None)
        penalty = fit(s, loss, kernel, alpha, max_iter=300,
                      clamp_budget=None)
        case = (alpha, seed, identity.status, penalty.status)
        assert identity.h0 == "identity", case
        if identity.status == "converged":
            assert penalty.status == "converged", case
        assert penalty.train_risk <= identity.train_risk + 1e-12 * max(
            1.0, abs(identity.train_risk)), case


def test_penalty_start_holds_on_a_rank_three_polynomial_gram():
    # the unscaled start D = G^-1 diverged here, to |c| 1e50
    model = fit(_fit_samples(100, 100, 1), family_loss("boost"),
                KernelSpec(kind="polynomial", degree=2), 10.0, max_iter=300)
    assert (model.status, model.h0) == ("converged", "penalty")
    assert np.max(np.abs(model.coeffs)) < 1.0


def test_lr_converges_from_the_penalty_start_at_a_tiny_alpha(
        identity_start):
    # lr on the shifted-normal pair at n = m = 50, seed 0, alpha 1e-6:
    # while lr's ell_neg was composed, and cancelled to 0 at large
    # scores, the penalty start ended line_search_failed after 3
    # iterations here, so such fits started from the identity
    s = _fit_samples(50, 50, 0, "gaussian")
    loss = family_loss("lr")
    kernel = KernelSpec(kind="gaussian", sigma="median")
    kw = dict(max_iter=300, clamp_budget=None)
    model = fit(s, loss, kernel, 1e-6, **kw)
    with identity_start():
        identity = fit(s, loss, kernel, 1e-6, **kw)
    assert (model.status, model.h0) == ("converged", "penalty")
    assert (identity.status, identity.h0) == ("converged", "identity")
    assert model.iterations < identity.iterations
    assert model.train_risk <= identity.train_risk + 1e-12


def test_klest_falls_back_to_its_identity_trajectory():
    # from zero scores klest's first search fails from either start; the
    # scaled-gradient retry then keeps the identity, so the fit takes the
    # iterations and reaches the risk it did from the identity start
    model = fit(_fit_samples(100, 100, 0), family_loss("klest"),
                KernelSpec(kind="gaussian", sigma="median"), 0.1,
                max_iter=300)
    assert (model.status, model.h0, model.iterations) == (
        "converged", "identity", 127)
    assert model.train_risk == 0.6075781097847375


def _canonical_lr():
    gen = builtin_generator("lr")
    return construct_loss(gen, canonical_ratio_map(gen))


@pytest.mark.parametrize("make_loss", [
    lambda: family_loss("poly", k=0.0), lambda: family_loss("poly", k=1.0),
    lambda: family_loss("poly", k=6.0), lambda: family_loss("ew"),
    _canonical_lr], ids=["poly0", "poly1", "poly6", "ew", "lr-canonical"])
def test_losses_solved_in_the_dual_meet_its_assumptions(make_loss):
    # _dual_risk takes ell_pos(y) = c - y and ell_neg'(y) = g(y)
    loss = make_loss()
    assert dre._solver(loss, 0.1, 10) == "newton"
    y = loss.ratio_map.g_inv(np.geomspace(1e-2, 1e2, 41))
    assert np.all(loss.ell_pos1(y) == -1.0)
    assert loss.ell_neg1 is loss.ratio_map.g


@pytest.mark.parametrize("seed,rep", [(2, 1), (2, 2), (8, 0), (9, 3)])
def test_dual_newton_follows_bounds_one_crossing_at_a_time(seed, rep):
    # figure2's ew fits at size 100, alpha 1e-6, sampled as it samples
    # them: converged in 19, 36, 29 and 16 Newton steps.  A step that
    # holds every crossing coordinate at its bound at once and
    # re-solves ends them max_iter at 200 with |g|_inf 2.7e2 to 6.4e2
    sampler, _ = gaussian_pair()
    rng = Rng(seed)
    tag = f"fig2/ew/100/{1e-6:g}/{rep}"
    s = SampleSet(xs_p=sampler("p", 50, rng, name=f"{tag}/p"),
                  xs_q=sampler("q", 50, rng, name=f"{tag}/q"))
    model = fit(s, family_loss("ew"), KernelSpec(kind="gaussian", sigma="median"),
                1e-6, max_iter=200)
    assert model.solver == "newton"
    assert model.status == "converged"


def test_train_risk_is_the_risk_at_the_returned_coefficients():
    # train_risk is formed from a fresh G c, not from the scores BFGS
    # carries along its search lines, which can drift from G c on a hard
    # fit
    spec = default_pair()
    rng = Rng(0)
    s = SampleSet(xs_p=sample_piecewise(spec, "p", 800, rng, name="cli/fit"),
                  xs_q=sample_piecewise(spec, "q", 400, rng, name="cli/fit"))
    loss = family_loss("lr")
    model = fit(s, loss, KernelSpec(kind="gaussian", sigma="median"), 1e-4,
                max_iter=100, clamp_budget=None)
    g = gram(model.kernel, s.pooled, s.pooled)
    f, _ = empirical_risk(loss, g, len(s.xs_p), model.coeffs, 1e-4)
    assert abs(model.train_risk - f) <= 1e-12 * abs(f)


def test_fit_validation_and_budget():
    s = small_samples()
    kernel = KernelSpec(kind="gaussian", sigma=1.0)
    for alpha in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError):
            fit(s, family_loss("lr"), kernel, alpha=alpha)
    # a negative alpha would otherwise be solved as alpha 0
    for alpha in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            kulsif_fit_closed_form(s, kernel, alpha=alpha)
    # a ratio map that caps every score's estimate
    loss = family_loss("lr")
    capped = dataclasses.replace(
        loss.ratio_map, g=lambda y: np.full(np.shape(y), RATIO_CAP))
    loss = dataclasses.replace(loss, ratio_map=capped)
    with pytest.raises(FitError):
        fit(s, loss, kernel, alpha=0.1, max_iter=30)


@pytest.mark.parametrize("label", ["kulsif", "lr", "klest", "boost", "poly0",
                                   "poly1", "poly2.5", "poly6"])
def test_the_clamp_counts_scores_whose_ratio_reaches_the_cap(label):
    # the clamp check counts the training estimates that predict_ratio
    # caps, so its score threshold is g^-1(RATIO_CAP) for every ratio
    # map.  Scores sit 1e-14 relative to either side of it: poly's map
    # ((1 + k) y)^(1/(1 + k)) shrinks a relative step by 1 + k, so one
    # ulp of the score can leave g(y) on the same float at k = 6
    name, k = parse_family(label)
    loss = family_loss(name, k=k)
    bound = float(loss.ratio_map.g_inv(RATIO_CAP))
    assert 0.0 < bound < np.inf
    assert dre._clamped_fraction(loss, np.array([bound * (1.0 + 1e-14)])) == 1.0
    assert dre._clamped_fraction(loss, np.array([bound * (1.0 - 1e-14)])) == 0.0
    assert dre._clamped_fraction(loss, np.array([-bound, 0.0, bound * 2.0])) == (
        pytest.approx(1.0 / 3.0))


def test_ew_estimates_never_reach_the_cap():
    # ew's map log(2y)/2 reaches RATIO_CAP only at an infinite score
    loss = family_loss("ew")
    with np.errstate(over="ignore"):
        assert float(loss.ratio_map.g_inv(RATIO_CAP)) == np.inf
    scores = np.array([-1e300, 0.0, 1e300])
    assert dre._clamped_fraction(loss, scores) == 0.0


def test_a_custom_loss_whose_estimates_all_reach_the_cap_fails():
    # canonical lr maps score 0 to ratio 1/expm1(1e-12), about 1e12, and a
    # ridge of 1e13 pulls every score so close to 0 that every training
    # estimate is capped; the clamp check of the custom loss sees it
    gen = builtin_generator("lr")
    loss = construct_loss(gen, canonical_ratio_map(gen))
    s = small_samples()
    kernel = KernelSpec(kind="gaussian", sigma=1.0)
    model = fit(s, loss, kernel, alpha=1e13, clamp_budget=None)
    assert model.status == "converged"
    assert np.all(predict_ratio(model, s.pooled) == RATIO_CAP)
    with pytest.raises(FitError):
        fit(s, loss, kernel, alpha=1e13)


def test_predict_ratio_caps_and_counts():
    kernel = KernelSpec(kind="gaussian", sigma=1.0)
    model = RatioModel(kernel=kernel, centers=np.array([[0.0]]),
                       coeffs=np.array([2e6]), loss=family_loss("klest"))
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
needs_openblas = pytest.mark.skipif(
    dre._openblas_threads() is None,
    reason="numpy exports no OpenBLAS thread control")


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


@needs_fork
@needs_openblas
def test_fit_workers_inherit_one_openblas_thread(usable_cpus):
    # the caller sets one thread just before it forks and restores its
    # own count after a normal return, a failing job and an interrupt
    class Interrupted(Exception):
        pass

    def interrupt(signum, frame):
        raise Interrupted

    def failing(i):
        raise FitError(f"job {i}")

    get, set_threads = dre._openblas_threads()
    saved = get()
    usable_cpus(2)
    parent = os.getpid()
    previous = signal.signal(signal.SIGALRM, interrupt)
    try:
        set_threads(3)
        assert _run_jobs(lambda i: (os.getpid() != parent, get()), 4) == [
            (True, 1)] * 4
        assert get() == 3
        with pytest.raises(FitError, match="^job 0$"):
            _run_jobs(failing, 4)
        assert get() == 3
        signal.setitimer(signal.ITIMER_REAL, 0.2)
        with pytest.raises(Interrupted):
            _run_jobs(lambda i: time.sleep(30), 2)
        assert get() == 3
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        set_threads(saved)
    _assert_no_child_left()


@needs_fork
@needs_openblas
def test_without_openblas_thread_control_workers_keep_the_count(
        usable_cpus, monkeypatch):
    get, set_threads = dre._openblas_threads()
    saved = get()
    usable_cpus(2)
    monkeypatch.setattr(dre, "_openblas_threads", lambda: None)
    try:
        set_threads(3)
        assert _run_jobs(lambda i: (i, get()), 4) == [(i, 3) for i in range(4)]
        assert get() == 3
    finally:
        set_threads(saved)
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
    # the optimum over t2 >= 0 interior where the oracle applies
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


def test_sup_error_of_shifted_curve():
    spec = default_pair()
    shifted = lambda xs: piecewise_beta(spec, xs) + 0.7
    assert sup_error(shifted, spec, 0.9, 1.0) == pytest.approx(0.7, abs=1e-12)
