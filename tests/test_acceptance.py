"""End-to-end gate: one test per shipped contract, each at its stated
tolerance.  Everything here goes through public entry points, apart from
the empirical-risk gradient oracle of a07 (c); run with -v to get one
pass/fail line per contract."""
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

from ratioloss import (CLAMP_BUDGET, FAMILY_NAMES, GRAM_JITTER, RATIO_CAP,
                       KernelSpec, Rng, SampleSet, bfgs, default_pair,
                       family_loss, fit, gram, kulsif_fit_closed_form,
                       median_heuristic, predict_ratio, sample_piecewise,
                       weighted_poly_ridge)
from ratioloss.checks import (check_convexity, check_diamond,
                              check_excess_risk, check_savage, check_shuford,
                              check_weight_representation)
from ratioloss.figures import figure1, figure2, figure3

from oracles import empirical_risk, grad_check


def test_a01_excess_risk_equals_half_divergence():
    # risk gap of any score function is half the divergence between the
    # true ratio and the encoded one: 200+ random discrete pairs with up
    # to 6 support points, all eight builtin families, residual <= 1e-10
    t0 = time.monotonic()
    report = check_excess_risk(seed=0, n_pairs=200)
    elapsed = time.monotonic() - t0
    assert report["cases"] >= 200
    assert report["max_residual"] <= 1e-10
    assert report["passed"]
    assert elapsed < 10.0


def test_a02_classical_losses_recovered_up_to_constants():
    # the generic construction reproduces the least-squares, logistic and
    # KL partial losses up to a per-loss additive constant
    refs = {
        "kulsif": (lambda y: -y, lambda y: 0.5 * y ** 2,
                   np.linspace(-3.0, 3.0, 121)),
        "lr": (lambda y: np.logaddexp(0.0, -y), lambda y: np.logaddexp(0.0, y),
               np.linspace(-4.0, 4.0, 121)),
        "klest": (lambda y: -np.log(y), lambda y: y,
                  np.linspace(0.05, 5.0, 121)),
    }
    for name, (ref_pos, ref_neg, grid) in refs.items():
        loss = family_loss(name)
        for built, ref in ((loss.ell_pos, ref_pos), (loss.ell_neg, ref_neg)):
            diff = built(grid) - ref(grid)
            assert float(np.max(np.abs(diff - np.mean(diff)))) <= 1e-9, name


def test_a03_canonical_ratio_maps_have_closed_forms():
    # composing through the canonical link, the fitted score converts to
    # a ratio by an explicit formula per family
    ys = np.geomspace(1e-3, 50.0, 200)
    for k in (0.0, 1.0, 6.0):
        loss = family_loss("poly", k=k)
        want = ((1.0 + k) * ys) ** (1.0 / (1.0 + k))
        assert float(np.max(np.abs(loss.ratio_map.g(ys) - want))) <= 1e-10
    loss = family_loss("ew")
    want = 0.5 * np.log(2.0 * ys)
    assert float(np.max(np.abs(loss.ratio_map.g(ys) - want))) <= 1e-10


def test_a04_canonical_losses_are_certifiably_convex():
    # analytic convexity slacks, in units of 1/x, stay above -1e-9 on
    # [1e-6, 50] and numeric second derivatives of both partial losses
    # above -1e-8
    report = check_convexity(tolerance=1e-9, fd_tolerance=1e-8)
    assert report["detail"]["slack_violation"] <= 1e-9
    assert report["detail"]["fd_violation"] <= 1e-8
    assert report["passed"]


def test_a05_weight_representation_of_divergences():
    # pointwise Bregman divergence equals the quadrature of phi''
    # against the distance-to-threshold weight, 100 cases per family
    report = check_weight_representation(seed=0, n_cases=100)
    assert report["cases"] >= 800
    assert report["max_residual"] <= 1e-6
    assert report["passed"]


def test_a06_properness_identities():
    # Shuford weight-ratio agreement, the regret-remainder identity, and
    # the cost-curve transform identity, each over 100+ random cases
    shuford = check_shuford(seed=0, n_cases=100)
    assert shuford["cases"] >= 100
    assert shuford["max_residual"] <= 1e-7
    savage = check_savage(seed=0, n_cases=100)
    assert savage["cases"] >= 100
    assert savage["max_residual"] <= 1e-8
    diamond = check_diamond(seed=0)
    assert diamond["cases"] >= 100
    assert diamond["max_residual"] <= 1e-10
    assert shuford["passed"] and savage["passed"] and diamond["passed"]


def _piecewise_samples(seed: int, n: int) -> SampleSet:
    spec = default_pair()
    rng = Rng(seed)
    return SampleSet(xs_p=sample_piecewise(spec, "p", n, rng, name="acc/p"),
                     xs_q=sample_piecewise(spec, "q", n, rng, name="acc/q"))


def test_a07_optimizer_oracles():
    # (a) BFGS reproduces direct solves of random SPD quadratics
    rng = np.random.default_rng(11)
    for n in (3, 5, 8, 10):
        m = rng.standard_normal((n, n))
        a = m.T @ m + 0.5 * np.eye(n)
        b = rng.standard_normal(n)

        def quad(x, a=a, b=b):
            return 0.5 * float(x @ a @ x) - float(b @ x), a @ x - b

        res = bfgs(quad, np.zeros(n), max_iter=200, grad_tol=1e-12)
        assert float(np.max(np.abs(res.x_star - np.linalg.solve(a, b)))) <= 1e-8
    # (b) on the quadratic family the iterative fit agrees with the
    # closed-form linear solve at the training points, even on
    # near-singular gram matrices
    for seed, n, alpha in ((2, 10, 1e-2), (0, 15, 1e-3), (1, 20, 1e-3)):
        s = _piecewise_samples(seed, n)
        kernel = KernelSpec(kind="gaussian", sigma=median_heuristic(s.pooled))
        direct = kulsif_fit_closed_form(s, kernel, alpha=alpha)
        iterative = fit(s, family_loss("kulsif"), kernel, alpha=alpha,
                        max_iter=400, grad_tol=1e-10)
        gap = np.max(np.abs(predict_ratio(direct, s.pooled)
                            - predict_ratio(iterative, s.pooled)))
        assert float(gap) <= 1e-6
    # (c) analytic empirical-risk gradients agree with finite differences
    s = _piecewise_samples(0, 12)
    g = gram(KernelSpec(kind="gaussian", sigma=0.7), s.pooled, s.pooled)
    c0 = 0.05 * np.random.default_rng(3).standard_normal(len(s.pooled))
    for name in ("lr", "ew", "klest", "kulsif"):
        loss = family_loss(name)

        def obj(c, loss=loss):
            return empirical_risk(loss, g, len(s.xs_p), c, 0.05)

        assert grad_check(obj, c0) <= 1e-5


def test_a08_increasing_weights_improve_large_value_accuracy():
    # population fits on the default pair: sup error over the
    # large-ratio band decreases strictly along the family chain
    t0 = time.monotonic()
    out = figure1()
    elapsed = time.monotonic() - t0
    sups = [out["sup_errors"][name] for name in
            ("lr", "kulsif", "poly1", "poly6", "ew")]
    assert all(a > b for a, b in zip(sups, sups[1:])), sups
    assert elapsed < 30.0


def test_a09_bounded_small_sample_estimates():
    # at total size 10 with near-zero ridge, the exponential-weight fit
    # stays bounded while the least-squares one explodes (median of
    # max |ratio| over 10 replicates)
    out = figure2()
    med = {(c.family, c.size, c.alpha): c.median_max_abs
           for c in out["cells"]}
    assert med[("ew", 10, 1e-6)] < med[("kulsif", 10, 1e-6)]


def test_a10_weighting_trades_source_for_target_accuracy():
    # importance-weighted regression with exponential-weight ratios
    # beats logistic-ratio weighting under the target law and loses
    # under the source law
    t0 = time.monotonic()
    out = figure3()
    elapsed = time.monotonic() - t0
    assert out["l2p_sq"]["ew"] < out["l2p_sq"]["lr"]
    assert out["l2q_sq"]["ew"] > out["l2q_sq"]["lr"]
    assert elapsed < 60.0


def test_a11_importance_weighting_oracles():
    rng = np.random.default_rng(7)
    # (a) the weighted ridge solve agrees with direct minimization of
    # the weighted objective at the training points
    xs = np.sort(rng.uniform(-1.0, 1.0, 25))
    ys = np.sin(2.5 * xs) + 0.1 * rng.standard_normal(25)
    w = rng.uniform(0.2, 2.0, 25)
    degree, lam = 5, 1e-2 + GRAM_JITTER
    coef = weighted_poly_ridge(xs, ys, w, degree, 1e-2)
    # the features of the kernel (x y + 1)^degree
    phi = np.sqrt([math.comb(degree, j) for j in range(degree + 1)]) * (
        xs[:, None] ** np.arange(degree + 1))

    def obj(theta):
        resid = phi @ theta - ys
        value = float(np.mean(w * resid ** 2)) + lam * float(theta @ theta)
        grad = 2.0 * phi.T @ (w * resid) / len(ys) + 2.0 * lam * theta
        return value, grad

    res = bfgs(obj, np.zeros(degree + 1), max_iter=400, grad_tol=1e-11)
    assert float(np.max(np.abs(polyval(xs, coef) - phi @ res.x_star))) <= 1e-6


@pytest.mark.parametrize("command", [
    ("check",),
    ("fig1",),
    ("fig2",),
    ("fig3",),
])
def test_a12_cli_outputs_are_byte_deterministic(command, tmp_path):
    # same seed, same bytes: every report-producing command is rerun
    # into a second directory and compared file by file
    outs = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        args = [sys.executable, "-m", "ratioloss.cli", *command,
                "--out", str(out)]
        if command[0] != "fig1":
            args += ["--seed", "0"]
        proc = subprocess.run(args, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    first, second = outs
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    assert names, "command produced no output files"
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_a13_every_family_fits(family):
    # every shipped family fits end to end from the zero start: converged,
    # finite scores, clamped fraction within the fit-time budget
    s = _piecewise_samples(0, 50)
    kernel = KernelSpec(kind="gaussian", sigma=median_heuristic(s.pooled))
    loss = family_loss(family, k=6.0 if family == "poly" else 0.0)
    model = fit(s, loss, kernel, alpha=1e-2, max_iter=400)
    assert model.status == "converged"
    scores = model.scores(s.pooled)
    assert np.all(np.isfinite(scores))
    capped = predict_ratio(model, s.pooled) >= RATIO_CAP
    assert float(np.mean(capped)) <= CLAMP_BUDGET
    assert np.ptp(predict_ratio(model, s.pooled)) > 0.0


# (n_j, m_j) per atom: equal totals, then the last atom's m_j raised
ATOM_COUNTS = {"equal": [(3, 6), (5, 6), (8, 4), (2, 9), (12, 5)],
               "unequal": [(3, 6), (5, 6), (8, 4), (2, 9), (12, 15)]}


def _atom_roots(loss, n_j, m_j, alpha):
    """Per-atom root of w_P n_j ell_pos'(s) + w_Q m_j ell_neg'(s) +
    2 alpha N s, increasing in s, by bisection to adjacent floats; w_P =
    N/(2n) and w_Q = N/(2m) are the class weights of the balanced risk."""
    n, m = n_j.sum(), m_j.sum()
    rate = 2.0 * alpha * (n + m)
    w_p, w_q = (n + m) / (2.0 * n), (n + m) / (2.0 * m)

    def slope(s):
        return (w_p * n_j * loss.ell_pos1(s) + w_q * m_j * loss.ell_neg1(s)
                + rate * s)

    lo, hi = -np.ones(n_j.size), np.ones(n_j.size)
    while np.any(slope(lo) > 0.0):
        lo *= 2.0
    while np.any(slope(hi) < 0.0):
        hi *= 2.0
    while True:
        mid = 0.5 * (lo + hi)
        if np.all((mid == lo) | (mid == hi)):
            return mid
        below = slope(mid) < 0.0
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)


@pytest.mark.parametrize("totals", sorted(ATOM_COUNTS))
def test_a14_fits_on_atoms_match_the_per_atom_roots(totals):
    # P and Q points on five integer atoms with sigma 0.01: G is exactly
    # block-diagonal with blocks of ones, every point on atom j shares
    # one score s_j and c'Gc = sum_j s_j^2, so the fit's optimality
    # condition splits into one monotone equation per atom.  Each fit
    # stops at |gradient|_inf < 1e-12, which bounds the score error by
    # about 1e-12 / (2 alpha) = 5e-10 at alpha 1e-3; the worst observed
    # error is 7.9e-12 of the largest score (lr, alpha 1e-3, BFGS) and
    # 1.1e-13 for the Newton fits, held here to 1e-10
    n_j, m_j = np.array(ATOM_COUNTS[totals], dtype=float).T
    atoms = np.arange(5.0)
    s = SampleSet(xs_p=np.repeat(atoms, n_j.astype(int)),
                  xs_q=np.repeat(atoms, m_j.astype(int)))
    kernel = KernelSpec(kind="gaussian", sigma=0.01)
    assert set(np.unique(gram(kernel, s.pooled, s.pooled))) == {0.0, 1.0}
    for family, k in (("kulsif", None), ("lr", None), ("klest", None),
                      ("boost", None), ("poly", 1.0), ("poly", 6.0),
                      ("ew", None)):
        loss = family_loss(family, k)
        for alpha in (1.0, 0.1, 1e-3):
            model = fit(s, loss, kernel, alpha, max_iter=2000, grad_tol=1e-12,
                        clamp_budget=None)
            assert model.status == "converged", (family, k, alpha)
            want = _atom_roots(loss, n_j, m_j, alpha)
            err = np.max(np.abs(model.scores(atoms) - want))
            assert err <= 1e-10 * np.max(np.abs(want)), (family, k, alpha)
