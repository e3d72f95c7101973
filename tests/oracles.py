"""Reference computations the tests check the library against.

The library calls none of these.  Most reach a value the library states
in closed form by a path of their own: central differences
(derivative_consistency, grad_check, reid_convexity_margins), a generic
minimizer (properness_residuals) or the concave potential gamma
(gamma_funcs).  empirical_risk is a kernel fit's objective as a plain
function of the coefficients, over a whole Gram.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from ratioloss import BregmanGenerator, CompositeLoss, bfgs, conditional_risk
from ratioloss.dre import _score_risk
from ratioloss.generators import ScalarMap
from ratioloss.losses import _link_and_slope
from ratioloss.optim import Objective


def gamma_funcs(gen: BregmanGenerator, c1: float = 0.0,
                c2: float = 0.0) -> tuple[ScalarMap, ScalarMap]:
    """The concave potential gamma and its derivative on (0, 1).

    gamma(eta) = -(1 - eta) phi(eta / (1 - eta)) + c2 eta + c1.  Used as
    an independent oracle for the constructed losses: ell_pos(y) =
    gamma(eta_hat) + (1 - eta_hat) gamma'(eta_hat) at eta_hat =
    inv_link(y), and ell_neg analogously with -eta_hat gamma'.
    """
    def gamma(eta):
        eta = np.asarray(eta, dtype=float)
        x = eta / (1.0 - eta)
        return -(1.0 - eta) * gen.phi(x) + c2 * eta + c1

    def gamma1(eta):
        eta = np.asarray(eta, dtype=float)
        x = eta / (1.0 - eta)
        return gen.phi(x) - (1.0 + x) * gen.phi1(x) + c2

    return gamma, gamma1


def reid_convexity_margins(loss: CompositeLoss, etahat,
                           h: float = 1e-6) -> tuple[np.ndarray, np.ndarray]:
    """Slacks of the link-space convexity condition at eta_hat in (0,1).

    Uses the proper-loss weight w(eta) = lambda_neg'(eta)/eta with w'
    taken by central differences, and requires
        -1/eta <= w'/w - Psi''/Psi' <= 1/(1-eta).
    Returns (lower slack, upper slack); both nonnegative iff the
    condition holds.  Agrees with convexity_margin's verdict at
    x = eta/(1-eta).
    """
    etahat = np.atleast_1d(np.asarray(etahat, dtype=float))
    if np.any((etahat <= 0.0) | (etahat >= 1.0)):
        raise ValueError("etahat must lie strictly inside (0, 1)")

    def w(eta):
        _, y, psi1 = _link_and_slope(loss, eta)
        return loss.ell_neg1(y) * psi1 / eta

    x, y, psi1 = _link_and_slope(loss, etahat)
    psi2 = (loss.ratio_map.g_inv2(x) / (1.0 - etahat) ** 4
            + 2.0 * loss.ratio_map.g_inv1(x) / (1.0 - etahat) ** 3)
    w0 = loss.ell_neg1(y) * psi1 / etahat
    w1 = (w(etahat + h) - w(etahat - h)) / (2.0 * h)
    middle = w1 / w0 - psi2 / psi1
    return middle + 1.0 / etahat, 1.0 / (1.0 - etahat) - middle


def properness_residuals(loss: CompositeLoss, etas: Sequence[float],
                         max_iter: int = 200) -> np.ndarray:
    """For each eta, minimize the conditional risk over scores starting
    away from the link value and report |minimizer - link(eta)| scaled
    by |link(eta)| where that is large."""
    out = []
    for eta in etas:
        y_star = loss.link(float(eta))

        def obj(y: np.ndarray):
            yv = float(y[0])
            val = conditional_risk(loss, float(eta), yv)
            h = 1e-6 * max(1.0, abs(yv))
            g = (conditional_risk(loss, float(eta), yv + h)
                 - conditional_risk(loss, float(eta), yv - h)) / (2 * h)
            return val, np.array([g])

        res = bfgs(obj, np.array([y_star + 0.1]), max_iter=max_iter,
                   grad_tol=1e-12)
        out.append(abs(float(res.x_star[0]) - y_star)
                   / max(1.0, abs(y_star)))
    return np.array(out)


def derivative_consistency(gen: BregmanGenerator, grid: np.ndarray) -> float:
    """Max relative mismatch between central differences and the stored
    derivatives, over the given grid.  Used by certification tests."""
    grid = np.asarray(grid, dtype=float)
    h = 1e-6 * np.maximum(1.0, np.abs(grid))
    mismatch = []
    for f, d in ((gen.phi, gen.phi1), (gen.phi1, gen.phi2), (gen.phi2, gen.phi3)):
        num = (f(grid + h) - f(grid - h)) / (2.0 * h)
        ana = d(grid)
        mismatch.append(np.abs(num - ana) / np.maximum(1.0, np.abs(ana)))
    return float(np.max(mismatch))  # NaN if any point is NaN


def grad_check(obj: Objective, x, h: float = 1e-6) -> float:
    """Largest per-coordinate relative error between the analytic
    gradient and central differences of the value."""
    x = np.asarray(x, dtype=float)
    g = np.asarray(obj(x)[1], dtype=float)
    num = np.array([(float(obj(x + e)[0]) - float(obj(x - e)[0])) / (2.0 * h)
                    for e in h * np.eye(x.size)])
    # np.max propagates NaN, so a NaN coordinate is reported, not dropped
    return float(np.max(np.abs(g - num) / np.maximum(np.abs(num), 1e-8)))


def empirical_risk(loss: CompositeLoss, gram_matrix: np.ndarray, n_p: int,
                   coeffs: np.ndarray, alpha: float) -> tuple[float, np.ndarray]:
    """Penalized class-balanced risk and its gradient in the
    coefficients; the first n_p points are P, the rest Q."""
    value, u = _score_risk(loss, n_p, coeffs, gram_matrix @ coeffs, alpha)
    return value, gram_matrix @ u
