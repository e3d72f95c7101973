"""Quasi-Newton minimization with inverse-Hessian BFGS updates.

The objective protocol is a callable x -> (value, gradient).  Line
search is Armijo backtracking from unit step; non-finite trial values
are rejected like insufficient-decrease steps, so objectives may return
inf outside their effective domain.

The dense n x n inverse Hessian H is read once and written once per
iteration.  The product H g is carried across iterations: after a step,
one matvec gives H g_new, H y is its difference from the carried H g,
and the update corrects H g_new in O(n).  The BFGS update itself
(Nocedal & Wright, Numerical Optimization, 2nd ed., eq. 6.17) is
applied as the symmetric rank-2 step H -= s w' + w s', row block by row
block, with no n x n temporary.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

ARMIJO_C = 1e-4
ARMIJO_SHRINK = 0.5
MAX_HALVINGS = 60
# relative: s'y must exceed this times |s||y|, so updates survive the
# tiny-step regime where s'y is positive but absolutely minuscule
CURVATURE_FLOOR = 1e-10
# plateau acceptance: once the Armijo threshold is absorbed into f, the
# value cannot referee steps; fall back to the weak curvature condition
# with this sigma plus a no-blowup bound of PLATEAU_SLACK relative to f
WOLFE_SIGMA = 0.9
PLATEAU_SLACK = 1e-12
# the rank-2 inverse-Hessian update is applied this many rows at a time,
# so each block's product stays in cache and no n x n temporary exists
UPDATE_ROWS = 64

Objective = Callable[[np.ndarray], tuple[float, np.ndarray]]


@dataclass
class OptimResult:
    x_star: np.ndarray
    f_star: float
    grad_norm: float
    iterations: int
    status: str  # converged | max_iter | line_search_failed


def _backtrack(obj: Objective, x: np.ndarray, f: float, p: np.ndarray,
               dd: float):
    """Armijo backtracking from unit step.

    Returns (x_new, f_new, g_new) for the first sufficient-decrease step,
    or None when none exists.  A candidate whose displacement rounds to
    zero ends the search at once: every shorter step rounds to zero too,
    and accepting it would repeat the same point forever.  Once the
    Armijo threshold rounds back to f itself, the value has run out of
    resolution and cannot referee; acceptance then falls back to the
    weak curvature condition g_new'p >= sigma dd, guarded by a bound on
    how far above f the candidate may sit (float noise, not a real rise).
    """
    step = 1.0
    for _ in range(MAX_HALVINGS):
        x_new = x + step * p
        if np.array_equal(x_new, x):
            return None
        # probes may leave the effective domain; non-finite values are
        # rejected below, so their overflow warnings carry no signal
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            f_new, g_new = obj(x_new)
        f_new = float(f_new)
        if np.isfinite(f_new):
            threshold = f + ARMIJO_C * step * dd
            if f_new <= threshold:
                return x_new, f_new, g_new
            if (threshold == f
                    and f_new <= f + PLATEAU_SLACK * max(1.0, abs(f))):
                gn = np.asarray(g_new, dtype=float)
                if np.all(np.isfinite(gn)) and float(gn @ p) >= WOLFE_SIGMA * dd:
                    return x_new, f_new, gn
        step *= ARMIJO_SHRINK
    return None


def _reset(hinv: np.ndarray) -> None:
    """Overwrite hinv with the identity, in place."""
    hinv.fill(0.0)
    hinv.flat[::hinv.shape[0] + 1] = 1.0


def bfgs(obj: Objective, x0, max_iter: int = 100,
         grad_tol: float = 1e-8) -> OptimResult:
    """Minimize obj from x0.

    Stops when the gradient infinity norm drops below grad_tol
    ("converged"), after max_iter accepted steps ("max_iter"), or when
    backtracking cannot find a decrease even after restarting along
    -g / max(1, |g|_inf) ("line_search_failed").  The
    inverse-Hessian update is skipped whenever s'y <= 1e-10 |s||y|,
    keeping the approximation positive definite.
    """
    x = np.array(x0, dtype=float).copy()
    if x.ndim != 1:
        raise ValueError("x0 must be a 1-d vector")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f, g = obj(x)
    f = float(f)
    g = np.asarray(g, dtype=float)
    if not np.isfinite(f) or not np.all(np.isfinite(g)):
        raise ValueError("objective is not finite at the starting point")

    n = x.size
    hinv = np.eye(n)
    hg = g  # hinv @ g, carried across iterations
    left = np.empty((n, 2))  # [s w], times right = [w; s] gives s w' + w s'
    right = np.empty((2, n))
    iterations = 0
    status = "max_iter"

    for _ in range(max_iter):
        gnorm = float(np.max(np.abs(g)))
        if gnorm < grad_tol:
            status = "converged"
            break

        p = -hg
        dd = float(p @ g)
        restarted = False
        if dd >= 0.0:
            # stale curvature made p non-descent; restart from steepest descent
            _reset(hinv)
            hg = g
            p = -g
            dd = -float(g @ g)
            restarted = True

        trial = _backtrack(obj, x, f, p, dd)
        if trial is None and (not restarted or gnorm > 1.0):
            # a badly scaled direction can fail at every representable
            # step even though descent is still possible; retry once
            # along the gradient, scaled so the unit step moves no
            # coordinate by more than 1
            _reset(hinv)
            hg = g
            p = -g / max(1.0, gnorm)
            dd = float(p @ g)
            trial = _backtrack(obj, x, f, p, dd)
        if trial is None:
            status = "line_search_failed"
            break
        x_new, f_new, g_new = trial

        g_new = np.asarray(g_new, dtype=float)
        if not np.all(np.isfinite(g_new)):
            raise RuntimeError(
                f"non-finite gradient at accepted iterate {x_new!r}")

        s = x_new - x
        yv = g_new - g
        sy = float(s @ yv)
        hg_new = hinv @ g_new
        if sy > CURVATURE_FLOOR * float(np.linalg.norm(s)) * float(np.linalg.norm(yv)):
            # hinv -= rho (s hy' + hy s') - rho^2 (y'hy + s'y) s s', written
            # as hinv -= s w' + w s' with hy = hinv @ y = hg_new - hg
            rho = 1.0 / sy
            hy = hg_new - hg
            w = rho * hy - (0.5 * rho * rho * (float(yv @ hy) + sy)) * s
            left[:, 0] = s
            left[:, 1] = w
            right[0] = w
            right[1] = s
            for i in range(0, n, UPDATE_ROWS):
                hinv[i:i + UPDATE_ROWS] -= left[i:i + UPDATE_ROWS] @ right
            hg_new -= s * float(w @ g_new) + w * float(s @ g_new)
        x, f, g, hg = x_new, f_new, g_new, hg_new
        iterations += 1
    else:
        # loop exhausted; check convergence one last time
        if float(np.max(np.abs(g))) < grad_tol:
            status = "converged"

    return OptimResult(x_star=x, f_star=f,
                       grad_norm=float(np.max(np.abs(g))),
                       iterations=iterations, status=status)


def grad_check(obj: Objective, x, h: float = 1e-6) -> float:
    """Largest per-coordinate relative error between the analytic
    gradient and central differences of the value."""
    x = np.asarray(x, dtype=float)
    _, g = obj(x)
    g = np.asarray(g, dtype=float)
    worst = 0.0
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        fp, _ = obj(x + e)
        fm, _ = obj(x - e)
        num = (float(fp) - float(fm)) / (2.0 * h)
        rel = abs(g[i] - num) / max(abs(num), 1e-8)
        worst = max(worst, rel)
    return worst
