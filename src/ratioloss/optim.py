"""Unconstrained minimization by BFGS, and bound-constrained minimization
by projected Newton.

The objective protocol is a callable x -> (value, gradient).  Line
search is Armijo backtracking from unit step; non-finite trial values
are rejected like insufficient-decrease steps, so objectives may return
inf outside their effective domain.

Objectives of the form f(x) = F(x, A x) with a symmetric matrix A, such
as a kernel risk whose scores are G c, search in score space: bfgs
carries z = A x, forms A p once per search direction and evaluates each
trial at (x + t p, z + t A p) in O(n).  The gradient A u is formed only
for an accepted trial, or for a trial that needs the plateau test.  A
run therefore costs two products with A at the start and about two per
iteration (one more for a scaled-gradient retry), however many trials
are rejected.  A plain objective is the case A = I: it is adapted once
to take the pair (x, x), and its gradient is u itself.

The BFGS update (Nocedal & Wright, Numerical Optimization, 2nd ed.,
eq. 6.17) is the symmetric rank-2 step H -= s w' + w s', so the inverse
Hessian is kept in the compact form of Byrd, Nocedal & Schnabel (Math.
Prog. 63, 1994): H = D - S'W - W'S over the rows s, w of the updates
applied since the last restart.  A product H v costs O(nk) for k held
pairs and no n x n array exists.  The start D is the identity, or, for
a quadratic part of curvature mu in A, that part's inverse Hessian
(mu A)^-1 (Nocedal & Wright, section 6.1), applied to g = A u as u/mu
with no solve and no product: dre.fit passes mu = 2 alpha for its
penalty alpha c'Gc at every alpha > 0, and no mu at alpha = 0.  A run
that has to retry along the scaled gradient keeps the identity from
then on; a restart after a non-descent direction goes back to D.  Once
n pairs are held they are folded into a dense D, which happens only
when max_iter >= n, that is, for small problems; from the penalty
start, which has no dense form, the run restarts instead.  The product
H g is carried across iterations: after a step, one product gives
H g_new, H y is its difference from the carried H g, and the update
corrects H g_new in O(n).

_projected_newton minimizes over x >= lower with the same objective
protocol plus a Hessian callable; dre solves the dual of small
canonical-link fits and the population fits with it.
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

# x -> (value, gradient), or (x, A x) -> (value, u) with gradient A u
Objective = Callable[..., tuple[float, np.ndarray]]
# a lower bound of projected Newton: one for every coordinate, or one
# per coordinate with -inf for a free one
Bound = float | np.ndarray


@dataclass
class OptimResult:
    x_star: np.ndarray
    f_star: float
    grad_norm: float
    iterations: int
    status: str  # converged | max_iter | line_search_failed
    f_evals: int | None = None  # objective evaluations of a bfgs run
    h0: str | None = None  # bfgs's start at the end: penalty | identity


def _backtrack(obj: Objective, x: np.ndarray, z: np.ndarray, f: float,
               p: np.ndarray, ap: np.ndarray, dd: float, grad: Callable):
    """Armijo backtracking from unit step.

    The trial at step t is the point (x + t p, z + t ap), for z = A x
    and ap = A p; obj maps it to (value, u) and grad(u) is the gradient,
    formed only for a trial that passes Armijo or needs the curvature
    test.  Returns (point, f_new, u, g_new) for the first
    sufficient-decrease step, or None when none exists.  A candidate
    whose displacement rounds to zero ends the search at once: every
    shorter step rounds to zero too, and accepting it would repeat the
    same point forever.
    Once the Armijo threshold rounds back to f itself, the value has run
    out of resolution and cannot referee; acceptance then falls back to
    the weak curvature condition g_new'p >= sigma dd, guarded by a bound
    on how far above f the candidate may sit (float noise, not a real
    rise).
    """
    step = 1.0
    for _ in range(MAX_HALVINGS):
        x_new = x + step * p
        if np.array_equal(x_new, x):
            return None
        point = (x_new, z + step * ap)
        # probes may leave the effective domain; non-finite values are
        # rejected below, so their overflow warnings carry no signal
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            f_new, out = obj(point)
        f_new = float(f_new)
        if np.isfinite(f_new):
            threshold = f + ARMIJO_C * step * dd
            if f_new <= threshold:
                return point, f_new, out, grad(out)
            if (threshold == f
                    and f_new <= f + PLATEAU_SLACK * max(1.0, abs(f))):
                gn = grad(out)
                if np.all(np.isfinite(gn)) and float(gn @ p) >= WOLFE_SIGMA * dd:
                    return point, f_new, out, gn
        step *= ARMIJO_SHRINK
    return None


class _InverseHessian:
    """H = D - S'W - W'S, with D the start until the first fold: the
    identity, or (mu A)^-1 for a curvature mu."""

    def __init__(self, n: int, rows: int, mu: float | None):
        self.s = np.empty((rows, n))
        self.w = np.empty((rows, n))
        self.k = 0  # pairs held
        self.d = None  # dense D; None stands for the start
        self.mu = mu  # None for the identity start

    def dot(self, v: np.ndarray, u: np.ndarray | None = None) -> np.ndarray:
        """H v, for a vector or a matrix v; u, with A u = v, is read
        only from the penalty start."""
        if self.d is not None:
            out = self.d @ v
        elif self.mu is None:
            out = v.copy()
        else:
            out = u / self.mu
        if self.k:
            s, w = self.s[:self.k], self.w[:self.k]
            out -= s.T @ (w @ v) + w.T @ (s @ v)
        return out

    def update(self, s: np.ndarray, w: np.ndarray) -> bool:
        """H -= s w' + w s'; False when that left n pairs from the
        penalty start, which has no dense form to fold them into, and
        they were dropped instead: H is D again."""
        self.s[self.k] = s
        self.w[self.k] = w
        self.k += 1
        n = s.size
        if self.k == n:
            if self.mu is not None:
                _reset(self)
                return False
            # n pairs cost as much as a dense matrix; fold them into D
            self.d = self.dot(np.eye(n))
            self.k = 0
        return True


def _reset(hinv: _InverseHessian) -> None:
    """Make hinv its start D again, dropping its pairs and any fold."""
    hinv.k = 0
    hinv.d = None


def _check_stopping(max_iter: int, grad_tol: float) -> None:
    """ValueError unless max_iter >= 0 and grad_tol >= 0 (NaN fails)."""
    if not (max_iter >= 0 and grad_tol >= 0):
        raise ValueError(f"need max_iter >= 0 and grad_tol >= 0, got "
                         f"{max_iter!r} and {grad_tol!r}")


def bfgs(obj: Objective, x0, max_iter: int = 100, grad_tol: float = 1e-8,
         linear=None, curvature: float | None = None) -> OptimResult:
    """Minimize obj from x0.

    Without linear, obj maps x to (value, gradient).  With linear = A,
    a symmetric matrix, the objective is f(x) = F(x, A x): obj maps the
    pair (x, z) with z = A x to (F, u), and the gradient of f is A u.
    The scores z are carried along each search line rather than
    recomputed, so rounding can make them drift from A x.  A curvature
    mu > 0 starts the inverse Hessian from (mu A)^-1 rather than the
    identity (see the module docstring); the result's h0 is "penalty"
    for such a run, or "identity" without a curvature or once the run
    has fallen back to the gradient, as after a failed search.

    Stops when the gradient infinity norm drops below grad_tol
    ("converged"), after max_iter accepted steps ("max_iter"), or when
    backtracking cannot find a decrease even after restarting along
    -g / max(1, |g|_inf) ("line_search_failed").  The
    inverse-Hessian update is skipped whenever s'y <= 1e-10 |s||y|,
    keeping the approximation positive definite.  ValueError unless
    max_iter >= 0, grad_tol >= 0 and curvature is None or in (0, inf).
    """
    _check_stopping(max_iter, grad_tol)
    if curvature is not None and not 0.0 < curvature < np.inf:
        raise ValueError(f"need a curvature in (0, inf), got {curvature!r}")
    x = np.array(x0, dtype=float)
    if x.ndim != 1:
        raise ValueError("x0 must be a 1-d vector")
    f_evals = 0

    def evaluate(point):
        nonlocal f_evals
        f_evals += 1
        if linear is not None:
            return obj(point)
        # a plain objective is the case A = I, where u is the gradient
        value, grad = obj(point[0])
        return value, np.asarray(grad, dtype=float)

    if linear is None:
        apply = lambda v: v
    else:
        def apply(v):
            with np.errstate(over="ignore", invalid="ignore"):
                return linear @ v
    z = apply(x)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f, u = evaluate((x, z))
    f = float(f)
    g = apply(u)
    if not np.isfinite(f) or not np.all(np.isfinite(g)):
        raise ValueError("objective is not finite at the starting point")

    def search(p, dd):
        return _backtrack(evaluate, x, z, f, p, apply(p), dd, apply)

    n = x.size
    # every update is one accepted step, so at most max_iter are held
    hinv = _InverseHessian(n, min(n, max_iter), curvature)
    hg = hinv.dot(g, u)  # carried across iterations
    iterations = 0

    while True:
        gnorm = float(np.max(np.abs(g)))
        if gnorm < grad_tol:
            status = "converged"
            break
        if iterations >= max_iter:
            status = "max_iter"
            break

        p = -hg
        dd = float(p @ g)
        restarted = False
        if dd >= 0.0:
            # stale curvature made p non-descent; restart from D, or
            # from steepest descent where D g is not descent either
            _reset(hinv)
            hg = hinv.dot(g, u)
            if float(hg @ g) <= 0.0:
                hinv.mu = None
                hg = g
            p = -hg
            dd = float(p @ g)
            restarted = True

        trial = search(p, dd)
        if trial is None and (not restarted or gnorm > 1.0
                              or hinv.mu is not None):
            # a badly scaled direction can fail at every representable
            # step even though descent is still possible; retry once
            # along the gradient, scaled so the unit step moves no
            # coordinate by more than 1, and keep the identity start
            _reset(hinv)
            hinv.mu = None
            hg = g
            p = -g / max(1.0, gnorm)
            dd = float(p @ g)
            trial = search(p, dd)
        if trial is None:
            status = "line_search_failed"
            break
        (x_new, z_new), f_new, u_new, g_new = trial

        if not np.all(np.isfinite(g_new)):
            raise RuntimeError(
                f"non-finite gradient at accepted iterate {x_new!r}")

        s = x_new - x
        yv = g_new - g
        sy = float(s @ yv)
        hg_new = hinv.dot(g_new, u_new)
        if sy > CURVATURE_FLOOR * float(np.linalg.norm(s)) * float(np.linalg.norm(yv)):
            # hinv -= rho (s hy' + hy s') - rho^2 (y'hy + s'y) s s', written
            # as hinv -= s w' + w s' with hy = hinv @ y = hg_new - hg
            rho = 1.0 / sy
            hy = hg_new - hg
            w = rho * hy - (0.5 * rho * rho * (float(yv @ hy) + sy)) * s
            if hinv.update(s, w):
                hg_new -= s * float(w @ g_new) + w * float(s @ g_new)
            else:
                hg_new = hinv.dot(g_new, u_new)
        x, z, f, g, u, hg = x_new, z_new, f_new, g_new, u_new, hg_new
        iterations += 1

    return OptimResult(x_star=x, f_star=f, grad_norm=gnorm,
                       iterations=iterations, status=status, f_evals=f_evals,
                       h0="identity" if hinv.mu is None else "penalty")


def _held(x: np.ndarray, g: np.ndarray, lower: Bound) -> np.ndarray:
    """The coordinates at the bound whose gradient pushes them below it."""
    return (x <= lower) & (g > 0.0)


def _projected_norm(x: np.ndarray, g: np.ndarray, lower: Bound) -> float:
    """max |g_j| over the coordinates not held at the bound: the
    first-order optimality measure of min f subject to x >= lower."""
    return float(np.max(np.abs(g[~_held(x, g, lower)]), initial=0.0))


def _newton_direction(h: np.ndarray, g: np.ndarray, lo: np.ndarray,
                      held: np.ndarray) -> np.ndarray:
    """A step d >= lo that lowers the model g'd + d'h d/2 from d = 0,
    with d = 0 on the held coordinates.

    The free coordinates take the Newton step of their block of h.
    Where that step would cross a bound, it stops at the first crossing,
    the crossing coordinate is held at its bound, and the rest re-solve
    from there: one pass of the primal active-set method for the box
    constrained model, so each piece lowers the model further.
    """
    d = np.zeros_like(g)
    held = held.copy()
    while True:
        free = ~held
        target = d.copy()
        target[free] = np.linalg.solve(h[np.ix_(free, free)],
                                       -(g[free] + h[np.ix_(free, held)] @ d[held]))
        cross = free & (target < lo)
        if not cross.any():
            return target
        step = target - d
        ratios = (lo - d)[cross] / step[cross]
        k = np.flatnonzero(cross)[np.argmin(ratios)]
        d += float(np.min(ratios)) * step
        d[k] = lo[k]
        held[k] = True


def _arc_search(obj: Objective, x: np.ndarray, f: float, g: np.ndarray,
                p: np.ndarray, lower: Bound, gnorm: float):
    """Armijo backtracking from unit step along the projection arc
    x(t) = max(x + t p, lower): a trial passes when
    f(x(t)) <= f + ARMIJO_C g'(x(t) - x).

    Non-finite trials are rejected.  Once the predicted decrease
    -g'(x(t) - x) is below the value's resolution, PLATEAU_SLACK
    relative to f, the value cannot referee; a trial no more than that
    above f then passes when it lowers the projected gradient norm below
    gnorm.  Returns (x(t), f, g) or None, as _backtrack does.
    """
    noise = PLATEAU_SLACK * max(1.0, abs(f))
    step = 1.0
    for _ in range(MAX_HALVINGS):
        x_new = np.maximum(x + step * p, lower)
        if np.array_equal(x_new, x):
            return None
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            f_new, g_new = obj(x_new)
        f_new = float(f_new)
        if np.isfinite(f_new) and np.all(np.isfinite(g_new)):
            decrease = -float(g @ (x_new - x))
            if f_new <= f - ARMIJO_C * decrease:
                return x_new, f_new, g_new
            if (decrease <= noise and f_new <= f + noise
                    and _projected_norm(x_new, g_new, lower) < gnorm):
                return x_new, f_new, g_new
        step *= ARMIJO_SHRINK
    return None


def _projected_newton(obj: Objective, hess: Callable, x0, lower: Bound,
                      max_iter: int = 100,
                      grad_tol: float = 1e-8) -> OptimResult:
    """Minimize obj over x >= lower by projected Newton (Bertsekas,
    SIAM J. Control Optim. 20, 1982).

    obj maps x to (value, gradient), hess maps x to the Hessian matrix,
    and lower is one bound for every coordinate or an array of
    per-coordinate bounds, -inf for a free coordinate.  The coordinates
    at the bound whose gradient is positive are held there; the others
    take the Newton step of their block of the Hessian, followed along
    the bounds it meets (_newton_direction), and the step is searched
    along the projection arc (_arc_search).  When that search fails, or
    the block is singular, one retry moves every coordinate by its
    gradient scaled by the Hessian diagonal, projected onto the bound.

    Stops when the projected gradient norm (_projected_norm) drops below
    grad_tol ("converged"), after max_iter steps ("max_iter"), or when
    the retry finds no decrease either.  In that last case the fit has
    reached the value's resolution, and ends "converged", when the
    Newton step's predicted decrease -g'(P(x + p) - x), for P the
    projection onto the bounds, is at most PLATEAU_SLACK max(1, |f|),
    the noise _arc_search allows: no step can then lower f measurably.
    Otherwise, or when the Newton block is singular, it ends
    "line_search_failed".  ValueError unless max_iter >= 0 and
    grad_tol >= 0.
    """
    _check_stopping(max_iter, grad_tol)
    x = np.maximum(np.array(x0, dtype=float), lower)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f, g = obj(x)
    f = float(f)
    if not np.isfinite(f) or not np.all(np.isfinite(g)):
        raise ValueError("objective is not finite at the starting point")
    iterations = 0
    while True:
        gnorm = _projected_norm(x, g, lower)
        if gnorm < grad_tol:
            status = "converged"
            break
        if iterations >= max_iter:
            status = "max_iter"
            break
        h = hess(x)
        try:
            p = _newton_direction(h, g, lower - x, _held(x, g, lower))
        except np.linalg.LinAlgError:
            p = trial = None
        else:
            trial = _arc_search(obj, x, f, g, p, lower, gnorm)
        if trial is None:
            trial = _arc_search(obj, x, f, g, -g / np.diag(h), lower, gnorm)
        if trial is None:
            resolved = p is not None and (
                -float(g @ (np.maximum(x + p, lower) - x))
                <= PLATEAU_SLACK * max(1.0, abs(f)))
            status = "converged" if resolved else "line_search_failed"
            break
        x, f, g = trial
        iterations += 1
    return OptimResult(x_star=x, f_star=f, grad_norm=gnorm,
                       iterations=iterations, status=status)
