"""Density ratio estimation by regularized kernel risk minimization.

The n points of P and the m of Q are pooled, P first; a kernel
expansion f(x) = sum_i c_i k(x, x_i) over the N = n + m pooled points
minimizes the penalized class-balanced classification risk

    (1/N) (w_P sum_P ell_pos(f(x_i)) + w_Q sum_Q ell_neg(f(x_j)))
        + alpha c' G c,   w_P = N/(2n), w_Q = N/(2m),

that is sum_P ell_pos/(2n) + sum_Q ell_neg/(2m) + alpha c' G c, whose
minimizer estimates beta with even class priors whatever n/m; both
weights are exactly 1 when n = m.  The ratio estimate is beta_hat(x) =
g(f(x)) through the loss's ratio map.  _solver picks projected Newton
on the dual or BFGS for each fit.
"""
from __future__ import annotations

import ctypes
import os
import pickle
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .generators import DOMAIN_EPS, RATIO_CAP, BregmanGenerator, bregman_term
from .kernels import (GRAM_JITTER, KernelSpec, as_points, gram, gram_dot,
                      median_gram, median_heuristic)
from .losses import CompositeLoss, family_loss
from .optim import _check_stopping, _projected_newton, bfgs
from .synth import PiecewisePairSpec, Rng, piecewise_beta

CLAMP_BUDGET = 0.05
# fits with at most this many Q points solve their dual by projected
# Newton (see fit), which converges where BFGS can stall at poly's kink;
# above it, poly's steps meet many bounds, each re-solving the block.
# Newton and BFGS take about as long for ew at m = 128 (README, "Why
# 128"; 2 CPUs, OpenBLAS 0.3.31).  Fit workers solve with one BLAS
# thread each (see _run_jobs)
DUAL_NEWTON_MAX_Q = 128


class FitError(RuntimeError):
    """A fit produced an unusable model."""


@dataclass(frozen=True)
class SampleSet:
    """Numerator (P) and denominator (Q) samples, 1-d or (n, d)."""

    xs_p: np.ndarray
    xs_q: np.ndarray

    def __post_init__(self):
        xp = as_points(self.xs_p)
        xq = as_points(self.xs_q)
        if xp.shape[1] != xq.shape[1]:
            raise ValueError("P and Q samples have mismatched dimensions")
        if len(xp) == 0 or len(xq) == 0:
            raise ValueError("P and Q samples must each hold at least one point")
        object.__setattr__(self, "xs_p", xp)
        object.__setattr__(self, "xs_q", xq)

    @property
    def pooled(self) -> np.ndarray:
        """The P points, then the Q points: fits read the split from
        this order."""
        return np.vstack([self.xs_p, self.xs_q])


@dataclass
class RatioModel:
    kernel: KernelSpec
    centers: np.ndarray
    coeffs: np.ndarray
    loss: CompositeLoss
    train_risk: float = float("nan")
    status: str = ""
    iterations: int = 0
    grad_norm: Optional[float] = None  # final |g|_inf of an iterative fit
    solver: str = ""  # "newton", "bfgs" or "closed_form": the one that ran
    f_evals: Optional[int] = None  # objective evaluations of a bfgs fit
    h0: Optional[str] = None  # a bfgs fit's final start: penalty | identity

    def scores(self, xs) -> np.ndarray:
        return gram_dot(self.kernel, xs, self.centers, self.coeffs)

    @property
    def unconverged(self) -> bool:
        """An iterative fit that stopped short of its gradient tolerance."""
        return self.status in ("max_iter", "line_search_failed")


def _score_risk(loss: CompositeLoss, n_p: int, coeffs: np.ndarray,
                scores: np.ndarray, alpha: float) -> tuple[float, np.ndarray]:
    """Penalized risk at coefficients c with scores s = G c, and
    u = v/N + 2 alpha c for v the partial-loss derivatives, so that the
    gradient in c is G u."""
    value = _risk(loss, n_p, coeffs, scores, alpha)
    w_p, w_q = _class_weights(n_p, scores.size)
    v = np.concatenate([w_p * loss.ell_pos1(scores[:n_p]),
                        w_q * loss.ell_neg1(scores[n_p:])])
    return value, v / scores.size + 2.0 * alpha * coeffs


def _risk(loss: CompositeLoss, n_p: int, coeffs: np.ndarray,
          scores: np.ndarray, alpha: float) -> float:
    """Penalized risk at coefficients c with scores s = G c."""
    return _data_risk(loss, scores, n_p) + alpha * float(coeffs @ scores)


def _data_risk(loss: CompositeLoss, scores: np.ndarray, n_p: int) -> float:
    """Class-balanced partial loss of scores, the first n_p of them P
    points."""
    w_p, w_q = _class_weights(n_p, scores.size)
    return (w_p * float(np.sum(loss.ell_pos(scores[:n_p]))) +
            w_q * float(np.sum(loss.ell_neg(scores[n_p:])))) / scores.size


def _class_weights(n_p: int, n_pooled: int) -> tuple[float, float]:
    """(w_P, w_Q) = (N/(2n), N/(2m)) for n = n_p P points among
    N = n_pooled; ValueError unless both classes hold a point."""
    if not 0 < n_p < n_pooled:
        raise ValueError(
            f"need P and Q points, got {n_p} P points among {n_pooled}")
    return n_pooled / (2 * n_p), n_pooled / (2 * (n_pooled - n_p))


def _fit_setup(samples: SampleSet, kernel: KernelSpec, alpha: float):
    """(centers, kernel, G) for a fit at alpha: the pooled points, P
    first, the kernel with a median sigma resolved on them, and its Gram
    on them.  A median sigma and its Gram share one distance pass."""
    if not 0.0 <= alpha < np.inf:
        raise ValueError("alpha must be finite and nonnegative")
    centers = samples.pooled
    if not kernel.median_sigma:
        return centers, kernel, gram(kernel, centers, centers)
    sigma, g_matrix = median_gram(centers)
    return centers, KernelSpec(kind="gaussian", sigma=sigma), g_matrix


def _solver(loss: CompositeLoss, alpha: float, n_q: int) -> str:
    """The solver of fit: "newton" for a canonical link, alpha > 0 and
    at most DUAL_NEWTON_MAX_Q Q points, else "bfgs"."""
    canonical = loss.ratio_map.is_canonical_for(loss.generator)
    return ("newton" if canonical and alpha > 0 and n_q <= DUAL_NEWTON_MAX_Q
            else "bfgs")


def _dual_risk(gen: BregmanGenerator, g_qq: np.ndarray, b: np.ndarray,
               rho: float):
    """(obj, hess) of the Q-block dual of a canonical-link fit with
    generator gen, divided by rho = 2 alpha N so that its gradient is in
    score units.

    With ell_pos(y) = c - y and ell_neg' = g = (phi')^-1, the conjugate
    of ell_neg is phi - c1 on phi's domain, and the coefficients of the
    class-balanced fit are c_P = w_P/rho and c_Q = -w_Q beta/rho, where
    beta minimizes

        sum_j phi(beta_j) + (beta' g_qq beta / 2 - b' beta) / rho

    over beta >= g(-inf), for g_qq = w_Q G_QQ and b = w_P G_QP 1: the
    dual divided by w_Q, without the constant -m c1, so its value does
    not depend on c1.  Its gradient is phi'(beta) - s_Q, where s_Q = (b -
    g_qq beta) / rho are the Q scores of those coefficients, and its
    Hessian is diag(phi''(beta)) + g_qq / rho.  A generator clipped at
    domain_eps is flat below it, while phi' keeps the floor's slope, so
    where g(-inf) lies lower (0
    for klest, 1.8e-43 for poly k = 6) the value on [g(-inf),
    domain_eps) is phi(domain_eps), not the conjugate's tangent
    continuation: off by at most domain_eps |phi'(domain_eps)| per
    coordinate, 2.8e-11 for klest.
    """
    def obj(beta):
        gb = g_qq @ beta
        value = (float(np.sum(gen.phi(beta)))
                 + float(beta @ (0.5 * gb - b)) / rho)
        return value, gen.phi1(beta) - (b - gb) / rho

    def hess(beta):
        h = g_qq / rho
        h[np.diag_indices_from(h)] += gen.phi2(beta)
        return h

    return obj, hess


def _clamped_fraction(loss: CompositeLoss, scores: np.ndarray) -> float:
    """Share of the scores whose ratio estimate predict_ratio caps at
    RATIO_CAP."""
    return float(np.mean(loss.ratio_map.g(scores) >= RATIO_CAP))


def fit(samples: SampleSet, loss: CompositeLoss, kernel: KernelSpec,
        alpha: float, max_iter: int = 100, grad_tol: float = 1e-8,
        clamp_budget: Optional[float] = CLAMP_BUDGET) -> RatioModel:
    """Fit a kernel ratio model.

    The model's solver is the one _solver names.  "newton" solves the
    Q-block dual (_dual_risk) by projected Newton from beta = 1;
    max_iter caps the Newton steps, and grad_norm is the dual's
    projected gradient norm in score units.  "bfgs" runs from the zero
    coefficient vector and starts its inverse Hessian from the
    penalty's, (2 alpha G)^-1, at every alpha > 0 and from the identity
    at alpha = 0; grad_norm is |G u|_inf, and f_evals and h0 report its
    objective evaluations and final start (optim.bfgs), None for
    "newton".  Either way train_risk is the penalized class-balanced
    risk at the returned coefficients.

    A gaussian kernel with sigma MEDIAN gets the median heuristic over
    the pooled points, P first; the model holds the numeric sigma.
    FitError when more than clamp_budget of the training estimates
    g(f(x_i)) reach RATIO_CAP, where predict_ratio caps them, which
    signals a diverged or degenerate fit rather than a usable estimator.
    ValueError unless max_iter >= 0 and grad_tol >= 0, before any kernel
    work.
    """
    _check_stopping(max_iter, grad_tol)
    centers, kernel, g_matrix = _fit_setup(samples, kernel, alpha)
    n_p, n_q = len(samples.xs_p), len(samples.xs_q)
    solver = _solver(loss, alpha, n_q)
    if solver == "newton":
        rho = 2.0 * alpha * len(centers)
        w_p, w_q = _class_weights(n_p, len(centers))
        obj, hess = _dual_risk(loss.generator, w_q * g_matrix[n_p:, n_p:],
                               w_p * np.sum(g_matrix[n_p:, :n_p], axis=1), rho)
        res = _projected_newton(obj, hess, np.ones(n_q),
                                float(loss.ratio_map.g(-np.inf)),
                                max_iter=max_iter, grad_tol=grad_tol)
        coeffs = np.concatenate([np.full(n_p, w_p / rho),
                                 -w_q * res.x_star / rho])
    else:
        def obj(point):
            c, scores = point
            return _score_risk(loss, n_p, c, scores, alpha)

        # the risk is searched in score space: two Gram products per
        # iteration, none per rejected trial
        res = bfgs(obj, np.zeros(len(centers)), max_iter=max_iter,
                   grad_tol=grad_tol, linear=g_matrix,
                   curvature=2.0 * alpha if alpha > 0 else None)
        coeffs = res.x_star
    # not the solver's value: BFGS forms that from its carried scores
    scores = g_matrix @ coeffs
    model = RatioModel(kernel=kernel, centers=centers, coeffs=coeffs,
                       loss=loss,
                       train_risk=_risk(loss, n_p, coeffs, scores, alpha),
                       status=res.status, iterations=res.iterations,
                       grad_norm=res.grad_norm, solver=solver,
                       f_evals=res.f_evals, h0=res.h0)
    if clamp_budget is not None:
        frac = _clamped_fraction(loss, scores)
        if frac > clamp_budget:
            raise FitError(
                f"{frac:.1%} of training ratio estimates reach the cap "
                f"{RATIO_CAP:g} (budget {clamp_budget:.1%})")
    return model


def predict_ratio(model: RatioModel, xs) -> np.ndarray:
    """Ratio estimates g(f(x)), capped into [1e-12, 1e6].

    An entry equals a cap exactly when its raw value reached that cap.
    """
    return np.clip(model.loss.ratio_map.g(model.scores(xs)),
                   DOMAIN_EPS, RATIO_CAP)


def kulsif_fit_closed_form(samples: SampleSet, kernel: KernelSpec,
                           alpha: float) -> RatioModel:
    """Direct linear-system solution of the kulsif objective.

    The first-order condition of the class-balanced kulsif risk, with
    ridge = 2 alpha N and the class weights w_P, w_Q of the module
    docstring, has P rows ridge c_P = w_P, so only the Q block is
    solved: (w_Q G_QQ + ridge I) c_Q = -w_Q G_QP c_P.  Matches the BFGS
    fit in predicted scores.

    alpha = 0 is solved with ridge GRAM_JITTER (1e-10), which is then
    part of the estimator: every P coefficient is exactly
    w_P/GRAM_JITTER, and the Q system can have condition number near
    1e13, so its solution is only backward-stable, not accurate to more
    than a few digits.
    A median sigma is resolved as in fit.
    """
    centers, kernel, g_matrix = _fit_setup(samples, kernel, alpha)
    n_p, n_q = len(samples.xs_p), len(samples.xs_q)
    w_p, w_q = _class_weights(n_p, len(centers))
    ridge = 2.0 * alpha * len(centers) if alpha > 0 else GRAM_JITTER
    coeffs = np.empty(len(centers))
    coeffs[:n_p] = w_p / ridge
    lhs = w_q * g_matrix[n_p:, n_p:]
    lhs[np.diag_indices(n_q)] += ridge
    try:
        coeffs[n_p:] = np.linalg.solve(
            lhs, -w_q * (g_matrix[n_p:, :n_p] @ coeffs[:n_p]))
    except np.linalg.LinAlgError as exc:
        raise FitError(f"kulsif linear system is singular: {exc}") from exc
    loss = family_loss("kulsif")
    value = _risk(loss, n_p, coeffs, g_matrix @ coeffs, alpha)
    return RatioModel(kernel=kernel, centers=centers, coeffs=coeffs,
                      loss=loss, train_risk=value, status="closed_form",
                      solver="closed_form")


def _select_alpha(alphas: Sequence[float], risks: Sequence[float]) -> float:
    """Smallest alpha among those attaining the minimal finite risk.

    Non-finite risks are excluded; FitError when none is finite.
    """
    finite = [(a, r) for a, r in zip(alphas, risks) if np.isfinite(r)]
    if not finite:
        raise FitError("every held-out risk is non-finite")
    best = min(r for _, r in finite)
    return min(a for a, r in finite if r == best)


def _stratified_folds(n_p: int, n_q: int, n_folds: int, rng: Rng):
    """Index folds over the pooled set, stratified by class.

    Fold i holds every n_folds-th point of each shuffled class from
    offset i, so every fold has both classes exactly when n_folds does
    not exceed either class size.
    """
    if n_folds < 2:
        raise ValueError(f"cross-validation needs at least 2 folds, got {n_folds}")
    if n_folds > min(n_p, n_q):
        raise ValueError(
            f"cannot build {n_folds} two-class folds from {n_p} P and {n_q} Q points")
    stream = rng.stream(f"cv-folds/{n_p}/{n_q}/{n_folds}")
    perm_p = stream.permutation(n_p)
    perm_q = n_p + stream.permutation(n_q)
    return [np.sort(np.concatenate([perm_p[i::n_folds], perm_q[i::n_folds]]))
            for i in range(n_folds)]


@dataclass(frozen=True)
class CrossValidation:
    """What cross_validate_alpha selected, and from what."""

    alpha: float  # the chosen alpha
    table: list  # [(alpha, mean held-out risk), ...] in grid order
    unconverged: list  # [(alpha, fold fits that ended unconverged), ...]
    kernel: KernelSpec  # the fold fits' kernel, a median sigma resolved


def cross_validate_alpha(samples: SampleSet, loss: CompositeLoss,
                         kernel: KernelSpec,
                         alphas: Sequence[float] = (10.0, 0.1, 1e-3),
                         n_folds: int = 5, rng: Optional[Rng] = None,
                         max_iter: int = 100,
                         grad_tol: float = 1e-8) -> CrossValidation:
    """K-fold selection of alpha by held-out unpenalized class-balanced
    risk.

    Folds are stratified by class; ties go to the smaller alpha.
    Alphas whose held-out risk is non-finite stay in the table but are
    never chosen.  A median sigma is resolved once on the pooled sample,
    and the result's kernel carries it, so the final fit can use the
    fold fits' sigma without resolving it again.  The fold fits are
    independent and run on every usable CPU (see _run_jobs).
    """
    if len(alphas) == 0:
        raise ValueError("cross-validation needs a nonempty alpha grid")
    _check_stopping(max_iter, grad_tol)
    rng = rng or Rng(0)
    pooled = samples.pooled
    if kernel.median_sigma:
        kernel = KernelSpec(kind="gaussian", sigma=median_heuristic(pooled))
    n_p = len(samples.xs_p)
    folds = _stratified_folds(n_p, len(samples.xs_q), n_folds, rng)
    all_idx = np.arange(len(pooled))

    def fold_fit(i: int) -> tuple[float, bool]:
        """Held-out risk of fold i % n_folds at alpha i // n_folds; both
        index sets are sorted, so their P points (index < n_p) come
        first."""
        fold = folds[i % n_folds]
        train = np.setdiff1d(all_idx, fold)
        tr = SampleSet(xs_p=pooled[train[train < n_p]],
                       xs_q=pooled[train[train >= n_p]])
        model = fit(tr, loss, kernel, alphas[i // n_folds], max_iter=max_iter,
                    grad_tol=grad_tol, clamp_budget=None)
        return (_data_risk(loss, model.scores(pooled[fold]),
                           int(np.count_nonzero(fold < n_p))),
                model.unconverged)

    runs = _run_jobs(fold_fit, len(alphas) * n_folds)
    table, unconverged = [], []
    for j, alpha in enumerate(alphas):
        held_out = runs[j * n_folds:(j + 1) * n_folds]
        table.append((float(alpha), float(np.mean([r for r, _ in held_out]))))
        unconverged.append((float(alpha), sum(u for _, u in held_out)))
    chosen = _select_alpha([a for a, _ in table], [r for _, r in table])
    return CrossValidation(alpha=chosen, table=table, unconverged=unconverged,
                           kernel=kernel)


def _run_jobs(job: Callable[[int], object], n_jobs: int) -> list:
    """[job(0), ..., job(n_jobs - 1)], run in workers forked from this
    process, one per usable CPU, when there are at least two of each.

    Worker w of W runs jobs w, w + W, ... and sends its results back
    through a pipe, so a job may close over anything, but its result and
    any exception it raises must pickle.  The exception of the first
    failing job, in job order, is raised here; a worker that exits
    without sending its results raises RuntimeError.  Every child is
    reaped before return, also when this call is interrupted.  The jobs
    run here, one after another, without os.fork or
    os.sched_getaffinity (outside Linux) or when a fork fails.

    The workers inherit one OpenBLAS thread each, so concurrent LAPACK
    solves do not oversubscribe the CPUs: this process sets numpy's
    bundled OpenBLAS to one thread just before it forks and restores
    its own count afterwards.  Where numpy exports no such control
    (_openblas_threads), thread counts are left alone.
    """
    try:
        n_workers = min(n_jobs, len(os.sched_getaffinity(0)))
    except AttributeError:  # no sched_getaffinity outside Linux
        n_workers = 1
    if n_workers > 1 and hasattr(os, "fork"):
        import signal
        blas = _openblas_threads()
        threads = blas[0]() if blas else None
        running = {}  # pid -> read end of its result pipe
        try:
            if blas:
                blas[1](1)
            for w in range(n_workers):
                rfd, wfd = os.pipe()
                try:
                    pid = os.fork()
                except OSError:  # no process to spare: the jobs run here
                    os.close(rfd)
                    os.close(wfd)
                    break
                if pid == 0:
                    _serve(job, range(w, n_jobs, n_workers), wfd)
                os.close(wfd)
                running[pid] = rfd
            else:
                return _gather(running, n_jobs, n_workers)
        finally:
            for pid, rfd in running.items():
                os.close(rfd)
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            if blas:
                blas[1](threads)
    return [job(i) for i in range(n_jobs)]


def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS bundled with
    numpy's wheels, or None where numpy's core extension does not export
    both (another BLAS, or an older wheel)."""
    try:
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


def _serve(job: Callable[[int], object], indices: range, wfd: int) -> None:
    """Run job(i) for i in indices in a forked worker, send (results,
    (index, exception) of a failed job or None) through wfd, and leave
    by os._exit: the parent's atexit handlers and unflushed stdio
    buffers are not the worker's to run."""
    code = 1
    try:
        done, failure = [], None
        try:
            for i in indices:
                done.append(job(i))
        except BaseException as exc:  # re-raised by the caller
            failure = (i, exc)
        data = pickle.dumps((done, failure))
        with os.fdopen(wfd, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def _gather(running: dict, n_jobs: int, n_workers: int) -> list:
    """Read and reap the workers of _run_jobs, in worker order, removing
    each from running; their results in job order."""
    results = [None] * n_jobs
    failures = []
    for w, pid in enumerate(list(running)):
        chunks = []
        while chunk := os.read(running[pid], 1 << 16):
            chunks.append(chunk)
        os.close(running.pop(pid))
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if code != 0:
            raise RuntimeError(f"fit worker {w} exited with status {code} "
                               "before sending its results")
        done, failure = pickle.loads(b"".join(chunks))
        results[w:w + n_workers * len(done):n_workers] = done
        if failure is not None:
            failures.append(failure)
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return results


@dataclass
class PopulationFit:
    theta: np.ndarray  # (curvature, intercept), intercept >= 0
    divergence: float
    status: str
    iterations: int  # projected Newton steps

    def beta_hat(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.theta[0] * x ** 2 + self.theta[1]


def population_fit_parametric(gen: BregmanGenerator,
                              spec: PiecewisePairSpec,
                              quad_nodes: int = 2001,
                              max_iter: int = 300) -> PopulationFit:
    """Infinite-sample fit of beta_hat(x) = t1 x^2 + t2 on a piecewise pair.

    Minimizes the Q-averaged divergence to the exact ratio over t1 and
    t2 >= 0 by projected Newton from (1, 1) to a projected gradient
    norm of 1e-10, with max_iter capping its steps.  The
    divergence is a Simpson sum over each piece's nodes, so the
    integrand stays smooth; ratio evaluations are floored at the
    generator's domain floor with a flat (zero-gradient) extension
    below it.  The Hessian is the divergence's own where it is positive
    definite, else its Gauss-Newton part (phi'' only), which is
    positive semidefinite since phi is convex.
    """
    eps = gen.domain_eps
    pieces = list(spec.pieces(quad_nodes))
    # one flat node array: x^2, Q mass q w and exact ratio per node
    x2 = np.concatenate([xs ** 2 for xs, _, _, _ in pieces])
    qw = np.concatenate([q * w for _, w, _, q in pieces])
    beta = np.concatenate([np.full(xs.size, p / q) for xs, _, p, q in pieces])

    def floored(theta):
        bh = theta[0] * x2 + theta[1]
        return np.maximum(bh, eps), bh > eps

    # sums by np.sum, not BLAS dot products: OpenBLAS splits long dots
    # across threads, which would make the fit depend on the CPU set
    def obj(theta):
        bh, inside = floored(theta)
        dd = qw * gen.phi2(bh) * (bh - beta) * inside
        return (float(np.sum(qw * bregman_term(gen, beta, bh))),
                np.array([np.sum(dd * x2), np.sum(dd)]))

    def moments(c):
        cx2 = c * x2
        off = np.sum(cx2)
        return np.array([[np.sum(cx2 * x2), off], [off, np.sum(c)]])

    def hess(theta):
        bh, inside = floored(theta)
        gauss_newton = qw * gen.phi2(bh) * inside
        h = moments(gauss_newton - qw * gen.phi3(bh) * (beta - bh) * inside)
        if h[0, 0] > 0.0 and h[0, 0] * h[1, 1] > h[0, 1] ** 2:
            return h
        return moments(gauss_newton)

    res = _projected_newton(obj, hess, np.ones(2), np.array([-np.inf, 0.0]),
                            max_iter=max_iter, grad_tol=1e-10)
    return PopulationFit(theta=res.x_star, divergence=res.f_star,
                         status=res.status, iterations=res.iterations)


def sup_error(beta_hat: Callable[[np.ndarray], np.ndarray],
              spec: PiecewisePairSpec, lo: float, hi: float) -> float:
    """Largest |beta_hat - beta| over 2001 evenly spaced points of [lo, hi]."""
    xs = np.linspace(lo, hi, 2001)
    return float(np.max(np.abs(np.asarray(beta_hat(xs), dtype=float)
                               - piecewise_beta(spec, xs))))
