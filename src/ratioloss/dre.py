"""Density ratio estimation by regularized kernel risk minimization.

Samples from P get label +1 and samples from Q label -1; a kernel
expansion f(x) = sum_i c_i k(x, x_i) over the pooled points is fitted by
BFGS on the penalized average classification risk

    (1/N) sum_i ell(y_i, f(x_i)) + alpha c' G c,

and the ratio estimate is beta_hat(x) = g(f(x)) through the loss's
ratio map.
"""
from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .generators import DOMAIN_EPS, RATIO_CAP, BregmanGenerator, bregman_term
from .kernels import (GRAM_JITTER, KernelSpec, as_points, gram, median_gram,
                      median_heuristic)
from .losses import CompositeLoss, family_loss
from .optim import bfgs
from .quadrature import simpson_nodes, simpson_weights
from .synth import PiecewisePairSpec, Rng, piecewise_beta

CLAMP_BUDGET = 0.05


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
        return np.vstack([self.xs_p, self.xs_q])

    @property
    def labels(self) -> np.ndarray:
        return np.concatenate([np.ones(len(self.xs_p)),
                               -np.ones(len(self.xs_q))])


@dataclass
class RatioModel:
    kernel: KernelSpec
    centers: np.ndarray
    coeffs: np.ndarray
    loss: CompositeLoss
    alpha: float
    family: str = ""
    k: float = 0.0
    train_risk: float = float("nan")
    status: str = ""
    iterations: int = 0
    grad_norm: Optional[float] = None  # final |g|_inf of an iterative fit

    def scores(self, xs) -> np.ndarray:
        return gram(self.kernel, xs, self.centers) @ self.coeffs

    @property
    def unconverged(self) -> bool:
        """An iterative fit that stopped short of its gradient tolerance."""
        return self.status in ("max_iter", "line_search_failed")


def empirical_risk(loss: CompositeLoss, gram_matrix: np.ndarray,
                   labels: np.ndarray, coeffs: np.ndarray,
                   alpha: float) -> tuple[float, np.ndarray]:
    """Penalized average risk and its gradient in the coefficients."""
    value, u = _score_risk(loss, labels > 0, coeffs, gram_matrix @ coeffs,
                           alpha)
    return value, gram_matrix @ u


def _score_risk(loss: CompositeLoss, pos: np.ndarray, coeffs: np.ndarray,
                scores: np.ndarray, alpha: float) -> tuple[float, np.ndarray]:
    """Penalized risk at coefficients c with scores s = G c, and
    u = v/N + 2 alpha c for v the partial-loss derivatives, so that the
    gradient in c is G u."""
    value = _data_risk(loss, scores, pos) + alpha * float(coeffs @ scores)
    v = np.empty_like(scores)
    v[pos] = loss.ell_pos1(scores[pos])
    v[~pos] = loss.ell_neg1(scores[~pos])
    return value, v / pos.size + 2.0 * alpha * coeffs


def _data_risk(loss: CompositeLoss, scores: np.ndarray,
               pos: np.ndarray) -> float:
    """Average partial loss of scores; pos marks the P points."""
    return (float(np.sum(loss.ell_pos(scores[pos]))) +
            float(np.sum(loss.ell_neg(scores[~pos])))) / pos.size


def _training_gram(kernel: KernelSpec,
                   centers: np.ndarray) -> tuple[KernelSpec, np.ndarray]:
    """The kernel with a median sigma resolved on centers, and its Gram
    on centers; a median sigma and its Gram share one distance pass."""
    if not kernel.median_sigma:
        return kernel, gram(kernel, centers, centers)
    sigma, g_matrix = median_gram(centers)
    return KernelSpec(kind="gaussian", sigma=sigma), g_matrix


def _clamped_fraction(loss: CompositeLoss, scores: np.ndarray) -> float:
    lo, hi = loss.score_bounds
    return float(np.mean((scores <= lo) | (scores >= hi)))


def fit(samples: SampleSet, loss: CompositeLoss, kernel: KernelSpec,
        alpha: float, max_iter: int = 100, grad_tol: float = 1e-8,
        clamp_budget: Optional[float] = CLAMP_BUDGET,
        family: str = "", k: float = 0.0) -> RatioModel:
    """Fit a kernel ratio model by BFGS from the zero coefficient vector.

    A gaussian kernel with sigma MEDIAN gets the median heuristic over
    the pooled points; the model holds the numeric sigma.  Fails loudly
    when more than clamp_budget of the fitted training scores fall
    outside the ratio map's usable range, which signals a diverged or
    degenerate fit rather than a usable estimator.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    centers = samples.pooled
    pos = samples.labels > 0
    kernel, g_matrix = _training_gram(kernel, centers)

    def obj(point):
        c, scores = point
        return _score_risk(loss, pos, c, scores, alpha)

    # the risk is searched in score space: two Gram products per
    # iteration, none per rejected trial
    res = bfgs(obj, np.zeros(len(centers)), max_iter=max_iter,
               grad_tol=grad_tol, linear=g_matrix)
    model = RatioModel(kernel=kernel, centers=centers, coeffs=res.x_star,
                       loss=loss, alpha=alpha, family=family, k=k,
                       train_risk=res.f_star, status=res.status,
                       iterations=res.iterations, grad_norm=res.grad_norm)
    if clamp_budget is not None:
        frac = _clamped_fraction(loss, g_matrix @ res.x_star)
        if frac > clamp_budget:
            raise FitError(
                f"{frac:.1%} of training scores fall outside the ratio "
                f"map's range (budget {clamp_budget:.1%})")
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

    The first-order condition of the kulsif empirical risk is
    (D_Q G + ridge I) c = 1_P with ridge = 2 alpha N.  Its P rows read
    ridge c_P = 1, so only the Q block is solved:
    (G_QQ + ridge I) c_Q = -G_QP c_P.  Matches the BFGS fit in predicted
    scores.

    alpha = 0 is solved with ridge GRAM_JITTER (1e-10), which is then
    part of the estimator: every P coefficient is exactly 1e10, and the
    Q system can have condition number near 1e13, so its solution is
    only backward-stable, not accurate to more than a few digits.
    A median sigma is resolved as in fit.
    """
    centers = samples.pooled
    labels = samples.labels
    n = labels.size
    n_p = len(samples.xs_p)  # pooled points are P first, then Q
    kernel, g_matrix = _training_gram(kernel, centers)
    ridge = 2.0 * alpha * n if alpha > 0 else GRAM_JITTER
    coeffs = np.empty(n)
    coeffs[:n_p] = 1.0 / ridge
    lhs = g_matrix[n_p:, n_p:].copy()
    lhs[np.diag_indices(n - n_p)] += ridge
    try:
        coeffs[n_p:] = np.linalg.solve(lhs, -(g_matrix[n_p:, :n_p] @ coeffs[:n_p]))
    except np.linalg.LinAlgError as exc:
        raise FitError(f"kulsif linear system is singular: {exc}") from exc
    loss = family_loss("kulsif")
    value, _ = _score_risk(loss, labels > 0, coeffs, g_matrix @ coeffs, alpha)
    return RatioModel(kernel=kernel, centers=centers, coeffs=coeffs,
                      loss=loss, alpha=alpha, family="kulsif",
                      train_risk=value, status="closed_form")


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
    """K-fold selection of alpha by held-out unpenalized risk.

    Folds are stratified by class; ties go to the smaller alpha.
    Alphas whose held-out risk is non-finite stay in the table but are
    never chosen.  A median sigma is resolved once on the pooled sample,
    and the result's kernel carries it, so the final fit can use the
    fold fits' sigma without resolving it again.  The fold fits are
    independent and run on every usable CPU (see _run_jobs).
    """
    if len(alphas) == 0:
        raise ValueError("cross-validation needs a nonempty alpha grid")
    rng = rng or Rng(0)
    pooled = samples.pooled
    if kernel.median_sigma:
        kernel = KernelSpec(kind="gaussian", sigma=median_heuristic(pooled))
    labels = samples.labels
    n_p = len(samples.xs_p)
    folds = _stratified_folds(n_p, len(labels) - n_p, n_folds, rng)
    all_idx = np.arange(len(labels))

    def fold_fit(i: int) -> tuple[float, bool]:
        """Held-out risk of fold i % n_folds at alpha i // n_folds."""
        fold = folds[i % n_folds]
        train = np.setdiff1d(all_idx, fold)
        tr_labels = labels[train]
        tr = SampleSet(xs_p=pooled[train[tr_labels > 0]],
                       xs_q=pooled[train[tr_labels < 0]])
        model = fit(tr, loss, kernel, alphas[i // n_folds], max_iter=max_iter,
                    grad_tol=grad_tol, clamp_budget=None)
        return (_data_risk(loss, model.scores(pooled[fold]), labels[fold] > 0),
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
    """
    try:
        n_workers = min(n_jobs, len(os.sched_getaffinity(0)))
    except AttributeError:  # no sched_getaffinity outside Linux
        n_workers = 1
    if n_workers > 1 and hasattr(os, "fork"):
        import signal
        running = {}  # pid -> read end of its result pipe
        try:
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
    return [job(i) for i in range(n_jobs)]


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


def _softplus(t: float) -> float:
    return float(np.logaddexp(0.0, t))


def _sigmoid(t: float) -> float:
    return float(0.5 * (1.0 + np.tanh(0.5 * t)))


@dataclass
class PopulationFit:
    theta: np.ndarray  # (curvature, intercept), intercept > 0
    divergence: float
    status: str
    iterations: int

    def beta_hat(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.theta[0] * x ** 2 + self.theta[1]


def population_fit_parametric(gen: BregmanGenerator,
                              spec: PiecewisePairSpec,
                              quad_nodes: int = 2001,
                              max_iter: int = 300,
                              grad_tol: float = 1e-10,
                              theta0: tuple[float, float] = (1.0, 1.0)) -> PopulationFit:
    """Infinite-sample fit of beta_hat(x) = t1 x^2 + t2 on a piecewise pair.

    Minimizes the Q-averaged divergence to the exact ratio by quadrature,
    piece by piece so the integrand stays smooth.  The intercept is kept
    positive through a softplus reparameterization; ratio evaluations are
    floored at the generator's domain floor with a flat (zero-gradient)
    extension below it.
    """
    if quad_nodes < 3 or quad_nodes % 2 == 0:
        raise ValueError("quad_nodes must be odd and >= 3")
    edges = spec.edges
    p_levels = np.asarray(spec.p_levels)
    q_levels = np.asarray(spec.q_levels)
    eps = gen.domain_eps

    pieces = []
    for i in range(len(q_levels)):
        lo, hi = edges[i], edges[i + 1]
        pieces.append((simpson_nodes(lo, hi, quad_nodes),
                       simpson_weights(lo, hi, quad_nodes),
                       p_levels[i] / q_levels[i], q_levels[i]))

    def obj(z):
        t1, tau = z
        t2 = _softplus(tau)
        value = 0.0
        g1 = 0.0
        g2 = 0.0
        for xs, w, beta_level, q_level in pieces:
            bh = t1 * xs ** 2 + t2
            inside = bh > eps
            bh_c = np.maximum(bh, eps)
            value += q_level * float(w @ bregman_term(gen, beta_level, bh_c))
            dd = -gen.phi2(bh_c) * (beta_level - bh_c) * inside
            g1 += q_level * float(w @ (dd * xs ** 2))
            g2 += q_level * float(w @ dd)
        return value, np.array([g1, g2 * _sigmoid(tau)])

    t2_0 = float(theta0[1])
    if t2_0 <= 0:
        raise ValueError("initial intercept must be positive")
    tau0 = float(np.log(np.expm1(t2_0)))
    res = bfgs(obj, np.array([float(theta0[0]), tau0]),
               max_iter=max_iter, grad_tol=grad_tol)
    theta = np.array([res.x_star[0], _softplus(res.x_star[1])])
    return PopulationFit(theta=theta, divergence=res.f_star,
                         status=res.status, iterations=res.iterations)


def sup_error(beta_hat: Callable[[np.ndarray], np.ndarray],
              spec: PiecewisePairSpec, lo: float, hi: float,
              n_grid: int = 2001) -> float:
    """Largest |beta_hat - beta| over a uniform grid on [lo, hi]."""
    xs = np.linspace(lo, hi, n_grid)
    return float(np.max(np.abs(np.asarray(beta_hat(xs), dtype=float)
                               - piecewise_beta(spec, xs))))
