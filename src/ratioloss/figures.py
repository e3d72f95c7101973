"""Reference experiments: population fits, small-sample explosion, and
importance-weighted regression under covariate shift.

These drivers back the fig1/fig2/fig3 CLI commands and the acceptance
tests; fig2 runs its replicate fits in forked workers (dre._run_jobs).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dre import (SampleSet, _run_jobs, fit, kulsif_fit_closed_form,
                  population_fit_parametric, predict_ratio, sup_error)
from .generators import builtin_generator, parse_family
from .kernels import MEDIAN, KernelSpec, gram_dot
from .losses import family_loss
from .synth import (Rng, default_pair, gaussian_pair, piecewise_beta,
                    regression_task, target_function)
from .iw import WeightedRegressionTask, krr_predictor, weighted_krr

FIGURE1_FAMILIES = ("lr", "kulsif", "poly1", "poly6", "ew")
SUP_INTERVAL = (0.9, 1.0)  # inside the default pair's large-ratio region


def figure1(quad_nodes: int = 2001, max_iter: int = 400):
    """Population parametric fits of the default pair, one per family.

    Returns {"fits": name -> PopulationFit, "sup_errors": name -> float};
    sup errors are taken over SUP_INTERVAL.
    """
    spec = default_pair()
    fits = {}
    sups = {}
    for name in FIGURE1_FAMILIES:
        pf = population_fit_parametric(builtin_generator(*parse_family(name)),
                                       spec, quad_nodes=quad_nodes,
                                       max_iter=max_iter)
        fits[name] = pf
        sups[name] = sup_error(pf.beta_hat, spec, *SUP_INTERVAL)
    return {"fits": fits, "sup_errors": sups}


@dataclass
class Fig2Cell:
    family: str
    size: int
    alpha: float
    max_abs: list  # one entry per seed replicate
    median_max_abs: float
    curve: np.ndarray  # beta_hat of replicate 0 on the grid
    unconverged: int  # replicates whose fit ended max_iter or line_search_failed


def figure2(seed: int = 0, sizes: Sequence[int] = (10, 100),
            alphas: Sequence[float] = (1e-6, 1e-4, 1e-2, 1.0),
            families: Sequence[str] = ("kulsif", "ew"),
            n_seeds: int = 10, grid_lo: float = -3.0, grid_hi: float = 3.0,
            grid_n: int = 241, max_iter: int = 200):
    """Small-sample ratio fits on the Gaussian pair across (size, alpha).

    kulsif is solved in closed form (its exact minimizer is the object
    of interest); ew is fitted by dre.fit.  Reports max |beta_hat| on
    the evaluation grid per replicate, and per cell how many
    replicates' fits ended neither converged nor in closed form.  Every
    replicate samples its own named streams, so the fits are
    independent and run on every usable CPU (see dre._run_jobs).
    """
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be at least 1, got {n_seeds}")
    sampler, exact_beta = gaussian_pair()
    grid = np.linspace(grid_lo, grid_hi, grid_n)
    kernel = KernelSpec(kind="gaussian", sigma=MEDIAN)  # resolved per fit
    specs = [(family, size, alpha) for family in families
             for size in sizes for alpha in alphas]

    def replicate(i: int):
        """max |beta_hat|, unconverged and, for replicate 0, beta_hat on
        the grid, of replicate i % n_seeds of cell i // n_seeds."""
        family, size, alpha = specs[i // n_seeds]
        rep = i % n_seeds
        n = size // 2
        rng = Rng(seed)
        tag = f"fig2/{family}/{size}/{alpha:g}/{rep}"
        samples = SampleSet(xs_p=sampler("p", n, rng, name=f"{tag}/p"),
                            xs_q=sampler("q", size - n, rng, name=f"{tag}/q"))
        if family == "kulsif":
            model = kulsif_fit_closed_form(samples, kernel, alpha)
        else:
            model = fit(samples, family_loss(family), kernel, alpha,
                        max_iter=max_iter)
        bh = predict_ratio(model, grid)
        return float(np.max(np.abs(bh))), model.unconverged, (
            bh if rep == 0 else None)

    runs = _run_jobs(replicate, len(specs) * n_seeds)
    cells = []
    for c, (family, size, alpha) in enumerate(specs):
        reps = runs[c * n_seeds:(c + 1) * n_seeds]
        maxima = [r[0] for r in reps]
        cells.append(Fig2Cell(family=family, size=size, alpha=float(alpha),
                              max_abs=maxima,
                              median_max_abs=float(np.median(maxima)),
                              curve=reps[0][2],
                              unconverged=sum(r[1] for r in reps)))
    return {"cells": cells, "grid": grid, "exact_beta": exact_beta(grid)}


def figure3(seed: int = 0, n_src: int = 200, noise_sigma: float = 0.1,
            degree: int = 5, alpha: float = 1e-32, quad_nodes: int = 2001,
            max_iter: int = 400, l2_nodes: int = 10001):
    """Importance-weighted polynomial regression under covariate shift.

    Labels exist on the source only: the fits see n_src noisy labels at
    inputs drawn from the default pair's Q; errors are judged under P and
    Q.  Weightings compared: uniform, the exact ratio, and the population
    ratio estimates (ew and lr) from figure1's parametric family.
    """
    spec = default_pair()
    rng = Rng(seed)
    task = regression_task(spec, n_src, noise_sigma, rng, name=f"fig3/{seed}")
    pop = {
        name: population_fit_parametric(builtin_generator(name), spec,
                                        quad_nodes=quad_nodes,
                                        max_iter=max_iter)
        for name in ("ew", "lr")
    }
    src = task.src_xs
    weightings = {
        "uniform": np.ones(n_src),
        "exact": piecewise_beta(spec, src),
        "ew": np.maximum(pop["ew"].beta_hat(src), 0.0),
        "lr": np.maximum(pop["lr"].beta_hat(src), 0.0),
    }
    kernel = KernelSpec(kind="polynomial", degree=degree)
    coeffs = {}
    predictors = {}
    for name, w in weightings.items():
        wtask = WeightedRegressionTask(xs=src, ys=task.src_ys, weights=w,
                                       kernel=kernel, alpha=alpha)
        coeffs[name] = weighted_krr(wtask)
        predictors[name] = krr_predictor(wtask, coeffs[name])
    # squared L^2(mu) distances of the predictors from the target, piece
    # by piece against the piecewise densities; every predictor and both
    # measures share one pass over each piece's Simpson nodes
    l2p_sq = dict.fromkeys(weightings, 0.0)
    l2q_sq = dict.fromkeys(weightings, 0.0)
    stacked = np.column_stack([coeffs[name] for name in weightings])
    for xs, w, p_level, q_level in spec.pieces(l2_nodes):
        target = target_function(xs)
        preds = gram_dot(kernel, xs, src, stacked)
        for j, name in enumerate(weightings):
            sq = float(w @ (preds[:, j] - target) ** 2)
            l2p_sq[name] += p_level * sq
            l2q_sq[name] += q_level * sq
    return {"population_fits": pop, "weightings": weightings,
            "predictors": predictors, "l2p_sq": l2p_sq, "l2q_sq": l2q_sq}
