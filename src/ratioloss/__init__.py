"""ratioloss: classification losses from Bregman divergences, kernel
density-ratio estimation, and importance-weighted regression."""

from .generators import (FAMILY_NAMES, RATIO_CAP, BregmanGenerator,
                         DiscretePair, bregman_term, builtin_generator,
                         diamond_transform, divergence_discrete,
                         weight_representation)
from .losses import (CertificationError, CompositeLoss, RatioMap, bayes_risk,
                     canonical_ratio_map, conditional_risk, construct_loss,
                     convexity_margin, excess_risk_identity_check,
                     exp_ratio_map, family_loss, identity_ratio_map,
                     shuford_weight)
from .kernels import (GRAM_JITTER, MEDIAN, KernelSpec, as_points, gram,
                      gram_dot, median_gram, median_heuristic)
from .optim import bfgs
from .quadrature import integrate, simpson_nodes, simpson_weights
from .synth import (PiecewisePairSpec, Rng, default_pair, gaussian_pair,
                    piecewise_beta, regression_task, sample_piecewise,
                    target_function)
from .dre import (CLAMP_BUDGET, FitError, RatioModel, SampleSet,
                  cross_validate_alpha, fit, kulsif_fit_closed_form,
                  population_fit_parametric, predict_ratio, sup_error)
from .iw import weighted_poly_ridge
from .checks import CHECK_GROUPS, run_all
from .figures import figure1, figure2, figure3

__version__ = "0.1.0"

__all__ = [
    "BregmanGenerator", "CHECK_GROUPS", "CLAMP_BUDGET", "CertificationError",
    "CompositeLoss", "DiscretePair", "FAMILY_NAMES", "FitError",
    "GRAM_JITTER", "KernelSpec", "MEDIAN", "PiecewisePairSpec", "RATIO_CAP",
    "RatioMap", "RatioModel", "Rng", "SampleSet", "as_points", "bayes_risk",
    "bfgs", "bregman_term", "builtin_generator", "canonical_ratio_map",
    "conditional_risk", "construct_loss", "convexity_margin",
    "cross_validate_alpha", "default_pair", "diamond_transform",
    "divergence_discrete", "excess_risk_identity_check", "exp_ratio_map",
    "family_loss", "figure1", "figure2", "figure3", "fit", "gaussian_pair",
    "gram", "gram_dot", "identity_ratio_map", "integrate",
    "kulsif_fit_closed_form", "median_gram", "median_heuristic",
    "piecewise_beta", "population_fit_parametric", "predict_ratio",
    "regression_task", "run_all", "sample_piecewise", "shuford_weight",
    "simpson_nodes", "simpson_weights", "sup_error", "target_function",
    "weight_representation", "weighted_poly_ridge",
]
