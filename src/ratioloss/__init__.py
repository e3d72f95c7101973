"""ratioloss: classification losses from Bregman divergences, kernel
density-ratio estimation, and importance-weighted regression."""

from .generators import (FAMILY_NAMES, RATIO_CAP, BregmanGenerator,
                         DiscretePair, bregman_term, builtin_generator,
                         derivative_consistency, diamond_transform,
                         divergence_discrete, divergence_quadrature,
                         weight_representation)
from .losses import (CertificationError, CompositeLoss, RatioMap, bayes_risk,
                     canonical_ratio_map, conditional_risk, construct_loss,
                     convexity_margin, excess_risk_identity_check,
                     exp_ratio_map, family_loss, gamma_funcs,
                     identity_ratio_map, reid_convexity_margins,
                     shuford_weight)
from .kernels import (GRAM_JITTER, MEDIAN, KernelSpec, as_points, gram,
                      gram_dot, median_gram, median_heuristic)
from .optim import bfgs, grad_check
from .quadrature import integrate, simpson_nodes, simpson_weights
from .synth import (PiecewisePairSpec, Rng, default_pair, gaussian_pair,
                    piecewise_beta, regression_task, sample_piecewise,
                    target_function)
from .dre import (CLAMP_BUDGET, FitError, RatioModel, SampleSet,
                  cross_validate_alpha, empirical_risk, fit,
                  kulsif_fit_closed_form, population_fit_parametric,
                  predict_ratio, sup_error)
from .iw import (CandidateSet, WeightedRegressionTask, aggregate_predictor,
                 iwa_aggregate, iwv_select, krr_predictor, weighted_krr,
                 weighted_risk)
from .checks import CHECK_GROUPS, properness_residuals, run_all
from .figures import figure1, figure2, figure3

__version__ = "0.1.0"

__all__ = [
    "BregmanGenerator", "CHECK_GROUPS", "CLAMP_BUDGET", "CandidateSet",
    "CertificationError", "CompositeLoss", "DiscretePair", "FAMILY_NAMES",
    "FitError", "GRAM_JITTER", "KernelSpec", "MEDIAN", "PiecewisePairSpec",
    "RATIO_CAP", "RatioMap", "RatioModel", "Rng", "SampleSet",
    "WeightedRegressionTask",
    "aggregate_predictor", "as_points", "bayes_risk", "bfgs", "bregman_term",
    "builtin_generator", "canonical_ratio_map", "conditional_risk",
    "construct_loss", "convexity_margin", "cross_validate_alpha",
    "default_pair", "derivative_consistency", "diamond_transform",
    "divergence_discrete", "divergence_quadrature", "empirical_risk",
    "excess_risk_identity_check", "exp_ratio_map", "family_loss", "figure1",
    "figure2", "figure3", "fit", "gamma_funcs", "gaussian_pair", "grad_check",
    "gram", "gram_dot", "identity_ratio_map", "integrate", "iwa_aggregate",
    "iwv_select", "krr_predictor", "kulsif_fit_closed_form",
    "median_gram", "median_heuristic", "piecewise_beta",
    "population_fit_parametric", "predict_ratio", "properness_residuals",
    "regression_task", "reid_convexity_margins", "run_all",
    "sample_piecewise", "shuford_weight", "simpson_nodes", "simpson_weights",
    "sup_error", "target_function", "weight_representation", "weighted_krr",
    "weighted_risk",
]
