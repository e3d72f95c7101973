"""Identity suite: numerical certificates that the constructed losses
really carry the divergences they claim to.

Each group returns a report dict with the worst residual observed, the
tolerance it is held to, and the case count.  run_all() drives them all
from one seed; the CLI surfaces the result as `ratioloss check`.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .generators import (BregmanGenerator, DiscretePair, builtin_generator,
                         diamond_transform, divergence_discrete, parse_family,
                         weight_representation)
from .losses import (CompositeLoss, bayes_risk, conditional_risk,
                     convexity_margin, excess_risk_identity_check,
                     family_loss, shuford_weight)
from .synth import Rng

# Families exercised by the suite.  poly is taken at several exponents.
CHECK_FAMILIES = ("kulsif", "lr", "klest", "boost", "poly0", "poly1",
                  "poly6", "ew")


# Score ranges kept inside each family's numerically comfortable zone:
# ratios stay in roughly [0.15, 4] so fourth-order terms in the
# finite-difference checks remain small; poly6 and ew need narrower ones.
_BETA_RANGE = {"poly6": (0.2, 2.0), "ew": (0.15, 2.5)}
_DEFAULT_BETA_RANGE = (0.15, 4.0)

# (lo, hi, n): check_convexity's ratio values, geomspace(lo, hi, n)
CONVEXITY_GRID = (1e-6, 50.0, 400)


def _family_cases(n_cases: int):
    """Yield (loss, lo, hi) n_cases // len(CHECK_FAMILIES) + 1 times per
    family, in CHECK_FAMILIES order, with the family's ratio range."""
    for name in CHECK_FAMILIES:
        loss = family_loss(*parse_family(name))
        lo, hi = _BETA_RANGE.get(name, _DEFAULT_BETA_RANGE)
        for _ in range(n_cases // len(CHECK_FAMILIES) + 1):
            yield loss, lo, hi


def _worst(residuals) -> float:
    """Largest case residual; NaN when any case is NaN, so it fails."""
    return float(np.max(residuals))


def _report(group: str, residuals: list, tolerance: float) -> dict:
    worst = _worst(residuals)
    return {"group": group, "max_residual": worst, "tolerance": tolerance,
            "cases": len(residuals), "passed": worst <= tolerance}


def _random_pair(rng: np.random.Generator) -> DiscretePair:
    n = int(rng.integers(2, 7))
    q = rng.uniform(0.1, 1.0, n)
    q /= q.sum()
    p = rng.uniform(0.0, 1.0, n)
    p /= p.sum()
    return DiscretePair(q=q, p=p)


def check_excess_risk(seed: int = 0, n_pairs: int = 200,
                      tolerance: float = 1e-10) -> dict:
    """Risk gap of a score function equals half the divergence between
    the true ratio and the ratio the score encodes."""
    rng = Rng(seed).stream("check/excess")
    residuals = []
    for loss, lo, hi in _family_cases(n_pairs):
        pair = _random_pair(rng)
        # scores encode a perturbed ratio within the safe range
        beta_enc = rng.uniform(lo, hi, pair.q.size)
        f = loss.ratio_map.g_inv(beta_enc)
        # clip the true ratio into range by rescaling p where needed
        beta = np.clip(pair.beta, lo, hi)
        p = beta * pair.q
        pair_safe = DiscretePair(q=pair.q, p=p / p.sum())
        excess, half_breg = excess_risk_identity_check(loss, pair_safe, f)
        residuals.append(abs(excess - half_breg))
    return _report("excess-risk", residuals, tolerance)


def check_convexity(tolerance: float = 1e-9, fd_tolerance: float = 1e-8) -> dict:
    """Both convexity slacks are nonnegative for every family's own
    (generator, ratio map) pairing on CONVEXITY_GRID, and numerical
    second derivatives of the partial losses agree.

    Each point's lower slack is held to tolerance in units of 1/x, as
    x times the slack, so the test asks the same relative accuracy of
    the terms of size 1/x at every x: an exactly-zero slack formed from
    1/x = 1e6 rounds to one ulp of 1e6, 1.2e-10, where x times it reads
    about 1e-16."""
    x = np.geomspace(*CONVEXITY_GRID)
    slack = []  # per point, x times the lower of the two slacks
    fd = []  # numerical second derivatives
    for name in CHECK_FAMILIES:
        loss = family_loss(*parse_family(name))
        margins = convexity_margin(loss.generator, loss.ratio_map, x)
        slack.extend(x * np.minimum(*margins))
        lo, hi = _BETA_RANGE.get(name, _DEFAULT_BETA_RANGE)
        ys = loss.ratio_map.g_inv(np.linspace(lo, hi, 60))
        for label in (1, -1):
            ell = loss.ell_pos if label == 1 else loss.ell_neg
            for y in ys:
                h = 0.01 * max(abs(y), 1e-3)
                num2 = (ell(y + h) - 2.0 * ell(y) + ell(y - h)) / h ** 2
                fd.append(float(num2))
    # violations are the negative parts
    worst, fd_worst = (_worst(np.maximum(0.0, np.negative(v)))
                       for v in (slack, fd))
    passed = worst <= tolerance and fd_worst <= fd_tolerance
    return {"group": "convexity", "max_residual": _worst([worst, fd_worst]),
            "tolerance": max(tolerance, fd_tolerance),
            "cases": len(slack) + len(fd), "passed": passed,
            "detail": {"slack_violation": worst, "fd_violation": fd_worst}}


def check_weight_representation(seed: int = 0, n_cases: int = 100,
                                tolerance: float = 1e-6,
                                n_nodes: int = 4001) -> dict:
    """Pointwise divergence equals the integral of phi'' against the
    distance-to-threshold weight."""
    rng = Rng(seed).stream("check/weight-repr")
    residuals = []
    for name in CHECK_FAMILIES:
        gen = builtin_generator(*parse_family(name))
        for _ in range(n_cases):
            r, rhat = rng.uniform(0.1, 3.0, 2)
            direct = float(gen.phi(r) - gen.phi(rhat)
                           - gen.phi1(rhat) * (r - rhat))
            via_weight = weight_representation(gen, float(r), float(rhat),
                                               n_nodes=n_nodes)
            residuals.append(abs(direct - via_weight))
    return _report("weight-representation", residuals, tolerance)


def check_shuford(seed: int = 0, n_cases: int = 100,
                  tolerance: float = 1e-7) -> dict:
    """Both partial-loss derivative ratios give one weight function, and
    it matches phi''(x) (1+x)^3 at x = eta/(1-eta)."""
    rng = Rng(seed).stream("check/shuford")
    residuals = []
    for loss, lo, hi in _family_cases(n_cases):
        x = float(rng.uniform(lo, hi))
        eta = x / (1.0 + x)
        w = shuford_weight(loss, eta)  # certifies internal agreement
        closed = float(loss.generator.phi2(x)) * (1.0 + x) ** 3
        residuals.append(abs(w - closed) / max(abs(closed), 1e-12))
    return _report("shuford-weight", residuals, tolerance)


def _bayes_risk_deriv(loss: CompositeLoss, eta: float, h: float) -> float:
    """Five-point central difference of the optimal conditional risk.

    Deliberately numerical: a finite difference of BR(u) = CR(u, link(u))
    only reduces to the envelope derivative when the link is the risk
    minimizer, so this is sensitive to properness violations.
    """
    br = lambda u: bayes_risk(loss, u)
    return (-br(eta + 2 * h) + 8 * br(eta + h)
            - 8 * br(eta - h) + br(eta - 2 * h)) / (12.0 * h)


def check_savage(seed: int = 0, n_cases: int = 100,
                 tolerance: float = 1e-8) -> dict:
    """Conditional regret equals the Bregman remainder of the optimal
    risk curve: CR(eta, yhat) - BR(etahat) - (eta - etahat) BR'(etahat)
    vanishes when yhat = link(etahat)."""
    rng = Rng(seed).stream("check/savage")
    residuals = []
    for loss, lo, hi in _family_cases(n_cases):
        eta = float(rng.uniform(0.05, 0.95))
        x_hat = float(rng.uniform(lo, hi))
        eta_hat = x_hat / (1.0 + x_hat)
        yhat = loss.link(eta_hat)
        # step keeps the five-point truncation below roundoff even for
        # the high-curvature families (poly6, ew)
        h = 1e-4 * min(eta_hat, 1.0 - eta_hat)
        lhs = conditional_risk(loss, eta, yhat)
        rhs = (bayes_risk(loss, eta_hat)
               + (eta - eta_hat) * _bayes_risk_deriv(loss, eta_hat, h))
        residuals.append(abs(lhs - rhs))
    return _report("savage-regret", residuals, tolerance)


def check_diamond(seed: int = 0, n_cases: int = 120,
                  tolerance: float = 1e-10) -> dict:
    """The cost-curve transform of the binary entropy generator
    reproduces the logistic-family generator, and the transported
    divergence identity holds pointwise."""
    rng = Rng(seed).stream("check/diamond")
    entropy = lambda u: u * np.log(u) + (1.0 - u) * np.log1p(-u)
    entropy_d1 = lambda u: np.log(u) - np.log1p(-u)
    entropy_d2 = lambda u: 1.0 / (u * (1.0 - u))
    entropy_d3 = lambda u: 1.0 / (1.0 - u) ** 2 - 1.0 / u ** 2
    dia = diamond_transform(entropy, entropy_d1, entropy_d2, entropy_d3)
    lr = builtin_generator("lr")
    residuals = []
    for _ in range(n_cases):
        z = float(rng.uniform(0.05, 10.0))
        residuals.append(np.maximum(abs(dia.phi(z) - lr.phi(z)),
                                    abs(dia.phi2(z) - lr.phi2(z))))
    # transported pointwise divergence: (1+x) d01(x/(1+x), y/(1+y))
    for _ in range(n_cases):
        x, y = rng.uniform(0.05, 10.0, 2)
        u, v = x / (1.0 + x), y / (1.0 + y)
        d01 = (entropy(u) - entropy(v)
               - (np.log(v) - np.log1p(-v)) * (u - v))
        lhs = (1.0 + x) * d01
        rhs = (dia.phi(x) - dia.phi(y) - dia.phi1(y) * (x - y))
        residuals.append(abs(lhs - rhs))
    return _report("diamond-transform", residuals, tolerance)


def check_affine_invariance(seed: int = 0, n_cases: int = 60,
                            tolerance: float = 1e-12) -> dict:
    """Adding a + b x to the generator leaves every divergence value
    unchanged."""
    rng = Rng(seed).stream("check/affine")
    residuals = []
    for name in ("kulsif", "lr", "klest", "boost"):
        gen = builtin_generator(name)
        for _ in range(n_cases):
            a, b = rng.uniform(-2.0, 2.0, 2)
            shifted = BregmanGenerator(
                name=f"{gen.name}+affine",
                phi=lambda x, g=gen, a=a, b=b: g.phi(x) + a + b * x,
                phi1=lambda x, g=gen, b=b: g.phi1(x) + b,
                phi2=gen.phi2, phi3=gen.phi3,
                domain_eps=gen.domain_eps)
            pair = _random_pair(rng)
            rhat = rng.uniform(0.2, 3.0, pair.q.size)
            d0 = divergence_discrete(gen, pair, rhat)
            d1 = divergence_discrete(shifted, pair, rhat)
            residuals.append(abs(d0 - d1))
    return _report("affine-invariance", residuals, tolerance)


CHECK_GROUPS: dict[str, Callable[..., dict]] = {
    "excess-risk": check_excess_risk,
    "convexity": check_convexity,
    "weight-representation": check_weight_representation,
    "shuford-weight": check_shuford,
    "savage-regret": check_savage,
    "diamond-transform": check_diamond,
    "affine-invariance": check_affine_invariance,
}


def run_all(seed: int = 0) -> dict:
    """Run every identity group.  Returns {"groups": [...], "passed": bool}."""
    groups = [fn() if name == "convexity" else fn(seed=seed)
              for name, fn in CHECK_GROUPS.items()]
    return {"groups": groups, "passed": all(g["passed"] for g in groups)}
