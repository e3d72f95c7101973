"""Classification losses constructed from Bregman generators.

Given a generator phi and a strictly increasing ratio map g (scores to
ratio estimates), the induced composite loss has partial losses

    ell_pos(y) = c1 + c2 - phi'(g(y))
    ell_neg(y) = c1 + g(y) phi'(g(y)) - phi(g(y))

with inverse link  eta_hat(y) = g(y) / (1 + g(y)).  Minimizing the
resulting classification risk over P-vs-Q samples estimates the density
ratio dP/dQ through beta_hat = g(score); the excess classification risk
equals exactly half the Q-averaged Bregman divergence between the true
ratio and beta_hat.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .generators import (DOMAIN_EPS, BregmanGenerator,
                         DiscretePair, ScalarMap, builtin_generator,
                         divergence_discrete)


class CertificationError(RuntimeError):
    """A loss failed one of its structural self-checks."""


@dataclass(frozen=True)
class RatioMap:
    """Strictly increasing map g from scores to ratio estimates.

    g_inv is the inverse, g_inv1/g_inv2 its first two derivatives.
    """

    g: ScalarMap
    g_inv: ScalarMap
    g_inv1: ScalarMap
    g_inv2: ScalarMap

    def g1(self, y):
        """dg/dy via the inverse-function rule."""
        return 1.0 / self.g_inv1(self.g(y))

    def is_canonical_for(self, gen: BregmanGenerator) -> bool:
        """Whether this map is the canonical link of gen: g_inv and its
        two derivatives are gen's own phi1, phi2 and phi3, as
        canonical_ratio_map(gen) builds it."""
        return (self.g_inv, self.g_inv1, self.g_inv2) == (gen.phi1, gen.phi2,
                                                          gen.phi3)


def identity_ratio_map() -> RatioMap:
    ident = lambda x: np.asarray(x, dtype=float)
    return RatioMap(
        g=ident,
        g_inv=ident,
        g_inv1=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        g_inv2=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )


def exp_ratio_map(scale: float = 1.0) -> RatioMap:
    """g(y) = exp(scale * y); scale=1 is the logistic link, scale=2 boosting."""
    s = float(scale)
    if s <= 0:
        raise ValueError("scale must be positive")
    return RatioMap(
        g=lambda y: np.exp(np.minimum(s * np.asarray(y, dtype=float), 709.0)),
        g_inv=lambda x: np.log(np.maximum(np.asarray(x, dtype=float), DOMAIN_EPS)) / s,
        g_inv1=lambda x: 1.0 / (s * np.maximum(np.asarray(x, dtype=float), DOMAIN_EPS)),
        g_inv2=lambda x: -1.0 / (s * np.maximum(np.asarray(x, dtype=float), DOMAIN_EPS) ** 2),
    )


def canonical_ratio_map(gen: BregmanGenerator) -> RatioMap:
    """The canonical link for gen: scores live on the range of phi',
    and g = (phi')^{-1}, gen's inverse_phi1.  ValueError naming gen when
    it has none."""
    if gen.inverse_phi1 is None:
        raise ValueError(f"generator {gen.name!r} has no inverse_phi1")
    return RatioMap(g=gen.inverse_phi1, g_inv=gen.phi1, g_inv1=gen.phi2,
                    g_inv2=gen.phi3)


@dataclass(frozen=True)
class CompositeLoss:
    """Partial losses with derivatives, plus the link structure."""

    ell_pos: ScalarMap
    ell_neg: ScalarMap
    ell_pos1: ScalarMap
    ell_neg1: ScalarMap
    ratio_map: RatioMap
    generator: BregmanGenerator

    def link(self, eta):
        """Psi(eta) = g^{-1}(eta / (1 - eta)) on eta in (0, 1)."""
        eta = np.asarray(eta, dtype=float)
        return self.ratio_map.g_inv(eta / (1.0 - eta))

    def inv_link(self, y):
        """eta_hat(y) = g(y) / (1 + g(y)), the inverse of link."""
        b = self.ratio_map.g(y)
        return b / (1.0 + b)


def construct_loss(gen: BregmanGenerator, rmap: RatioMap,
                   c1: float = 0.0, c2: float = 0.0) -> CompositeLoss:
    """Build the composite loss induced by (gen, rmap).

    For the canonical link g = (phi')^{-1} (rmap.is_canonical_for(gen))
    two identities are stated instead of composed: ell_pos(y) = c1 + c2 -
    y, also the analytic extension past the link's domain floor, and
    ell_neg' = g, since b phi''(b) g'(y) = b for b = g(y).
    ValueError unless c1 and c2 are finite.
    """
    if not (np.isfinite(c1) and np.isfinite(c2)):
        raise ValueError(f"c1 and c2 must be finite, got {c1!r} and {c2!r}")
    g, phi, phi1, phi2 = rmap.g, gen.phi, gen.phi1, gen.phi2

    def ell_neg(y):
        b = g(y)
        return c1 + b * phi1(b) - phi(b)

    if rmap.is_canonical_for(gen):
        ell_pos = lambda y: (c1 + c2) - np.asarray(y, dtype=float)
        ell_pos1 = lambda y: -np.ones_like(np.asarray(y, dtype=float))
        ell_neg1 = g
    else:
        ell_pos = lambda y: (c1 + c2) - phi1(g(y))
        ell_pos1 = lambda y: -phi2(g(y)) * rmap.g1(y)

        def ell_neg1(y):
            b = g(y)
            return b * phi2(b) * rmap.g1(y)

    return CompositeLoss(ell_pos=ell_pos, ell_neg=ell_neg,
                         ell_pos1=ell_pos1, ell_neg1=ell_neg1,
                         ratio_map=rmap, generator=gen)


def family_loss(name: str, k: float | None = 0.0, c1: float = 0.0,
                c2: float = 0.0) -> CompositeLoss:
    """The conventional (generator, ratio map) pairing for each family.

    kulsif and klest score directly in ratio units (identity map), lr and
    boost use exponential links, poly and ew use their canonical links.
    Partial losses whose composition loses digits are stated in closed
    form: lr's and boost's, and klest's and ew's below the domain floor.
    ValueError for a non-finite k, whatever the family; only poly reads
    k, and it also refuses None, which parse_family gives the others.
    """
    if k is not None and not np.isfinite(k):
        raise ValueError(f"k must be finite, got {k!r}")
    if name == "kulsif":
        return construct_loss(builtin_generator("kulsif"), identity_ratio_map(),
                              c1, c2)
    if name == "lr":
        # composed, ell_neg = log(1 + e^y) cancels to 0 from y ~ 36 and
        # ell_pos is flat below the domain floor; the composed slopes
        # stay, within 1e-12 of these values' on scores in [-60, 60]
        return replace(
            construct_loss(builtin_generator("lr"), exp_ratio_map(1.0), c1, c2),
            ell_pos=lambda y: (c1 + c2) + np.logaddexp(0.0, np.negative(y)),
            ell_neg=lambda y: c1 + np.logaddexp(0.0, y))
    if name == "klest":
        gen = builtin_generator("klest")
        loss = construct_loss(gen, identity_ratio_map(), c1, c2)
        eps = gen.domain_eps

        # b phi'(b) - phi(b) = b exactly, and -log extends by its tangent
        # at the domain floor, whose slope the composed ell_pos' =
        # -phi''(y) already takes there: both partial losses stay C^1
        # convex wherever scores dip below the floor.
        def ell_pos(y):
            y = np.asarray(y, dtype=float)
            yc = np.maximum(y, eps)
            return (c1 + c2) - np.log(yc) + np.where(y >= eps, 0.0,
                                                     (eps - y) / eps)

        return replace(
            loss,
            ell_pos=ell_pos,
            ell_neg=lambda y: c1 + np.asarray(y, dtype=float),
            ell_neg1=lambda y: np.ones_like(np.asarray(y, dtype=float)))
    if name == "boost":
        # 2 e^-y and 2 e^y, the exponent capped as in exp_ratio_map:
        # composed, ell_pos is flat below y = -13.8 while its slope grows
        two_exp = lambda t: 2.0 * np.exp(np.minimum(t, 709.0))
        return replace(
            construct_loss(builtin_generator("boost"), exp_ratio_map(2.0),
                           c1, c2),
            ell_pos=lambda y: (c1 + c2) + two_exp(np.negative(y)),
            ell_neg=lambda y: c1 + two_exp(y),
            ell_pos1=lambda y: -two_exp(np.negative(y)), ell_neg1=two_exp)
    if name == "poly":
        gen = builtin_generator("poly", k=k)
        return construct_loss(gen, canonical_ratio_map(gen), c1, c2)
    if name == "ew":
        gen = builtin_generator("ew")
        loss = construct_loss(gen, canonical_ratio_map(gen), c1, c2)
        eps = gen.domain_eps
        tangent = 0.5 * np.log(2.0 * eps)

        # Legendre form (y/2)(log 2y - 1) on the domain, its tangent at
        # the floor below.  The canonical ell_neg' = g is already that
        # tangent's slope below the floor, since g clips there, so only
        # the value needs the linear continuation.
        def ell_neg(y):
            y = np.asarray(y, dtype=float)
            yc = np.maximum(y, eps)
            core = 0.5 * yc * (np.log(2.0 * yc) - 1.0)
            return c1 + core + np.where(y >= eps, 0.0, tangent * (y - eps))

        return replace(loss, ell_neg=ell_neg)
    raise ValueError(f"unknown family {name!r}")


def conditional_risk(loss: CompositeLoss, eta: float, yhat) -> float:
    """CR(eta, yhat) = eta ell_pos(yhat) + (1 - eta) ell_neg(yhat)."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    return eta * loss.ell_pos(yhat) + (1.0 - eta) * loss.ell_neg(yhat)


def bayes_risk(loss: CompositeLoss, eta: float) -> float:
    """Pointwise minimal risk CR(eta, Psi(eta)) for a proper loss."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    return conditional_risk(loss, eta, loss.link(eta))


def _link_and_slope(loss: CompositeLoss, eta):
    """(x, Psi(eta), Psi'(eta)) at the odds x = eta / (1 - eta):
    Psi = g_inv(x) and Psi' = g_inv'(x) / (1 - eta)^2."""
    x = eta / (1.0 - eta)
    rmap = loss.ratio_map
    return x, rmap.g_inv(x), rmap.g_inv1(x) / (1.0 - eta) ** 2


def shuford_weight(loss: CompositeLoss, eta: float) -> float:
    """The properness weight w(eta) of the underlying proper loss.

    Computed twice, from each partial loss:
        w = lambda_pos'(eta) / (eta - 1) = lambda_neg'(eta) / eta,
    where lambda_y(eta) = ell_y(Psi(eta)).  The two values must agree to
    1e-7 relative or a CertificationError is raised; their mean is returned.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie strictly inside (0, 1)")
    _, y, psi1 = _link_and_slope(loss, eta)
    r_pos = float(loss.ell_pos1(y)) * psi1 / (eta - 1.0)
    r_neg = float(loss.ell_neg1(y)) * psi1 / eta
    denom = max(abs(r_pos), abs(r_neg), 1e-300)
    if not abs(r_pos - r_neg) / denom <= 1e-7:  # NaN disagrees too
        raise CertificationError(
            f"partial-loss weight ratios disagree at eta={eta}: "
            f"{r_pos!r} vs {r_neg!r}")
    return 0.5 * (r_pos + r_neg)


def convexity_margin(gen: BregmanGenerator, rmap: RatioMap, x):
    """Slack of the two-sided convexity condition at ratio value x > 0.

    middle(x) = phi'''(x)/phi''(x) - g_inv''(x)/g_inv'(x) must lie in
    [-1/x, 0] for both partial losses to be convex in the score.  Returns
    (middle + 1/x, -middle); the loss is certified convex on a grid when
    both slacks are nonnegative everywhere.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("x must be positive")
    middle = gen.phi3(x) / gen.phi2(x) - rmap.g_inv2(x) / rmap.g_inv1(x)
    return middle + 1.0 / x, -middle


def excess_risk_identity_check(loss: CompositeLoss, pair: DiscretePair,
                               f: np.ndarray) -> tuple[float, float]:
    """Both sides of the excess-risk identity on a discrete pair.

    Returns (excess risk of the score vector f, half the Q-averaged
    divergence between beta and g(f)); the two agree for every composite
    loss built here, each side coming from an independent path.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != pair.q.shape:
        raise ValueError("f must assign one score per support point")
    f_star = loss.ratio_map.g_inv(pair.beta)

    def risk(scores):
        return float(0.5 * pair.p @ loss.ell_pos(scores)
                     + 0.5 * pair.q @ loss.ell_neg(scores))

    excess = risk(f) - risk(f_star)
    half_breg = 0.5 * divergence_discrete(loss.generator, pair,
                                          loss.ratio_map.g(f))
    return excess, half_breg
