"""Bregman generators and divergence evaluation.

A generator is a strictly convex scalar function phi on the positive
half-line, carried around with its first three derivatives.  The induced
Bregman divergence, averaged over a reference measure Q, is the error
measure for density ratio estimation used throughout this package:

    B_phi(beta, beta_hat) = E_Q[ phi(beta) - phi(beta_hat)
                                 - phi'(beta_hat) (beta - beta_hat) ].
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .quadrature import integrate

DOMAIN_EPS = 1e-12
RATIO_CAP = 1e6
FAMILY_NAMES = ("kulsif", "lr", "klest", "boost", "poly", "ew")

ScalarMap = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class BregmanGenerator:
    """Strictly convex generator with three derivatives.

    The callables are vectorized over numpy arrays.  For generators that
    are singular at zero the callables clip their argument to
    max(x, domain_eps); globally defined quadratics (kulsif, poly k=0)
    evaluate unclipped.  inverse_phi1 is a closed-form inverse of phi'
    where one exists; it clips into the valid score range itself.
    """

    name: str
    phi: ScalarMap
    phi1: ScalarMap
    phi2: ScalarMap
    phi3: ScalarMap
    domain_eps: float = DOMAIN_EPS
    inverse_phi1: Optional[ScalarMap] = None


@dataclass(frozen=True)
class DiscretePair:
    """A pair of probability vectors on a shared finite support.

    q must be strictly positive so the ratio beta = p/q exists; both
    vectors must sum to one.
    """

    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        q = np.asarray(self.q, dtype=float)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        if p.shape != q.shape or p.ndim != 1 or p.size == 0:
            raise ValueError("p and q must be equal-length 1-d vectors")
        if np.any(q <= 0.0):
            raise ValueError("q must be strictly positive on the support")
        if np.any(p < 0.0):
            raise ValueError("p must be nonnegative")
        for name, v in (("p", p), ("q", q)):
            if abs(v.sum() - 1.0) > 1e-12:
                raise ValueError(f"{name} must sum to 1 (got {v.sum()!r})")

    @property
    def beta(self) -> np.ndarray:
        return self.p / self.q


def _clipped(f: Callable[[np.ndarray], np.ndarray], eps: float) -> ScalarMap:
    def wrapped(x):
        x = np.maximum(np.asarray(x, dtype=float), eps)
        return f(x)
    return wrapped


def _raw(f: Callable[[np.ndarray], np.ndarray]) -> ScalarMap:
    def wrapped(x):
        return f(np.asarray(x, dtype=float))
    return wrapped


def builtin_generator(name: str, k: Optional[float] = None) -> BregmanGenerator:
    """Construct one of the named builtin generators.

    Names: kulsif, lr, klest, boost, poly (needs a finite k >= 0), ew.
    """
    eps = DOMAIN_EPS
    if name == "kulsif":
        # (x-1)^2/2 is a global quadratic: no domain clip.
        return BregmanGenerator(
            name="kulsif",
            phi=_raw(lambda x: 0.5 * (x - 1.0) ** 2),
            phi1=_raw(lambda x: x - 1.0),
            phi2=_raw(lambda x: np.ones_like(x)),
            phi3=_raw(lambda x: np.zeros_like(x)),
            inverse_phi1=_raw(lambda y: y + 1.0),
        )
    if name == "lr":
        def inv(y):
            y = np.clip(np.asarray(y, dtype=float), np.log(eps), -1e-12)
            return 1.0 / np.expm1(-y)
        return BregmanGenerator(
            name="lr",
            phi=_clipped(lambda x: x * np.log(x) - (1.0 + x) * np.log1p(x), eps),
            phi1=_clipped(lambda x: np.log(x) - np.log1p(x), eps),
            phi2=_clipped(lambda x: 1.0 / (x * (1.0 + x)), eps),
            phi3=_clipped(lambda x: 1.0 / (1.0 + x) ** 2 - 1.0 / x ** 2, eps),
            inverse_phi1=inv,
        )
    if name == "klest":
        def inv(y):
            return np.exp(np.minimum(np.asarray(y, dtype=float), 709.0))
        return BregmanGenerator(
            name="klest",
            phi=_clipped(lambda x: x * np.log(x) - x, eps),
            phi1=_clipped(np.log, eps),
            phi2=_clipped(lambda x: 1.0 / x, eps),
            phi3=_clipped(lambda x: -1.0 / x ** 2, eps),
            inverse_phi1=inv,
        )
    if name == "boost":
        def inv(y):
            y = np.clip(np.asarray(y, dtype=float), -2.0 / np.sqrt(eps),
                        -2.0 / np.sqrt(RATIO_CAP))
            return 4.0 / y ** 2
        return BregmanGenerator(
            name="boost",
            phi=_clipped(lambda x: -4.0 * np.sqrt(x), eps),
            phi1=_clipped(lambda x: -2.0 / np.sqrt(x), eps),
            phi2=_clipped(lambda x: x ** -1.5, eps),
            phi3=_clipped(lambda x: -1.5 * x ** -2.5, eps),
            inverse_phi1=inv,
        )
    if name == "poly":
        if k is None or not 0.0 <= k < np.inf:  # NaN fails too
            raise ValueError(
                f"poly generator needs a finite k >= 0, got {k!r}")
        k = float(k)
        if k == 0.0:
            return BregmanGenerator(
                name="poly",
                phi=_raw(lambda x: 0.5 * x ** 2),
                phi1=_raw(lambda x: x),
                phi2=_raw(np.ones_like),
                phi3=_raw(np.zeros_like),
                inverse_phi1=_raw(lambda y: y),
            )
        def inv(y, k=k):
            y = np.maximum(np.asarray(y, dtype=float), 1e-300)
            return ((1.0 + k) * y) ** (1.0 / (1.0 + k))
        return BregmanGenerator(
            name="poly",
            phi=_clipped(lambda x: x ** (2.0 + k) / ((1.0 + k) * (2.0 + k)), eps),
            phi1=_clipped(lambda x: x ** (1.0 + k) / (1.0 + k), eps),
            phi2=_clipped(lambda x: x ** k, eps),
            phi3=_clipped(lambda x: k * x ** (k - 1.0), eps),
            inverse_phi1=inv,
        )
    if name == "ew":
        # exp(2x)/4 is convex on all of R, so no domain clip: the loss
        # composition needs phi on the analytic extension below 0.
        def inv(y):
            y = np.maximum(np.asarray(y, dtype=float), eps)
            return 0.5 * np.log(2.0 * y)
        return BregmanGenerator(
            name="ew",
            phi=_raw(lambda x: 0.25 * np.exp(2.0 * x)),
            phi1=_raw(lambda x: 0.5 * np.exp(2.0 * x)),
            phi2=_raw(lambda x: np.exp(2.0 * x)),
            phi3=_raw(lambda x: 2.0 * np.exp(2.0 * x)),
            inverse_phi1=inv,
        )
    raise ValueError(f"unknown generator {name!r}")


def parse_family(label: str) -> tuple[str, Optional[float]]:
    """Split a family label into (name, k): "poly6" gives ("poly", 6.0).

    Only poly carries an exponent; every other family gives k None.
    """
    if label.startswith("poly"):
        return "poly", float(label[4:])
    if label not in FAMILY_NAMES:
        raise ValueError(f"unknown family label {label!r}")
    return label, None


def bregman_term(gen: BregmanGenerator, r, rhat) -> np.ndarray:
    """Pointwise divergence phi(r) - phi(rhat) - phi'(rhat)(r - rhat)."""
    r = np.asarray(r, dtype=float)
    rhat = np.asarray(rhat, dtype=float)
    return gen.phi(r) - gen.phi(rhat) - gen.phi1(rhat) * (r - rhat)


def divergence_discrete(gen: BregmanGenerator, pair: DiscretePair,
                        betahat: np.ndarray) -> float:
    """Q-averaged Bregman divergence between pair.beta and betahat."""
    betahat = np.asarray(betahat, dtype=float)
    if betahat.shape != pair.q.shape:
        raise ValueError("betahat must match the support size")
    if not np.all(np.isfinite(betahat)):
        raise ValueError("betahat must be finite")
    return float(pair.q @ bregman_term(gen, pair.beta, betahat))


def weight_representation(gen: BregmanGenerator, r: float, rhat: float,
                          n_nodes: int = 2001) -> float:
    """Pointwise divergence written as an integral over cutoff weights.

    Evaluates integral of phi''(c) * |r - c| over c between rhat and r,
    which equals the pointwise Bregman term; the integrand vanishes
    outside that interval.
    """
    if r < 0.0 or rhat < 0.0:
        raise ValueError("r and rhat must be nonnegative")
    if r == rhat:
        return 0.0
    lo, hi = (r, rhat) if r < rhat else (rhat, r)
    return integrate(lambda c: gen.phi2(c) * np.abs(r - c), lo, hi, n_nodes)


def diamond_transform(phi01: ScalarMap,
                      phi01_d1: ScalarMap,
                      phi01_d2: ScalarMap,
                      phi01_d3: ScalarMap) -> BregmanGenerator:
    """Lift a convex function on [0, 1) to a generator on [0, inf).

    The transform is z -> (1+z) * phi01(z / (1+z)).  Its Bregman
    divergence relates to the one of phi01 by
    (1+x) d_{phi01}(x/(1+x), y/(1+y)) = d_{transform}(x, y).
    Raises if the inner argument lands within 1e-12 of 1.
    """
    def inner(z):
        z = np.maximum(np.asarray(z, dtype=float), DOMAIN_EPS)
        u = z / (1.0 + z)
        if np.any(u > 1.0 - 1e-12):
            raise ValueError("inner argument too close to 1; z is too large")
        return z, u

    def phi(z):
        z, u = inner(z)
        return (1.0 + z) * phi01(u)

    def phi1(z):
        z, u = inner(z)
        return phi01(u) + phi01_d1(u) / (1.0 + z)

    def phi2(z):
        z, u = inner(z)
        return phi01_d2(u) / (1.0 + z) ** 3

    def phi3(z):
        z, u = inner(z)
        return (phi01_d3(u) / (1.0 + z) ** 5
                - 3.0 * phi01_d2(u) / (1.0 + z) ** 4)

    return BregmanGenerator(name="diamond", phi=phi, phi1=phi1,
                            phi2=phi2, phi3=phi3)
