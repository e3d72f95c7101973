"""Synthetic distribution pairs, samplers, and seeded substreams.

All randomness flows through Rng, which derives an independent Philox
(counter-based) bit stream per named consumer, so every artifact is
bit-reproducible from (seed, consumer name) regardless of call order.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .quadrature import simpson_nodes, simpson_weights


@dataclass(frozen=True)
class Rng:
    seed: int

    def stream(self, name: str) -> np.random.Generator:
        """Deterministic substream for a named consumer."""
        digest = hashlib.sha256(name.encode("utf-8")).digest()
        words = [int.from_bytes(digest[i:i + 4], "little") for i in range(0, 16, 4)]
        ss = np.random.SeedSequence(entropy=[int(self.seed) & (2 ** 63 - 1), *words])
        return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class PiecewisePairSpec:
    """Two piecewise-constant densities on a shared interval.

    breakpoints are the interior jump locations; p_levels/q_levels give
    the density value on each of the len(breakpoints)+1 pieces.  Both
    densities must integrate to one and q must be positive, so the ratio
    beta = p/q is a positive step function.
    """

    lo: float
    hi: float
    breakpoints: tuple
    p_levels: tuple
    q_levels: tuple

    def __post_init__(self):
        bp = tuple(float(b) for b in self.breakpoints)
        pl = tuple(float(v) for v in self.p_levels)
        ql = tuple(float(v) for v in self.q_levels)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "p_levels", pl)
        object.__setattr__(self, "q_levels", ql)
        if not self.lo < self.hi:
            raise ValueError("need lo < hi")
        if list(bp) != sorted(bp) or (bp and (bp[0] <= self.lo or bp[-1] >= self.hi)):
            raise ValueError("breakpoints must be sorted inside (lo, hi)")
        if len(pl) != len(bp) + 1 or len(ql) != len(bp) + 1:
            raise ValueError("need one level per piece")
        if any(v < 0 for v in pl) or any(v <= 0 for v in ql):
            raise ValueError("p levels must be >= 0 and q levels > 0")
        w = self.widths
        for name, levels in (("p", pl), ("q", ql)):
            total = float(np.dot(levels, w))
            if abs(total - 1.0) > 1e-12:
                raise ValueError(f"{name} density integrates to {total!r}, not 1")

    @property
    def edges(self) -> np.ndarray:
        return np.array([self.lo, *self.breakpoints, self.hi])

    @property
    def widths(self) -> np.ndarray:
        e = self.edges
        return e[1:] - e[:-1]

    def pieces(self, n_nodes: int):
        """Yield (nodes, weights, p_level, q_level) one piece at a time: the
        composite Simpson rule on n_nodes points of the piece, and its levels."""
        e = self.edges
        for lo, hi, p_level, q_level in zip(e[:-1], e[1:], self.p_levels,
                                            self.q_levels):
            yield (simpson_nodes(lo, hi, n_nodes),
                   simpson_weights(lo, hi, n_nodes), p_level, q_level)

    def piece_index(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if np.any((x < self.lo) | (x > self.hi)):
            raise ValueError("points outside the pair's interval")
        return np.searchsorted(np.asarray(self.breakpoints), x, side="right")

    def density(self, which: str, x) -> np.ndarray:
        levels = {"p": self.p_levels, "q": self.q_levels}[which]
        return np.asarray(levels, dtype=float)[self.piece_index(x)]


def piecewise_beta(spec: PiecewisePairSpec, x) -> np.ndarray:
    """Exact density ratio p/q at the given points."""
    return spec.density("p", x) / spec.density("q", x)


def default_pair() -> PiecewisePairSpec:
    """The package's reference piecewise pair on [-1, 1].

    Even in x with ratio levels (11, 1, 1/4, 1, 11): Q puts 96% of its
    mass inside |x| < 0.85 while P puts 44% beyond it, so the ratio
    spikes to 11 on the outer pieces.  The spike region [0.85, 1] is
    where divergences that emphasize large ratios earn their keep.
    """
    return PiecewisePairSpec(
        lo=-1.0, hi=1.0,
        breakpoints=(-0.85, -0.6, 0.6, 0.85),
        p_levels=(22.0 / 15.0, 64.0 / 75.0, 1.0 / 9.0, 64.0 / 75.0, 22.0 / 15.0),
        q_levels=(2.0 / 15.0, 64.0 / 75.0, 4.0 / 9.0, 64.0 / 75.0, 2.0 / 15.0),
    )


def sample_piecewise(spec: PiecewisePairSpec, which: str, n: int,
                     rng: Rng, name: str = "piecewise") -> np.ndarray:
    """n inverse-CDF draws from the chosen marginal ('p' or 'q')."""
    if which not in ("p", "q"):
        raise ValueError("which must be 'p' or 'q'")
    if n <= 0:
        raise ValueError("n must be positive")
    levels = np.asarray({"p": spec.p_levels, "q": spec.q_levels}[which], dtype=float)
    masses = levels * spec.widths
    cum = np.concatenate(([0.0], np.cumsum(masses)))
    cum[-1] = 1.0  # guard against last-bin roundoff
    u = rng.stream(f"{name}/{which}/{n}").uniform(size=n)
    idx = np.clip(np.searchsorted(cum, u, side="right") - 1, 0, len(masses) - 1)
    frac = (u - cum[idx]) / masses[idx]
    e = spec.edges
    return e[idx] + frac * spec.widths[idx]


def gaussian_pair(mu_p: float = 1.0, sigma_p: float = 0.5,
                  mu_q: float = 0.0, sigma_q: float = 1.0):
    """1-d Gaussian pair; returns (sampler, exact ratio function).

    sampler(which, n, rng, name=...) draws from P or Q.
    """
    if sigma_p <= 0 or sigma_q <= 0:
        raise ValueError("scales must be positive")

    def sampler(which: str, n: int, rng: Rng, name: str = "gaussian") -> np.ndarray:
        mu, sigma = {"p": (mu_p, sigma_p), "q": (mu_q, sigma_q)}[which]
        z = rng.stream(f"{name}/{which}/{n}").standard_normal(n)
        return mu + sigma * z

    def exact_beta(x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return (sigma_q / sigma_p) * np.exp(
            (x - mu_q) ** 2 / (2.0 * sigma_q ** 2)
            - (x - mu_p) ** 2 / (2.0 * sigma_p ** 2))

    return sampler, exact_beta


def target_function(x) -> np.ndarray:
    """Regression target used by the covariate-shift experiment."""
    x = np.asarray(x, dtype=float)
    return np.sin(3.0 * x ** 4)


@dataclass(frozen=True)
class RegressionTask:
    src_xs: np.ndarray
    src_ys: np.ndarray


def regression_task(spec: PiecewisePairSpec, n_src: int, noise_sigma: float,
                    rng: Rng, name: str = "regression") -> RegressionTask:
    """Inputs drawn from Q (source) with noisy observations of the target
    function.  ValueError unless noise_sigma is finite and nonnegative."""
    if not 0.0 <= noise_sigma < np.inf:
        raise ValueError("noise_sigma must be finite and nonnegative")
    src = sample_piecewise(spec, "q", n_src, rng, name=f"{name}/src")
    noise = rng.stream(f"{name}/noise-src/{n_src}").standard_normal(n_src)
    return RegressionTask(src_xs=src,
                          src_ys=target_function(src) + noise_sigma * noise)
