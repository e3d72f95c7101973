"""Composite Simpson quadrature on uniform grids."""
from __future__ import annotations

from typing import Callable

import numpy as np


def _check_rule(lo: float, hi: float, n_nodes: int) -> None:
    """A finite interval lo < hi and an odd n_nodes >= 3, so the interval
    splits into an even number of panels."""
    if not np.isfinite(lo) or not np.isfinite(hi) or hi <= lo:
        raise ValueError(f"bad integration interval [{lo}, {hi}]")
    if n_nodes < 3 or n_nodes % 2 == 0:
        raise ValueError(f"Simpson rule needs an odd node count >= 3, got {n_nodes}")


def simpson_nodes(lo: float, hi: float, n_nodes: int) -> np.ndarray:
    """Uniform node grid for the composite Simpson rule."""
    _check_rule(lo, hi, n_nodes)
    return np.linspace(lo, hi, n_nodes)


def simpson_weights(lo: float, hi: float, n_nodes: int) -> np.ndarray:
    """Composite Simpson weights on simpson_nodes(lo, hi, n_nodes)."""
    _check_rule(lo, hi, n_nodes)
    h = (hi - lo) / (n_nodes - 1)
    w = np.ones(n_nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def integrate(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
              n_nodes: int = 2001) -> float:
    """Integrate f over [lo, hi] with composite Simpson on n_nodes points."""
    xs = simpson_nodes(lo, hi, n_nodes)
    vals = np.asarray(f(xs), dtype=float)
    if vals.shape != xs.shape:
        raise ValueError("integrand must return one value per node")
    return float(vals @ simpson_weights(lo, hi, n_nodes))
