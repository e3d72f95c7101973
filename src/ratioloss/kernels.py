"""Positive-definite kernels and Gram matrices.

A gaussian Gram is formed in one pass of DIST_ROWS-row blocks, each
block's squared distances scaled and exponentiated while it is in cache.
At d = 1 they are differences (x_i - y_j)^2; at d > 1 they are fixed up
from the whole product x @ y.T.  median_gram first forms the 1-d pair
distances of the median heuristic in the front of the Gram's own array.
"""
from __future__ import annotations

import mmap
from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np

GRAM_JITTER = 1e-10
# a gaussian sigma to be set by the median heuristic on the training
# points: the fits in dre resolve it, gram refuses it
MEDIAN = "median"
# gaussian Grams are formed this many rows at a time, so each block stays
# in cache and no second n x m array exists
DIST_ROWS = 64
# a work array of at least this many bytes gets a memory map of its own
MAPPED_BYTES = 1 << 22


@dataclass(frozen=True)
class KernelSpec:
    """Kernel description: 'gaussian' (needs a finite sigma > 0, or
    MEDIAN) or 'polynomial' (needs integer degree >= 1 and a finite
    offset, 1 by default)."""

    kind: str
    sigma: Union[float, str, None] = None
    degree: Optional[int] = None
    offset: float = 1.0

    def __post_init__(self):
        if self.kind == "gaussian":
            if self.sigma != MEDIAN and not (_finite(self.sigma)
                                             and self.sigma > 0):
                raise ValueError(
                    "gaussian kernel needs a finite sigma > 0 or 'median'")
        elif self.kind == "polynomial":
            if not (isinstance(self.degree, (int, np.integer))
                    and self.degree >= 1):
                raise ValueError("polynomial kernel needs an integer degree >= 1")
            if not _finite(self.offset):
                raise ValueError("polynomial kernel needs a finite offset, "
                                 f"got {self.offset!r}")
        else:
            raise ValueError(f"unknown kernel kind {self.kind!r}")

    @property
    def median_sigma(self) -> bool:
        """A gaussian whose sigma is still to be set by the median heuristic."""
        return self.kind == "gaussian" and self.sigma == MEDIAN


def _finite(v) -> bool:
    """-inf < v < inf, and False for None, NaN or a non-number."""
    try:
        return bool(-np.inf < v < np.inf)
    except TypeError:
        return False


def as_points(x) -> np.ndarray:
    """Coerce to an (n, d) float array; 1-d input becomes (n, 1)."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x.reshape(1, 1)
    elif x.ndim == 1:
        x = x.reshape(-1, 1)
    elif x.ndim != 2:
        raise ValueError("points must be at most 2-d")
    if not np.all(np.isfinite(x)):
        raise ValueError("points must be finite")
    return x


def _empty(shape) -> np.ndarray:
    """An uninitialized float array.

    Where mmap has MAP_PRIVATE, one of MAPPED_BYTES or more is a private
    anonymous memory map of its own, unmapped when the last view of it
    is dropped.  Its pages then go back to the system at once.  From the
    malloc heap they might not: a small block allocated above a freed
    Gram keeps it resident, and how often that happens depends on the
    heap's history, so a process's peak memory would too.
    """
    size = int(np.prod(shape)) * np.dtype(float).itemsize
    if size < MAPPED_BYTES or not hasattr(mmap, "MAP_PRIVATE"):
        return np.empty(shape)
    buf = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        # what numpy asks for its own large arrays
        buf.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buf, dtype=float).reshape(shape)


def _sq_dists(x: np.ndarray, y: np.ndarray, out: np.ndarray):
    """Yield out's DIST_ROWS-row blocks, each once it holds the squared
    distances of its rows; at d > 1, |x_i|^2 + |y_j|^2 - 2 x_i'y_j
    clipped at 0."""
    one_d = x.shape[1] == 1
    if not one_d:
        np.matmul(x, y.T, out=out)
        x2 = np.sum(x ** 2, axis=1)
        y2 = np.sum(y ** 2, axis=1)
    for i in range(0, len(out), DIST_ROWS):
        rows = out[i:i + DIST_ROWS]
        if one_d:
            np.square(np.subtract(x[i:i + DIST_ROWS], y.T, out=rows), out=rows)
        else:
            rows *= -2.0
            rows += x2[i:i + DIST_ROWS, None] + y2
            np.maximum(rows, 0.0, out=rows)
        yield rows


def _gaussian(blocks, sigma: float) -> None:
    """Overwrite blocks of squared distances sq by exp(-sq / (2 sigma^2))."""
    # rows / (-2 sigma^2) rounds exactly as -rows / (2 sigma^2)
    scale = -2.0 * sigma ** 2
    for rows in blocks:
        np.exp(np.divide(rows, scale, out=rows), out=rows)


def gram(spec: KernelSpec, x, y, out=None) -> np.ndarray:
    """Cross Gram matrix K[i, j] = k(x_i, y_j), in out if given (a
    C-contiguous n x m float array)."""
    x = as_points(x)
    y = as_points(y)
    if x.shape[1] != y.shape[1]:
        raise ValueError("point sets have mismatched dimensions")
    if spec.median_sigma:
        raise ValueError("median sigma is resolved by fitting, not by gram")
    k = _empty((len(x), len(y))) if out is None else out
    if spec.kind == "gaussian":
        _gaussian(_sq_dists(x, y, k), spec.sigma)
        return k
    # in place, so the product is the only n x m array
    np.matmul(x, y.T, out=k)
    k += spec.offset
    return np.power(k, spec.degree, out=k)


def gram_dot(spec: KernelSpec, x, y, coeffs) -> np.ndarray:
    """gram(spec, x, y) @ coeffs, without the whole cross Gram.

    The Gram is formed a block of rows of x at a time, every block in
    one reused buffer: the largest multiple of DIST_ROWS rows that stays
    under MAPPED_BYTES // 4 bytes, and never fewer than DIST_ROWS.  Such
    a buffer comes from the heap and is small enough not to stay
    resident there.  Whole multiples of DIST_ROWS rows gave the same
    bits with 1 and 2 OpenBLAS threads, where a whole 2001 x 2000
    product did not.  For 2-d coeffs, column j is block @ coeffs[:, j],
    so it equals the 1-d call on that column bit for bit.
    """
    x = as_points(x)
    y = as_points(y)
    c = np.asarray(coeffs, dtype=float)
    cols = np.ascontiguousarray(np.atleast_2d(c.T))
    out = np.empty((len(cols), len(x)))
    rows = (MAPPED_BYTES // 4 - 1) // (max(len(y), 1) * 8)
    rows = max(DIST_ROWS, rows // DIST_ROWS * DIST_ROWS)
    buf = np.empty((min(rows, len(x)), len(y)))
    # one block even for no rows, so gram checks the arguments
    for i in range(0, max(len(x), 1), rows):
        block = gram(spec, x[i:i + rows], y, out=buf[:len(x) - i])
        for o, col in zip(out, cols):
            o[i:i + rows] = block @ col
    return out[0] if c.ndim == 1 else out.T


def _median_sq_dist(pts: np.ndarray, square=None) -> tuple[float, Iterable]:
    """(sigma, blocks): the median pairwise distance over pairs i < j of
    points pts, and the row blocks of square, an n x n work array, as
    _sq_dists fills them.

    At d = 1 the n(n-1)/2 squared pair distances are differences, formed
    in the front of square if given, else in a buffer of their own, and
    the blocks are formed only when iterated.  At d > 1 the blocks are
    formed first, in square or a new array, and their strict upper
    triangle is copied into a pair buffer.  The pairs are partitioned
    once around the middle; the lower middle of an even count is the
    largest entry before it.  Only the middle values are square-rooted:
    sqrt is monotone, so this is the median of the distances.
    """
    n = len(pts)
    if n < 2:
        raise ValueError("need at least two points")
    if np.all(pts == pts[0]):
        raise ValueError("all points coincide; median distance is zero")
    size = n * (n - 1) // 2
    one_d = pts.shape[1] == 1
    if one_d:
        pairs = _empty(size) if square is None else square.reshape(-1)[:size]
        blocks = _sq_dists(pts, pts, square)
    else:
        square = _empty((n, n)) if square is None else square
        blocks = list(_sq_dists(pts, pts, square))
        pairs = _empty(size)
    start = 0
    for j in range(n - 1):
        seg = pairs[start:start + n - j - 1]
        if one_d:
            np.subtract(pts[j + 1:, 0], pts[j, 0], out=seg)
        else:
            seg[:] = square[j, j + 1:]
        start += n - j - 1
    if one_d:
        np.square(pairs, out=pairs)
    mid = len(pairs) // 2
    pairs.partition(mid)
    middle = [pairs[mid]] if len(pairs) % 2 else [pairs[:mid].max(), pairs[mid]]
    med = float(np.median(np.sqrt(middle)))
    if med <= 0.0:
        raise ValueError("median distance is zero: most pairs coincide")
    return med, blocks


def median_heuristic(points) -> float:
    """Median pairwise Euclidean distance over all pairs i < j."""
    return _median_sq_dist(as_points(points))[0]


def median_gram(points) -> tuple[float, np.ndarray]:
    """(sigma, K): the median heuristic over points and their gaussian
    Gram at that sigma, in one n x n array.

    Equal bit for bit to median_heuristic(points) followed by
    gram(KernelSpec("gaussian", sigma), points, points).
    """
    pts = as_points(points)
    k = _empty((len(pts), len(pts)))
    sigma, blocks = _median_sq_dist(pts, k)
    _gaussian(blocks, sigma)
    return sigma, k
