"""Positive-definite kernels and Gram matrices.

A gaussian Gram is formed in one pass of DIST_ROWS-row blocks, each
block's squared distances scaled and exponentiated while it is in cache.
At d = 1 they are differences (x_i - y_j)^2; at d > 1 they are fixed up
from the whole product x @ y.T.  Over MEDIAN_SAMPLE 1-d points, the
median heuristic forms only some of the n(n-1)/2 pair distances: on
the sorted points it counts, per row, the pairs below a bracket set by
a strided sample and at its ends, in O(n log n), and partitions the
pairs strictly within it, about 2 / MEDIAN_SAMPLE of them, in scratch
of its own that is freed before median_gram forms the Gram.  At d > 1
median_gram forms the squared distances once, in the Gram's array.
"""
from __future__ import annotations

import mmap
from dataclasses import dataclass
from typing import Optional, Union

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
# the 1-d median heuristic over more points than this brackets its middle
# ranks with a strided sample of about this many of them
MEDIAN_SAMPLE = 256


@dataclass(frozen=True)
class KernelSpec:
    """Kernel description: 'gaussian' (needs a finite sigma > 0 whose
    square is a normal finite float, or MEDIAN) or 'polynomial' (needs
    integer degree >= 1 and a finite offset, 1 by default)."""

    kind: str
    sigma: Union[float, str, None] = None
    degree: Optional[int] = None
    offset: float = 1.0

    def __post_init__(self):
        if self.kind == "gaussian":
            if self.sigma == MEDIAN:
                return
            need = "gaussian kernel needs a finite sigma > 0 or 'median'"
            if not (_finite(self.sigma) and self.sigma > 0):
                raise ValueError(need)
            try:
                square = float(self.sigma) ** 2
            except OverflowError:
                square = np.inf
            # the Gram divides by the square: 0 makes its diagonal 0/0,
            # a subnormal overflows the quotient, and inf makes it all ones
            if not np.finfo(float).tiny <= square < np.inf:
                raise ValueError(
                    f"{need}; sigma {self.sigma!r} squares to {square}")
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
    product did not.
    """
    x = as_points(x)
    y = as_points(y)
    c = np.ascontiguousarray(coeffs, dtype=float)
    out = np.empty(len(x))
    rows = (MAPPED_BYTES // 4 - 1) // (max(len(y), 1) * 8)
    rows = max(DIST_ROWS, rows // DIST_ROWS * DIST_ROWS)
    buf = np.empty((min(rows, len(x)), len(y)))
    # one block even for no rows, so gram checks the arguments
    for i in range(0, max(len(x), 1), rows):
        block = gram(spec, x[i:i + rows], y, out=buf[:len(x) - i])
        out[i:i + rows] = block @ c
    return out


def _select(a: np.ndarray, ranks: list) -> list:
    """The values of the 1-d array a at ranks (ascending); a is
    reordered.  One partition per rank, from the highest down, each over
    the values below the one before: numpy partitions a large array at
    one rank several times faster than at several at once."""
    top = len(a)
    for r in reversed(ranks):
        a[:top].partition(r)
        top = r
    return [float(a[r]) for r in ranks]


def _square_ranks(s: np.ndarray, ranks: list) -> list:
    """|s_j - s_i| at ranks (ascending) among the pairs i < j of the 1-d
    points s, from the whole square fl(s_j - s_i).

    The square holds each pair's difference once as is and once negated,
    exactly, and n zeros on its diagonal, so rank r among the pairs is
    rank n(n-1)/2 + n + r of the square, up to the sign of a zero.
    """
    n = len(s)
    square = _empty(n * n)
    np.subtract.outer(s, s, out=square.reshape(n, n))
    low = n * (n - 1) // 2 + n
    # one partition at every rank: numpy's single-rank partition can
    # take 5x longer on a square of few distinct differences
    square.partition([low + r for r in ranks])
    return [abs(float(square[low + r])) for r in ranks]


def _row_ends(s: np.ndarray, t: float, inside) -> np.ndarray:
    """For each i, the first j > i at which inside(fl(s_j - s_i), t)
    fails, for sorted 1-d points s and inside np.less or np.less_equal.

    For each i the differences grow with j also as they round, so inside
    holds on a run of j from i + 1.  searchsorted places s_i + t as that
    rounds, which can fall on the wrong side of a rounded difference; the
    row's end then moves over whole runs of equal points until it agrees.
    """
    n = len(s)
    first = np.arange(1, n + 1)
    end = np.searchsorted(s, s + t, "left" if inside is np.less else "right")
    np.maximum(end, first, out=end)
    while True:
        back = np.flatnonzero((end > first) & ~inside(s[end - 1] - s, t))
        if not len(back):
            break
        end[back] = np.maximum(np.searchsorted(s, s[end[back] - 1], "left"),
                               first[back])
    while True:
        ahead = np.flatnonzero(
            (end < n) & inside(s[np.minimum(end, n - 1)] - s, t))
        if not len(ahead):
            return end
        end[ahead] = np.searchsorted(s, s[end[ahead]], "right")


def _row_diffs(s: np.ndarray, start: np.ndarray,
               stop: np.ndarray) -> np.ndarray:
    """The differences fl(s_j - s_i) for j in [start_i, stop_i), row by row."""
    counts = stop - start
    # each j less its place among all the differences, then plus it
    cols = np.repeat(start - (np.cumsum(counts) - counts), counts)
    cols += np.arange(len(cols))
    return s[cols] - np.repeat(s, counts)


def _pair_diff_ranks(s: np.ndarray, ranks: list) -> list:
    """|s_j - s_i| at ranks (ascending) among the pairs i < j of the
    sorted 1-d points s.

    Over MEDIAN_SAMPLE points, a strided sample of about MEDIAN_SAMPLE
    of them, m, brackets the ranks first: its pair differences lo and
    hi at the same share of its square, widened by m / 2 ranks each way.
    For each i the j whose differences fall below lo, at lo, strictly
    between and at hi are counted with searchsorted.  A rank among the
    pairs at lo or at hi is that end; only the pairs strictly between
    are formed and partitioned, about 2/m of them, so ties at the ends
    are never formed.  Should the bracket miss a rank, or hold more
    than n^2 / 3 pairs, every pair is ranked: as exact, only slower.  Up
    to MEDIAN_SAMPLE points, the sample would be s itself, and every
    pair is ranked at once.
    """
    n = len(s)
    stride = -(-n // MEDIAN_SAMPLE)
    if stride > 1:
        sample = s[stride // 2::stride]
        m = len(sample)
        # rank r among the pairs is the share (2r + n) / n^2 of the
        # whole square fl(s_j - s_i), diagonal included: the sample's
        # square at that share ranks the same differences without the
        # bias of the diagonal, which is larger in the smaller square
        near = [((2 * r + n) * m * m // (n * n) - m) // 2
                for r in (ranks[0], ranks[-1])]
        lo, hi = _square_ranks(
            sample, [max(near[0] - m // 2, 0),
                     min(near[1] + m // 2, m * (m - 1) // 2 - 1)])
        first = np.arange(1, n + 1)
        start = _row_ends(s, lo, np.less_equal)
        stop = _row_ends(s, hi, np.less)
        # the pairs below lo, up to lo, below hi and up to hi
        below, to_lo, below_hi, to_hi = (
            int(np.sum(ends - first)) for ends in (
                _row_ends(s, lo, np.less), start, stop,
                _row_ends(s, hi, np.less_equal)))
        held = below_hi - to_lo
        # each held difference is formed from its j, s_j and s_i, at least
        # 3 numbers: past n^2 / 3 of them the whole square takes less
        if below <= ranks[0] and ranks[-1] < to_hi and 3 * held <= n * n:
            inner = [r - to_lo for r in ranks if to_lo <= r < below_hi]
            formed = dict(zip(inner, _select(_row_diffs(s, start, stop),
                                             inner))) if inner else {}
            return [lo if r < to_lo else hi if r >= below_hi
                    else formed[r - to_lo] for r in ranks]
    return _square_ranks(s, ranks)


def _median_sq_dist(pts: np.ndarray, square=None) -> float:
    """The median pairwise distance over pairs i < j of points pts; at
    d > 1, square (an n x n array, new if not given) is left holding
    their squared distances.

    At d = 1 the middle ranks of the n(n-1)/2 differences |x_i - x_j|
    are selected on the sorted points (_pair_diff_ranks).  Squaring is
    monotone, also as it rounds, so the squared middle differences are
    the middle squared distances.  At d > 1 the squared distances are
    formed first, and their strict upper triangle is copied into a pair
    buffer and partitioned at the middle ranks.  The product formula
    |x_i|^2 + |x_j|^2 - 2 x_i'x_j can leave up to (d + 2) eps (|x_i|^2 +
    |x_j|^2), eps the float64 machine epsilon, of a zero by
    cancellation: when more than half of the pairs lie below that
    bound, each its own, the median counts as 0.  Otherwise the middle
    values are kept as they are, so a pair below its bound moves no
    rank.  The lower middle of an even count is the rank below the
    middle.  Only the middle values are square-rooted: sqrt is
    monotone, so this is the median of the distances.
    """
    n = len(pts)
    if n < 2:
        raise ValueError("need at least two points")
    if np.all(pts == pts[0]):
        raise ValueError("all points coincide; median distance is zero")
    size = n * (n - 1) // 2
    mid = size // 2
    ranks = [mid] if size % 2 else [mid - 1, mid]
    if pts.shape[1] == 1:
        middle = np.square(_pair_diff_ranks(np.sort(pts[:, 0]), ranks))
    else:
        square = _empty((n, n)) if square is None else square
        for _ in _sq_dists(pts, pts, square):
            pass
        pairs = _empty(size)
        start = 0
        for j in range(n - 1):
            pairs[start:start + n - j - 1] = square[j, j + 1:]
            start += n - j - 1
        middle = _select(pairs, ranks)
        bound = (np.sum(pts ** 2, axis=1)
                 * ((pts.shape[1] + 2) * np.finfo(float).eps))
        # at most ranks[-1] pairs lie below middle[-1], so only a middle
        # below the largest pair's bound (or twice the largest point's)
        # can have more pairs below theirs
        if middle[-1] < 2.0 * bound.max():
            within = sum(np.count_nonzero(square[j, j + 1:]
                                          < bound[j] + bound[j + 1:])
                         for j in range(n - 1))
            if within > ranks[-1]:
                middle = [0.0]
    med = float(np.median(np.sqrt(middle)))
    if med <= 0.0:
        raise ValueError("median distance is zero: most pairs coincide")
    return med


def median_heuristic(points) -> float:
    """Median pairwise Euclidean distance over all pairs i < j."""
    return _median_sq_dist(as_points(points))


def median_gram(points) -> tuple[float, np.ndarray]:
    """(sigma, K): the median heuristic over points and their gaussian
    Gram at that sigma.

    Equal bit for bit to median_heuristic(points) followed by
    gram(KernelSpec("gaussian", sigma), points, points), which is what
    it runs at d = 1: the median's scratch is freed before the Gram is
    formed.  At d > 1 the median's squared distances are formed in the
    Gram's array and exponentiated there.
    """
    pts = as_points(points)
    if pts.shape[1] == 1:
        sigma = median_heuristic(pts)
        return sigma, gram(KernelSpec(kind="gaussian", sigma=sigma), pts, pts)
    k = _empty((len(pts), len(pts)))
    sigma = _median_sq_dist(pts, k)
    _gaussian((k,), sigma)
    return sigma, k
