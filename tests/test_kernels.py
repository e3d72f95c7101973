"""Kernel specs, Gram matrices, and the median bandwidth heuristic."""
import mmap
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratioloss import (MEDIAN, KernelSpec, as_points, gram, gram_dot,
                       kernels, median_gram, median_heuristic)


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(kind="gaussian")
    with pytest.raises(ValueError):
        KernelSpec(kind="gaussian", sigma=0.0)
    with pytest.raises(ValueError):
        KernelSpec(kind="polynomial")
    with pytest.raises(ValueError):
        KernelSpec(kind="polynomial", degree=0)
    for degree in (2.5, 3.0, "3"):  # an integer degree, not one truncated
        with pytest.raises(ValueError):
            KernelSpec(kind="polynomial", degree=degree)
    for offset in (float("nan"), float("inf"), -float("inf"), None):
        with pytest.raises(ValueError, match="needs a finite offset"):
            KernelSpec(kind="polynomial", degree=2, offset=offset)
    with pytest.raises(ValueError):
        KernelSpec(kind="laplace", sigma=1.0)
    # the smallest accepted sigma squares to the smallest normal float
    KernelSpec(kind="gaussian", sigma=float(np.sqrt(np.finfo(float).tiny)))


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), "wide",
                                   "Median", 1e-170, 1e-160, 1e200,
                                   pytest.param(10**400, id="10^400")])
def test_gaussian_sigma_is_a_positive_number_or_median(sigma):
    # 1e-170 squares to 0, which would make the Gram's diagonal 0/0,
    # 1e-160 to a subnormal, which overflows the Gram's quotient, and
    # 1e200 and 10^400 square past the float range
    with pytest.raises(ValueError,
                       match="needs a finite sigma > 0 or 'median'"):
        KernelSpec(kind="gaussian", sigma=sigma)


def test_median_sigma_is_resolved_by_fitting_not_by_gram():
    spec = KernelSpec(kind="gaussian", sigma=MEDIAN)
    with pytest.raises(ValueError, match="resolved by fitting"):
        gram(spec, [0.0, 1.0], [0.0, 1.0])
    # a polynomial kernel has no bandwidth to resolve
    poly = KernelSpec(kind="polynomial", degree=2, sigma=MEDIAN)
    assert gram(poly, [1.0], [2.0])[0, 0] == 9.0


def test_gaussian_point_values():
    spec = KernelSpec(kind="gaussian", sigma=1.0)
    assert gram(spec, 0.7, 0.7)[0, 0] == pytest.approx(1.0, abs=1e-15)
    # squared distance 2 at bandwidth 1 gives exp(-1)
    assert gram(spec, 0.0, np.sqrt(2.0))[0, 0] == pytest.approx(np.exp(-1.0),
                                                                rel=1e-12)


def test_polynomial_point_values():
    spec = KernelSpec(kind="polynomial", degree=3)
    assert gram(spec, 1.0, 2.0)[0, 0] == pytest.approx(27.0, abs=1e-12)
    shifted = KernelSpec(kind="polynomial", degree=2, offset=0.5)
    assert gram(shifted, 1.0, 2.0)[0, 0] == pytest.approx(6.25, abs=1e-12)


def test_gram_shape_and_symmetry():
    spec = KernelSpec(kind="gaussian", sigma=0.8)
    x = np.array([[0.0], [1.0], [2.5]])
    k = gram(spec, x, x)
    assert k.shape == (3, 3)
    assert np.allclose(k, k.T)
    assert np.allclose(np.diag(k), 1.0)


def test_gram_dimension_mismatch():
    spec = KernelSpec(kind="gaussian", sigma=1.0)
    with pytest.raises(ValueError):
        gram(spec, np.zeros((3, 1)), np.zeros((3, 2)))


def test_as_points_coercion():
    assert as_points(2.0).shape == (1, 1)
    assert as_points([1.0, 2.0, 3.0]).shape == (3, 1)
    assert as_points(np.zeros((4, 2))).shape == (4, 2)
    with pytest.raises(ValueError):
        as_points(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        as_points([1.0, np.nan])


def test_median_heuristic_frozen_case():
    # pairwise distances {1, 1, 2} have median 1
    assert median_heuristic([0.0, 1.0, 2.0]) == pytest.approx(1.0, abs=1e-15)
    # {1, 2, 3, 4, 6, 7}: an even count averages the two middle distances
    assert median_heuristic([0.0, 1.0, 3.0, 7.0]) == 3.5
    with pytest.raises(ValueError):
        median_heuristic([1.0])
    with pytest.raises(ValueError):
        median_heuristic([2.0, 2.0, 2.0])
    with pytest.raises(ValueError, match="all points coincide"):
        median_gram([2.0, 2.0, 2.0])


@pytest.mark.parametrize("point", [[1 / 3], [1 / 3, 2 / 3],
                                   [1 / 3, 2 / 3, 1.0]])
def test_coincident_points_are_refused_at_every_dimension(point):
    # by cancellation, the product formula leaves 40 copies of the 2-d and
    # 3-d points a median distance of 1.5e-8 and 2.1e-8; every point equal
    # to the first is refused before any distance is formed
    pts = np.tile(point, (40, 1))
    with pytest.raises(ValueError, match="all points coincide"):
        median_heuristic(pts)
    with pytest.raises(ValueError, match="all points coincide"):
        median_gram(pts)


def test_mostly_coincident_1d_points_have_a_zero_median():
    # 435 of the 528 pairs coincide; differences keep them exactly 0
    pts = np.r_[np.full(30, 1.7), [0.0, 2.5, 9.0]]
    for f in (median_heuristic, median_gram):
        with pytest.raises(ValueError, match="median distance is zero"):
            f(pts)
    assert median_heuristic(pts[25:]) > 0.0  # 10 of 28 pairs coincide


def test_median_within_rounding_of_zero_is_zero_at_every_dimension():
    # 465 of the 528 pairs coincide; the product formula leaves them
    # about 1e-16 where differences leave 0, which used to give a median
    # distance of 2.1e-8 at d = 3
    pts = np.r_[np.tile([1 / 3, 2 / 3, 1.0], (30, 1)),
                [[0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [5.0, 1.0, 2.0]]]
    for x in (pts, pts[:, :2], pts[:, :1]):
        for f in (median_heuristic, median_gram):
            with pytest.raises(ValueError, match="median distance is zero"):
                f(x)


def test_pairs_within_rounding_of_zero_move_no_rank():
    # 20 points about the origin 1e-6 apart, and two about (1e3, 1e3)
    # 1e-5 apart, whose squared distance 1e-10 is below its own bound
    # of about 4e-9: the median is among the cluster's 190 pairs, and a
    # far pair that rounds above it keeps its rank
    rng = np.random.default_rng(3)
    far = 1e3 + 1e-5 * rng.standard_normal((2, 2))
    for seed in range(20):
        near = 1e-6 * np.random.default_rng(seed).standard_normal((20, 2))
        x = np.r_[near, far]
        assert median_heuristic(x) == dense_median_heuristic(x) > 1e-7
        assert median_gram(x)[0] == dense_median_heuristic(x)


def _square_ranks_calls(monkeypatch, forced=None):
    """The point counts of the squares kernels ranks while the test runs;
    with forced, the first square ranks forced(pairs), its number of
    pairs given, instead of the ranks it is asked for."""
    counts = []
    inner = kernels._square_ranks

    def spy(s, ranks):
        counts.append(len(s))
        if forced is not None and len(counts) == 1:
            ranks = forced(len(s) * (len(s) - 1) // 2)
        return inner(s, list(ranks))

    monkeypatch.setattr(kernels, "_square_ranks", spy)
    return counts


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=12),
       st.integers(2, 700), st.sampled_from([0.0, 1e-13, 1e-7, 1.0]),
       st.integers(0, 2 ** 32 - 1))
def test_1d_median_equals_the_dense_oracle(values, n, spread, seed):
    # few values drawn many times: duplicates, mixed signs, and spreads
    # down to below an ulp of the values, where differences round most
    rng = np.random.default_rng(seed)
    x = (rng.choice(values, n) + spread * rng.standard_normal(n))[:, None]
    expected = dense_median_heuristic(x)
    if expected <= 0.0:
        with pytest.raises(ValueError):
            median_heuristic(x)
        return
    assert median_heuristic(x) == expected
    med, k = median_gram(x)
    assert med == expected
    assert np.array_equal(k, dense_gaussian_gram(med, x, x))


@pytest.mark.parametrize("inside", [np.less, np.less_equal])
def test_row_ends_follow_the_differences_as_they_round(inside):
    # the bracket ends are differences of the points, so s_i + t often
    # rounds to the other side of a point than s_j - s_i does of t
    rng = np.random.default_rng(0)
    side = "left" if inside is np.less else "right"
    misplaced = 0
    for scale in 10.0 ** np.arange(-3, 3):
        s = np.sort(rng.uniform(0.0, scale, 300))
        s[100:140] = s[100]  # a run of equal points
        diffs = np.subtract.outer(s, s).T  # [i, j] = fl(s_j - s_i)
        upper = np.triu(np.ones(diffs.shape, bool), 1)
        for t in np.abs(rng.choice(s, 50) - rng.choice(s, 50)):
            want = np.arange(1, 301) + np.sum(inside(diffs, t) & upper, 1)
            assert np.array_equal(kernels._row_ends(s, t, inside), want)
            naive = np.searchsorted(s, s + t, side)
            misplaced += np.any(np.maximum(naive, np.arange(1, 301)) != want)
    assert misplaced > 0  # rounding moved some row ends


def _brute_row_diffs(s, start, stop):
    return np.concatenate([np.empty(0)] + [s[a:b] - s[i] for i, (a, b)
                                          in enumerate(zip(start, stop))])


@pytest.mark.parametrize("s, start, stop", [
    # empty rows at the start, in the middle and at the end
    (np.arange(6.0) ** 2 / 7, [1, 2, 3, 4, 5, 6], [1, 5, 3, 6, 5, 6]),
    (np.arange(6.0) ** 2 / 7, [1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6]),
    (np.array([2.5]), [0], [1]),
    (np.array([2.5]), [1], [1]),
    (np.array([-1.0, 0.1, 0.3]), [1, 3, 3], [3, 3, 3]),
], ids=["empty-rows", "every-row-empty", "one-row", "one-empty-row",
        "one-held-row"])
def test_row_diffs_equal_the_row_slices(s, start, stop):
    start, stop = np.array(start), np.array(stop)
    diffs = kernels._row_diffs(s, start, stop)
    assert diffs.dtype == float
    assert np.array_equal(diffs, _brute_row_diffs(s, start, stop))


def test_row_diffs_equal_the_row_slices_on_random_rows():
    rng = np.random.default_rng(7)
    for n in (2, 3, 17, 300):
        s = np.sort(rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n))
        start = rng.integers(np.arange(1, n + 1), n + 1)
        stop = rng.integers(start, n + 1)
        assert np.array_equal(kernels._row_diffs(s, start, stop),
                              _brute_row_diffs(s, start, stop))


@pytest.mark.parametrize("n, m", [(301, 150), (2000, 250)])
def test_ties_at_the_bracket_ends_are_counted_not_formed(monkeypatch, n, m):
    # two equal clusters: every pair distance is 0 or 1, so the sample's
    # bracket is [0, 1] and holds every pair, all of them at its ends;
    # the middle ranks are read off the counts, and no pair is formed;
    # only the m-point samples' squares are ranked
    x = np.r_[np.zeros(n // 2), np.ones(n - n // 2)][:, None]
    counts = _square_ranks_calls(monkeypatch)
    formed = []
    monkeypatch.setattr(kernels, "_row_diffs",
                        lambda *a: formed.append(a) or None)
    med, k = median_gram(x)
    assert med == median_heuristic(x) == dense_median_heuristic(x) == 1.0
    assert np.array_equal(k, dense_gaussian_gram(med, x, x))
    assert counts == [m, m] and formed == []


@pytest.mark.parametrize("n, seed, m", [(257, 42, 128), (700, 14, 233)])
def test_a_half_zero_sample_that_misses_ranks_every_pair(monkeypatch, n,
                                                         seed, m):
    # half the points at 0: each other point's distance recurs once per
    # zero, and in the m-point sample about m / 2 times, so a lump of
    # ties as wide as the bracket's margin lies across the middle
    x = np.r_[np.zeros(n // 2),
              np.random.default_rng(seed).standard_normal(n - n // 2)]
    counts = _square_ranks_calls(monkeypatch)
    med, k = median_gram(x)
    assert med == dense_median_heuristic(x[:, None])
    assert np.array_equal(k, dense_gaussian_gram(med, x[:, None], x[:, None]))
    assert counts == [m, n]


@pytest.mark.parametrize("forced", [
    lambda pairs: [0, 1],                  # misses from below
    lambda pairs: [pairs - 2, pairs - 1],  # misses from above
    lambda pairs: [1, pairs - 2],          # holds too many pairs
], ids=["below", "above", "too-wide"])
def test_a_bracket_forced_to_miss_ranks_every_pair(monkeypatch, forced):
    # the bracket is forced to the sample's smallest or largest pair
    # distances, where it misses the middle ranks of normal points, or
    # to nearly all of them, more than the n^2 / 3 pairs it may hold
    x = np.random.default_rng(4).standard_normal((1000, 1))
    counts = _square_ranks_calls(monkeypatch, forced)
    med, k = median_gram(x)
    assert med == dense_median_heuristic(x)
    assert np.array_equal(k, dense_gaussian_gram(med, x, x))
    assert counts == [250, 1000]


@given(st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=8, unique=True),
       st.floats(0.3, 3.0))
def test_gaussian_gram_positive_semidefinite(xs, sigma):
    k = gram(KernelSpec(kind="gaussian", sigma=sigma), xs, xs)
    eigs = np.linalg.eigvalsh(0.5 * (k + k.T))
    assert float(eigs.min()) > -1e-8


def dense_sq_dists(x, y):
    """The whole-matrix squared distances: differences at d = 1, the
    clipped product formula at d > 1."""
    if x.shape[1] == 1:
        diffs = np.subtract.outer(x[:, 0], y[:, 0])
        return np.square(diffs, out=diffs)
    sq = (np.sum(x ** 2, axis=1)[:, None] + np.sum(y ** 2, axis=1)[None, :]
          - 2.0 * (x @ y.T))
    return np.maximum(sq, 0.0)


def dense_gaussian_gram(sigma, x, y):
    """The whole-matrix formula gram must reproduce bit for bit, in place
    to spare memory: exp(-sq / (2 sigma^2)) rounds the same out of place."""
    sq = dense_sq_dists(x, y)
    np.negative(sq, out=sq)
    np.divide(sq, 2.0 * sigma ** 2, out=sq)
    return np.exp(sq, out=sq)


def dense_median_heuristic(pts):
    """The whole-matrix formula median_heuristic must reproduce bit for bit."""
    sq = dense_sq_dists(pts, pts)
    return float(np.median(np.sqrt(sq[np.triu(np.ones(sq.shape, bool), 1)])))


@pytest.mark.parametrize("n, d", [(n, d) for d in (1, 2, 3)
                                  for n in (2, 3, 4, 63, 64, 65, 333)]
                         + [(257, 1), (2000, 1), (4000, 1)])
def test_row_blocks_match_dense_formulas_bit_for_bit(n, d):
    # pair counts n(n-1)/2: 1, 3, 1953 and 1999000 are odd; 6, 2016,
    # 2080, 55278, 32896 and 7998000 are even; from 257 1-d points on,
    # the median is selected within a bracket
    rng = np.random.default_rng(100 * n + d)
    x = rng.standard_normal((n, d)) * 3.0
    x[: n // 4] = np.round(x[: n // 4], 1)  # repeated distances
    y = rng.standard_normal((n // 2 + 7, d))
    sigma = float(rng.uniform(0.1, 2.0))
    spec = KernelSpec(kind="gaussian", sigma=sigma)
    assert median_heuristic(x) == dense_median_heuristic(x)
    assert np.array_equal(gram(spec, x, x), dense_gaussian_gram(sigma, x, x))
    assert np.array_equal(gram(spec, x, y), dense_gaussian_gram(sigma, x, y))
    assert np.array_equal(gram(spec, y, x), dense_gaussian_gram(sigma, y, x))
    # one distance pass gives the median sigma and its Gram unchanged
    med, k = median_gram(x)
    assert med == median_heuristic(x)
    assert np.array_equal(k, gram(KernelSpec(kind="gaussian", sigma=med), x, x))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6])
def test_polynomial_gram_matches_dense_formula_bit_for_bit(degree, d):
    # the Gram is formed in place; it must round exactly as the
    # whole-matrix formula
    rng = np.random.default_rng(10 * degree + d)
    x = rng.standard_normal((101, d)) * 3.0
    y = rng.standard_normal((37, d))
    for offset in (1.0, 0.0, 2.5):
        spec = KernelSpec(kind="polynomial", degree=degree, offset=offset)
        assert np.array_equal(gram(spec, x, y), (offset + x @ y.T) ** degree)


def _map_of(a: np.ndarray):
    """The memory map of its own that holds a's memory, or None."""
    while isinstance(a, np.ndarray):
        a = a.base
    if isinstance(a, memoryview) and isinstance(a.obj, mmap.mmap):
        return a.obj
    return None


def _is_mapped(a: np.ndarray) -> bool:
    """Whether a's memory is a memory map of its own."""
    return _map_of(a) is not None


def _peak_bytes(f, monkeypatch):
    """Peak bytes of f: tracemalloc's peak plus every byte kernels maps
    while f runs.  tracemalloc does not see the maps, so each counts as
    live at the peak."""
    mapped = []
    empty = kernels._empty

    def counted(shape):
        a = empty(shape)
        if _is_mapped(a):
            mapped.append(a.nbytes)
        return a

    monkeypatch.setattr(kernels, "_empty", counted)
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1] + sum(mapped)
    finally:
        tracemalloc.stop()


def test_large_inputs_build_one_square_array(monkeypatch):
    # the dense formulas peak at about three n x n arrays; row blocks keep
    # gram to its output and median_gram to its Gram, formed once the
    # 1-d median's scratch is freed; the 1-d median_heuristic forms only
    # the bracketed differences and a sample's square, O(n) at this n
    n = 2000
    x = np.random.default_rng(0).standard_normal((n, 1))
    square = n * n * 8
    assert _peak_bytes(lambda: median_heuristic(x), monkeypatch) < 0.05 * square
    assert _peak_bytes(lambda: median_gram(x), monkeypatch) < 1.25 * square
    spec = KernelSpec(kind="gaussian", sigma=0.5)
    assert _peak_bytes(lambda: gram(spec, x, x), monkeypatch) < 1.25 * square


def _live_peak_bytes(f, monkeypatch):
    """tracemalloc's peak while f runs plus the most bytes kernels holds
    mapped at one time: a map counts from when _empty makes it until it
    is unmapped, when its last view is dropped."""
    live = [0, 0]  # mapped bytes now, and at most
    empty = kernels._empty

    def unmapped(nbytes):
        live[0] -= nbytes

    def counted(shape):
        a = empty(shape)
        if _is_mapped(a):
            live[0] += a.nbytes
            live[1] = max(live)
            weakref.finalize(_map_of(a), unmapped, a.nbytes)
        return a

    monkeypatch.setattr(kernels, "_empty", counted)
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1] + live[1]
    finally:
        tracemalloc.stop()


def test_a_missed_bracket_keeps_one_square_array_live(monkeypatch):
    # the bracket is forced to miss, so the 1-d median ranks every pair
    # in an n x n square; median_gram frees it before the Gram is formed
    n = 2000
    x = np.random.default_rng(4).standard_normal((n, 1))
    counts = _square_ranks_calls(monkeypatch, lambda pairs: [0, 1])
    peak = _live_peak_bytes(lambda: median_gram(x), monkeypatch)
    assert counts == [250, n]
    assert peak < 1.25 * n * n * 8


@pytest.mark.skipif(not hasattr(mmap, "MAP_PRIVATE"),
                    reason="arrays are mapped only where mmap has MAP_PRIVATE")
def test_large_grams_are_mapped_and_round_as_heap_arrays(monkeypatch):
    # a Gram of MAPPED_BYTES or more lives in a memory map of its own, so
    # dropping it returns its pages; the map changes no bit
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1000, 2))
    y = rng.standard_normal((600, 2))
    assert x.shape[0] * y.shape[0] * 8 >= kernels.MAPPED_BYTES
    specs = [KernelSpec(kind="gaussian", sigma=0.7),
             KernelSpec(kind="polynomial", degree=3, offset=0.5)]
    mapped = [gram(spec, x, y) for spec in specs] + list(median_gram(x)[1:])
    med = median_heuristic(x)
    assert all(_is_mapped(k) for k in mapped)
    assert not _is_mapped(gram(specs[0], x[:10], y))

    monkeypatch.setattr(kernels, "MAPPED_BYTES", np.inf)
    heap = [gram(spec, x, y) for spec in specs] + list(median_gram(x)[1:])
    assert not any(_is_mapped(k) for k in heap)
    assert median_heuristic(x) == med
    for k_mapped, k_heap in zip(mapped, heap):
        assert np.array_equal(k_mapped, k_heap)
    assert np.array_equal(mapped[0], dense_gaussian_gram(0.7, x, y))


def _gram_blocks(monkeypatch):
    """The shapes of the Grams kernels.gram forms while the test runs."""
    shapes = []
    inner = kernels.gram

    def spy(spec, x, y, out=None):
        k = inner(spec, x, y, out=out)
        shapes.append(k.shape)
        return k

    monkeypatch.setattr(kernels, "gram", spy)
    return shapes


GRAM_DOT_SPECS = [KernelSpec(kind="gaussian", sigma=0.6),
                  KernelSpec(kind="polynomial", degree=5, offset=0.5)]


@pytest.mark.parametrize("spec", GRAM_DOT_SPECS, ids=lambda s: s.kind)
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 1000, 2001])
def test_gram_dot_is_the_gram_product_one_block_at_a_time(n, d, spec,
                                                          monkeypatch):
    rng = np.random.default_rng(10 * n + d)
    x = rng.standard_normal((n, d))
    y = rng.standard_normal((700, d))
    c = rng.standard_normal(len(y))
    whole = gram(spec, x, y) @ c
    shapes = _gram_blocks(monkeypatch)
    got = gram_dot(spec, x, y, c)
    assert got.shape == (n,)
    # 700 columns give blocks of 128 rows: 128 * 700 * 8 bytes < 1 MiB
    assert all(rows <= 128 for rows, _ in shapes)
    assert all(rows * cols * 8 < kernels.MAPPED_BYTES // 4
               for rows, cols in shapes)
    if n <= 128:  # one block: the same gemv on the same rows
        assert np.array_equal(got, whole)
    else:
        scale = np.max(np.abs(whole))
        assert np.max(np.abs(got - whole)) <= 1e-14 * scale


@pytest.mark.parametrize("cols, rows", [(2000, 64), (200, 640), (700, 128),
                                        (5000, 64), (1, 131008)])
def test_gram_dot_blocks_are_multiples_of_dist_rows_under_a_quarter_map(
        cols, rows, monkeypatch):
    x = np.linspace(-1.0, 1.0, 2 * rows + 1)
    y = np.linspace(-1.0, 1.0, cols)
    shapes = _gram_blocks(monkeypatch)
    gram_dot(KernelSpec(kind="gaussian", sigma=0.5), x, y, np.ones(cols))
    assert [r for r, _ in shapes] == [rows, rows, 1]
    assert rows % kernels.DIST_ROWS == 0
    assert rows == kernels.DIST_ROWS or rows * cols * 8 < kernels.MAPPED_BYTES // 4


def test_gram_dot_checks_its_arguments_also_for_no_rows():
    spec = KernelSpec(kind="gaussian", sigma=1.0)
    with pytest.raises(ValueError, match="mismatched dimensions"):
        gram_dot(spec, np.zeros((0, 1)), np.zeros((3, 2)), np.ones(3))
    with pytest.raises(ValueError, match="resolved by fitting"):
        gram_dot(KernelSpec(kind="gaussian", sigma=MEDIAN), [], [0.0], [1.0])
    with pytest.raises(ValueError):
        gram_dot(spec, np.zeros((5, 1)), np.zeros((3, 1)), np.ones(4))
