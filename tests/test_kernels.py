"""Kernel specs, Gram matrices, and the median bandwidth heuristic."""
import mmap
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
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


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), "wide",
                                   "Median"])
def test_gaussian_sigma_is_a_positive_number_or_median(sigma):
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
        return np.subtract.outer(x[:, 0], y[:, 0]) ** 2
    sq = (np.sum(x ** 2, axis=1)[:, None] + np.sum(y ** 2, axis=1)[None, :]
          - 2.0 * (x @ y.T))
    return np.maximum(sq, 0.0)


def dense_gaussian_gram(sigma, x, y):
    """The whole-matrix formula gram must reproduce bit for bit."""
    return np.exp(-dense_sq_dists(x, y) / (2.0 * sigma ** 2))


def dense_median_heuristic(pts):
    """The whole-matrix formula median_heuristic must reproduce bit for bit."""
    sq = dense_sq_dists(pts, pts)
    return float(np.median(np.sqrt(sq[np.triu_indices(len(pts), k=1)])))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [2, 3, 4, 63, 64, 65, 333])
def test_row_blocks_match_dense_formulas_bit_for_bit(n, d):
    # pair counts n(n-1)/2: 1, 3 and 1953 are odd; 6, 2016, 2080 and
    # 55278 are even
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


def _is_mapped(a: np.ndarray) -> bool:
    """Whether a's memory is a memory map of its own."""
    while isinstance(a, np.ndarray):
        a = a.base
    return isinstance(a, memoryview) and isinstance(a.obj, mmap.mmap)


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
    # gram to its output, median_gram to its Gram, whose front half holds
    # the n(n-1)/2 pair distances first, and the 1-d median_heuristic to
    # the pair buffer
    n = 2000
    x = np.random.default_rng(0).standard_normal((n, 1))
    square = n * n * 8
    assert _peak_bytes(lambda: median_heuristic(x), monkeypatch) < 0.6 * square
    assert _peak_bytes(lambda: median_gram(x), monkeypatch) < 1.25 * square
    spec = KernelSpec(kind="gaussian", sigma=0.5)
    assert _peak_bytes(lambda: gram(spec, x, x), monkeypatch) < 1.25 * square


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


@pytest.mark.parametrize("spec", GRAM_DOT_SPECS, ids=lambda s: s.kind)
def test_gram_dot_columns_equal_the_one_column_call(spec):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((1500, 2))
    y = rng.standard_normal((300, 2))
    cs = rng.standard_normal((len(y), 4))
    got = gram_dot(spec, x, y, cs)
    assert got.shape == (len(x), 4)
    for j in range(cs.shape[1]):
        assert np.array_equal(got[:, j], gram_dot(spec, x, y, cs[:, j]))
    assert gram_dot(spec, x[:0], y, cs).shape == (0, 4)


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
