"""Experiment drivers at reduced sizes: shapes, invariants, and the
error integrals they report."""
import numpy as np
import pytest

from ratioloss import (builtin_generator, default_pair, figure1, figure2,
                       figure3, figures)
from ratioloss.figures import FIGURE1_FAMILIES
from ratioloss.generators import parse_family
from ratioloss.synth import gaussian_pair


def _assert_kkt(name, pf, quad_nodes):
    """The fit is converged and meets the optimality conditions of
    min over t2 >= 0: t2 >= 0, and the divergence's t2 slope, summed
    here independently of the fit, is >= 0 where t2 = 0."""
    gen = builtin_generator(*parse_family(name))
    t1, t2 = pf.theta
    assert pf.status == "converged"
    assert t2 >= 0.0
    if t2 == 0.0:
        slope = 0.0
        for xs, w, p_level, q_level in default_pair().pieces(quad_nodes):
            bh = t1 * xs ** 2
            dd = w * gen.phi2(bh) * (bh - p_level / q_level)
            slope += q_level * float(np.sum(dd[bh > gen.domain_eps]))
        assert slope >= 0.0


def test_figure1_reduced():
    res = figure1(quad_nodes=201, max_iter=150)
    assert set(res["fits"]) == set(FIGURE1_FAMILIES)
    for name in FIGURE1_FAMILIES:
        _assert_kkt(name, res["fits"][name], 201)
        assert res["sup_errors"][name] > 0.0


# the divergences these fits reached under a softplus intercept and BFGS
F_SOFTPLUS = {"lr": 0.12160077399726046, "kulsif": 1.509463093188219,
              "poly1": 7.402663364407468, "poly6": 137525.75859317818,
              "ew": 23427343.426859148}


def test_population_fits_converge_at_their_defaults():
    # fig1's five fits and fig3's two (same defaults, small regression)
    fits = list(figure1()["fits"].items()) + list(figure3(
        n_src=20, l2_nodes=101)["population_fits"].items())
    assert len(fits) == 7
    for name, pf in fits:
        _assert_kkt(name, pf, 2001)
        f_old = F_SOFTPLUS[name]
        assert pf.divergence <= f_old + 1e-12 * max(1.0, abs(f_old)), name


def test_figure2_reduced():
    res = figure2(seed=0, sizes=(10,), alphas=(1e-2,), n_seeds=2,
                  grid_n=41, max_iter=60)
    assert len(res["cells"]) == 2
    for cell in res["cells"]:
        assert cell.curve.shape == (41,)
        assert len(cell.max_abs) == 2
        assert cell.median_max_abs == pytest.approx(
            float(np.median(cell.max_abs)))
    _, exact = gaussian_pair()
    assert np.allclose(res["exact_beta"], exact(res["grid"]))


def test_figure2_counts_unconverged_fits():
    # capped at 6 Newton steps, three of the four ew fits on 5 + 5
    # points stop at max_iter at alpha 1e-6 and none at 1e-2;
    # closed-form kulsif fits never count
    res = figure2(seed=0, sizes=(10,), alphas=(1e-6, 1e-2), n_seeds=4,
                  grid_n=21, max_iter=6)
    assert [(c.family, c.alpha, c.unconverged) for c in res["cells"]] == [
        ("kulsif", 1e-6, 0), ("kulsif", 1e-2, 0),
        ("ew", 1e-6, 3), ("ew", 1e-2, 0)]


def test_figure2_replicates_differ():
    res = figure2(seed=0, sizes=(10,), alphas=(1e-2,), n_seeds=2,
                  families=("kulsif",), grid_n=21, max_iter=40)
    maxima = res["cells"][0].max_abs
    assert maxima[0] != maxima[1]


def test_figure3_reduced():
    res = figure3(seed=0, n_src=60, quad_nodes=201,
                  max_iter=150, l2_nodes=501)
    for key in ("uniform", "exact", "ew", "lr"):
        assert key in res["weightings"]
        assert np.all(res["weightings"][key] >= 0.0)
        assert res["l2p_sq"][key] > 0.0
        assert res["l2q_sq"][key] > 0.0
    assert res["l2p_sq"]["uniform"] != res["l2p_sq"]["exact"]
    grid = np.linspace(-1.0, 1.0, 11)
    for key in ("uniform", "exact", "ew", "lr"):
        assert np.all(np.isfinite(res["predictors"][key](grid)))


def test_l2_integral_of_constant_offset(monkeypatch):
    # each density integrates to one, so a target one below the "exact"
    # predictor gives it squared error one under P and Q, and a target
    # equal to it gives zero
    kw = dict(seed=0, n_src=60, quad_nodes=201, max_iter=150, l2_nodes=501)
    predict = figure3(**kw)["predictors"]["exact"]
    for offset, expected, tol in ((1.0, 1.0, 1e-12), (0.0, 0.0, 1e-15)):
        monkeypatch.setattr(figures, "target_function",
                            lambda xs, o=offset: predict(xs) + o)
        res = figure3(**kw)
        assert res["l2p_sq"]["exact"] == pytest.approx(expected, abs=tol)
        assert res["l2q_sq"]["exact"] == pytest.approx(expected, abs=tol)
