"""The identity suite itself: every group passes with margin, reports
carry the right structure, and a broken loss is actually caught."""
import dataclasses

import numpy as np
import pytest

from ratioloss import (CHECK_GROUPS, builtin_generator, checks,
                       construct_loss, exp_ratio_map, family_loss, run_all)

from oracles import properness_residuals

# regression guards: the observed residuals sit orders of magnitude
# below the advertised tolerances, and seeds are fixed, so tightened
# bounds catch silent numerical drift
HEADROOM_BOUNDS = {
    "excess-risk": 1e-12,
    "convexity": 1e-10,
    "weight-representation": 1e-9,
    "shuford-weight": 1e-12,
    "savage-regret": 5e-9,
    "diamond-transform": 1e-12,
    "affine-invariance": 1e-13,
}
# the convexity group's slack part has a bound of its own, in units of
# 1/x: klest's lower slack is exactly 0 (ell_neg is linear) and rounds
# to one ulp of the 1/x it is formed from, 4.1e-16 once scaled by x;
# HEADROOM_BOUNDS["convexity"] guards the second differences
CONVEXITY_SLACK_BOUND = 1e-14


def test_run_all_passes_with_headroom():
    report = run_all(seed=0)
    assert report["passed"]
    assert len(report["groups"]) == len(CHECK_GROUPS)
    for g in report["groups"]:
        assert g["passed"], g
        if g["group"] == "convexity":
            assert g["detail"]["fd_violation"] <= HEADROOM_BOUNDS["convexity"]
            assert g["detail"]["slack_violation"] <= CONVEXITY_SLACK_BOUND
        else:
            assert g["max_residual"] <= HEADROOM_BOUNDS[g["group"]], g
        assert g["cases"] > 0


@pytest.mark.parametrize("seed", [1, 7])
def test_run_all_other_seeds(seed):
    assert run_all(seed=seed)["passed"]


def test_report_structure():
    for name, fn in CHECK_GROUPS.items():
        g = fn() if name == "convexity" else fn(seed=3)
        assert set(g) >= {"group", "max_residual", "tolerance", "cases",
                          "passed"}
        assert g["group"] == name


@pytest.mark.parametrize("name", ["lr", "kulsif", "ew"])
def test_builtin_losses_are_proper(name):
    loss = family_loss(name)
    res = properness_residuals(loss, [0.2, 0.5, 0.8])
    # observed residuals stay below 4e-9 even on the nearly flat ew risk
    # at eta = 0.8; an improper loss produces residuals above 1e-2
    assert float(np.max(res)) < 1e-7


def test_improper_loss_is_detected():
    # scaling one partial loss destroys properness: the risk minimizer
    # moves away from the link and the residual jumps by orders
    loss = family_loss("lr")
    broken = dataclasses.replace(
        loss,
        ell_pos=lambda y: 1.5 * loss.ell_pos(y),
        ell_pos1=lambda y: 1.5 * loss.ell_pos1(y))
    res = properness_residuals(broken, [0.3, 0.6])
    assert float(np.min(res)) > 1e-2


def test_a_nan_case_fails_its_group(monkeypatch):
    # one NaN among finite residuals: the report carries NaN and fails,
    # where a running max(worst, r) would drop it and pass
    real = checks.weight_representation
    calls = []

    def first_call_nan(*args, **kwargs):
        calls.append(None)
        return np.nan if len(calls) == 1 else real(*args, **kwargs)

    monkeypatch.setattr(checks, "weight_representation", first_call_nan)
    g = checks.check_weight_representation(seed=0, n_cases=5)
    assert np.isnan(g["max_residual"])
    assert not g["passed"]
    assert g["cases"] == 5 * len(checks.CHECK_FAMILIES)


def test_a_nan_slack_fails_convexity(monkeypatch):
    real = checks.convexity_margin

    def nan_slack(gen, rmap, x):
        lower, upper = real(gen, rmap, x)
        lower = lower.copy()
        lower[0] = np.nan
        return lower, upper

    monkeypatch.setattr(checks, "convexity_margin", nan_slack)
    g = checks.check_convexity()
    assert not g["passed"]
    assert np.isnan(g["max_residual"])
    assert np.isnan(g["detail"]["slack_violation"])
    assert g["detail"]["fd_violation"] <= 1e-8


def test_a_nan_second_difference_fails_convexity(monkeypatch):
    def nan_neg_loss(*args, **kwargs):
        loss = family_loss(*args, **kwargs)
        return dataclasses.replace(loss, ell_neg=lambda y: np.nan * y)

    monkeypatch.setattr(checks, "family_loss", nan_neg_loss)
    g = checks.check_convexity()
    assert not g["passed"]
    assert np.isnan(g["max_residual"])
    assert np.isnan(g["detail"]["fd_violation"])
    assert g["detail"]["slack_violation"] <= CONVEXITY_SLACK_BOUND
    assert g["cases"] == 8 * 400 + 8 * 2 * 60


def test_convexity_passes_on_a_grid_from_1e_7(monkeypatch):
    # from x = 1e-7 the unscaled slack of klest rounds to -1.86e-9, one
    # ulp of 1/x = 1e7, and failed the 1e-9 tolerance by rounding alone;
    # scaled by x it reads 3.3e-16
    monkeypatch.setattr(checks, "CONVEXITY_GRID", (1e-7, 50.0, 400))
    g = checks.check_convexity()
    assert g["passed"], g
    assert g["detail"]["slack_violation"] <= CONVEXITY_SLACK_BOUND
    assert g["cases"] == 8 * 400 + 8 * 2 * 60


def test_convexity_certifies_each_familys_own_ratio_map(monkeypatch):
    # kulsif through the exponential map: middle(x) = 1/x, so the upper
    # slack -1/x fails, where kulsif's canonical map would pass
    def kulsif_exp(name, k=None):
        if name != "kulsif":
            return family_loss(name, k)
        return construct_loss(builtin_generator("kulsif"), exp_ratio_map())

    monkeypatch.setattr(checks, "family_loss", kulsif_exp)
    g = checks.check_convexity()
    assert g["detail"]["slack_violation"] > 0.0
    assert not g["passed"]
