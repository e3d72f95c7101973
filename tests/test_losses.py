"""Composite losses: closed forms, the concave-potential oracle,
properness structure, and convexity certificates."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ratioloss import (CertificationError, DiscretePair, RatioMap,
                       bayes_risk, builtin_generator, canonical_ratio_map,
                       conditional_risk, construct_loss, convexity_margin,
                       excess_risk_identity_check, exp_ratio_map, family_loss,
                       shuford_weight)
from ratioloss.generators import parse_family

from oracles import gamma_funcs, reid_convexity_margins

FAMILIES = ["kulsif", "lr", "klest", "boost", "poly1", "poly6", "ew"]

# score intervals on which every family's composition is comfortably
# inside its domain (ratios in roughly [0.2, 4])
SCORE_RANGES = {
    "kulsif": (0.2, 4.0),
    "lr": (np.log(0.2), np.log(4.0)),
    "klest": (0.2, 4.0),
    "boost": (0.5 * np.log(0.2), 0.5 * np.log(4.0)),
    "poly1": (0.02, 8.0),
    "poly6": (1e-5, 18.0),
    "ew": (np.exp(0.4) / 2.0, np.exp(4.0) / 2.0),
}


def make_loss(label, c1=0.0, c2=0.0):
    name, k = parse_family(label)
    return family_loss(name, k=k, c1=c1, c2=c2)


def score_grid(name, n=23):
    lo, hi = SCORE_RANGES[name]
    return np.linspace(lo, hi, n)


# ------------------------------------------------------------ closed forms

def test_kulsif_partial_losses():
    loss = make_loss("kulsif")
    y = np.linspace(-2.0, 5.0, 29)
    assert np.allclose(loss.ell_pos(y), 1.0 - y, atol=1e-14)
    assert np.allclose(loss.ell_neg(y), 0.5 * (y ** 2 - 1.0), atol=1e-14)


def test_lr_partial_losses_are_softplus():
    loss = make_loss("lr")
    y = np.linspace(-4.0, 4.0, 33)
    assert np.allclose(loss.ell_pos(y), np.logaddexp(0.0, -y), atol=1e-12)
    assert np.allclose(loss.ell_neg(y), np.logaddexp(0.0, y), atol=1e-12)


def test_klest_partial_losses():
    loss = make_loss("klest")
    y = np.linspace(0.1, 5.0, 25)
    assert np.allclose(loss.ell_pos(y), -np.log(y), atol=1e-12)
    assert np.allclose(loss.ell_neg(y), y, atol=1e-15)


def test_klest_denominator_loss_extends_linearly():
    # the y phi'(y) - phi(y) = y simplification is installed as an exact
    # linear function, valid below zero where raw scores may wander
    loss = make_loss("klest")
    y = np.array([-3.0, -0.5, 0.0, 2.0])
    assert np.array_equal(loss.ell_neg(y), y)
    assert np.array_equal(loss.ell_neg1(y), np.ones(4))


def test_boost_partial_losses_are_exponential():
    loss = make_loss("boost")
    y = np.linspace(-2.0, 2.0, 21)
    assert np.allclose(loss.ell_pos(y), 2.0 * np.exp(-y), rtol=1e-12)
    assert np.allclose(loss.ell_neg(y), 2.0 * np.exp(y), rtol=1e-12)


def test_ew_partial_losses():
    loss = make_loss("ew")
    y = np.linspace(0.05, 6.0, 31)
    assert np.allclose(loss.ell_pos(y), -y, atol=1e-14)
    assert np.allclose(loss.ell_neg(y), 0.5 * y * (np.log(2.0 * y) - 1.0),
                       atol=1e-12)
    # slope of the Legendre form is the inverse map; zero exactly at 1/2
    assert float(loss.ell_neg1(np.array(0.5))) == pytest.approx(0.0, abs=1e-15)
    assert float(loss.ell_neg(np.array(0.5))) == pytest.approx(-0.25, abs=1e-15)


def test_poly1_partial_losses():
    loss = make_loss("poly1")
    y = np.array([0.5, 2.0])
    assert np.allclose(loss.ell_pos(y), -y, atol=1e-14)
    assert np.allclose(loss.ell_neg(y), (2.0 * y) ** 1.5 / 3.0, rtol=1e-12)


# --------------------------------------------- concave-potential oracle

@pytest.mark.parametrize("name", FAMILIES)
@pytest.mark.parametrize("c1,c2", [(0.0, 0.0), (0.7, -1.3)])
def test_partial_losses_match_potential_oracle(name, c1, c2):
    # independent reconstruction: ell_pos = gamma + (1 - eta) gamma' and
    # ell_neg = gamma - eta gamma' at eta = inv_link(score)
    loss = make_loss(name, c1=c1, c2=c2)
    gamma, gamma1 = gamma_funcs(loss.generator, c1=c1, c2=c2)
    y = score_grid(name)
    eta = loss.inv_link(y)
    want_pos = gamma(eta) + (1.0 - eta) * gamma1(eta)
    want_neg = gamma(eta) - eta * gamma1(eta)
    scale = np.maximum(1.0, np.abs(want_pos))
    assert np.max(np.abs(loss.ell_pos(y) - want_pos) / scale) < 1e-9
    scale = np.maximum(1.0, np.abs(want_neg))
    assert np.max(np.abs(loss.ell_neg(y) - want_neg) / scale) < 1e-9


@pytest.mark.parametrize("name", FAMILIES)
def test_first_derivatives_match_finite_differences(name):
    loss = make_loss(name)
    y = score_grid(name, n=11)
    if name == "poly6":
        # central differences need h well below the curvature scale
        # y^(6/7), so keep the probes away from the domain edge
        y = np.linspace(0.05, SCORE_RANGES[name][1], 11)
    h = 1e-6 * np.maximum(1.0, np.abs(y))
    for ell, ell1 in ((loss.ell_pos, loss.ell_pos1),
                      (loss.ell_neg, loss.ell_neg1)):
        num = (ell(y + h) - ell(y - h)) / (2.0 * h)
        assert np.max(np.abs(num - ell1(y)) / np.maximum(1.0, np.abs(num))) < 1e-7


@pytest.mark.parametrize("name", FAMILIES)
def test_partial_losses_match_their_slopes_on_a_wide_score_grid(name):
    # scores far past every domain floor and cap, offset from the floors'
    # kinks: lr's composed ell_neg cancelled to 0 from y ~ 36 and boost's
    # composed ell_pos was flat below -13.8 while both slopes held
    loss = make_loss(name)
    y = -59.95 + 0.1 * np.arange(1200)
    h = 1e-5
    for ell, ell1 in ((loss.ell_pos, loss.ell_pos1),
                      (loss.ell_neg, loss.ell_neg1)):
        fd = (ell(y + h) - ell(y - h)) / (2.0 * h)
        slope = ell1(y)
        assert np.all(np.abs(fd - slope) <= 1e-6 * np.maximum(1.0, np.abs(slope)))


# ------------------------------------------------------- link structure

@pytest.mark.parametrize("name", FAMILIES)
def test_link_inverts_inv_link(name):
    loss = make_loss(name)
    y = score_grid(name)
    back = loss.link(loss.inv_link(y))
    assert np.max(np.abs(back - y) / np.maximum(1.0, np.abs(y))) < 1e-9


def test_lr_link_is_the_logit():
    loss = make_loss("lr")
    assert float(loss.link(0.5)) == pytest.approx(0.0, abs=1e-12)
    assert float(loss.link(0.75)) == pytest.approx(np.log(3.0), abs=1e-12)
    # both partial losses are log 2 at the score of an even ratio
    assert float(loss.ell_pos(0.0)) == pytest.approx(np.log(2.0))
    assert float(loss.ell_neg(0.0)) == pytest.approx(np.log(2.0))


def test_ratio_map_chain_derivatives():
    rmap = exp_ratio_map(1.0)
    assert float(rmap.g1(0.3)) == pytest.approx(np.exp(0.3), rel=1e-12)
    with pytest.raises(ValueError):
        exp_ratio_map(0.0)


def test_non_canonical_construction():
    # kulsif generator scored through an exponential map
    loss = construct_loss(builtin_generator("kulsif"), exp_ratio_map(1.0))
    y = np.linspace(-1.0, 1.5, 11)
    assert np.allclose(loss.ell_pos(y), -np.expm1(y), atol=1e-12)
    b = np.exp(y)
    assert np.allclose(loss.ell_neg(y), b * (b - 1.0) - 0.5 * (b - 1.0) ** 2,
                       atol=1e-12)


def test_canonical_link_is_matched_on_the_exact_exponent():
    # a poly k = 6 generator with the link of k = 6 + 1e-9 is not canonical:
    # its positive loss keeps the composed slope instead of the exact -1
    gen = builtin_generator("poly", k=6.0)
    y = np.linspace(0.5, 18.0, 9)
    canonical = construct_loss(gen, canonical_ratio_map(gen))
    assert canonical.ratio_map.is_canonical_for(gen)
    assert np.all(canonical.ell_pos1(y) == -1.0)
    near = canonical_ratio_map(builtin_generator("poly", k=6.0 + 1e-9))
    assert not near.is_canonical_for(gen)
    slope = construct_loss(gen, near).ell_pos1(y)
    assert np.all(slope != -1.0)
    assert np.max(np.abs(slope + 1.0)) < 1e-8


def test_canonical_link_is_matched_on_the_generator_not_its_name():
    # kulsif renamed to poly k = 0 has phi' = x - 1, not x: its link
    # sends y to y + 1, where poly k = 0's positive loss is -(y + 1)
    impostor = dataclasses.replace(builtin_generator("kulsif"), name="poly")
    loss = construct_loss(builtin_generator("poly", k=0.0),
                          canonical_ratio_map(impostor))
    y = np.linspace(0.5, 18.0, 9)
    assert np.allclose(loss.ell_pos(y), -(y + 1.0), rtol=0.0, atol=1e-12)


def test_canonical_link_needs_a_closed_form_inverse():
    stripped = dataclasses.replace(builtin_generator("lr"), inverse_phi1=None)
    with pytest.raises(ValueError, match="generator 'lr' has no inverse_phi1"):
        canonical_ratio_map(stripped)


# -------------------------------------------------- properness calculus

def test_shuford_weight_known_values():
    # at eta = 1/2 the ratio is 1: w = phi''(1) * 8
    assert shuford_weight(make_loss("lr"), 0.5) == pytest.approx(4.0, rel=1e-9)
    assert shuford_weight(make_loss("kulsif"), 0.5) == pytest.approx(8.0, rel=1e-9)
    with pytest.raises(ValueError):
        shuford_weight(make_loss("lr"), 0.0)


def test_shuford_weight_rejects_inconsistent_partials():
    loss = make_loss("lr")
    broken = dataclasses.replace(
        loss, ell_pos1=lambda y: 2.0 * loss.ell_pos1(y))
    with pytest.raises(CertificationError):
        shuford_weight(broken, 0.4)


@pytest.mark.parametrize("name", FAMILIES)
def test_bayes_risk_is_the_lower_envelope(name):
    loss = make_loss(name)
    y = score_grid(name, n=9)
    for eta in (0.2, 0.5, 0.8):
        br = bayes_risk(loss, eta)
        for yhat in y:
            assert conditional_risk(loss, eta, float(yhat)) >= br - 1e-10


def test_risk_eta_validation():
    loss = make_loss("lr")
    with pytest.raises(ValueError):
        conditional_risk(loss, 1.5, 0.0)
    with pytest.raises(ValueError):
        bayes_risk(loss, -0.1)


# ------------------------------------------------- convexity certificates

def test_convexity_margin_flags_bad_map():
    # g_inv = -1/x is increasing but pushes the middle term to 2/x,
    # violating the upper condition everywhere
    gen = builtin_generator("kulsif")
    bad = RatioMap(
        g=lambda y: -1.0 / np.asarray(y, dtype=float),
        g_inv=lambda x: -1.0 / np.asarray(x, dtype=float),
        g_inv1=lambda x: 1.0 / np.asarray(x, dtype=float) ** 2,
        g_inv2=lambda x: -2.0 / np.asarray(x, dtype=float) ** 3)
    lower, upper = convexity_margin(gen, bad, 1.0)
    assert float(lower) == pytest.approx(3.0, abs=1e-12)
    assert float(upper) == pytest.approx(-2.0, abs=1e-12)
    with pytest.raises(ValueError):
        convexity_margin(gen, bad, 0.0)


@pytest.mark.parametrize("name", FAMILIES)
def test_reid_margins_nonnegative_for_builtins(name):
    loss = make_loss(name)
    etas = np.linspace(0.15, 0.85, 15)
    lower, upper = reid_convexity_margins(loss, etas)
    assert np.min(lower) > -1e-6
    assert np.min(upper) > -1e-6
    with pytest.raises(ValueError):
        reid_convexity_margins(loss, np.array([0.0, 0.5]))


@pytest.mark.parametrize("name", FAMILIES)
@given(t=st.floats(0.0, 1.0), u=st.floats(0.0, 1.0))
def test_partial_losses_convex_in_score(name, t, u):
    loss = make_loss(name)
    lo, hi = SCORE_RANGES[name]
    a = lo + t * (hi - lo)
    b = lo + u * (hi - lo)
    mid = 0.5 * (a + b)
    for ell in (loss.ell_pos, loss.ell_neg):
        la, lb, lm = float(ell(a)), float(ell(b)), float(ell(mid))
        assert lm <= 0.5 * (la + lb) + 1e-10 * max(1.0, abs(la), abs(lb))


# ----------------------------------------------------- excess-risk bridge

def test_excess_risk_identity_frozen_case():
    # uniform two-point pair, identity map, scores encoding (0.5, 1.5):
    # excess risk equals half of the 0.125 kulsif divergence
    loss = make_loss("kulsif")
    pair = DiscretePair(p=np.array([0.5, 0.5]), q=np.array([0.5, 0.5]))
    excess, half_breg = excess_risk_identity_check(loss, pair,
                                                   np.array([0.5, 1.5]))
    assert excess == pytest.approx(0.0625, abs=1e-14)
    assert half_breg == pytest.approx(0.0625, abs=1e-14)


def test_excess_risk_identity_shape_validation():
    loss = make_loss("kulsif")
    pair = DiscretePair(p=np.array([0.5, 0.5]), q=np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        excess_risk_identity_check(loss, pair, np.array([1.0, 1.0, 1.0]))


@given(b1=st.floats(0.3, 3.0), b2=st.floats(0.3, 3.0), q1=st.floats(0.2, 0.8))
def test_excess_risk_identity_property(b1, b2, q1):
    q = np.array([q1, 1.0 - q1])
    for name in ("lr", "klest", "ew"):
        loss = make_loss(name)
        # build a pair whose true ratio is moderate, then score (b1, b2)
        p = np.array([0.5, 0.5])
        pair = DiscretePair(p=p, q=q)
        f = loss.ratio_map.g_inv(np.array([b1, b2]))
        excess, half_breg = excess_risk_identity_check(loss, pair, f)
        assert excess == pytest.approx(half_breg, abs=1e-10)


def test_shuford_weight_rejects_a_nan_partial():
    loss = make_loss("lr")
    broken = dataclasses.replace(
        loss, ell_neg1=lambda y: np.nan * np.asarray(y))
    with pytest.raises(CertificationError):
        shuford_weight(broken, 0.4)
