"""Builtin Bregman generators: point values, derivative consistency,
divergence identities, and pair validation."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ratioloss import (FAMILY_NAMES, BregmanGenerator, DiscretePair,
                       bregman_term, builtin_generator, diamond_transform,
                       divergence_discrete, weight_representation)
from ratioloss.checks import CHECK_FAMILIES
from ratioloss.figures import FIGURE1_FAMILIES
from ratioloss.generators import parse_family

from oracles import derivative_consistency


# every builtin generator by its family label, poly at three exponents
GENERATOR_LABELS = [label for name in FAMILY_NAMES for label in
                    (("poly0", "poly1", "poly6") if name == "poly" else (name,))]


def all_generators():
    return [builtin_generator(*parse_family(label)) for label in GENERATOR_LABELS]


# (name, k) of each family label used by the identity suite and figure 1
LABELS = {"kulsif": ("kulsif", None), "lr": ("lr", None),
          "klest": ("klest", None), "boost": ("boost", None),
          "poly0": ("poly", 0.0), "poly1": ("poly", 1.0),
          "poly6": ("poly", 6.0), "ew": ("ew", None)}


def test_family_labels_parse_to_name_and_exponent():
    assert set(CHECK_FAMILIES) | set(FIGURE1_FAMILIES) == set(LABELS)
    for label, expected in LABELS.items():
        assert parse_family(label) == expected
        assert builtin_generator(*parse_family(label)).name == expected[0]


@pytest.mark.parametrize("label", ["", "logistic", "Poly6", "poly", "polyk"])
def test_unknown_family_label_is_rejected(label):
    with pytest.raises(ValueError):
        parse_family(label)


# hand-evaluated phi values, one spot check per family
POINT_VALUES = [
    ("kulsif", None, 3.0, 2.0, 2.0),             # (x-1)^2/2, x-1
    ("lr", None, 1.0, -2.0 * np.log(2.0), -np.log(2.0)),
    ("klest", None, 1.0, -1.0, 0.0),             # x log x - x, log x
    ("boost", None, 4.0, -8.0, -1.0),            # -4 sqrt x, -2/sqrt x
    ("poly", 2.0, 2.0, 4.0 / 3.0, 8.0 / 3.0),    # x^4/12, x^3/3
    ("ew", None, 0.5, np.e / 4.0, np.e / 2.0),   # exp(2x)/4
]


@pytest.mark.parametrize("name,k,x,phi_x,phi1_x", POINT_VALUES)
def test_generator_point_values(name, k, x, phi_x, phi1_x):
    gen = builtin_generator(name, k=k)
    assert float(gen.phi(np.array(x))) == pytest.approx(phi_x, abs=1e-14)
    assert float(gen.phi1(np.array(x))) == pytest.approx(phi1_x, abs=1e-14)


@pytest.mark.parametrize("gen", all_generators(), ids=GENERATOR_LABELS)
def test_derivatives_match_finite_differences(gen):
    grid = np.geomspace(0.1, 5.0, 25)
    assert derivative_consistency(gen, grid) < 1e-5


@pytest.mark.parametrize("gen", all_generators(), ids=GENERATOR_LABELS)
def test_inverse_phi1_round_trips(gen):
    xs = np.geomspace(0.2, 4.0, 17)
    back = gen.inverse_phi1(gen.phi1(xs))
    assert np.max(np.abs(back - xs)) < 1e-9


@pytest.mark.parametrize("gen", all_generators(), ids=GENERATOR_LABELS)
def test_second_derivative_positive(gen):
    xs = np.geomspace(1e-4, 30.0, 50)
    assert np.all(gen.phi2(xs) > 0.0)


def test_unknown_generator_rejected():
    with pytest.raises(ValueError):
        builtin_generator("hinge")
    with pytest.raises(ValueError):
        builtin_generator("poly", k=-1.0)
    with pytest.raises(ValueError):
        builtin_generator("poly")
    for k in (np.nan, np.inf):
        with pytest.raises(ValueError, match=f"finite k >= 0, got {k!r}"):
            builtin_generator("poly", k=k)


def test_two_point_kulsif_divergence():
    # quadratic generator: pointwise term is (r - rhat)^2 / 2, so both
    # support points contribute 0.125 and so does the q-average
    pair = DiscretePair(p=np.array([0.5, 0.5]), q=np.array([0.5, 0.5]))
    gen = builtin_generator("kulsif")
    d = divergence_discrete(gen, pair, np.array([0.5, 1.5]))
    assert d == pytest.approx(0.125, abs=1e-15)


def test_divergence_zero_at_truth():
    pair = DiscretePair(p=np.array([0.3, 0.7]), q=np.array([0.6, 0.4]))
    for gen in all_generators():
        assert divergence_discrete(gen, pair, pair.beta) == pytest.approx(0.0, abs=1e-12)


def test_divergence_input_validation():
    pair = DiscretePair(p=np.array([0.5, 0.5]), q=np.array([0.5, 0.5]))
    gen = builtin_generator("kulsif")
    with pytest.raises(ValueError):
        divergence_discrete(gen, pair, np.array([1.0]))
    with pytest.raises(ValueError):
        divergence_discrete(gen, pair, np.array([1.0, np.inf]))


@given(r=st.floats(0.05, 15.0), rhat=st.floats(0.05, 15.0))
def test_pointwise_term_nonnegative(r, rhat):
    for gen in all_generators():
        val = float(bregman_term(gen, r, rhat))
        assert val >= -1e-12


def test_weight_representation_kulsif_case():
    # integral of |2 - c| over [1, 2] is 1/2, matching (r - rhat)^2 / 2
    gen = builtin_generator("kulsif")
    assert weight_representation(gen, 2.0, 1.0) == pytest.approx(0.5, abs=1e-10)
    assert weight_representation(gen, 1.3, 1.3) == 0.0
    with pytest.raises(ValueError):
        weight_representation(gen, -0.5, 1.0)


def test_discrete_pair_validation():
    with pytest.raises(ValueError):
        DiscretePair(p=np.array([0.5, 0.6]), q=np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        DiscretePair(p=np.array([0.5, 0.5]), q=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        DiscretePair(p=np.array([-0.2, 1.2]), q=np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        DiscretePair(p=np.array([1.0]), q=np.array([0.5, 0.5]))


@given(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=6))
def test_valid_pairs_construct_and_expose_beta(raw):
    v = np.asarray(raw)
    p = v / v.sum()
    q = np.full(len(v), 1.0 / len(v))
    pair = DiscretePair(p=p, q=q)
    assert np.allclose(pair.beta * q, p)


def entropy_diamond():
    """diamond_transform of the binary entropy, which is lr's generator."""
    return diamond_transform(lambda u: u * np.log(u) + (1.0 - u) * np.log1p(-u),
                             lambda u: np.log(u) - np.log1p(-u),
                             lambda u: 1.0 / (u * (1.0 - u)),
                             lambda u: 1.0 / (1.0 - u) ** 2 - 1.0 / u ** 2)


def test_diamond_transform_edge_guard():
    with pytest.raises(ValueError):
        entropy_diamond().phi(np.array(1e14))


def test_diamond_third_derivative_matches_lr():
    lr = builtin_generator("lr")
    xs = np.linspace(0.3, 4.0, 11)
    rel = np.abs(entropy_diamond().phi3(xs) - lr.phi3(xs)) / np.abs(lr.phi3(xs))
    assert np.max(rel) < 1e-12


def test_affine_shift_leaves_divergence_unchanged():
    gen = builtin_generator("klest")
    shifted = BregmanGenerator(
        name="klest+affine",
        phi=lambda x: gen.phi(x) + 3.0 - 2.0 * np.asarray(x, dtype=float),
        phi1=lambda x: gen.phi1(x) - 2.0,
        phi2=gen.phi2, phi3=gen.phi3)
    pair = DiscretePair(p=np.array([0.2, 0.8]), q=np.array([0.7, 0.3]))
    rhat = np.array([0.9, 1.4])
    d0 = divergence_discrete(gen, pair, rhat)
    d1 = divergence_discrete(shifted, pair, rhat)
    assert d0 == pytest.approx(d1, abs=1e-13)


def test_derivative_consistency_reports_a_nan_derivative():
    gen = builtin_generator("lr")
    broken = dataclasses.replace(gen, phi2=lambda x: np.nan * np.asarray(x))
    assert np.isnan(derivative_consistency(broken, np.linspace(0.5, 2.0, 7)))
