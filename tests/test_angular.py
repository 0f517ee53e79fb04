"""Harmonic expansions of direction-cosine monomials and the bracket oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotscatter import DirectionCosineMonomial, sphere_quadrature_bracket
from knotscatter.oracles import (
    TABULATED_BRACKETS,
    TABULATED_VARIANTS,
    TRIPLE_PRODUCT_IDENTITIES,
    angular_bracket,
    discrepancy_report,
    monomial_expansion,
    triple_product_residual,
)

ALL_EXPONENTS = sorted(TABULATED_BRACKETS)


def _full_coefficient_map(rng):
    return {
        (l, m): complex(rng.normal(), rng.normal())
        for l in range(4)
        for m in range(-l, l + 1)
    }


def test_tabulated_monomial_set():
    # every monomial of total degree 1, 2, or 3 is covered
    assert len(ALL_EXPONENTS) == 19 or len(ALL_EXPONENTS) == 20
    degrees = {sum(e) for e in ALL_EXPONENTS}
    assert degrees <= {0, 1, 2, 3}


@pytest.mark.parametrize("exponents", ALL_EXPONENTS, ids=str)
def test_expansion_reconstructs_monomial_pointwise(exponents):
    mono = DirectionCosineMonomial(exponents)
    expansion = monomial_expansion(mono)
    rng = np.random.default_rng(5)
    for _ in range(20):
        theta = float(rng.uniform(0.05, math.pi - 0.05))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        direct = complex(mono.evaluate(theta, phi))
        summed = complex(expansion.evaluate(theta, phi))
        assert abs(direct - summed) < 1e-12


@settings(deadline=None, max_examples=30)
@given(
    exponents=st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)).filter(
        lambda e: 1 <= sum(e) <= 3
    ),
    theta=st.floats(0.05, math.pi - 0.05),
    phi=st.floats(0.0, 2.0 * math.pi),
)
def test_expansion_reconstruction_property(exponents, theta, phi):
    mono = DirectionCosineMonomial(exponents)
    direct = complex(mono.evaluate(theta, phi))
    summed = complex(monomial_expansion(mono).evaluate(theta, phi))
    assert abs(direct - summed) < 1e-12


@pytest.mark.parametrize("exponents", ALL_EXPONENTS, ids=str)
def test_bracket_matches_sphere_quadrature(exponents):
    rng = np.random.default_rng(11)
    mono = DirectionCosineMonomial(exponents)
    for _ in range(3):
        coeffs = _full_coefficient_map(rng)
        fast = angular_bracket(mono, coeffs)
        slow = sphere_quadrature_bracket(mono, coeffs)
        assert abs(fast - slow) < 1e-11


def test_tabulated_brackets_match_computed_expansions():
    for exponents, table in TABULATED_BRACKETS.items():
        computed = monomial_expansion(DirectionCosineMonomial(exponents)).terms
        assert sorted(table) == sorted(computed)
        for key, value in table.items():
            assert abs(complex(value) - complex(computed[key])) < 1e-12


def test_discrepancy_report_contains_exactly_the_known_variant():
    report = discrepancy_report()
    assert len(report) == 1
    entry = report[0]
    assert entry["monomial"] == [1, 0, 2]
    assert (entry["l"], entry["m"]) == (1, 1)
    assert entry["tabulated_value"][0] == pytest.approx(-4.0 * math.pi / (3.0 * math.sqrt(10.0)))
    assert entry["computed_value"][0] == pytest.approx(-0.2 * math.sqrt(2.0 * math.pi / 3.0))
    assert entry["tabulated_value"][1] == 0.0
    # the variant list carries the same alternate coefficient the report flags
    assert TABULATED_VARIANTS[0][0] == (1, 0, 2)
    assert TABULATED_VARIANTS[0][1] == (1, 1)


@pytest.mark.parametrize("exponents", ALL_EXPONENTS, ids=str)
def test_expansion_has_pure_degree_parity(exponents):
    degree = sum(exponents)
    terms = monomial_expansion(DirectionCosineMonomial(exponents)).terms
    assert terms
    for l, m in terms:
        assert l <= degree
        assert (degree - l) % 2 == 0


def test_bracket_simple_hand_value():
    # <R_x> against Y_{1,-1} - Y_{1,1} picks up 2 sqrt(2 pi / 3)
    mono = DirectionCosineMonomial((1, 0, 0))
    value = angular_bracket(mono, {(1, -1): 1.0, (1, 1): -1.0})
    assert value == pytest.approx(2.0 * math.sqrt(2.0 * math.pi / 3.0))


def test_bracket_requires_every_expansion_key():
    mono = DirectionCosineMonomial((1, 0, 0))
    with pytest.raises(KeyError) as err:
        angular_bracket(mono, {(1, -1): 1.0})
    assert "(1, 1)" in str(err.value)


def test_triple_product_identities_pointwise():
    assert len(TRIPLE_PRODUCT_IDENTITIES) == 10
    rng = np.random.default_rng(17)
    for _ in range(100):
        theta = float(rng.uniform(0.02, math.pi - 0.02))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        assert triple_product_residual(theta, phi) < 1e-12


def test_monomial_validation():
    with pytest.raises(ValueError):
        DirectionCosineMonomial((2, 1, 1))  # degree above three
    with pytest.raises(ValueError):
        DirectionCosineMonomial((-1, 0, 0))
    with pytest.raises(ValueError):
        DirectionCosineMonomial((1, 0))


def test_monomial_evaluate_is_array_friendly():
    mono = DirectionCosineMonomial((1, 0, 2))
    theta = np.array([0.3, 1.1, 2.0])
    phi = np.array([0.0, 0.7, 3.0])
    want = np.sin(theta) * np.cos(phi) * np.cos(theta) ** 2
    np.testing.assert_allclose(mono.evaluate(theta, phi), want, atol=1e-15)
