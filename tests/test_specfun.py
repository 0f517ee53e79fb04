"""Worked values and cross-checks for the special-function building blocks."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotscatter.oracles import clebsch_gordan, gamma_ratio, gaunt, sphere_integral, sphere_rule, spherical_harmonic
from knotscatter.specfun import DegenerateClosedForm, hyp1f2

TWO_PI = 2.0 * math.pi


def test_clebsch_gordan_worked_values():
    # 1 x 1 coupling, m1 = m2 = 0
    assert abs(clebsch_gordan(1, 1, 0, 0, 0, 0) + 1.0 / math.sqrt(3.0)) < 1e-15
    assert abs(clebsch_gordan(1, 1, 0, 0, 2, 0) - math.sqrt(2.0 / 3.0)) < 1e-15
    assert clebsch_gordan(1, 1, 0, 0, 1, 0) == 0.0
    # 1 x 1, m1 = 1, m2 = -1
    assert abs(clebsch_gordan(1, 1, 1, -1, 2, 0) - 1.0 / math.sqrt(6.0)) < 1e-15
    assert abs(clebsch_gordan(1, 1, 1, -1, 1, 0) - 1.0 / math.sqrt(2.0)) < 1e-15
    assert abs(clebsch_gordan(1, 1, 1, -1, 0, 0) - 1.0 / math.sqrt(3.0)) < 1e-15
    # stretched state couples with unit weight
    assert clebsch_gordan(2, 1, 2, 1, 3, 3) == 1.0


def test_clebsch_gordan_selection_rules():
    assert clebsch_gordan(1, 1, 0, 1, 2, 0) == 0.0  # M != m1 + m2
    assert clebsch_gordan(1, 1, 0, 0, 3, 0) == 0.0  # triangle rule violated
    assert clebsch_gordan(1, 2, 2, 0, 2, 2) == 0.0  # |m1| > l1


@pytest.mark.parametrize("l1,l2", [(1, 1), (1, 2), (2, 2)])
def test_clebsch_gordan_orthogonality(l1, l2):
    for L in range(abs(l1 - l2), l1 + l2 + 1):
        for Lp in range(abs(l1 - l2), l1 + l2 + 1):
            for M in range(-L, L + 1):
                for Mp in range(-Lp, Lp + 1):
                    total = sum(
                        clebsch_gordan(l1, l2, m1, m2, L, M)
                        * clebsch_gordan(l1, l2, m1, m2, Lp, Mp)
                        for m1 in range(-l1, l1 + 1)
                        for m2 in range(-l2, l2 + 1)
                    )
                    want = 1.0 if (L, M) == (Lp, Mp) else 0.0
                    assert abs(total - want) < 1e-13


@settings(deadline=None, max_examples=50)
@given(l1=st.integers(0, 3), l2=st.integers(0, 3), m1=st.integers(-3, 3), m2=st.integers(-3, 3))
def test_clebsch_gordan_exchange_symmetry(l1, l2, m1, m2):
    if abs(m1) > l1 or abs(m2) > l2:
        return
    M = m1 + m2
    for L in range(abs(l1 - l2), l1 + l2 + 1):
        if abs(M) > L:
            continue
        left = clebsch_gordan(l2, l1, m2, m1, L, M)
        right = (-1.0) ** (l1 + l2 - L) * clebsch_gordan(l1, l2, m1, m2, L, M)
        assert abs(left - right) < 1e-14


def test_gaunt_matches_sphere_quadrature():
    cases = [
        (1, 0, 1, 0, 2, 0),
        (1, 1, 1, -1, 2, 0),
        (1, 1, 1, 1, 2, 2),
        (2, 1, 1, -1, 1, 0),
        (2, 2, 1, 1, 3, 3),
        (2, 0, 2, 0, 2, 0),
        (3, 2, 1, 0, 2, 2),
        (2, -1, 2, 1, 4, 0),
        (1, 0, 0, 0, 1, 0),
    ]
    for l1, m1, l2, m2, L, M in cases:

        def integrand(theta, phi):
            return (
                np.conj(spherical_harmonic(L, M, theta, phi))
                * spherical_harmonic(l1, m1, theta, phi)
                * spherical_harmonic(l2, m2, theta, phi)
            )

        numeric = complex(sphere_integral(integrand))
        assert abs(gaunt(l1, m1, l2, m2, L, M) - numeric) < 1e-13


def test_gaunt_parity_and_projection_zeros():
    assert gaunt(1, 0, 1, 0, 1, 0) == 0.0  # odd total degree
    assert gaunt(2, 0, 1, 0, 2, 0) == 0.0
    assert gaunt(1, 1, 1, 1, 2, 0) == 0.0  # M != m1 + m2


def test_spherical_harmonic_hand_values():
    theta, phi = 0.7, 1.3
    assert abs(complex(spherical_harmonic(0, 0, 0.3, 2.1)) - 0.5 / math.sqrt(math.pi)) < 1e-15
    want = math.sqrt(3.0 / (4.0 * math.pi)) * math.cos(theta)
    assert abs(complex(spherical_harmonic(1, 0, theta, phi)) - want) < 1e-14
    # Condon-Shortley phase on m = 1
    want = -math.sqrt(3.0 / (8.0 * math.pi)) * math.sin(theta) * cmath.exp(1j * phi)
    assert abs(complex(spherical_harmonic(1, 1, theta, phi)) - want) < 1e-14
    with pytest.raises(ValueError):
        spherical_harmonic(1, 2, theta, phi)


@settings(deadline=None, max_examples=30)
@given(theta=st.floats(0.05, math.pi - 0.05), phi=st.floats(0.0, TWO_PI), l=st.integers(0, 4))
def test_harmonic_conjugation_and_addition_theorem(theta, phi, l):
    total = 0.0
    for m in range(-l, l + 1):
        val = complex(spherical_harmonic(l, m, theta, phi))
        mirrored = complex(spherical_harmonic(l, -m, theta, phi))
        assert abs(val.conjugate() - (-1.0) ** m * mirrored) < 1e-13
        total += abs(val) ** 2
    assert abs(total - (2 * l + 1) / (4.0 * math.pi)) < 1e-13


def test_gamma_ratio():
    assert abs(gamma_ratio(3.0, 5.0) - 1.0 / 12.0) < 1e-15
    # Gamma(-1/2) / Gamma(1/2) = -2
    assert abs(gamma_ratio(-0.5, 0.5) + 2.0) < 1e-14
    with pytest.raises(DegenerateClosedForm):
        gamma_ratio(0.0, 1.0)
    with pytest.raises(DegenerateClosedForm):
        gamma_ratio(1.0, -2.0)


def test_hyp1f2_against_mpmath():
    cases = [
        (1.0, 3.5, 2.0, -0.0225),
        (1.0, 3.5, 2.0, -25.0),
        (0.5, 2.5, 1.5, -6.25),
        (1.5, 4.5, 2.5, -30.25),
        (0.3, 1.7, 2.2, -8.5),
        (1.0, 2.5, 2.0, -100.0),
    ]
    for a, b1, b2, z in cases:
        want = float(mpmath.hyp1f2(a, b1, b2, z))
        got = hyp1f2(a, b1, b2, z)
        assert abs(got - want) < 1e-12 * max(1.0, abs(want))
    assert hyp1f2(0.7, 1.3, 2.9, 0.0) == 1.0
    with pytest.raises(DegenerateClosedForm):
        hyp1f2(1.0, -1.0, 2.0, 0.5)
    with pytest.raises(ValueError):
        hyp1f2(1.0, 2.0, 3.0, -2.0e4)


def test_sphere_rule_and_harmonic_orthonormality():
    theta, phi, weights = sphere_rule()
    assert abs(float(weights.sum()) - 4.0 * math.pi) < 1e-12
    pairs = [(0, 0, 0, 0), (1, 0, 1, 0), (2, 1, 2, 1), (3, -2, 3, -2), (2, 1, 3, 1), (1, -1, 2, -1)]
    for l1, m1, l2, m2 in pairs:
        value = complex(
            np.sum(
                weights
                * np.conj(spherical_harmonic(l1, m1, theta, phi))
                * spherical_harmonic(l2, m2, theta, phi)
            )
        )
        want = 1.0 if (l1, m1) == (l2, m2) else 0.0
        assert abs(value - want) < 1e-13
