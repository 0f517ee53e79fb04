"""Special functions and angular-momentum coefficients.

Small, well-tested building blocks for the radial and angular reductions:
spherical harmonics (Condon-Shortley phase), the generalized hypergeometric
series 1F2, exact Clebsch-Gordan coefficients and Gaunt coefficients.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from scipy.special import sph_harm_y


class DegenerateClosedForm(ValueError):
    """A closed-form expression is singular at the requested parameters.

    Raised where a formula involves a pole (a gamma function at a
    non-positive integer, an explicit 1/l or 1/(l-1) factor) and a
    quadrature evaluation must be used instead.
    """


class NonConvergent(ArithmeticError):
    """A series or quadrature failed to reach its accuracy target in budget."""


def spherical_harmonic(l: int, m: int, theta, phi):
    """Orthonormal spherical harmonic Y_{lm}(theta, phi), Condon-Shortley phase.

    theta is the polar angle, phi the azimuth; broadcasts over array inputs.
    """
    if abs(m) > l:
        raise ValueError(f"|m| <= l required, got l={l}, m={m}")
    return sph_harm_y(l, m, theta, phi)


#: hyp1f2 stops once a term falls below _HYP_RTOL of the partial sum, and
#: raises NonConvergent after _HYP_MAX_TERMS terms.
_HYP_RTOL, _HYP_MAX_TERMS = 1e-14, 10_000


def hyp1f2(a: float, b1: float, b2: float, z: float) -> float:
    """Generalized hypergeometric series 1F2(a; b1, b2; z).

    Direct power-series summation with a term-ratio stopping rule. The series
    is entire in z, but summation is refused for |z| > 1e4 where cancellation
    would erode double precision.
    """
    for b in (b1, b2):
        if b <= 0 and float(b).is_integer():
            raise DegenerateClosedForm(f"1F2 parameter pole at b = {b}")
    if abs(z) > 1e4:
        raise ValueError(f"|z| <= 1e4 required for direct summation, got z = {z}")
    term = 1.0
    total = 1.0
    for n in range(_HYP_MAX_TERMS):
        term *= (a + n) * z / ((b1 + n) * (b2 + n) * (n + 1))
        total += term
        if abs(term) <= _HYP_RTOL * max(abs(total), 1e-300) and n > 2:
            return total
    raise NonConvergent(f"1F2 series did not converge within {_HYP_MAX_TERMS} terms")


@lru_cache(maxsize=None)
def _cg_exact(l1: int, l2: int, m1: int, m2: int, L: int, M: int) -> tuple[int, Fraction]:
    # Exact square and sign of the coefficient via integer factorials.
    f = math.factorial
    pref = Fraction(
        (2 * L + 1) * f(l1 + l2 - L) * f(l1 - l2 + L) * f(-l1 + l2 + L),
        f(l1 + l2 + L + 1),
    ) * Fraction(f(L + M) * f(L - M) * f(l1 - m1) * f(l1 + m1) * f(l2 - m2) * f(l2 + m2))
    total = Fraction(0)
    for k in range(0, l1 + l2 + L + 1):
        denoms = (k, l1 + l2 - L - k, l1 - m1 - k, l2 + m2 - k, L - l2 + m1 + k, L - l1 - m2 + k)
        if any(d < 0 for d in denoms):
            continue
        term = Fraction((-1) ** k, math.prod(f(d) for d in denoms))
        total += term
    sign = 0 if total == 0 else (1 if total > 0 else -1)
    return sign, pref * total * total


def clebsch_gordan(l1: int, l2: int, m1: int, m2: int, L: int, M: int) -> float:
    """Coefficient <l1, l2; m1, m2 | L, M> by the closed finite sum.

    All arithmetic is exact (integer factorials and rationals) up to the
    final square root, eliminating accumulation error for the small l used
    here; selection-rule violations return 0.
    """
    for l, m in ((l1, m1), (l2, m2), (L, M)):
        if l < 0 or abs(m) > l:
            return 0.0
    if M != m1 + m2 or L < abs(l1 - l2) or L > l1 + l2:
        return 0.0
    sign, square = _cg_exact(l1, l2, m1, m2, L, M)
    return sign * math.sqrt(float(square))


@lru_cache(maxsize=None)
def gaunt(l1: int, m1: int, l2: int, m2: int, L: int, M: int) -> float:
    """Integral of Y*_{LM} Y_{l1 m1} Y_{l2 m2} over the unit sphere.

    Equivalently the coefficient of Y_{LM} in the product Y_{l1 m1} Y_{l2 m2}:

        sqrt((2 l1 + 1)(2 l2 + 1) / (4 pi (2 L + 1)))
        * <l1, l2; 0, 0 | L, 0> * <l1, l2; m1, m2 | L, M>.

    Selection rules (M = m1 + m2, triangle inequality, parity) give 0. The
    memo table is read-only after first computation and safe for concurrent
    readers.
    """
    return (
        math.sqrt((2 * l1 + 1) * (2 * l2 + 1) / (4.0 * math.pi * (2 * L + 1)))
        * clebsch_gordan(l1, l2, 0, 0, L, 0)
        * clebsch_gordan(l1, l2, m1, m2, L, M)
    )
