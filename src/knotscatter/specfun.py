"""The generalized hypergeometric series 1F2 and the package's numerical exceptions.

radial takes j_1(a)/a and j_2(a)/a^2 from hyp1f2 below a = 2. The spherical
harmonics, Gaunt and Clebsch-Gordan coefficients of the harmonic route to
the angular brackets are oracles (knotscatter.oracles).
"""

from __future__ import annotations


class DegenerateClosedForm(ValueError):
    """A closed-form expression is singular at the requested parameters.

    Raised where a formula involves a pole (a gamma function at a
    non-positive integer, an explicit 1/l or 1/(l-1) factor) and a
    quadrature evaluation must be used instead.
    """


class NonConvergent(ArithmeticError):
    """A series or quadrature failed to reach its accuracy target in budget."""


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
