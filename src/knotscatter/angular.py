"""Direction-cosine monomials expanded over spherical harmonics.

The matrix element reduces to brackets of the form

    bracket(mono, C) = sum_{l,m} C(l,m) * integral Y*_{lm}(Omega) mono(Omega) dOmega

where mono = R1^n1 R2^n2 R3^n3 is a monomial in the direction cosines
(R1, R2, R3) = (sin(theta)cos(phi), sin(theta)sin(phi), cos(theta)) of total
degree at most three, and C is a coefficient map such as the radial A or B
family. By orthonormality the bracket is a finite sum over the monomial's
harmonic expansion, which this module builds from the three degree-1
expansions composed via Gaunt linearization. A direct 2-sphere quadrature of
the same brackets serves as the independent oracle.

TABULATED_BRACKETS holds an independently tabulated coefficient set kept as
a regression fixture; discrepancy_report compares it (and the alternate
tabulated values in TABULATED_VARIANTS) against the computed expansions.
The fixture is deliberately never used in any computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .specfun import gaunt, sphere_rule, spherical_harmonic

_SQ = math.sqrt
_PI = math.pi


@dataclass(frozen=True)
class DirectionCosineMonomial:
    """R1^n1 R2^n2 R3^n3 with non-negative exponents of total degree <= 3."""

    exponents: tuple[int, int, int]

    def __post_init__(self) -> None:
        e = self.exponents
        if len(e) != 3 or any(int(n) != n or n < 0 for n in e):
            raise ValueError(f"exponents must be three non-negative integers, got {e}")
        object.__setattr__(self, "exponents", tuple(int(n) for n in e))
        if self.degree > 3:
            raise ValueError(f"total degree must be at most 3, got {self.degree}")

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    def evaluate(self, theta, phi):
        """Pointwise value; accepts scalars or broadcastable arrays."""
        st = np.sin(theta)
        r = (st * np.cos(phi), st * np.sin(phi), np.cos(theta))
        n1, n2, n3 = self.exponents
        return r[0] ** n1 * r[1] ** n2 * r[2] ** n3


@dataclass(frozen=True)
class HarmonicExpansion:
    """Finite expansion mono = sum over terms of c_{lm} Y_{lm}."""

    terms: dict

    def evaluate(self, theta: float, phi: float) -> complex:
        return sum(c * complex(spherical_harmonic(l, m, theta, phi)) for (l, m), c in self.terms.items())


#: Degree-1 expansions: R1, R2, R3 over Y_{1,m}, and the constant over Y_{0,0}.
_SEEDS = (
    {(1, -1): _SQ(2 * _PI / 3), (1, 1): -_SQ(2 * _PI / 3)},
    {(1, -1): 1j * _SQ(2 * _PI / 3), (1, 1): 1j * _SQ(2 * _PI / 3)},
    {(1, 0): _SQ(4 * _PI / 3)},
)


def _multiply_seed(terms: dict, seed: dict) -> dict:
    out: dict = {}
    for (l1, m1), c1 in terms.items():
        for (l2, m2), c2 in seed.items():
            M = m1 + m2
            for L in range(abs(l1 - l2), l1 + l2 + 1):
                if abs(M) > L:
                    continue
                g = gaunt(l1, m1, l2, m2, L, M)
                if g != 0.0:
                    out[L, M] = out.get((L, M), 0.0) + c1 * c2 * g
    return {key: val for key, val in out.items() if abs(val) > 1e-14}


@lru_cache(maxsize=None)
def _expansion_terms(exponents: tuple[int, int, int]) -> tuple:
    terms = {(0, 0): _SQ(4 * _PI)}
    for axis, n in enumerate(exponents):
        for _ in range(n):
            terms = _multiply_seed(terms, _SEEDS[axis])
    return tuple(sorted(terms.items()))


def monomial_expansion(mono: DirectionCosineMonomial) -> HarmonicExpansion:
    """Exact harmonic expansion of a degree <= 3 direction-cosine monomial.

    Built by repeated Gaunt linearization of the degree-1 expansions, not
    from any hardcoded table. Only l of the monomial's degree parity appear.
    """
    return HarmonicExpansion(terms=dict(_expansion_terms(mono.exponents)))


def angular_bracket(mono: DirectionCosineMonomial, coeffs: dict) -> complex:
    """sum_{l,m} coeffs(l, m) * integral Y*_{lm} mono dOmega, by orthonormality.

    Every (l, m) touched by the monomial's expansion must be present in
    coeffs; missing entries raise KeyError naming them all.
    """
    terms = monomial_expansion(mono).terms
    missing = sorted(key for key in terms if key not in coeffs)
    if missing:
        raise KeyError(f"coefficient map lacks required (l, m) entries: {missing}")
    return complex(sum(coeffs[key] * c for key, c in terms.items()))


def sphere_quadrature_bracket(mono: DirectionCosineMonomial, coeffs: dict) -> complex:
    """Same bracket via direct 2-sphere quadrature of each projection integral.

    Independent oracle for angular_bracket: every integral Y*_{lm} mono is
    evaluated on the 12 x 24 Gauss-Legendre x trapezoid product rule, exact
    for these polynomial integrands up to l = 3. Sums over every entry of
    coeffs (entries orthogonal to the monomial integrate to zero).
    """
    theta, phi, weights = sphere_rule(12, 24)
    mono_values = mono.evaluate(theta, phi)
    total = 0.0 + 0.0j
    for (l, m), coefficient in coeffs.items():
        ylm = spherical_harmonic(l, m, theta, phi)
        total += coefficient * np.sum(weights * np.conj(ylm) * mono_values)
    return complex(total)


_C32 = (2 * _PI / 3) ** 1.5
_C43 = (4 * _PI / 3) ** 1.5

#: Independently tabulated expansion coefficients, kept purely as regression
#: fixtures; maps exponent triple -> {(l, m): tabulated coefficient}.
TABULATED_BRACKETS = {
    (0, 0, 0): {(0, 0): _SQ(4 * _PI)},
    (1, 0, 0): {(1, -1): _SQ(2 * _PI / 3), (1, 1): -_SQ(2 * _PI / 3)},
    (0, 1, 0): {(1, -1): 1j * _SQ(2 * _PI / 3), (1, 1): 1j * _SQ(2 * _PI / 3)},
    (0, 0, 1): {(1, 0): _SQ(4 * _PI / 3)},
    (2, 0, 0): {
        (2, -2): _SQ(2 * _PI / 15),
        (2, 2): _SQ(2 * _PI / 15),
        (2, 0): -(2.0 / 3.0) * _SQ(_PI / 5),
        (0, 0): (2.0 / 3.0) * _SQ(_PI),
    },
    (0, 2, 0): {
        (2, -2): -_SQ(2 * _PI / 15),
        (2, 2): -_SQ(2 * _PI / 15),
        (2, 0): -(2.0 / 3.0) * _SQ(_PI / 5),
        (0, 0): (2.0 / 3.0) * _SQ(_PI),
    },
    (0, 0, 2): {(0, 0): (2.0 / 3.0) * _SQ(_PI), (2, 0): (4.0 / 3.0) * _SQ(_PI / 5)},
    (1, 1, 0): {
        (2, -2): 1j * (2 * _PI / 3) * _SQ(3 / (10 * _PI)),
        (2, 2): -1j * (2 * _PI / 3) * _SQ(3 / (10 * _PI)),
    },
    (1, 0, 1): {(2, -1): _SQ(2 * _PI / 15), (2, 1): -_SQ(2 * _PI / 15)},
    (0, 1, 1): {(2, -1): 1j * _SQ(2 * _PI / 15), (2, 1): 1j * _SQ(2 * _PI / 15)},
    (3, 0, 0): {
        (3, -3): _C32 * (3 / (2 * _PI)) * _SQ(3 / 70),
        (1, -1): _C32 * 9 / (10 * _PI),
        (3, -1): -_C32 * (9 / (10 * _PI)) * _SQ(1 / 14),
        (1, 1): -_C32 * 9 / (10 * _PI),
        (3, 1): _C32 * 9 / (10 * _PI * _SQ(14)),
        (3, 3): -_C32 * (3 / (2 * _PI)) * _SQ(3 / 70),
    },
    (0, 3, 0): {
        (3, -3): -1j * _C32 * (3 / (2 * _PI)) * _SQ(3 / 70),
        (1, -1): 1j * _C32 * 9 / (10 * _PI),
        (3, -1): -1j * _C32 * (9 / (10 * _PI)) * _SQ(1 / 14),
        (1, 1): 1j * _C32 * 9 / (10 * _PI),
        (3, 1): -1j * _C32 * 9 / (10 * _PI * _SQ(14)),
        (3, 3): -1j * _C32 * (3 / (2 * _PI)) * _SQ(3 / 70),
    },
    (0, 0, 3): {(1, 0): _C43 * 9 / (20 * _PI), (3, 0): _C43 * (3 / (10 * _PI)) * _SQ(3 / 7)},
    (1, 2, 0): {
        (3, -3): -_C32 * (3 / (2 * _PI)) * _SQ(3 / 70),
        (1, -1): _C32 * 3 / (10 * _PI),
        (3, -1): -_C32 * (3 / (10 * _PI)) * _SQ(1 / 14),
        (1, 1): -_C32 * 3 / (10 * _PI),
        (3, 1): _C32 * 3 / (10 * _PI * _SQ(14)),
        (3, 3): _C32 * (3 / (2 * _PI)) * _SQ(3 / 70),
    },
    (2, 1, 0): {
        (3, -3): 1j * _C32 * (3 / (2 * _PI)) * _SQ(3 / 70),
        (1, -1): 1j * _C32 * 3 / (10 * _PI),
        (3, -1): -1j * _C32 * (3 / (10 * _PI)) * _SQ(1 / 14),
        (1, 1): 1j * _C32 * 3 / (10 * _PI),
        (3, 1): -1j * _C32 * 3 / (10 * _PI * _SQ(14)),
        (3, 3): 1j * _C32 * (3 / (2 * _PI)) * _SQ(3 / 70),
    },
    (1, 0, 2): {
        (1, -1): (1.0 / 5.0) * _SQ(2 * _PI / 3),
        (3, -1): (4.0 / 5.0) * _SQ(_PI / 21),
        (1, 1): -(1.0 / 5.0) * _SQ(2 * _PI / 3),
        (3, 1): -(4.0 / 5.0) * _SQ(_PI / 21),
    },
    (2, 0, 1): {
        (3, -2): _SQ(2 * _PI / 105),
        (1, 0): (2.0 / 5.0) * _SQ(_PI / 3),
        (3, 0): -(2.0 / 5.0) * _SQ(_PI / 7),
        (3, 2): _SQ(2 * _PI / 105),
    },
    (0, 2, 1): {
        (3, -2): -_SQ(2 * _PI / 105),
        (1, 0): (2.0 / 5.0) * _SQ(_PI / 3),
        (3, 0): -(2.0 / 5.0) * _SQ(_PI / 7),
        (3, 2): -_SQ(2 * _PI / 105),
    },
    (0, 1, 2): {
        (1, -1): (1j / 5.0) * _SQ(2 * _PI / 3),
        (3, -1): (4j / 5.0) * _SQ(_PI / 21),
        (1, 1): (1j / 5.0) * _SQ(2 * _PI / 3),
        (3, 1): (4j / 5.0) * _SQ(_PI / 21),
    },
    (1, 1, 1): {(3, -2): 1j * _SQ(2 * _PI / 105), (3, 2): -1j * _SQ(2 * _PI / 105)},
}

#: Alternate tabulated values for entries that appear twice in the source
#: material with conflicting coefficients: (exponents, (l, m), value).
TABULATED_VARIANTS = (((1, 0, 2), (1, 1), -4 * _PI / (3 * _SQ(10))),)

#: Reductions of products of three degree-1 harmonics: (factors, terms) with
#: factors a triple of (l, m) and terms the claimed expansion of their product.
TRIPLE_PRODUCT_IDENTITIES = (
    (((1, 0), (1, 1), (1, 1)), {(3, 2): 3 / (2 * _PI * _SQ(70))}),
    (((1, 1), (1, 1), (1, 1)), {(3, 3): (3 / (2 * _PI)) * _SQ(3 / 70)}),
    (((1, -1), (1, 1), (1, 1)), {(1, 1): -3 / (10 * _PI), (3, 1): 3 / (10 * _PI * _SQ(14))}),
    (((1, -1), (1, -1), (1, -1)), {(3, -3): (3 / (2 * _PI)) * _SQ(3 / 70)}),
    (((1, 1), (1, -1), (1, -1)), {(1, -1): -3 / (10 * _PI), (3, -1): (3 / (10 * _PI)) * _SQ(1 / 14)}),
    (((1, 0), (1, -1), (1, -1)), {(3, -2): (3 / (2 * _PI)) * _SQ(1 / 70)}),
    (((1, -1), (1, 0), (1, 0)), {(1, -1): 3 / (20 * _PI), (3, -1): (3 / (10 * _PI)) * _SQ(2 / 7)}),
    (((1, 1), (1, 0), (1, 0)), {(1, 1): 3 / (20 * _PI), (3, 1): (3 / (10 * _PI)) * _SQ(2 / 7)}),
    (((1, 0), (1, 0), (1, 0)), {(1, 0): 9 / (20 * _PI), (3, 0): (3 / (10 * _PI)) * _SQ(3 / 7)}),
    (((1, 0), (1, -1), (1, 1)), {(1, 0): -3 / (20 * _PI), (3, 0): (3 / (20 * _PI)) * _SQ(3 / 7)}),
)


def triple_product_residual(theta: float, phi: float) -> float:
    """Worst pointwise defect of the ten triple-product reductions at one angle."""
    worst = 0.0
    for factors, terms in TRIPLE_PRODUCT_IDENTITIES:
        lhs = 1.0 + 0.0j
        for l, m in factors:
            lhs *= complex(spherical_harmonic(l, m, theta, phi))
        rhs = sum(c * complex(spherical_harmonic(l, m, theta, phi)) for (l, m), c in terms.items())
        worst = max(worst, abs(lhs - rhs))
    return worst


def discrepancy_report() -> list[dict]:
    """Tabulated-versus-computed mismatches above 1e-11, as JSON-ready dicts.

    Checks every entry of TABULATED_BRACKETS and every alternate value in
    TABULATED_VARIANTS against the Gaunt-built expansion. Exactly one entry
    is expected: the alternate (1,1) coefficient of the R1*R3^2 bracket.
    """
    report = []
    for exponents, table in sorted(TABULATED_BRACKETS.items()):
        computed = monomial_expansion(DirectionCosineMonomial(exponents)).terms
        for (l, m), value in sorted(table.items()):
            reference = complex(computed.get((l, m), 0.0))
            if abs(complex(value) - reference) > 1e-11:
                report.append(_report_entry(exponents, l, m, value, reference))
    for exponents, (l, m), value in TABULATED_VARIANTS:
        computed = monomial_expansion(DirectionCosineMonomial(exponents)).terms
        reference = complex(computed.get((l, m), 0.0))
        if abs(complex(value) - reference) > 1e-11:
            report.append(_report_entry(exponents, l, m, value, reference))
    return report


def _report_entry(exponents, l, m, tabulated, computed) -> dict:
    tabulated = complex(tabulated)
    computed = complex(computed)
    return {
        "monomial": list(exponents),
        "l": l,
        "m": m,
        "tabulated_value": [tabulated.real, tabulated.imag],
        "computed_value": [computed.real, computed.imag],
    }
