"""Direction-cosine monomials expanded over spherical harmonics.

The matrix element reduces to brackets of the form

    bracket(mono, C) = sum_{l,m} C(l,m) * integral Y*_{lm}(Omega) mono(Omega) dOmega

where mono = R1^n1 R2^n2 R3^n3 is a monomial in the direction cosines
(R1, R2, R3) = (sin(theta)cos(phi), sin(theta)sin(phi), cos(theta)) of total
degree at most three, and C is a coefficient map such as the radial A or B
family. By orthonormality the bracket is a finite sum over the monomial's
harmonic expansion, which this module builds from the three degree-1
expansions composed via Gaunt linearization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .specfun import gaunt, spherical_harmonic

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
