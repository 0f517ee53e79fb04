"""Direction-cosine monomials R1^n1 R2^n2 R3^n3 of total degree at most three.

(R1, R2, R3) = (sin(theta)cos(phi), sin(theta)sin(phi), cos(theta)). born.py
evaluates the monomials' brackets on potential.py's term table; their
harmonic expansions are oracles (knotscatter.oracles).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
