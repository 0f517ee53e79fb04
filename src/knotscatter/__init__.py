"""Scattering of charged particles off knotted magnetic flux lines.

A thin flux line shaped like a (p, q) torus knot (or one of three unknot
presets) is modeled as a closed loop of tangent magnetic dipoles. The
package computes the loop's multipole moments, its vector potential (exact
line integral and far-field multipole truncation), and the first-order
scattering matrix element of a charged particle off that potential, and
verifies numerically that the torus-knot amplitude factorizes into three
unknot amplitudes weighted by p/2 and -q/2.

The independent oracles that check these results, and the selfcheck suite,
live in knotscatter.oracles. Its sphere_quadrature_bracket is re-exported
here because perfbench/oracles.py reads it from the package.
"""

from .angular import DirectionCosineMonomial
from .born import (
    BornAmplitude,
    ScatteringKinematics,
    born_amplitude,
    factorization_residual,
    random_kinematics,
    triad_amplitude,
)
from .curves import KnotSpec, SampledCurve, TorusKnot, UnknotXY, UnknotXZ, UnknotYZ, sampled_from_json
from .multipole import OctopoleMoments, QuadrupoleMoments, octopole_moments, quadrupole_moments
from .oracles import sphere_quadrature_bracket
from .potential import FieldPoint, VectorPotentialValue, biot_savart_dipole_line, multipole_potential
from .specfun import NonConvergent

__all__ = [
    "BornAmplitude",
    "DirectionCosineMonomial",
    "FieldPoint",
    "KnotSpec",
    "NonConvergent",
    "OctopoleMoments",
    "QuadrupoleMoments",
    "SampledCurve",
    "ScatteringKinematics",
    "TorusKnot",
    "UnknotXY",
    "UnknotXZ",
    "UnknotYZ",
    "VectorPotentialValue",
    "biot_savart_dipole_line",
    "born_amplitude",
    "factorization_residual",
    "multipole_potential",
    "octopole_moments",
    "quadrupole_moments",
    "random_kinematics",
    "sampled_from_json",
    "sphere_quadrature_bracket",
    "triad_amplitude",
]
