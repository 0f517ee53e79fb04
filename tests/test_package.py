"""The package's public surface."""

import knotscatter as ks

PUBLIC = {
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
}


def test_public_surface():
    assert len(ks.__all__) == len(PUBLIC) == 24
    assert set(ks.__all__) == PUBLIC
    for name in ks.__all__:
        assert getattr(ks, name) is not None
    # perfbench/oracles.py reads these two from the package
    assert ks.sphere_quadrature_bracket is ks.oracles.sphere_quadrature_bracket
    assert ks.DirectionCosineMonomial is ks.angular.DirectionCosineMonomial
