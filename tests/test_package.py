"""The package's public surface."""

import ast
import importlib
from pathlib import Path

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


def test_benchmark_tracer_layers_import():
    # perfbench/tracer.py wraps every public function of these modules and
    # perfbench's tests patch born's binding of radial_coefficients
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    layers = next(
        ast.literal_eval(node.value)
        for node in ast.parse(tracer.read_text()).body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS" for t in node.targets)
    )
    assert len(layers) == 7
    for layer in layers:
        importlib.import_module(f"knotscatter.{layer}")
    assert ks.born.radial_coefficients is ks.radial.radial_coefficients
