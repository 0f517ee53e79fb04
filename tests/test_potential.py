"""Far-field multipole potential against the exact line-integral oracle."""

import math

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from knotscatter import (
    FieldPoint,
    SampledCurve,
    ScatteringKinematics,
    TorusKnot,
    UnknotXY,
    UnknotXZ,
    UnknotYZ,
    biot_savart_dipole_line,
    multipole_potential,
    octopole_moments,
    quadrupole_moments,
)
from knotscatter.curves import sampled_from_spec
from knotscatter.multipole import SORTED_PAIRS, SORTED_TRIPLES
from knotscatter.oracles import BruteforceGrid, divergence_multipole, vni_bruteforce
from knotscatter.potential import (
    MAX_SAMPLES,
    RESOLVED_SPAN,
    _biot_savart_batch,
    _max_speed,
    _multipole_components,
    biot_savart_samples,
)


def _fit_slope(radii, gaps):
    return float(np.polyfit(np.log(radii), np.log(gaps), 1)[0])


@pytest.mark.parametrize("p,q", [(2, 3), (3, 4)])
def test_on_axis_closed_value_fixes_the_sign(p, q):
    # on the +z axis only the trace part survives: A = (0, 0, -2 K_z / r^3)
    spec = TorusKnot(p, q)
    quad = quadrupole_moments(spec)
    octo = octopole_moments(spec)
    point = FieldPoint.from_spherical(80.0, 0.0, 0.0)
    want = 9.0 * p * math.pi / 80.0**3

    value = multipole_potential(quad, octo, point, order="quadrupole")
    assert value.ax == pytest.approx(0.0, abs=1e-15)
    assert value.ay == pytest.approx(0.0, abs=1e-15)
    assert value.az == pytest.approx(want, rel=1e-12)

    # the octopole correction vanishes on the axis for these knots
    full = multipole_potential(quad, octo, point, order="octopole")
    assert full.az == pytest.approx(want, rel=1e-10)

    # the exact line integral pins the overall sign and magnitude
    exact = biot_savart_dipole_line(spec, point)
    assert exact.az == pytest.approx(want, rel=5e-3)


def test_unknot_axis_field():
    spec = UnknotXY()
    quad = quadrupole_moments(spec)
    octo = octopole_moments(spec)
    point = FieldPoint.from_spherical(60.0, 0.0, 0.0)
    want = 18.0 * math.pi / 60.0**3
    assert multipole_potential(quad, octo, point).az == pytest.approx(want, rel=1e-12)
    exact = biot_savart_dipole_line(spec, point)
    assert abs(exact.ax) < 1e-12
    assert abs(exact.ay) < 1e-12
    assert exact.az == pytest.approx(want, rel=1e-2)


def test_truncation_error_slopes():
    spec = TorusKnot(2, 3)
    quad = quadrupole_moments(spec)
    octo = octopole_moments(spec)
    radii = np.geomspace(30.0, 300.0, 8)
    rng = np.random.default_rng(3)
    for _ in range(6):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        points = [FieldPoint.from_cartesian(*(r * direction)) for r in radii]
        exact = np.array([biot_savart_dipole_line(spec, pt).vector for pt in points])
        full = np.array([multipole_potential(quad, octo, pt).vector for pt in points])
        partial = np.array(
            [multipole_potential(quad, octo, pt, order="quadrupole").vector for pt in points]
        )
        slope_full = _fit_slope(radii, np.linalg.norm(exact - full, axis=1))
        slope_partial = _fit_slope(radii, np.linalg.norm(exact - partial, axis=1))
        assert abs(slope_full + 5.0) < 0.3  # octopole truncation decays one power faster
        # generically -4; steeper along directions where the octopole term cancels
        assert slope_partial < -3.7
        relative = np.linalg.norm(exact - full, axis=1) / np.linalg.norm(exact, axis=1)
        assert abs(_fit_slope(radii, relative) + 2.0) < 0.3


def test_multipole_field_is_divergence_free():
    spec = TorusKnot(2, 3)
    quad = quadrupole_moments(spec)
    octo = octopole_moments(spec)
    rng = np.random.default_rng(9)
    for _ in range(4):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        point = FieldPoint.from_cartesian(*(float(rng.uniform(20.0, 80.0)) * direction))
        magnitude = multipole_potential(quad, octo, point).magnitude
        assert abs(divergence_multipole(quad, octo, point)) < 1e-6 * magnitude / point.r


def test_biot_savart_rotational_covariance():
    base = sampled_from_spec(TorusKnot(2, 3), 128)
    rotation = Rotation.from_rotvec([0.3, -1.1, 0.7]).as_matrix()
    rotated = SampledCurve.from_array(np.asarray(base.points) @ rotation.T)
    x = np.array([11.0, -4.0, 7.0])
    original = biot_savart_dipole_line(base, FieldPoint.from_cartesian(*x)).vector
    image = biot_savart_dipole_line(rotated, FieldPoint.from_cartesian(*(rotation @ x))).vector
    np.testing.assert_allclose(image, rotation @ original, atol=1e-9)


def test_multipole_order_scaling():
    spec = TorusKnot(2, 3)
    quad = quadrupole_moments(spec)
    octo = octopole_moments(spec)
    direction = np.array([0.36, -0.48, 0.8])
    near = FieldPoint.from_cartesian(*(50.0 * direction))
    far = FieldPoint.from_cartesian(*(100.0 * direction))
    q_near = multipole_potential(quad, octo, near, order="quadrupole").vector
    q_far = multipole_potential(quad, octo, far, order="quadrupole").vector
    np.testing.assert_allclose(q_far, q_near / 8.0, rtol=1e-12)
    # the octopole part of a torus knot is round-off, so a 1/r^4 law would
    # compare noise; it must stay negligible against the quadrupole part
    for point, q_part in ((near, q_near), (far, q_far)):
        o_part = multipole_potential(quad, octo, point).vector - q_part
        assert np.abs(o_part).max() <= 1e-12 * np.abs(q_part).max()


@pytest.mark.parametrize("spec", [UnknotXZ(), UnknotYZ()], ids=lambda s: s.label())
def test_multipole_order_scaling_with_a_nonzero_octopole(spec):
    # the octopole part of every torus knot is round-off (<= 3e-14 at r = 1
    # against a quadrupole part of ~30), so the torus test above cannot see a
    # wrong 1/r^4 term; these unknots have an octopole part of ~13 at r = 1
    quad = quadrupole_moments(spec)
    octo = octopole_moments(spec)
    direction = np.array([0.36, -0.48, 0.8])
    unit = FieldPoint.from_cartesian(*direction)
    octopole_part = multipole_potential(quad, octo, unit).vector
    octopole_part -= multipole_potential(quad, octo, unit, order="quadrupole").vector
    assert np.abs(octopole_part).max() > 10.0
    near = FieldPoint.from_cartesian(*(50.0 * direction))
    far = FieldPoint.from_cartesian(*(100.0 * direction))
    q_near = multipole_potential(quad, octo, near, order="quadrupole").vector
    q_far = multipole_potential(quad, octo, far, order="quadrupole").vector
    np.testing.assert_allclose(q_far, q_near / 8.0, rtol=1e-12)
    o_near = multipole_potential(quad, octo, near).vector - q_near
    o_far = multipole_potential(quad, octo, far).vector - q_far
    np.testing.assert_allclose(o_far, o_near / 16.0, rtol=1e-12)


def _cross_product_potential(spec, points, n_samples):
    # _eval_grid, not sample_curve: the reference grids reach 2^20 samples and
    # are used once, so they stay out of sample_curve's cache
    pos, der = spec._eval_grid(n_samples)
    out = []
    for x in points:
        sep = x - pos
        dist = np.sqrt((sep**2).sum(axis=1))
        out.append(np.cross(der, sep).T @ (1.0 / dist**3) / n_samples * 2.0 * math.pi)
    return np.array(out)


@pytest.mark.parametrize("n_points", [1, 1000])
def test_biot_savart_kernel_matches_a_cross_product_sum(n_points):
    # a chunk of the batch kernel holds 976 points at 2048 samples, so 1000 points span two
    spec = sampled_from_spec(TorusKnot(3, 4), 96)
    assert biot_savart_samples(spec) == 2048
    rng = np.random.default_rng(5)
    directions = rng.normal(size=(n_points, 3))
    points = rng.uniform(4.0, 40.0, (n_points, 1)) * directions / np.linalg.norm(directions, axis=1)[:, None]
    got = _biot_savart_batch(spec, points)
    want = _cross_product_potential(spec, points, 2048)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_one_point_call_is_a_row_of_the_batch():
    # the one-point call is the n = 1 case of the batch kernel, bit for bit
    base = np.asarray(sampled_from_spec(TorusKnot(2, 5), 300).points)
    rng = np.random.default_rng(8)
    curve = SampledCurve.from_array(base + 0.05 * rng.normal(size=base.shape))
    directions = rng.normal(size=(25, 3))
    radii = rng.uniform(5.0, 60.0, (25, 1))
    points = [FieldPoint.from_cartesian(*x) for x in radii * directions / np.linalg.norm(directions, axis=1)[:, None]]
    batch = _biot_savart_batch(curve, np.array([point.cartesian for point in points]))
    one = np.array([biot_savart_dipole_line(curve, point).vector for point in points])
    np.testing.assert_array_equal(one, batch)


def test_one_point_call_evaluates_the_given_coordinates():
    # FieldPoint keeps x, y, z as given, so no spherical round trip moves the point
    base = np.asarray(sampled_from_spec(TorusKnot(2, 3), 300).points)
    rng = np.random.default_rng(12)
    curve = SampledCurve.from_array(base + 0.05 * rng.normal(size=base.shape))
    directions = rng.normal(size=(50, 3))
    points = rng.uniform(5.0, 60.0, (50, 1)) * directions / np.linalg.norm(directions, axis=1)[:, None]
    for x in points:
        one = biot_savart_dipole_line(curve, FieldPoint.from_cartesian(*x)).vector
        np.testing.assert_array_equal(one, _biot_savart_batch(curve, x[None])[0])


def test_biot_savart_refusal_boundary():
    # the refusal distance is RESOLVED_SPAN * max|r'| / MAX_SAMPLES, 1.37e-4 for
    # the unknot of speed 3; its tau = 0 sample sits at (3, 0, 0)
    limit = RESOLVED_SPAN * 3.0 / MAX_SAMPLES
    assert _max_speed(UnknotXY()) == pytest.approx(3.0, rel=1e-15)
    assert limit == pytest.approx(1.373e-4, rel=1e-3)
    inside = FieldPoint.from_cartesian(3.0 + 0.5 * limit, 0.0, 0.0)
    outside = FieldPoint.from_cartesian(3.0 + 2.0 * limit, 0.0, 0.0)
    with pytest.raises(ValueError, match="closer than"):
        biot_savart_dipole_line(UnknotXY(), inside)
    # just below the limit, off the grid nodes and away from the x axis
    tau = 0.123
    below = (3.0 - 0.9 * limit) * np.array([math.cos(tau), math.sin(tau), 0.0])
    with pytest.raises(ValueError, match="closer than"):
        biot_savart_dipole_line(UnknotXY(), FieldPoint.from_cartesian(*below))
    got = biot_savart_dipole_line(UnknotXY(), outside).vector
    want = _cross_product_potential(UnknotXY(), [outside.cartesian], MAX_SAMPLES)[0]
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("spec", [TorusKnot(2, 3), UnknotXY()], ids=lambda s: s.label())
def test_biot_savart_is_accurate_near_the_curve(spec):
    # the fixed 2048-sample grid was 0.24 relative off at d = 0.01 on (2, 3);
    # one point at each distance, off the grid nodes
    distances = np.array([0.1, 0.01, 0.003])
    rng = np.random.default_rng(4)
    pos, der = spec._eval_arrays(rng.uniform(0.0, 2.0 * math.pi, len(distances)))
    normals = np.cross(der, rng.normal(size=(len(distances), 3)))
    points = pos + distances[:, None] * normals / np.linalg.norm(normals, axis=1)[:, None]
    got = np.array([biot_savart_dipole_line(spec, FieldPoint.from_cartesian(*x)).vector for x in points])
    want = _cross_product_potential(spec, points, MAX_SAMPLES)
    assert (np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)).max() <= 1e-12


def _loop_multipole(quad, octo, r, dirs, order):
    # per-component sums over the unordered index tuples, as in the module docstring
    Q, O = quad.Q_tensor, octo.O_tensor
    out = np.zeros((len(r), 3))
    for i in range(3):
        quad_sum = sum(Q[i, j, k] * dirs[:, j] * dirs[:, k] for j, k in SORTED_PAIRS)
        out[:, i] = (3.0 * quad_sum + quad.Q_trace[i]) / r**3
        if order == "octopole":
            octo_sum = sum(
                O[i, j, k, l] * dirs[:, j] * dirs[:, k] * dirs[:, l] for j, k, l in SORTED_TRIPLES
            )
            linear = sum(octo.O_contracted[i, p] * dirs[:, p] for p in range(3))
            out[:, i] += (7.5 * octo_sum - 1.5 * linear) / r**4
    return out


@pytest.mark.parametrize("n_dirs", [1, 5000])
@pytest.mark.parametrize("order", ["quadrupole", "octopole"])
def test_multipole_assembly_matches_a_per_component_loop(n_dirs, order):
    spec = sampled_from_spec(TorusKnot(3, 4), 64)
    spec = SampledCurve.from_array(
        np.asarray(spec.points) + 0.05 * np.random.default_rng(2).normal(size=(64, 3))
    )
    quad = quadrupole_moments(spec)
    octo = octopole_moments(spec)
    rng = np.random.default_rng(n_dirs)
    dirs = rng.normal(size=(n_dirs, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    r = rng.uniform(1.0, 3.0, n_dirs)  # keeps both orders at comparable size
    got = _multipole_components(quad, octo, r, dirs, order)
    want = _loop_multipole(quad, octo, r, dirs, order)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    with pytest.raises(ValueError):
        _multipole_components(quad, octo, r, dirs, "hexadecapole")


def test_no_dipole_term_in_the_exact_field():
    # |A| r^3 stays bounded, so there is no 1/r^2 component to the field
    spec = TorusKnot(2, 3)
    direction = np.array([0.36, -0.48, 0.8])
    values = [
        biot_savart_dipole_line(spec, FieldPoint.from_cartesian(*(r * direction))).magnitude * r**3
        for r in (50.0, 100.0, 200.0)
    ]
    assert max(values) / min(values) < 1.2


def test_line_integral_sample_count_converged():
    spec = TorusKnot(2, 3)
    point = FieldPoint.from_cartesian(15.0, 8.0, -11.0)
    default = biot_savart_dipole_line(spec, point).vector
    fine = _cross_product_potential(spec, [point.cartesian], 1 << 16)[0]
    np.testing.assert_allclose(default, fine, atol=1e-12)


def _noisy_dense_curve():
    # 1500 points, bandwidth 750: the old fixed 2048-sample grid refused it
    tau = np.arange(1500) * (2.0 * math.pi / 1500)
    tube = 2.0 + np.cos(3 * tau)
    pos = np.stack([tube * np.cos(2 * tau), tube * np.sin(2 * tau), -np.sin(3 * tau)], axis=1)
    return SampledCurve.from_array(pos + 0.05 * np.random.default_rng(0).normal(size=pos.shape))


def test_biot_savart_resolves_a_dense_curve():
    curve = _noisy_dense_curve()
    assert curve.bandwidth == 750 and biot_savart_samples(curve) == 4096
    assert biot_savart_samples(sampled_from_spec(curve, 1024)) == 2048
    directions = np.random.default_rng(1).normal(size=(4, 3))
    points = 10.0 * directions / np.linalg.norm(directions, axis=1)[:, None]
    got = np.array([biot_savart_dipole_line(curve, FieldPoint.from_cartesian(*x)).vector for x in points])
    want = _cross_product_potential(curve, points, 1 << 16)
    assert (np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)).max() < 1e-6


def test_exact_field_bruteforce_accepts_a_dense_curve():
    kin = ScatteringKinematics.from_angles(0.05, 0.4, 1.1, 2.0, -0.6, 4.5)
    grid = BruteforceGrid(n_polar=8, n_azimuth=8, radial_points=4, tail_panels=6, field="biot-savart")
    value = vni_bruteforce(_noisy_dense_curve(), kin, r_max=135.0, grid_spec=grid)
    assert np.isfinite(value.real) and np.isfinite(value.imag)


def test_points_on_or_near_the_curve_are_rejected():
    with pytest.raises(ValueError):
        biot_savart_dipole_line(UnknotXY(), FieldPoint.from_cartesian(3.0, 0.0, 0.0))


def test_field_point_validation_and_roundtrip():
    with pytest.raises(ValueError):
        FieldPoint.from_spherical(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        FieldPoint.from_spherical(-2.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        FieldPoint.from_spherical(1.0, math.nan, 0.0)
    with pytest.raises(ValueError):
        FieldPoint.from_spherical(math.inf, 1.0, 1.0)
    with pytest.raises(ValueError):
        FieldPoint.from_cartesian(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        FieldPoint.from_cartesian(1.0, math.nan, 0.0)
    with pytest.raises(ValueError):
        FieldPoint.from_cartesian(math.inf, 0.0, 0.0)
    with pytest.raises(ValueError):
        multipole_potential(
            quadrupole_moments(UnknotXY()),
            octopole_moments(UnknotXY()),
            FieldPoint.from_spherical(10.0, 1.0, 1.0),
            order="dipole",
        )

    point = FieldPoint.from_cartesian(3.0, -4.0, 12.0)
    assert point.r == 13.0
    np.testing.assert_array_equal(point.cartesian, [3.0, -4.0, 12.0])
    spherical = FieldPoint.from_spherical(2.0, 0.7, -2.1)
    want = [math.sin(0.7) * math.cos(-2.1), math.sin(0.7) * math.sin(-2.1), math.cos(0.7)]
    np.testing.assert_allclose(spherical.direction_cosines, want, rtol=1e-15)
    assert spherical.r == pytest.approx(2.0, rel=1e-15)
    assert np.linalg.norm(point.direction_cosines) == pytest.approx(1.0, abs=1e-15)
