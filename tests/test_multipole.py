"""Moment tensors cross-checked against an arrangement-sum oracle and frozen tables.

The production octopole is assembled from one matmul and a symmetrisation of
its index slots. The oracle below instead expands the defining sum over every
distinct ordered arrangement of the index multiset, one np.cross integrand per
arrangement, so agreement means the assembly is right, not just
self-consistent.
"""

import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotscatter import (
    SampledCurve,
    TorusKnot,
    UnknotXY,
    UnknotXZ,
    UnknotYZ,
    octopole_moments,
    quadrupole_moments,
)
from knotscatter.curves import TWO_PI, sample_curve, sampled_from_spec
from knotscatter.multipole import SORTED_PAIRS, SORTED_TRIPLES, dipole_moment, moments_to_dict

PI = math.pi

NONRESONANT_PAIRS = [(2, 3), (2, 5), (3, 4)]
ALL_PAIRS = [(2, 3), (3, 2), (2, 5), (3, 4)]


def oracle_octopole_entry(spec, i, j, k, l, n_samples=2048):
    """Arrangement-sum form of the octopole entry O[i, j, k, l]."""
    _, pos, der = sample_curve(spec, n_samples)
    total = np.zeros(n_samples)
    for b, c, d in set(permutations((j, k, l))):
        basis = np.zeros(3)
        basis[b] = 1.0
        total += np.cross(der, basis)[:, i] * pos[:, c] * pos[:, d]
    return total.mean() * TWO_PI


def oracle_contracted_entry(spec, i, p, n_samples=2048):
    """Contracted octopole entry from its own defining integrand."""
    _, pos, der = sample_curve(spec, n_samples)
    basis = np.zeros(3)
    basis[p] = 1.0
    values = np.cross(der, basis)[:, i] * (pos**2).sum(axis=1)
    values += 2.0 * np.cross(der, pos)[:, i] * pos[:, p]
    return values.mean() * TWO_PI


def oracle_quadrupole_entry(spec, i, j, k, n_samples):
    """Arrangement-sum form of the quadrupole entry Q[i, j, k]."""
    _, pos, der = sample_curve(spec, n_samples)
    total = np.zeros(n_samples)
    for b, c in set(permutations((j, k))):
        total += np.cross(der, np.eye(3)[b])[:, i] * pos[:, c]
    return total.mean() * TWO_PI


def oracle_quadrupole_tensor(spec, n_samples):
    """Q assembled entry by entry from the arrangement-sum oracle."""
    want = np.zeros((3, 3, 3))
    for i in range(3):
        for j, k in SORTED_PAIRS:
            want[i, j, k] = want[i, k, j] = oracle_quadrupole_entry(spec, i, j, k, n_samples)
    return want


def noisy_sampled_knot(n_points, seed=0):
    """A (3, 4) torus knot sampled at n_points, with noise that fills its whole spectrum."""
    tau = np.arange(n_points) * (TWO_PI / n_points)
    pos, _ = TorusKnot(3, 4)._eval_arrays(tau)
    return SampledCurve.from_array(pos + 0.05 * np.random.default_rng(seed).normal(size=pos.shape))


def assert_octopole_matches_oracle(octo, spec, n_samples, rtol):
    want = np.array([[oracle_octopole_entry(spec, i, *jkl, n_samples) for jkl in SORTED_TRIPLES] for i in range(3)])
    got = np.array([[octo.O_tensor[(i,) + jkl] for jkl in SORTED_TRIPLES] for i in range(3)])
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()
    want = np.array([[oracle_contracted_entry(spec, i, p, n_samples) for p in range(3)] for i in range(3)])
    assert np.abs(octo.O_contracted - want).max() <= rtol * np.abs(want).max()


@pytest.mark.parametrize(
    "spec",
    [
        TorusKnot(2, 3),
        TorusKnot(3, 2),
        UnknotXZ(),
        UnknotYZ(),
        sampled_from_spec(TorusKnot(2, 3), 64),
        noisy_sampled_knot(900),
    ],
    ids=lambda s: s.label(),
)
def test_octopole_tensor_matches_arrangement_oracle(spec):
    octo = octopole_moments(spec)
    for i in range(3):
        for j, k, l in SORTED_TRIPLES:
            want = oracle_octopole_entry(spec, i, j, k, l)
            assert abs(octo.O_tensor[i, j, k, l] - want) < 1e-10
        for p in range(3):
            want = oracle_contracted_entry(spec, i, p)
            assert abs(octo.O_contracted[i, p] - want) < 1e-10


@pytest.mark.parametrize("n_points", [700, 900, 1500])
def test_noisy_curve_moments_match_an_eight_fold_grid(n_points):
    # the noise puts energy up to the Nyquist bin N/2, so the octopole
    # integrand reaches frequency 3N/2; a fixed 1024-sample grid aliases it
    curve = noisy_sampled_knot(n_points)
    fine = 8 * n_points
    want = oracle_quadrupole_tensor(curve, fine)
    assert np.abs(quadrupole_moments(curve).Q_tensor - want).max() <= 1e-12 * np.abs(want).max()
    assert_octopole_matches_oracle(octopole_moments(curve), curve, fine, 1e-12)


@pytest.mark.parametrize(
    "spec",
    [TorusKnot(2, 3), TorusKnot(3, 2), TorusKnot(2, 5), TorusKnot(3, 4), UnknotXY(), UnknotXZ(), UnknotYZ()],
    ids=lambda s: s.label(),
)
def test_preset_moments_on_the_bandwidth_grid_equal_the_1024_sample_grid(spec):
    # UnknotXY has a round-off octopole, so the scale never drops below 1
    octo = octopole_moments(spec)
    O_want = np.reshape([oracle_octopole_entry(spec, *ijkl, 1024) for ijkl in np.ndindex(3, 3, 3, 3)], (3, 3, 3, 3))
    Oc_want = np.reshape([oracle_contracted_entry(spec, *ip, 1024) for ip in np.ndindex(3, 3)], (3, 3))
    pairs = [
        (quadrupole_moments(spec).Q_tensor, oracle_quadrupole_tensor(spec, 1024)),
        (octo.O_tensor, O_want),
        (octo.O_contracted, Oc_want),
        (dipole_moment(spec), sample_curve(spec, 1024)[2].mean(axis=0) * TWO_PI),
    ]
    for got, want in pairs:
        assert np.abs(got - want).max() <= 1e-13 * max(np.abs(want).max(), 1.0)


def test_random_curve_quadrupole_matches_arrangement_oracle():
    # a 300-point random curve has its whole spectrum filled, unlike any preset
    curve = SampledCurve.from_array(np.random.default_rng(5).normal(size=(300, 3)))
    want = oracle_quadrupole_tensor(curve, 8 * 300)
    assert np.abs(quadrupole_moments(curve).Q_tensor - want).max() <= 1e-12 * np.abs(want).max()


def test_contraction_relation_between_oracles():
    # Oc[i, p] = sum_m (1 + 2 delta_pm) O[i, p, m, m], checked on the oracles themselves
    for spec in (TorusKnot(2, 3), UnknotXZ()):
        for i in range(3):
            for p in range(3):
                direct = oracle_contracted_entry(spec, i, p)
                summed = sum(
                    (1.0 + 2.0 * (p == m)) * oracle_octopole_entry(spec, i, p, m, m)
                    for m in range(3)
                )
                assert abs(direct - summed) < 1e-10


@pytest.mark.parametrize("p,q", ALL_PAIRS)
def test_torus_quadrupole_table(p, q):
    quad = quadrupole_moments(TorusKnot(p, q))
    scale = 9.0 * p * PI / 2.0
    assert abs(quad.K[0]) < 1e-12
    assert abs(quad.K[1]) < 1e-12
    assert abs(quad.K[2] + scale) < 1e-10 * scale
    expected = np.zeros((3, 3, 3))
    expected[0, 0, 2] = expected[0, 2, 0] = scale
    expected[1, 1, 2] = expected[1, 2, 1] = scale
    expected[2, 0, 0] = expected[2, 1, 1] = -scale
    np.testing.assert_allclose(quad.Q_tensor, expected, atol=1e-10 * scale)
    np.testing.assert_allclose(quad.Q_trace, [0.0, 0.0, 2.0 * scale], atol=1e-10 * scale)


def test_unknot_quadrupole_scalars():
    np.testing.assert_allclose(quadrupole_moments(UnknotXY()).K, [0.0, 0.0, -9.0 * PI], atol=1e-12)
    # integral of x dz over the xz unknot: (2 + cos t) cos t integrates to pi
    np.testing.assert_allclose(quadrupole_moments(UnknotXZ()).K, [0.0, PI, 0.0], atol=1e-12)
    np.testing.assert_allclose(quadrupole_moments(UnknotYZ()).K, [-PI, 0.0, 0.0], atol=1e-12)


def test_quadrupole_case_structure():
    quad = quadrupole_moments(TorusKnot(2, 3))
    # all-distinct lower pairs vanish identically
    assert quad.Q_tensor[0, 1, 2] == 0.0
    assert quad.Q_tensor[1, 0, 2] == 0.0
    assert quad.Q_tensor[2, 0, 1] == 0.0
    np.testing.assert_array_equal(quad.Q_tensor, np.swapaxes(quad.Q_tensor, 1, 2))
    # the lower-pair trace carries twice the axial vector
    for i in range(3):
        assert abs(sum(quad.Q_tensor[i, j, j] for j in range(3)) - 2.0 * quad.K[i]) < 1e-12
    np.testing.assert_array_equal(quad.Q_trace, -2.0 * quad.K)


@pytest.mark.parametrize("p,q", NONRESONANT_PAIRS)
def test_torus_octopole_table(p, q):
    octo = octopole_moments(TorusKnot(p, q))
    O, Oc = octo.O_tensor, octo.O_contracted
    scale = 2.0 * q * PI
    np.testing.assert_allclose([O[0, 1, 1, 1], O[0, 0, 0, 1], O[0, 1, 2, 2]], scale, rtol=1e-10)
    assert abs(Oc[0, 1] - 5.0 * scale) < 1e-10 * scale
    np.testing.assert_allclose([O[1, 0, 0, 0], O[1, 0, 1, 1], O[1, 0, 2, 2]], -scale, rtol=1e-10)
    assert abs(Oc[1, 0] + 5.0 * scale) < 1e-10 * scale
    assert abs(O[2, 0, 1, 2]) < 1e-10 * scale


def test_unknot_octopole_tables():
    octo = octopole_moments(UnknotXZ())
    O, Oc = octo.O_tensor, octo.O_contracted
    assert abs(O[0, 0, 0, 1] + 4.0 * PI) < 1e-10
    assert abs(Oc[0, 1] + 4.0 * PI) < 1e-10
    assert abs(O[1, 0, 0, 0] - 4.0 * PI) < 1e-10
    assert abs(O[1, 0, 2, 2] - 4.0 * PI) < 1e-10
    assert abs(Oc[1, 0] - 16.0 * PI) < 1e-10
    assert abs(O[2, 0, 1, 2] + 4.0 * PI) < 1e-10

    octo = octopole_moments(UnknotYZ())
    O, Oc = octo.O_tensor, octo.O_contracted
    assert abs(O[0, 1, 1, 1] + 4.0 * PI) < 1e-10
    assert abs(O[0, 1, 2, 2] + 4.0 * PI) < 1e-10
    assert abs(Oc[0, 1] + 16.0 * PI) < 1e-10
    assert abs(O[1, 0, 1, 1] - 4.0 * PI) < 1e-10
    assert abs(Oc[1, 0] - 4.0 * PI) < 1e-10
    assert abs(O[2, 0, 1, 2] - 4.0 * PI) < 1e-10

    # the planar unknot has no octopole structure at all
    assert np.max(np.abs(octopole_moments(UnknotXY()).O_tensor)) < 1e-12
    assert np.max(np.abs(octopole_moments(UnknotXY()).O_contracted)) < 1e-12


def test_resonant_pairs_shift_the_tabulated_moments():
    """The tabulated torus values assume no trigonometric rectification.

    The moment integrands are trigonometric polynomials with frequencies
    a*q - b*p where a <= 3, b <= 2 at octopole order and a <= 2, b <= 1 at
    quadrupole order. Whenever a*q = b*p is solvable in that range, extra
    frequency-zero products survive the loop integral and shift it away from
    the tabulated value, so those pairs are pinned here instead of being fed
    through the table tests above.
    """
    # (3, 2): 3q = 2p, octopole-resonant only
    octo = octopole_moments(TorusKnot(3, 2))
    assert abs(octo.O_tensor[0, 1, 1, 1] - 4.0 * PI) > 0.7
    assert abs(octo.O_tensor[2, 0, 1, 2]) > 1.5
    quad = quadrupole_moments(TorusKnot(3, 2))
    assert abs(quad.K[2] + 13.5 * PI) < 1e-12  # quadrupole unaffected
    assert abs(quad.K[1]) < 1e-12

    # (1, 1) and (2, 1): quadrupole-resonant, the second component rectifies
    assert abs(quadrupole_moments(TorusKnot(1, 1)).K[1] + 2.0 * PI) < 1e-12
    assert abs(quadrupole_moments(TorusKnot(2, 1)).K[1] + 0.5 * PI) < 1e-12


@pytest.mark.parametrize("p,q", ALL_PAIRS)
def test_quadrupole_factorization(p, q):
    torus = quadrupole_moments(TorusKnot(p, q))
    planar = quadrupole_moments(UnknotXY())
    np.testing.assert_allclose(torus.K, 0.5 * p * planar.K, atol=1e-10 * p)
    np.testing.assert_allclose(torus.Q_tensor, 0.5 * p * planar.Q_tensor, atol=1e-10 * p)
    np.testing.assert_allclose(torus.Q_trace, 0.5 * p * planar.Q_trace, atol=1e-10 * p)


@pytest.mark.parametrize("p,q", NONRESONANT_PAIRS)
def test_octopole_factorization(p, q):
    torus = octopole_moments(TorusKnot(p, q))
    xz = octopole_moments(UnknotXZ())
    yz = octopole_moments(UnknotYZ())
    np.testing.assert_allclose(
        torus.O_tensor, -0.5 * q * (xz.O_tensor + yz.O_tensor), atol=1e-10 * q
    )
    np.testing.assert_allclose(
        torus.O_contracted, -0.5 * q * (xz.O_contracted + yz.O_contracted), atol=1e-10 * q
    )


def test_octopole_factorization_fails_on_resonant_pair():
    torus = octopole_moments(TorusKnot(3, 2))
    xz = octopole_moments(UnknotXZ())
    yz = octopole_moments(UnknotYZ())
    assert np.max(np.abs(torus.O_tensor + 1.0 * (xz.O_tensor + yz.O_tensor))) > 0.7


@pytest.mark.parametrize(
    "spec",
    [TorusKnot(2, 3), TorusKnot(3, 4), UnknotXY(), UnknotXZ(), UnknotYZ(), sampled_from_spec(TorusKnot(2, 5), 64)],
    ids=lambda s: s.label(),
)
def test_dipole_moment_vanishes(spec):
    assert np.max(np.abs(dipole_moment(spec))) < 1e-12


@settings(deadline=None, max_examples=20)
@given(scale=st.floats(0.5, 2.0, allow_nan=False))
def test_moment_scaling_with_curve_size(scale):
    base = sampled_from_spec(TorusKnot(2, 3), 64)
    scaled = SampledCurve(tuple(tuple(scale * c for c in pt) for pt in base.points))
    k_base = quadrupole_moments(base).K
    k_scaled = quadrupole_moments(scaled).K
    np.testing.assert_allclose(k_scaled, scale**2 * k_base, rtol=1e-9, atol=1e-9)
    o_base = octopole_moments(base).O_tensor
    o_scaled = octopole_moments(scaled).O_tensor
    np.testing.assert_allclose(o_scaled, scale**3 * o_base, rtol=1e-9, atol=1e-9)


def test_moments_to_dict_shapes():
    quad = quadrupole_moments(UnknotXY())
    octo = octopole_moments(UnknotXY())
    document = moments_to_dict(quad, octo)
    assert sorted(document) == ["K", "O", "O_contracted", "Q", "Q_trace"]
    assert np.asarray(document["K"]).shape == (3,)
    assert np.asarray(document["Q"]).shape == (3, 3, 3)
    assert np.asarray(document["O"]).shape == (3, 3, 3, 3)
    assert np.asarray(document["O_contracted"]).shape == (3, 3)
