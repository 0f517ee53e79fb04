"""Assembled matrix elements: structure, factorization, and the volume-quadrature oracle."""

import dataclasses
import math
import pickle

import mpmath
import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from knotscatter import (
    DirectionCosineMonomial,
    SampledCurve,
    ScatteringKinematics,
    TorusKnot,
    UnknotXY,
    UnknotXZ,
    UnknotYZ,
    born_amplitude,
    factorization_residual,
    octopole_moments,
    quadrupole_moments,
    random_kinematics,
    triad_amplitude,
)
from knotscatter.born import amplitude_to_dict
from knotscatter.curves import moment_samples, sample_curve, sampled_from_spec
from knotscatter.multipole import EPS, SORTED_PAIRS, SORTED_TRIPLES
from knotscatter.oracles import BruteforceGrid, spherical_harmonic, sphere_quadrature_bracket, vni_bruteforce
from knotscatter.potential import _FACTORS, _MONOMIALS, _PIECES, _moment_rows
from knotscatter.radial import radial_coefficients

KIN = ScatteringKinematics.from_angles(0.5, 0.4, 1.1, 2.0, -0.6)


def _components(amp):
    return np.array([amp.v1, amp.v2, amp.v3, amp.v4])


def test_kinematics_derived_quantities():
    assert KIN.k == pytest.approx(0.5)
    assert KIN.lambda0 == 3.5
    np.testing.assert_allclose(KIN.q_vec, np.array(KIN.k_i) - np.array(KIN.k_n), atol=0)
    np.testing.assert_allclose(KIN.K_vec, np.array(KIN.k_i) + np.array(KIN.k_n), atol=0)
    assert np.linalg.norm(KIN.q_hat) == pytest.approx(1.0)
    assert KIN.q_mag == pytest.approx(np.linalg.norm(KIN.q_vec))
    swapped = KIN.swapped()
    assert swapped.k_i == KIN.k_n
    assert swapped.k_n == KIN.k_i
    assert swapped.q_mag == pytest.approx(KIN.q_mag)


def test_kinematics_compute_q_and_K_once(monkeypatch):
    # the amplitude reads |q|, qhat and K from the kinematics instead of
    # recomputing them: no norm is taken once the kinematics exists
    kin = ScatteringKinematics.from_angles(0.7, 0.4, 1.1, 2.0, -0.6)
    born_amplitude(TorusKnot(2, 3), kin)  # fills the moment and cutoff caches
    norm, calls = np.linalg.norm, []
    monkeypatch.setattr(np.linalg, "norm", lambda *args, **kwargs: calls.append(args) or norm(*args, **kwargs))
    born_amplitude(TorusKnot(2, 3), kin)
    factorization_residual(2, 3, [kin])
    assert calls == []
    assert kin.q_hat is kin.q_hat
    for arr in (kin.q_vec, kin.q_hat, kin.K_vec):
        assert not arr.flags.writeable


DERIVED = ("k", "q_vec", "q_mag", "q_hat", "K_vec")


def test_kinematics_derive_their_fields_at_construction():
    kin = ScatteringKinematics.from_angles(0.7, 0.4, 1.1, 2.0, -0.6, 4.0)
    assert set(DERIVED) <= vars(kin).keys()
    twin = ScatteringKinematics(kin.k_i, kin.k_n, kin.lambda0)
    restored = pickle.loads(pickle.dumps(kin))
    for other in (twin, restored):
        assert other == kin
        assert hash(other) == hash(kin)
        assert repr(other) == repr(kin) == f"ScatteringKinematics(k_i={kin.k_i!r}, k_n={kin.k_n!r}, lambda0=4.0)"
        for name in DERIVED:
            np.testing.assert_array_equal(getattr(other, name), getattr(kin, name))
        for arr in (other.q_vec, other.q_hat, other.K_vec):
            assert not arr.flags.writeable
    moved = dataclasses.replace(kin, lambda0=5.0)
    assert moved.lambda0 == 5.0
    assert moved != kin
    assert moved.q_vec is not kin.q_vec
    np.testing.assert_array_equal(moved.q_hat, kin.q_hat)
    turned = dataclasses.replace(kin, k_n=kin.k_i[::-1])
    np.testing.assert_array_equal(turned.q_vec, np.array(kin.k_i) - np.array(kin.k_i[::-1]))
    np.testing.assert_array_equal(turned.K_vec, np.array(kin.k_i) + np.array(kin.k_i[::-1]))
    assert turned.q_mag == float(np.linalg.norm(turned.q_vec))
    np.testing.assert_array_equal(turned.q_hat, turned.q_vec / turned.q_mag)


@pytest.mark.parametrize(
    "make",
    [
        lambda: ScatteringKinematics((1.2e154, 0.0, 0.0), (-1.2e154, 0.0, 0.0)),  # |q|^2 = 5.8e308
        lambda: ScatteringKinematics((1e200, 0.0, 0.0), (0.0, 1e100, 0.0)),  # off shell, |k_i| = inf
        lambda: ScatteringKinematics.from_angles(1e200, 0.4, 1.1, 2.0, -0.6),
    ],
    ids=["back-scattered", "off-shell", "from-angles"],
)
def test_overflowing_norms_are_refused(make):
    # an inf norm would pass as |q| or, through inf - inf = NaN, read as forward scattering
    with pytest.raises(ValueError, match="overflow"):
        make()


def test_largest_wave_vectors_stay_accepted():
    kin = ScatteringKinematics((1e153, 0.0, 0.0), (-1e153, 0.0, 0.0))
    assert kin.q_mag == 2e153
    np.testing.assert_array_equal(kin.q_hat, [1.0, 0.0, 0.0])


def test_kinematics_validation():
    with pytest.raises(ValueError):
        ScatteringKinematics(k_i=(0.5, 0.0, 0.0), k_n=(0.0, 0.6, 0.0))  # off shell
    with pytest.raises(ValueError):
        ScatteringKinematics(k_i=(0.0, 0.0, 0.0), k_n=(0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        ScatteringKinematics(k_i=(0.5, 0.0, 0.0), k_n=(0.5, 0.0, 0.0))  # forward
    with pytest.raises(ValueError):
        ScatteringKinematics(k_i=(0.5, 0.0, 0.0), k_n=(0.0, 0.5, 0.0), lambda0=-1.0)
    with pytest.raises(ValueError):
        ScatteringKinematics(k_i=(math.inf, 0.0, 0.0), k_n=(math.inf, 0.0, 0.0))
    with pytest.raises(ValueError):
        ScatteringKinematics.from_angles(-0.5, 0.1, 0.2, 0.3, 0.4)


def test_amplitude_is_linear_in_the_coupling():
    spec = TorusKnot(2, 3)
    base = _components(born_amplitude(spec, KIN, 1.0))
    scaled = _components(born_amplitude(spec, KIN, -2.5))
    np.testing.assert_allclose(scaled, -2.5 * base, rtol=1e-14)


def test_backscattering_amplitude_vanishes():
    # k_n = -k_i makes the momentum sum exactly zero, so every term carries
    # a vanishing moment contraction
    k_i = (0.21, -0.33, 0.29)
    kin = ScatteringKinematics(k_i=k_i, k_n=tuple(-c for c in k_i))
    amp = born_amplitude(TorusKnot(2, 3), kin)
    assert amp.v1 == 0
    assert amp.v2 == 0
    assert amp.v3 == 0
    assert amp.v4 == 0
    assert amp.total == 0


def test_conjugation_under_momentum_exchange():
    spec = TorusKnot(2, 3)
    forward = _components(born_amplitude(spec, KIN))
    backward = _components(born_amplitude(spec, KIN.swapped()))
    np.testing.assert_allclose(backward, np.conj(forward), rtol=1e-12, atol=1e-15)


def test_joint_rotational_covariance():
    base = sampled_from_spec(TorusKnot(2, 3), 128)
    rotation = Rotation.from_rotvec([0.4, 0.2, -0.9]).as_matrix()
    rotated = SampledCurve.from_array(np.asarray(base.points) @ rotation.T)
    kin_rot = ScatteringKinematics(
        k_i=tuple(rotation @ np.array(KIN.k_i)),
        k_n=tuple(rotation @ np.array(KIN.k_n)),
        lambda0=KIN.lambda0,
    )
    one = born_amplitude(base, KIN).total
    two = born_amplitude(rotated, kin_rot).total
    assert two == pytest.approx(one, rel=1e-9)


def test_planar_unknot_has_no_octopole_response():
    amp = born_amplitude(UnknotXY(), KIN)
    scale = abs(amp.v1) + abs(amp.v2)
    assert scale > 0
    assert abs(amp.v3) < 1e-14 * scale
    assert abs(amp.v4) < 1e-14 * scale


def test_axis_aligned_momentum_sum_turns_off_octopole_terms():
    # k_i + k_n along z selects only the z rows of the octopole tensors,
    # and those vanish for a torus knot
    kin = ScatteringKinematics(k_i=(0.2, 0.3, 0.6), k_n=(-0.2, -0.3, 0.6))
    amp = born_amplitude(TorusKnot(2, 3), kin)
    scale = abs(amp.total)
    assert scale > 0
    assert abs(amp.v3) < 1e-12 * scale
    assert abs(amp.v4) < 1e-12 * scale


def _noisy_curve():
    base = np.asarray(sampled_from_spec(TorusKnot(2, 3), 300).points)
    return SampledCurve.from_array(base + 0.05 * np.random.default_rng(17).normal(size=base.shape))


def _kinematics_at(a, lambda0):
    # the README angles, with k scaled so that |q| lambda0 = a
    unit = ScatteringKinematics.from_angles(1.0, 0.4, 1.1, 2.0, -0.6, lambda0)
    return ScatteringKinematics.from_angles(a / (unit.q_mag * lambda0), 0.4, 1.1, 2.0, -0.6, lambda0)


def _docstring_pieces(spec, kin, g):
    # v1..v4 as grouped in born's module docstring, by the harmonic route: the
    # coefficient maps A(l, m) = i^l Y_lm(qhat) rho_A(l) and B(l, m) =
    # i^l k Y_lm(qhat) rho_B(l), each bracket by sphere quadrature
    quad, octo = quadrupole_moments(spec), octopole_moments(spec)
    rho_a0, rho_a2, rho_b1, rho_b3 = radial_coefficients(kin)
    K = kin.K_vec
    theta = math.acos(max(-1.0, min(1.0, kin.q_hat[2])))
    phi = math.atan2(kin.q_hat[1], kin.q_hat[0])

    def harmonic_map(rho, scale):
        return {(l, m): (1j) ** l * scale * complex(spherical_harmonic(l, m, theta, phi)) * r for l, r in rho.items()
                for m in range(-l, l + 1)}

    A = harmonic_map({0: rho_a0, 2: rho_a2}, 1.0)
    B = harmonic_map({1: rho_b1, 3: rho_b3}, kin.q_mag)

    def bracket(indices, coeffs):
        mono = DirectionCosineMonomial(tuple(indices.count(axis) for axis in range(3)))
        return sphere_quadrature_bracket(mono, coeffs)

    v1 = -g * sum(3 * (K @ quad.Q_tensor[:, j, k]) * bracket((j, k), A) for j, k in SORTED_PAIRS)
    v2 = -g * (K @ quad.Q_trace) * math.sqrt(4 * math.pi) * A[(0, 0)]
    v3 = -7.5 * g * sum((K @ octo.O_tensor[:, j, k, l]) * bracket((j, k, l), B) for j, k, l in SORTED_TRIPLES)
    v4 = 1.5 * g * sum((K @ octo.O_contracted[:, p]) * bracket((p,), B) for p in range(3))
    return np.array([v1, v2, v3, v4])


@pytest.mark.parametrize(
    "spec,lambda0",
    [(TorusKnot(2, 3), 3.5), (TorusKnot(3, 2), 3.5), (UnknotXZ(), 3.5), (_noisy_curve(), 4.5)],
    ids=["torus-2-3", "torus-3-2", "unknot-xz", "noisy-300"],
)
def test_each_piece_is_its_docstring_formula(spec, lambda0):
    # both sides of the radial switch at a = 2; every piece is checked, so a
    # term moved from one piece to another fails
    for a in (1e-3, 0.4, 1.9, 2.1, 9.0, 80.0, 700.0):
        kin = _kinematics_at(a, lambda0)
        got = _components(born_amplitude(spec, kin, -1.7))
        want = _docstring_pieces(spec, kin, -1.7)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), a


def _current_moments(spec):
    # X_ibcd = eps_imb * loop integral of t_m r_c r_d, exact on the moment grid
    n = moment_samples(spec)
    _, pos, der = sample_curve(spec, n)
    return np.einsum("imb,jm,jc,jd->ibcd", EPS, der, pos, pos) * (2.0 * math.pi / n)


@pytest.mark.parametrize(
    "spec,lambda0",
    [
        (TorusKnot(2, 3), 3.5), (TorusKnot(3, 2), 3.5), (TorusKnot(2, 5), 3.5),
        (UnknotXY(), 3.5), (UnknotXZ(), 3.5), (_noisy_curve(), 4.5),
    ],
    ids=["torus-2-3", "torus-3-2", "torus-2-5", "unknot-xy", "unknot-xz", "noisy-300"],
)
def test_piece_totals_are_closed_forms(spec, lambda0):
    # K . qhat = 0 on shell cancels the rho_A(0) and rho_B(1) parts of each order:
    # v1 + v2 = g rho_A(2) K . kappa and v3 + v4 = i g |q| rho_B(3) K . B(qhat)
    g = -1.3
    kappa = quadrupole_moments(spec).K
    X = _current_moments(spec)
    rng = np.random.default_rng(12)
    for a in np.geomspace(1e-3, 999.0, 60):
        unit = random_kinematics(rng, 1.0, lambda0)[0]
        scale = a / (unit.q_mag * lambda0)
        kin = ScatteringKinematics(tuple(scale * np.array(unit.k_i)), tuple(scale * np.array(unit.k_n)), lambda0)
        qh = kin.q_hat
        B = (7.5 * np.einsum("ibcd,b,c,d->i", X, qh, qh, qh) - 3.0 * np.einsum("ibbc,c->i", X, qh)
             - 1.5 * np.einsum("ibcc,b->i", X, qh))
        _, rho_a2, _, rho_b3 = radial_coefficients(kin)
        pieces = _components(born_amplitude(spec, kin, g))
        largest = np.abs(pieces).max()
        assert abs(pieces[0] + pieces[1] - g * rho_a2 * (kin.K_vec @ kappa)) <= 1e-12 * largest, a
        assert abs(pieces[2] + pieces[3] - 1j * g * kin.q_mag * rho_b3 * (kin.K_vec @ B)) <= 1e-12 * largest, a


@pytest.mark.parametrize("noise,lambda0", [(0.0, 3.5), (0.05, 4.5)], ids=["sampled-2-3", "noisy-2-3"])
def test_mirror_image_negates_every_piece(noise, lambda0):
    # V(P curve; k_i, k_n) = -V(curve; P k_i, P k_n) for the reflection P = diag(1, 1, -1)
    mirror = np.diag([1.0, 1.0, -1.0])
    points = np.asarray(sampled_from_spec(TorusKnot(2, 3), 64).points)
    points = points + noise * np.random.default_rng(3).normal(size=points.shape)
    curve, image = SampledCurve.from_array(points), SampledCurve.from_array(points @ mirror)
    rng = np.random.default_rng(8)
    for k in np.geomspace(1e-3, 400.0, 60) / lambda0:
        kin = random_kinematics(rng, k, lambda0)[0]
        reflected = ScatteringKinematics(tuple(mirror @ kin.k_i), tuple(mirror @ kin.k_n), lambda0)
        got = _components(born_amplitude(image, kin, -1.3))
        want = -_components(born_amplitude(curve, reflected, -1.3))
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), k


def _mp_pieces(spec, kin, g):
    # the bracket formula of born's module docstring in 40-digit arithmetic,
    # on the same float rho and moment rows as the library
    rho = radial_coefficients(kin)
    rows = _moment_rows(quadrupole_moments(spec), octopole_moments(spec))
    with mpmath.workdps(40):
        k_i, k_n = ([mpmath.mpf(c) for c in vec] for vec in (kin.k_i, kin.k_n))
        q = [a - b for a, b in zip(k_i, k_n)]
        K = [a + b for a, b in zip(k_i, k_n)]
        k = mpmath.sqrt(sum(c * c for c in q))
        qhat = [c / k for c in q]
        rho_a0, rho_a2, rho_b1, rho_b3 = (mpmath.mpf(r) for r in rho)
        terms = []
        for t in range(len(_FACTORS)):
            axes = [int(i) for i in _MONOMIALS[:, t] if i < 3]
            value = mpmath.fprod(qhat[i] for i in axes)
            if len(axes) < 2:
                low = value
            elif len(axes) == 2:
                low = mpmath.mpf(int(axes[0] == axes[1])) / 3
            else:
                j, kk, l = axes
                low = (int(j == kk) * qhat[l] + int(j == l) * qhat[kk] + int(kk == l) * qhat[j]) / 5
            if len(axes) % 2 == 0:  # R_j R_k and 1 at 1/r^3, R_j R_k R_l and R_p at 1/r^4
                bracket = rho_a0 * low - rho_a2 * (value - low)
            else:
                bracket = 1j * k * (rho_b1 * low - rho_b3 * (value - low))
            weight = sum(K[i] * mpmath.mpf(rows[i, t]) for i in range(3)) * mpmath.mpf(_FACTORS[t])
            terms.append(weight * bracket)
        return np.array([complex(-g * mpmath.fsum(terms[piece])) for piece in _PIECES])


def _polar_kinematics(rng, n, lambda0):
    # a in [1.9, 2.1] around the radial switch, qhat within 1e-4..0.2 rad of
    # the z axis (either pole), where qhat's polar angle is ill-conditioned
    kins = []
    for i in range(n):
        a, tilt, phi = rng.uniform(1.9, 2.1), 10 ** rng.uniform(-4.0, -0.7), rng.uniform(0.0, 2.0 * math.pi)
        qhat = np.array([math.sin(tilt) * math.cos(phi), math.sin(tilt) * math.sin(phi), (-1) ** i * math.cos(tilt)])
        side = np.cross(qhat, rng.normal(size=3))
        K = rng.uniform(0.2, 2.0) * side / np.linalg.norm(side)
        q = a / lambda0 * qhat
        kins.append(ScatteringKinematics(k_i=tuple((K + q) / 2), k_n=tuple((K - q) / 2), lambda0=lambda0))
    return kins


@pytest.mark.parametrize("spec", [TorusKnot(3, 2), TorusKnot(2, 3), UnknotXZ()], ids=["torus-3-2", "torus-2-3", "unknot-xz"])
def test_pieces_match_a_40_digit_evaluation_of_the_brackets(spec):
    # isotropic directions at a in [1.9, 2.1] plus near-polar ones, and a
    # log-spaced a over the accepted range
    rng = np.random.default_rng(2)
    kins = _polar_kinematics(rng, 60, 3.5)
    kins += [_kinematics_at(a, 3.5) for a in np.geomspace(1e-3, 999.0, 25)]
    for a in np.linspace(1.9, 2.1, 60):
        unit = random_kinematics(rng, 1.0, 3.5)[0]
        scale = a / (unit.q_mag * 3.5)
        kins.append(ScatteringKinematics(k_i=tuple(scale * np.array(unit.k_i)), k_n=tuple(scale * np.array(unit.k_n))))
    for kin in kins:
        got = _components(born_amplitude(spec, kin, -1.7))
        want = _mp_pieces(spec, kin, -1.7)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), kin


@pytest.mark.parametrize("p,q", [(2, 3), (5, 7), (3, 2), (1, 1)])
def test_triad_is_the_unknot_combination(p, q):
    # resonant (3, 2) and (1, 1) included: the triad is defined by its unknots, whatever the torus knot does
    for kin in random_kinematics(np.random.default_rng(61), 0.9, 3.5, 4):
        planar = _components(born_amplitude(UnknotXY(), kin))
        vertical = _components(born_amplitude(UnknotXZ(), kin)) + _components(born_amplitude(UnknotYZ(), kin))
        want = np.concatenate((0.5 * p * planar[:2], -0.5 * q * vertical[2:]))
        np.testing.assert_allclose(_components(triad_amplitude(p, q, kin)), want, rtol=1e-13, atol=0)


@pytest.mark.parametrize("p,q", [(2, 3), (2, 5), (3, 4), (4, 5), (5, 7), (2, 7)])
def test_triad_matches_direct_amplitude(p, q):
    kins = random_kinematics(np.random.default_rng(21), 0.7, 3.5, 3)
    for kin in kins:
        direct = born_amplitude(TorusKnot(p, q), kin)
        predicted = _components(triad_amplitude(p, q, kin))
        np.testing.assert_allclose(predicted, _components(direct), rtol=1e-9, atol=1e-14)
        # the octopole content lives only in the v3/v4 split: their sum cancels
        assert abs(direct.v3 + direct.v4) <= 1e-12 * abs(direct.v3)


def test_factorization_residual_small_for_nonresonant_pairs():
    kins = random_kinematics(np.random.default_rng(33), 0.5, 3.5, 5)
    assert factorization_residual(2, 5, kins) < 1e-9
    assert factorization_residual(3, 4, kins) < 1e-9


def test_factorization_residual_shares_one_radial_evaluation_bit_for_bit():
    # the residual evaluates the radial factor once per kinematics and must
    # equal the defect of the two public amplitudes exactly
    for p, q in ((2, 3), (3, 4), (3, 2)):
        kins = random_kinematics(np.random.default_rng(55), 1.3, 3.5, 4)
        worst = 0.0
        for kin in kins:
            direct = born_amplitude(TorusKnot(p, q), kin).total
            predicted = triad_amplitude(p, q, kin).total
            worst = max(worst, abs(direct - predicted) / max(abs(direct), 1e-300))
        assert factorization_residual(p, q, kins) == worst


def test_factorization_breaks_on_resonant_pairs():
    # (3, 2) solves a*q = b*p with a <= 3, b <= 2, so rectified terms shift
    # its octopole moments off the circle triad; (1, 1) breaks at both orders
    kins = random_kinematics(np.random.default_rng(44), 0.5, 3.5, 3)
    assert factorization_residual(3, 2, kins) > 1e-3
    assert factorization_residual(1, 1, kins) > 1e-3


@pytest.mark.parametrize("g", [math.nan, math.inf, -math.inf])
def test_non_finite_coupling_is_refused(g):
    # a non-finite coupling would make every piece NaN or infinite
    with pytest.raises(ValueError, match="coupling"):
        born_amplitude(TorusKnot(2, 3), KIN, g)
    with pytest.raises(ValueError, match="coupling"):
        triad_amplitude(2, 3, KIN, g)


def test_triad_and_residual_validation():
    with pytest.raises(ValueError):
        triad_amplitude(2, 4, KIN)
    with pytest.raises(ValueError):
        factorization_residual(2, 3, [])


def test_bruteforce_oracle_matches_closed_form():
    kin = random_kinematics(np.random.default_rng(3), 0.5, 3.5, 1)[0]
    closed = born_amplitude(TorusKnot(2, 3), kin).total
    direct = vni_bruteforce(TorusKnot(2, 3), kin, r_max=200.0)
    assert direct == pytest.approx(closed, rel=1e-8)


#: vni_bruteforce(TorusKnot(2, 3), KIN_K8, r_max=200.0), frozen because it takes
#: ~30 s; recompute with
#:   PYTHONPATH=src python -c "import knotscatter as ks, knotscatter.oracles as o; print(o.vni_bruteforce(
#:   ks.TorusKnot(2, 3), ks.ScatteringKinematics.from_angles(8.0, 0.4, 1.1, 2.0, -0.6), r_max=200.0))"
BRUTEFORCE_K8 = -0.04962321864402534 + 1.942399138630706e-17j
KIN_K8 = ScatteringKinematics.from_angles(8.0, 0.4, 1.1, 2.0, -0.6)


def test_large_transfer_amplitude_matches_frozen_bruteforce():
    # a = |q| lambda0 ~ 47 lies past CLOSED_FORM_MAX_A: summed there, the 1F2
    # series cancels to a total of ~175.76
    assert KIN_K8.q_mag * KIN_K8.lambda0 == pytest.approx(47.33, abs=0.01)
    total = born_amplitude(TorusKnot(2, 3), KIN_K8).total
    assert total == pytest.approx(BRUTEFORCE_K8, rel=1e-8)


def test_bruteforce_with_exact_field_integrand():
    # slow path: the integrand uses the exact line-integral potential, so the
    # comparison is limited by the multipole content the closed form truncates
    # away near the inner cutoff; keep the momentum transfer small so that
    # near-zone gap stays at the few-percent level
    kin = ScatteringKinematics(k_i=(0.0, 0.0, 0.5), k_n=(0.25, 0.25, 0.3535533905932738))
    closed = born_amplitude(TorusKnot(2, 3), kin).total
    grid = BruteforceGrid(n_polar=48, n_azimuth=12, radial_points=6, tail_panels=8, field="biot-savart")
    direct = vni_bruteforce(TorusKnot(2, 3), kin, r_max=105.0, grid_spec=grid)
    assert direct == pytest.approx(closed, rel=6e-2)


def test_bruteforce_validation():
    with pytest.raises(ValueError):
        vni_bruteforce(TorusKnot(2, 3), KIN, r_max=50.0)  # below 30 lambda0
    with pytest.raises(ValueError):
        BruteforceGrid(field="exact")
    with pytest.raises(ValueError):
        BruteforceGrid(n_azimuth=4)
    with pytest.raises(ValueError):
        BruteforceGrid(radial_points=2)
    with pytest.raises(ValueError):
        BruteforceGrid(tail_panels=2)
    # the exact-field integrand needs the wavelength scale clear of the curve
    low = ScatteringKinematics(k_i=KIN.k_i, k_n=KIN.k_n, lambda0=2.0)
    with pytest.raises(ValueError):
        vni_bruteforce(TorusKnot(2, 3), low, r_max=200.0, grid_spec=BruteforceGrid(field="biot-savart"))


@pytest.mark.parametrize("lambda0", [1.0, 3.0])
def test_cutoff_sphere_that_cuts_the_curve_is_refused(lambda0):
    # torus:2,3 reaches radius 3, where the multipole expansion stops converging
    kin = ScatteringKinematics(k_i=KIN.k_i, k_n=KIN.k_n, lambda0=lambda0)
    with pytest.raises(ValueError, match="enclose"):
        born_amplitude(TorusKnot(2, 3), kin)
    with pytest.raises(ValueError, match="enclose"):
        triad_amplitude(2, 3, kin)
    with pytest.raises(ValueError, match="enclose"):
        factorization_residual(2, 3, [KIN, kin])
    with pytest.raises(ValueError, match="enclose"):
        vni_bruteforce(TorusKnot(2, 3), kin, r_max=200.0)


def test_random_kinematics_are_on_shell_and_reproducible():
    kins = random_kinematics(np.random.default_rng(8), 0.9, 3.0, 6)
    assert len(kins) == 6
    for kin in kins:
        assert kin.k == pytest.approx(0.9, rel=1e-12)
        assert kin.lambda0 == 3.0
        assert kin.q_mag > 0
    again = random_kinematics(np.random.default_rng(8), 0.9, 3.0, 6)
    assert [k.k_i for k in kins] == [k.k_i for k in again]
    with pytest.raises(ValueError):
        random_kinematics(np.random.default_rng(8), -1.0)


def test_amplitude_document_schema():
    amp = born_amplitude(TorusKnot(2, 3), KIN)
    document = amplitude_to_dict(KIN, amp)
    assert sorted(document) == ["kin", "total", "v"]
    assert sorted(document["v"]) == ["v1", "v2", "v3", "v4"]
    assert document["total"] == [amp.total.real, amp.total.imag]
    assert document["kin"]["lambda0"] == 3.5
    total = complex(*document["total"])
    parts = sum(complex(*document["v"][key]) for key in document["v"])
    assert total == pytest.approx(parts)
    assert amp.total == amp.v1 + amp.v2 + amp.v3 + amp.v4
