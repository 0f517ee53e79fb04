"""Closed-curve presets, spectral resampling, and exact moment grids."""

import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotscatter import SampledCurve, TorusKnot, UnknotXY, UnknotXZ, UnknotYZ, sampled_from_json
from knotscatter.curves import check_cutoff, eval_curve, moment_samples, sample_curve, sampled_from_spec
from knotscatter.multipole import quadrupole_moments

TWO_PI = 2.0 * math.pi

# (1, 1) has a mode at frequency p - q = 0 and (2, 1) one shared by p - q and q
COPRIME_PAIRS = [(2, 3), (3, 2), (2, 5), (3, 4), (1, 1), (5, 3), (2, 1), (1, 2), (5, 7)]


def _torus_closed_form(p, q, tau):
    cq, sq, cp, sp = np.cos(q * tau), np.sin(q * tau), np.cos(p * tau), np.sin(p * tau)
    tube = 2.0 + cq
    pos = np.stack([tube * cp, tube * sp, -sq], axis=-1)
    der = np.stack([-q * sq * cp - p * tube * sp, -q * sq * sp + p * tube * cp, -q * cq], axis=-1)
    return pos, der


def test_torus_knot_hand_values():
    point = eval_curve(TorusKnot(2, 3), 0.0)
    np.testing.assert_allclose(point.position, [3.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(point.derivative, [0.0, 6.0, -3.0], atol=1e-15)

    # tau = pi/2: tube radius 2 + cos(3 pi/2) = 2, azimuth p tau = pi
    point = eval_curve(TorusKnot(2, 3), 0.5 * math.pi)
    np.testing.assert_allclose(point.position, [-2.0, 0.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(point.derivative, [-3.0, -4.0, 0.0], atol=1e-14)


def test_unknot_hand_values():
    point = eval_curve(UnknotXY(), math.pi / 3.0)
    np.testing.assert_allclose(point.position, [1.5, 1.5 * math.sqrt(3.0), 0.0], atol=1e-14)
    np.testing.assert_allclose(point.derivative, [-1.5 * math.sqrt(3.0), 1.5, 0.0], atol=1e-14)

    point = eval_curve(UnknotXZ(), 0.5 * math.pi)
    np.testing.assert_allclose(point.position, [2.0, 0.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(point.derivative, [-1.0, 0.0, 0.0], atol=1e-14)

    point = eval_curve(UnknotYZ(), math.pi)
    np.testing.assert_allclose(point.position, [0.0, 1.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(point.derivative, [0.0, 0.0, -1.0], atol=1e-14)


@settings(deadline=None, max_examples=60)
@given(tau=st.floats(0.0, TWO_PI, allow_nan=False), pair=st.sampled_from(COPRIME_PAIRS))
def test_torus_knot_lies_on_torus(tau, pair):
    x, y, z = eval_curve(TorusKnot(*pair), tau).position
    assert abs((math.hypot(x, y) - 2.0) ** 2 + z * z - 1.0) < 1e-12


@settings(deadline=None, max_examples=40)
@given(tau=st.floats(0.0, TWO_PI, allow_nan=False), pair=st.sampled_from(COPRIME_PAIRS))
def test_derivative_matches_finite_difference(tau, pair):
    spec = TorusKnot(*pair)
    h = 1e-5
    ahead = eval_curve(spec, tau + h).position
    behind = eval_curve(spec, tau - h).position
    np.testing.assert_allclose(
        eval_curve(spec, tau).derivative, (ahead - behind) / (2.0 * h), atol=1e-6
    )


@pytest.mark.parametrize("pair", COPRIME_PAIRS, ids=str)
def test_torus_spectrum_matches_the_closed_form(pair):
    # the preset states only its modes; positions and derivatives off the
    # grid and on sample grids must equal the closed-form parametrization
    spec = TorusKnot(*pair)
    assert spec.bandwidth == sum(pair)
    tau = np.random.default_rng(sum(pair)).uniform(0.0, TWO_PI, 50)
    want_pos, want_der = _torus_closed_form(*pair, tau)
    got_pos, got_der = spec._eval_arrays(tau)
    np.testing.assert_allclose(got_pos, want_pos, rtol=0, atol=1e-13)
    np.testing.assert_allclose(got_der, want_der, rtol=0, atol=1e-13 * sum(pair))
    for n_samples in (moment_samples(spec), 1024):
        grid, got_pos, got_der = sample_curve(spec, n_samples)
        want_pos, want_der = _torus_closed_form(*pair, grid)
        np.testing.assert_allclose(got_pos, want_pos, rtol=0, atol=1e-13)
        np.testing.assert_allclose(got_der, want_der, rtol=0, atol=1e-13 * sum(pair))


@pytest.mark.parametrize("n_points", [12, 64, 65])
def test_resampled_curve_reproduces_band_limited_curve(n_points):
    # trigonometric degree of the (2, 3) knot is p + q = 5, below every Nyquist limit here
    spec = TorusKnot(2, 3)
    resampled = sampled_from_spec(spec, n_points)
    for tau in np.linspace(0.17, TWO_PI, 9):
        exact = eval_curve(spec, float(tau))
        approx = eval_curve(resampled, float(tau))
        np.testing.assert_allclose(approx.position, exact.position, atol=1e-10)
        np.testing.assert_allclose(approx.derivative, exact.derivative, atol=1e-9)


def test_even_sample_count_keeps_interpolant_real():
    # eight samples put the Nyquist bin at frequency four, above the unknot bandwidth
    resampled = sampled_from_spec(UnknotXZ(), 8)
    exact = eval_curve(UnknotXZ(), 1.2345)
    approx = eval_curve(resampled, 1.2345)
    np.testing.assert_allclose(approx.position, exact.position, atol=1e-12)
    np.testing.assert_allclose(approx.derivative, exact.derivative, atol=1e-12)


def test_labels():
    assert TorusKnot(2, 3).label() == "torus:2,3"
    assert UnknotXY().label() == "unknot-xy"
    assert UnknotXZ().label() == "unknot-xz"
    assert UnknotYZ().label() == "unknot-yz"
    assert sampled_from_spec(UnknotXY(), 16).label() == "sampled[16]"


def test_sampled_from_json_accepts_str_and_dict():
    pts = [[3.0 * math.cos(t), 3.0 * math.sin(t), 0.0] for t in np.arange(16) * TWO_PI / 16]
    doc = {"points": pts}
    from_dict = sampled_from_json(doc)
    from_str = sampled_from_json(json.dumps(doc))
    assert from_dict == from_str
    assert len(from_dict.points) == 16


def test_validation_errors():
    with pytest.raises(ValueError):
        TorusKnot(2, 4)  # not coprime
    with pytest.raises(ValueError):
        TorusKnot(0, 1)  # winding numbers start at one
    with pytest.raises(ValueError):
        SampledCurve(((0.0, 0.0, 0.0),) * 3)
    with pytest.raises(ValueError):
        SampledCurve.from_array(np.zeros((8, 2)))
    with pytest.raises(ValueError):
        eval_curve(UnknotXY(), math.inf)
    with pytest.raises(ValueError):
        sample_curve(UnknotXY(), 4)
    with pytest.raises(ValueError):
        sampled_from_json({"vertices": []})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_points_are_refused(bad):
    tau = np.arange(16) * (TWO_PI / 16)
    points = 3.0 * np.stack([np.cos(tau), np.sin(tau), np.zeros_like(tau)], axis=1)
    points[5, 1] = bad
    with pytest.raises(ValueError, match="curve point 5 is not finite"):
        SampledCurve.from_array(points)
    with pytest.raises(ValueError, match="not finite"):
        sampled_from_json({"points": points.tolist()})
    # a curve built directly, not through from_array, is refused by its spectrum
    direct = SampledCurve(tuple(map(tuple, points.tolist())))
    with pytest.raises(ValueError, match="curve point 5 is not finite"):
        quadrupole_moments(direct)


def _noisy_sampled_knot(n_points, seed=0):
    tau = np.arange(n_points) * (TWO_PI / n_points)
    pos, _ = TorusKnot(3, 4)._eval_arrays(tau)
    return SampledCurve.from_array(pos + 0.05 * np.random.default_rng(seed).normal(size=pos.shape))


@pytest.mark.parametrize("n_points", [8, 9, 33, 64, 683, 1024, 1500])
def test_fft_grid_matches_the_direct_trigonometric_sum(n_points):
    # on the sample grid the folded inverse FFT must equal the dense sum of
    # _eval_arrays, also below n_points samples, where frequencies alias
    curve = _noisy_sampled_knot(n_points)
    for n_samples in sorted({8, 64, n_points, n_points + 1, 1024, 2048}):
        tau = np.arange(n_samples) * (TWO_PI / n_samples)
        want_pos, want_der = curve._eval_arrays(tau)
        got_tau, got_pos, got_der = sample_curve(curve, n_samples)
        np.testing.assert_array_equal(got_tau, tau)
        for got, want in ((got_pos, want_pos), (got_der, want_der)):
            assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()


@pytest.mark.parametrize(
    "spec", [TorusKnot(2, 3), _noisy_sampled_knot(64), _noisy_sampled_knot(33)], ids=lambda s: s.label()
)
def test_real_fft_fold_matches_the_direct_sum(spec):
    # irfft of the bins f mod m <= m // 2: above 2B, at 2B (both +-B on the
    # Nyquist bin), below 2B (aliasing), and odd m on either side of 2B
    band = spec.bandwidth
    for m in (4 * band, 2 * band + 1, 2 * band, band + 3, 2 * band - 1, band):
        tau = np.arange(m) * (TWO_PI / m)
        want_pos, want_der = spec._eval_arrays(tau)
        got_pos, got_der = spec._eval_grid(m)
        for got, want in ((got_pos, want_pos), (got_der, want_der)):
            assert got.shape == want.shape and got.T.flags.c_contiguous
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize(
    "spec", [TorusKnot(*pair) for pair in COPRIME_PAIRS] + [UnknotXY(), UnknotXZ(), UnknotYZ()], ids=lambda s: s.label()
)
def test_preset_bandwidth_bounds_the_spectrum(spec):
    _, pos, der = sample_curve(spec, 64)
    spectrum = np.abs(np.fft.fft(np.hstack([pos, der]), axis=0))
    freq = np.abs(np.fft.fftfreq(64, 1.0 / 64))
    assert spectrum[freq == spec.bandwidth].max() > 0.1
    assert spectrum[freq > spec.bandwidth].max() < 1e-12


def test_moment_samples_is_the_power_of_two_above_three_bandwidths():
    assert TorusKnot(2, 3).bandwidth == 5 and moment_samples(TorusKnot(2, 3)) == 16
    assert moment_samples(TorusKnot(3, 4)) == 32
    for unknot in (UnknotXY(), UnknotXZ(), UnknotYZ()):
        assert unknot.bandwidth == 1 and moment_samples(unknot) == 8
    # the split Nyquist bin of an even N sits at N/2; an odd N tops out at (N - 1)/2
    for n_points, bandwidth, samples in [(1024, 512, 2048), (683, 341, 1024), (9, 4, 16), (1365, 682, 2048)]:
        curve = _noisy_sampled_knot(n_points)
        assert curve.bandwidth == bandwidth and moment_samples(curve) == samples


def test_sampled_curve_hash_is_stable_and_cached():
    points = _noisy_sampled_knot(96).points
    curve, twin = SampledCurve(points), SampledCurve(tuple(map(tuple, points)))
    assert curve == twin and hash(curve) == hash(twin) == hash(points)
    restored = pickle.loads(pickle.dumps(curve))
    assert restored == curve and hash(restored) == hash(curve)

    quadrupole_moments(curve)
    hits = quadrupole_moments.cache_info().hits
    assert quadrupole_moments(twin) is quadrupole_moments(curve)
    assert quadrupole_moments.cache_info().hits == hits + 2


def test_check_cutoff_on_the_presets():
    # every preset reaches radius exactly 3; the certified grid margin grows
    # with the bandwidth (5 and 7 for the knots, 1 for the circles)
    for lambda0 in (1.0, 3.0, 3.0005):
        with pytest.raises(ValueError, match="enclose"):
            check_cutoff(TorusKnot(2, 3), lambda0)
    check_cutoff(TorusKnot(2, 3), 3.001)
    for spec in (UnknotXY(), UnknotXZ(), UnknotYZ()):
        with pytest.raises(ValueError, match="enclose"):
            check_cutoff(spec, 3.0)
        check_cutoff(spec, 3.0005)
        check_cutoff(spec, 3.001)
    # bandwidth 7: the margin pi B 2^-16 = 3.4e-4 relative puts 3.001 inside it
    for lambda0 in (3.0, 3.001):
        with pytest.raises(ValueError, match="enclose"):
            check_cutoff(TorusKnot(3, 4), lambda0)
    check_cutoff(TorusKnot(3, 4), 3.002)


@pytest.mark.parametrize("lambda0", [-10.0, -3.5, 0.0, math.nan, math.inf])
def test_check_cutoff_refuses_a_cutoff_outside_the_positive_reals(lambda0):
    # comparing lambda0^2 alone once certified -3.5, -10 and inf
    with pytest.raises(ValueError, match="positive and finite"):
        check_cutoff(TorusKnot(2, 3), lambda0)


def test_check_cutoff_accepts_a_dense_curve_inside_its_coefficient_bound():
    # B = 10000 > 2^16 / 2 pi: a 2^16-point grid has a negative Bernstein
    # margin, so the last grid grows to 2^18 >= 8 pi B, where the margin is
    # 1 - 2 pi B / 2^18 = 0.76; below the coefficient bound sum |c_f| = 3 sqrt(2)
    # that certifies lambda0^2 > 9 / 0.76, lambda0 > 3.44
    tau = np.arange(20000) * (TWO_PI / 20000)
    curve = SampledCurve.from_array(3.0 * np.stack([np.cos(tau), np.sin(tau), np.zeros_like(tau)], axis=1))
    assert curve.bandwidth == 10000
    check_cutoff(curve, 10.0)
    check_cutoff(curve, 3.0 * math.sqrt(2.0) * (1.0 + 1e-9))
    for lambda0 in (3.45, 3.6, 4.0):
        check_cutoff(curve, lambda0)
    for lambda0 in (3.0, 3.2, 3.4):
        with pytest.raises(ValueError, match="enclose"):
            check_cutoff(curve, lambda0)


def test_check_cutoff_sees_a_maximum_between_grid_points():
    rng = np.random.default_rng(0)
    curve = SampledCurve.from_array(rng.normal(size=(int(rng.integers(8, 40)), 3)))
    _, pos, _ = sample_curve(curve, 1024)
    radii = np.sqrt((pos**2).sum(axis=1))
    # refine around the grid maximum: the interpolant peaks between grid points
    tau = (int(radii.argmax()) + np.linspace(-1.0, 1.0, 20001)) * (TWO_PI / 1024)
    local, _ = curve._eval_arrays(tau)
    peak = float(np.sqrt((local**2).sum(axis=1)).max())
    assert peak > (1.0 + 1e-5) * radii.max()
    with pytest.raises(ValueError, match="enclose"):
        check_cutoff(curve, peak * (1.0 - 1e-9))
    check_cutoff(curve, 1.01 * peak)
