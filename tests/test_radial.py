"""Radial integral schemes: frozen anchors, cross-validation, and degeneracies.

DEGENERATE_ANCHORS holds the half-line integrals of j_0(x)/x and j_1(x)/x^2
from a lower limit a, evaluated independently with 50-digit mpmath quadrature
and frozen. The degenerate orders have no closed form here, so the package
must reproduce these values with both of its quadrature schemes.

The production scheme (radial._rho_values) is checked against an mpmath
sine/cosine-integral evaluation over the whole accepted range of a.
"""

import ast
import importlib
import inspect
import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import spherical_jn

from knotscatter import (
    NonConvergent,
    ScatteringKinematics,
    TorusKnot,
    born_amplitude,
    factorization_residual,
    oracles,
    triad_amplitude,
)
from knotscatter.oracles import (
    CLOSED_FORM_MAX_A,
    _bessel_zeros_from,
    radial_A_closed,
    radial_B_closed,
    radial_quadrature,
    radial_reference,
)
from knotscatter.radial import _rho_values, radial_coefficients
from knotscatter.specfun import DegenerateClosedForm

LAMBDA0 = 3.5

# a -> (integral of j_0(x)/x, integral of j_1(x)/x^2), both over [a, inf)
DEGENERATE_ANCHORS = {
    0.3: (1.6342402885089603, 0.65486108288147775),
    0.5: (1.1366351560150189, 0.48723640576238401),
    1.0: (0.50406706190692837, 0.26841191361556172),
    2.0: (0.031667884637975852, 0.083122257375990554),
    3.0: (-0.07258978332137792, 0.01421201664424691),
    3.5: (-0.06809523082741027, 5.6226675241609535e-5),
    5.0: (-0.0017551052759838152, -0.0069243289639393245),
    10.0: (-0.0089456780844816087, -0.00036632796820215133),
}

A_GRID = (0.3, 0.5, 1.0, 2.0, 5.0, 10.0)


@pytest.mark.parametrize("a", sorted(DEGENERATE_ANCHORS))
def test_degenerate_orders_against_frozen_anchors(a):
    rho_a0, rho_b1 = DEGENERATE_ANCHORS[a]
    k = a / LAMBDA0
    # the 1/r^2 family integrates over r, so one power of k divides out
    assert radial_quadrature(-1.5, 0, k, LAMBDA0) == pytest.approx(rho_a0, rel=1e-10, abs=1e-10)
    assert radial_quadrature(-2.5, 1, k, LAMBDA0) / k == pytest.approx(rho_b1, rel=1e-10, abs=1e-10)
    assert radial_reference(-1.5, 0, k, LAMBDA0) == pytest.approx(rho_a0, rel=1e-10, abs=1e-10)
    assert radial_reference(-2.5, 1, k, LAMBDA0) / k == pytest.approx(rho_b1, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("a", A_GRID)
def test_closed_forms_match_quadrature(a):
    k = a / LAMBDA0
    assert radial_A_closed(2, k, LAMBDA0) == pytest.approx(
        radial_quadrature(-1.5, 2, k, LAMBDA0), rel=1e-9, abs=1e-12
    )
    assert radial_B_closed(3, k, LAMBDA0) == pytest.approx(
        radial_quadrature(-2.5, 3, k, LAMBDA0) / k, rel=1e-9, abs=1e-12
    )
    # orders unused by the assembly but still covered by the closed forms
    assert radial_A_closed(1, k, LAMBDA0) == pytest.approx(
        radial_quadrature(-1.5, 1, k, LAMBDA0), rel=1e-9, abs=1e-12
    )
    assert radial_B_closed(2, k, LAMBDA0) == pytest.approx(
        radial_quadrature(-2.5, 2, k, LAMBDA0) / k, rel=1e-9, abs=1e-12
    )


@pytest.mark.parametrize("a", A_GRID)
@pytest.mark.parametrize(
    "weight,l",
    [(-1.5, 0), (-1.5, 1), (-1.5, 2), (-1.5, 3), (-2.5, 0), (-2.5, 1), (-2.5, 2), (-2.5, 3)],
)
def test_two_quadrature_schemes_agree(a, weight, l):
    k = a / LAMBDA0
    one = radial_quadrature(weight, l, k, LAMBDA0)
    two = radial_reference(weight, l, k, LAMBDA0)
    assert one == pytest.approx(two, rel=1e-8, abs=1e-10)


def test_closed_form_interval_additivity():
    # difference of two tails equals the finite integral over [0.3, 0.8]
    k_lo, k_hi = 0.3 / LAMBDA0, 0.8 / LAMBDA0
    difference = radial_A_closed(2, k_lo, LAMBDA0) - radial_A_closed(2, k_hi, LAMBDA0)
    nodes, weights = np.polynomial.legendre.leggauss(64)
    x = 0.55 + 0.25 * nodes
    segment = float(np.sum(weights * 0.25 * spherical_jn(2, x) / x))
    assert difference == pytest.approx(segment, rel=1e-12)


def test_weight_power_sets_the_k_scaling():
    # returned integrals are over r: the 1/r^2 family scales linearly with k
    # at fixed dimensionless cutoff a = k * lambda0, the 1/r family not at all
    k, a = 0.5, 1.75
    assert radial_quadrature(-2.5, 2, 2.0 * k, 0.5 * a / k) == pytest.approx(
        2.0 * radial_quadrature(-2.5, 2, k, a / k), rel=1e-9
    )
    assert radial_quadrature(-1.5, 2, 2.0 * k, 0.5 * a / k) == pytest.approx(
        radial_quadrature(-1.5, 2, k, a / k), rel=1e-9
    )


def test_degenerate_and_domain_errors():
    with pytest.raises(DegenerateClosedForm):
        radial_A_closed(0, 0.5, LAMBDA0)
    with pytest.raises(DegenerateClosedForm):
        radial_B_closed(1, 0.5, LAMBDA0)
    with pytest.raises(ValueError):
        radial_A_closed(-1, 0.5, LAMBDA0)
    with pytest.raises(ValueError):
        radial_B_closed(0, 0.5, LAMBDA0)
    with pytest.raises(ValueError):
        radial_A_closed(2, 2000.0, LAMBDA0)  # cutoff far beyond the validated range
    with pytest.raises(ValueError):
        radial_quadrature(-1.0, 2, 0.5, LAMBDA0)
    with pytest.raises(ValueError):
        radial_quadrature(-1.5, 4, 0.5, LAMBDA0)
    with pytest.raises(ValueError):
        radial_quadrature(-1.5, 2, -0.5, LAMBDA0)
    with pytest.raises(ValueError):
        radial_reference(-1.5, 5, 0.5, LAMBDA0)


RADIAL_FUNCTIONS = {
    "quadrature": lambda k, lambda0: radial_quadrature(-1.5, 0, k, lambda0),
    "reference": lambda k, lambda0: radial_reference(-1.5, 0, k, lambda0),
    "closed": lambda k, lambda0: radial_A_closed(2, k, lambda0),
    "production": _rho_values,
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("position", ["k", "lambda0"])
@pytest.mark.parametrize("name", sorted(RADIAL_FUNCTIONS))
def test_non_finite_k_or_lambda0_is_refused(name, position, bad):
    # max(nan, 1e-9) is nan, so a NaN k once sent the quadrature's zero march
    # over NaN grids forever, and the closed form summed 1F2 to its term budget
    k, lambda0 = (bad, LAMBDA0) if position == "k" else (0.5, bad)
    with pytest.raises(ValueError, match="finite"):
        RADIAL_FUNCTIONS[name](k, lambda0)


@pytest.mark.parametrize("name", sorted(RADIAL_FUNCTIONS))
def test_overflowing_k_times_lambda0_is_refused(name):
    # finite k and lambda0 whose product overflows once failed by accident,
    # with "math domain error" or "cannot convert float NaN to integer"
    with pytest.raises(ValueError, match="finite"):
        RADIAL_FUNCTIONS[name](1e200, 1e200)


def test_insufficient_panels_raise_nonconvergent():
    with pytest.raises(NonConvergent):
        radial_quadrature(-1.5, 0, 0.5, LAMBDA0, n_panels=7, abs_tol=1e-30)


def test_radial_coefficient_maps():
    kin = ScatteringKinematics.from_angles(0.5, 0.4, 1.1, 2.0, -0.6, LAMBDA0)
    rho_a0, rho_a2, rho_b1, rho_b3 = radial_coefficients(kin)
    # the radial factors are evaluated at the momentum transfer, not at k
    q = kin.q_mag
    assert rho_a0 == pytest.approx(radial_quadrature(-1.5, 0, q, LAMBDA0), rel=1e-10)
    assert rho_a2 == pytest.approx(radial_A_closed(2, q, LAMBDA0), rel=1e-9)
    assert rho_b1 == pytest.approx(radial_quadrature(-2.5, 1, q, LAMBDA0) / q, rel=1e-9)
    assert rho_b3 == pytest.approx(radial_B_closed(3, q, LAMBDA0), rel=1e-9)


@settings(deadline=None, max_examples=15)
@given(a=st.floats(0.25, 10.0, allow_nan=False))
def test_closed_form_tracks_quadrature_everywhere(a):
    k = a / LAMBDA0
    assert radial_A_closed(2, k, LAMBDA0) == pytest.approx(
        radial_quadrature(-1.5, 2, k, LAMBDA0), rel=1e-7, abs=1e-10
    )


# j_l(x) = sum_m S[m] sin(x) / x^m + sum_m C[m] cos(x) / x^m   (DLMF 10.49)
_MP_SIN_COS = {
    0: ({1: 1}, {}),
    1: ({2: 1}, {1: -1}),
    2: ({3: 3, 1: -1}, {2: -3}),
    3: ({4: 15, 2: -6}, {3: -15, 1: 1}),
}


def _mp_rho(l, s, a):
    """integral_a^inf j_l(x) / x^s dx from Si and Ci in mpmath.

    The working precision grows with the cancellation at small a, so that
    well over 16 digits survive the upward recurrence.
    """
    extra = max(0, math.ceil(-math.log10(a))) * (l + s + 2)
    with mpmath.workdps(40 + extra):
        x = mpmath.mpf(a)
        e_sin = {1: mpmath.pi / 2 - mpmath.si(x)}
        e_cos = {1: -mpmath.ci(x)}
        for m in range(2, l + s + 2):
            e_sin[m] = mpmath.sin(x) / ((m - 1) * x ** (m - 1)) + e_cos[m - 1] / (m - 1)
            e_cos[m] = mpmath.cos(x) / ((m - 1) * x ** (m - 1)) - e_sin[m - 1] / (m - 1)
        sin_coef, cos_coef = _MP_SIN_COS[l]
        total = sum(c * e_sin[m + s] for m, c in sin_coef.items())
        total += sum(c * e_cos[m + s] for m, c in cos_coef.items())
        return float(total)


def _production_rho(a):
    """(l, s) -> production value at k * LAMBDA0 and that argument."""
    k = a / LAMBDA0
    return dict(zip(((0, 1), (2, 1), (1, 2), (3, 2)), _rho_values(k, LAMBDA0))), k * LAMBDA0


def test_production_rho_matches_mpmath_over_the_accepted_range():
    # rho oscillates through zeros for a > 1, where plain relative error is
    # unbounded for any double-precision scheme: there the scale is the tail
    # envelope a^-(s+1) whenever that exceeds |rho|.
    worst = {}
    for a in np.geomspace(1e-3, 1e3, 201):
        values, a_used = _production_rho(float(a))
        for (l, s), got in values.items():
            want = _mp_rho(l, s, a_used)
            scale = abs(want) if a_used < 1.0 else max(abs(want), a_used ** -(s + 1))
            worst[l, s] = max(worst.get((l, s), 0.0), abs(got - want) / scale)
    assert max(worst.values()) <= 1e-10, worst


@pytest.mark.parametrize("a", [1e-8, 1e-6, 1e-4])
def test_production_rho_below_the_grid_keeps_full_relative_accuracy(a):
    # the sine/cosine form of rho_B(1) alone would cancel like 1/a^2 here
    values, a_used = _production_rho(a)
    for (l, s), got in values.items():
        assert got == pytest.approx(_mp_rho(l, s, a_used), rel=1e-10)


def test_production_rho_keeps_full_precision_in_the_asymptotic_range():
    # upward recurrence from Si and Ci would amplify the rounding of Ci(a) by
    # ~a^2 in rho_B(1) (1.5e-10 at a = 963); the asymptotic series does not
    for a in np.geomspace(60.0, 1e3, 101):
        values, a_used = _production_rho(float(a))
        for (l, s), got in values.items():
            want = _mp_rho(l, s, a_used)
            assert abs(got - want) <= 1e-13 * max(abs(want), a_used ** -(s + 1))


@pytest.mark.parametrize("a", [1.999, 2.0, 59.99, 60.0])
def test_production_rho_is_continuous_across_its_scheme_switches(a):
    values, a_used = _production_rho(a)
    for (l, s), got in values.items():
        want = _mp_rho(l, s, a_used)
        assert abs(got - want) <= 1e-12 * max(abs(want), a_used ** -(s + 1))


def test_production_rho_b1_is_the_bessel_recurrence_at_every_a():
    # j_0(x) + j_2(x) = 3 j_1(x)/x (DLMF 10.51.1) makes rho_B(1) = (rho_A(0) + rho_A(2)) / 3
    # exact; from a = 2 on it is checked against the sine/cosine reduction of j_1(x)/x^2
    for a in np.geomspace(1e-3, 1e3, 241):
        k = float(a) / LAMBDA0
        rho_a0, rho_a2, rho_b1, _ = _rho_values(k, LAMBDA0)
        assert rho_b1 == (rho_a0 + rho_a2) / 3.0
        a_used = k * LAMBDA0
        if a_used >= 2.0:
            want = radial_reference(-2.5, 1, k, LAMBDA0) / k
            assert abs(rho_b1 - want) <= 5e-13 * max(abs(rho_b1), a_used**-3)


def test_production_rho_refuses_beyond_the_accepted_range():
    with pytest.raises(ValueError):
        _rho_values(1000.5 / LAMBDA0, LAMBDA0)
    kin = ScatteringKinematics.from_angles(200.0, 0.4, 1.1, 2.0, -0.6, LAMBDA0)
    assert kin.q_mag * LAMBDA0 > 1e3
    with pytest.raises(ValueError):
        radial_coefficients(kin)


@pytest.mark.parametrize("a", [20.0, 40.0])
def test_closed_forms_refuse_where_the_series_cancels(a):
    k = a / LAMBDA0
    with pytest.raises(ValueError):
        radial_A_closed(2, k, LAMBDA0)
    with pytest.raises(ValueError):
        radial_B_closed(3, k, LAMBDA0)


@pytest.mark.parametrize("l,s", [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2)])
def test_closed_forms_hold_up_to_their_limit(l, s):
    closed = radial_A_closed if s == 1 else radial_B_closed
    for a in np.linspace(10.0, CLOSED_FORM_MAX_A, 26):
        k = float(a) / LAMBDA0
        want = _mp_rho(l, s, k * LAMBDA0)
        assert abs(closed(l, k, LAMBDA0) - want) <= 1e-10 * max(abs(want), a ** -(s + 1))


def test_amplitude_path_never_uses_panel_quadrature(monkeypatch):
    # the panel quadrature, the 1F2 closed forms, the spherical harmonics,
    # Gaunt and Clebsch-Gordan coefficients and every other oracle live in
    # knotscatter.oracles, and no layer module binds one of their names
    defined = set()
    for node in ast.parse(inspect.getsource(oracles)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
    public = {name for name in defined if not name.startswith("_")}
    assert {
        "radial_quadrature", "radial_A_closed", "radial_B_closed", "gamma_ratio",
        "angular_bracket", "monomial_expansion", "spherical_harmonic", "gaunt", "clebsch_gordan",
    } <= public
    for layer in ("curves", "multipole", "potential", "radial", "specfun", "angular", "born"):
        module = importlib.import_module(f"knotscatter.{layer}")
        assert not public & set(vars(module)), layer
    for name in public:
        # functions and their lru_cache wrappers (gaunt, sphere_rule); classes are left alone
        obj = getattr(oracles, name)
        if callable(obj) and not inspect.isclass(obj):

            def forbidden(*args, name=name, **kwargs):
                raise AssertionError(f"{name} reached from the amplitude path")

            monkeypatch.setattr(oracles, name, forbidden)
    unit = ScatteringKinematics.from_angles(1.0, 0.4, 1.1, 2.0, -0.6, LAMBDA0)
    for a in (1e-3, 0.5, 1.9, 2.0, 14.0, 47.0, 200.0, 999.0):
        k = a / (unit.q_mag * LAMBDA0)
        kin = ScatteringKinematics.from_angles(k, 0.4, 1.1, 2.0, -0.6, LAMBDA0)
        assert math.isfinite(abs(born_amplitude(TorusKnot(2, 3), kin).total))
        assert math.isfinite(abs(triad_amplitude(2, 3, kin).total))
        assert factorization_residual(2, 3, [kin]) < 1e-8


def test_import_does_not_load_scipy_optimize():
    # brentq is needed only by the panel-quadrature oracle, which imports it lazily
    src = os.path.dirname(os.path.dirname(os.path.abspath(radial_quadrature.__code__.co_filename)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, knotscatter; print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _scalar_zero_march(l, start, count):
    # frozen copy of the one-point-at-a-time march the block version replaced
    from scipy.optimize import brentq

    zeros = []
    x = max(start, 1e-9)
    f_prev = spherical_jn(l, x)
    while len(zeros) < count:
        x_next = x + 0.4
        f_next = spherical_jn(l, x_next)
        if f_prev == 0.0:
            zeros.append(x)
        elif f_prev * f_next < 0.0:
            zeros.append(brentq(lambda t: spherical_jn(l, t), x, x_next, xtol=1e-13, rtol=1e-15))
        x, f_prev = x_next, f_next
    return zeros


@pytest.mark.parametrize("l", [0, 1, 2, 3])
@pytest.mark.parametrize("start", [0.0, 0.05, 1.75, 37.3])
def test_bessel_zero_march_equals_the_scalar_march(l, start):
    for count in (1, 48):
        assert _bessel_zeros_from(l, start, count) == _scalar_zero_march(l, start, count)
