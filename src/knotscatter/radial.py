"""Semi-infinite radial integrals over spherical Bessel functions.

Two families of integrals over the exterior of the cutoff sphere r = lambda0
appear in the scattering matrix element:

    rho_A(l) = integral_{lambda0}^{inf} j_l(k r) / r   dr
    rho_B(l) = (1/k) integral_{lambda0}^{inf} j_l(k r) / r^2 dr

Both are dimensionless functions of a = k*lambda0 alone. The amplitude path
(radial_coefficients) uses one production formula per order:

* rho_A(2) = j_1(a)/a and rho_B(3) = j_2(a)/a^2 (DLMF 10.51.2,
  integral_a^inf j_l(x) x^(1-l) dx = a^(1-l) j_{l-1}(a)): elementary
  sin/cos forms from a = 2 on (SERIES_SWITCH_A), the 0F1 series of
  j_l(a)/a^l below, where the elementary forms cancel like a^(-2l).
* rho_A(0) = integral_a^inf sin(x)/x^2 dx, the imaginary part of the moment
  I_2 = integral_a^inf e^{ix}/x^2 dx: sin(a)/a - Ci(a) (A&S 5.2) below
  a = 60; from a = 60 on, the asymptotic series of I_2, because there
  sin(a)/a - Ci(a) loses a factor a of Ci's rounding to cancellation, and
  rho_B(1) below loses one more.
* rho_B(1) = (rho_A(0) + rho_A(2)) / 3 at every a: divide
  j_0(x) + j_2(x) = 3 j_1(x)/x (DLMF 10.51.1) by x and integrate over
  [a, inf).

Arguments a > 1e3 are refused with ValueError. Against a 40-digit mpmath
evaluation (241 log-spaced a in [1e-3, 1e3], 4001 in [30, 1e3]) the
production error stays below 5e-13 of |rho| for a < 1 and of
max(|rho|, a^-(s+1)) for a >= 1 (s = 1 for A, 2 for B; the envelope covers
the zeros of the oscillating tail). The largest, 2.3e-13, is rho_B(1) at
a = 57.9, where Ci's rounding is amplified by a^2; from a = 60 on rho_B(1)
reaches 1.5e-13 (a = 921), because the leading cos(a)/a^2 terms of rho_A(0)
and rho_A(2) cancel in the recurrence, and the other three stay below 1e-15.
The tests hold it to 1e-10.

radial_coefficients returns the tuple (rho_A(0), rho_A(2), rho_B(1), rho_B(3))
at a = |q| lambda0 of one kinematics. By the addition theorem (DLMF 14.30.9)
born weights a monomial's degree-l harmonic part at qhat by i^l rho_A(l) at
1/r^3 and by i^l |q| rho_B(l) at 1/r^4 (the brackets and P_jkl are in born's
docstring).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from scipy.special import sici

from .specfun import hyp1f2

if TYPE_CHECKING:  # pragma: no cover
    from .born import ScatteringKinematics

#: Below this a, rho_A(2) = j_1(a)/a and rho_B(3) = j_2(a)/a^2 come from their
#: 0F1 series; from it on, from sin(a) and cos(a).
SERIES_SWITCH_A = 2.0

#: From this a on, the sine/cosine moments come from their asymptotic series.
_ASYMPTOTIC_A = 60.0


def _check_kl(k: float, lambda0: float) -> None:
    # NaN fails every comparison, so NaN is refused with +-inf and non-positive values
    if not (0.0 < k < math.inf and 0.0 < lambda0 < math.inf):
        raise ValueError(f"k and lambda0 must be positive and finite, got k={k}, lambda0={lambda0}")
    if k * lambda0 == math.inf:
        raise ValueError(f"k*lambda0 must be finite, got k={k}, lambda0={lambda0}")


def _validate_kl(k: float, lambda0: float) -> float:
    _check_kl(k, lambda0)
    a = k * lambda0
    if a > 1e3:
        raise ValueError(f"closed forms are restricted to k*lambda0 <= 1e3, got {a}")
    return a


def _sin_cos_moments(a: float, top: int) -> list[complex]:
    # I[m] = integral_a^inf e^{ix} / x^m dx for 1 <= m <= top (I[0] unused), so
    # that integral_a^inf cos(x)/x^m = I[m].real and sin(x)/x^m = I[m].imag.
    # Integration by parts links the orders: I[m+1] = (e^{ia} a^-m + i I[m]) / m.
    phase = complex(math.cos(a), math.sin(a))
    moments = [0j] * (top + 1)
    if a < _ASYMPTOTIC_A:
        si_a, ci_a = sici(a)
        moments[1] = complex(-ci_a, math.pi / 2.0 - si_a)
        for m in range(1, top):
            moments[m + 1] = (phase / a**m + 1j * moments[m]) / m
        return moments
    # I[top] ~ i e^{ia} a^-top sum_k (top)_k (-i/a)^k, summed up to its smallest
    # term (relative at a = 60: 1e-23 for production's top = 2, 1e-18 for the
    # oracles' top = 6), then recurred downward.
    term = 1j * phase / a**top
    total = term
    for j in range(int(a) - top):
        term *= (top + j) * (-1j / a)
        total += term
        if abs(term) <= 1e-17 * abs(total):
            break
    moments[top] = total
    for m in range(top - 1, 0, -1):
        moments[m] = 1j * (phase / a**m - m * moments[m + 1])
    return moments


def _rho_values(k: float, lambda0: float) -> tuple[float, float, float, float]:
    """rho_A(0), rho_A(2), rho_B(1), rho_B(3) at a = k * lambda0."""
    a = _validate_kl(k, lambda0)
    # integral_a^inf sin(x)/x^2 dx = sin(a)/a - Ci(a)
    rho_a0 = _sin_cos_moments(a, 2)[2].imag
    if a >= SERIES_SWITCH_A:
        sin_a, cos_a = math.sin(a), math.cos(a)
        rho_a2 = (sin_a / a - cos_a) / a**2
        rho_b3 = ((3.0 / a**2 - 1.0) * sin_a - 3.0 * cos_a / a) / a**3
    else:
        # j_1(a)/a = 0F1(; 5/2; -a^2/4) / 3 and j_2(a)/a^2 = 0F1(; 7/2; -a^2/4) / 15,
        # each written as a 1F2 whose first parameters cancel.
        rho_a2 = hyp1f2(1.0, 1.0, 2.5, -0.25 * a * a) / 3.0
        rho_b3 = hyp1f2(1.0, 1.0, 3.5, -0.25 * a * a) / 15.0
    # j_0(x) + j_2(x) = 3 j_1(x)/x (DLMF 10.51.1), divided by x and integrated
    # over [a, inf) with integral_a^inf j_2(x)/x dx = j_1(a)/a
    return rho_a0, rho_a2, (rho_a0 + rho_a2) / 3.0, rho_b3


def radial_coefficients(kin: "ScatteringKinematics") -> tuple[float, float, float, float]:
    """The radial integrals (rho_A(0), rho_A(2), rho_B(1), rho_B(3)) for one kinematics.

    They are taken at a = kin.q_mag * kin.lambda0. rho_A(2) = j_1(a)/a and
    rho_B(3) = j_2(a)/a^2 are elementary (their 0F1 series below a = 2,
    SERIES_SWITCH_A), rho_A(0) = sin(a)/a - Ci(a) (its asymptotic series
    from a = 60 on), and rho_B(1) = (rho_A(0) + j_1(a)/a) / 3 at every a.
    Panel quadrature, the sine/cosine reduction and the 1F2 closed forms are
    never called; they are oracles for tests and selfcheck. a > 1e3 raises
    ValueError.
    """
    return _rho_values(kin.q_mag, kin.lambda0)
