"""Semi-infinite radial integrals over spherical Bessel functions.

Two families of integrals over the exterior of the cutoff sphere r = lambda0
appear in the scattering matrix element:

    rho_A(l) = integral_{lambda0}^{inf} j_l(k r) / r   dr
    rho_B(l) = (1/k) integral_{lambda0}^{inf} j_l(k r) / r^2 dr

Both are dimensionless functions of a = k*lambda0 alone. The amplitude path
(radial_coefficients) uses one production scheme per order, switching at
a = 2 (SICI_SWITCH_A):

* rho_A(2) = j_1(a)/a and rho_B(3) = j_2(a)/a^2 (DLMF 10.51.2,
  integral_a^inf j_l(x) x^(1-l) dx = a^(1-l) j_{l-1}(a)): elementary
  sin/cos forms for a >= 2, the 0F1 series of j_l(a)/a^l below, where the
  elementary forms cancel like a^(-2l).
* rho_A(0) at every a, and rho_B(1) for a >= 2: j_l written as a finite sum
  of sin(x)/x^m and cos(x)/x^m terms (DLMF 10.49), each integrated in
  closed form from the sine and cosine integrals (A&S 5.2). Below a = 60 the
  moments integral_a^inf e^{ix}/x^m dx follow from Si(a), Ci(a) by upward
  recurrence; from a = 60 on they follow from the asymptotic series of the
  highest moment by downward recurrence, because the upward recurrence
  amplifies the rounding of Ci(a) by up to a^2 there.
* rho_B(1) below a = 2: (rho_A(0) + rho_A(2)) / 3, which avoids the 1/a^2
  cancellation of the sine/cosine form at small a.

Arguments a > 1e3 are refused with ValueError. Against a 40-digit mpmath
evaluation (241 log-spaced a in [1e-3, 1e3], 4001 in [30, 1e3]) the
production error stays below 5e-13 of |rho| for a < 1 and of
max(|rho|, a^-(s+1)) for a >= 1 (s = 1 for A, 2 for B; the envelope covers
the zeros of the oscillating tail). The tests hold it to 1e-10.

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

#: Below this a the production scheme takes rho_A(2), rho_B(3) from the 0F1
#: series and rho_B(1) from rho_A(0); from it on, rho_A(2) and rho_B(3) from
#: sin and cos, rho_B(1) from Si and Ci.
SICI_SWITCH_A = 2.0

#: From this a on, the sine/cosine moments come from their asymptotic series.
_ASYMPTOTIC_A = 60.0


def _check_kl(k: float, lambda0: float) -> None:
    # NaN fails every comparison, so NaN is refused with +-inf and non-positive values
    if not (0.0 < k < math.inf and 0.0 < lambda0 < math.inf):
        raise ValueError(f"k and lambda0 must be positive and finite, got k={k}, lambda0={lambda0}")


def _validate_kl(k: float, lambda0: float) -> float:
    _check_kl(k, lambda0)
    a = k * lambda0
    if a > 1e3:
        raise ValueError(f"closed forms are restricted to k*lambda0 <= 1e3, got {a}")
    return a


#: j_l(x) written as S(1/x) sin(x) + C(1/x) cos(x); maps give {power: coefficient}.
_SIN_COS_FORM = {
    0: ({1: 1.0}, {}),
    1: ({2: 1.0}, {1: -1.0}),
    2: ({3: 3.0, 1: -1.0}, {2: -3.0}),
    3: ({4: 15.0, 2: -6.0}, {3: -15.0, 1: 1.0}),
}


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
    # term (~6e-21 relative at a = 60, top = 4), then recurred downward.
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


def _sin_cos_integral(l: int, s: int, moments: list[complex]) -> float:
    # integral_a^inf j_l(x) / x^s dx from the moments of _sin_cos_moments
    sin_coef, cos_coef = _SIN_COS_FORM[l]
    total = sum(c * moments[m + s].imag for m, c in sin_coef.items())
    total += sum(c * moments[m + s].real for m, c in cos_coef.items())
    return float(total)


def _rho_values(k: float, lambda0: float) -> tuple[float, float, float, float]:
    """rho_A(0), rho_A(2), rho_B(1), rho_B(3) at a = k * lambda0."""
    a = _validate_kl(k, lambda0)
    if a >= SICI_SWITCH_A:
        moments = _sin_cos_moments(a, 4)
        sin_a, cos_a = math.sin(a), math.cos(a)
        rho_a2 = (sin_a / a - cos_a) / a**2
        rho_b3 = ((3.0 / a**2 - 1.0) * sin_a - 3.0 * cos_a / a) / a**3
        return _sin_cos_integral(0, 1, moments), rho_a2, _sin_cos_integral(1, 2, moments), rho_b3
    rho_a0 = _sin_cos_integral(0, 1, _sin_cos_moments(a, 2))
    # j_1(a)/a = 0F1(; 5/2; -a^2/4) / 3 and j_2(a)/a^2 = 0F1(; 7/2; -a^2/4) / 15,
    # each written as a 1F2 whose first parameters cancel.
    rho_a2 = hyp1f2(1.0, 1.0, 2.5, -0.25 * a * a) / 3.0
    rho_b3 = hyp1f2(1.0, 1.0, 3.5, -0.25 * a * a) / 15.0
    # rho_B(1) = (rho_A(0) + j_1(a)/a) / 3 (differentiate both sides); the
    # sine/cosine form of rho_B(1) would cancel like 1/a^2 here.
    return rho_a0, rho_a2, (rho_a0 + rho_a2) / 3.0, rho_b3


def radial_coefficients(kin: "ScatteringKinematics") -> tuple[float, float, float, float]:
    """The radial integrals (rho_A(0), rho_A(2), rho_B(1), rho_B(3)) for one kinematics.

    They are taken at a = kin.q_mag * kin.lambda0. rho_A(2) = j_1(a)/a and
    rho_B(3) = j_2(a)/a^2 are elementary (their 0F1 series below a = 2,
    SICI_SWITCH_A); rho_A(0) comes from the sine and cosine integrals, and
    so does rho_B(1) from a = 2 on, below which it is
    (rho_A(0) + j_1(a)/a) / 3. Panel quadrature and the 1F2 closed forms are
    never called; they are oracles for tests and selfcheck. a > 1e3 raises
    ValueError.
    """
    return _rho_values(kin.q_mag, kin.lambda0)
