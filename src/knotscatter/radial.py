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

The other evaluations are oracles for tests and the CLI selfcheck, never
called by the amplitude path:

* radial_A_closed / radial_B_closed, the paper's 1F2 closed forms, at any
  order l >= 1 (A), l >= 2 (B), for a <= CLOSED_FORM_MAX_A; the excluded
  orders sit on a pole of the master formula and raise
  :class:`DegenerateClosedForm`,
* radial_quadrature, direct oscillatory quadrature that integrates
  zero-to-zero panels of j_l and accelerates the alternating partial sums,
* radial_reference, the sine/cosine reduction at a single order.

The full coefficient assembly multiplies in i^l Y_lm(khat), and an extra
factor k for the B family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.special import sici, spherical_jn

from .specfun import DegenerateClosedForm, NonConvergent, gamma_ratio, hyp1f2, spherical_harmonic

if TYPE_CHECKING:  # pragma: no cover
    from .born import ScatteringKinematics

#: Allowed weight powers: the integrand written as r**weight_power * J_{l+1/2}(k r)
#: corresponds to j_l(k r)/r (power -3/2) or j_l(k r)/r^2 (power -5/2).
WEIGHT_POWERS = (-1.5, -2.5)

#: Below this a the production scheme takes rho_A(2), rho_B(3) from the 0F1
#: series and rho_B(1) from rho_A(0); from it on, rho_A(2) and rho_B(3) from
#: sin and cos, rho_B(1) from Si and Ci.
SICI_SWITCH_A = 2.0

#: Largest a accepted by radial_A_closed and radial_B_closed. Measured against
#: mpmath on a 0.01-spaced grid, the 1F2 series keeps the error within
#: 1e-10 * max(|rho|, a^-(s+1)) up to a = 15.4 for A(1..5) and B(2..4); the
#: first miss is A(1) at a = 15.45, and the error grows to ~1e-4 at a = 32.
CLOSED_FORM_MAX_A = 15.0

#: From this a on, the sine/cosine moments come from their asymptotic series.
_ASYMPTOTIC_A = 60.0


@dataclass(frozen=True)
class RadialCoefficients:
    """Assembled radial coefficients for one kinematic configuration.

    A maps (l, m) -> i^l Y_lm(khat) rho_A(l) for l in {0, 2};
    B maps (l, m) -> i^l k Y_lm(khat) rho_B(l) for l in {1, 3}.
    khat is the unit vector of the momentum transfer.
    """

    k: float
    lambda0: float
    khat: np.ndarray
    A: dict
    B: dict


def _validate_kl(l: int, k: float, lambda0: float) -> float:
    if k <= 0 or lambda0 <= 0:
        raise ValueError(f"k and lambda0 must be positive, got k={k}, lambda0={lambda0}")
    a = k * lambda0
    if a > 1e3:
        raise ValueError(f"closed forms are restricted to k*lambda0 <= 1e3, got {a}")
    return a


def _validate_closed(l: int, k: float, lambda0: float) -> float:
    a = _validate_kl(l, k, lambda0)
    if a > CLOSED_FORM_MAX_A:
        raise ValueError(
            f"the 1F2 closed form loses accuracy above k*lambda0 = {CLOSED_FORM_MAX_A}, got {a}"
        )
    return a


def radial_A_closed(l: int, k: float, lambda0: float) -> float:
    """Closed form of rho_A(l) = integral_{lambda0}^inf j_l(k r)/r dr, l >= 1.

    sqrt(pi/2) * [ 2^(-3/2) Gamma(l/2)/Gamma((l+3)/2)
                   - a^l / (2^(l+1/2) l Gamma(l+3/2))
                     * 1F2(l/2; l+3/2, (l+2)/2; -a^2/4) ],  a = k*lambda0.

    The series cancels to ~1e-10 at a = 15 (CLOSED_FORM_MAX_A); larger a
    raise ValueError.
    """
    if l == 0:
        raise DegenerateClosedForm("rho_A closed form divides by l; use quadrature for l = 0")
    if l < 0:
        raise ValueError(f"order must be non-negative, got {l}")
    a = _validate_closed(l, k, lambda0)
    head = 2.0 ** (-1.5) * gamma_ratio(l / 2.0, (l + 3) / 2.0)
    tail = (
        a**l
        / (2.0 ** (l + 0.5) * l * math.gamma(l + 1.5))
        * hyp1f2(l / 2.0, l + 1.5, (l + 2) / 2.0, -0.25 * a * a)
    )
    return math.sqrt(math.pi / 2.0) * (head - tail)


def radial_B_closed(l: int, k: float, lambda0: float) -> float:
    """Closed form of rho_B(l) = (1/k) integral_{lambda0}^inf j_l(k r)/r^2 dr, l >= 2.

    sqrt(pi/2) * [ 2^(-5/2) Gamma((l-1)/2)/Gamma((l+4)/2)
                   - a^(l-1) / (2^(l+1/2) (l-1) Gamma(l+3/2))
                     * 1F2((l-1)/2; l+3/2, (l+1)/2; -a^2/4) ],  a = k*lambda0.

    The series cancels to ~1e-10 at a = 15 (CLOSED_FORM_MAX_A); larger a
    raise ValueError.
    """
    if l == 1:
        raise DegenerateClosedForm("rho_B closed form divides by (l-1); use quadrature for l = 1")
    if l < 1:
        raise ValueError(f"order must be at least 1, got {l}")
    a = _validate_closed(l, k, lambda0)
    head = 2.0 ** (-2.5) * gamma_ratio((l - 1) / 2.0, (l + 4) / 2.0)
    tail = (
        a ** (l - 1)
        / (2.0 ** (l + 0.5) * (l - 1) * math.gamma(l + 1.5))
        * hyp1f2((l - 1) / 2.0, l + 1.5, (l + 1) / 2.0, -0.25 * a * a)
    )
    return math.sqrt(math.pi / 2.0) * (head - tail)


def _bessel_zeros_from(l: int, start: float, count: int) -> list[float]:
    # Zeros of j_l greater than start, found by sign-change marching plus
    # Brent refinement. Consecutive zeros are a little more than pi apart.
    from scipy.optimize import brentq  # oracle only: keeps scipy.optimize off the import path

    zeros: list[float] = []
    x = max(start, 1e-9)
    step = 0.4
    block = 8 * count + 8  # ~8 steps per zero
    while True:
        # one spherical_jn call per block; the cumulative sum adds step by
        # step, so the grid is the one a scalar march x += step would visit
        xs = np.cumsum(np.concatenate(([x], np.full(block, step))))
        fs = spherical_jn(l, xs)
        for i in range(block):
            if len(zeros) == count:
                return zeros
            if fs[i] == 0.0:
                zeros.append(float(xs[i]))
            elif fs[i] * fs[i + 1] < 0.0:
                zeros.append(
                    brentq(lambda t: spherical_jn(l, t), xs[i], xs[i + 1], xtol=1e-13, rtol=1e-15)
                )
        x = float(xs[-1])


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _panel_integral(l: int, s: int, lo: float, hi: float) -> float:
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    x = mid + half * _GL_NODES
    return float(half * np.sum(_GL_WEIGHTS * spherical_jn(l, x) / x**s))


def _head_integral(l: int, s: int, a: float, z0: float) -> float:
    # [a, z0] can span a near-singular 1/x-type head when a is small
    # (e.g. j_1(x)/x^2 ~ 1/(3x)); geometric subpanels resolve it.
    n_sub = max(4, int(math.ceil(2.0 * math.log2(z0 / a))))
    cuts = np.geomspace(a, z0, n_sub + 1)
    return sum(_panel_integral(l, s, cuts[i], cuts[i + 1]) for i in range(n_sub))


def _aitken_levels(partial: np.ndarray):
    # Last entry of each level of iterated Aitken delta-squared extrapolation
    # of a (complex or real) partial-sum sequence with eventually alternating
    # error, starting from the partial sums themselves.
    seq = np.asarray(partial, dtype=complex)
    yield seq[-1]
    while len(seq) >= 3:
        d1 = seq[2:] - seq[1:-1]
        d2 = seq[2:] - 2.0 * seq[1:-1] + seq[:-2]
        safe = np.abs(d2) > 1e-300
        nxt = seq[2:].copy()
        nxt[safe] -= d1[safe] ** 2 / d2[safe]
        seq = nxt
        if not np.all(np.isfinite(seq)):
            raise NonConvergent("partial-sum extrapolation produced a non-finite level")
        yield seq[-1]


def _aitken_limit(partial: np.ndarray, abs_tol: float) -> float:
    # first Aitken level whose last entry moved by at most abs_tol / 4
    levels = _aitken_levels(partial)
    prev_last = next(levels)
    for last in levels:
        if abs(last - prev_last) <= 0.25 * abs_tol:
            return last.real if np.isrealobj(partial) else last
        prev_last = last
    raise NonConvergent("partial-sum extrapolation did not stabilize within the panel budget")


def radial_quadrature(
    weight_power: float,
    l: int,
    k: float,
    lambda0: float,
    *,
    n_panels: int = 48,
    abs_tol: float = 1e-10,
) -> float:
    """Oscillatory quadrature of integral_{lambda0}^inf j_l(k r) / r^s dr.

    weight_power selects the integrand: -3/2 for s = 1, -5/2 for s = 2 (the
    power of r multiplying the half-integer Bessel function J_{l+1/2}(k r)).
    After substituting x = k r the integral is split at the zeros of j_l;
    panel integrals use fixed Gauss-Legendre nodes and the alternating
    partial sums are extrapolated to their limit, which handles the slow
    r^(-2) decay of the s = 1 tail.
    """
    if weight_power not in WEIGHT_POWERS:
        raise ValueError(f"weight_power must be one of {WEIGHT_POWERS}, got {weight_power}")
    if not 0 <= l <= 3:
        raise ValueError(f"orders 0 <= l <= 3 supported, got {l}")
    if k <= 0 or lambda0 <= 0:
        raise ValueError(f"k and lambda0 must be positive, got k={k}, lambda0={lambda0}")
    s = 1 if weight_power == -1.5 else 2
    a = k * lambda0
    zeros = _bessel_zeros_from(l, a, n_panels)
    partial = np.empty(n_panels)
    acc = _head_integral(l, s, a, zeros[0])
    partial[0] = acc
    for idx in range(1, n_panels):
        acc += _panel_integral(l, s, zeros[idx - 1], zeros[idx])
        partial[idx] = acc
    # skip the pre-asymptotic head, then extrapolate the alternating tail
    limit = _aitken_limit(partial[4:], abs_tol)
    return float(limit) * k ** (s - 1)


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


def radial_reference(weight_power: float, l: int, k: float, lambda0: float) -> float:
    """Evaluation of the radial integral via sine/cosine integrals, one order.

    Expands j_l into sin and cos terms and reduces every piece to Si and Ci
    with an exact integration-by-parts recurrence: the production scheme for
    l = 0 at every a = k*lambda0 and for every order at a >= 2. Structurally
    unrelated to the panel quadrature, which makes it the second scheme for
    validating the orders whose closed form is degenerate. Loses digits to
    cancellation at small a for l >= 1 (l = 1: 4e-11 relative at a = 1e-3;
    l = 3: 1e-2).
    """
    if weight_power not in WEIGHT_POWERS:
        raise ValueError(f"weight_power must be one of {WEIGHT_POWERS}, got {weight_power}")
    if l not in _SIN_COS_FORM:
        raise ValueError(f"orders 0 <= l <= 3 supported, got {l}")
    if k <= 0 or lambda0 <= 0:
        raise ValueError(f"k and lambda0 must be positive, got k={k}, lambda0={lambda0}")
    s = 1 if weight_power == -1.5 else 2
    moments = _sin_cos_moments(k * lambda0, l + s + 1)
    return _sin_cos_integral(l, s, moments) * k ** (s - 1)


def _rho_values(k: float, lambda0: float) -> tuple[dict, dict]:
    a = _validate_kl(0, k, lambda0)
    if a >= SICI_SWITCH_A:
        moments = _sin_cos_moments(a, 4)
        sin_a, cos_a = math.sin(a), math.cos(a)
        rho_a = {0: _sin_cos_integral(0, 1, moments), 2: (sin_a / a - cos_a) / a**2}
        rho_b3 = ((3.0 / a**2 - 1.0) * sin_a - 3.0 * cos_a / a) / a**3
        return rho_a, {1: _sin_cos_integral(1, 2, moments), 3: rho_b3}
    rho_a0 = _sin_cos_integral(0, 1, _sin_cos_moments(a, 2))
    # j_1(a)/a = 0F1(; 5/2; -a^2/4) / 3 and j_2(a)/a^2 = 0F1(; 7/2; -a^2/4) / 15,
    # each written as a 1F2 whose first parameters cancel.
    rho_a2 = hyp1f2(1.0, 1.0, 2.5, -0.25 * a * a) / 3.0
    rho_b3 = hyp1f2(1.0, 1.0, 3.5, -0.25 * a * a) / 15.0
    # rho_B(1) = (rho_A(0) + j_1(a)/a) / 3 (differentiate both sides); the
    # sine/cosine form of rho_B(1) would cancel like 1/a^2 here.
    return {0: rho_a0, 2: rho_a2}, {1: (rho_a0 + rho_a2) / 3.0, 3: rho_b3}


def radial_coefficients(kin: "ScatteringKinematics") -> RadialCoefficients:
    """Radial coefficient maps A(l, m) and B(l, m) for one kinematics.

    A(l, m) = i^l Y_lm(khat) rho_A(l) for l in {0, 2},
    B(l, m) = i^l k Y_lm(khat) rho_B(l) for l in {1, 3},

    where k and khat are the magnitude and direction of the momentum
    transfer. With a = k * lambda0, rho_A(2) = j_1(a)/a and rho_B(3) =
    j_2(a)/a^2 are elementary (their 0F1 series below a = 2, SICI_SWITCH_A);
    rho_A(0) comes from the sine and cosine integrals, and so does rho_B(1)
    from a = 2 on, below which it is (rho_A(0) + j_1(a)/a) / 3. Panel
    quadrature and the 1F2 closed forms are never called; they are oracles
    for tests and selfcheck. a > 1e3 raises ValueError.
    """
    k = kin.q_mag
    lambda0 = kin.lambda0
    if k <= 0:
        raise ValueError("momentum transfer must be nonzero (forward scattering excluded)")
    khat = kin.q_hat
    theta = math.acos(max(-1.0, min(1.0, khat[2])))
    phi = math.atan2(khat[1], khat[0])
    rho_a, rho_b = _rho_values(k, lambda0)
    A = {}
    for l in (0, 2):
        for m in range(-l, l + 1):
            A[(l, m)] = (1j) ** l * complex(spherical_harmonic(l, m, theta, phi)) * rho_a[l]
    B = {}
    for l in (1, 3):
        for m in range(-l, l + 1):
            B[(l, m)] = (1j) ** l * k * complex(spherical_harmonic(l, m, theta, phi)) * rho_b[l]
    return RadialCoefficients(k=k, lambda0=lambda0, khat=khat, A=A, B=B)
