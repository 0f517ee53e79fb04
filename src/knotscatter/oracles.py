"""Independent oracles for the production paths, and the selfcheck suite.

Nothing here is called by the amplitude, moment or potential paths; each
oracle recomputes a production quantity by another route:

* radial_A_closed / radial_B_closed, the paper's 1F2 closed forms, at any
  order l >= 1 (A), l >= 2 (B), for a <= CLOSED_FORM_MAX_A, check
  radial.radial_coefficients; the excluded orders sit on a pole of the
  master formula and raise :class:`DegenerateClosedForm`. gamma_ratio
  evaluates their head terms.
* radial_quadrature, direct oscillatory quadrature that integrates
  zero-to-zero panels of j_l and accelerates the alternating partial sums,
  checks the closed forms and radial_reference.
* radial_reference, the sine/cosine reduction at a single order, is the
  second scheme for the orders whose closed form is degenerate (l = 0 for A,
  l = 1 for B). At l = 1 of B it is apart from production, which takes
  rho_B(1) from the Bessel recurrence; at l = 0 of A it shares production's
  moment integral_a^inf e^{ix}/x^2 dx, and the mpmath tests check that one.
* angular_bracket sums monomial_expansion, a monomial's Gaunt-linearized
  expansion over spherical_harmonic (gaunt, clebsch_gordan), against an
  (l, m) map; on i^l Y_lm(qhat) rho(l) it checks born's brackets.
  sphere_quadrature_bracket, on the tensor rule of sphere_rule and
  sphere_integral, checks angular_bracket.
* TABULATED_BRACKETS and TABULATED_VARIANTS, an independently tabulated
  coefficient set, and TRIPLE_PRODUCT_IDENTITIES check monomial_expansion
  through discrepancy_report and triple_product_residual.
* vni_bruteforce, the direct volume quadrature of V_ni, checks
  born.born_amplitude end to end.
* divergence_multipole checks that potential.multipole_potential is
  divergence-free.

selfcheck runs the radial, angular and far-field checks and returns the
document that `knotscatter selfcheck` prints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.special import gammaln, gammasgn, sph_harm_y, spherical_jn

from .angular import DirectionCosineMonomial
from .born import ScatteringKinematics
from .curves import KnotSpec, TorusKnot, check_cutoff
from .multipole import OctopoleMoments, QuadrupoleMoments, octopole_moments, quadrupole_moments
from .potential import FieldPoint, _biot_savart_batch, _multipole_components, multipole_potential
from .radial import _check_kl, _sin_cos_moments, _validate_kl
from .specfun import DegenerateClosedForm, NonConvergent, hyp1f2

_SQ = math.sqrt
_PI = math.pi


def gamma_ratio(numerator_arg: float, denominator_arg: float) -> float:
    """Gamma(a) / Gamma(b), evaluated stably in log space with signs."""
    for arg in (numerator_arg, denominator_arg):
        if arg <= 0 and float(arg).is_integer():
            raise DegenerateClosedForm(f"gamma pole at argument {arg}")
    sign = gammasgn(numerator_arg) * gammasgn(denominator_arg)
    return float(sign * math.exp(gammaln(numerator_arg) - gammaln(denominator_arg)))


#: Allowed weight powers: the integrand written as r**weight_power * J_{l+1/2}(k r)
#: corresponds to j_l(k r)/r (power -3/2) or j_l(k r)/r^2 (power -5/2).
WEIGHT_POWERS = (-1.5, -2.5)

#: Largest a accepted by radial_A_closed and radial_B_closed. Measured against
#: mpmath on a 0.01-spaced grid, the 1F2 series keeps the error within
#: 1e-10 * max(|rho|, a^-(s+1)) up to a = 15.4 for A(1..5) and B(2..4); the
#: first miss is A(1) at a = 15.45, and the error grows to ~1e-4 at a = 32.
CLOSED_FORM_MAX_A = 15.0


def _validate_closed(k: float, lambda0: float) -> float:
    a = _validate_kl(k, lambda0)
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
    a = _validate_closed(k, lambda0)
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
    a = _validate_closed(k, lambda0)
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
    from scipy.optimize import brentq  # lazy: keeps scipy.optimize off the import path

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
    _check_kl(k, lambda0)
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


#: j_l(x) written as S(1/x) sin(x) + C(1/x) cos(x) (DLMF 10.49); maps give
#: {power: coefficient}.
_SIN_COS_FORM = {
    0: ({1: 1.0}, {}),
    1: ({2: 1.0}, {1: -1.0}),
    2: ({3: 3.0, 1: -1.0}, {2: -3.0}),
    3: ({4: 15.0, 2: -6.0}, {3: -15.0, 1: 1.0}),
}


def _sin_cos_integral(l: int, s: int, moments: list[complex]) -> float:
    # integral_a^inf j_l(x) / x^s dx from the moments of radial._sin_cos_moments
    sin_coef, cos_coef = _SIN_COS_FORM[l]
    total = sum(c * moments[m + s].imag for m, c in sin_coef.items())
    total += sum(c * moments[m + s].real for m, c in cos_coef.items())
    return float(total)


def radial_reference(weight_power: float, l: int, k: float, lambda0: float) -> float:
    """Evaluation of the radial integral via sine/cosine integrals, one order.

    Expands j_l into sin and cos terms (DLMF 10.49) and reduces every piece
    to Si and Ci with an exact integration-by-parts recurrence, or from
    a = k*lambda0 = 60 on to the asymptotic series of the highest moment
    (radial._sin_cos_moments). Only l = 0 with s = 1 coincides with
    production (rho_A(0) = sin(a)/a - Ci(a)); every other order is a scheme
    apart from it. Structurally unrelated to the panel quadrature, which
    makes it the second scheme for validating the orders whose closed form
    is degenerate. Loses digits to cancellation at small a for l >= 1
    (l = 1: 4e-11 relative at a = 1e-3; l = 3: 1e-2).
    """
    if weight_power not in WEIGHT_POWERS:
        raise ValueError(f"weight_power must be one of {WEIGHT_POWERS}, got {weight_power}")
    if l not in _SIN_COS_FORM:
        raise ValueError(f"orders 0 <= l <= 3 supported, got {l}")
    _check_kl(k, lambda0)
    s = 1 if weight_power == -1.5 else 2
    moments = _sin_cos_moments(k * lambda0, l + s + 1)
    return _sin_cos_integral(l, s, moments) * k ** (s - 1)


def spherical_harmonic(l: int, m: int, theta, phi):
    """Orthonormal spherical harmonic Y_{lm}(theta, phi), Condon-Shortley phase.

    theta is the polar angle, phi the azimuth; broadcasts over array inputs.
    """
    if abs(m) > l:
        raise ValueError(f"|m| <= l required, got l={l}, m={m}")
    return sph_harm_y(l, m, theta, phi)


@lru_cache(maxsize=None)
def _cg_exact(l1: int, l2: int, m1: int, m2: int, L: int, M: int) -> tuple[int, Fraction]:
    # Exact square and sign of the coefficient via integer factorials.
    f = math.factorial
    pref = Fraction(
        (2 * L + 1) * f(l1 + l2 - L) * f(l1 - l2 + L) * f(-l1 + l2 + L),
        f(l1 + l2 + L + 1),
    ) * Fraction(f(L + M) * f(L - M) * f(l1 - m1) * f(l1 + m1) * f(l2 - m2) * f(l2 + m2))
    total = Fraction(0)
    for k in range(0, l1 + l2 + L + 1):
        denoms = (k, l1 + l2 - L - k, l1 - m1 - k, l2 + m2 - k, L - l2 + m1 + k, L - l1 - m2 + k)
        if any(d < 0 for d in denoms):
            continue
        term = Fraction((-1) ** k, math.prod(f(d) for d in denoms))
        total += term
    sign = 0 if total == 0 else (1 if total > 0 else -1)
    return sign, pref * total * total


def clebsch_gordan(l1: int, l2: int, m1: int, m2: int, L: int, M: int) -> float:
    """Coefficient <l1, l2; m1, m2 | L, M> by the closed finite sum.

    All arithmetic is exact (integer factorials and rationals) up to the
    final square root, eliminating accumulation error for the small l used
    here; selection-rule violations return 0.
    """
    for l, m in ((l1, m1), (l2, m2), (L, M)):
        if l < 0 or abs(m) > l:
            return 0.0
    if M != m1 + m2 or L < abs(l1 - l2) or L > l1 + l2:
        return 0.0
    sign, square = _cg_exact(l1, l2, m1, m2, L, M)
    return sign * math.sqrt(float(square))


@lru_cache(maxsize=None)
def gaunt(l1: int, m1: int, l2: int, m2: int, L: int, M: int) -> float:
    """Integral of Y*_{LM} Y_{l1 m1} Y_{l2 m2} over the unit sphere.

    Equivalently the coefficient of Y_{LM} in the product Y_{l1 m1} Y_{l2 m2}:

        sqrt((2 l1 + 1)(2 l2 + 1) / (4 pi (2 L + 1)))
        * <l1, l2; 0, 0 | L, 0> * <l1, l2; m1, m2 | L, M>.

    Selection rules (M = m1 + m2, triangle inequality, parity) give 0. The
    memo table is read-only after first computation and safe for concurrent
    readers.
    """
    return (
        math.sqrt((2 * l1 + 1) * (2 * l2 + 1) / (4.0 * math.pi * (2 * L + 1)))
        * clebsch_gordan(l1, l2, 0, 0, L, 0)
        * clebsch_gordan(l1, l2, m1, m2, L, M)
    )


@dataclass(frozen=True)
class HarmonicExpansion:
    """Finite expansion mono = sum over terms of c_{lm} Y_{lm}."""

    terms: dict

    def evaluate(self, theta: float, phi: float) -> complex:
        return sum(c * complex(spherical_harmonic(l, m, theta, phi)) for (l, m), c in self.terms.items())


#: Degree-1 expansions: R1, R2, R3 over Y_{1,m}, and the constant over Y_{0,0}.
_SEEDS = (
    {(1, -1): _SQ(2 * _PI / 3), (1, 1): -_SQ(2 * _PI / 3)},
    {(1, -1): 1j * _SQ(2 * _PI / 3), (1, 1): 1j * _SQ(2 * _PI / 3)},
    {(1, 0): _SQ(4 * _PI / 3)},
)


def _multiply_seed(terms: dict, seed: dict) -> dict:
    out: dict = {}
    for (l1, m1), c1 in terms.items():
        for (l2, m2), c2 in seed.items():
            M = m1 + m2
            for L in range(abs(l1 - l2), l1 + l2 + 1):
                if abs(M) > L:
                    continue
                g = gaunt(l1, m1, l2, m2, L, M)
                if g != 0.0:
                    out[L, M] = out.get((L, M), 0.0) + c1 * c2 * g
    return {key: val for key, val in out.items() if abs(val) > 1e-14}


@lru_cache(maxsize=None)
def _expansion_terms(exponents: tuple[int, int, int]) -> tuple:
    terms = {(0, 0): _SQ(4 * _PI)}
    for axis, n in enumerate(exponents):
        for _ in range(n):
            terms = _multiply_seed(terms, _SEEDS[axis])
    return tuple(sorted(terms.items()))


def monomial_expansion(mono: DirectionCosineMonomial) -> HarmonicExpansion:
    """Exact harmonic expansion of a degree <= 3 direction-cosine monomial.

    Built by repeated Gaunt linearization of the degree-1 expansions, not
    from any hardcoded table. Only l of the monomial's degree parity appear.
    """
    return HarmonicExpansion(terms=dict(_expansion_terms(mono.exponents)))


def angular_bracket(mono: DirectionCosineMonomial, coeffs: dict) -> complex:
    """sum_{l,m} coeffs(l, m) * integral Y*_{lm} mono dOmega, by orthonormality.

    Every (l, m) touched by the monomial's expansion must be present in
    coeffs; missing entries raise KeyError naming them all.
    """
    terms = monomial_expansion(mono).terms
    missing = sorted(key for key in terms if key not in coeffs)
    if missing:
        raise KeyError(f"coefficient map lacks required (l, m) entries: {missing}")
    return complex(sum(coeffs[key] * c for key, c in terms.items()))


@lru_cache(maxsize=8)
def sphere_rule(n_polar: int = 50, n_azimuth: int = 128) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tensor-product quadrature nodes and weights on the 2-sphere.

    Gauss-Legendre in cos(theta) crossed with a uniform trapezoid in phi.
    Exact for spherical polynomials up to degree 2*n_polar - 1 in cos(theta)
    and azimuthal frequency n_azimuth - 1. Returns (theta, phi, weights) as
    broadcastable meshgrid arrays with sum(weights) = 4 pi.
    """
    u, w = np.polynomial.legendre.leggauss(n_polar)
    theta = np.arccos(u)[:, None]
    phi = (np.arange(n_azimuth) * (2.0 * math.pi / n_azimuth))[None, :]
    weights = np.broadcast_to(w[:, None] * (2.0 * math.pi / n_azimuth), (n_polar, n_azimuth)).copy()
    for arr in (theta, phi, weights):
        arr.flags.writeable = False
    return theta, phi, weights


def sphere_integral(f: Callable[[np.ndarray, np.ndarray], np.ndarray], n_polar: int = 50, n_azimuth: int = 128) -> complex:
    """Integral of f(theta, phi) over the unit sphere by the tensor rule."""
    theta, phi, weights = sphere_rule(n_polar, n_azimuth)
    values = f(theta, phi)
    return complex((weights * values).sum())


def sphere_quadrature_bracket(mono: DirectionCosineMonomial, coeffs: dict) -> complex:
    """Same bracket via direct 2-sphere quadrature of each projection integral.

    Independent oracle for angular_bracket: every integral Y*_{lm} mono is
    evaluated on the 12 x 24 Gauss-Legendre x trapezoid product rule, exact
    for these polynomial integrands up to l = 3. Sums over every entry of
    coeffs (entries orthogonal to the monomial integrate to zero).
    """
    theta, phi, weights = sphere_rule(12, 24)
    mono_values = mono.evaluate(theta, phi)
    total = 0.0 + 0.0j
    for (l, m), coefficient in coeffs.items():
        ylm = spherical_harmonic(l, m, theta, phi)
        total += coefficient * np.sum(weights * np.conj(ylm) * mono_values)
    return complex(total)


_C32 = (2 * _PI / 3) ** 1.5
_C43 = (4 * _PI / 3) ** 1.5

#: Independently tabulated expansion coefficients, kept purely as regression
#: fixtures; maps exponent triple -> {(l, m): tabulated coefficient}.
TABULATED_BRACKETS = {
    (0, 0, 0): {(0, 0): _SQ(4 * _PI)},
    (1, 0, 0): {(1, -1): _SQ(2 * _PI / 3), (1, 1): -_SQ(2 * _PI / 3)},
    (0, 1, 0): {(1, -1): 1j * _SQ(2 * _PI / 3), (1, 1): 1j * _SQ(2 * _PI / 3)},
    (0, 0, 1): {(1, 0): _SQ(4 * _PI / 3)},
    (2, 0, 0): {
        (2, -2): _SQ(2 * _PI / 15),
        (2, 2): _SQ(2 * _PI / 15),
        (2, 0): -(2.0 / 3.0) * _SQ(_PI / 5),
        (0, 0): (2.0 / 3.0) * _SQ(_PI),
    },
    (0, 2, 0): {
        (2, -2): -_SQ(2 * _PI / 15),
        (2, 2): -_SQ(2 * _PI / 15),
        (2, 0): -(2.0 / 3.0) * _SQ(_PI / 5),
        (0, 0): (2.0 / 3.0) * _SQ(_PI),
    },
    (0, 0, 2): {(0, 0): (2.0 / 3.0) * _SQ(_PI), (2, 0): (4.0 / 3.0) * _SQ(_PI / 5)},
    (1, 1, 0): {
        (2, -2): 1j * (2 * _PI / 3) * _SQ(3 / (10 * _PI)),
        (2, 2): -1j * (2 * _PI / 3) * _SQ(3 / (10 * _PI)),
    },
    (1, 0, 1): {(2, -1): _SQ(2 * _PI / 15), (2, 1): -_SQ(2 * _PI / 15)},
    (0, 1, 1): {(2, -1): 1j * _SQ(2 * _PI / 15), (2, 1): 1j * _SQ(2 * _PI / 15)},
    (3, 0, 0): {
        (3, -3): _C32 * (3 / (2 * _PI)) * _SQ(3 / 70),
        (1, -1): _C32 * 9 / (10 * _PI),
        (3, -1): -_C32 * (9 / (10 * _PI)) * _SQ(1 / 14),
        (1, 1): -_C32 * 9 / (10 * _PI),
        (3, 1): _C32 * 9 / (10 * _PI * _SQ(14)),
        (3, 3): -_C32 * (3 / (2 * _PI)) * _SQ(3 / 70),
    },
    (0, 3, 0): {
        (3, -3): -1j * _C32 * (3 / (2 * _PI)) * _SQ(3 / 70),
        (1, -1): 1j * _C32 * 9 / (10 * _PI),
        (3, -1): -1j * _C32 * (9 / (10 * _PI)) * _SQ(1 / 14),
        (1, 1): 1j * _C32 * 9 / (10 * _PI),
        (3, 1): -1j * _C32 * 9 / (10 * _PI * _SQ(14)),
        (3, 3): -1j * _C32 * (3 / (2 * _PI)) * _SQ(3 / 70),
    },
    (0, 0, 3): {(1, 0): _C43 * 9 / (20 * _PI), (3, 0): _C43 * (3 / (10 * _PI)) * _SQ(3 / 7)},
    (1, 2, 0): {
        (3, -3): -_C32 * (3 / (2 * _PI)) * _SQ(3 / 70),
        (1, -1): _C32 * 3 / (10 * _PI),
        (3, -1): -_C32 * (3 / (10 * _PI)) * _SQ(1 / 14),
        (1, 1): -_C32 * 3 / (10 * _PI),
        (3, 1): _C32 * 3 / (10 * _PI * _SQ(14)),
        (3, 3): _C32 * (3 / (2 * _PI)) * _SQ(3 / 70),
    },
    (2, 1, 0): {
        (3, -3): 1j * _C32 * (3 / (2 * _PI)) * _SQ(3 / 70),
        (1, -1): 1j * _C32 * 3 / (10 * _PI),
        (3, -1): -1j * _C32 * (3 / (10 * _PI)) * _SQ(1 / 14),
        (1, 1): 1j * _C32 * 3 / (10 * _PI),
        (3, 1): -1j * _C32 * 3 / (10 * _PI * _SQ(14)),
        (3, 3): 1j * _C32 * (3 / (2 * _PI)) * _SQ(3 / 70),
    },
    (1, 0, 2): {
        (1, -1): (1.0 / 5.0) * _SQ(2 * _PI / 3),
        (3, -1): (4.0 / 5.0) * _SQ(_PI / 21),
        (1, 1): -(1.0 / 5.0) * _SQ(2 * _PI / 3),
        (3, 1): -(4.0 / 5.0) * _SQ(_PI / 21),
    },
    (2, 0, 1): {
        (3, -2): _SQ(2 * _PI / 105),
        (1, 0): (2.0 / 5.0) * _SQ(_PI / 3),
        (3, 0): -(2.0 / 5.0) * _SQ(_PI / 7),
        (3, 2): _SQ(2 * _PI / 105),
    },
    (0, 2, 1): {
        (3, -2): -_SQ(2 * _PI / 105),
        (1, 0): (2.0 / 5.0) * _SQ(_PI / 3),
        (3, 0): -(2.0 / 5.0) * _SQ(_PI / 7),
        (3, 2): -_SQ(2 * _PI / 105),
    },
    (0, 1, 2): {
        (1, -1): (1j / 5.0) * _SQ(2 * _PI / 3),
        (3, -1): (4j / 5.0) * _SQ(_PI / 21),
        (1, 1): (1j / 5.0) * _SQ(2 * _PI / 3),
        (3, 1): (4j / 5.0) * _SQ(_PI / 21),
    },
    (1, 1, 1): {(3, -2): 1j * _SQ(2 * _PI / 105), (3, 2): -1j * _SQ(2 * _PI / 105)},
}

#: Alternate tabulated values for entries that appear twice in the source
#: material with conflicting coefficients: (exponents, (l, m), value).
TABULATED_VARIANTS = (((1, 0, 2), (1, 1), -4 * _PI / (3 * _SQ(10))),)

#: Reductions of products of three degree-1 harmonics: (factors, terms) with
#: factors a triple of (l, m) and terms the claimed expansion of their product.
TRIPLE_PRODUCT_IDENTITIES = (
    (((1, 0), (1, 1), (1, 1)), {(3, 2): 3 / (2 * _PI * _SQ(70))}),
    (((1, 1), (1, 1), (1, 1)), {(3, 3): (3 / (2 * _PI)) * _SQ(3 / 70)}),
    (((1, -1), (1, 1), (1, 1)), {(1, 1): -3 / (10 * _PI), (3, 1): 3 / (10 * _PI * _SQ(14))}),
    (((1, -1), (1, -1), (1, -1)), {(3, -3): (3 / (2 * _PI)) * _SQ(3 / 70)}),
    (((1, 1), (1, -1), (1, -1)), {(1, -1): -3 / (10 * _PI), (3, -1): (3 / (10 * _PI)) * _SQ(1 / 14)}),
    (((1, 0), (1, -1), (1, -1)), {(3, -2): (3 / (2 * _PI)) * _SQ(1 / 70)}),
    (((1, -1), (1, 0), (1, 0)), {(1, -1): 3 / (20 * _PI), (3, -1): (3 / (10 * _PI)) * _SQ(2 / 7)}),
    (((1, 1), (1, 0), (1, 0)), {(1, 1): 3 / (20 * _PI), (3, 1): (3 / (10 * _PI)) * _SQ(2 / 7)}),
    (((1, 0), (1, 0), (1, 0)), {(1, 0): 9 / (20 * _PI), (3, 0): (3 / (10 * _PI)) * _SQ(3 / 7)}),
    (((1, 0), (1, -1), (1, 1)), {(1, 0): -3 / (20 * _PI), (3, 0): (3 / (20 * _PI)) * _SQ(3 / 7)}),
)


def triple_product_residual(theta: float, phi: float) -> float:
    """Worst pointwise defect of the ten triple-product reductions at one angle."""
    worst = 0.0
    for factors, terms in TRIPLE_PRODUCT_IDENTITIES:
        lhs = 1.0 + 0.0j
        for l, m in factors:
            lhs *= complex(spherical_harmonic(l, m, theta, phi))
        rhs = sum(c * complex(spherical_harmonic(l, m, theta, phi)) for (l, m), c in terms.items())
        worst = max(worst, abs(lhs - rhs))
    return worst


def discrepancy_report() -> list[dict]:
    """Tabulated-versus-computed mismatches above 1e-11, as JSON-ready dicts.

    Checks every entry of TABULATED_BRACKETS and every alternate value in
    TABULATED_VARIANTS against the Gaunt-built expansion. Exactly one entry
    is expected: the alternate (1,1) coefficient of the R1*R3^2 bracket.
    """
    report = []
    for exponents, table in sorted(TABULATED_BRACKETS.items()):
        computed = monomial_expansion(DirectionCosineMonomial(exponents)).terms
        for (l, m), value in sorted(table.items()):
            reference = complex(computed.get((l, m), 0.0))
            if abs(complex(value) - reference) > 1e-11:
                report.append(_report_entry(exponents, l, m, value, reference))
    for exponents, (l, m), value in TABULATED_VARIANTS:
        computed = monomial_expansion(DirectionCosineMonomial(exponents)).terms
        reference = complex(computed.get((l, m), 0.0))
        if abs(complex(value) - reference) > 1e-11:
            report.append(_report_entry(exponents, l, m, value, reference))
    return report


def _report_entry(exponents, l, m, tabulated, computed) -> dict:
    tabulated = complex(tabulated)
    computed = complex(computed)
    return {
        "monomial": list(exponents),
        "l": l,
        "m": m,
        "tabulated_value": [tabulated.real, tabulated.imag],
        "computed_value": [computed.real, computed.imag],
    }


@dataclass(frozen=True)
class BruteforceGrid:
    """Quadrature knobs for vni_bruteforce.

    n_polar None sizes the rotated-axis Gauss-Legendre rule from the largest
    phase q*r reached, including the extrapolation tail. field selects the
    integrand potential: 'multipole' (matching the closed form's truncation)
    or 'biot-savart' (exact line integral; slow, for smoke tests).
    """

    n_polar: int | None = None
    n_azimuth: int = 32
    radial_points: int = 12
    tail_panels: int = 24
    field: str = "multipole"

    def __post_init__(self) -> None:
        if self.field not in ("multipole", "biot-savart"):
            raise ValueError(f"field must be 'multipole' or 'biot-savart', got {self.field!r}")
        if self.n_azimuth < 8 or self.radial_points < 4 or self.tail_panels < 6:
            raise ValueError("quadrature grid too coarse")


def vni_bruteforce(
    spec: KnotSpec,
    kin: ScatteringKinematics,
    g: float = 1.0,
    r_max: float = 200.0,
    grid_spec: BruteforceGrid | None = None,
) -> complex:
    """Direct volume quadrature of V_ni over lambda0 < r < infinity.

    Integrates e^{i q.r} A~(x).K with the opposite order of operations from
    the closed form: nothing here touches the harmonic expansion or the
    radial coefficient maps. The frame is rotated so the polar axis lies
    along qhat (the phase becomes e^{i q r u}); radii are covered by
    Gauss-Legendre panels of half the phase period, out to r_max, and the
    remaining tail is extrapolated from the alternating partial sums of
    further panels. The slowly decaying integrand makes plain truncation at
    r_max wrong at the percent level; the extrapolation removes that.
    """
    grid = grid_spec or BruteforceGrid()
    if r_max < 30.0 * kin.lambda0:
        raise ValueError(f"r_max must be at least 30 lambda0 = {30.0 * kin.lambda0}, got {r_max}")
    check_cutoff(spec, kin.lambda0)
    quad = quadrupole_moments(spec)
    octo = octopole_moments(spec)
    q_mag = kin.q_mag
    q_hat = kin.q_hat
    K = kin.K_vec

    # orthonormal frame (e1, e2, q_hat)
    helper = np.array([1.0, 0.0, 0.0]) if abs(q_hat[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(q_hat, helper)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(q_hat, e1)

    panel_width = math.pi / q_mag
    n_base = int(math.ceil((r_max - kin.lambda0) / panel_width))
    n_total = n_base + grid.tail_panels
    r_end = kin.lambda0 + n_total * panel_width
    n_polar = grid.n_polar or (int(0.55 * q_mag * r_end) + 40)

    u, w_u = np.polynomial.legendre.leggauss(n_polar)
    phi = np.arange(grid.n_azimuth) * (2.0 * math.pi / grid.n_azimuth)
    w_phi = 2.0 * math.pi / grid.n_azimuth
    sin_u = np.sqrt(1.0 - u**2)
    # unit directions, shape (n_polar * n_azimuth, 3)
    dirs = (
        u[:, None, None] * q_hat[None, None, :]
        + sin_u[:, None, None]
        * (np.cos(phi)[None, :, None] * e1[None, None, :] + np.sin(phi)[None, :, None] * e2[None, None, :])
    ).reshape(-1, 3)
    phase_u = np.repeat(u, grid.n_azimuth)
    weights = np.repeat(w_u, grid.n_azimuth) * w_phi

    gl_r, gl_w = np.polynomial.legendre.leggauss(grid.radial_points)

    if grid.field == "multipole":
        # the truncated field at r*u is a3(u)/r^3 + a4(u)/r^4: both angular
        # parts are taken once, at r = 1
        ones = np.ones(len(dirs))
        a3 = _multipole_components(quad, octo, ones, dirs, "quadrupole") @ K
        a4 = _multipole_components(quad, octo, ones, dirs, "octopole") @ K - a3

    def field_dot_k(r: float) -> np.ndarray:
        if grid.field == "multipole":
            return a3 / r**3 + a4 / r**4
        return _biot_savart_batch(spec, r * dirs) @ K

    def panel(lo: float, hi: float) -> complex:
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        total = 0.0 + 0.0j
        for node, node_w in zip(gl_r, gl_w):
            r = mid + half * node
            phases = np.exp(1j * q_mag * r * phase_u)
            integrand = field_dot_k(r)
            total += half * node_w * r * r * np.sum(weights * phases * integrand)
        return total

    partial = np.empty(n_total, dtype=complex)
    acc = 0.0 + 0.0j
    for idx in range(n_total):
        lo = kin.lambda0 + idx * panel_width
        acc += panel(lo, lo + panel_width)
        partial[idx] = acc

    # tail extrapolation of the alternating panel sums beyond r_max
    tail = partial[n_base - 1 :]
    *_, limit = _aitken_levels(tail)
    return complex(-g / (4.0 * math.pi) * limit)


def divergence_multipole(quad: QuadrupoleMoments, octo: OctopoleMoments, point: FieldPoint) -> float:
    """Numerical divergence of the octopole-order potential by central differences.

    The step is 1e-4 r. The exact field is divergence-free (Coulomb gauge),
    so this should vanish to finite-difference accuracy.
    """
    x0 = point.cartesian
    h = 1e-4 * point.r
    total = 0.0
    for axis in range(3):
        offset = np.zeros(3)
        offset[axis] = h
        for sign in (+1.0, -1.0):
            shifted = FieldPoint.from_cartesian(*(x0 + sign * offset))
            value = multipole_potential(quad, octo, shifted)
            total += sign * value.vector[axis] / (2.0 * h)
    return total


def _selfcheck_radial(lambda0: float) -> tuple[dict, dict]:
    grid = (0.3, 0.5, 1.0, 2.0, 5.0, 10.0)
    worst_closed = 0.0
    for a in grid:
        k = a / lambda0
        quad_a = radial_quadrature(-1.5, 2, k, lambda0)
        quad_b = radial_quadrature(-2.5, 3, k, lambda0) / k
        worst_closed = max(
            worst_closed,
            abs(radial_A_closed(2, k, lambda0) - quad_a) / abs(quad_a),
            abs(radial_B_closed(3, k, lambda0) - quad_b) / abs(quad_b),
        )
    closed = {
        "name": "radial_closed_vs_quadrature",
        "passed": bool(worst_closed <= 1e-7),
        "worst_relative_error": worst_closed,
        "tolerance": 1e-7,
    }
    worst_pair = 0.0
    for a in grid:
        k = a / lambda0
        for power, l in ((-1.5, 0), (-2.5, 1)):
            one = radial_quadrature(power, l, k, lambda0)
            two = radial_reference(power, l, k, lambda0)
            worst_pair = max(worst_pair, abs(one - two) / max(abs(two), 1e-30))
    degenerate = {
        "name": "radial_degenerate_two_schemes",
        "passed": bool(worst_pair <= 1e-8),
        "worst_relative_error": worst_pair,
        "tolerance": 1e-8,
    }
    return closed, degenerate


def _selfcheck_angular() -> tuple[dict, dict, dict]:
    worst_table = 0.0
    for exponents, table in TABULATED_BRACKETS.items():
        computed = monomial_expansion(DirectionCosineMonomial(exponents)).terms
        for key, value in table.items():
            worst_table = max(worst_table, abs(complex(value) - complex(computed.get(key, 0.0))))
    tables = {
        "name": "angular_tables_vs_oracle",
        "passed": bool(worst_table <= 1e-11),
        "worst_absolute_error": worst_table,
        "tolerance": 1e-11,
    }
    report = discrepancy_report()
    discrepancies = {
        "name": "tabulated_discrepancies",
        "entries": report,
        "note": "known alternate tabulated coefficient; informational unless --strict-tables",
    }
    rng = np.random.default_rng(2024)
    worst_identity = 0.0
    for _ in range(100):
        theta = float(rng.uniform(0.01, math.pi - 0.01))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        worst_identity = max(worst_identity, triple_product_residual(theta, phi))
    identities = {
        "name": "triple_product_identities",
        "passed": bool(worst_identity <= 1e-12),
        "worst_pointwise_error": worst_identity,
        "tolerance": 1e-12,
    }
    return tables, discrepancies, identities


def _selfcheck_farfield() -> dict:
    spec = TorusKnot(2, 3)
    quad = quadrupole_moments(spec)
    octo = octopole_moments(spec)
    rng = np.random.default_rng(7)
    radii = np.geomspace(30.0, 300.0, 8)
    slopes = []
    for _ in range(5):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        points = radii[:, None] * direction[None, :]
        exact = _biot_savart_batch(spec, points)
        truncated = _multipole_components(
            quad, octo, radii, np.broadcast_to(direction, (len(radii), 3)), "octopole"
        )
        gap = np.linalg.norm(exact - truncated, axis=1)
        slopes.append(float(np.polyfit(np.log(radii), np.log(gap), 1)[0]))
    worst_div = 0.0
    for _ in range(3):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        point = FieldPoint.from_cartesian(*(float(rng.uniform(15.0, 60.0)) * direction))
        magnitude = multipole_potential(quad, octo, point).magnitude
        worst_div = max(
            worst_div, abs(divergence_multipole(quad, octo, point)) / (magnitude / point.r)
        )
    slope_ok = all(abs(s + 5.0) <= 0.3 for s in slopes)
    return {
        "name": "far_field_truncation",
        "passed": bool(slope_ok and worst_div <= 1e-6),
        "slopes": slopes,
        "slope_target": [-5.3, -4.7],
        "worst_scaled_divergence": worst_div,
        "divergence_tolerance": 1e-6,
    }


def selfcheck(lambda0: float, strict_tables: bool) -> tuple[dict, bool]:
    """Run the radial, angular and far-field oracle checks at cutoff lambda0.

    Returns the JSON-ready document and whether every check passed; with
    strict_tables, a known tabulated discrepancy counts as a failure.
    """
    closed, degenerate = _selfcheck_radial(lambda0)
    tables, discrepancies, identities = _selfcheck_angular()
    farfield = _selfcheck_farfield()
    checks = [closed, degenerate, tables, identities, farfield]
    passed = all(check["passed"] for check in checks)
    if strict_tables and discrepancies["entries"]:
        passed = False
    document = {
        "checks": checks,
        "discrepancies": discrepancies,
        "strict_tables": bool(strict_tables),
        "passed": bool(passed),
    }
    return document, bool(passed)
