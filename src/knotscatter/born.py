"""First-order scattering matrix element off the knot's vector potential.

For unnormalized plane waves exp(i k.r) the first-order matrix element over
the exterior of the cutoff sphere r = lambda0 is

    V_ni = -(g / 4 pi) * integral_{r > lambda0} e^{i q.r} A~(x) . K  dV,

with q = k_i - k_n (momentum transfer), K = k_i + k_n, g the coupling
prefactor, and A~ the unit-prefactor multipole potential; ScatteringKinematics
computes q, |q|, qhat and K at construction. The octopole truncation of A~
is the term table of potential.py: 20 terms, each a moment row, a numeric
factor and a direction-cosine monomial at order 1/r^3 or 1/r^4.
The Fourier transform is taken one term at a time: term t contributes
-g (K . row_t) factor_t bracket_t. By the addition theorem (DLMF 14.30.9)
the plane wave weights the degree-l harmonic part of the term's monomial at
qhat by i^l rho(l) (radial module), and a monomial of degree n has parts of
degree n and n - 2 only. With value_t the monomial at qhat, its lower part
low_t = 1, qhat_p, delta_jk / 3 or P_jkl for 1, R_p, R_j R_k or R_j R_k R_l,

    P_jkl = (delta_jk qhat_l + delta_jl qhat_k + delta_kl qhat_j) / 5,

and k = |q|, the brackets are

    1/r^3 terms:  bracket_t = rho_A(0) low_t - rho_A(2) (value_t - low_t)
    1/r^4 terms:  bracket_t = i k [rho_B(1) low_t - rho_B(3) (value_t - low_t)]

Grouped by the table's piece slices, the terms give

    v1 = -g       sum_{j<=k}   [sum_i 3 K_i Q^i_{jk}]  bracket(R_j R_k)
    v2 = -g       [sum_i K_i Q^i_trace]                rho_A(0)
    v3 = -(15/2)g sum_{j<=k<=l} [sum_i K_i O^i_{jkl}]  bracket(R_j R_k R_l)
    v4 = +(3/2)g  sum_p        [sum_i K_i Oc^i_p]      bracket(R_p)

triad_amplitude is the same contraction on a linear combination of unknot
moment rows (p/2 times the planar unknot's quadrupole rows, -q/2 times the
two vertical unknots' octopole rows): the factorized combination of three
unknot amplitudes that the torus-knot amplitude is predicted to equal.
factorization_residual measures that claim on random kinematics as a
relative defect, which the coupling cancels out of. The energy
delta function of the full S matrix is stripped throughout: everything here
is the reduced on-shell element V_ni.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curves import KnotSpec, TorusKnot, UnknotXY, UnknotXZ, UnknotYZ, check_cutoff
from .multipole import octopole_moments, quadrupole_moments
from .potential import _FACTORS, _MONOMIALS, _PIECES, _QUADRUPOLE_TERMS, _moment_rows
from .radial import radial_coefficients

#: Relative on-shell tolerance: inputs farther off the elastic shell are rejected.
ON_SHELL_RTOL = 1e-12

#: Forward-scattering rejection threshold on |q| / |k_i|.
FORWARD_RTOL = 1e-12


def _lower_part(term: np.ndarray) -> np.ndarray:
    # low_t over (qhat_x, qhat_y, qhat_z, 1) for one term's index triple (3 is the constant): below
    # degree 2 the monomial itself, else delta over each index pair times the remaining factor, / (2n - 1)
    row = np.zeros(4)
    degree = int((term < 3).sum())
    if degree < 2:
        row[term.min()] = 1.0
        return row
    for rest in range(3):
        j, k = np.delete(term, rest)
        row[term[rest]] += (j == k) / (2 * degree - 1)  # a pair holding the constant's 3 is never equal
    return row


_LOWER_PARTS = np.array([_lower_part(term) for term in _MONOMIALS.T])


@dataclass(frozen=True)
class ScatteringKinematics:
    """On-shell incident/outgoing wave vectors and the cutoff radius.

    Derived quantities, computed at construction: k = |k_i|, q_vec = k_i - k_n
    (momentum transfer), its magnitude q_mag and direction q_hat, and
    K_vec = k_i + k_n (which contracts the moment tensors). The arrays are
    read-only, so every amplitude on one kinematics shares them; equality,
    hashing, repr and pickling see only (k_i, k_n, lambda0). Wave vectors
    whose norms or |q| overflow, off-shell pairs and forward scattering
    (q = 0, where the monopole radial integral diverges) are rejected.
    """

    k_i: tuple[float, float, float]
    k_n: tuple[float, float, float]
    lambda0: float = 3.5
    k: float = field(init=False, repr=False, compare=False)
    q_vec: np.ndarray = field(init=False, repr=False, compare=False)
    q_mag: float = field(init=False, repr=False, compare=False)
    q_hat: np.ndarray = field(init=False, repr=False, compare=False)
    K_vec: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ki = tuple(float(c) for c in self.k_i)
        kn = tuple(float(c) for c in self.k_n)
        if len(ki) != 3 or len(kn) != 3:
            raise ValueError("wave vectors must have three components")
        if not all(math.isfinite(c) for c in ki + kn):
            raise ValueError("wave vectors must be finite")
        object.__setattr__(self, "k_i", ki)
        object.__setattr__(self, "k_n", kn)
        if not (math.isfinite(self.lambda0) and self.lambda0 > 0):
            raise ValueError(f"lambda0 must be positive, got {self.lambda0}")
        k_mag = math.sqrt(sum(c * c for c in ki))
        kn_mag = math.sqrt(sum(c * c for c in kn))
        q_vec = np.array(ki) - np.array(kn)
        q_mag = float(np.linalg.norm(q_vec))
        if not all(math.isfinite(norm) for norm in (k_mag, kn_mag, q_mag)):
            raise ValueError(f"wave-vector norms overflow: |k_i| = {k_mag}, |k_n| = {kn_mag}, |q| = {q_mag}")
        if k_mag == 0.0:
            raise ValueError("incident wave vector must be nonzero")
        if abs(k_mag - kn_mag) > ON_SHELL_RTOL * k_mag:
            raise ValueError(
                f"off the elastic shell: |k_i| = {k_mag}, |k_n| = {kn_mag} "
                f"(relative tolerance {ON_SHELL_RTOL})"
            )
        if q_mag <= FORWARD_RTOL * k_mag:
            raise ValueError("forward scattering (q = 0) is excluded: khat undefined")
        q_hat = q_vec / q_mag
        K_vec = np.array(ki) + np.array(kn)
        for arr in (q_vec, q_hat, K_vec):
            arr.flags.writeable = False
        for name, value in (("k", k_mag), ("q_vec", q_vec), ("q_mag", q_mag), ("q_hat", q_hat), ("K_vec", K_vec)):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        # rebuilt through __post_init__, so an unpickled copy's arrays are read-only too
        return type(self), (self.k_i, self.k_n, self.lambda0)

    @classmethod
    def from_angles(
        cls,
        k: float,
        ki_theta: float,
        ki_phi: float,
        kn_theta: float,
        kn_phi: float,
        lambda0: float = 3.5,
    ) -> "ScatteringKinematics":
        if k <= 0:
            raise ValueError(f"wave number must be positive, got {k}")

        def vec(theta: float, phi: float) -> tuple[float, float, float]:
            st = math.sin(theta)
            return (k * st * math.cos(phi), k * st * math.sin(phi), k * math.cos(theta))

        return cls(k_i=vec(ki_theta, ki_phi), k_n=vec(kn_theta, kn_phi), lambda0=lambda0)

    def swapped(self) -> "ScatteringKinematics":
        """Time-reversed pair (k_n -> k_i); useful for Hermiticity checks."""
        return ScatteringKinematics(k_i=self.k_n, k_n=self.k_i, lambda0=self.lambda0)


@dataclass(frozen=True)
class BornAmplitude:
    """The four assembled pieces of V_ni; total is their exact sum."""

    v1: complex
    v2: complex
    v3: complex
    v4: complex

    @property
    def total(self) -> complex:
        return self.v1 + self.v2 + self.v3 + self.v4


def _pieces(
    rows: np.ndarray, kin: ScatteringKinematics, rho: tuple[float, float, float, float], g: float
) -> BornAmplitude:
    """The four pieces from (3, 20) moment rows in the order of potential.py's term table.

    rho is radial_coefficients(kin): rho_A(0), rho_A(2), rho_B(1), rho_B(3).
    Term t has weight (K . row_t) factor_t and contributes its weight times
    bracket_t (module docstring), from the monomial's value and lower part at
    kin.q_hat; each piece is -g times the sum over its slice of terms. A
    non-finite g raises ValueError.
    """
    if not math.isfinite(g):
        raise ValueError(f"coupling g must be finite, got {g}")
    rho_a0, rho_a2, rho_b1, rho_b3 = rho
    padded = np.append(kin.q_hat, 1.0)
    low = _LOWER_PARTS @ padded
    top = padded[_MONOMIALS].prod(axis=0) - low
    n = _QUADRUPOLE_TERMS
    brackets = np.empty(len(_FACTORS), dtype=complex)
    brackets[:n] = rho_a0 * low[:n] - rho_a2 * top[:n]
    brackets[n:] = 1j * kin.q_mag * (rho_b1 * low[n:] - rho_b3 * top[n:])
    terms = kin.K_vec @ rows * _FACTORS * brackets
    return BornAmplitude(*(complex(-g * terms[piece].sum()) for piece in _PIECES))


def _spec_rows(spec: KnotSpec) -> np.ndarray:
    return _moment_rows(quadrupole_moments(spec), octopole_moments(spec))


def _triad_rows(p: int, q: int) -> np.ndarray:
    # the pieces are linear in the rows, so the triad's rows are the unknots' rows combined
    planar = _spec_rows(UnknotXY())
    vertical = _spec_rows(UnknotXZ()) + _spec_rows(UnknotYZ())
    return np.concatenate(
        (0.5 * p * planar[:, :_QUADRUPOLE_TERMS], -0.5 * q * vertical[:, _QUADRUPOLE_TERMS:]), axis=1
    )


def born_amplitude(spec: KnotSpec, kin: ScatteringKinematics, g: float = 1.0) -> BornAmplitude:
    """Assembled reduced matrix element for a knot and one kinematics.

    Computes the curve's moments, the radial integrals at the momentum
    transfer, and the four pieces. The reported number multiplies
    -2 pi i delta(E_n - E_i) in the full S matrix; the delta itself is
    stripped. A cutoff sphere that does not enclose the curve raises
    ValueError (curves.check_cutoff).
    """
    check_cutoff(spec, kin.lambda0)
    return _pieces(_spec_rows(spec), kin, radial_coefficients(kin), g)


def triad_amplitude(p: int, q: int, kin: ScatteringKinematics, g: float = 1.0) -> BornAmplitude:
    """Factorized prediction for the (p, q) torus knot from three unknots.

    v1, v2 come from the planar unknot scaled by p/2; v3, v4 from the two
    vertical unknots scaled by -q/2. For non-resonant coprime (p, q) this
    equals born_amplitude(TorusKnot(p, q), ...) componentwise; resonant
    pairs (a q = b p solvable with a <= 3, b <= 2) violate it because extra
    zero-frequency terms survive in the torus moment integrals. (p, q) that
    TorusKnot refuses (not positive, not coprime) raise ValueError.
    """
    check_cutoff(TorusKnot(p, q), kin.lambda0)
    return _pieces(_triad_rows(p, q), kin, radial_coefficients(kin), g)


def factorization_residual(p: int, q: int, kin_samples: list[ScatteringKinematics]) -> float:
    """Worst relative defect of the triad factorization over the samples.

    Both amplitudes are linear in the coupling, so the relative defect does
    not depend on it; they are taken at g = 1. Both row sets are built once,
    and the radial integrals are evaluated once per kinematics and shared by
    the direct amplitude and the triad prediction.
    """
    if not kin_samples:
        raise ValueError("at least one kinematics sample is required")
    spec = TorusKnot(p, q)
    direct_rows = _spec_rows(spec)
    triad_rows = _triad_rows(p, q)
    worst = 0.0
    for kin in kin_samples:
        check_cutoff(spec, kin.lambda0)
        rho = radial_coefficients(kin)
        direct = _pieces(direct_rows, kin, rho, 1.0).total
        predicted = _pieces(triad_rows, kin, rho, 1.0).total
        worst = max(worst, abs(direct - predicted) / max(abs(direct), 1e-300))
    return worst


def random_kinematics(
    rng: np.random.Generator,
    k: float,
    lambda0: float = 3.5,
    n: int = 1,
) -> list[ScatteringKinematics]:
    """n on-shell kinematics with isotropic directions (PCG64-seeded rng).

    Directions are normalized normal deviates; near-forward pairs are
    redrawn so every sample has a well-defined momentum transfer.
    """
    if k <= 0:
        raise ValueError(f"wave number must be positive, got {k}")
    samples: list[ScatteringKinematics] = []
    while len(samples) < n:
        raw = rng.normal(size=(2, 3))
        norms = np.linalg.norm(raw, axis=1)
        if norms.min() < 1e-12:
            continue
        ki, kn = k * raw / norms[:, None]
        if np.linalg.norm(ki - kn) <= 1e-6 * k:
            continue
        samples.append(ScatteringKinematics(k_i=tuple(ki), k_n=tuple(kn), lambda0=lambda0))
    return samples


def amplitude_to_dict(kin: ScatteringKinematics, amp: BornAmplitude) -> dict:
    """JSON-ready document for one amplitude evaluation."""
    return {
        "kin": {
            "k_i": list(kin.k_i),
            "k_n": list(kin.k_n),
            "lambda0": kin.lambda0,
            "q_mag": kin.q_mag,
        },
        "v": {
            "v1": [amp.v1.real, amp.v1.imag],
            "v2": [amp.v2.real, amp.v2.imag],
            "v3": [amp.v3.real, amp.v3.imag],
            "v4": [amp.v4.real, amp.v4.imag],
        },
        "total": [amp.total.real, amp.total.imag],
    }
