"""Vector potential of the dipole-lined knot: exact line integral and multipole form.

The knot carries a uniform line density of magnetic dipoles tangent to the
curve. Its vector potential, in units where the overall dipole-strength
prefactor is 1, is the line integral

    A(x) = integral over the curve of  t'(tau) x (x - r'(tau)) / |x - r'(tau)|^3  dtau,

computed exactly by biot_savart_dipole_line. The far field is
the multipole truncation through octopole order,

    A_i = (1/r^3) [ 3 sum_{j<=k} Q^i_{jk} R_j R_k + Q^i ]
        + (1/r^4) [ (15/2) sum_{j<=k<=l} O^i_{jkl} R_j R_k R_l - (3/2) sum_p Oc^i_p R_p ],

whose difference from the exact field decays one power faster (1/r^5). The
sums run over unordered index tuples, each counted once, with the numeric
factors outside; the dipole (1/r^2) order is absent because the tangent
integrates to zero around a closed curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import TWO_PI, KnotSpec, sample_curve
from .multipole import PAIR_COLUMNS, TRIPLE_COLUMNS, OctopoleMoments, QuadrupoleMoments

#: Field points closer than this to the curve are rejected (integrand blows up).
MIN_CURVE_DISTANCE = 1e-6


@dataclass(frozen=True)
class FieldPoint:
    """Observation point in spherical coordinates, r > 0."""

    r: float
    theta: float
    phi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r) and self.r > 0):
            raise ValueError(f"field point radius must be positive and finite, got {self.r}")
        if not (math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise ValueError("field point angles must be finite")

    @classmethod
    def from_spherical(cls, r: float, theta: float, phi: float) -> "FieldPoint":
        return cls(r=float(r), theta=float(theta), phi=float(phi))

    @classmethod
    def from_cartesian(cls, x: float, y: float, z: float) -> "FieldPoint":
        r = math.sqrt(x * x + y * y + z * z)
        if r == 0.0:
            raise ValueError("field point at the origin has no direction")
        return cls(r=r, theta=math.acos(max(-1.0, min(1.0, z / r))), phi=math.atan2(y, x))

    @property
    def direction_cosines(self) -> np.ndarray:
        st = math.sin(self.theta)
        return np.array(
            [st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta)]
        )

    @property
    def cartesian(self) -> np.ndarray:
        return self.r * self.direction_cosines


@dataclass(frozen=True)
class VectorPotentialValue:
    """Cartesian components of A at one field point, unit prefactor."""

    ax: float
    ay: float
    az: float

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.ax, self.ay, self.az])

    @property
    def magnitude(self) -> float:
        return float(np.linalg.norm(self.vector))


def _biot_savart_batch(spec: KnotSpec, points: np.ndarray, n_samples: int) -> np.ndarray:
    """Exact line-integral potential at each row of points, shape (n, 3)."""
    if n_samples < 4 * spec.bandwidth:
        raise ValueError(
            f"{n_samples} samples do not resolve a curve of bandwidth {spec.bandwidth}; "
            f"the Biot-Savart grid needs at least 4 * bandwidth = {4 * spec.bandwidth}"
        )
    _, pos, der = sample_curve(spec, n_samples)
    (px, py, pz), (tx, ty, tz) = pos.T, der.T
    out = np.empty_like(points, dtype=float)
    # chunk the pairwise (points x curve samples) arrays to bound memory
    chunk = max(1, int(2e6 / n_samples))
    for start in range(0, len(points), chunk):
        block = points[start : start + chunk]
        sx = block[:, 0, None] - px
        sy = block[:, 1, None] - py
        sz = block[:, 2, None] - pz
        d2 = sx * sx + sy * sy + sz * sz
        dist = np.sqrt(d2)
        if dist.min() <= MIN_CURVE_DISTANCE:
            raise ValueError("field point lies on (or too close to) the curve")
        weight = 1.0 / (d2 * dist)
        # t x sep, component by component
        out[start : start + chunk, 0] = ((ty * sz - tz * sy) * weight).mean(axis=1)
        out[start : start + chunk, 1] = ((tz * sx - tx * sz) * weight).mean(axis=1)
        out[start : start + chunk, 2] = ((tx * sy - ty * sx) * weight).mean(axis=1)
    return out * TWO_PI


def biot_savart_dipole_line(spec: KnotSpec, point: FieldPoint, n_samples: int = 2048) -> VectorPotentialValue:
    """Exact potential of the dipole line by periodic-trapezoid quadrature.

    No far-field approximation; this is the oracle the multipole form is
    tested against. Points within MIN_CURVE_DISTANCE of the curve are
    rejected, and so is a grid of fewer than 4 * spec.bandwidth samples,
    which does not resolve the integrand of a dense curve.
    """
    values = _biot_savart_batch(spec, point.cartesian[None, :], n_samples)
    return VectorPotentialValue(ax=values[0, 0], ay=values[0, 1], az=values[0, 2])


def _multipole_components(
    quad: QuadrupoleMoments,
    octo: OctopoleMoments,
    r: np.ndarray,
    dirs: np.ndarray,
    order: str,
) -> np.ndarray:
    """Multipole potential at radii r (n,) and unit directions dirs (n, 3)."""
    if order not in ("quadrupole", "octopole"):
        raise ValueError(f"order must be 'quadrupole' or 'octopole', got {order!r}")
    # unordered sums as monomial columns (n, 6) and (n, 10) times the matching tensor entries
    J, K = PAIR_COLUMNS
    inv_r3 = (1.0 / r**3)[:, None]
    quad_sum = (dirs[:, J] * dirs[:, K]) @ quad.Q_tensor[:, J, K].T
    out = (3.0 * quad_sum + quad.Q_trace) * inv_r3
    if order == "octopole":
        J, K, L = TRIPLE_COLUMNS
        octo_sum = (dirs[:, J] * dirs[:, K] * dirs[:, L]) @ octo.O_tensor[:, J, K, L].T
        linear = dirs @ octo.O_contracted.T
        out += (7.5 * octo_sum - 1.5 * linear) * (inv_r3 / r[:, None])
    return out


def multipole_potential(
    quad: QuadrupoleMoments,
    octo: OctopoleMoments,
    point: FieldPoint,
    order: str = "octopole",
) -> VectorPotentialValue:
    """Far-field potential from precomputed moments, through the given order.

    order='quadrupole' keeps only the 1/r^3 term; order='octopole' adds the
    1/r^4 term. Unordered-tuple sums are taken literally (each j<=k and
    j<=k<=l combination once, factors 3 and 15/2, -3/2 outside).
    """
    values = _multipole_components(
        quad, octo, np.array([point.r]), point.direction_cosines[None, :], order
    )[0]
    return VectorPotentialValue(ax=values[0], ay=values[1], az=values[2])
