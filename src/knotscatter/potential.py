"""Vector potential of the dipole-lined knot: exact line integral and multipole form.

The knot carries a uniform line density of magnetic dipoles tangent to the
curve. Its vector potential, in units where the overall dipole-strength
prefactor is 1, is the line integral

    A(x) = integral over the curve of  t'(tau) x (x - r'(tau)) / |x - r'(tau)|^3  dtau,

computed by biot_savart_dipole_line on a periodic trapezoid grid it chooses
itself, refined near the curve until the error is round-off. The far field
is the multipole truncation through octopole order,

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
from functools import lru_cache

import numpy as np

from .curves import TWO_PI, KnotSpec, sample_curve
from .multipole import PAIR_COLUMNS, TRIPLE_COLUMNS, OctopoleMoments, QuadrupoleMoments

#: The finest Biot-Savart grid; points closer to the curve than it resolves are refused.
MAX_SAMPLES = 1 << 20
#: d M / max|r'| at which the trapezoid error of the line integral reaches round-off.
RESOLVED_SPAN = 48.0


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


def biot_savart_samples(spec: KnotSpec) -> int:
    """First Biot-Savart grid: the smallest power of two at least max(2048, 4 * spec.bandwidth)."""
    return max(2048, 1 << (4 * spec.bandwidth - 1).bit_length())


@lru_cache(maxsize=256)
def _max_speed(spec: KnotSpec) -> float:
    # max |r'| on the first grid; the scalar alone is cached, the grid stays in sample_curve's cache
    tx, ty, tz = sample_curve(spec, biot_savart_samples(spec))[2].T
    return math.sqrt(float((tx * tx + ty * ty + tz * tz).max()))


def _trapezoid_mean(points: np.ndarray, pos: np.ndarray, der: np.ndarray, floor: float) -> tuple[np.ndarray, float]:
    """Grid mean of t x (x - r) / |x - r|^3 at each point, and the nearest point-to-node distance."""
    (px, py, pz), (tx, ty, tz) = pos.T, der.T
    out = np.empty_like(points, dtype=float)
    nearest = math.inf
    # chunk the pairwise (points x curve samples) arrays to bound memory
    chunk = max(1, int(2e6 / len(pos)))
    for start in range(0, len(points), chunk):
        block = points[start : start + chunk]
        sx = block[:, 0, None] - px
        sy = block[:, 1, None] - py
        sz = block[:, 2, None] - pz
        d2 = sx * sx + sy * sy + sz * sz
        dist = np.sqrt(d2)
        nearest = min(nearest, float(dist.min()))
        if nearest <= floor:
            raise ValueError(
                f"field point lies {nearest:.3g} from the curve, closer than the "
                f"{MAX_SAMPLES}-sample grid resolves ({floor:.3g})"
            )
        weight = 1.0 / (d2 * dist)
        # t x sep, component by component
        out[start : start + chunk, 0] = ((ty * sz - tz * sy) * weight).mean(axis=1)
        out[start : start + chunk, 1] = ((tz * sx - tx * sz) * weight).mean(axis=1)
        out[start : start + chunk, 2] = ((tx * sy - ty * sx) * weight).mean(axis=1)
    return out, nearest


def _biot_savart_batch(spec: KnotSpec, points: np.ndarray) -> np.ndarray:
    """Exact line-integral potential at each row of points, shape (n, 3).

    The trapezoid error at distance d from the curve falls like
    exp(-d M / max|r'|) on M samples, so the grid starts at
    biot_savart_samples(spec) and doubles, or jumps to the power of two at
    RESOLVED_SPAN * max|r'| / d, until d M >= RESOLVED_SPAN * max|r'| for the
    nearest point. A point closer than MAX_SAMPLES resolves is refused.
    """
    speed = _max_speed(spec)
    floor = RESOLVED_SPAN * speed / MAX_SAMPLES
    n_samples = biot_savart_samples(spec)
    _, pos, der = sample_curve(spec, n_samples)
    while True:
        values, nearest = _trapezoid_mean(points, pos, der, floor)
        if nearest * n_samples >= RESOLVED_SPAN * speed:
            return values * TWO_PI
        needed = math.ceil(RESOLVED_SPAN * speed / nearest)
        n_samples = max(2 * n_samples, 1 << (needed - 1).bit_length())
        # refined grids bypass sample_curve's cache: they are large and used once
        pos, der = spec._eval_grid(n_samples)


def biot_savart_dipole_line(spec: KnotSpec, point: FieldPoint) -> VectorPotentialValue:
    """Exact potential of the dipole line by periodic-trapezoid quadrature.

    No far-field approximation; this is the oracle the multipole form is
    tested against. The grid is chosen from the curve and the point's
    distance to it (see _biot_savart_batch); a point within
    RESOLVED_SPAN * max|r'| / MAX_SAMPLES of the curve is refused.
    """
    values = _biot_savart_batch(spec, point.cartesian[None, :])
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
