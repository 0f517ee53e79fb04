"""Vector potential of the dipole-lined knot: exact line integral and multipole form.

The knot carries a uniform line density of magnetic dipoles tangent to the
curve. Its vector potential, in units where the overall dipole-strength
prefactor is 1, is the line integral

    A(x) = integral over the curve of  t'(tau) x (x - r'(tau)) / |x - r'(tau)|^3  dtau,

computed by biot_savart_dipole_line on a periodic trapezoid grid it chooses
itself, refined near the curve until the error is round-off. On M nodes the
field points form one (n, 3, M) block of separations s = x - r', weighted in
place by |s|^-3 and reduced by one matmul with the (M, 3) tangents to the 3x3
sums of s_a t_b, whose antisymmetric part is the cross product t x s. The far field
is the multipole truncation through octopole order,

    A_i = (1/r^3) [ 3 sum_{j<=k} Q^i_{jk} R_j R_k + Q^i ]
        + (1/r^4) [ (15/2) sum_{j<=k<=l} O^i_{jkl} R_j R_k R_l - (3/2) sum_p Oc^i_p R_p ],

whose difference from the exact field decays one power faster (1/r^5). The
sums run over unordered index tuples, each counted once, with the numeric
factors outside; the dipole (1/r^2) order is absent because the tangent
integrates to zero around a closed curve. With each factor and power of 1/r
folded into its monomial R_j R_k, 1, R_j R_k R_l or R_p, the truncation is
one gather of the monomials, one of the moment entries and one matmul. This
20-term table is the one statement of the truncation: born.py transforms
the same terms one by one into the Born pieces v1..v4, which are the
table's slices _PIECES (tensor and trace terms at 1/r^3, then tensor and
contracted terms at 1/r^4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .curves import TWO_PI, KnotSpec, sample_curve
from .multipole import SORTED_PAIRS, SORTED_TRIPLES, OctopoleMoments, QuadrupoleMoments

#: The finest Biot-Savart grid; points closer to the curve than it resolves are refused.
MAX_SAMPLES = 1 << 20
#: d M / max|r'| at which the trapezoid error of the line integral reaches round-off.
RESOLVED_SPAN = 48.0

# (t x s)_i = G[a_i, b_i] - G[b_i, a_i] for G[a, b] = sum s_a t_b
_CROSS_A, _CROSS_B = (2, 0, 1), (1, 2, 0)
# The truncation as 20 terms: monomials of (R_x, R_y, R_z, 1), given by index
# triples (R_j R_k, then 1 at order 1/r^3; R_j R_k R_l, then R_p at 1/r^4),
# each with its numeric factor and its column in the concatenated moment rows
# (Q_tensor flattened, Q_trace, O_tensor flattened, O_contracted).
_MONOMIALS = np.array(
    [(j, k, 3) for j, k in SORTED_PAIRS] + [(3, 3, 3)] + list(SORTED_TRIPLES) + [(p, 3, 3) for p in range(3)]
).T
_FACTORS = np.array([3.0] * 6 + [1.0] + [7.5] * 10 + [-1.5] * 3)
_COEFFICIENTS = np.array(
    [3 * j + k for j, k in SORTED_PAIRS] + [9] + [10 + 9 * j + 3 * k + l for j, k, l in SORTED_TRIPLES] + [37, 38, 39]
)
# The terms of each Born piece v1..v4: R_j R_k and 1 at 1/r^3, then R_j R_k R_l and R_p at 1/r^4.
_PIECES = (slice(0, 6), slice(6, 7), slice(7, 17), slice(17, 20))
_QUADRUPOLE_TERMS = _PIECES[2].start


@dataclass(frozen=True)
class FieldPoint:
    """Observation point, stored as the Cartesian coordinates it was given; not the origin."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(c) for c in (self.x, self.y, self.z)):
            raise ValueError("field point coordinates must be finite")
        if self.r == 0.0:
            raise ValueError("field point at the origin has no direction")

    @classmethod
    def from_spherical(cls, r: float, theta: float, phi: float) -> "FieldPoint":
        if not (math.isfinite(r) and r > 0):
            raise ValueError(f"field point radius must be positive and finite, got {r}")
        if not (math.isfinite(theta) and math.isfinite(phi)):
            raise ValueError("field point angles must be finite")
        st = math.sin(theta)
        return cls(x=r * st * math.cos(phi), y=r * st * math.sin(phi), z=r * math.cos(theta))

    @classmethod
    def from_cartesian(cls, x: float, y: float, z: float) -> "FieldPoint":
        return cls(x=float(x), y=float(y), z=float(z))

    @property
    def r(self) -> float:
        return math.hypot(self.x, self.y, self.z)

    @property
    def direction_cosines(self) -> np.ndarray:
        return self.cartesian / self.r

    @property
    def cartesian(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


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
    """Grid mean of t x (x - r) / |x - r|^3 at each point, and the nearest point-to-node distance.

    A chunk of n points becomes one (n, 3, M) block of separations s = x - r
    from the contiguous (3, M) node rows pos.T. Weighted in place by
    |s|^-3, one matmul with the (M, 3) tangents gives G[a, b] = sum s_a t_b w,
    whose antisymmetric part is t x s: (t x s)_x = G[z, y] - G[y, z], and so on.
    """
    nodes = pos.T
    out = np.empty((len(points), 3))
    nearest = math.inf
    # chunk the (points x 3 x curve samples) block to bound memory
    chunk = max(1, int(2e6 / len(pos)))
    for start in range(0, len(points), chunk):
        sep = points[start : start + chunk, :, None] - nodes
        weight = np.einsum("nim,nim->nm", sep, sep)
        dist = np.sqrt(weight)
        nearest = min(nearest, float(dist.min()))
        if nearest <= floor:
            raise ValueError(
                f"field point lies {nearest:.3g} from the curve, closer than the "
                f"{MAX_SAMPLES}-sample grid resolves ({floor:.3g})"
            )
        weight *= dist
        np.divide(1.0, weight, out=weight)
        sep *= weight[:, None, :]
        gram = sep @ der
        out[start : start + chunk] = gram[:, _CROSS_A, _CROSS_B] - gram[:, _CROSS_B, _CROSS_A]
    return out / len(pos), nearest


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


def _moment_rows(quad: QuadrupoleMoments, octo: OctopoleMoments) -> np.ndarray:
    """The (3, 20) moment entries of the truncation's terms: column t is the moment row of term t."""
    rows = np.concatenate(
        (quad.Q_tensor.reshape(3, 9), quad.Q_trace[:, None], octo.O_tensor.reshape(3, 27), octo.O_contracted), axis=1
    )
    return rows[:, _COEFFICIENTS]


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
    # every term's monomial times its factor and radial power, in one gather
    padded = np.ones((len(r), 4))
    padded[:, :3] = dirs
    terms = padded[:, _MONOMIALS].prod(axis=1) * _FACTORS
    inv_r3 = (1.0 / r**3)[:, None]
    terms[:, :_QUADRUPOLE_TERMS] *= inv_r3
    terms[:, _QUADRUPOLE_TERMS:] *= inv_r3 / r[:, None]
    width = _QUADRUPOLE_TERMS if order == "quadrupole" else len(_FACTORS)
    return terms[:, :width] @ _moment_rows(quad, octo)[:, :width].T


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
