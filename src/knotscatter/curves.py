"""Closed parametric curves and their spectrally exact sample grids.

A curve is a smooth closed loop r'(tau) with tau running over [0, 2*pi).
Four analytic presets are provided, all living on or inside the sphere of
radius 3:

* ``TorusKnot(p, q)``, winding p times around the symmetry axis and q times
  around the tube of the torus (r' - 2)^2 + z'^2 = 1,
* ``UnknotXY``, a circle of radius 3 in the z = 0 plane,
* ``UnknotXZ``, a unit circle centered at (2, 0, 0) in the y = 0 plane,
* ``UnknotYZ``, a unit circle centered at (0, 2, 0) in the x = 0 plane.

Arbitrary closed curves enter as ``SampledCurve``, an ordered list of points
interpolated trigonometrically, so every operation here retains spectral
accuracy for smooth data. Every curve states one thing, its Fourier spectrum
(``KnotSpec._spectrum``); its ``bandwidth`` is the highest frequency there,
``sample_curve`` folds the spectrum onto a grid and takes one real inverse
FFT, exact to round-off, and ``moment_samples`` gives the grid that makes
moments exact. A real curve has c_{-f} = conj(c_f), so a grid of m points
needs only the bins 0..m//2 of the folded spectrum: positions and
derivatives come from one ``np.fft.irfft`` of a (6, m//2 + 1) half spectrum
as the rows of one contiguous (6, m) array, so each coordinate is a
contiguous row of nodes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class CurvePoint:
    """Position r'(tau) and parameter derivative dr'/dtau at one tau."""

    position: np.ndarray
    derivative: np.ndarray


class KnotSpec:
    """Base class for closed-curve descriptions.

    A curve is a trigonometric polynomial r'(tau) = sum_f c_f exp(i f tau).
    Subclasses implement only :meth:`_spectrum`, returning the integer
    frequencies f (n,) and the complex coefficient rows c_f (n, 3) of a real
    curve; positions and derivatives anywhere, sample grids and the
    ``bandwidth`` all derive from it. Instances are immutable and hashable,
    which lets the spectrum and expensive derived quantities (moments,
    samples) be cached per spec.
    """

    def _spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    @cached_property
    def bandwidth(self) -> int:
        """Highest frequency max |f| of the spectrum; moment and Biot-Savart grids are chosen from it."""
        return int(np.abs(_spectrum(self)[0]).max())

    def _eval_arrays(self, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # the direct trigonometric sum at arbitrary parameter values
        freq, coef = _spectrum(self)
        phases = np.exp(1j * np.multiply.outer(tau, freq))
        pos = np.real(phases @ coef)
        der = np.real(phases @ (1j * freq[:, None] * coef))
        return pos, der

    def _eval_grid(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        # On tau_j = 2*pi*j/m, exp(i f tau_j) depends on f only through f mod m:
        # the spectrum folded onto m bins and one inverse FFT give the direct
        # sum of _eval_arrays for any m, aliasing included when m <= 2B. The
        # folded spectrum of a real curve is Hermitian, so only the bins
        # f mod m <= m // 2 are folded (both +-m/2 land on the Nyquist bin of
        # an even m) and irfft supplies the mirror half. pos and der are
        # transposed views of the contiguous (6, m) rows.
        freq, coef = _spectrum(self)
        kept = freq % m <= m // 2
        freq, coef = freq[kept], coef[kept]
        half = np.zeros((6, m // 2 + 1), dtype=complex)
        np.add.at(half.T, freq % m, np.hstack([coef, 1j * freq[:, None] * coef]))
        values = np.fft.irfft(half, n=m, axis=1, norm="forward")
        return values[:3].T, values[3:].T

    def label(self) -> str:
        return type(self).__name__


@lru_cache(maxsize=64)
def _spectrum(spec: KnotSpec) -> tuple[np.ndarray, np.ndarray]:
    freq, coef = spec._spectrum()
    freq.flags.writeable = False
    coef.flags.writeable = False
    return freq, coef


def _real_modes(terms: Sequence[tuple[int, Sequence[complex]]]) -> tuple[np.ndarray, np.ndarray]:
    """Spectrum of r'(tau) = Re sum over terms (f, b_f) of b_f exp(i f tau).

    Each term adds b_f/2 at f and conj(b_f)/2 at -f, so f = 0 and frequencies
    shared by several terms are summed correctly.
    """
    top = max(abs(f) for f, _ in terms)
    coef = np.zeros((2 * top + 1, 3), dtype=complex)
    for f, b in terms:
        b = np.asarray(b, dtype=complex)
        coef[top + f] += 0.5 * b
        coef[top - f] += 0.5 * b.conj()
    return np.arange(-top, top + 1), coef


@dataclass(frozen=True)
class TorusKnot(KnotSpec):
    """(p, q) torus knot on the torus (r' - 2)^2 + z'^2 = 1.

    x'(t) = (2 + cos(q t)) cos(p t)
    y'(t) = (2 + cos(q t)) sin(p t)
    z'(t) = -sin(q t)

    As modes: x' + i y' = 2 e^{ipt} + (1/2) e^{i(p+q)t} + (1/2) e^{i(p-q)t}
    and z' = Re(i e^{iqt}), so the bandwidth is p + q.
    """

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p < 1 or self.q < 1:
            raise ValueError(f"torus winding numbers must be positive, got ({self.p}, {self.q})")
        if math.gcd(self.p, self.q) != 1:
            raise ValueError(f"torus winding numbers must be coprime, got ({self.p}, {self.q})")

    def _spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        # a term a e^{ift} of x' + i y' is Re of (a, -i a, 0) e^{ift}
        p, q = self.p, self.q
        planar = [(f, (a, -1j * a, 0.0)) for f, a in ((p, 2.0), (p + q, 0.5), (p - q, 0.5))]
        return _real_modes(planar + [(q, (0.0, 0.0, 1j))])

    def label(self) -> str:
        return f"torus:{self.p},{self.q}"


@dataclass(frozen=True)
class UnknotXY(KnotSpec):
    """Circle of radius 3 in the z = 0 plane: (3 cos t, 3 sin t, 0)."""

    def _spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        return _real_modes([(1, (3.0, -3j, 0.0))])

    def label(self) -> str:
        return "unknot-xy"


@dataclass(frozen=True)
class UnknotXZ(KnotSpec):
    """Unit circle offset along x: (2 + cos t, 0, sin t)."""

    def _spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        return _real_modes([(0, (2.0, 0.0, 0.0)), (1, (1.0, 0.0, -1j))])

    def label(self) -> str:
        return "unknot-xz"


@dataclass(frozen=True)
class UnknotYZ(KnotSpec):
    """Unit circle offset along y: (0, 2 + cos t, sin t)."""

    def _spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        return _real_modes([(0, (0.0, 2.0, 0.0)), (1, (0.0, 1.0, -1j))])

    def label(self) -> str:
        return "unknot-yz"


@dataclass(frozen=True)
class SampledCurve(KnotSpec):
    """Closed curve given by ordered sample points, one full period.

    The list must not repeat the first point; it is treated as periodic.
    Evaluation anywhere in [0, 2*pi) uses the trigonometric interpolant
    through the points, so a band-limited generating curve is reproduced to
    round-off and the derivative is the exact derivative of the interpolant.
    Its bandwidth is N // 2 for N points.
    """

    points: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        if len(self.points) < 8:
            raise ValueError(f"sampled curve needs at least 8 points, got {len(self.points)}")
        # every cache lookup hashes the spec; hash the point tuple once
        object.__setattr__(self, "_hash", hash(self.points))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def from_array(cls, points: Sequence[Sequence[float]]) -> "SampledCurve":
        arr = np.asarray(points, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise ValueError(f"expected an (n, 3) point list, got shape {arr.shape}")
        _check_finite(arr)
        return cls(tuple(map(tuple, arr.tolist())))

    def _spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        # Fourier coefficients of the interpolant. The Nyquist mode of an
        # even-length series is split symmetrically between +n/2 and -n/2 so
        # the interpolant is real with a well-defined derivative. A curve
        # built directly, not through from_array, is checked here.
        pts = np.asarray(self.points, dtype=float)
        _check_finite(pts)
        n = len(pts)
        coef = np.fft.fft(pts, axis=0) / n
        freq = np.fft.fftfreq(n, d=1.0 / n).round().astype(int)
        if n % 2 == 0:
            ny = n // 2
            coef = np.concatenate([coef, coef[ny : ny + 1]], axis=0)
            coef[ny] *= 0.5
            coef[-1] *= 0.5
            freq = np.concatenate([freq, [ny]])
        return freq, coef

    def label(self) -> str:
        return f"sampled[{len(self.points)}]"


def _check_finite(points: np.ndarray) -> None:
    finite = np.isfinite(points)
    if not finite.all():
        index = int(np.argmin(finite.all(axis=1)))
        raise ValueError(f"curve point {index} is not finite: {points[index].tolist()}")


def eval_curve(spec: KnotSpec, tau: float) -> CurvePoint:
    """Evaluate position and derivative of the curve at one parameter value."""
    if not math.isfinite(tau):
        raise ValueError(f"curve parameter must be finite, got {tau}")
    pos, der = spec._eval_arrays(np.asarray([float(tau)]))
    return CurvePoint(position=pos[0], derivative=der[0])


@lru_cache(maxsize=256)
def sample_curve(spec: KnotSpec, n_samples: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Equally spaced samples (tau, positions, derivatives) of the curve.

    The grid tau_j = 2*pi*j/n underlies every periodic trapezoidal integral,
    so the result is cached per (spec, n_samples). The spectrum folded onto
    the grid and one real inverse FFT give the samples, exact to round-off;
    positions and derivatives are (n, 3) views whose transposes are
    contiguous (3, n) coordinate rows.
    """
    if n_samples < 8:
        raise ValueError(f"need at least 8 samples, got {n_samples}")
    tau = np.arange(n_samples) * (TWO_PI / n_samples)
    pos, der = spec._eval_grid(n_samples)
    for arr in (tau, pos, der):
        arr.flags.writeable = False
    return tau, pos, der


def moment_samples(spec: KnotSpec) -> int:
    """Smallest power of two (at least 8) above 3 * spec.bandwidth.

    The trapezoid rule on this grid integrates the octopole integrand r r t,
    of bandwidth 3B, exactly; powers of two keep the FFT fast.
    """
    return max(8, 1 << (3 * spec.bandwidth).bit_length())


@lru_cache(maxsize=256)
def check_cutoff(spec: KnotSpec, lambda0: float) -> None:
    """Raise ValueError unless the sphere r = lambda0 provably encloses the curve.

    The sum of the coefficient norms, sum_f |c_f|, bounds max |r'| and accepts
    any lambda0 above it at once. Below it, F = |r'(tau)|^2 is a trigonometric
    polynomial of degree 2B, so Bernstein's inequality |F'| <= 2B max F bounds
    max F <= max_grid F / (1 - 2 pi B / M) on an M-point grid (Zygmund,
    Trigonometric Series, ch. X). The grid doubles from 1024 points until
    lambda0^2 clears that bound; the cutoff is refused at or below max_grid F,
    or if the last grid, max(2^16, the power of two at or above 8 pi B),
    still does not clear it. On that grid the margin 1 - 2 pi B / M is at
    least 3/4. A lambda0 outside (0, inf), NaN included, is refused first.
    """
    if not 0.0 < lambda0 < math.inf:
        raise ValueError(f"cutoff lambda0 must be positive and finite, got {lambda0}")
    if lambda0 > np.linalg.norm(_spectrum(spec)[1], axis=1).sum():
        return
    last = max(1 << 16, 1 << (math.ceil(4.0 * TWO_PI * spec.bandwidth) - 1).bit_length())
    n_samples = 1024
    while n_samples <= last:
        pos, _ = spec._eval_grid(n_samples)
        grid_max = float((pos**2).sum(axis=1).max())
        if lambda0**2 <= grid_max:
            break
        if lambda0**2 * (1.0 - TWO_PI * spec.bandwidth / n_samples) > grid_max:
            return
        n_samples *= 2
    raise ValueError(
        f"cutoff lambda0 = {lambda0} is not certified to enclose the curve "
        f"(radius {grid_max**0.5:.6g} on a {min(n_samples, last)}-point grid, bandwidth {spec.bandwidth})"
    )


def sampled_from_json(document: str | dict) -> SampledCurve:
    """Build a SampledCurve from a JSON document {"points": [[x, y, z], ...]}.

    The point list is ordered and implicitly closed (the first point is not
    repeated at the end).
    """
    data = json.loads(document) if isinstance(document, str) else document
    if not isinstance(data, dict) or "points" not in data:
        raise ValueError('curve document must be an object with a "points" key')
    return SampledCurve.from_array(data["points"])


def sampled_from_spec(spec: KnotSpec, n_points: int = 64) -> SampledCurve:
    """Resample any curve into an equivalent SampledCurve with n_points."""
    _, pos, _ = sample_curve(spec, n_points)
    return SampledCurve.from_array(pos)
