"""Quadrupole and octopole moment tensors of a closed dipole-density loop.

A solenoid idealized as a closed line of magnetic dipoles has no net dipole
moment (the loop closes on itself), so the leading far-field structure is
carried by two families of line-integral moments:

* three quadrupole scalars K^i and the rank-3 tensor Q^{r_i}_{R_j R_k} they
  generate, entering the vector potential at order 1/r^3,
* the rank-4 octopole tensor O^{r_i}_{R_j R_k R_l} and its contraction
  O^{r_i}_{R_p}, entering at order 1/r^4.

All sums over repeated indices are written out explicitly; no implicit
summation convention is used anywhere in this module.

Each moment is a periodic trapezoid mean on the moment_samples(spec) grid,
where it is exact to round-off, so a moment depends on the curve alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, permutations, product

import numpy as np

from .curves import KnotSpec, TWO_PI, moment_samples, sample_curve

#: Levi-Civita symbol, EPS[a, b, c] = +1/-1 for even/odd permutations.
EPS = np.zeros((3, 3, 3))
for _a, _b, _c in permutations(range(3)):
    EPS[_a, _b, _c] = 1.0 if (_a, _b, _c) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1.0
EPS.flags.writeable = False

#: Independent lower-index triples, sorted j <= k <= l.
SORTED_TRIPLES = tuple(combinations_with_replacement(range(3), 3))
#: Independent lower-index pairs, sorted j <= k.
SORTED_PAIRS = tuple(combinations_with_replacement(range(3), 2))
#: Index arrays J, K of SORTED_PAIRS.
PAIR_COLUMNS = np.array(SORTED_PAIRS).T

# Every ordered lower triple (a, b, c) reads the entry of its sorted triple, and
# the weight 1/3, 1 or 2 (for 1, 2 or 3 distinct values) turns the sum over the
# three slots of the cross product into the sum over distinct arrangements.
_ORDERED = tuple(product(range(3), repeat=3))
_SORTED_INDEX = (slice(None),) + tuple(np.array([sorted(t) for t in _ORDERED]).T.reshape(3, 3, 3, 3))
_ARRANGEMENT_WEIGHT = np.array([(1.0 / 3.0, 1.0, 2.0)[len(set(t)) - 1] for t in _ORDERED]).reshape(3, 3, 3)


@dataclass(frozen=True)
class QuadrupoleMoments:
    """Quadrupole scalars K^i, tensor Q^{r_i}_{R_j R_k}, and trace part Q^{r_i}.

    Q_tensor is symmetric in its last two indices and vanishes whenever all
    three indices differ. Q_trace[i] = -2 K[i], which equals minus the trace
    of Q_tensor[i] over the lower index pair.
    """

    K: np.ndarray
    Q_tensor: np.ndarray
    Q_trace: np.ndarray


@dataclass(frozen=True)
class OctopoleMoments:
    """Integrated octopole tensor and its contraction.

    O_tensor[i, j, k, l] holds the curve integral of the rank-4 integrand,
    totally symmetric under permutations of (j, k, l). O_contracted[i, p]
    holds the integral of the contracted integrand, related to the tensor by
    O_contracted[i, p] = sum_m (1 + 2*delta_{pm}) O_tensor[i, p, m, m].
    """

    O_tensor: np.ndarray
    O_contracted: np.ndarray


def _moment_grid(spec: KnotSpec) -> tuple[np.ndarray, np.ndarray]:
    # positions and derivatives on the exact moment grid
    _, pos, der = sample_curve(spec, moment_samples(spec))
    return pos, der


@lru_cache(maxsize=256)
def quadrupole_moments(spec: KnotSpec) -> QuadrupoleMoments:
    """Quadrupole moments of a curve.

    One matmul gives V[m, c] = loop integral of t_m r_c, antisymmetric because
    the loop integral of d(r_m r_c) vanishes, so
    K^1 = loop integral of z' dy'/dtau = V[1, 2],
    K^2 = loop integral of x' dz'/dtau = V[2, 0],
    K^3 = loop integral of y' dx'/dtau = V[0, 1].
    Q[i, j, k] is the loop integral of the sum over the distinct arrangements
    (b, c) of {j, k} of (t x e_b)_i r_c, from W[i, b, c] = sum_m eps_imb V[m, c].
    """
    pos, der = _moment_grid(spec)
    V = der.T @ pos * (TWO_PI / len(pos))
    V = 0.5 * (V - V.T)  # zero diagonal, so all-distinct entries of Q are exactly 0.0
    K = 0.5 * np.einsum("imc,mc->i", EPS, V)
    W = np.einsum("imb,mc->ibc", EPS, V)
    Q = W + W.transpose(0, 2, 1)
    Q[:, range(3), range(3)] *= 0.5
    trace = -2.0 * K
    for arr in (K, Q, trace):
        arr.flags.writeable = False
    return QuadrupoleMoments(K=K, Q_tensor=Q, Q_trace=trace)


@lru_cache(maxsize=256)
def octopole_moments(spec: KnotSpec) -> OctopoleMoments:
    """Integrated octopole tensor and contraction of a curve.

    O[i, j, k, l] is the loop integral of the sum over the distinct
    arrangements (b, c, d) of {j, k, l} of (t x e_b)_i r_c r_d. One matmul
    gives X[m, c, d] = loop integral of t_m r_c r_d, the Levi-Civita symbol
    turns it into Y[i, b, c, d] = loop integral of (t x e_b)_i r_c r_d, and
    the contraction follows from O_contracted[i, p] = sum_m (1 + 2*delta_{pm}) O[i, p, m, m].
    """
    pos, der = _moment_grid(spec)
    J, K = PAIR_COLUMNS
    X = np.empty((3, 3, 3))
    X[:, J, K] = X[:, K, J] = der.T @ (pos[:, J] * pos[:, K]) * (TWO_PI / len(pos))
    Y = np.einsum("imb,mcd->ibcd", EPS, X)
    O = (Y + Y.transpose(0, 2, 1, 3) + Y.transpose(0, 2, 3, 1))[_SORTED_INDEX]
    O *= _ARRANGEMENT_WEIGHT
    contracted = np.einsum("ipmm,pm->ip", O, 1.0 + 2.0 * np.eye(3))
    O.flags.writeable = False
    contracted.flags.writeable = False
    return OctopoleMoments(O_tensor=O, O_contracted=contracted)


def dipole_moment(spec: KnotSpec) -> np.ndarray:
    """Total dipole moment, the loop integral of dr'/dtau.

    Identically zero for any closed curve; kept as an explicit check of
    closure rather than a trusted identity.
    """
    _, der = _moment_grid(spec)
    return der.mean(axis=0) * TWO_PI


def moments_to_dict(quad: QuadrupoleMoments, octo: OctopoleMoments) -> dict:
    """JSON-ready dictionary with every moment array as nested lists."""
    return {
        "K": quad.K.tolist(),
        "Q": quad.Q_tensor.tolist(),
        "Q_trace": quad.Q_trace.tolist(),
        "O": octo.O_tensor.tolist(),
        "O_contracted": octo.O_contracted.tolist(),
    }
