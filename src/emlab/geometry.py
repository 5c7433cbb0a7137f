"""Model/state containers and the exact planar reduction.

The population update for the free-means model only ever moves inside
span(b, theta_star).  planar_reduce is the one reduction from d dimensions
to that plane.  It splits theta_star along e1 = b/||b|| into theta1 e1 plus
the in-plane remainder theta_perp, and returns the orthonormal frame

    e1 = b/||b||,   u2 = theta_perp/theta2   (zero when theta2 == 0),

theta_star's coordinates theta = (theta1, theta2) in it, with theta2 =
||theta_perp|| >= 0, and the five-float plane state of (a, b),

    z = (x_a, <a, u2>, ||part of a off the plane||, ||b||, 0),

where x_a = <a, b>/||b||.  theta_perp is exactly zero in dimension 1, and
u2 is then the zero vector.  When b is collinear with theta_star up to
rounding, theta2 is rounding-sized and u2 is the direction of that residue
(or zero if it vanishes); repeated Gram-Schmidt passes keep u2 orthogonal
to e1 even then, so a collinear a has no part along u2 or off the plane.
b == 0 has no frame: e1 = u2 = 0, theta = (0, 0) and all of a lies off the
plane.

Exact zeros are preserved: no thresholding is applied to <a, b> or
<theta_star, e1>, so states constructed in orthogonal coordinates keep their
hyperplane property bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite


def _as_vector(value, name: str) -> np.ndarray:
    """A read-only copy of a non-empty 1-d vector of finite floats whose norm
    is finite too: finite entries past |v| ~ 1.3e154 square to inf."""
    arr = np.array(value, dtype=float, copy=True)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-d vector, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    with np.errstate(over="ignore"):  # a nan or inf entry, or an overflow, leaves v.v non-finite
        square = arr.dot(arr)
    if not math.isfinite(square):
        finite = np.isfinite(arr).all()
        raise ValueError(f"{name}'s norm must be finite" if finite else f"{name} must be finite")
    arr.setflags(write=False)
    return arr


def _init_pair(container, **pair) -> None:
    """Set the two vector fields of a frozen container, each checked by
    _as_vector, after checking that their lengths agree."""
    name1, name2 = pair
    v1, v2 = (_as_vector(value, name) for name, value in pair.items())
    if v1.size != v2.size:
        raise DimensionMismatch(f"{name1} has length {v1.size} but {name2} has length {v2.size}")
    object.__setattr__(container, name1, v1)
    object.__setattr__(container, name2, v2)


@dataclass(frozen=True, eq=False)
class MixtureModel:
    """Ground truth: dimension and the true half-separation vector, with its
    norm computed once."""

    dim: int
    theta_star: np.ndarray
    norm_theta: float = field(init=False)

    def __init__(self, dim: int, theta_star) -> None:
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
            raise ValueError(f"dim must be a positive integer, got {dim!r}")
        vec = _as_vector(theta_star, "theta_star")
        if vec.size != dim:
            raise DimensionMismatch(
                f"theta_star has length {vec.size}, expected dim={dim}"
            )
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "theta_star", vec)
        object.__setattr__(self, "norm_theta", _norm(vec))


@dataclass(frozen=True, eq=False)
class MeanPair:
    """A pair of component mean estimates."""

    mu1: np.ndarray
    mu2: np.ndarray

    def __init__(self, mu1, mu2) -> None:
        _init_pair(self, mu1=mu1, mu2=mu2)

    @classmethod
    def _checked(cls, mu1: np.ndarray, mu2: np.ndarray) -> MeanPair:
        """A pair over two read-only, finite 1-d float vectors of one length
        that the caller has already checked, taken as they are."""
        pair = object.__new__(cls)
        object.__setattr__(pair, "mu1", mu1)
        object.__setattr__(pair, "mu2", mu2)
        return pair


@dataclass(frozen=True, eq=False)
class ABState:
    """Centered coordinates: a = midpoint error, b = half-separation."""

    a: np.ndarray
    b: np.ndarray

    def __init__(self, a, b) -> None:
        _init_pair(self, a=a, b=b)

    @property
    def dim(self) -> int:
        return self.a.size


class PlanarCoords(NamedTuple):
    """The frame e1, u2 of span(b, theta_star), theta_star's coordinates
    (theta1, theta2) in it and the plane state
    (x_a, <a, u2>, ||part of a off the plane||, ||b||, 0)."""

    e1: np.ndarray
    u2: np.ndarray
    theta: tuple[float, float]
    z: tuple[float, float, float, float, float]


def state_distance(x: ABState, y: ABState) -> float:
    """Concatenated distance hypot(|x.a - y.a|, |x.b - y.b|); exactly
    |x.b - y.b| when both midpoints are equal (the locked-means case)."""
    return math.hypot(
        float(np.linalg.norm(x.a - y.a)), float(np.linalg.norm(x.b - y.b))
    )


def to_ab(means: MeanPair) -> ABState:
    """Centered reparameterization a = (mu1+mu2)/2, b = (mu2-mu1)/2."""
    return ABState(0.5 * (means.mu1 + means.mu2), 0.5 * (means.mu2 - means.mu1))


def from_ab(state: ABState) -> MeanPair:
    """Inverse of to_ab: mu1 = a - b, mu2 = a + b."""
    return MeanPair(state.a - state.b, state.a + state.b)


def planar_reduce(state: ABState, model: MixtureModel) -> PlanarCoords:
    """Reduce (a, b) against theta_star to the frame and the plane state."""
    if state.dim != model.dim:
        raise DimensionMismatch(
            f"state has dimension {state.dim}, model has {model.dim}"
        )
    norm_b = _norm(state.b)
    if norm_b == 0.0:
        zero, norm_a = np.zeros(model.dim), _norm(state.a)
        return PlanarCoords(zero, zero, (0.0, 0.0), (0.0, 0.0, norm_a, 0.0, 0.0))
    e1 = state.b / norm_b
    x_a = float(np.dot(state.a, state.b)) / norm_b
    theta1, theta_perp = _split_theta(model.theta_star, e1)
    # theta_perp keeps a rounding-sized part along e1, all of it when b is
    # collinear with theta_star up to rounding; two more Gram-Schmidt passes
    # leave it orthogonal to e1 to rounding (one pass leaves up to ~1e-11)
    for _ in range(2):
        theta_perp -= e1.dot(theta_perp) * e1
    theta2 = _norm(theta_perp)
    u2 = theta_perp / theta2 if theta2 > 0.0 else np.zeros(model.dim)
    a2 = float(state.a @ u2)
    off = _norm(state.a - x_a * e1 - a2 * u2)
    return PlanarCoords(e1, u2, (float(theta1), theta2), (x_a, a2, off, norm_b, 0.0))


def _norm(v: np.ndarray) -> float:
    """float(np.linalg.norm(v)) for a 1-d v, bit for bit: the same sqrt of
    v.dot(v), without the dispatch that costs more than the sum."""
    return math.sqrt(v.dot(v))


def _split_theta(theta_star: np.ndarray, e1: np.ndarray) -> tuple:
    """theta_star = theta1 e1 + theta_perp along a unit vector e1, or row by
    row along a stack of them.  |theta*| sin(beta) is ||theta_perp||, not
    sqrt(|theta*|^2 - theta1^2), which floors sin(beta) at ~1e-8."""
    theta1 = e1 @ theta_star
    return theta1, theta_star - theta1[..., None] * e1


def whiten(data, sigma) -> np.ndarray:
    """Transform rows of ``data`` by the symmetric inverse square root of
    ``sigma`` so that covariance sigma becomes the identity."""
    mat = np.asarray(sigma, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise NotPositiveDefinite(f"sigma must be square, got shape {mat.shape}")
    if not np.allclose(mat, mat.T, rtol=0.0, atol=1e-12):
        raise NotPositiveDefinite("sigma must be symmetric")
    eigvals, eigvecs = np.linalg.eigh(mat)
    if eigvals.min() <= 0.0:
        raise NotPositiveDefinite(
            f"sigma has a non-positive eigenvalue: {float(eigvals.min())!r}"
        )
    inv_sqrt = (eigvecs / np.sqrt(eigvals)) @ eigvecs.T
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 1:
        if arr.size != mat.shape[0]:
            raise DimensionMismatch(
                f"data has length {arr.size}, sigma is {mat.shape[0]}x{mat.shape[0]}"
            )
        return inv_sqrt @ arr
    if arr.ndim != 2 or arr.shape[1] != mat.shape[0]:
        raise DimensionMismatch(
            f"data rows have length {arr.shape[-1]}, "
            f"sigma is {mat.shape[0]}x{mat.shape[0]}"
        )
    return arr @ inv_sqrt
