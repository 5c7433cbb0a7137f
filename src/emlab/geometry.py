"""Model/state containers and the exact planar reduction.

The population update for the free-means model only ever moves inside
span(b, theta_star).  planar_reduce splits theta_star along e1 = b/||b||
and returns the scalar coordinates the kernel evaluations need,

    x_a        = <a, b> / ||b||        (signed offset along the separation axis)
    theta1     = <theta_star, e1>      (signed)
    theta2     = ||theta_perp||        (>= 0 by construction)

together with e1 and the in-plane remainder theta_perp = theta_star - theta1 e1,
so that theta_star = theta1 e1 + theta_perp.  Every in-plane vector the step
needs is a combination of e1 and theta_perp, so no second unit vector is
built; theta_perp is exactly zero in dimension 1 and needs no special case
when b and theta_star are (nearly) collinear.

Exact zeros are preserved: no thresholding is applied to <a, b> or
<theta_star, e1>, so states constructed in orthogonal coordinates keep their
hyperplane property bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateState, DimensionMismatch, NotPositiveDefinite


def _as_vector(value, name: str) -> np.ndarray:
    arr = np.array(value, dtype=float, copy=True)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-d vector, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class MixtureModel:
    """Ground truth: dimension and the true half-separation vector."""

    dim: int
    theta_star: np.ndarray

    def __init__(self, dim: int, theta_star) -> None:
        if not isinstance(dim, int) or dim < 1:
            raise ValueError(f"dim must be a positive integer, got {dim!r}")
        vec = _as_vector(theta_star, "theta_star")
        if vec.size != dim:
            raise DimensionMismatch(
                f"theta_star has length {vec.size}, expected dim={dim}"
            )
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "theta_star", vec)

    @property
    def norm_theta(self) -> float:
        return float(np.linalg.norm(self.theta_star))


@dataclass(frozen=True)
class MeanPair:
    """A pair of component mean estimates."""

    mu1: np.ndarray
    mu2: np.ndarray

    def __init__(self, mu1, mu2) -> None:
        v1 = _as_vector(mu1, "mu1")
        v2 = _as_vector(mu2, "mu2")
        if v1.size != v2.size:
            raise DimensionMismatch(
                f"mu1 has length {v1.size} but mu2 has length {v2.size}"
            )
        object.__setattr__(self, "mu1", v1)
        object.__setattr__(self, "mu2", v2)


@dataclass(frozen=True)
class ABState:
    """Centered coordinates: a = midpoint error, b = half-separation."""

    a: np.ndarray
    b: np.ndarray

    def __init__(self, a, b) -> None:
        va = _as_vector(a, "a")
        vb = _as_vector(b, "b")
        if va.size != vb.size:
            raise DimensionMismatch(
                f"a has length {va.size} but b has length {vb.size}"
            )
        object.__setattr__(self, "a", va)
        object.__setattr__(self, "b", vb)

    @property
    def dim(self) -> int:
        return self.a.size


class PlanarCoords(NamedTuple):
    """Scalar reduction coordinates plus the two in-plane vectors that carry
    them: e1 = b/||b|| and theta_perp = theta_star - theta1 e1."""

    x_a: float
    norm_b: float
    theta1: float
    theta2: float
    e1: np.ndarray
    theta_perp: np.ndarray


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
    """Reduce (a, b) against theta_star to in-plane scalar coordinates."""
    if state.dim != model.dim:
        raise DimensionMismatch(
            f"state has dimension {state.dim}, model has {model.dim}"
        )
    norm_b = float(np.linalg.norm(state.b))
    if norm_b == 0.0:
        raise DegenerateState("b is the zero vector; no separation axis exists")
    e1 = state.b / norm_b
    x_a = float(np.dot(state.a, state.b)) / norm_b
    theta1, theta_perp = _split_theta(model.theta_star, e1)
    theta2 = float(np.linalg.norm(theta_perp))
    return PlanarCoords(x_a, norm_b, float(theta1), theta2, e1, theta_perp)


def _split_theta(theta_star: np.ndarray, e1: np.ndarray) -> tuple:
    """theta_star = theta1 e1 + theta_perp along a unit vector e1, or row by
    row along a stack of them.  |theta*| sin(beta) is ||theta_perp||, not
    sqrt(|theta*|^2 - theta1^2), which floors sin(beta) at ~1e-8."""
    theta1 = e1 @ theta_star
    return theta1, theta_star - np.expand_dims(theta1, -1) * e1


def angle_beta(coords: PlanarCoords) -> float:
    """Angle in [0, pi] between b and theta_star."""
    if coords.norm_b == 0.0:
        raise DegenerateState("angle undefined: b is the zero vector")
    if coords.theta1 == 0.0 and coords.theta2 == 0.0:
        raise DegenerateState("angle undefined: theta_star is the zero vector")
    return math.atan2(coords.theta2, coords.theta1)


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
            f"sigma has a non-positive eigenvalue: {eigvals.min()!r}"
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
