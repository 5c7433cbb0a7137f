"""Expected log-likelihood surface of the balanced two-Gaussian mixture.

With means written as mu1 = a - b, mu2 = a + b, the mixture density factors
as

    f(y; a, b) = (2 pi)^{-d/2} exp(-(|y - a|^2 + |b|^2)/2) cosh(<y - a, b>),

so the population objective G(mu1, mu2) = E log f(Y) splits into closed-form
quadratic moments plus a single one-dimensional integral: <Y - a, b> depends
on Y only through its projection on the unit vector along b, whose law is the
centered two-lobe mixture with offset <theta*, b>/|b|.  Concretely

    G = -(d/2) log(2 pi) - (d + |theta*|^2 + |a|^2 + |b|^2)/2
        + int log cosh(|b| (y - x_a)) p(y, t1) dy,

with x_a = <a, b>/|b| and t1 = <theta*, b>/|b|.  The gradient in means is
the posterior-weighted residual pair

    grad_mu1 G = E[v (Y - mu1)] = -q - mu1 (1 - p),
    grad_mu2 G = E[(1 - v)(Y - mu2)] = q - mu2 p,

where p = E[w], q = E[w Y] are exactly the scalars driving the population
update, so the gradient takes one population step and reads q = b+ 2p(1-p)
off it (b == 0 needs no branch: p = 1/2, b+ = 0).  Hessians are central
finite differences of the gradient (step 1e-4); classification compares the
eigenvalue signs against a 1e-6 tolerance.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .geometry import ABState, MeanPair, MixtureModel, _norm, to_ab
# not called here; kept importable because the benchmark tracer (perfbench/spans.py) wraps it
from .geometry import planar_reduce  # noqa: F401
from .population import model2_step
from .quadrature import DEFAULT_SPEC, QuadratureSpec, integrate_against_mixture

_LOG_2PI = math.log(2.0 * math.pi)
_LOG_2 = math.log(2.0)
_GRAD_TOL = 1e-6
_EIG_TOL = 1e-6
_HESS_STEP = 1e-4


class Classification(enum.Enum):
    MAX = "MAX"
    MIN = "MIN"
    SADDLE = "SADDLE"
    UNRESOLVED = "UNRESOLVED"


@dataclass(frozen=True, eq=False)
class StationaryReport:
    """Gradient norm, Hessian spectrum, and sign-based classification."""

    point: ABState
    grad_norm: float
    hessian_eigs: tuple[float, ...]
    classification: Classification


def _log_cosh(z: np.ndarray) -> np.ndarray:
    """log cosh(z) as |z| + log1p(exp(-2|z|)) - log 2, which keeps the tail
    linear instead of overflowing cosh; computed in place: z is overwritten
    and returned."""
    np.abs(z, out=z)
    tail = np.multiply(z, -2.0)
    np.exp(tail, out=tail)
    np.log1p(tail, out=tail)
    z += tail
    z -= _LOG_2
    return z


def expected_loglik(
    means: MeanPair, model: MixtureModel, spec: QuadratureSpec = DEFAULT_SPEC
) -> float:
    """Population expected log-likelihood G(mu1, mu2) under `model`."""
    d = model.dim
    if means.mu1.size != d:
        raise DimensionMismatch(f"state has dimension {means.mu1.size}, model has {d}")
    # to_ab's and planar_reduce's own arithmetic for a, b, x_a, ||b|| and
    # theta1, without building the state and the rest of its frame
    a = 0.5 * (means.mu1 + means.mu2)
    b = 0.5 * (means.mu2 - means.mu1)
    norm_b = _norm(b)
    quad_part = -0.5 * d * _LOG_2PI - 0.5 * (d + model.norm_theta**2 + float(a @ a) + norm_b**2)
    if norm_b == 0.0:
        return quad_part
    x_a = float(np.dot(a, b)) / norm_b
    t1 = float((b / norm_b) @ model.theta_star)

    def log_cosh(y):  # on the integrator's node block, in place
        y -= x_a
        y *= norm_b
        return _log_cosh(y)

    return quad_part + integrate_against_mixture(log_cosh, t1, spec)


def grad_G(
    means: MeanPair, model: MixtureModel, spec: QuadratureSpec = DEFAULT_SPEC
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of G with respect to (mu1, mu2): posterior-weighted residuals."""
    new_state, p = model2_step(to_ab(means), model, spec)
    q_vec = new_state.b * (2.0 * p * (1.0 - p))  # b+ = q / (2p(1-p))
    return -q_vec - means.mu1 * (1.0 - p), q_vec - means.mu2 * p


def _symmetric_grad(theta: np.ndarray, model: MixtureModel, spec: QuadratureSpec) -> np.ndarray:
    """Gradient of the symmetric restriction g(theta) = G(-theta, theta)."""
    g1, g2 = grad_G(MeanPair(-theta, theta), model, spec)
    return g2 - g1


def _fd_hessian(grad, x0: np.ndarray, step: float) -> np.ndarray:
    cols = []
    for j in range(x0.size):
        e = np.zeros_like(x0)
        e[j] = step
        cols.append((grad(x0 + e) - grad(x0 - e)) / (2.0 * step))
    return np.column_stack(cols)


def classify_stationary(
    point: ABState,
    model: MixtureModel,
    *,
    symmetric: bool = False,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> StationaryReport:
    """Classify a candidate stationary point by its finite-difference Hessian.

    With ``symmetric=True`` the report concerns the sign-constrained family
    (mu1, mu2) = (-theta, theta) as a function of theta = point.b (point.a
    must be exactly zero); otherwise the full 2d-parameter surface in
    (mu1, mu2).  A point whose gradient norm exceeds 1e-6 is reported
    UNRESOLVED without a spectrum.
    """
    if symmetric:
        if np.any(point.a != 0.0):
            raise ValueError("symmetric classification requires point.a == 0")
        grad = lambda th: _symmetric_grad(th, model, spec)
        x0 = point.b.copy()
    else:
        # FD steps live in the flat (mu1, mu2) chart
        grad = lambda x: np.concatenate(
            grad_G(MeanPair(x[: model.dim], x[model.dim :]), model, spec)
        )
        x0 = np.concatenate([point.a - point.b, point.a + point.b])
    gnorm = float(np.linalg.norm(grad(x0)))
    if gnorm > _GRAD_TOL:
        return StationaryReport(point, gnorm, (), Classification.UNRESOLVED)
    hess = _fd_hessian(grad, x0, _HESS_STEP)
    eigs = np.linalg.eigvalsh(0.5 * (hess + hess.T))
    lo, hi = float(eigs[0]), float(eigs[-1])
    if hi < -_EIG_TOL:
        label = Classification.MAX
    elif lo > _EIG_TOL:
        label = Classification.MIN
    elif lo < 0.0 < hi and (hi > _EIG_TOL or lo < -_EIG_TOL):
        # mixed signs with at least one direction resolved beyond tolerance.
        # Sub-tolerance curvature of the opposite sign still counts: flat
        # saddle directions whose leading term is quartic surface here as
        # O(step^2) eigenvalues, which is exactly the information we want.
        label = Classification.SADDLE
    else:
        label = Classification.UNRESOLVED
    return StationaryReport(point, gnorm, tuple(float(v) for v in eigs), label)
