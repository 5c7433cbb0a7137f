"""Expected log-likelihood surface of the balanced two-Gaussian mixture.

With means written as mu1 = a - b, mu2 = a + b, the mixture density factors
as

    f(y; a, b) = (2 pi)^{-d/2} exp(-(|y - a|^2 + |b|^2)/2) cosh(<y - a, b>),

so the population objective G(mu1, mu2) = E log f(Y) splits into closed-form
quadratic moments plus a single one-dimensional integral: <Y - a, b> depends
on Y only through its projection on the unit vector along b, whose law is the
centered two-lobe mixture with offset <theta*, b>/|b|.  Concretely

    G = -(d/2) log(2 pi) - (d + |theta*|^2 + |a|^2 + |b|^2)/2
        + int log cosh(x_b (y - x_a)) p(y, x_theta) dy,

with the kernels' planar coordinates x_a = <a, b>/|b|, x_b = |b| and
x_theta = <theta*, b>/|b|.  The integral is one node block of the shared
Gauss-Hermite pass, quadrature._lobe_sums: log(2 cosh) on both lobes under
both rules, with log 2 taken off each rule's sum.  The gradient in means is
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
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonConvergence
from .geometry import ABState, MeanPair, MixtureModel, to_ab
# not called here; kept importable because the benchmark tracer (perfbench/spans.py) wraps it
from .geometry import planar_reduce  # noqa: F401
from .population import model2_step
from .quadrature import DEFAULT_SPEC, QuadratureSpec, _lobe_sums, _self_checked
# not called here; kept importable because the benchmark tracer (perfbench/spans.py) wraps it
from .quadrature import integrate_against_mixture  # noqa: F401

_LOG_2PI = math.log(2.0 * math.pi)
_LOG_2 = math.log(2.0)
_EPS = sys.float_info.epsilon
# G is refused once the rounding of quad + I exceeds this share of |G| (and abs_tol)
_REL_TOL = 1e-12
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


def _log_2cosh(z: np.ndarray) -> np.ndarray:
    """log(2 cosh z) as |z| + log1p(exp(-2|z|)), which keeps the tail linear
    instead of overflowing cosh; computed in place: z is overwritten and
    returned."""
    np.abs(z, out=z)
    tail = np.multiply(z, -2.0)
    np.exp(tail, out=tail)
    np.log1p(tail, out=tail)
    z += tail
    return z


def _log_cosh(z: np.ndarray) -> np.ndarray:
    """log cosh(z), in place like _log_2cosh."""
    z = _log_2cosh(z)
    z -= _LOG_2
    return z


def _log_cosh_block(centers: np.ndarray, nodes: np.ndarray, norm_b: float) -> np.ndarray:
    """log(2 cosh u), u = norm_b * z, on the nodes z = c + node around each of
    ``centers``, built in place."""
    u = np.add(centers[..., None], nodes)
    u *= norm_b
    return _log_2cosh(u)


def _ab_products(mu1: np.ndarray, mu2: np.ndarray, theta: np.ndarray) -> tuple:
    """a.a, a.b, b.b and b.theta as Python floats, for a = (mu1 + mu2)/2 and
    b = (mu2 - mu1)/2 as to_ab makes them: their squares stay finite wherever
    a.a + b.b does, unlike those of mu1 + mu2 and mu2 - mu1."""
    aa = ab = bb = bt = 0.0
    for x, y, t in zip(mu1.tolist(), mu2.tolist(), theta.tolist()):
        a, b = 0.5 * (x + y), 0.5 * (y - x)
        aa += a * a
        ab += a * b
        bb += b * b
        bt += b * t
    return aa, ab, bb, bt


def expected_loglik(
    means: MeanPair, model: MixtureModel, spec: QuadratureSpec = DEFAULT_SPEC
) -> float:
    """Population expected log-likelihood G(mu1, mu2) under `model`, a float.

    G is the closed-form quadratic part quad plus the log-cosh integral I,
    whose N/2N self-check names x_a, x_b and x_theta when it fails.  Far from
    the origin the two parts cancel: their sum is rounded to within about
    eps * (|quad| + |I|), and NonConvergence is also raised when that bound
    exceeds max(abs_tol, 1e-12 |G|), where G would keep too few digits.
    """
    d = model.dim
    if means.mu1.size != d:
        raise DimensionMismatch(f"state has dimension {means.mu1.size}, model has {d}")
    aa, ab, bb, bt = _ab_products(means.mu1, means.mu2, model.theta_star)
    norm_b = math.sqrt(bb)
    quad = -0.5 * d * _LOG_2PI - 0.5 * (d + model.norm_theta**2 + aa + bb)
    if norm_b == 0.0:
        return quad
    x_a, x_t = ab / norm_b, bt / norm_b
    # the lobes of Y - x_a along b sit at +-x_theta - x_a; the lobes' mean of
    # log(2 cosh(x_b z)), less log 2 once per rule
    lobes = np.array((x_t - x_a, -x_t - x_a))
    (plus, minus), (plus_2n, minus_2n) = _lobe_sums(_log_cosh_block, lobes, spec, norm_b)
    coarse, integral = 0.5 * (plus + minus) - _LOG_2, 0.5 * (plus_2n + minus_2n) - _LOG_2
    g = quad + integral
    rounding, tol = _EPS * (abs(quad) + abs(integral)), max(spec.abs_tol, _REL_TOL * abs(g))
    # one <= per test, so a NaN gap or rounding fails
    if abs(integral - coarse) <= spec.abs_tol and rounding <= tol:
        return g
    points = {"x_a": x_a, "x_b": norm_b, "x_theta": x_t}
    _self_checked(coarse, integral, "log-cosh quadrature", points, spec)  # raises unless settled
    where = ", ".join(f"{name} {value!r}" for name, value in points.items())
    raise NonConvergence(
        f"expected log-likelihood at {where} cancels: quad {quad!r} + I {integral!r} "
        f"is rounded to within {rounding:.3e} > max(abs_tol, {_REL_TOL:.0e} |G|) = {tol:.3e}"
    )


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
