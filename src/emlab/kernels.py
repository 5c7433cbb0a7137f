"""Scalar kernels: the one-dimensional integrals through which every
population update factors.

All kernels integrate the soft assignment weight

    w(u, x_b) = 0.5 * (1 + tanh(u * x_b))

(the posterior probability of the positive component for a point at signed
distance u along the separation direction, written in tanh form so it cannot
overflow) against the mixture density p(y, x_theta), its signed counterpart
Delta(y, x_theta), or a single Gaussian lobe:

    P(x_a, x_b, x_theta)     = int w(y - x_a, x_b) p(y, x_theta) dy
    Gamma(x_a, x_b, x_theta) = int w(y - x_a, x_b) y p(y, x_theta) dy
    S(x_a, x_b, x_theta)     = int w(y - x_a, x_b) Delta(y, x_theta) dy
    R(x_b, x)                = 0.5 * int w(y - x, x_b) y phi(y) dy
    F(x_b, x_theta)          = int tanh(u x_b) u phi(u - x_theta) du
    K(x, x_b)                = int 0.5 tanh(y x_b) phi(y - x) dy

All six are views of one core, _tanh_sums, which sums t = tanh((y - x_a) x_b)
= 2w - 1 against a lobe at c: T0(x_a, x_b, c) = int t phi(y - c) dy and
T1(x_a, x_b, c) = int t y phi(y - c) dy.  With T0+-, T1+- at c = +-x_theta,

    P = 1/2 + (T0+ + T0-)/4,   Gamma = (T1+ + T1-)/4,   S = (T0+ - T0-)/4,
    F = T1(0, x_b, x_theta),   K = T0(0, x_b, x) / 2,   R = T1(x, x_b, 0) / 4

(R drops the constant half of w, as int y phi(y) dy = 0), so
P(x_a, 0, x_theta) == 0.5, S(x_a, x_b, +-0.0) == 0.0, R(0, x) == 0.0 and
Gamma(0, x_b, 0) == F(x_b, 0) / 2 hold bit for bit.  kernel_pgs sums both
lobes in one pass (kernel_p, kernel_gamma and kernel_s are views of it); at
x_theta == +-0.0 the lobes are one (+-0.0 + nodes is the same array), so a
call whose every x_theta is +-0.0 sums it once.

Every kernel takes floats or 1-D arrays of points (broadcast against each
other): floats in give floats out, arrays in give one array per value.
Both lobes of every point under both rules (N and 2N nodes) go through one
array pass, and each lobe sum is its own BLAS dot over the node axis, so a
point's values equal its one-point call bit for bit, however the points are
split between calls.  The N/2N self-check runs per point on the kernel's
own values, and NonConvergence names every coordinate of the worst point.
A call whose points are all 0-d (floats, numpy scalars, 0-d arrays) runs
the same core, combining code and self-check on Python floats (the core's
sums come back through .tolist()), so a one-point call, one per population
step, carries no array set-up beyond the node block.

The kernel_* functions accept any finite real x_a / x_theta: the integrals
are well defined there, and the planar reduction of the population step
needs the signed values (P and Gamma are even in x_theta, S is odd, and
x_a < 0 mirrors through w(-u, x_b) = 1 - w(u, x_b)).

The auxiliary scalar bounds used by the kernel inequalities are collected in
eval_aux_bounds: for x > 0,

    l(x)         = x (1 - 2 Phi(-x)) + 2 phi(x)        (= E|Z + x|)
    W(x)         = phi(x) - x (1 - Phi(x))             (= E (Z - x)_+)
    J(x)         = 0.5 (x - l(x) (1 - 2 Phi(-x)))
    mills_gap(x) = (x + sqrt(2/pi)) (1 - Phi(x)) - phi(x)

J and mills_gap are strictly positive on x > 0; mills_gap is the slack in
the Mills-ratio bound phi(x)/(1 - Phi(x)) < x + sqrt(2/pi).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .quadrature import (
    DEFAULT_SPEC,
    QuadratureSpec,
    _gh_pair,
    _self_checked,
    _two_rules,
    std_normal_cdf,
    std_normal_pdf,
)
# not called here; kept importable because the benchmark tracer (perfbench/spans.py) wraps them
from .quadrature import (integrate_against_gaussian, integrate_against_mixture,  # noqa: F401
                         integrate_against_mixture_diff)

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
# points per kernel call in tabulate: small enough that a call's node block
# stays in cache, large enough to spread the per-call cost
_CHUNK = 64


def _points(*values) -> tuple | list:
    """The arguments as floats when all are 0-d, else as float arrays of one
    broadcast shape."""
    if all(isinstance(v, float) for v in values):
        return values
    points = [np.asarray(v, dtype=float) for v in values]
    if not any(p.ndim for p in points):
        return [float(p) for p in points]
    # a chunk of equal-length arrays, the common case, needs no broadcast
    return points if len({p.shape for p in points}) == 1 else np.broadcast_arrays(*points)


def _tanh_sums(x_a, x_b, centers: np.ndarray, spec: QuadratureSpec):
    """sums[r][k][lobe]: rule r (N, 2N) of t = tanh((y - x_a) x_b) (k = 0)
    and of t * y (k = 1) against the lobe phi(y - c) at each of ``centers``
    (lobes stacked along axis 0, each of the point shape): an array, or
    nested Python floats when the points are 0-d (``centers`` is 1-D)."""
    nodes, w_n, w_2n = _gh_pair(spec.nodes_per_lobe)
    # block = (t, t * y) on the nodes y of both rules, built in place so a
    # chunk of points holds no temporaries
    block = np.empty((2,) + centers.shape + nodes.shape)
    t, ty = block
    np.add(centers[..., None], nodes, out=ty)
    # point arrays broadcast along the node axis; floats need no axis
    np.subtract(ty, x_a[..., None] if isinstance(x_a, np.ndarray) else x_a, out=t)
    t *= x_b[..., None] if isinstance(x_b, np.ndarray) else x_b
    np.tanh(t, out=t)
    ty *= t
    sums = _two_rules(block, w_n, w_2n)
    return sums.tolist() if centers.ndim == 1 else sums


def kernel_pgs(x_a, x_b, x_theta, spec: QuadratureSpec = DEFAULT_SPEC) -> tuple:
    """(P, Gamma, S) from one tanh pass over both lobes and both rules, each
    value self-checked per point.  The sums run over t, not w = (1 + t)/2: the
    constant half would leave the rounding of int y p(y) dy (~1e-17) in Gamma
    at small x_b."""
    x_a, x_b, x_t = _points(x_a, x_b, x_theta)
    centers = np.array((x_t, -x_t) if np.count_nonzero(x_t) else (x_t,))
    # (P, Gamma, S) under each rule from its lobe sums (T0, T1) at (+x_t, -x_t)
    coarse, fine = (
        [0.25 * (t0[0] + t0[-1]) + 0.5, 0.25 * (t1[0] + t1[-1]), 0.25 * (t0[0] - t0[-1])]
        for t0, t1 in _tanh_sums(x_a, x_b, centers, spec)
    )
    points = {"x_a": x_a, "x_b": x_b, "x_theta": x_t}
    return tuple(_self_checked(coarse, fine, "(P, Gamma, S) quadrature", points, spec))


def kernel_p(x_a, x_b, x_theta, spec: QuadratureSpec = DEFAULT_SPEC):
    """int w(y - x_a, x_b) p(y, x_theta) dy; exactly 0.5 at x_b == 0."""
    return kernel_pgs(x_a, x_b, x_theta, spec)[0]


def kernel_gamma(x_a, x_b, x_theta, spec: QuadratureSpec = DEFAULT_SPEC):
    """int w(y - x_a, x_b) * y * p(y, x_theta) dy."""
    return kernel_pgs(x_a, x_b, x_theta, spec)[1]


def kernel_s(x_a, x_b, x_theta, spec: QuadratureSpec = DEFAULT_SPEC):
    """int w(y - x_a, x_b) Delta(y, x_theta) dy; exactly 0.0 at x_theta == 0."""
    return kernel_pgs(x_a, x_b, x_theta, spec)[2]


def kernel_r(x_b, x, spec: QuadratureSpec = DEFAULT_SPEC):
    """0.5 * int w(y - x, x_b) * y * phi(y) dy = T1(x, x_b, 0)/4; even in x, 0.0 at x_b == 0."""
    x_b, x = _points(x_b, x)
    sums = _tanh_sums(x, x_b, np.zeros((1,) + np.shape(x)), spec)
    coarse, fine = (0.25 * t1[0] for _, t1 in sums)
    return _self_checked(coarse, fine, "R quadrature", {"x_b": x_b, "x": x}, spec)


def kernel_f(x_b, x_theta, spec: QuadratureSpec = DEFAULT_SPEC):
    """int tanh(u x_b) u phi(u - x_theta) du = T1(0, x_b, x_theta); exactly 0.0 at x_b == 0."""
    x_b, x_t = _points(x_b, x_theta)
    coarse, fine = (t1[0] for _, t1 in _tanh_sums(0.0, x_b, np.array((x_t,)), spec))
    return _self_checked(coarse, fine, "F quadrature", {"x_b": x_b, "x_theta": x_t}, spec)


def kernel_k(x, x_b, spec: QuadratureSpec = DEFAULT_SPEC):
    """int 0.5 * tanh(y * x_b) * phi(y - x) dy = T0(0, x_b, x)/2; exactly 0.0 at x_b == 0."""
    x, x_b = _points(x, x_b)
    coarse, fine = (0.5 * t0[0] for t0, _ in _tanh_sums(0.0, x_b, np.array((x,)), spec))
    return _self_checked(coarse, fine, "K quadrature", {"x": x, "x_b": x_b}, spec)


class AuxBounds(NamedTuple):
    """Closed-form scalar bound functions at a single x > 0."""

    l: float
    W: float
    J: float
    mills_gap: float


def eval_aux_bounds(x: float) -> AuxBounds:
    """Evaluate (l, W, J, mills_gap) at x; DomainError unless x > 0."""
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"x must be a finite real, got {x!r}")
    if x <= 0.0:
        raise DomainError(f"x must be strictly positive, got {x!r}")
    phi = float(std_normal_pdf(x))
    upper_tail = float(std_normal_cdf(-x))  # 1 - Phi(x)
    central = 1.0 - 2.0 * upper_tail  # 1 - 2 Phi(-x)
    l = x * central + 2.0 * phi
    w = phi - x * upper_tail
    j = 0.5 * (x - l * central)
    mills_gap = (x + SQRT_2_OVER_PI) * upper_tail - phi
    return AuxBounds(l=l, W=w, J=j, mills_gap=mills_gap)


def _chunked(kernel, spec: QuadratureSpec, *points: np.ndarray) -> np.ndarray:
    """``kernel`` over 1-D point arrays, _CHUNK points per call, its values
    stacked along axis 0 (one row per value for a kernel of several)."""
    parts = [
        kernel(*(p[lo:lo + _CHUNK] for p in points), spec)
        for lo in range(0, points[0].size, _CHUNK)
    ]
    return np.concatenate(parts, axis=-1)


def tabulate(
    values_a, values_b, values_theta, spec: QuadratureSpec = DEFAULT_SPEC
) -> list[tuple[float, float, float, float, float, float, float, float]]:
    """Evaluate (P, Gamma, S, F, K) on the Cartesian grid of the three axes.

    Returns rows (x_a, x_b, x_theta, P, Gamma, S, F, K) of Python floats in
    row-major order, matching the CSV layout of the command-line tabulator.
    F and K are evaluated once per (x_b, x_theta) and (x_a, x_b) grid pair,
    and every kernel runs over chunks of _CHUNK points; each value equals its
    one-point call bit for bit.
    """
    x_a, x_b, x_t = np.meshgrid(
        *(np.asarray(axis, dtype=float) for axis in (values_a, values_b, values_theta)),
        indexing="ij",
    )
    shape = x_a.shape
    f = _chunked(kernel_f, spec, x_b[0].ravel(), x_t[0].ravel()).reshape(shape[1:])
    k = _chunked(kernel_k, spec, x_a[..., 0].ravel(), x_b[..., 0].ravel())
    pgs = _chunked(kernel_pgs, spec, x_a.ravel(), x_b.ravel(), x_t.ravel())
    f, k = np.broadcast_to(f, shape), np.broadcast_to(k.reshape(shape[:2] + (1,)), shape)
    return list(zip(*(np.ravel(c).tolist() for c in (x_a, x_b, x_t, *pgs, f, k))))
