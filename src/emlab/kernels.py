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

P, Gamma and S come from one core, kernel_pgs (kernel_p, kernel_gamma and
kernel_s are views of it), which sums t = tanh((y - x_a) x_b) = 2w - 1 over
each lobe: T0 = int t phi(y -+ x_theta) dy, T1 = int t y phi(y -+ x_theta) dy,

    P = 1/2 + (T0+ + T0-)/4,   Gamma = (T1+ + T1-)/4,   S = (T0+ - T0-)/4,

so P(x_a, 0, x_theta) == 0.5, S(x_a, x_b, +-0.0) == 0.0 and
Gamma(0, x_b, 0) == F(x_b, 0) / 2 hold bit for bit.  At x_theta == +-0.0 the
lobes are one (+-0.0 + nodes is the same array), so it is summed once.

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
    _gh_rule,
    _self_checked,
    integrate_against_gaussian,
    std_normal_cdf,
    std_normal_pdf,
)
# not called here; kept importable because the benchmark tracer (perfbench/spans.py) wraps them
from .quadrature import integrate_against_mixture, integrate_against_mixture_diff  # noqa: F401

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def weight_1d(u, x_b):
    """Soft assignment weight 0.5*(1 + tanh(u * x_b)); broadcasts."""
    return 0.5 * (1.0 + np.tanh(u * x_b))


def kernel_pgs(
    x_a: float, x_b: float, x_theta: float, spec: QuadratureSpec = DEFAULT_SPEC
) -> tuple[float, float, float]:
    """(P, Gamma, S) from one tanh pass per lobe and resolution, each value
    self-checked.  The sums run over t, not w = (1 + t)/2: the constant half
    would leave the rounding of int y p(y) dy (~1e-17) in Gamma at small x_b."""

    def at(n: int) -> tuple[float, float, float]:
        nodes, weights = _gh_rule(n)
        t0, t1 = [], []
        for center in (x_theta,) if x_theta == 0.0 else (x_theta, -x_theta):
            y = center + nodes
            t = np.tanh((y - x_a) * x_b)
            t0.append(float(np.dot(weights, t)))
            t1.append(float(np.dot(weights, t * y)))
        return 0.5 + 0.25 * (t0[0] + t0[-1]), 0.25 * (t1[0] + t1[-1]), 0.25 * (t0[0] - t0[-1])

    return _self_checked(at, f"(P, Gamma, S) quadrature at x_theta {x_theta!r}", spec)


def kernel_p(x_a: float, x_b: float, x_theta: float, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """int w(y - x_a, x_b) p(y, x_theta) dy; exactly 0.5 at x_b == 0."""
    return kernel_pgs(x_a, x_b, x_theta, spec)[0]


def kernel_gamma(x_a: float, x_b: float, x_theta: float, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """int w(y - x_a, x_b) * y * p(y, x_theta) dy."""
    return kernel_pgs(x_a, x_b, x_theta, spec)[1]


def kernel_s(x_a: float, x_b: float, x_theta: float, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """int w(y - x_a, x_b) Delta(y, x_theta) dy; exactly 0.0 at x_theta == 0."""
    return kernel_pgs(x_a, x_b, x_theta, spec)[2]


def kernel_r(x_b: float, x: float, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """0.5 * int w(y - x, x_b) * y * phi(y) dy; even in x, zero at x_b == 0."""
    return 0.5 * integrate_against_gaussian(
        lambda y: weight_1d(y - x, x_b) * y, 0.0, spec
    )


def kernel_f(x_b: float, x_theta: float, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """int tanh(u * x_b) * u * phi(u - x_theta) du; exactly 0.0 at x_b == 0."""
    return integrate_against_gaussian(lambda u: np.tanh(u * x_b) * u, x_theta, spec)


def kernel_k(x: float, x_b: float, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """int 0.5 * tanh(y * x_b) * phi(y - x) dy; exactly 0.0 at x_b == 0."""
    return integrate_against_gaussian(lambda y: 0.5 * np.tanh(y * x_b), x, spec)


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


def tabulate(
    values_a, values_b, values_theta, spec: QuadratureSpec = DEFAULT_SPEC
) -> list[tuple[float, float, float, float, float, float, float, float]]:
    """Evaluate (P, Gamma, S, F, K) on the Cartesian grid of the three axes.

    Returns rows (x_a, x_b, x_theta, P, Gamma, S, F, K) in row-major order,
    matching the CSV layout of the command-line tabulator.
    """
    rows = []
    for x_a in values_a:
        for x_b in values_b:
            for x_theta in values_theta:
                rows.append(
                    (float(x_a), float(x_b), float(x_theta))
                    + kernel_pgs(x_a, x_b, x_theta, spec)
                    + (kernel_f(x_b, x_theta, spec), kernel_k(x_a, x_b, spec))
                )
    return rows
