"""One-dimensional quadrature against the symmetric two-Gaussian mixture.

The centered mixture density in one dimension and its signed counterpart are

    p(y, x_theta)     = 0.5 * (phi(y - x_theta) + phi(y + x_theta)),
    Delta(y, x_theta) = 0.5 * (phi(y - x_theta) - phi(y + x_theta)),

with phi the standard normal density.  Integrals of a smooth f against a
single Gaussian lobe reduce to Gauss-Hermite form by y = c + sqrt(2) u:

    int f(y) phi(y - c) dy  ~=  sum_i (w_i / sqrt(pi)) * f(c + sqrt(2) u_i),

where (u_i, w_i) are the Hermite nodes and weights.  Mixture integrals are
the average of the two lobe sums centered at +x_theta and -x_theta.  Every
integrator evaluates its rule at N and 2N nodes per lobe and raises
:class:`NonConvergence` when the two disagree beyond the requested absolute
tolerance; the finer value is returned.

Integrand callables must accept numpy arrays (they are evaluated on the full
node vector at once).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.special import erfc, roots_hermite

from .errors import NonConvergence

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
# the smallest Gauss-Hermite rule a spec (and the CLI schema) accepts
MIN_NODES_PER_LOBE = 16


@dataclass(frozen=True)
class QuadratureSpec:
    """Resolution and validation parameters for the integrators.

    nodes_per_lobe: Gauss-Hermite node count per Gaussian lobe
        (>= MIN_NODES_PER_LOBE).
    abs_tol: maximum allowed |I_2N - I_N| before NonConvergence is raised.
    """

    nodes_per_lobe: int = 512
    abs_tol: float = 1e-10

    def __post_init__(self) -> None:
        nodes = self.nodes_per_lobe
        if isinstance(nodes, bool) or not isinstance(nodes, int) or nodes < MIN_NODES_PER_LOBE:
            raise ValueError(
                f"nodes_per_lobe must be an integer >= {MIN_NODES_PER_LOBE}, got {nodes!r}"
            )
        if not 0.0 < self.abs_tol < math.inf:
            raise ValueError(f"abs_tol must be finite and positive, got {self.abs_tol!r}")


DEFAULT_SPEC = QuadratureSpec()


@lru_cache(maxsize=64)
def _gh_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights such that int f(y) phi(y) dy ~= dot(w, f(y_nodes)).

    scipy's Hermite rule stays stable for the large node counts the hyperbolic
    weight needs (numpy's hermgauss overflows past a few hundred nodes).
    """
    u, w = roots_hermite(n)
    y = _SQRT2 * u
    y.setflags(write=False)
    w = w * _INV_SQRT_PI
    w.setflags(write=False)
    return y, w


def std_normal_pdf(x):
    """Standard normal density phi(x); broadcasts over arrays."""
    return _INV_SQRT_2PI * np.exp(-0.5 * np.square(x))


def std_normal_cdf(x):
    """Standard normal CDF Phi(x) via erfc; absolute error well below 1e-14."""
    return 0.5 * erfc(-x / _SQRT2)


def mixture_pdf_1d(y, x_theta):
    """Density 0.5*(phi(y - x_theta) + phi(y + x_theta))."""
    return 0.5 * (std_normal_pdf(y - x_theta) + std_normal_pdf(y + x_theta))


def _lobe_sum(f: Callable, center: float, n: int) -> float:
    y, w = _gh_rule(n)
    return float(np.dot(w, f(center + y)))


def _self_checked(rule: Callable[[int], tuple], what: str, spec: QuadratureSpec) -> tuple:
    """``rule(2N)``, after checking each value against ``rule(N)`` (N = nodes_per_lobe)."""
    coarse = rule(spec.nodes_per_lobe)
    fine = rule(2 * spec.nodes_per_lobe)
    gaps = [abs(f - c) for f, c in zip(fine, coarse)]
    if any(gap > spec.abs_tol for gap in gaps):
        raise NonConvergence(
            f"{what} did not settle: "
            f"|I_2N - I_N| = {max(gaps):.3e} > {spec.abs_tol:.3e}"
        )
    return fine


def integrate_against_gaussian(
    f: Callable, center: float, spec: QuadratureSpec = DEFAULT_SPEC
) -> float:
    """int f(y) phi(y - center) dy with the two-resolution self-check."""
    return _self_checked(
        lambda n: (_lobe_sum(f, center, n),), f"Gaussian quadrature at center {center!r}", spec
    )[0]


def integrate_against_mixture(
    f: Callable, x_theta: float, spec: QuadratureSpec = DEFAULT_SPEC
) -> float:
    """int f(y) p(y, x_theta) dy as the average of the two lobe sums."""
    return _self_checked(
        lambda n: (0.5 * (_lobe_sum(f, +x_theta, n) + _lobe_sum(f, -x_theta, n)),),
        f"mixture quadrature at x_theta {x_theta!r}",
        spec,
    )[0]


def integrate_against_mixture_diff(
    f: Callable, x_theta: float, spec: QuadratureSpec = DEFAULT_SPEC
) -> float:
    """int f(y) Delta(y, x_theta) dy (the signed half-difference of lobes).

    Returns exactly 0.0 for x_theta == 0, since the two lobe sums are then
    the same floating-point number.
    """
    return _self_checked(
        lambda n: (0.5 * (_lobe_sum(f, +x_theta, n) - _lobe_sum(f, -x_theta, n)),),
        f"signed mixture quadrature at x_theta {x_theta!r}",
        spec,
    )[0]


def adaptive_simpson(
    f: Callable, lo: float, hi: float, tol: float = 1e-12, max_depth: int = 48
) -> float:
    """Adaptive Simpson integration of a scalar function on [lo, hi].

    Independent oracle for the Gauss-Hermite path: plain interval subdivision
    with the standard 1/15 Richardson error estimate.  ``f`` is called with
    scalars here.
    """

    def simpson(a: float, fa: float, b: float, fb: float) -> tuple[float, float, float]:
        m = 0.5 * (a + b)
        fm = float(f(m))
        return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, fa, b, fb, m, fm, whole, eps, depth):
        lm, flm, left = simpson(a, fa, m, fm)
        rm, frm, right = simpson(m, fm, b, fb)
        if depth >= max_depth or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        half = 0.5 * eps
        return recurse(a, fa, m, fm, lm, flm, left, half, depth + 1) + recurse(
            m, fm, b, fb, rm, frm, right, half, depth + 1
        )

    a, b = float(lo), float(hi)
    fa, fb = float(f(a)), float(f(b))
    m, fm, whole = simpson(a, fa, b, fb)
    return recurse(a, fa, b, fb, m, fm, whole, tol, 0)
