"""Reference implementations for the tests: an adaptive-Simpson integrator
and the one-dimensional mixture density, independent of the Gauss-Hermite
path that emlab integrates with."""

from typing import Callable

from emlab.quadrature import std_normal_pdf


def mixture_pdf_1d(y, x_theta):
    """Density 0.5*(phi(y - x_theta) + phi(y + x_theta))."""
    return 0.5 * (std_normal_pdf(y - x_theta) + std_normal_pdf(y + x_theta))


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
