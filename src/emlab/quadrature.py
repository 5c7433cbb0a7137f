"""One-dimensional quadrature against the symmetric two-Gaussian mixture.

The centered mixture density in one dimension and its signed counterpart are

    p(y, x_theta)     = 0.5 * (phi(y - x_theta) + phi(y + x_theta)),
    Delta(y, x_theta) = 0.5 * (phi(y - x_theta) - phi(y + x_theta)),

with phi the standard normal density.  Integrals of a smooth f against a
single Gaussian lobe reduce to Gauss-Hermite form by y = c + sqrt(2) u:

    int f(y) phi(y - c) dy  ~=  sum_i (w_i / sqrt(pi)) * f(c + sqrt(2) u_i),

where (u_i, w_i) are the Hermite nodes and weights.  A rule keeps only the
nodes whose normalised weight w_i / sqrt(pi) is at least 1e-40: rules of up
to 32 nodes keep every node, the default 512/1024-node rules keep 190/270
(all within |y| <= 13.3), and for every rule up to 2048 nodes the dropped
weight times (1 + |y|)^4 sums to less than 1e-35, far below the rounding of
any integrand that grows at most like y^4.

The default 512/1024-node rules ship trimmed in ``gh_rules.npz`` next to this
module: the bytes of scipy 1.17.1's ``roots_hermite`` under numpy 2.4.6,
scaled and trimmed as ``_gh_rule`` does.  So the default spec loads no scipy
and does not depend on the installed one; scipy computes any other node count
on first use, and a missing table raises.

Mixture integrals are the average of the two lobe sums centered at +x_theta
and -x_theta.  Every integrator evaluates its rule at N and 2N nodes per lobe
and raises :class:`NonConvergence` when the two disagree beyond the requested
absolute tolerance; the finer value is returned.

The integrators and the kernels (emlab.kernels) share one point convention,
_points: points that are all 0-d (floats, numpy scalars, 0-d arrays) go
through as Python floats and give floats; 1-D arrays give one value per
point.  They, and the landscape's log-cosh integral (emlab.landscape), share
one Gauss-Hermite pass, _lobe_sums, and its self-check, _self_checked: an
integrand lays its values out on the nodes of both rules around every lobe
center, and each center's sum under each rule is its own BLAS dot over the
node axis (np.vecdot), so a point's value does not depend on which other
points share its call.  An integrator's f is called once, on the block
c[..., None] + y, so it must act elementwise and broadcast any per-point
parameter as p[..., None].  The self-check runs per point; NonConvergence
names the worst.

0-d points take a short path: the lobe centers are one float each, and
_lobe_sums returns each rule's row sums as Python floats (one np.vecdot and
tolist per rule, nothing staged).  The caller combines the lobes in float
arithmetic and checks each value with one NaN-safe abs(fine - coarse) <=
abs_tol; _self_checked does that for one float, and the one-point kernel_pgs
and landscape cell, which check their own, call it only to build the failure
message.  So a one-point call costs its node block and little else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import NonConvergence

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
# the smallest Gauss-Hermite rule a spec (and the CLI schema) accepts
MIN_NODES_PER_LOBE = 16
# nodes whose normalised weight lies below this floor are dropped from a rule
_WEIGHT_FLOOR = 1e-40
# the trimmed rules stored as y<n>, w<n> for the default spec's node counts
_STORED_RULES = Path(__file__).with_name("gh_rules.npz")
_STORED_SIZES = (512, 1024)


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
    weight needs (numpy's hermgauss overflows past a few hundred nodes).  Only
    the nodes with normalised weight >= 1e-40 are kept; the rule stays mirror
    symmetric, and the dropped tail, weight times (1 + |y|)^4, sums to less
    than 1e-35 for every n <= 2048.  The default sizes are read from the
    stored table.
    """
    if n in _STORED_SIZES:
        with np.load(_STORED_RULES) as table:
            y, w = table[f"y{n}"], table[f"w{n}"]
    else:
        from scipy.special import roots_hermite

        u, w = roots_hermite(n)
        w = w * _INV_SQRT_PI
        live = w >= _WEIGHT_FLOOR
        y, w = _SQRT2 * u[live], w[live]
    y.setflags(write=False)
    w.setflags(write=False)
    return y, w


def std_normal_pdf(x):
    """Standard normal density phi(x); broadcasts over arrays."""
    return _INV_SQRT_2PI * np.exp(-0.5 * np.square(x))


def std_normal_cdf(x):
    """Standard normal CDF Phi(x) via erfc; absolute error well below 1e-14."""
    from scipy.special import erfc

    return 0.5 * erfc(-x / _SQRT2)


@lru_cache(maxsize=64)
def _gh_pair(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nodes of the n- and 2n-node rules side by side, and their weights."""
    (y_n, w_n), (y_2n, w_2n) = _gh_rule(n), _gh_rule(2 * n)
    y = np.concatenate((y_n, y_2n))
    y.setflags(write=False)
    return y, w_n, w_2n


def _points(*values) -> tuple | list:
    """The arguments as floats when all are 0-d, else as float arrays of one
    broadcast shape."""
    for v in values:
        if not isinstance(v, float):
            break
    else:
        return values
    points = [np.asarray(v, dtype=float) for v in values]
    if not any(p.ndim for p in points):
        return [float(p) for p in points]
    # equal-length arrays, the common case, need no broadcast
    return points if len({p.shape for p in points}) == 1 else np.broadcast_arrays(*points)


def _lobe_sums(integrand: Callable, centers: np.ndarray, spec: QuadratureSpec, *args):
    """The N- and 2N-node sums of the values ``integrand(centers, nodes, *args)``
    lays out on the nodes of both rules, one BLAS dot per row and rule.
    ``centers`` holds a row of points per lobe, and the sums stack along a
    new axis 0; for 0-d points ``centers`` is 1-D, one float per lobe, and
    the sums are one nested list of Python floats per rule."""
    nodes, w_n, w_2n = _gh_pair(spec.nodes_per_lobe)
    values = integrand(centers, nodes, *args)
    k = w_n.size
    if centers.ndim == 1:
        return np.vecdot(values[..., :k], w_n).tolist(), np.vecdot(values[..., k:], w_2n).tolist()
    sums = np.empty((2,) + values.shape[:-1])
    np.vecdot(values[..., :k], w_n, out=sums[0, ...])
    np.vecdot(values[..., k:], w_2n, out=sums[1, ...])
    return sums


def _on_nodes(centers: np.ndarray, nodes: np.ndarray, f: Callable) -> np.ndarray:
    """f on the nodes around each center, in a block f may overwrite."""
    return f(centers[..., None] + nodes)


def _self_checked(coarse, fine, what: str, points: dict, spec: QuadratureSpec):
    """``fine``, the 2N-node values, after checking them against ``coarse``,
    the N-node ones.  Both hold any number of values per point, stacked in
    front of the shape of the point arrays in ``points`` (name -> value), or
    are floats (a float, or a tuple of one per value) for 0-d points.  On
    failure the message names the point with the largest gap, or the first
    point whose gap is NaN: a NaN gap has not settled.  A float is checked
    with one <= before any array is made."""
    if type(fine) is float and abs(fine - coarse) <= spec.abs_tol:
        return fine
    with np.errstate(invalid="ignore"):  # inf - inf is a NaN gap, which fails below
        gap = np.abs(np.subtract(fine, coarse))
    if not (gap <= spec.abs_tol).all():
        points = {name: np.asarray(value) for name, value in points.items()}
        shape = next(iter(points.values())).shape
        gap = np.max(gap.reshape((-1,) + shape), axis=0)
        worst = np.unravel_index(np.argmax(gap), shape)
        where = ", ".join(f"{name} {float(value[worst])!r}" for name, value in points.items())
        raise NonConvergence(
            f"{what} at {where} did not settle: "
            f"|I_2N - I_N| = {gap[worst]:.3e} > {spec.abs_tol:.3e}"
        )
    return fine


def integrate_against_gaussian(f: Callable, center, spec: QuadratureSpec = DEFAULT_SPEC):
    """int f(y) phi(y - center) dy with the two-resolution self-check."""
    (c,) = _points(center)
    (coarse,), (fine,) = _lobe_sums(_on_nodes, np.array((c,)), spec, f)
    return _self_checked(coarse, fine, "Gaussian quadrature", {"center": c}, spec)


def _mixture(f: Callable, x_theta, sign: float, what: str, spec: QuadratureSpec):
    """0.5 * (lobe at +x_theta + sign * lobe at -x_theta), in one pass."""
    (x_t,) = _points(x_theta)
    sums = _lobe_sums(_on_nodes, np.array((x_t, -x_t)), spec, f)  # [rule][lobe][point...]
    coarse, fine = (0.5 * (plus + sign * minus) for plus, minus in sums)
    return _self_checked(coarse, fine, what, {"x_theta": x_t}, spec)


def integrate_against_mixture(f: Callable, x_theta, spec: QuadratureSpec = DEFAULT_SPEC):
    """int f(y) p(y, x_theta) dy as the average of the two lobe sums."""
    return _mixture(f, x_theta, 1.0, "mixture quadrature", spec)


def integrate_against_mixture_diff(f: Callable, x_theta, spec: QuadratureSpec = DEFAULT_SPEC):
    """int f(y) Delta(y, x_theta) dy (the signed half-difference of lobes).

    Returns exactly 0.0 for x_theta == 0, since the two lobe sums are then
    the same floating-point number.
    """
    return _mixture(f, x_theta, -1.0, "signed mixture quadrature", spec)
