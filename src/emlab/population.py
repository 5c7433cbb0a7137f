"""Population (infinite-sample) EM dynamics for both mean models.

Model 1 estimates a single vector theta (component means locked to ±theta);
Model 2 estimates free means, tracked here in centered (a, b) coordinates.
After one step every iterate lies in span(b_0, theta_star), so a run reduces
its start once with ``planar_reduce`` (geometry.py) to the frame e1, u2 and
the five-float plane state, steps on plain floats and lifts the visited
states to d dimensions once at the end.  A step, with e = b/||b||,
theta1 = <theta_star, e> and one call of the kernel core
(P, Gamma, S) = kernel_pgs, is

    p  = P(<a, e>, ||b||, theta1)
    q  = Gamma e  +  S (theta_star - theta1 e)
    a+ = q (1 - 2p) / (2p(1-p)),   b+ = q / (2p(1-p)),

and moves the state by the distance of the two plane states (the off-plane
part of a_0 counts in the first).  ``run`` lifts elementwise, with row 0 the
init itself, then fills the diagnostics table (``Trajectory``: p, the angle
beta and sin beta, norm_a and dist_b) column by column; per-step ratios of
these are left to ``harness.contraction_estimate``.  ``model2_step`` is the
same reduce, step and lift for one step, so it returns row 1 of a one-step
run and row 0's p bit for bit.  Model 1 is the a = 0 slice, where p = 1/2
and a+ = 0 are set exactly: ``run_model1`` is ``run`` from (0, theta) and
``model1_step`` is ``model2_step`` from there, bit for bit.  A step whose p
leaves (1e-15, 1 - 1e-15) raises DegenerateWeights.  ``run`` and
``run_sample`` share one stop rule and one iteration driver, which steps
flat float states; a sample run reduces nothing.

Exactness guarantees (no thresholding involved):
  * <a, b> == 0.0 implies p = 0.5 and a+ = 0 exactly;
  * x_theta == 0 slices (b exactly orthogonal to theta_star, constructed in
    orthogonal coordinates) give S == 0.0 and so q == Gamma e1 bit for bit,
    which keeps b on the e1 axis and <b+, theta_star> == 0.0 exactly, and
    there Gamma(0, x_b, 0) == F(x_b, 0) / 2 bit for bit;
  * b == 0 maps to the absorbing state (0, 0) with p = 0.5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DegenerateWeights
from .geometry import ABState, MixtureModel, _split_theta, planar_reduce
from .kernels import kernel_pgs
# not called here; kept importable because the benchmark tracer (perfbench/spans.py) wraps them
from .kernels import kernel_f, kernel_gamma, kernel_p, kernel_s  # noqa: F401
from .quadrature import DEFAULT_SPEC, QuadratureSpec, std_normal_cdf

_P_INTERIOR = 1e-15


@dataclass(frozen=True)
class StopRule:
    """Iteration budget and step-size threshold.

    A run stops after the first step that moves the (a, b) state by less
    than ``step_tol`` (Euclidean distance of the stacked pair), or after
    ``max_iters`` steps; ``step_tol = 0.0`` runs the whole budget.
    """

    max_iters: int = 10_000
    step_tol: float = 1e-10

    def __post_init__(self) -> None:
        iters = self.max_iters
        if isinstance(iters, bool) or not isinstance(iters, int) or iters < 1:
            raise ValueError(f"max_iters must be a positive integer, got {iters!r}")
        tol = self.step_tol
        if isinstance(tol, bool) or not 0.0 <= tol < math.inf:
            raise ValueError(f"step_tol must be finite and >= 0, got {tol!r}")

    def converged(self, moved: float) -> bool:
        """Whether a step of size ``moved`` ends the run."""
        return moved < self.step_tol


def record_dtype(dim: int) -> np.dtype:
    """The row type of ``Trajectory.records`` for dimension ``dim``."""
    scalars = ("p", "beta", "sin_beta", "norm_a", "dist_b")
    return np.dtype([("t", np.int64), ("a", float, (dim,)), ("b", float, (dim,))]
                    + [(name, float) for name in scalars])


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Visited iterates plus the exact final state of a run.

    ``records`` is a read-only structured array, one row per iterate t (so
    ``records["dist_b"]`` is a column, ``len(records)`` the row count), with
    the state ``a``, ``b`` (length d); ``p``, the posterior mass at the
    iterate (the scalar that produces iterate t+1); the angle ``beta`` of b
    to theta_star and ``sin_beta`` (nan when undefined); ``norm_a``; and
    ``dist_b``, the distance of b to the sign-resolved ``target``.
    ``harness.contraction_estimate`` takes the per-step ratios of
    ``norm_a``, ``dist_b`` and ``sin_beta`` from these columns.
    """

    records: np.ndarray
    final_state: ABState
    converged: bool
    target: np.ndarray

    def __len__(self) -> int:
        return len(self.records)


def _step(z: tuple, theta: tuple, spec: QuadratureSpec) -> tuple[tuple, float]:
    """One free-means step on the plane state ``z`` against theta_star's
    coordinates ``theta``; returns the next plane state and p at ``z``."""
    a1, a2, _, b1, b2 = z
    norm_b = math.hypot(b1, b2)
    if norm_b == 0.0:
        return (0.0, 0.0, 0.0, 0.0, 0.0), 0.5
    c, s = b1 / norm_b, b2 / norm_b
    x_a = a1 * c + a2 * s
    theta1 = theta[0] * c + theta[1] * s
    p, gamma, s_kernel = kernel_pgs(x_a, norm_b, theta1, spec)
    if x_a == 0.0:
        p = 0.5  # the two lobe sums of P cancel only up to rounding
    if not _P_INTERIOR < p < 1.0 - _P_INTERIOR:
        raise DegenerateWeights(
            f"posterior mass p = {p!r} outside (1e-15, 1 - 1e-15) at x_a = {x_a!r}, "
            f"||b|| = {norm_b!r}, theta1 = {theta1!r}"
        )
    # q = Gamma e1 + S theta_perp in the frame
    q1 = gamma * c + s_kernel * (theta[0] - theta1 * c)
    q2 = gamma * s + s_kernel * (theta[1] - theta1 * s)
    denom = 2.0 * p * (1.0 - p)
    ratio = (1.0 - 2.0 * p) / denom
    a_new = (0.0, 0.0) if x_a == 0.0 else (q1 * ratio, q2 * ratio)
    return (*a_new, 0.0, q1 / denom, q2 / denom), p


def _lift(x, y, e1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """x e1 + y u2, elementwise so no BLAS kernel picks the bytes; + 0.0
    turns the -0.0 of 0.0 times a negative entry into 0.0."""
    return x * e1 + y * u2 + 0.0


def model2_step(
    state: ABState, model: MixtureModel, spec: QuadratureSpec = DEFAULT_SPEC
) -> tuple[ABState, float]:
    """One population step of the free-means model in (a, b) coordinates.

    Returns the new state and the posterior mass p at ``state``.  b == 0 is
    absorbing: the step returns (0, 0) with p = 0.5.
    """
    e1, u2, theta, z = planar_reduce(state, model)
    (a1, a2, _, b1, b2), p = _step(z, theta, spec)
    return ABState(_lift(a1, a2, e1, u2), _lift(b1, b2, e1, u2)), p


def model1_step(theta, model: MixtureModel, spec: QuadratureSpec = DEFAULT_SPEC) -> np.ndarray:
    """One population step of the locked-means model: the b part of the
    free-means step from (0, theta), whose midpoint stays exactly 0; 0 maps
    to 0."""
    return model2_step(ABState(np.zeros(model.dim), theta), model, spec)[0].b


def _betas(b_rows: np.ndarray, model: MixtureModel) -> np.ndarray:
    """The angle between each row of ``b_rows`` and theta_star, from the planar
    reduction's split of theta_star; nan where the row or theta_star is zero."""
    norm_b = np.linalg.norm(b_rows, axis=1)
    defined = norm_b > 0.0
    e1 = b_rows / np.where(defined, norm_b, 1.0)[:, None]
    theta1, theta_perp = _split_theta(model.theta_star, e1)
    beta = np.arctan2(np.linalg.norm(theta_perp, axis=1), theta1)
    return np.where(defined & (model.norm_theta > 0.0), beta, np.nan)


def _trajectory(
    a_rows, b_rows, ps: list[float], converged: bool, model: MixtureModel
) -> Trajectory:
    """A run's visited states, row 0 its init and the last row its final
    state, as a ``Trajectory`` whose records, filled column by column in one
    pass, are the rows that have a p."""
    k, target = len(ps), _sign_target(b_rows[0], model)
    table = np.empty(k, dtype=record_dtype(model.dim))
    table["t"] = np.arange(k)
    table["a"] = a_rows[:k]
    table["b"] = b_rows[:k]
    table["p"] = ps
    table["beta"] = _betas(table["b"], model)
    table["sin_beta"] = np.sin(table["beta"])
    table["norm_a"] = np.linalg.norm(table["a"], axis=1)
    table["dist_b"] = np.linalg.norm(table["b"] - target, axis=1)
    table.flags.writeable = False
    return Trajectory(table, ABState(a_rows[-1], b_rows[-1]), converged, target)


def _sign_target(b: np.ndarray, model: MixtureModel) -> np.ndarray:
    """The limit predicted by the sign of <b, theta_star>: theta_star,
    -theta_star, or 0 on the orthogonal slice."""
    alignment = float(np.dot(b, model.theta_star))
    if alignment > 0.0:
        return model.theta_star.copy()
    if alignment < 0.0:
        return -model.theta_star
    return np.zeros(model.dim)


def _drive(init, stop: StopRule, step: Callable) -> tuple[list, list[float], bool]:
    """The EM iteration loop behind ``run`` and ``run_sample``.

    A state is a flat sequence of floats: the plane state of ``run``, the
    stacked (a, b) of ``run_sample``.  ``step(state)`` returns the next state
    and the posterior mass p at ``state``, and ``math.dist`` measures how far
    a step moved.  Returns every visited state (the last is the final state),
    the p of each state a step was taken from, and whether the stop rule's
    step-size test ended the run; a run that exhausts the budget also lists
    the p of its final state, from one more step.
    """
    states, ps = [init], []
    for _ in range(stop.max_iters):
        new_state, p = step(states[-1])
        ps.append(p)
        moved = math.dist(new_state, states[-1])
        states.append(new_state)
        if stop.converged(moved):
            return states, ps, True
    ps.append(step(states[-1])[1])
    return states, ps, False


def run(
    init: ABState,
    model: MixtureModel,
    stop: StopRule = StopRule(),
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> Trajectory:
    """Iterate the free-means population step under ``stop``.

    Records cover every iterate a step was taken from; a converged run's
    final state differs from the last record by less than step_tol and is
    exposed as ``Trajectory.final_state`` (a fixed-point init therefore
    yields a single record).  When the budget is exhausted, the last iterate
    is appended as a final record.
    """
    e1, u2, theta, z0 = planar_reduce(init, model)
    zs, ps, converged = _drive(z0, stop, lambda z: _step(z, theta, spec))
    z = np.array(zs)
    a_rows, b_rows = _lift(z[:, :1], z[:, 1:2], e1, u2), _lift(z[:, 3:4], z[:, 4:5], e1, u2)
    a_rows[0], b_rows[0] = init.a, init.b
    return _trajectory(a_rows, b_rows, ps, converged, model)


def run_model1(
    theta0,
    model: MixtureModel,
    stop: StopRule = StopRule(),
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> np.ndarray:
    """Iterate the locked-means population step; returns the (k+1, d) array
    of all visited iterates including the final one: the b rows of ``run``
    from (0, theta0)."""
    theta = np.asarray(theta0, dtype=float)
    if theta.shape != (model.dim,):
        raise ValueError(f"theta0 must have shape ({model.dim},), got {theta.shape}")
    return _visited(run(ABState(np.zeros(model.dim), theta), model, stop, spec), "b")


def _visited(traj: Trajectory, field: str) -> np.ndarray:
    """Every visited ``a`` or ``b`` of a run, the final state exactly once (a
    run that exhausts its budget records its final state already)."""
    rows = traj.records[field]
    final = getattr(traj.final_state, field)
    return np.vstack([rows, final]) if traj.converged else np.array(rows)


class APrioriBounds(NamedTuple):
    """Closed-form trajectory envelopes (norms of a and b stay below
    c_u1 and c_u3; c_u2 is the posterior-mass floor used to build c_u3)."""

    c_u1: float
    c_u2: float
    c_u3: float


def a_priori_bounds(init: ABState, model: MixtureModel) -> APrioriBounds:
    """Envelope constants from the initial state and the true separation."""
    norm_a0 = float(np.linalg.norm(init.a))
    norm_b0 = float(np.linalg.norm(init.b))
    norm_t = model.norm_theta
    c1_sq = max(
        norm_a0 * norm_a0,
        2.0 / math.pi + 0.5 * norm_t * norm_t,
        16.0 / 9.0 + (73.0 / 36.0) * norm_t * norm_t,
    )
    c_u1 = math.sqrt(c1_sq)
    # upper tail as Phi(-x): 1 - Phi(x) rounds to 0 beyond x ~ 9 and would
    # divide by zero below; the erfc route stays positive until ~ x = 37
    c_u2 = 0.25 * float(std_normal_cdf(-(c_u1 + norm_t)))
    if c_u2 > 0.0:
        c3_sq = max(
            norm_b0 * norm_b0,
            norm_t * norm_t
            + (1.0 + norm_t * norm_t) / (4.0 * c_u2 * c_u2 * (1.0 - c_u2) * (1.0 - c_u2)),
        )
    else:
        c3_sq = float("inf")  # vacuous but honest envelope for huge inits
    return APrioriBounds(c_u1, c_u2, math.sqrt(c3_sq))
