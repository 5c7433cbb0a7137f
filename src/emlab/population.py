"""Population (infinite-sample) EM dynamics for both mean models.

Model 1 estimates a single vector theta (component means locked to ±theta);
Model 2 estimates free means, tracked here in centered (a, b) coordinates.
Each step is evaluated exactly on span(b, theta_star) via the planar
reduction and one call of the kernel core (P, Gamma, S) = kernel_pgs:

    p  = P(x_a, ||b||, theta1)
    q  = Gamma(x_a, ||b||, theta1) e1  +  S(x_a, ||b||, theta1) theta_perp
    a+ = q (1 - 2p) / (2p(1-p))
    b+ = q / (2p(1-p))

Model 1 is the a = 0 slice, where p = 1/2 and a+ = 0 are set exactly.
``model1_step`` is the free-means step taken from (0, theta), so
``model2_step`` at a = 0 reproduces it bit-for-bit.  A step whose p leaves
(1e-15, 1 - 1e-15) raises DegenerateWeights.  ``run``, ``run_sample`` and
``run_model1`` share one stop rule and one iteration driver, which carries
only the iterates and their p; the diagnostics table (``Trajectory``) is
filled afterwards column by column from the stacked iterates, so each
iterate is reduced once (by its step) and a sample run not at all.

Exactness guarantees (no thresholding involved):
  * <a, b> == 0.0 implies p = 0.5 and a+ = 0 exactly;
  * x_theta == 0 slices (b exactly orthogonal to theta_star, constructed in
    orthogonal coordinates) give S == 0.0 and so q == Gamma e1 bit for bit,
    which keeps <b+, theta_star> == 0.0 exactly, and there
    Gamma(0, x_b, 0) == F(x_b, 0) / 2 bit for bit;
  * b == 0 maps to the absorbing state (0, 0) with p = 0.5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DegenerateWeights, DimensionMismatch
from .geometry import ABState, MixtureModel, PlanarCoords, _split_theta, planar_reduce, state_distance
from .kernels import kernel_pgs
# not called here; kept importable because the benchmark tracer (perfbench/spans.py) wraps them
from .kernels import kernel_f, kernel_gamma, kernel_p, kernel_s  # noqa: F401
from .quadrature import DEFAULT_SPEC, QuadratureSpec, std_normal_cdf

_P_INTERIOR = 1e-15


@dataclass(frozen=True)
class StopRule:
    """Iteration budget and step-size threshold.

    A run stops after the first step that moves the (a, b) state by less
    than ``step_tol`` (``state_distance``), or after ``max_iters`` steps;
    ``step_tol = 0.0`` runs the whole budget.
    """

    max_iters: int = 10_000
    step_tol: float = 1e-10

    def __post_init__(self) -> None:
        if not isinstance(self.max_iters, int) or self.max_iters < 1:
            raise ValueError(f"max_iters must be a positive integer, got {self.max_iters!r}")
        if not self.step_tol >= 0.0:
            raise ValueError(f"step_tol must be >= 0, got {self.step_tol!r}")

    def converged(self, moved: float) -> bool:
        """Whether a step of size ``moved`` ends the run."""
        return moved < self.step_tol


RATIO_FIELDS = ("ratio_a", "ratio_b", "ratio_sin")


def record_dtype(dim: int) -> np.dtype:
    """The row type of ``Trajectory.records`` for dimension ``dim``."""
    scalars = ("p", "beta", "sin_beta", "norm_a", "dist_b") + RATIO_FIELDS
    return np.dtype([("t", np.int64), ("a", float, (dim,)), ("b", float, (dim,))]
                    + [(name, float) for name in scalars])


@dataclass(frozen=True)
class Trajectory:
    """Visited iterates plus the exact final state of a run.

    ``records`` is a read-only structured array, one row per iterate t (so
    ``records["dist_b"]`` is a column, ``len(records)`` the row count), with
    the state ``a``, ``b`` (length d); ``p``, the posterior mass at the
    iterate (the scalar that produces iterate t+1); the angle ``beta`` of b
    to theta_star and ``sin_beta`` (nan when undefined); ``norm_a``; and
    ``dist_b``, the distance of b to the sign-resolved ``target``.  The
    ratios of ``norm_a``, ``dist_b`` and ``sin_beta`` to the previous row's
    value are ``ratio_a``, ``ratio_b`` and ``ratio_sin``: nan at t = 0 and
    unless the previous value is finite and positive and the current finite.
    """

    records: np.ndarray
    final_state: ABState
    converged: bool
    target: np.ndarray

    def __len__(self) -> int:
        return len(self.records)


def _planar_p_q(coords: PlanarCoords, spec: QuadratureSpec) -> tuple[float, np.ndarray]:
    """Posterior mass p and the vector q = E[w Y] for a reduced state.

    One kernel-core call; p is set to exactly 1/2 on the x_a == 0 slice,
    where the two lobe sums of P cancel only up to rounding.
    """
    p, q1, s = kernel_pgs(coords.x_a, coords.norm_b, coords.theta1, spec)
    if coords.x_a == 0.0:
        p = 0.5
    return p, q1 * coords.e1 + s * coords.theta_perp


def posterior_mass(state: ABState, model: MixtureModel, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """The scalar p for one step taken from ``state``; exactly 0.5 whenever
    <a, b> == 0 (in particular for b == 0)."""
    return _step_core(state, model, spec)[1]


def _step_core(
    state: ABState, model: MixtureModel, spec: QuadratureSpec
) -> tuple[ABState, float]:
    if float(np.linalg.norm(state.b)) == 0.0:
        zero = np.zeros(model.dim)
        return ABState(zero, zero), 0.5
    coords = planar_reduce(state, model)
    p, q_vec = _planar_p_q(coords, spec)
    if not _P_INTERIOR < p < 1.0 - _P_INTERIOR:
        raise DegenerateWeights(
            f"posterior mass p = {p!r} outside (1e-15, 1 - 1e-15) at x_a = {coords.x_a!r}, "
            f"||b|| = {coords.norm_b!r}, theta1 = {coords.theta1!r}"
        )
    denom = 2.0 * p * (1.0 - p)
    if coords.x_a == 0.0:
        a_new = np.zeros(model.dim)
    else:
        a_new = q_vec * ((1.0 - 2.0 * p) / denom)
    b_new = q_vec / denom
    return ABState(a_new, b_new), p


def model1_step(theta, model: MixtureModel, spec: QuadratureSpec = DEFAULT_SPEC) -> np.ndarray:
    """One population step of the locked-means model: the b part of the
    free-means step from (0, theta), whose midpoint stays exactly 0; 0 maps
    to 0."""
    return _step_core(ABState(np.zeros(model.dim), theta), model, spec)[0].b


def _betas(b_rows: np.ndarray, model: MixtureModel) -> np.ndarray:
    """The angle between each row of ``b_rows`` and theta_star, from the planar
    reduction's split of theta_star; nan where the row or theta_star is zero."""
    norm_b = np.linalg.norm(b_rows, axis=1)
    defined = norm_b > 0.0
    e1 = b_rows / np.where(defined, norm_b, 1.0)[:, None]
    theta1, theta_perp = _split_theta(model.theta_star, e1)
    beta = np.arctan2(np.linalg.norm(theta_perp, axis=1), theta1)
    return np.where(defined & (model.norm_theta > 0.0), beta, np.nan)


def _ratios(values: np.ndarray) -> np.ndarray:
    """values[t] / values[t-1] per row; nan at t = 0 and unless the previous
    value is finite and positive and the current one finite."""
    prev, curr = values[:-1], values[1:]
    valid = (prev > 0.0) & (prev < np.inf) & np.isfinite(curr)
    ratio = np.full_like(values, np.nan)
    np.divide(curr, prev, out=ratio[1:], where=valid)
    return ratio


def _records(
    states: list[ABState], ps: list[float], target: np.ndarray, model: MixtureModel
) -> np.ndarray:
    """The diagnostics table of every iterate, from one pass over the stack;
    row t is ``states[t]`` with its mass ``ps[t]``."""
    table = np.empty(len(states), dtype=record_dtype(model.dim))
    table["t"] = np.arange(len(states))
    table["a"] = [state.a for state in states]
    table["b"] = [state.b for state in states]
    table["p"] = ps
    table["beta"] = _betas(table["b"], model)
    table["sin_beta"] = np.sin(table["beta"])
    table["norm_a"] = np.linalg.norm(table["a"], axis=1)
    table["dist_b"] = np.linalg.norm(table["b"] - target, axis=1)
    for ratio, field in zip(RATIO_FIELDS, ("norm_a", "dist_b", "sin_beta")):
        table[ratio] = _ratios(table[field])
    table.flags.writeable = False
    return table


def model2_step(
    state: ABState, model: MixtureModel, spec: QuadratureSpec = DEFAULT_SPEC
) -> tuple[ABState, np.void]:
    """One population step of the free-means model in (a, b) coordinates.

    Returns the new state together with the diagnostics row of the state
    the step was taken from (a one-row ``Trajectory.records`` table's row 0).
    b == 0 is absorbing: the step returns (0, 0) with p = 0.5.
    """
    if state.dim != model.dim:
        raise DimensionMismatch(
            f"state has dimension {state.dim}, model has {model.dim}"
        )
    new_state, p = _step_core(state, model, spec)
    return new_state, _records([state], [p], _sign_target(state.b, model), model)[0]


def _sign_target(b: np.ndarray, model: MixtureModel) -> np.ndarray:
    """The limit predicted by the sign of <b, theta_star>: theta_star,
    -theta_star, or 0 on the orthogonal slice."""
    alignment = float(np.dot(b, model.theta_star))
    if alignment > 0.0:
        return model.theta_star.copy()
    if alignment < 0.0:
        return -model.theta_star
    return np.zeros(model.dim)


def _drive(
    init: ABState,
    stop: StopRule,
    step: Callable[[ABState], tuple[ABState, float]],
    mass_at: Callable[[ABState], float],
) -> tuple[list[ABState], list[float], ABState, bool]:
    """The EM iteration loop behind ``run``, ``run_sample`` and ``run_model1``.

    ``step(state)`` returns the next state and the posterior mass p at
    ``state``.  Returns the iterates a step was taken from, their p, the
    final state and whether the stop rule's step-size test ended the run; a
    run that exhausts the budget also lists its last iterate, with p =
    ``mass_at(state)``.
    """
    states: list[ABState] = []
    ps: list[float] = []
    state = init
    for _ in range(stop.max_iters):
        new_state, p = step(state)
        states.append(state)
        ps.append(p)
        moved = state_distance(new_state, state)
        state = new_state
        if stop.converged(moved):
            return states, ps, state, True
    states.append(state)
    ps.append(mass_at(state))
    return states, ps, state, False


def _trajectory(
    init: ABState,
    model: MixtureModel,
    stop: StopRule,
    step: Callable[[ABState], tuple[ABState, float]],
    mass_at: Callable[[ABState], float],
) -> Trajectory:
    """``_drive``, then a diagnostics record for every visited iterate."""
    target = _sign_target(init.b, model)
    states, ps, final_state, converged = _drive(init, stop, step, mass_at)
    return Trajectory(_records(states, ps, target, model), final_state, converged, target)


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
    if init.dim != model.dim:
        raise DimensionMismatch(
            f"init has dimension {init.dim}, model has {model.dim}"
        )
    return _trajectory(
        init,
        model,
        stop,
        lambda state: _step_core(state, model, spec),
        lambda state: posterior_mass(state, model, spec),
    )


def run_model1(
    theta0,
    model: MixtureModel,
    stop: StopRule = StopRule(),
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> np.ndarray:
    """Iterate the locked-means population step; returns the (k+1, d) array
    of all visited iterates including the final one."""
    theta = np.asarray(theta0, dtype=float)
    if theta.shape != (model.dim,):
        raise ValueError(f"theta0 must have shape ({model.dim},), got {theta.shape}")
    states, _, final_state, converged = _drive(
        ABState(np.zeros(model.dim), theta),
        stop,
        lambda state: _step_core(state, model, spec),
        lambda state: 0.5,  # exact on the a = 0 slice, and unused here
    )
    return np.array([state.b for state in states] + ([final_state.b] if converged else []))


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
