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
``model2_step`` at a = 0 reproduces it bit-for-bit, and ``run``,
``run_sample`` and ``run_model1`` share one iteration driver and one stop
rule.  A step whose p leaves (1e-15, 1 - 1e-15) raises DegenerateWeights.

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
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import DegenerateWeights, DimensionMismatch
from .geometry import ABState, MixtureModel, PlanarCoords, angle_beta, planar_reduce, state_distance
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


@dataclass(frozen=True)
class PopStepRecord:
    """Diagnostics for one visited iterate.

    ``t`` indexes the iterate; ``p`` is the posterior mass evaluated at this
    iterate (the scalar that produces iterate t+1).  ``beta`` is the angle
    between b and theta_star (nan when undefined), ``dist_b`` the distance of
    b to the sign-resolved target.  Ratios compare against the previous
    record and are None at t = 0 or when the previous denominator vanishes.
    """

    t: int
    state: ABState
    p: float
    beta: float
    norm_a: float
    dist_b: float
    ratio_a: Optional[float] = None
    ratio_b: Optional[float] = None
    ratio_sin: Optional[float] = None

    def __post_init__(self) -> None:
        if not (_P_INTERIOR < self.p < 1.0 - _P_INTERIOR):
            raise ValueError(f"posterior mass p left the open unit interval: {self.p!r}")

    @property
    def sin_beta(self) -> float:
        return math.sin(self.beta) if math.isfinite(self.beta) else float("nan")


@dataclass(frozen=True)
class Trajectory:
    """Visited iterates plus the exact final state of a run."""

    records: tuple[PopStepRecord, ...]
    final_state: ABState
    converged: bool
    target: np.ndarray

    def __len__(self) -> int:
        return len(self.records)

    def series(self, field: str) -> np.ndarray:
        """Per-record values of ``field`` ('norm_a', 'dist_b', 'beta',
        'sin_beta', 'p') as a float array."""
        return np.array([getattr(r, field) for r in self.records], dtype=float)


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


def _beta_of(state: ABState, model: MixtureModel) -> float:
    """The angle between b and theta_star; nan when either is zero."""
    if float(np.linalg.norm(state.b)) == 0.0 or model.norm_theta == 0.0:
        return float("nan")
    return angle_beta(planar_reduce(state, model))


def _ratio(curr: float, prev: Optional[float]) -> Optional[float]:
    if prev is None or not math.isfinite(prev) or prev <= 0.0 or not math.isfinite(curr):
        return None
    return curr / prev


def _make_record(
    t: int,
    state: ABState,
    p: float,
    prev: Optional[PopStepRecord],
    target: np.ndarray,
    model: MixtureModel,
) -> PopStepRecord:
    norm_a = float(np.linalg.norm(state.a))
    dist_b = float(np.linalg.norm(state.b - target))
    beta = _beta_of(state, model)
    if prev is None:
        return PopStepRecord(t, state, p, beta, norm_a, dist_b)
    return PopStepRecord(
        t, state, p, beta, norm_a, dist_b,
        ratio_a=_ratio(norm_a, prev.norm_a),
        ratio_b=_ratio(dist_b, prev.dist_b),
        ratio_sin=_ratio(math.sin(beta), prev.sin_beta),
    )


def model2_step(
    state: ABState, model: MixtureModel, spec: QuadratureSpec = DEFAULT_SPEC
) -> tuple[ABState, PopStepRecord]:
    """One population step of the free-means model in (a, b) coordinates.

    Returns the new state together with the diagnostics record of the state
    the step was taken from (the caller assigns step indices when iterating).
    b == 0 is absorbing: the step returns (0, 0) with p = 0.5.
    """
    if state.dim != model.dim:
        raise DimensionMismatch(
            f"state has dimension {state.dim}, model has {model.dim}"
        )
    target = _sign_target(state.b, model)
    new_state, p = _step_core(state, model, spec)
    record = _make_record(0, state, p, None, target, model)
    return new_state, record


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
    record: Callable[[int, ABState, float, object], object],
) -> tuple[list, ABState, bool]:
    """The EM iteration loop behind ``run``, ``run_sample`` and ``run_model1``.

    ``step(state)`` returns the next state and the posterior mass p at
    ``state``; ``record(t, state, p, previous entry or None)`` makes the
    entry for every iterate a step was taken from.  A converged run's last
    state gets no entry (it is the returned final state); a run that
    exhausts the budget records its last iterate at t = max_iters with
    p = ``mass_at(state)``.  Returns the entries, the final state and
    whether the stop rule's step-size test ended the run.
    """
    entries: list = []
    state = init
    for t in range(stop.max_iters):
        new_state, p = step(state)
        entries.append(record(t, state, p, entries[-1] if entries else None))
        moved = state_distance(new_state, state)
        state = new_state
        if stop.converged(moved):
            return entries, state, True
    entries.append(record(stop.max_iters, state, mass_at(state), entries[-1]))
    return entries, state, False


def _trajectory(
    init: ABState,
    model: MixtureModel,
    stop: StopRule,
    step: Callable[[ABState], tuple[ABState, float]],
    mass_at: Callable[[ABState], float],
) -> Trajectory:
    """``_drive`` with a diagnostics record for every visited iterate."""
    target = _sign_target(init.b, model)

    def record(t: int, state: ABState, p: float, prev: Optional[PopStepRecord]) -> PopStepRecord:
        return _make_record(t, state, p, prev, target, model)

    records, final_state, converged = _drive(init, stop, step, mass_at, record)
    return Trajectory(tuple(records), final_state, converged, target)


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
    iterates, final_state, converged = _drive(
        ABState(np.zeros(model.dim), theta),
        stop,
        lambda state: _step_core(state, model, spec),
        lambda state: 0.5,  # exact on the a = 0 slice, and unused here
        lambda t, state, p, prev: state.b,
    )
    return np.array((iterates + [final_state.b]) if converged else iterates)


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
