"""Experiment drivers tying the sample and population dynamics together.

Contents: same-initialization coupled runs and their n-ladder aggregation
(sample updates track the population flow, with final b-error shrinking like
n^{-1/2}), whose slope `rate_fit` alone decides; per-step contraction-constant
estimation from trajectory records; and an empirical-mean concentration spot
check.  Every function here is deterministic given its seed arguments: trial
k draws from default_rng([seed, k]), whichever thread it runs on, and results
are aggregated in trial order.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import InsufficientData
from .geometry import ABState, MixtureModel
from .population import StopRule, Trajectory, run
from .quadrature import DEFAULT_SPEC, QuadratureSpec
from .sampling import run_sample, sample_mixture


@dataclass(frozen=True)
class ConsistencyResult:
    """Medians over trials of coupled-run statistics along a sample-size ladder."""

    n_ladder: tuple[int, ...]
    sup_discrepancy: tuple[float, ...]
    final_error: tuple[float, ...]
    slope: float
    trials: int
    seeds: tuple[int, ...]


class ContractionEstimate(NamedTuple):
    kappa_a: float
    kappa_b: float
    kappa_sin: float
    T0: int
    valid: bool


def _discrepancies(sample_traj: Trajectory, pop_traj: Trajectory) -> np.ndarray:
    """``state_distance`` between the two runs' iterates, row by row."""
    x, y = sample_traj.records, pop_traj.records
    return np.hypot(
        np.linalg.norm(x["a"] - y["a"], axis=1), np.linalg.norm(x["b"] - y["b"], axis=1)
    )


def _sup_discrepancy(sample_traj: Trajectory, pop_traj: Trajectory) -> float:
    return float(np.max(_discrepancies(sample_traj, pop_traj)))


def coupled_run(
    init: ABState,
    model: MixtureModel,
    n: int,
    T: int,
    seed,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> tuple[Trajectory, Trajectory, float]:
    """Run sample and population EM from the same init for exactly T steps.

    Returns (sample trajectory, population trajectory, sup over recorded
    iterates of the concatenated state distance).
    """
    stop = StopRule(max_iters=T, step_tol=0.0)
    data = sample_mixture(model, n, seed)
    sample_traj = run_sample(init, data, stop)
    pop_traj = run(init, model, stop, spec)
    return sample_traj, pop_traj, _sup_discrepancy(sample_traj, pop_traj)


def consistency_ladder(
    init: ABState,
    model: MixtureModel,
    n_ladder,
    T: int = 50,
    trials: int = 20,
    seed: int = 0,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> ConsistencyResult:
    """Median coupled-run statistics over `trials` seeds for each ladder rung.

    The population trajectory is shared across trials (it does not depend on
    the data); trial k of every rung reuses stream [seed, k], which acts as a
    common-random-numbers coupling along the ladder.  Two worker threads run
    the trials, each drawing its own data and running its sample EM, with at
    most two trials in flight: at most two datasets are alive, and results
    are taken in (rung, trial) order.  The slope is `rate_fit`'s, or nan
    when it finds no rate (InsufficientData).
    """
    n_ladder = tuple(int(n) for n in n_ladder)
    if any(b <= a for a, b in zip(n_ladder, n_ladder[1:])):
        raise ValueError(f"n_ladder must be strictly increasing, got {n_ladder}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    stop = StopRule(max_iters=T, step_tol=0.0)
    pop_traj = run(init, model, stop, spec)
    trial_seeds = tuple(range(trials))

    def trial(n: int, k: int) -> tuple[float, float]:
        straj = run_sample(init, sample_mixture(model, n, [seed, k]), stop)
        return (
            _sup_discrepancy(straj, pop_traj),
            float(np.linalg.norm(straj.final_state.b - straj.target)),
        )

    stats, in_flight = [], deque()
    with ThreadPoolExecutor(2) as workers:
        for n, k in itertools.product(n_ladder, trial_seeds):
            if len(in_flight) == 2:
                stats.append(in_flight.popleft().result())
            in_flight.append(workers.submit(trial, n, k))
        stats.extend(future.result() for future in in_flight)
    per_rung = np.array(stats).reshape(len(n_ladder), trials, 2)
    sups = [float(v) for v in np.median(per_rung[:, :, 0], axis=1)]
    finals = [float(v) for v in np.median(per_rung[:, :, 1], axis=1)]
    result = ConsistencyResult(
        n_ladder=n_ladder,
        sup_discrepancy=tuple(sups),
        final_error=tuple(finals),
        slope=float("nan"),
        trials=trials,
        seeds=trial_seeds,
    )
    try:
        return replace(result, slope=rate_fit(result))
    except InsufficientData:
        return result


def rate_fit(result: ConsistencyResult) -> float:
    """Least-squares slope of log(final error) against log(n); InsufficientData if none."""
    if len(result.n_ladder) < 4:
        raise InsufficientData(
            f"rate fit needs >= 4 ladder points, got {len(result.n_ladder)}"
        )
    if any(not e > 0.0 for e in result.final_error):
        raise InsufficientData("rate fit needs strictly positive final errors")
    slope, _ = np.polyfit(np.log(result.n_ladder), np.log(result.final_error), 1)
    return float(slope)


def _ratios(values: np.ndarray) -> np.ndarray:
    """values[t] / values[t-1] per row; nan at t = 0 and unless the previous
    value is finite and positive and the current one finite."""
    prev, curr = values[:-1], values[1:]
    valid = (prev > 0.0) & (prev < np.inf) & np.isfinite(curr)
    ratio = np.full_like(values, np.nan)
    np.divide(curr, prev, out=ratio[1:], where=valid)
    return ratio


def contraction_estimate(traj: Trajectory) -> ContractionEstimate:
    """Fit per-step contraction factors from a trajectory's records.

    The ratios are taken row by row on the records handed in: ``norm_a``,
    ``dist_b`` and ``sin_beta`` over the previous row's value, missing (nan)
    at row 0 and unless the previous value is finite and positive and the
    current one finite.  T0 is the last row index >= 1 whose b-error ratio
    is missing or >= 1 (0 when contraction holds from the start); the kappas
    are the largest ratios present over the post-T0 tail (nan when none is).
    `valid` requires a finite tail estimate kappa_b < 1 with no tail ratio
    of any kind reaching 1.
    """
    if len(traj) < 5:
        raise InsufficientData(f"need >= 5 records to estimate contraction, got {len(traj)}")
    ratio_a, ratio_b, ratio_sin = (
        _ratios(traj.records[field]) for field in ("norm_a", "dist_b", "sin_beta")
    )
    # a missing (nan) ratio fails the comparison and so counts as bad
    bad = np.flatnonzero(~(ratio_b[1:] < 1.0))
    T0 = int(bad[-1]) + 1 if bad.size else 0

    def tail_max(ratios: np.ndarray) -> float:
        tail = ratios[T0 + 1:]
        tail = tail[~np.isnan(tail)]
        return float(tail.max()) if tail.size else float("nan")

    kappa_a, kappa_b, kappa_sin = tail_max(ratio_a), tail_max(ratio_b), tail_max(ratio_sin)
    valid = (
        math.isfinite(kappa_b)
        and kappa_b < 1.0
        and not (math.isfinite(kappa_a) and kappa_a >= 1.0)
        and not (math.isfinite(kappa_sin) and kappa_sin >= 1.0)
    )
    return ContractionEstimate(kappa_a, kappa_b, kappa_sin, T0, valid)


def concentration_check(
    model: MixtureModel,
    n: int,
    delta: float,
    trials: int,
    seed: int = 0,
    factor: float = 4.0,
) -> float:
    """Fraction of trials where the empirical mean norm exceeds
    factor * (|theta*| + 1) * sqrt((2d + ln(1/delta)) / n)."""
    if trials < 100:
        raise InsufficientData(f"need >= 100 trials, got {trials}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    bound = factor * (model.norm_theta + 1.0) * math.sqrt(
        (2.0 * model.dim + math.log(1.0 / delta)) / n
    )
    violations = 0
    for k in range(trials):
        data = sample_mixture(model, n, [seed, k])
        if float(np.linalg.norm(data.mean)) > bound:
            violations += 1
    return violations / trials
