"""Experiment drivers tying the sample and population dynamics together.

Contents: same-initialization coupled runs and their n-ladder aggregation
(sample updates track the population flow, with final b-error shrinking like
n^{-1/2}); per-step contraction-constant estimation from trajectory records;
and an empirical-mean concentration spot check.  Every function here is
deterministic given its seed arguments: per-trial RNG streams are spawned as
default_rng([seed, trial]) and results are aggregated in trial order.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import InsufficientData
from .geometry import ABState, MixtureModel, state_distance
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


def _sup_discrepancy(sample_traj: Trajectory, pop_traj: Trajectory) -> float:
    return max(
        state_distance(rs.state, rp.state)
        for rs, rp in zip(sample_traj.records, pop_traj.records)
    )


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
    common-random-numbers coupling along the ladder.  Trials are pipelined:
    the calling thread draws the next trial's data while one worker thread
    runs the sample EM of the previous one, so at most two datasets are
    alive, every dataset is drawn on the calling thread, and results are
    taken in (rung, trial) order.
    """
    n_ladder = tuple(int(n) for n in n_ladder)
    if any(b <= a for a, b in zip(n_ladder, n_ladder[1:])):
        raise ValueError(f"n_ladder must be strictly increasing, got {n_ladder}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    stop = StopRule(max_iters=T, step_tol=0.0)
    pop_traj = run(init, model, stop, spec)
    trial_seeds = tuple(range(trials))

    def trial(data) -> tuple[float, float]:
        straj = run_sample(init, data, stop)
        return (
            _sup_discrepancy(straj, pop_traj),
            float(np.linalg.norm(straj.final_state.b - straj.target)),
        )

    stats = []
    with ThreadPoolExecutor(1) as worker:
        pending = None
        for n, k in itertools.product(n_ladder, trial_seeds):
            data = sample_mixture(model, n, [seed, k])
            if pending is not None:
                stats.append(pending.result())
            pending = worker.submit(trial, data)
            # only the worker holds the data now, and frees it when done
            del data
        stats.append(pending.result())
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
    if len(n_ladder) >= 4:
        result = replace(result, slope=rate_fit(result))
    return result


def rate_fit(result: ConsistencyResult) -> float:
    """Least-squares slope of log(final error) against log(sample size)."""
    if len(result.n_ladder) < 4:
        raise InsufficientData(
            f"rate fit needs >= 4 ladder points, got {len(result.n_ladder)}"
        )
    if any(not e > 0.0 for e in result.final_error):
        raise InsufficientData("rate fit needs strictly positive final errors")
    slope, _ = np.polyfit(np.log(result.n_ladder), np.log(result.final_error), 1)
    return float(slope)


def contraction_estimate(traj: Trajectory) -> ContractionEstimate:
    """Fit per-step contraction factors from a trajectory's recorded ratios.

    T0 is the last step index whose b-error ratio is missing or >= 1 (0 when
    contraction holds from the start); the kappas are the largest ratios over
    the post-T0 tail.  `valid` requires a finite tail estimate kappa_b < 1
    with no tail ratio of any kind reaching 1.
    """
    if len(traj) < 5:
        raise InsufficientData(f"need >= 5 records to estimate contraction, got {len(traj)}")
    records = traj.records
    bad = [r.t for r in records[1:] if r.ratio_b is None or not r.ratio_b < 1.0]
    T0 = max(bad) if bad else 0
    tail = [r for r in records if r.t > T0]

    def tail_max(field: str) -> float:
        vals = [getattr(r, field) for r in tail]
        vals = [v for v in vals if v is not None]
        return max(vals) if vals else float("nan")

    kappa_a = tail_max("ratio_a")
    kappa_b = tail_max("ratio_b")
    kappa_sin = tail_max("ratio_sin")
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
