"""Seeded operation lists for the three benchmark workloads.

Every operation is one ``emlab`` CLI invocation on a JSON config made here
from the workload seed.  The seed moves every value in the configs, while
the operation count, the op sizes (budgets, sample sizes, grid shapes) and
the ranges values are drawn from stay fixed: sizes stratified across each
range keep the mix of work, and so the figures, comparable between seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# population: free-means runs per round, and locked-means runs per slice
FREE_RUNS = 24
LOCKED_RUNS = 6
ORTHOGONAL_BUDGET = 150
# exactly 0.0 is the only step size at or below this, so a run uses its whole
# budget unless it lands on an exact floating-point fixed point (which the
# norm, shrinking strictly on the orthogonal slice, never does)
NEVER_TOL = 1e-300

# sample: run_sample calls at n <= SMALL_N make the traced "small" bucket and
# those at n >= LARGE_N (the d = 8 ladder's top rung and SINGLE) the "large" one
SMALL_N = 10_000
LARGE_N = 1_000_000
# (d, n_ladder, trials) per consistency ladder, and (d, n) per ab/mu pair
LADDERS = (
    (2, [1000, 3162, SMALL_N, 31623, 100000], 40),
    (8, [1000, SMALL_N, 100000, LARGE_N], 3),
)
LADDER_T = 15
PAIRS = ((2, 100000), (8, 10000))
PAIR_BUDGET = 15
# one more ab-form run, at d = 2 past L2; it also makes the op count odd, so
# the median op is the same op on every seed (the mu form of the d = 2 pair)
SINGLE = (2, LARGE_N)

# grid: kernel tables and landscape slices per round, and their shapes
TABLES = 2
TABLE_COUNT = 8
SLICE_DIMS = (1, 1, None)  # None: a dimension drawn from 2..8
SLICE_STEPS = 21

# Two configs from the large-separation regime, independent of the seed.  The
# 512/1024-node Gauss-Hermite rule fails its N/2N self-check on both, so each
# ends in NonConvergence on every run.
FAILING = (
    ("fail-near-lobe", {"theta_star": [4.0, 0.0]}, {"a": [3.5, 0.0], "b": [4.0, 0.0]}),
    ("fail-wide-init", {"theta_star": [2.0, 0.0]}, {"a": [0.0, 0.0], "b": [6.0, 0.0]}),
)


@dataclass(frozen=True)
class Op:
    """One CLI call: ``kind`` selects its check and its unit of work."""

    name: str
    command: str
    kind: str
    config: dict
    ref: str | None = None  # op whose artifacts the check compares against
    seed: int = 0  # picks the cells a check spot-tests


def _floats(vec) -> list[float]:
    return [float(v) for v in vec]


def _unit(rng, d: int) -> np.ndarray:
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _stratified(rng, i: int, count: int, lo: float, hi: float) -> float:
    """A value from the i-th of ``count`` equal strata of [lo, hi]."""
    return lo + (hi - lo) * (i + rng.random()) / count


def _aligned(rng, theta: np.ndarray, min_cos: float) -> np.ndarray:
    """A unit vector whose |cos| with theta is at least ``min_cos``."""
    axis = theta / np.linalg.norm(theta)
    while True:
        u = _unit(rng, theta.size)
        if abs(float(u @ axis)) >= min_cos:
            return u


def population(seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    ops = []
    for i in range(FREE_RUNS):
        d = 1 + i % 8
        theta = _stratified(rng, i, FREE_RUNS, 0.25, 2.5) * _unit(rng, d)
        b = rng.uniform(0.2, 2.0) * _aligned(rng, theta, 0.2)
        a = rng.uniform(0.0, 0.5) * _unit(rng, d)
        ops.append(Op(f"free-{i:02d}", "run-population", "free", {
            "model": {"d": d, "theta_star": _floats(theta)},
            "family": "free",
            "init": {"a": _floats(a), "b": _floats(b)},
            "stop": {"max_iters": 10000, "step_tol": 1e-10},
        }))
    for i in range(LOCKED_RUNS):
        d = 1 + (3 * i) % 8
        theta = _stratified(rng, i, LOCKED_RUNS, 0.5, 2.5) * _unit(rng, d)
        theta0 = rng.uniform(0.3, 2.0) * _aligned(rng, theta, 0.3)
        ops.append(Op(f"locked-{i:02d}", "run-population", "locked", {
            "model": {"d": d, "theta_star": _floats(theta)},
            "family": "symmetric",
            "init": {"theta": _floats(theta0)},
            "stop": {"max_iters": 1000, "step_tol": 1e-10},
        }))
    for i in range(LOCKED_RUNS):
        # theta* and theta_0 live on complementary coordinate sets, so their
        # inner product is exactly 0.0 and EM must keep it so
        d = 2 + i % 7
        k = int(rng.integers(1, d))
        coords = rng.permutation(d)
        theta = np.zeros(d)
        theta[coords[:k]] = _stratified(rng, i, LOCKED_RUNS, 0.5, 2.5) * _unit(rng, k)
        theta0 = np.zeros(d)
        theta0[coords[k:]] = rng.uniform(0.3, 1.2) * _unit(rng, d - k)
        ops.append(Op(f"orthogonal-{i:02d}", "run-population", "orthogonal", {
            "model": {"d": d, "theta_star": _floats(theta)},
            "family": "symmetric",
            "init": {"theta": _floats(theta0)},
            "stop": {"max_iters": ORTHOGONAL_BUDGET, "step_tol": NEVER_TOL},
        }))
    for name, model, init in FAILING:
        ops.append(Op(name, "run-population", "free", {
            "model": dict(model, d=2),
            "family": "free",
            "init": init,
            "stop": {"max_iters": 10000, "step_tol": 1e-10},
        }))
    return ops


def _sample_start(rng, d: int, lo: float, hi: float):
    theta = rng.uniform(lo, hi) * _unit(rng, d)
    b = rng.uniform(0.5, 0.9) * theta + 0.2 * np.linalg.norm(theta) / np.sqrt(d) * (
        rng.standard_normal(d)
    )
    a = 0.1 * _unit(rng, d)
    return theta, a, b


def _run_config(rng, d: int, n: int, seed: int) -> dict:
    theta, a, b = _sample_start(rng, d, 1.0, 1.5)
    return {
        "model": {"d": d, "theta_star": _floats(theta)},
        "init": {"a": _floats(a), "b": _floats(b)},
        "stop": {"max_iters": PAIR_BUDGET, "step_tol": NEVER_TOL},
        "n": n,
        "seed": seed,
        "form": "ab",
    }


def sample(seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 2])
    ops = []
    for d, ladder, trials in LADDERS:
        theta, a, b = _sample_start(rng, d, 1.5, 2.5)
        ops.append(Op(f"ladder-d{d}", "consistency", "ladder", {
            "model": {"d": d, "theta_star": _floats(theta)},
            "init": {"a": _floats(a), "b": _floats(b)},
            "n_ladder": ladder,
            "T": LADDER_T,
            "trials": trials,
            "seed": seed,
        }))
    for d, n in PAIRS:
        config = _run_config(rng, d, n, seed)
        ops.append(Op(f"pair-d{d}-ab", "run-sample", "sample", config))
        ops.append(Op(f"pair-d{d}-mu", "run-sample", "pair", dict(config, form="mu"),
                      ref=f"pair-d{d}-ab"))
    ops.append(Op(f"single-d{SINGLE[0]}", "run-sample", "sample",
                  _run_config(rng, *SINGLE, seed)))
    return ops


def grid(seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 3])
    ops = []
    for i in range(TABLES):
        axes = {
            "x_a": {"lo": 0.0, "hi": rng.uniform(1.0, 3.0), "count": TABLE_COUNT},
            "x_b": {"lo": 0.0, "hi": rng.uniform(1.5, 3.0), "count": TABLE_COUNT},
            "x_theta": {"lo": 0.0, "hi": rng.uniform(1.0, 3.0), "count": TABLE_COUNT},
        }
        ops.append(Op(f"table-{i}", "kernels", "kernels", {"grid": axes},
                      seed=int(rng.integers(2**31))))
    for i, d in enumerate(SLICE_DIMS):
        d = d or int(rng.integers(2, 9))
        theta = rng.uniform(0.5, 2.5) * _unit(rng, d)
        a_hi = rng.uniform(0.5, 1.5)
        b_hi = rng.uniform(1.0, 2.5)
        ops.append(Op(f"slice-{i}-d{d}", "landscape", "landscape", {
            "model": {"d": d, "theta_star": _floats(theta)},
            "slice": {
                "a_lo": -a_hi, "a_hi": a_hi, "a_steps": SLICE_STEPS,
                "b_lo": -b_hi, "b_hi": b_hi, "b_steps": SLICE_STEPS,
            },
        }, seed=int(rng.integers(2**31))))
    return ops


WORKLOADS = {"population": population, "sample": sample, "grid": grid}
