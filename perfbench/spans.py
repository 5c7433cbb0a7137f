"""Spans and counts at emlab's layer boundaries, recorded from outside.

``install`` replaces, in the namespace of the calling layer, each public
function one layer calls in the next, with a wrapper that records a span:
its duration, the time covered by the spans opened inside it (children),
and counts read from its arguments and result.  A layer's self time is its
span time minus its children's.  The totals stay in memory; ``metrics`` turns
them into the per-layer figures at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from time import perf_counter

from emlab.errors import NonConvergence
from workloads import LARGE_N, SMALL_N

# op kind -> the count that tallies its unit of work at the layer boundary; a
# traced run compares it, op by op, with the units read from the artifacts
WORK_COUNTS = {
    "free": "population.steps",
    "locked": "population.steps",
    "orthogonal": "population.steps",
    "ladder": "sampling.point_steps",
    "sample": "sampling.point_steps",
    "pair": "sampling.point_steps",
    "kernels": "kernels.tabulate_cells",
    "landscape": "landscape.cells",
}


def _run_steps(traj) -> int:
    return len(traj.records) if traj.converged else len(traj.records) - 1


class Tracer:
    def __init__(self) -> None:
        self.open: list[float] = []  # child time accumulated by each open span
        self.layers: dict[str, list] = {}  # layer -> [seconds, self seconds, calls]
        self.nodes = [0]  # integrand points evaluated
        self.counts = Counter()

    def layer(self, name: str) -> tuple[float, float, int]:
        return tuple(self.layers.get(name, (0.0, 0.0, 0)))

    def wrap(self, layer: str, fn, tally=None):
        """``fn`` recording a ``layer`` span; ``tally(result, args, seconds)``
        adds counts after a call that returns."""
        stats = self.layers.setdefault(layer, [0.0, 0.0, 0])
        stack = self.open

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                stats[0] += dt
                stats[1] += dt - child
                stats[2] += 1
            if tally is not None:
                tally(result, args, dt)
            return result

        return wrapped

    def wrap_integral(self, fn):
        """A quadrature span that also counts the integrand's points and the
        NonConvergence the rule raises."""
        span = self.wrap("quadrature", fn)
        nodes = self.nodes

        @functools.wraps(fn)
        def wrapped(f, *args, **kwargs):
            def counted(y):
                nodes[0] += y.size
                return f(y)

            try:
                return span(counted, *args, **kwargs)
            except NonConvergence:
                self.counts["quadrature.nonconvergence"] += 1
                raise

        return wrapped

    # ---------------------------------------------------------------- tallies

    def _population_steps(self, traj, args, dt):
        self.counts["population.steps"] += _run_steps(traj)

    def _model1_steps(self, iterates, args, dt):
        self.counts["population.steps"] += len(iterates) - 1

    def _sample_steps(self, traj, args, dt):
        n, steps = args[1].n, _run_steps(traj)
        self.counts["sampling.steps"] += steps
        self.counts["sampling.point_steps"] += n * steps
        for bucket, hit in (("small", n <= SMALL_N), ("large", n >= LARGE_N)):
            if hit:
                self.counts[f"sampling.point_steps.{bucket}"] += n * steps
                self.counts[f"sampling.seconds.{bucket}"] += dt

    def _draw_values(self, data, args, dt):
        self.counts["sampling.values"] += data.data.size

    def _table_cells(self, rows, args, dt):
        self.counts["kernels.tabulate_cells"] += len(rows)

    def _loglik_cells(self, value, args, dt):
        self.counts["landscape.cells"] += 1


# (module, name, layer, tally method or None); the module is the caller's
_SPANS = [
    ("emlab.cli", "run", "population", "_population_steps"),
    ("emlab.cli", "run_model1", "population", "_model1_steps"),
    ("emlab.harness", "run", "population", "_population_steps"),
    ("emlab.cli", "run_sample", "sampling.run", "_sample_steps"),
    ("emlab.harness", "run_sample", "sampling.run", "_sample_steps"),
    ("emlab.cli", "sample_mixture", "sampling.draw", "_draw_values"),
    ("emlab.harness", "sample_mixture", "sampling.draw", "_draw_values"),
    ("emlab.cli", "consistency_ladder", "harness", None),
    ("emlab.cli", "tabulate", "kernels.tabulate", "_table_cells"),
    ("emlab.cli", "expected_loglik", "landscape", "_loglik_cells"),
    ("emlab.population", "planar_reduce", "geometry", None),
    ("emlab.landscape", "planar_reduce", "geometry", None),
]
# population's kernel calls form their own layer, so they can be counted per step
_SPANS += [("emlab.population", f"kernel_{k}", "kernels.population", None)
           for k in ("p", "gamma", "s", "f")]
_SPANS += [("emlab.kernels", f"kernel_{k}", "kernels", None) for k in ("p", "gamma", "s", "f", "k")]
_INTEGRALS = [("emlab.kernels", f"integrate_against_{k}")
              for k in ("gaussian", "mixture", "mixture_diff")]
_INTEGRALS += [("emlab.landscape", "integrate_against_mixture")]


def install(tracer: Tracer):
    """Wrap every boundary in ``_SPANS`` and ``_INTEGRALS``; returns a function
    that puts the originals back."""
    saved = []
    for module, name, layer, tally in _SPANS:
        mod = importlib.import_module(module)
        saved.append((mod, name, getattr(mod, name)))
        hook = getattr(tracer, tally) if tally else None
        setattr(mod, name, tracer.wrap(layer, getattr(mod, name), hook))
    for module, name in _INTEGRALS:
        mod = importlib.import_module(module)
        saved.append((mod, name, getattr(mod, name)))
        setattr(mod, name, tracer.wrap_integral(getattr(mod, name)))

    def restore():
        for mod, name, original in reversed(saved):
            setattr(mod, name, original)

    return restore


def _per(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def metrics(tracer: Tracer, ops: int, rounds: int, artifact_bytes: int) -> dict[str, tuple]:
    """Per-layer figures: name -> (value, unit).  Counts are per round of the
    workload's operations; times are per op, call, step, cell or node."""
    n = tracer.counts
    cli, harness, landscape, population, geometry, tabulate, quadrature, draw = (
        tracer.layer(name) for name in ("cli", "harness", "landscape", "population",
                                        "geometry", "kernels.tabulate", "quadrature",
                                        "sampling.draw"))
    kernels = [a + b for a, b in zip(tracer.layer("kernels"), tracer.layer("kernels.population"))]
    steps = n["population.steps"]
    nodes = tracer.nodes[0]
    return {
        "cli.self_ms": (_per(cli[1], ops, 1e3), "ms"),
        "cli.artifact_kb": (_per(artifact_bytes, ops, 1e-3), "kB"),
        "harness.self_ms": (_per(harness[1], harness[2], 1e3), "ms"),
        "landscape.us_per_cell": (_per(landscape[0], landscape[2], 1e6), "us"),
        "population.steps": (_per(steps, rounds), "count"),
        "population.us_per_step": (_per(population[0], steps, 1e6), "us"),
        "population.self_us_per_step": (_per(population[1], steps, 1e6), "us"),
        "geometry.planar_reduce_calls": (_per(geometry[2], rounds), "count"),
        "geometry.planar_reduce_us": (_per(geometry[0], geometry[2], 1e6), "us"),
        "kernels.calls_per_step": (_per(tracer.layer("kernels.population")[2], steps), "count"),
        "kernels.us_per_call": (_per(kernels[0], kernels[2], 1e6), "us"),
        "kernels.tabulate_us_per_cell": (_per(tabulate[0], n["kernels.tabulate_cells"], 1e6), "us"),
        "quadrature.integrals": (_per(quadrature[2], rounds), "count"),
        "quadrature.nodes": (_per(nodes, rounds), "count"),
        "quadrature.ns_per_node": (_per(quadrature[0], nodes, 1e9), "ns"),
        "quadrature.nonconvergence": (_per(n["quadrature.nonconvergence"], rounds), "count"),
        "sampling.draw_ns_per_value": (_per(draw[0], n["sampling.values"], 1e9), "ns"),
        "sampling.steps": (_per(n["sampling.steps"], rounds), "count"),
        "sampling.ns_per_point_step.small": (
            _per(n["sampling.seconds.small"], n["sampling.point_steps.small"], 1e9), "ns"),
        "sampling.ns_per_point_step.large": (
            _per(n["sampling.seconds.large"], n["sampling.point_steps.large"], 1e9), "ns"),
    }
