"""The benchmark tracer (perfbench/spans.py) wraps emlab functions by module
and name, so every name it wraps must stay importable from that module, and
``restore`` must put each original back.  Its step tallies read the
``Trajectory`` a run returns, so they must count what the CLI summary counts."""

import importlib
import sys
from pathlib import Path

import pytest

from emlab import ABState, MixtureModel, StopRule, run, run_sample, sample_mixture
from emlab.cli import _trajectory_summary

_PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
if _PERFBENCH not in sys.path:
    sys.path.insert(0, _PERFBENCH)

import spans  # noqa: E402


def _boundaries():
    return [(module, name) for module, name, *_ in spans._SPANS] + list(spans._INTEGRALS)


def _lookup(module, name):
    return getattr(importlib.import_module(module), name)


def test_install_wraps_every_name_and_restore_puts_each_back():
    originals = {key: _lookup(*key) for key in _boundaries()}
    restore = spans.install(spans.Tracer())
    try:
        wrapped = [key for key, fn in originals.items() if _lookup(*key) is not fn]
    finally:
        restore()
    assert wrapped == list(originals)
    assert all(_lookup(*key) is fn for key, fn in originals.items())


@pytest.mark.parametrize("stop", [StopRule(200, 1e-10), StopRule(6, 0.0)])
def test_step_tallies_match_the_summary_step_count(stop):
    model = MixtureModel(2, [1.0, 0.3])
    init = ABState([0.1, 0.0], [0.4, 0.1])
    data = sample_mixture(model, 500, 3)
    traj, straj = run(init, model, stop), run_sample(init, data, stop)
    steps, sample_steps = (_trajectory_summary(t)["steps"] for t in (traj, straj))
    if stop.step_tol == 0.0:
        assert steps == sample_steps == stop.max_iters
    else:
        assert traj.converged and 0 < steps < stop.max_iters
    tracer = spans.Tracer()
    tracer._population_steps(traj, (init, model, stop), 0.0)
    tracer._sample_steps(straj, (init, data, stop), 0.0)
    assert spans._run_steps(traj) == steps
    assert tracer.counts["population.steps"] == steps
    assert tracer.counts["sampling.steps"] == sample_steps
    assert tracer.counts["sampling.point_steps"] == data.n * sample_steps
