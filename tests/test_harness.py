"""Sample-vs-population harness tests: rate fitting, contraction estimation
on synthetic trajectories, the pipelined ladder, and the concentration check."""

import math
import threading

import numpy as np
import pytest

from emlab import harness
from emlab import (
    ABState,
    ConsistencyResult,
    Dataset,
    DegenerateWeights,
    InsufficientData,
    MixtureModel,
    PopStepRecord,
    StopRule,
    Trajectory,
    concentration_check,
    consistency_ladder,
    contraction_estimate,
    coupled_run,
    rate_fit,
    run,
    run_sample,
    sample_mixture,
)

MODEL = MixtureModel(2, [1.0, 0.0])
INIT = ABState([0.1, 0.0], [0.4, 0.2])


def _result(n_ladder, final_error):
    return ConsistencyResult(
        n_ladder=tuple(n_ladder),
        sup_discrepancy=tuple(final_error),
        final_error=tuple(final_error),
        slope=float("nan"),
        trials=1,
        seeds=(0,),
    )


def _toy_trajectory(ratio_bs, ratio_a=0.5, ratio_sin=0.5):
    """Hand-built records with prescribed per-step ratios."""
    state = ABState([0.0], [1.0])
    records = []
    for t, rb in enumerate(ratio_bs):
        first = t == 0
        records.append(
            PopStepRecord(
                t=t,
                state=state,
                p=0.5,
                beta=0.1,
                norm_a=0.5**t,
                dist_b=0.5**t,
                ratio_a=None if first else ratio_a,
                ratio_b=None if first else rb,
                ratio_sin=None if first else ratio_sin,
            )
        )
    return Trajectory(
        records=tuple(records),
        final_state=state,
        converged=True,
        target=np.array([1.0]),
    )


class TestRateFit:
    def test_exact_power_law(self):
        ladder = (100, 1_000, 10_000, 100_000)
        errors = [10.0 * n**-0.5 for n in ladder]
        assert rate_fit(_result(ladder, errors)) == pytest.approx(-0.5, abs=1e-12)

    def test_needs_four_points(self):
        with pytest.raises(InsufficientData):
            rate_fit(_result((10, 100, 1000), (1.0, 0.5, 0.25)))

    def test_rejects_vanishing_errors(self):
        with pytest.raises(InsufficientData):
            rate_fit(_result((10, 100, 1000, 10000), (1.0, 0.5, 0.0, 0.1)))

    def test_ladder_must_increase(self):
        """consistency_ladder checks its ladder on entry; the result it
        builds is then increasing by construction."""
        with pytest.raises(ValueError, match="strictly increasing"):
            consistency_ladder(INIT, MODEL, (100, 100, 1000, 10000), T=5, trials=1)


class TestContractionEstimate:
    def test_clean_contraction(self):
        est = contraction_estimate(_toy_trajectory([None, 0.5, 0.5, 0.5, 0.5, 0.5]))
        assert est.valid
        assert est.T0 == 0
        assert est.kappa_b == 0.5
        assert est.kappa_a == 0.5
        assert est.kappa_sin == 0.5

    def test_burn_in_spike_moves_T0(self):
        """One ratio >= 1 at t=2 pushes the fitting window past it."""
        est = contraction_estimate(_toy_trajectory([None, 0.5, 1.2, 0.5, 0.4, 0.5]))
        assert est.T0 == 2
        assert est.valid
        assert est.kappa_b == 0.5

    def test_divergent_tail_is_invalid(self):
        est = contraction_estimate(_toy_trajectory([None, 1.1, 1.2, 1.1, 1.3, 1.5]))
        assert not est.valid
        assert math.isnan(est.kappa_b)

    def test_noncontracting_midpoint_invalidates(self):
        est = contraction_estimate(
            _toy_trajectory([None, 0.5, 0.5, 0.5, 0.5, 0.5], ratio_a=1.5)
        )
        assert not est.valid
        assert est.kappa_a == 1.5

    def test_needs_five_records(self):
        with pytest.raises(InsufficientData):
            contraction_estimate(_toy_trajectory([None, 0.5, 0.5]))

    def test_on_a_real_run(self):
        traj = run(INIT, MODEL, StopRule(max_iters=500, step_tol=1e-8))
        est = contraction_estimate(traj)
        assert est.valid
        assert 0.0 < est.kappa_b < 1.0


class TestCoupledRun:
    def test_deterministic_and_seed_sensitive(self):
        first = coupled_run(INIT, MODEL, 2000, 8, 5)
        again = coupled_run(INIT, MODEL, 2000, 8, 5)
        other = coupled_run(INIT, MODEL, 2000, 8, 6)
        assert first[2] == again[2]
        assert first[2] != other[2]

    def test_exact_step_budget(self):
        sample_traj, pop_traj, sup = coupled_run(INIT, MODEL, 2000, 8, 5)
        # T steps plus the appended final record on both sides
        assert len(sample_traj.records) == 9
        assert len(pop_traj.records) == 9
        assert sup >= 0.0

    def test_population_side_takes_every_step(self):
        """Criterion 9's start reaches an exact floating-point fixed point of
        the population map before T = 50; the coupled run must still record
        all T steps on both sides, so the sup covers t = 0..T."""
        init = ABState([0.1, 0.05], [0.6, 0.3])
        sample_traj, pop_traj, _ = coupled_run(init, MODEL, 100_000, 50, 0)
        assert len(pop_traj.records) == 51 and not pop_traj.converged
        assert len(sample_traj.records) == 51 and not sample_traj.converged

    def test_sup_dominates_every_step(self):
        sample_traj, pop_traj, sup = coupled_run(INIT, MODEL, 2000, 8, 5)
        for rs, rp in zip(sample_traj.records, pop_traj.records):
            gap = math.hypot(
                float(np.linalg.norm(rs.state.a - rp.state.a)),
                float(np.linalg.norm(rs.state.b - rp.state.b)),
            )
            assert gap <= sup


class TestConsistencyLadder:
    def test_small_ladder_structure(self):
        result = consistency_ladder(INIT, MODEL, (200, 400), T=5, trials=3, seed=1)
        assert result.n_ladder == (200, 400)
        assert len(result.sup_discrepancy) == 2
        assert len(result.final_error) == 2
        assert all(v > 0.0 for v in result.sup_discrepancy)
        assert result.seeds == (0, 1, 2)
        assert math.isnan(result.slope)  # needs >= 4 rungs for a rate

    @pytest.mark.parametrize("n_ladder, trials, match", [
        ((100_000, 1000), 5, "strictly increasing"),
        ((200, 400), 0, "trials"),
    ])
    def test_bad_inputs_raise_before_any_work(self, monkeypatch, n_ladder, trials, match):
        calls = []
        monkeypatch.setattr(harness, "sample_mixture", lambda *a: calls.append("draw"))
        monkeypatch.setattr(harness, "run", lambda *a: calls.append("run"))
        with pytest.raises(ValueError, match=match):
            consistency_ladder(INIT, MODEL, n_ladder, T=5, trials=trials)
        assert calls == []

    def test_pipelined_ladder_equals_the_serial_loop(self):
        """Drawing trial k+1 while trial k runs changes no bit of the result."""
        ladder, T, trials, seed = (200, 400, 800, 1600), 6, 5, 4
        threads = threading.active_count()
        result = consistency_ladder(INIT, MODEL, ladder, T=T, trials=trials, seed=seed)
        assert threading.active_count() == threads

        stop = StopRule(max_iters=T, step_tol=0.0)
        pop_traj = run(INIT, MODEL, stop)
        sups, finals = [], []
        for n in ladder:
            sup_n, fin_n = [], []
            for k in range(trials):
                straj = run_sample(INIT, sample_mixture(MODEL, n, [seed, k]), stop)
                sup_n.append(harness._sup_discrepancy(straj, pop_traj))
                fin_n.append(float(np.linalg.norm(straj.final_state.b - straj.target)))
            sups.append(float(np.median(sup_n)))
            finals.append(float(np.median(fin_n)))
        assert result.sup_discrepancy == tuple(sups)
        assert result.final_error == tuple(finals)
        assert result.slope == harness.rate_fit(result)

    def test_a_failing_trial_surfaces_with_its_type(self, monkeypatch):
        """Trial k = 1 of the second rung gets data far out along b, so its
        weights saturate and its first step raises DegenerateWeights."""
        draws = []

        def draw(model, n, seed):
            draws.append(seed)
            if len(draws) == 6:
                return Dataset(np.full((n, 2), 40.0), seed, model)
            return sample_mixture(model, n, seed)

        monkeypatch.setattr(harness, "sample_mixture", draw)
        threads = threading.active_count()
        with pytest.raises(DegenerateWeights):
            consistency_ladder(INIT, MODEL, (200, 400, 800), T=5, trials=4, seed=1)
        assert threading.active_count() == threads
        # the failure surfaces while the next trial's data is drawn, and no later
        assert len(draws) == 7


class TestConcentration:
    def test_violations_are_rare_at_the_stated_radius(self):
        rate = concentration_check(MixtureModel(1, [0.5]), 1000, 0.1, 100, seed=3)
        assert rate <= 0.02

    def test_deflated_radius_is_violated_often(self):
        rate = concentration_check(
            MixtureModel(1, [0.5]), 1000, 0.1, 100, seed=3, factor=0.05
        )
        assert rate >= 0.5

    def test_validation(self):
        with pytest.raises(InsufficientData):
            concentration_check(MODEL, 1000, 0.1, 99)
        with pytest.raises(ValueError):
            concentration_check(MODEL, 1000, 1.5, 100)
