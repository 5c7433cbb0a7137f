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
from emlab.geometry import state_distance
from emlab.population import record_dtype

NAN = math.nan
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


def _products(ratios):
    """1.0 followed by the running products of ``ratios``: a series whose
    per-step ratios are ``ratios``."""
    return np.cumprod([1.0, *ratios])


def _toy_trajectory(dist_b, norm_a=None, sin_beta=None):
    """A hand-built records table with the given diagnostic series; the
    a-norm and sine series halve at every step unless given."""
    n = len(dist_b)
    halving = 0.5 ** np.arange(n)
    records = np.zeros(n, dtype=record_dtype(1))
    records["t"] = np.arange(n)
    records["b"] = 1.0
    records["p"] = 0.5
    records["beta"] = 0.1
    records["dist_b"] = dist_b
    records["norm_a"] = halving if norm_a is None else norm_a
    records["sin_beta"] = halving if sin_beta is None else sin_beta
    return Trajectory(
        records=records,
        final_state=ABState([0.0], [1.0]),
        converged=True,
        target=np.array([1.0]),
    )


def _per_record_ratio(curr, prev):
    """The ratio rule stated record by record: nan unless both values are
    finite and the previous one is positive."""
    if not (math.isfinite(prev) and prev > 0.0 and math.isfinite(curr)):
        return math.nan
    return curr / prev


def _rule_estimate(records):
    """T0 and the kappas of ``contraction_estimate`` from the per-record
    rule, as (kappa_a, kappa_b, kappa_sin, T0)."""
    ratios = {}
    for field in ("norm_a", "dist_b", "sin_beta"):
        values = records[field].tolist()
        ratios[field] = [math.nan] + [_per_record_ratio(c, p) for p, c in zip(values, values[1:])]
    T0 = max([t for t, r in enumerate(ratios["dist_b"]) if t >= 1 and not r < 1.0], default=0)
    kappas = []
    for field in ("norm_a", "dist_b", "sin_beta"):
        tail = [r for r in ratios[field][T0 + 1:] if not math.isnan(r)]
        kappas.append(max(tail, default=math.nan))
    return (*kappas, T0)


def _same(x, y):
    """Equal as floats, nan equal to nan."""
    return x == y or (math.isnan(x) and math.isnan(y))


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
        est = contraction_estimate(_toy_trajectory(_products([0.5] * 5)))
        assert est.valid
        assert est.T0 == 0
        assert est.kappa_b == 0.5
        assert est.kappa_a == 0.5
        assert est.kappa_sin == 0.5

    def test_burn_in_spike_moves_T0(self):
        """One ratio >= 1 at t=2 pushes the fitting window past it."""
        est = contraction_estimate(_toy_trajectory(_products([0.5, 1.2, 0.5, 0.4, 0.5])))
        assert est.T0 == 2
        assert est.valid
        assert est.kappa_b == 0.5

    def test_missing_ratio_moves_T0(self):
        """A missing b-error ratio mid-run counts as bad: the b-error is
        exactly 0 at t = 2, so the ratio at t = 3 is nan."""
        est = contraction_estimate(_toy_trajectory([1.0, 0.5, 0.0, 0.5, 0.2, 0.1]))
        assert est.T0 == 3
        assert est.valid
        assert est.kappa_b == 0.5

    @pytest.mark.filterwarnings("error")
    def test_all_missing_sine_ratios_leave_kappa_sin_nan(self):
        """A tail without any sine ratio (beta undefined) gives kappa_sin
        nan, and the estimate stays valid on its b-error ratios."""
        est = contraction_estimate(_toy_trajectory(_products([0.5] * 5), sin_beta=[NAN] * 6))
        assert est.valid
        assert est.T0 == 0
        assert math.isnan(est.kappa_sin)
        assert est.kappa_b == 0.5

    def test_divergent_tail_is_invalid(self):
        est = contraction_estimate(_toy_trajectory(_products([1.1, 1.2, 1.1, 1.3, 1.5])))
        assert not est.valid
        assert math.isnan(est.kappa_b)

    def test_noncontracting_midpoint_invalidates(self):
        est = contraction_estimate(
            _toy_trajectory(_products([0.5] * 5), norm_a=_products([1.5] * 5))
        )
        assert not est.valid
        assert est.kappa_a == 1.5

    def test_needs_five_records(self):
        with pytest.raises(InsufficientData):
            contraction_estimate(_toy_trajectory(_products([0.5, 0.5])))

    def test_on_a_real_run(self):
        traj = run(INIT, MODEL, StopRule(max_iters=500, step_tol=1e-8))
        est = contraction_estimate(traj)
        assert est.valid
        assert 0.0 < est.kappa_b < 1.0

    @staticmethod
    def _check_rule(traj):
        est = contraction_estimate(traj)
        expected = _rule_estimate(traj.records)
        assert all(_same(x, y) for x, y in zip(est[:3], expected[:3])), (est, expected)
        assert est.T0 == expected[3]
        return est

    @pytest.mark.parametrize("d", range(1, 9))
    def test_kappas_are_tail_maxima_of_the_per_record_rule(self, d):
        """On the population run and both sample forms of a random start,
        T0 and the kappas are those of the ratio rule stated record by
        record, bit for bit."""
        # |theta*| = 1.5 and |b_0| = 1 keep x_b inside the range where the
        # default 512/1024-node rule passes its self-check; larger x_b fails it
        rng = np.random.default_rng(100 + d)
        direction = rng.normal(size=(2, d))
        direction /= np.linalg.norm(direction, axis=1)[:, None]
        model = MixtureModel(d, 1.5 * direction[0])
        init = ABState(0.3 * rng.normal(size=d), direction[1])
        self._check_rule(run(init, model, StopRule(25, 1e-12)))
        data = sample_mixture(model, 400, seed=d)
        for form in ("ab", "mu"):
            self._check_rule(run_sample(init, data, StopRule(25, 1e-12), form))

    def test_zero_theta_star_has_no_sine_ratio(self):
        """With theta* = 0 no row has an angle, so every sine ratio is
        missing and kappa_sin is nan while b still contracts to 0."""
        traj = run(ABState([0.1, 0.0], [0.4, 0.3]), MixtureModel(2, [0.0, 0.0]),
                   StopRule(10, 0.0))
        est = self._check_rule(traj)
        assert est.T0 == 0 and est.valid
        assert math.isnan(est.kappa_sin)

    @pytest.mark.filterwarnings("error")
    def test_zero_separation_has_no_ratio(self):
        """From b = 0 (absorbing) the b-error stays 0 and no row has an
        angle, so every b-error and sine ratio is missing: T0 is the last
        row, no tail is left, and no warning is raised on the way."""
        traj = run(ABState([0.4, 0.1], [0.0, 0.0]), MODEL, StopRule(6, 0.0))
        assert np.all(traj.records["dist_b"] == 0.0)
        assert np.all(np.isnan(traj.records["sin_beta"]))
        est = self._check_rule(traj)
        assert est.T0 == 6 and not est.valid
        assert all(math.isnan(k) for k in (est.kappa_a, est.kappa_b, est.kappa_sin))


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
        rs, rp = sample_traj.records, pop_traj.records
        gaps = [
            state_distance(ABState(rs["a"][t], rs["b"][t]), ABState(rp["a"][t], rp["b"][t]))
            for t in range(len(rs))
        ]
        # sup comes from one row-norm pass, which may round the last bit
        # differently from the one-state distance
        assert sup == pytest.approx(max(gaps), rel=1e-15, abs=0.0)
        assert all(gap <= sup * (1.0 + 1e-15) for gap in gaps)


class TestConsistencyLadder:
    def test_small_ladder_structure(self):
        result = consistency_ladder(INIT, MODEL, (200, 400), T=5, trials=3, seed=1)
        assert result.n_ladder == (200, 400)
        assert len(result.sup_discrepancy) == 2
        assert len(result.final_error) == 2
        assert all(v > 0.0 for v in result.sup_discrepancy)
        assert result.seeds == (0, 1, 2)
        assert math.isnan(result.slope)  # needs >= 4 rungs for a rate

    @pytest.mark.parametrize("theta_star", [[0.0, 0.0], [1.0, 0.0]])
    def test_zero_final_errors_have_no_rate(self, theta_star):
        """From b = 0 every sample run stays at b = 0, its own fixed point, so
        each median final error is exactly 0 and rate_fit finds no rate: the
        slope is nan, as for a ladder of fewer than 4 rungs."""
        start = ABState([0.0, 0.0], [0.0, 0.0])
        model = MixtureModel(2, theta_star)
        result = consistency_ladder(start, model, (10, 20, 30, 40), T=2, trials=1)
        assert result.final_error == (0.0,) * 4
        assert math.isnan(result.slope)

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

    @pytest.mark.parametrize("model, init, ladder, trials", [
        (MODEL, INIT, (200, 400, 800, 1600), 5),
        # d = 8: the last rung's 70 001 x 8 draw is past the 4 MB switch to a
        # memory-mapped buffer, drawn and freed on a worker thread
        (MixtureModel(8, [0.5] * 8), ABState([0.1] + [0.0] * 7, [0.4, 0.2] + [0.0] * 6),
         (200, 400, 800, 70_001), 3),
    ], ids=["d2", "d8-mapped"])
    def test_pipelined_ladder_equals_the_serial_loop(self, model, init, ladder, trials):
        """Running two trials at once, each drawing its own data on a worker
        thread, changes no bit of the result."""
        T, seed = 6, 4
        threads = threading.active_count()
        result = consistency_ladder(init, model, ladder, T=T, trials=trials, seed=seed)
        assert threading.active_count() == threads

        stop = StopRule(max_iters=T, step_tol=0.0)
        pop_traj = run(init, model, stop)
        sups, finals = [], []
        for n in ladder:
            sup_n, fin_n = [], []
            for k in range(trials):
                straj = run_sample(init, sample_mixture(model, n, [seed, k]), stop)
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
