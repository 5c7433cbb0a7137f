"""Population-update tests: fixed points, invariants of the trajectory
recorder, and the a-priori envelope constants."""

import math

import numpy as np
import pytest
from scipy import integrate

from emlab import (
    ABState,
    DimensionMismatch,
    MixtureModel,
    StopRule,
    a_priori_bounds,
    model1_step,
    model2_step,
    planar_reduce,
    posterior_mass,
    run,
    run_model1,
    run_sample,
    sample_mixture,
)
from emlab import population

MODEL = MixtureModel(2, [1.0, 0.3])


class TestStepStructure:
    def test_centered_state_keeps_midpoint_at_zero(self):
        """From a = 0 the midpoint update is exactly zero and the separation
        update coincides bitwise with the locked-means map."""
        state = ABState([0.0, 0.0], [0.6, -0.2])
        new, p = model2_step(state, MODEL)
        assert np.all(new.a == 0.0)
        assert p == 0.5
        np.testing.assert_array_equal(new.b, model1_step(np.array([0.6, -0.2]), MODEL))

    def test_zero_separation_is_absorbing(self):
        new, p = model2_step(ABState([0.4, 0.1], [0.0, 0.0]), MODEL)
        assert np.all(new.a == 0.0)
        assert np.all(new.b == 0.0)
        assert p == 0.5

    def test_sign_flip_equivariance(self):
        """Negating b negates the b-update and leaves the a-update alone."""
        plus, _ = model2_step(ABState([0.2, -0.1], [0.6, 0.4]), MODEL)
        minus, _ = model2_step(ABState([0.2, -0.1], [-0.6, -0.4]), MODEL)
        np.testing.assert_allclose(minus.a, plus.a, atol=1e-14)
        np.testing.assert_allclose(minus.b, -plus.b, atol=1e-14)

    def test_posterior_mass_sign(self):
        """sgn(1/2 - p) follows sgn<a, b>."""
        assert posterior_mass(ABState([0.3, 0.1], [0.5, 0.2]), MODEL) < 0.5
        assert posterior_mass(ABState([-0.3, 0.1], [0.5, 0.2]), MODEL) > 0.5
        assert posterior_mass(ABState([0.0, 0.0], [0.5, 0.2]), MODEL) == 0.5

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            model2_step(ABState([0.1], [0.2]), MODEL)

    @pytest.mark.parametrize("case", [f"d{d}" for d in range(1, 9)]
                             + ["zero-b", "off-plane-a", "orthogonal-slice"])
    def test_one_step_is_a_one_step_run(self, case):
        """model2_step is bit for bit row 1 of a one-step run from the same
        state, and its p is that run's row-0 p."""
        if case.startswith("d"):
            d = int(case[1:])
            rng = np.random.default_rng(200 + d)
            model = MixtureModel(d, 1.5 * rng.normal(size=d) / math.sqrt(d))
            state = ABState(0.3 * rng.normal(size=d), rng.normal(size=d) / math.sqrt(d))
        else:
            model = MixtureModel(3, [1.2, 0.0, 0.0])
            state = {
                "zero-b": ABState([0.4, 0.1, -0.3], [0.0, 0.0, 0.0]),
                "off-plane-a": ABState([0.1, 0.2, 0.5], [0.8, 0.3, 0.0]),
                "orthogonal-slice": ABState([0.3, 0.1, -0.2], [0.0, 0.5, 0.4]),
            }[case]
        new, p = model2_step(state, model)
        rows = run(state, model, StopRule(1, 0.0)).records
        np.testing.assert_array_equal(new.a, rows["a"][1])
        np.testing.assert_array_equal(new.b, rows["b"][1])
        np.testing.assert_array_equal(p, rows["p"][0])

    @pytest.mark.parametrize("norm", [1.0, 0.05, 1e-4])
    def test_orthogonal_step_is_stein_contraction(self, norm):
        """For theta orthogonal to theta_star the locked-means step is
        theta * (1 - E[tanh^2(|theta| g)]), g ~ N(0, 1): the identity behind
        the orthogonal-start decay law of acceptance criterion 4."""
        model = MixtureModel(3, [1.0, 0.0, 0.0])
        unit = np.array([0.0, 0.6, -0.8])
        new = model1_step(norm * unit, model)
        assert float(new @ model.theta_star) == 0.0
        along = float(new @ unit)
        assert along > 0.0
        assert np.linalg.norm(new - along * unit) <= 1e-15 * along
        half, _ = integrate.quad(
            lambda g: math.tanh(norm * g) ** 2 * math.exp(-0.5 * g * g),
            0.0,
            math.inf,
            epsabs=1e-15,
            epsrel=1e-13,
        )
        factor = 1.0 - 2.0 * half / math.sqrt(2.0 * math.pi)
        assert abs(np.linalg.norm(new) / norm - factor) <= 1e-13


class TestRun:
    def test_fixed_point_init_yields_single_record(self):
        traj = run(ABState([0.0, 0.0], MODEL.theta_star.copy()), MODEL)
        assert traj.converged
        assert len(traj.records) == 1
        assert traj.records["t"][0] == 0
        assert np.linalg.norm(traj.final_state.b - MODEL.theta_star) <= 1e-10

    def test_budget_exhaustion_appends_final_record(self):
        stop = StopRule(max_iters=3, step_tol=1e-300)
        traj = run(ABState([0.1, 0.0], [0.4, 0.1]), MODEL, stop)
        assert not traj.converged
        assert traj.records["t"].tolist() == [0, 1, 2, 3]
        np.testing.assert_array_equal(traj.records["a"][-1], traj.final_state.a)
        np.testing.assert_array_equal(traj.records["b"][-1], traj.final_state.b)

    def test_converges_to_signed_target(self):
        """A negatively aligned start converges to -theta_star."""
        traj = run(ABState([0.05, 0.0], [-0.5, -0.1]), MODEL, StopRule(2000, 1e-11))
        assert traj.converged
        np.testing.assert_array_equal(traj.target, -MODEL.theta_star)
        assert np.linalg.norm(traj.final_state.b + MODEL.theta_star) <= 1e-8
        assert np.linalg.norm(traj.final_state.a) <= 1e-8

    def test_angle_shrinks_monotonically(self):
        """sin beta decreases along the trajectory and resolves well below
        the 1e-8 plateau a cancellation-prone angle computation would show."""
        model = MixtureModel(2, [1.0, 0.0])
        traj = run(ABState([0.05, 0.02], [0.4, 0.3]), model, StopRule(2000, 1e-12))
        sins = traj.records["sin_beta"]
        assert np.all(np.diff(sins) <= 1e-12)
        assert sins[-1] <= 1e-9

    def test_near_collinear_tail_reaches_rounding_level(self):
        """Nothing freezes the direction of b once it is nearly collinear
        with theta*: both the b-error and sin beta fall to rounding level,
        not to a ~1e-12 plateau."""
        traj = run(ABState([0.1, 0.0], [0.4, 0.1]), MODEL, StopRule(200, 0.0))
        last = traj.records[-1]
        assert np.linalg.norm(traj.final_state.b - MODEL.theta_star) <= 1e-13
        assert last["dist_b"] <= 1e-13
        assert last["sin_beta"] <= 1e-13

    def test_iterates_stay_in_initial_span(self):
        model = MixtureModel(4, [1.0, 0.5, 0.0, 0.0])
        b0 = np.array([0.2, 0.1, 0.7, 0.0])
        basis, _ = np.linalg.qr(np.column_stack([b0, model.theta_star]))
        off_span = np.eye(4) - basis @ basis.T
        traj = run(
            ABState([0.1, 0.0, 0.05, 0.2], b0), model, StopRule(40, 1e-300)
        )
        worst = max(float(np.linalg.norm(off_span @ b)) for b in traj.records["b"])
        assert worst <= 1e-12

    def test_orthogonal_start_stays_orthogonal(self):
        """From b exactly orthogonal to theta* (x_theta == 0) the free-means
        run keeps <b_t, theta*> == 0.0 on every record, whatever the midpoint."""
        model = MixtureModel(3, [1.2, 0.0, 0.0])
        init = ABState([0.3, 0.1, -0.2], [0.0, 0.5, 0.4])
        traj = run(init, model, StopRule(100, 0.0))
        assert len(traj.records) == 101 and not traj.converged
        dots = [float(b @ model.theta_star) for b in traj.records["b"]]
        assert all(v == 0.0 for v in dots)
        assert float(traj.final_state.b @ model.theta_star) == 0.0

    def test_off_plane_midpoint_counts_in_the_first_step(self):
        """The part of a_0 off span(b_0, theta*) enters no kernel, but the
        first step removes it, so it counts in that step's size."""
        model = MixtureModel(3, [1.0, 0.0, 0.0])
        traj = run(ABState([0.0, 0.0, 0.5], [1.0, 0.0, 0.0]), model, StopRule(10, 0.1))
        assert traj.converged and len(traj.records) == 2
        assert np.all(traj.records["a"][1] == 0.0)

    def test_zero_step_tol_runs_the_whole_budget(self):
        """From the truth (a fixed point up to rounding) step_tol = 0.0 still
        takes every step of the budget."""
        traj = run(ABState([0.0, 0.0], MODEL.theta_star.copy()), MODEL, StopRule(5, 0.0))
        assert not traj.converged
        assert traj.records["t"].tolist() == [0, 1, 2, 3, 4, 5]

    def test_series_and_rows(self):
        traj = run(ABState([0.1, 0.0], [0.4, 0.1]), MODEL, StopRule(3, 1e-300))
        assert traj.records["norm_a"].shape == (4,)
        assert traj.records.dtype.names == (
            "t", "a", "b", "p", "beta", "sin_beta", "norm_a", "dist_b"
        )
        with pytest.raises(ValueError, match="read-only"):
            traj.records["norm_a"][1] = 0.0


class TestDiagnostics:
    """The records table is filled column by column from the stacked
    iterates; each row must match what its own state gives."""

    @staticmethod
    def _check(traj, model):
        r = traj.records
        states = [ABState(a, b) for a, b in zip(r["a"], r["b"])]
        thetas = [planar_reduce(s, model).theta for s in states]
        for column, expected in (
            ("norm_a", [np.linalg.norm(s.a) for s in states]),
            ("dist_b", [np.linalg.norm(s.b - traj.target) for s in states]),
            ("beta", [math.atan2(theta2, theta1) for theta1, theta2 in thetas]),
        ):
            np.testing.assert_allclose(r[column], expected, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(
            r["sin_beta"], [math.sin(v) for v in r["beta"].tolist()], rtol=1e-15, atol=0.0
        )

    @pytest.mark.parametrize("d", range(1, 9))
    def test_records_match_their_states(self, d):
        # |theta*| = 1.5 and |b_0| = 1 keep x_b inside the range where the
        # default 512/1024-node rule passes its self-check; larger x_b fails it
        rng = np.random.default_rng(100 + d)
        direction = rng.normal(size=(2, d))
        direction /= np.linalg.norm(direction, axis=1)[:, None]
        model = MixtureModel(d, 1.5 * direction[0])
        init = ABState(0.3 * rng.normal(size=d), direction[1])
        self._check(run(init, model, StopRule(25, 1e-12)), model)
        data = sample_mixture(model, 400, seed=d)
        for form in ("ab", "mu"):
            self._check(run_sample(init, data, StopRule(25, 1e-12), form), model)

    def test_zero_theta_star_has_no_angle(self):
        model = MixtureModel(2, [0.0, 0.0])
        traj = run(ABState([0.1, 0.0], [0.4, 0.3]), model, StopRule(10, 0.0))
        for column in ("beta", "sin_beta"):
            assert np.all(np.isnan(traj.records[column]))

    @pytest.mark.filterwarnings("error")
    def test_zero_separation_rows_have_no_angle(self):
        traj = run(ABState([0.4, 0.1], [0.0, 0.0]), MODEL)
        assert traj.converged and len(traj.records) == 2
        assert np.all(np.isnan(traj.records["beta"]))
        assert np.all(np.isnan(traj.records["sin_beta"]))

    @pytest.mark.parametrize("stop", [StopRule(200, 1e-10), StopRule(6, 0.0)])
    def test_a_run_reduces_its_start_once(self, monkeypatch, stop):
        """A run reduces its start once and then steps on the plane, whether
        it converges or uses up its budget; a sample run never reduces."""
        calls = []

        def counting(state, model):
            calls.append(state)
            return planar_reduce(state, model)

        monkeypatch.setattr(population, "planar_reduce", counting)
        traj = run(ABState([0.1, 0.0], [0.4, 0.1]), MODEL, stop)
        assert traj.converged == (stop.step_tol > 0.0)
        assert len(traj.records) > 2
        assert len(calls) == 1
        calls.clear()
        data = sample_mixture(MODEL, 200, seed=3)
        for form in ("ab", "mu"):
            run_sample(ABState([0.1, 0.0], [0.4, 0.1]), data, stop, form)
        assert calls == []


class TestRunModel1:
    model = MixtureModel(1, [1.0])

    def test_converges_from_inside(self):
        iters = run_model1(np.array([0.5]), self.model, StopRule(500, 1e-12))
        errs = np.abs(iters[:, 0] - 1.0)
        assert errs[-1] <= 1e-10
        assert np.all(np.diff(errs) < 0.0)

    def test_fixed_point_stops_immediately(self):
        iters = run_model1(np.array([1.0]), self.model, StopRule(500, 1e-10))
        assert iters.shape == (2, 1)

    def test_orthogonal_start_stays_orthogonal(self):
        model = MixtureModel(2, [1.0, 0.0])
        iters = run_model1(np.array([0.0, 0.7]), model, StopRule(50, 1e-12))
        dots = iters @ model.theta_star
        assert np.all(dots == 0.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            run_model1(np.array([0.5, 0.5]), self.model)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_equals_free_run_from_zero_midpoint(self, d):
        """Over a whole run, the locked-means iterates are bit for bit the b
        iterates of the free-means run from a = 0, whose midpoint stays 0."""
        model = MixtureModel(d, [1.0, 0.3, -0.2][:d])
        theta0 = np.array([0.4, -0.5, 0.25][:d])
        stop = StopRule(500, 1e-12)
        iters = run_model1(theta0, model, stop)
        traj = run(ABState(np.zeros(d), theta0), model, stop)
        assert traj.converged
        free_b = np.vstack([traj.records["b"], traj.final_state.b])
        np.testing.assert_array_equal(iters, free_b)
        assert np.all(traj.records["a"] == 0.0) and np.all(traj.records["p"] == 0.5)
        np.testing.assert_array_equal(traj.final_state.a, np.zeros(d))


class TestAPrioriBounds:
    def test_frozen_chain_at_unit_separation(self):
        """Digits frozen from 0.25 * erfc((c_u1 + 1) / sqrt 2) / 2 evaluated
        separately; c_u1^2 = 16/9 + 73/36 here."""
        model = MixtureModel(2, [1.0, 0.0])
        bounds = a_priori_bounds(ABState([0.1, 0.0], [0.5, 0.0]), model)
        assert bounds.c_u1 == pytest.approx(1.9507833184532708, rel=1e-14)
        assert bounds.c_u2 == pytest.approx(0.0003962114932414035, rel=1e-13)
        assert bounds.c_u3 == pytest.approx(1785.377706338965, rel=1e-13)

    def test_large_init(self):
        """A wide start inflates c_u1 directly and c_u3 through the tail
        mass; far tails must not round the envelope to a division by zero."""
        model = MixtureModel(2, [1.0, 0.0])
        bounds = a_priori_bounds(ABState([10.0, 0.0], [2000.0, 0.0]), model)
        assert bounds.c_u1 == 10.0
        assert bounds.c_u2 > 0.0
        assert math.isfinite(bounds.c_u3)
        assert bounds.c_u3 >= 2000.0

    def test_extreme_init_degrades_to_vacuous_envelope(self):
        model = MixtureModel(2, [1.0, 0.0])
        bounds = a_priori_bounds(ABState([45.0, 0.0], [1.0, 0.0]), model)
        assert bounds.c_u2 == 0.0
        assert bounds.c_u3 == math.inf

    def test_envelopes_hold_along_a_run(self):
        model = MixtureModel(2, [1.0, 0.0])
        init = ABState([0.2, 0.1], [0.3, 0.4])
        bounds = a_priori_bounds(init, model)
        traj = run(init, model, StopRule(200, 1e-300))
        for a, b in zip(traj.records["a"], traj.records["b"]):
            assert np.linalg.norm(a) <= bounds.c_u1 + 1e-12
            assert np.linalg.norm(b) <= bounds.c_u3 + 1e-12


class TestValidation:
    def test_stop_rule(self):
        with pytest.raises(ValueError):
            StopRule(max_iters=0)
        with pytest.raises(ValueError):
            StopRule(step_tol=-1e-12)
        with pytest.raises(ValueError):
            StopRule(step_tol=float("nan"))
        with pytest.raises(ValueError):
            StopRule(max_iters=2.0)
