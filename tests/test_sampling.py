"""Finite-sample EM tests: hand-checked updates, equivalence of the two
Model-2 parameterizations, likelihood ascent, and dataset plumbing."""

import ctypes
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emlab import (
    ABState,
    Dataset,
    DegenerateWeights,
    DimensionMismatch,
    MeanPair,
    MixtureModel,
    StopRule,
    from_ab,
    model1_step_sample,
    model2_step,
    model2_step_ab,
    model2_step_mu,
    run_sample,
    sample_loglik,
    sample_mixture,
    to_ab,
)
from emlab.sampling import _BLAS_PINNED, _MAP_BYTES, _block_rows

MODEL_1D = MixtureModel(1, [1.0])
MODEL_2D = MixtureModel(2, [1.0, 0.0])


def _dataset(rows, model):
    return Dataset(np.array(rows, dtype=float), None, model)


class TestModel1Step:
    def test_two_point_hand_value(self):
        """Data {2, -2} at theta = 1: both terms contribute tanh(2) * 2 / 2,
        so the update is exactly 2 tanh 2."""
        data = _dataset([[2.0], [-2.0]], MODEL_1D)
        new = model1_step_sample(np.array([1.0]), data)
        assert new[0] == pytest.approx(2.0 * math.tanh(2.0), rel=1e-15)

    def test_zero_theta_is_fixed(self):
        data = sample_mixture(MODEL_1D, 100, 3)
        new = model1_step_sample(np.array([0.0]), data)
        assert new[0] == 0.0

    def test_dim_mismatch(self):
        data = sample_mixture(MODEL_2D, 10, 0)
        with pytest.raises(DimensionMismatch):
            model1_step_sample(np.array([1.0]), data)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_theta_is_refused(self, bad):
        """tanh saturates, so an infinite entry would give a finite step and
        a NaN a NaN step; both are refused, as ABState refuses them."""
        data = sample_mixture(MODEL_2D, 100, 0)
        with pytest.raises(ValueError, match="^theta_hat must be finite$"):
            model1_step_sample([bad, 0.5], data)

    @pytest.mark.parametrize("d", [1, 2, 8])
    def test_blocked_pass_matches_the_direct_formula(self, d):
        """Over several row blocks the step still equals X^T tanh(X theta)/n."""
        n = 3 * _block_rows(d) + 7
        data = sample_mixture(MixtureModel(d, np.linspace(0.4, 1.2, d)), n, [d, 5])
        theta = np.linspace(-0.3, 0.9, d)
        X = data.data
        np.testing.assert_allclose(model1_step_sample(theta, data),
                                   X.T @ np.tanh(X @ theta) / n, rtol=1e-12, atol=1e-15)


class TestFormEquivalence:
    """The mu-form and ab-form updates are the same algebra."""

    @settings(max_examples=30, deadline=None)
    @given(
        a=st.lists(st.floats(-1.5, 1.5), min_size=2, max_size=2),
        b=st.lists(st.floats(-1.5, 1.5), min_size=2, max_size=2),
        seed=st.integers(0, 2**31),
    )
    def test_random_instances(self, a, b, seed):
        data = sample_mixture(MODEL_2D, 50, seed)
        state = ABState(a, b)
        via_ab = model2_step_ab(state, data)
        via_mu = to_ab(model2_step_mu(from_ab(state), data))
        np.testing.assert_allclose(via_ab.a, via_mu.a, atol=1e-12)
        np.testing.assert_allclose(via_ab.b, via_mu.b, atol=1e-12)

    def test_mu_form_stays_on_weighted_means(self):
        """The mu-update is a weighted average, so it lies in the convex
        hull of the data coordinates."""
        data = sample_mixture(MODEL_2D, 200, 9)
        new = model2_step_mu(MeanPair([-0.5, 0.1], [0.7, -0.2]), data)
        lo, hi = data.data.min(axis=0), data.data.max(axis=0)
        assert np.all(new.mu1 >= lo) and np.all(new.mu1 <= hi)
        assert np.all(new.mu2 >= lo) and np.all(new.mu2 <= hi)


class TestFusedWeightPass:
    """The one-pass updates against the weight-vector formulas they replace:
    w = (1 + tanh((X - a) @ b))/2, v = 1 - w, q = w @ X / n."""

    @pytest.mark.parametrize("n", [1, 7, 1000, 12345, 49159])
    @pytest.mark.parametrize("d", range(1, 9))
    def test_matches_weight_vector_formulas(self, d, n):
        model = MixtureModel(d, np.linspace(-1.3, 2.1, d) / d)
        data = sample_mixture(model, n, [d, n])
        rng = np.random.default_rng([d, n])
        state = ABState(0.3 * rng.standard_normal(d), 0.3 * rng.standard_normal(d))
        X = data.data

        t = np.tanh((X - state.a) @ state.b)
        w = 0.5 * (1.0 + t)
        p, q, ybar = w.mean(), (w @ X) / n, X.mean(axis=0)
        denom = 2.0 * p * (1.0 - p)
        shift = ybar / (2.0 * (1.0 - p))
        new = model2_step_ab(state, data)
        np.testing.assert_allclose(new.a, q * ((1.0 - 2.0 * p) / denom) + shift,
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(new.b, q / denom - shift, rtol=1e-12, atol=1e-12)

        means = from_ab(state)
        ab = to_ab(means)
        t = np.tanh((X - ab.a) @ ab.b)
        w, v = 0.5 * (1.0 + t), 0.5 * (1.0 - t)
        new = model2_step_mu(means, data)
        np.testing.assert_allclose(new.mu1, (v @ X) / v.sum(), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(new.mu2, (w @ X) / w.sum(), rtol=1e-12, atol=1e-12)


class TestLikelihoodAscent:
    def test_em_never_decreases_loglik(self):
        data = sample_mixture(MODEL_2D, 500, 21)
        state = ABState([0.4, -0.3], [0.2, 0.5])
        prev = sample_loglik(state, data)
        for _ in range(25):
            state = model2_step_ab(state, data)
            curr = sample_loglik(state, data)
            assert curr >= prev - 1e-12
            prev = curr

    def test_loglik_closed_form_single_point(self):
        data = _dataset([[0.7]], MODEL_1D)
        state = ABState([0.2], [0.9])
        direct = math.log(
            0.5 * math.exp(-0.5 * (0.7 - (0.2 - 0.9)) ** 2)
            + 0.5 * math.exp(-0.5 * (0.7 - (0.2 + 0.9)) ** 2)
        ) - 0.5 * math.log(2.0 * math.pi)
        assert sample_loglik(state, data) == pytest.approx(direct, rel=1e-12)


class TestLawOfLargeNumbers:
    def test_sample_step_approaches_population_step(self):
        state = ABState([0.1, 0.05], [0.6, 0.3])
        pop, _ = model2_step(state, MODEL_2D)
        data = sample_mixture(MODEL_2D, 400_000, 77)
        emp = model2_step_ab(state, data)
        assert np.linalg.norm(emp.a - pop.a) <= 2e-2
        assert np.linalg.norm(emp.b - pop.b) <= 2e-2


class TestDegenerateWeights:
    def test_one_sided_weights_raise(self):
        """Far-out data saturates tanh, emptying one component."""
        data = _dataset([[30.0], [35.0]], MODEL_1D)
        with pytest.raises(DegenerateWeights):
            model2_step_mu(MeanPair([-1.0], [1.0]), data)
        with pytest.raises(DegenerateWeights):
            model2_step_ab(ABState([0.0], [1.0]), data)

    def test_far_midpoint_raises_in_both_forms(self):
        """A midpoint 12 units out puts p_hat near 6e-18, far inside the
        reals but outside (1e-15, 1 - 1e-15)."""
        data = sample_mixture(MODEL_2D, 20, 0)
        state = ABState([12.0, 0.0], [2.0, 0.0])
        with pytest.raises(DegenerateWeights):
            model2_step_ab(state, data)
        with pytest.raises(DegenerateWeights):
            model2_step_mu(from_ab(state), data)


class TestDataset:
    def test_sampling_is_deterministic(self):
        d1 = sample_mixture(MODEL_2D, 50, 123)
        d2 = sample_mixture(MODEL_2D, 50, 123)
        np.testing.assert_array_equal(d1.data, d2.data)
        assert not np.array_equal(d1.data, sample_mixture(MODEL_2D, 50, 124).data)

    def test_composite_seed(self):
        d1 = sample_mixture(MODEL_2D, 20, [5, 0])
        d2 = sample_mixture(MODEL_2D, 20, [5, 1])
        assert not np.array_equal(d1.data, d2.data)

    @pytest.mark.parametrize("d, n, seed", [
        (1, 1000, 0), (2, 100_000, 7), (8, 12345, 3), (3, 1, 11), (2, 500, [5, 1]),
    ])
    def test_draw_matches_the_out_of_place_sum(self, d, n, seed):
        """The in-place draw gives, bit for bit, zeta * theta_star + omega
        from the same stream."""
        model = MixtureModel(d, np.linspace(-1.3, 2.1, d))
        rng = np.random.default_rng(seed)
        zeta = rng.integers(0, 2, size=n) * 2 - 1
        expected = zeta[:, None] * model.theta_star + rng.standard_normal((n, d))
        assert sample_mixture(model, n, seed).data.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", [0, 17, [5, 2]])
    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_blocked_draw_matches_the_one_shot_formula(self, d, seed):
        """Adding zeta * theta_star block by block, with zeta drawn a block at
        a time and held as int8, gives the one-shot draw bit for bit, at and
        around block edges and in a memory-mapped draw."""
        model = MixtureModel(d, np.linspace(-1.3, 2.1, d))
        block = _block_rows(d)
        mapped = _MAP_BYTES // (8 * d)
        for n in (1, block - 1, block, block + 1, 3 * block + 7, mapped):
            rng = np.random.default_rng(seed)
            zeta = rng.integers(0, 2, size=n) * 2 - 1
            expected = rng.standard_normal((n, d))
            expected += zeta[:, None] * model.theta_star
            data = sample_mixture(model, n, seed).data
            assert data.tobytes() == expected.tobytes()
            assert not data.flags.writeable

    def test_shape_and_mean_caching(self):
        data = sample_mixture(MODEL_2D, 64, 1)
        assert data.n == 64
        assert data.dim == 2
        assert data.mean is data.mean  # cached, and frozen
        assert data.colsum is data.colsum
        assert data.mean.tobytes() == (data.colsum / data.n).tobytes()
        np.testing.assert_allclose(data.colsum, data.data.sum(axis=0), rtol=0, atol=1e-12)
        with pytest.raises(ValueError):
            data.mean[0] = 1.0
        with pytest.raises(ValueError):
            data.colsum[0] = 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            _dataset(np.zeros((0, 1)), MODEL_1D)
        with pytest.raises(DimensionMismatch):
            _dataset([[1.0, 2.0]], MODEL_1D)
        with pytest.raises(ValueError):
            _dataset([[float("nan")]], MODEL_1D)
        with pytest.raises(ValueError):
            Dataset(np.zeros(3), None, MODEL_1D)

    def test_user_array_is_copied(self):
        rows = np.array([[1.0], [2.0]])
        data = Dataset(rows, None, MODEL_1D)
        rows[0, 0] = 9.9
        np.testing.assert_array_equal(data.data, [[1.0], [2.0]])

    def test_data_is_immutable(self):
        data = sample_mixture(MODEL_1D, 5, 0)
        with pytest.raises(ValueError):
            data.data[0, 0] = 9.9


class TestRunSample:
    def test_record_semantics_match_population_runner(self):
        data = sample_mixture(MODEL_2D, 1000, 6)
        stop = StopRule(max_iters=4, step_tol=1e-300)
        traj = run_sample(ABState([0.1, 0.0], [0.4, 0.2]), data, stop)
        assert not traj.converged
        assert traj.records["t"].tolist() == [0, 1, 2, 3, 4]
        np.testing.assert_array_equal(traj.records["b"][-1], traj.final_state.b)

    def test_converged_run_stops_early(self):
        data = sample_mixture(MODEL_2D, 5000, 8)
        traj = run_sample(ABState([0.05, 0.0], [0.5, 0.1]), data, StopRule(500, 1e-9))
        assert traj.converged
        assert len(traj.records) < 500
        # the sample fixed point sits near the signed target for n this large
        assert np.linalg.norm(traj.final_state.b - traj.target) <= 0.2

    def test_both_forms_agree_along_a_run(self):
        data = sample_mixture(MODEL_2D, 300, 15)
        init = ABState([0.2, -0.1], [0.3, 0.4])
        stop = StopRule(max_iters=10, step_tol=1e-300)
        t_ab = run_sample(init, data, stop, form="ab")
        t_mu = run_sample(init, data, stop, form="mu")
        np.testing.assert_allclose(
            t_ab.final_state.b, t_mu.final_state.b, atol=1e-10
        )

    @pytest.mark.parametrize("d", [1, 2, 8])
    def test_run_steps_are_the_public_steps(self, d):
        """Over one row block plus 7 rows, an ab-form run is a chain of
        model2_step_ab bit for bit, a mu-form run the chain of
        to_ab(model2_step_mu(from_ab(.))) to rounding, and a run with
        step_tol > 0 stops at the first step whose math.dist is below it."""
        n = _block_rows(d) + 7
        data = sample_mixture(MixtureModel(d, np.linspace(0.4, 1.2, d)), n, [d, 9])
        init = ABState(np.linspace(-0.2, 0.1, d), np.linspace(0.3, -0.5, d))
        chain_ab, chain_mu = [init], [init]
        for _ in range(11):
            chain_ab.append(model2_step_ab(chain_ab[-1], data))
            chain_mu.append(to_ab(model2_step_mu(from_ab(chain_mu[-1]), data)))

        t_ab = run_sample(init, data, StopRule(11, 0.0), form="ab")
        assert t_ab.records["a"].tobytes() == np.array([s.a for s in chain_ab]).tobytes()
        assert t_ab.records["b"].tobytes() == np.array([s.b for s in chain_ab]).tobytes()
        assert t_ab.final_state.a.tobytes() == chain_ab[-1].a.tobytes()
        assert t_ab.final_state.b.tobytes() == chain_ab[-1].b.tobytes()

        t_mu = run_sample(init, data, StopRule(11, 0.0), form="mu")
        for key in ("a", "b"):
            np.testing.assert_allclose(
                t_mu.records[key], [getattr(s, key) for s in chain_mu], rtol=0, atol=1e-14)
        np.testing.assert_allclose(t_mu.final_state.b, chain_mu[-1].b, rtol=0, atol=1e-14)

        moves = [math.dist(np.concatenate((x.a, x.b)), np.concatenate((y.a, y.b)))
                 for x, y in zip(chain_ab[1:], chain_ab)]
        tol = moves[4]
        first = next(t for t, moved in enumerate(moves) if moved < tol)
        stopped = run_sample(init, data, StopRule(11, tol))
        assert stopped.converged
        assert len(stopped) == first + 1
        assert stopped.final_state.b.tobytes() == chain_ab[first + 1].b.tobytes()

    def test_unknown_form_rejected(self):
        data = sample_mixture(MODEL_2D, 10, 0)
        with pytest.raises(ValueError):
            run_sample(ABState([0.0, 0.0], [0.5, 0.0]), data, form="theta")


def test_dimension_errors_name_the_argument():
    """Every public sample entry point refuses a 1-d input on 2-d data with
    one message that names its own argument."""
    data = sample_mixture(MODEL_2D, 10, 0)
    state = ABState([0.0], [0.5])
    calls = [
        ("theta_hat", lambda: model1_step_sample([0.5], data)),
        ("means", lambda: model2_step_mu(MeanPair([-0.5], [0.5]), data)),
        ("state", lambda: model2_step_ab(state, data)),
        ("state", lambda: sample_loglik(state, data)),
        ("init", lambda: run_sample(state, data)),
    ]
    for name, call in calls:
        with pytest.raises(DimensionMismatch, match=f"^{name} has dimension 1, data has 2$"):
            call()


@pytest.mark.skipif(
    not _BLAS_PINNED,
    reason="numpy bundles no OpenBLAS with scipy_openblas_set_num_threads64_ to pin",
)
def test_numpy_blas_runs_one_thread():
    """The pin reaches the OpenBLAS that numpy itself loaded."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    (path,) = libs.glob("libscipy_openblas64_*.so")
    assert ctypes.CDLL(str(path)).scipy_openblas_get_num_threads64_() == 1
