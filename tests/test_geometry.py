"""Coordinate-layer tests: (a, b) reparameterization, planar reduction, and
covariance whitening."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emlab import (
    ABState,
    Classification,
    DimensionMismatch,
    MeanPair,
    MixtureModel,
    NotPositiveDefinite,
    StationaryReport,
    StopRule,
    from_ab,
    planar_reduce,
    run,
    to_ab,
    whiten,
)

vec3 = st.lists(
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False), min_size=3, max_size=3
)


class TestReparameterization:
    def test_round_trip_by_hand(self):
        means = MeanPair([1.0, 2.0], [3.0, -2.0])
        state = to_ab(means)
        np.testing.assert_array_equal(state.a, [2.0, 0.0])
        np.testing.assert_array_equal(state.b, [1.0, -2.0])
        back = from_ab(state)
        np.testing.assert_array_equal(back.mu1, means.mu1)
        np.testing.assert_array_equal(back.mu2, means.mu2)

    @settings(max_examples=50, deadline=None)
    @given(mu1=vec3, mu2=vec3)
    def test_round_trip_random(self, mu1, mu2):
        means = MeanPair(mu1, mu2)
        back = from_ab(to_ab(means))
        np.testing.assert_allclose(back.mu1, means.mu1, atol=1e-12)
        np.testing.assert_allclose(back.mu2, means.mu2, atol=1e-12)

    def test_symmetric_pair_has_zero_midpoint(self):
        state = to_ab(MeanPair([-0.5, 1.0], [0.5, -1.0]))
        assert np.all(state.a == 0.0)


class TestContainers:
    def test_mixture_model_validation(self):
        with pytest.raises(ValueError):
            MixtureModel(0, [])
        with pytest.raises(DimensionMismatch):
            MixtureModel(2, [1.0])
        with pytest.raises(ValueError):
            MixtureModel(1, [float("inf")])
        with pytest.raises(ValueError):
            MixtureModel(True, [1.0])

    def test_norm_theta(self):
        assert MixtureModel(2, [3.0, 4.0]).norm_theta == 5.0

    def test_a_theta_whose_norm_overflows_is_refused(self):
        """Finite entries past |v| ~ 1.3e154 square to inf: such a theta*
        has no finite norm and would put infinities into every kernel."""
        with pytest.raises(ValueError, match="^theta_star's norm must be finite$"):
            MixtureModel(2, [1e200, 1e200])
        assert MixtureModel(1, [1e154]).norm_theta == 1e154

    def test_abstate_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ABState([1.0], [1.0, 2.0])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("pair, names", [(ABState, ("a", "b")), (MeanPair, ("mu1", "mu2"))])
    def test_pair_check_names_its_fields(self, pair, names):
        """Both containers share one check, and its messages name the
        container's own fields.  Finite entries past |v| ~ 1.3e154 square to
        inf, so the check refuses them as it refuses such a theta*."""
        first, second = names
        with pytest.raises(DimensionMismatch, match=f"^{first} has length 2 but {second} has length 1$"):
            pair([1.0, 2.0], [1.0])
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"^{first} must be finite$"):
                pair([bad, 0.0], [1.0, 2.0])
            with pytest.raises(ValueError, match=f"^{second} must be finite$"):
                pair([1.0, 2.0], [0.0, bad])
        with pytest.raises(ValueError, match=f"^{first}'s norm must be finite$"):
            pair([1e200, 0.0], [1.0, 0.0])
        with pytest.raises(ValueError, match=f"^{second}'s norm must be finite$"):
            pair([1.0, 0.0], [1e200, 1e200])
        pair([1e154, 0.0], [0.0, 1e154])  # v.v = 1e308 is still finite

    def test_vectors_are_frozen(self):
        state = ABState([1.0, 0.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            state.a[0] = 7.0

    def test_inputs_are_copied(self):
        raw = np.array([1.0, 0.0])
        state = ABState(raw, [0.0, 1.0])
        raw[0] = 99.0
        assert state.a[0] == 1.0

    @pytest.mark.parametrize("make", [
        lambda: MixtureModel(2, [1.0, 0.3]),
        lambda: MeanPair([0.1, 0.2], [0.3, 0.4]),
        lambda: ABState([0.1, 0.2], [0.3, 0.4]),
        lambda: run(ABState([0.1, 0.2], [0.3, 0.4]), MixtureModel(2, [1.0, 0.3]), StopRule(3)),
        lambda: StationaryReport(ABState([0.0, 0.0], [1.0, 0.3]), 0.0, (), Classification.UNRESOLVED),
    ], ids=["MixtureModel", "MeanPair", "ABState", "Trajectory", "StationaryReport"])
    def test_containers_holding_arrays_compare_by_identity(self, make):
        """== on two equal-valued containers returns a bool instead of
        comparing their arrays (which raises at d >= 2)."""
        x, y = make(), make()
        assert (x == x) is True
        assert (x == y) is False
        assert len({x, y}) == 2


class TestPlanarReduce:
    model = MixtureModel(3, [1.0, 2.0, 2.0])

    def test_basis_is_orthonormal(self):
        """e1 and u2 are an orthonormal basis of the (b, theta_star) plane."""
        state = ABState([0.3, -0.2, 0.5], [0.1, 1.2, -0.4])
        c = planar_reduce(state, self.model)
        assert np.linalg.norm(c.e1) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(c.u2) == pytest.approx(1.0, abs=1e-12)
        assert abs(float(c.e1 @ c.u2)) <= 1e-12
        assert c.theta[1] > 0.0

    def test_reconstructs_theta_star(self):
        state = ABState([0.3, -0.2, 0.5], [0.1, 1.2, -0.4])
        c = planar_reduce(state, self.model)
        theta1, theta2 = c.theta
        np.testing.assert_allclose(
            theta1 * c.e1 + theta2 * c.u2, self.model.theta_star, atol=1e-12
        )

    def test_collinear_branch(self):
        state = ABState([0.0, 0.0, 0.0], 0.5 * self.model.theta_star)
        c = planar_reduce(state, self.model)
        assert c.theta[1] == 0.0
        np.testing.assert_array_equal(c.u2, [0.0, 0.0, 0.0])
        assert c.theta[0] == pytest.approx(self.model.norm_theta, rel=1e-14)

    def test_dimension_one_uses_zero_filler(self):
        """In d = 1 theta_star has no part off e1, so u2 is exactly zero."""
        model = MixtureModel(1, [2.0])
        c = planar_reduce(ABState([0.1], [-0.5]), model)
        assert c.theta[1] == 0.0
        np.testing.assert_array_equal(c.u2, [0.0])
        assert c.theta[0] == pytest.approx(-2.0)

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(min_value=1, max_value=8), seed=st.integers(0, 2**32 - 1))
    def test_split_of_theta_star(self, d, seed):
        """theta1 e1 + theta2 u2 rebuilds theta_star; u2 is a unit vector
        orthogonal to e1 whenever theta2 > 0, also for a collinear b, where
        theta2 is rounding-sized, and exactly zero in d = 1; theta1 is
        exactly zero for disjoint supports."""
        rng = np.random.default_rng(seed)
        model = MixtureModel(d, rng.uniform(0.1, 5.0) * rng.standard_normal(d))
        scale = model.norm_theta
        for b in (rng.standard_normal(d), rng.uniform(-3.0, 3.0) * model.theta_star):
            c = planar_reduce(ABState(rng.standard_normal(d), b), model)
            theta1, theta2 = c.theta
            np.testing.assert_allclose(
                theta1 * c.e1 + theta2 * c.u2, model.theta_star, rtol=0.0, atol=1e-12
            )
            assert theta2 >= 0.0
            if theta2 > 0.0:
                assert abs(float(c.e1 @ c.u2)) <= 1e-12
                assert abs(float(np.linalg.norm(c.u2)) - 1.0) <= 1e-12
            else:
                assert np.all(c.u2 == 0.0)
            if d == 1:
                assert theta2 == 0.0 and np.all(c.u2 == 0.0)
        assert c.theta[1] <= 1e-12 * scale  # the collinear b
        if d > 1:
            k = int(rng.integers(1, d))
            b = np.concatenate([rng.standard_normal(k), np.zeros(d - k)])
            theta = np.concatenate([np.zeros(k), rng.standard_normal(d - k)])
            c = planar_reduce(ABState(np.zeros(d), b), MixtureModel(d, theta))
            assert c.theta[0] == 0.0

    def test_collinear_up_to_rounding(self):
        """b equal to theta_star, whose split along e1 leaves a rounding
        residue: u2 stays orthogonal to e1, so a collinear a has no part along
        u2 or off the plane, and the first step moves 0.056 < 0.1, which
        ends the run with one record."""
        model = MixtureModel(2, [1.0, 0.3])
        state = ABState([0.1, 0.03], model.theta_star)
        c = planar_reduce(state, model)
        assert abs(c.z[1]) <= 1e-12 and abs(c.z[2]) <= 1e-12
        traj = run(state, model, StopRule(10, 0.1))
        assert traj.converged and len(traj.records) == 1

    def test_scalar_coordinates(self):
        """The plane state is (x_a, <a, u2>, |a off the plane|, |b|, 0), and
        its in-plane part with the off-plane norm rebuilds a."""
        state = ABState([0.3, -0.2, 0.5], [0.1, 1.2, -0.4])
        c = planar_reduce(state, self.model)
        x_a, a2, off, norm_b, b2 = c.z
        norm_b_ref = np.linalg.norm(state.b)
        assert norm_b == pytest.approx(norm_b_ref, rel=1e-15)
        assert x_a == pytest.approx(float(state.a @ state.b) / norm_b_ref, rel=1e-14)
        assert a2 == pytest.approx(float(state.a @ c.u2), rel=1e-14)
        assert b2 == 0.0
        in_plane = x_a * c.e1 + a2 * c.u2
        assert off == pytest.approx(float(np.linalg.norm(state.a - in_plane)), abs=1e-15)
        assert math.hypot(x_a, a2, off) == pytest.approx(float(np.linalg.norm(state.a)), rel=1e-14)

    def test_zero_b_has_the_zero_frame(self):
        """b == 0 spans no plane: the zero frame, and all of a off it."""
        c = planar_reduce(ABState([0.1, 0.0, -0.2], [0.0, 0.0, 0.0]), self.model)
        assert c.z == (0.0, 0.0, float(np.linalg.norm([0.1, 0.0, -0.2])), 0.0, 0.0)
        assert c.theta == (0.0, 0.0)
        assert np.all(c.e1 == 0.0) and np.all(c.u2 == 0.0)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            planar_reduce(ABState([0.1], [0.2]), self.model)
        with pytest.raises(DimensionMismatch):
            planar_reduce(ABState([0.1], [0.0]), self.model)

    def test_rotation_invariance_of_scalars(self):
        """The reduced scalars only depend on inner products, so a rotation
        of every input leaves them unchanged."""
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        state = ABState([0.3, -0.2, 0.5], [0.1, 1.2, -0.4])
        c = planar_reduce(state, self.model)
        rot_model = MixtureModel(3, q @ self.model.theta_star)
        rot_state = ABState(q @ state.a, q @ state.b)
        cr = planar_reduce(rot_state, rot_model)
        np.testing.assert_allclose([*cr.theta, *cr.z], [*c.theta, *c.z], atol=1e-12)


class TestAngle:
    """The beta column of a run's records: the angle in [0, pi] of b to
    theta_star."""

    @staticmethod
    def _beta0(b):
        model = MixtureModel(2, [1.0, 0.0])
        return run(ABState([0.0, 0.0], b), model, StopRule(1, 0.0)).records["beta"][0]

    def test_right_angle(self):
        assert self._beta0([0.0, 0.8]) == pytest.approx(math.pi / 2.0, abs=1e-14)

    def test_aligned_and_opposed(self):
        assert self._beta0([0.4, 0.0]) == 0.0
        assert self._beta0([-0.4, 0.0]) == pytest.approx(math.pi)


class TestWhiten:
    def test_identity_covariance_is_noop(self):
        data = np.arange(6.0).reshape(3, 2)
        np.testing.assert_allclose(whiten(data, np.eye(2)), data, atol=1e-15)

    def test_diagonal_covariance(self):
        sigma = np.diag([4.0, 9.0])
        out = whiten(np.array([[2.0, 3.0]]), sigma)
        np.testing.assert_allclose(out, [[1.0, 1.0]], atol=1e-14)

    def test_whitened_sample_covariance(self):
        rng = np.random.default_rng(11)
        sigma = np.array([[2.0, 0.6], [0.6, 1.0]])
        chol = np.linalg.cholesky(sigma)
        data = rng.standard_normal((200_000, 2)) @ chol.T
        white = whiten(data, sigma)
        np.testing.assert_allclose(np.cov(white.T), np.eye(2), atol=2e-2)

    def test_single_vector(self):
        out = whiten(np.array([2.0, 0.0]), np.diag([4.0, 1.0]))
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-14)

    def test_asymmetric_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            whiten(np.zeros((1, 2)), np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            whiten(np.zeros((1, 2)), np.diag([1.0, -2.0]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            whiten(np.zeros((4, 3)), np.eye(2))
