"""Expected log-likelihood surface tests: closed forms, gradient consistency,
and the stationary-point classifications."""

import math

import numpy as np
import pytest

from emlab import (
    ABState,
    Classification,
    DimensionMismatch,
    MeanPair,
    MixtureModel,
    classify_stationary,
    expected_loglik,
    grad_G,
    model2_step,
)
from emlab.geometry import state_distance

MODEL_1D = MixtureModel(1, [1.0])
MODEL_2D = MixtureModel(2, [0.8, 0.6])


class TestExpectedLoglik:
    def test_value_at_truth(self):
        """Frozen from a Simpson evaluation of the defining integral."""
        val = expected_loglik(MeanPair([-1.0], [1.0]), MODEL_1D)
        assert val == pytest.approx(-1.7557693535515082, rel=1e-12)

    def test_coincident_means_closed_form(self):
        """At mu1 = mu2 = m the integrand loses the log-cosh term:
        G = -log(2 pi)/2 - (1 + |theta|^2 + |m|^2)/2 in d = 1."""
        m = 0.7
        expected = -0.5 * math.log(2.0 * math.pi) - 0.5 * (1.0 + 1.0 + m * m)
        val = expected_loglik(MeanPair([m], [m]), MODEL_1D)
        assert val == pytest.approx(expected, rel=1e-13)

    def test_truth_beats_neighbors(self):
        """The true parameters are a local maximizer of G."""
        at_truth = expected_loglik(MeanPair([-0.8, -0.6], [0.8, 0.6]), MODEL_2D)
        for eps in ([0.1, 0.0], [0.0, -0.1], [0.07, 0.07]):
            shifted = MeanPair(
                np.array([-0.8, -0.6]) + eps, np.array([0.8, 0.6]) + eps
            )
            assert expected_loglik(shifted, MODEL_2D) < at_truth

    def test_label_symmetry(self):
        """Swapping the two means leaves G unchanged."""
        g1 = expected_loglik(MeanPair([-0.5, 0.2], [0.9, 0.1]), MODEL_2D)
        g2 = expected_loglik(MeanPair([0.9, 0.1], [-0.5, 0.2]), MODEL_2D)
        assert g1 == pytest.approx(g2, rel=1e-13)

    def test_dim_mismatch(self):
        """The planar reduction refuses a model of another dimension, also
        for coincident means (b == 0) and for the gradient."""
        for means in (MeanPair([0.0], [1.0]), MeanPair([0.5], [0.5])):
            with pytest.raises(DimensionMismatch):
                expected_loglik(means, MODEL_2D)
            with pytest.raises(DimensionMismatch):
                grad_G(means, MODEL_2D)


class TestGradient:
    def test_matches_finite_differences(self):
        means = MeanPair([-0.4, 0.3], [0.7, -0.1])
        g1, g2 = grad_G(means, MODEL_2D)
        flat = np.concatenate([g1, g2])
        x0 = np.concatenate([means.mu1, means.mu2])
        h = 1e-5
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            plus = expected_loglik(MeanPair((x0 + e)[:2], (x0 + e)[2:]), MODEL_2D)
            minus = expected_loglik(MeanPair((x0 - e)[:2], (x0 - e)[2:]), MODEL_2D)
            assert flat[j] == pytest.approx((plus - minus) / (2.0 * h), abs=1e-5)

    def test_vanishes_at_truth(self):
        g1, g2 = grad_G(MeanPair([-0.8, -0.6], [0.8, 0.6]), MODEL_2D)
        assert np.linalg.norm(np.concatenate([g1, g2])) <= 1e-6

    def test_coincident_means_closed_form(self):
        """At b = 0 the posterior weights are 1/2, so each component of the
        gradient is -mu/2."""
        g1, g2 = grad_G(MeanPair([0.6, -0.2], [0.6, -0.2]), MODEL_2D)
        np.testing.assert_allclose(g1, [-0.3, 0.1], atol=1e-14)
        np.testing.assert_allclose(g2, [-0.3, 0.1], atol=1e-14)


class TestClassification:
    def test_truth_is_a_maximum(self):
        z = np.zeros(2)
        for b in (MODEL_2D.theta_star, -MODEL_2D.theta_star):
            report = classify_stationary(ABState(z, b.copy()), MODEL_2D)
            assert report.classification is Classification.MAX
            assert report.grad_norm <= 1e-6
            assert max(report.hessian_eigs) < 0.0

    def test_origin_is_a_saddle_on_the_full_surface(self):
        report = classify_stationary(ABState(np.zeros(2), np.zeros(2)), MODEL_2D)
        assert report.classification is Classification.SADDLE

    def test_symmetric_restriction_in_1d(self):
        z = np.zeros(1)
        assert (
            classify_stationary(ABState(z, z.copy()), MODEL_1D, symmetric=True).classification
            is Classification.MIN
        )
        for b in ([1.0], [-1.0]):
            assert (
                classify_stationary(ABState(z, b), MODEL_1D, symmetric=True).classification
                is Classification.MAX
            )

    def test_symmetric_restriction_origin_in_2d(self):
        report = classify_stationary(
            ABState(np.zeros(2), np.zeros(2)), MODEL_2D, symmetric=True
        )
        assert report.classification is Classification.SADDLE

    def test_symmetric_requires_centered_point(self):
        with pytest.raises(ValueError):
            classify_stationary(
                ABState([0.1, 0.0], [0.5, 0.0]), MODEL_2D, symmetric=True
            )

    def test_non_stationary_point_unresolved(self):
        report = classify_stationary(ABState([0.5, 0.0], [0.3, 0.3]), MODEL_2D)
        assert report.classification is Classification.UNRESOLVED
        assert report.grad_norm > 1e-6
        assert report.hessian_eigs == ()


def fixed_stationary_correspondence(point: ABState, model: MixtureModel) -> bool:
    """Whether 'fixed point of the update' (a step moves the state by at most
    1e-8) and 'stationary point of G' (gradient norm at most 1e-6) agree at
    ``point``: both true or both false."""
    new_state, _ = model2_step(point, model)
    moved = state_distance(new_state, point)
    g1, g2 = grad_G(MeanPair(point.a - point.b, point.a + point.b), model)
    gnorm = float(np.linalg.norm(np.concatenate([g1, g2])))
    return (moved <= 1e-8) == (gnorm <= 1e-6)


class TestFixedStationaryCorrespondence:
    def test_agreement_at_special_points(self):
        z = np.zeros(2)
        assert fixed_stationary_correspondence(ABState(z, MODEL_2D.theta_star.copy()), MODEL_2D)
        assert fixed_stationary_correspondence(ABState(z, z.copy()), MODEL_2D)

    def test_agreement_at_a_generic_point(self):
        # neither fixed nor stationary, so the equivalence still holds
        assert fixed_stationary_correspondence(ABState([0.3, 0.1], [0.2, 0.4]), MODEL_2D)
