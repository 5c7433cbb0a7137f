"""Expected log-likelihood surface tests: closed forms, gradient consistency,
and the stationary-point classifications."""

import json
import math

import numpy as np
import pytest

from emlab import (
    ABState,
    Classification,
    DimensionMismatch,
    MeanPair,
    MixtureModel,
    NonConvergence,
    classify_stationary,
    expected_loglik,
    grad_G,
    model2_step,
)
from emlab.cli import main
from emlab.geometry import state_distance
from oracles import adaptive_simpson

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


def _simpson_loglik(means: MeanPair, model: MixtureModel) -> float:
    """G from its closed-form quadratic part and an adaptive-Simpson log-cosh
    integral against the two-lobe law of Y along b, in plain floats."""
    d = model.dim
    a, b = 0.5 * (means.mu1 + means.mu2), 0.5 * (means.mu2 - means.mu1)
    quad = -0.5 * d * math.log(2.0 * math.pi) - 0.5 * (
        d + float(model.theta_star @ model.theta_star) + float(a @ a) + float(b @ b))
    norm_b = math.sqrt(float(b @ b))
    if norm_b == 0.0:
        return quad
    x_a, x_t = float(a @ b) / norm_b, float(model.theta_star @ b) / norm_b

    def f(y):
        z = abs(norm_b * (y - x_a))
        log_cosh = z + math.log1p(math.exp(-2.0 * z)) - math.log(2.0)
        lobes = math.exp(-0.5 * (y - x_t) ** 2) + math.exp(-0.5 * (y + x_t) ** 2)
        return log_cosh * 0.5 * lobes / math.sqrt(2.0 * math.pi)

    # split at the kink of log cosh; beyond 14 of the lobes' sds nothing is left
    lo, hi = -abs(x_t) - 14.0, abs(x_t) + 14.0
    cut = min(max(x_a, lo), hi)
    return quad + adaptive_simpson(f, lo, cut, tol=1e-13) + adaptive_simpson(f, cut, hi, tol=1e-13)


class TestAgainstSimpson:
    def test_random_cells(self):
        """G agrees with an adaptive-Simpson oracle at 64 random cells, d = 1..8,
        with |a|, |b| and |theta*| up to 2.5; every eighth cell has b = 0, and
        every value, those included, is a Python float."""
        rng = np.random.default_rng(20161)

        def vector(d):
            v = rng.normal(size=d)
            return v / np.linalg.norm(v) * rng.uniform(0.0, 2.5)

        for i in range(64):
            d = 1 + i % 8
            model = MixtureModel(d, vector(d))
            a, b = vector(d), (np.zeros(d) if i % 8 == 3 else vector(d))
            means = MeanPair(a - b, a + b)
            got = expected_loglik(means, model)
            assert type(got) is float
            assert abs(got - _simpson_loglik(means, model)) <= 1e-11, (d, a, b)

    @pytest.mark.parametrize("d", [17, 40])
    def test_long_means(self, d):
        """Means longer than any benchmark slice's agree with the oracle too."""
        rng = np.random.default_rng(d)
        theta, a, b = (v / np.linalg.norm(v) * r for v, r in zip(
            rng.normal(size=(3, d)), (1.5, 0.8, 1.2)))
        means, model = MeanPair(a - b, a + b), MixtureModel(d, theta)
        got = expected_loglik(means, model)
        assert type(got) is float
        assert abs(got - _simpson_loglik(means, model)) <= 1e-11
        assert type(expected_loglik(MeanPair(a, a), model)) is float


class TestFailures:
    def test_an_unsettled_cell_names_its_planar_coordinates(self):
        """Past |b| ~ 6 with x_a near a lobe the rule does not settle; the
        message names x_a, x_b = |b| and x_theta, as the kernels' do."""
        with pytest.raises(NonConvergence, match=(
            r"^log-cosh quadrature at x_a 0\.0037488286740\d*, x_b 6\.00187470712\d*, "
            r"x_theta 1\.99937529281\d* did not settle: \|I_2N - I_N\| = 4\.2\d\de-08 > 1\.000e-10$"
        )):
            expected_loglik(MeanPair([-6.0, 0.0], [6.0, 0.3]), MixtureModel(2, [2.0, 0.0]))


@pytest.mark.filterwarnings("error")
class TestCancellation:
    """At a = b = (s, 0) the second mean runs off, and G tends to
    log(1/2) - log(2 pi) - (2 + |theta*|^2)/2 while its quadratic part and
    its integral grow like -s^2 and +s^2: their sum keeps no digits once
    eps * s^2 passes abs_tol and 1e-12 |G|."""

    MODEL = MixtureModel(2, [1.0, 0.0])
    LIMIT = -math.log(2.0) - math.log(2.0 * math.pi) - 1.5

    @pytest.mark.parametrize("s", [10.0, 300.0])
    def test_a_cell_that_keeps_its_digits_is_returned(self, s):
        got = expected_loglik(MeanPair([0.0, 0.0], [2.0 * s, 0.0]), self.MODEL)
        assert type(got) is float
        assert abs(got - self.LIMIT) <= 1e-10

    def test_a_far_cell_whose_parts_do_not_cancel_is_returned(self):
        """a = (1e4, 0), b = (1, 0): G is about -5e7, and I = 1e4 - log 2 to
        far below its rounding."""
        got = expected_loglik(MeanPair([1e4 - 1.0, 0.0], [1e4 + 1.0, 0.0]), self.MODEL)
        exact = -math.log(2.0 * math.pi) - 0.5 * (2.0 + 1.0 + 1e8 + 1.0) + 1e4 - math.log(2.0)
        assert got == pytest.approx(exact, rel=1e-15)
        assert got == pytest.approx(-49990004.53102425, rel=1e-15)

    def test_a_cell_that_cancels_is_refused(self):
        with pytest.raises(NonConvergence, match=(
            r"^expected log-likelihood at x_a 1000000000\.0, x_b 1000000000\.0, x_theta 1\.0 "
            r"cancels: quad -1e\+18 \+ I 1e\+18 is rounded to within 4\.441e\+02 "
            r"> max\(abs_tol, 1e-12 \|G\|\) = 1\.000e-10$"
        )):
            expected_loglik(MeanPair([0.0, 0.0], [2e9, 0.0]), self.MODEL)

    @pytest.mark.parametrize("s", [1e9])
    def test_the_landscape_command_exits_3(self, tmp_path, capsys, s):
        """The one-cell slice a = b = s wrote G = 0.0 and exited 0."""
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"slice": {"a_lo": s, "a_hi": s, "a_steps": 1,
                                             "b_lo": s, "b_hi": s, "b_steps": 1}}))
        assert main(["landscape", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err.startswith(
            f"numerical error: NonConvergence: expected log-likelihood at x_a {s!r}, ")
        assert not (tmp_path / "o" / "landscape.csv").exists()


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
