"""Tests for the Gauss-Hermite integration layer against closed-form moments
and an independent adaptive-Simpson oracle."""

import math

import numpy as np
import pytest

from emlab import NonConvergence, QuadratureSpec, StopRule
from emlab.quadrature import (
    DEFAULT_SPEC,
    adaptive_simpson,
    integrate_against_gaussian,
    integrate_against_mixture,
    integrate_against_mixture_diff,
    mixture_pdf_1d,
    std_normal_cdf,
    std_normal_pdf,
)


class TestSpecValidation:
    def test_defaults(self):
        assert DEFAULT_SPEC.nodes_per_lobe == 512
        assert DEFAULT_SPEC.abs_tol == 1e-10

    def test_too_few_nodes(self):
        with pytest.raises(ValueError):
            QuadratureSpec(nodes_per_lobe=8, abs_tol=1e-10)

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            QuadratureSpec(nodes_per_lobe=64, abs_tol=0.0)

    @pytest.mark.parametrize("make", [
        lambda: QuadratureSpec(nodes_per_lobe=64.5),
        lambda: QuadratureSpec(nodes_per_lobe=64.0),
        lambda: QuadratureSpec(64, abs_tol=math.inf),
        lambda: QuadratureSpec(64, abs_tol=math.nan),
        lambda: StopRule(True, 1e-10),
    ], ids=["fractional-nodes", "float-nodes", "infinite-tol", "nan-tol", "bool-budget"])
    def test_rejects_what_the_cli_rejects(self, make):
        """A float node count would fail deep in scipy, an infinite tolerance
        would switch off the N/2N self-check, and True would be a budget of
        one step; each is refused when the spec or rule is built."""
        with pytest.raises(ValueError):
            make()


class TestStdNormal:
    def test_pdf_at_zero(self):
        assert std_normal_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-15)

    def test_cdf_symmetry(self):
        """Phi(x) + Phi(-x) = 1, far into both tails."""
        x = np.linspace(-8.0, 8.0, 201)
        np.testing.assert_allclose(std_normal_cdf(x) + std_normal_cdf(-x), 1.0, atol=1e-15)

    def test_cdf_against_erf(self):
        for x in (-3.0, -0.5, 0.0, 0.7, 2.5):
            expected = 0.5 * math.erfc(-x / math.sqrt(2.0))
            assert std_normal_cdf(x) == pytest.approx(expected, abs=1e-15)

    def test_cdf_deep_tail_accuracy(self):
        # erfc keeps relative accuracy where the naive 1 - Phi(x) underflows
        assert std_normal_cdf(-10.0) == pytest.approx(7.619853024160527e-24, rel=1e-13)


class TestGaussianMoments:
    """E f(Y) for Y ~ N(mean, 1) against closed forms."""

    def test_mass(self):
        assert integrate_against_gaussian(lambda y: np.ones_like(y), 1.7) == pytest.approx(1.0, abs=1e-13)

    def test_mean(self):
        assert integrate_against_gaussian(lambda y: y, -0.9) == pytest.approx(-0.9, abs=1e-13)

    def test_second_moment(self):
        m = 1.3
        val = integrate_against_gaussian(lambda y: y * y, m)
        assert val == pytest.approx(1.0 + m * m, rel=1e-13)

    def test_fourth_moment_centered(self):
        assert integrate_against_gaussian(lambda y: y**4, 0.0) == pytest.approx(3.0, rel=1e-13)

    def test_nonpolynomial_against_simpson(self):
        """A bounded transcendental integrand, cross-checked route to route."""
        f = lambda y: np.tanh(0.8 * y) * y
        gh = integrate_against_gaussian(f, 0.6)
        simpson = adaptive_simpson(
            lambda y: f(y) * float(std_normal_pdf(y - 0.6)), -12.0, 12.0, tol=1e-13
        )
        assert gh == pytest.approx(simpson, abs=5e-12)


class TestMixtureMoments:
    def test_mass(self):
        assert integrate_against_mixture(lambda y: np.ones_like(y), 0.8) == pytest.approx(1.0, abs=1e-13)

    def test_mean_is_zero(self):
        """The centered mixture is symmetric, so E Y = 0."""
        assert integrate_against_mixture(lambda y: y, 1.4) == pytest.approx(0.0, abs=1e-13)

    def test_second_moment(self):
        # E Y^2 = 1 + x_theta^2
        assert integrate_against_mixture(lambda y: y * y, 1.0) == pytest.approx(2.0, rel=1e-13)

    def test_pdf_normalizes(self):
        total = adaptive_simpson(lambda y: float(mixture_pdf_1d(y, 0.9)), -14.0, 14.0, tol=1e-13)
        assert total == pytest.approx(1.0, abs=1e-12)


class TestMixtureDifference:
    def test_mass_cancels(self):
        assert integrate_against_mixture_diff(lambda y: np.ones_like(y), 1.1) == pytest.approx(0.0, abs=1e-13)

    def test_first_moment(self):
        """int y Delta(y, x_theta) dy = x_theta."""
        for xt in (0.3, 1.0, 2.2):
            assert integrate_against_mixture_diff(lambda y: y, xt) == pytest.approx(xt, rel=1e-12)

    def test_exact_zero_at_degenerate_separation(self):
        assert integrate_against_mixture_diff(lambda y: np.tanh(y), 0.0) == 0.0


class TestSelfCheck:
    def test_oscillatory_integrand_raises(self):
        """A 16-node rule cannot resolve cos(40 y^2); the N vs 2N check sees it."""
        rough = QuadratureSpec(nodes_per_lobe=16, abs_tol=1e-12)
        with pytest.raises(NonConvergence):
            integrate_against_gaussian(lambda y: np.cos(40.0 * y * y), 0.0, rough)

    def test_smooth_integrand_passes_at_low_order(self):
        rough = QuadratureSpec(nodes_per_lobe=32, abs_tol=1e-9)
        assert integrate_against_gaussian(lambda y: y * y, 0.0, rough) == pytest.approx(1.0, rel=1e-10)


class TestAdaptiveSimpson:
    def test_polynomial(self):
        assert adaptive_simpson(lambda x: x * x, 0.0, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_exponential(self):
        val = adaptive_simpson(math.exp, 0.0, 1.0, tol=1e-13)
        assert val == pytest.approx(math.e - 1.0, rel=1e-13)

    def test_orientation(self):
        forward = adaptive_simpson(math.sin, 0.0, math.pi, tol=1e-12)
        assert forward == pytest.approx(2.0, rel=1e-12)
