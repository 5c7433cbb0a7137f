"""Tests for the Gauss-Hermite integration layer against closed-form moments
and an independent adaptive-Simpson oracle."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc, roots_hermite

import emlab
from emlab import (
    NonConvergence,
    QuadratureSpec,
    StopRule,
    kernel_f,
    kernel_k,
    kernel_pgs,
    kernel_r,
    quadrature,
)
from emlab.landscape import _log_cosh
from emlab.quadrature import (
    DEFAULT_SPEC,
    _gh_rule,
    integrate_against_gaussian,
    integrate_against_mixture,
    integrate_against_mixture_diff,
    std_normal_cdf,
    std_normal_pdf,
)
from oracles import adaptive_simpson


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
        lambda: StopRule(10, True),
        lambda: StopRule(10, math.inf),
        lambda: StopRule(10, math.nan),
    ], ids=["fractional-nodes", "float-nodes", "infinite-tol", "nan-tol", "bool-budget",
            "bool-step-tol", "infinite-step-tol", "nan-step-tol"])
    def test_rejects_what_the_cli_rejects(self, make):
        """A float node count would fail deep in scipy, an infinite tolerance
        would switch off the N/2N self-check, True would be a budget of one
        step, and an infinite step_tol would stop every run after its first
        step; each is refused when the spec or rule is built."""
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


@pytest.mark.parametrize("integrate, point", [
    (integrate_against_gaussian, "center"),
    (integrate_against_mixture, "x_theta"),
    (integrate_against_mixture_diff, "x_theta"),
])
class TestMixtureOnePoint:
    """A 0-d center or x_theta gives a Python float, equal bit for bit to
    its entry in a 1-D batch; a NaN or infinite one fails, named, with no
    numpy warning before the error."""

    CENTRES = [-2.5, -0.0, 0.0, 0.4, 1.7, 3.0]

    @staticmethod
    def f(y):
        return np.tanh(0.7 * (y - 0.3)) * y

    @pytest.mark.parametrize("zero_d", [float, np.float64, np.array])
    def test_zero_d_centre_gives_the_batch_entry_as_a_float(self, integrate, point, zero_d):
        batch = integrate(self.f, np.array(self.CENTRES))
        one_point = [integrate(self.f, zero_d(c)) for c in self.CENTRES]
        assert all(type(v) is float for v in one_point)
        assert np.array(one_point).tobytes() == batch.tobytes()

    def test_the_integrand_may_overwrite_its_nodes(self, integrate, point):
        in_place = integrate(lambda y: np.multiply(y, y, out=y), 1.2)
        assert in_place == integrate(lambda y: y * y, 1.2)

    # y * y is inf on the nodes around an infinite centre, a NaN gap that
    # fails without a warning; a bounded integrand would settle there
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("centre", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_centre_fails_and_is_named(self, integrate, point, centre):
        with pytest.raises(NonConvergence, match=rf"at {point} {centre!r} did not settle"):
            integrate(lambda y: y * y, centre)


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

    def test_nan_gap_does_not_settle(self):
        """A NaN point gives a NaN gap, which is no settled value: the check
        raises and names that point, in a batch too."""
        with pytest.raises(NonConvergence, match="at x_a nan, x_b 1.0, x_theta 1.0 did not settle"):
            kernel_pgs(math.nan, 1.0, 1.0)
        with pytest.raises(NonConvergence, match=r"^F quadrature at x_b nan, x_theta 1.0 did not settle: "
                                                 r"\|I_2N - I_N\| = nan"):
            kernel_f(math.nan, 1.0)
        with pytest.raises(NonConvergence, match="^K quadrature at x 1.0, x_b nan did not settle"):
            kernel_k(1.0, math.nan)
        with pytest.raises(NonConvergence, match="^R quadrature at x_b nan, x 1.0 did not settle"):
            kernel_r(math.nan, 1.0)
        with pytest.raises(NonConvergence, match="at x_a nan, x_b 1.0, x_theta 1.0 did not settle"):
            kernel_pgs(np.array([0.3, math.nan]), 1.0, 1.0)

    def test_smooth_integrand_passes_at_low_order(self):
        rough = QuadratureSpec(nodes_per_lobe=32, abs_tol=1e-9)
        assert integrate_against_gaussian(lambda y: y * y, 0.0, rough) == pytest.approx(1.0, rel=1e-10)


def _untrimmed_rule(n):
    """The whole n-node rule, scaled as _gh_rule scales it."""
    u, w = roots_hermite(n)
    return math.sqrt(2.0) * u, w * (1.0 / math.sqrt(math.pi))


class TestTrimmedRule:
    """_gh_rule keeps only the nodes whose normalised weight is >= 1e-40."""

    RULE_SIZES = [2**k for k in range(4, 12)]  # 16 ... 2048

    @pytest.mark.parametrize("n", RULE_SIZES)
    def test_small_rules_are_whole_and_large_ones_keep_the_live_nodes(self, n):
        y, w = _gh_rule(n)
        full_y, full_w = _untrimmed_rule(n)
        live = full_w >= 1e-40
        if n <= 32:
            assert live.all()
        assert y.tobytes() == full_y[live].tobytes()
        assert w.tobytes() == full_w[live].tobytes()

    @pytest.mark.parametrize("n", RULE_SIZES)
    def test_mirror_symmetric_bit_for_bit(self, n):
        y, w = _gh_rule(n)
        assert np.array_equal(y[::-1], -y)
        assert np.array_equal(w[::-1], w)

    @pytest.mark.parametrize("n", RULE_SIZES)
    def test_dropped_tail_is_negligible_for_quartic_integrands(self, n):
        y, w = _untrimmed_rule(n)
        dead = w < 1e-40
        assert float(np.sum(w[dead] * (1.0 + np.abs(y[dead])) ** 4)) < 1e-30

    @settings(max_examples=40, deadline=None)
    @given(
        x_a=st.floats(-6.0, 6.0),
        x_b=st.floats(0.0, 3.0),
        x_t=st.floats(-6.0, 6.0),
    )
    def test_kernels_agree_with_the_untrimmed_rule(self, x_a, x_b, x_t):
        """P, Gamma, S, F, K, R and the landscape's log-cosh mixture integral
        move by at most 2e-15 at unit scale (relative above 1) when the dead
        tail is kept: the change is summation order, not accuracy."""

        def values():
            log_cosh = quadrature.integrate_against_mixture(
                lambda y: _log_cosh(x_b * (y - x_a)), x_t
            )
            return np.array([
                *kernel_pgs(x_a, x_b, x_t), kernel_f(x_b, x_t), kernel_k(x_a, x_b),
                kernel_r(x_b, x_a), log_cosh,
            ])

        trimmed = values()
        quadrature._gh_pair.cache_clear()
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(quadrature, "_gh_rule", _untrimmed_rule)
                full = values()
        finally:
            quadrature._gh_pair.cache_clear()
        assert np.all(np.abs(trimmed - full) <= 2e-15 * np.maximum(1.0, np.abs(full)))


class TestStoredRules:
    """The default 512/1024-node rules come from the table stored next to
    quadrature.py (TestTrimmedRule pins its bytes against roots_hermite), so
    the default spec needs no scipy."""

    def test_default_spec_loads_no_scipy(self):
        code = (
            "import sys, emlab, emlab.cli; emlab.kernel_pgs(0.5, 1.0, 1.0); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        src = str(Path(emlab.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                              check=True, capture_output=True, text=True, timeout=120)
        assert done.stdout.split() == ["[]"]

    def test_a_missing_table_raises(self, tmp_path, monkeypatch):
        """No silent fallback to scipy: a packaging slip must show."""
        monkeypatch.setattr(quadrature, "_STORED_RULES", tmp_path / "gh_rules.npz")
        _gh_rule.cache_clear()
        try:
            with pytest.raises(FileNotFoundError):
                _gh_rule(512)
        finally:
            _gh_rule.cache_clear()

    def test_stored_rules_are_read_only(self):
        for n in (512, 1024):
            assert not any(a.flags.writeable for a in _gh_rule(n))

    def test_cdf_is_scipy_erfc_bit_for_bit(self):
        x = np.linspace(-12.0, 12.0, 97)
        assert std_normal_cdf(x).tobytes() == (0.5 * erfc(-x / math.sqrt(2.0))).tobytes()
