"""Scalar kernel tests: frozen reference values, linking identities, and the
inequality battery that the population-step analysis leans on.

Reference digits were frozen from an adaptive-Simpson evaluation of each
defining integral at tol 1e-13 (an independent route from the Gauss-Hermite
rule the implementation uses); the Monte Carlo class keeps a third route
alive for one pinned case.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emlab import (
    DomainError,
    eval_aux_bounds,
    kernel_f,
    kernel_gamma,
    kernel_k,
    kernel_p,
    kernel_r,
    kernel_s,
)
from emlab.kernels import SQRT_2_OVER_PI, tabulate, weight_1d
from emlab.quadrature import std_normal_cdf

coord = st.floats(min_value=0.0, max_value=3.0, allow_nan=False)


class TestWeight:
    def test_complement_is_exact(self):
        """w(u) + w(-u) = 1 bit for bit (tanh is odd in floating point)."""
        u = np.linspace(-30.0, 30.0, 1001)
        assert np.all(weight_1d(u, 1.7) + weight_1d(-u, 1.7) == 1.0)

    def test_saturation(self):
        # tanh rounds to +-1 near |z| ~ 19, so the weight hits the endpoints exactly
        assert weight_1d(40.0, 1.0) == 1.0
        assert weight_1d(-40.0, 1.0) == 0.0

    def test_zero_argument(self):
        assert weight_1d(0.0, 2.3) == 0.5


class TestFrozenValues:
    """Digits frozen from the Simpson oracle; rtol covers the route gap."""

    def test_P(self):
        assert kernel_p(0.7, 1.3, 0.9) == pytest.approx(0.3296617510062864, rel=1e-11)

    def test_Gamma(self):
        assert kernel_gamma(0.5, 0.8, 1.2) == pytest.approx(0.5243718184146846, rel=1e-11)

    def test_S(self):
        assert kernel_s(0.3, 1.1, 0.9) == pytest.approx(0.25386497081111614, rel=1e-11)

    def test_R(self):
        assert kernel_r(1.0, 0.0) == pytest.approx(0.15142637740050227, rel=1e-11)

    def test_F(self):
        assert kernel_f(1.0, 2.0) == pytest.approx(1.9180266733000182, rel=1e-11)

    def test_K(self):
        assert kernel_k(1.0, 1.0) == pytest.approx(0.2752002453966636, rel=1e-11)

    def test_aux_bounds(self):
        aux = eval_aux_bounds(0.8)
        np.testing.assert_allclose(
            aux,
            (1.0404144677895306, 0.12020723389476531, 0.10021018787071834, 0.048828917757664236),
            rtol=1e-13,
        )


class TestSpotValues:
    def test_P_at_zero_offset(self):
        """P(0, x_b, x_theta) = 1/2: the weight is balanced over the mixture."""
        for x_b, x_t in ((0.4, 0.0), (1.0, 1.0), (2.3, 0.7)):
            assert kernel_p(0.0, x_b, x_t) == pytest.approx(0.5, abs=1e-14)

    def test_F_fixed_points(self):
        for x_t in (0.5, 1.0, 2.0):
            assert kernel_f(x_t, x_t) == pytest.approx(x_t, abs=1e-13)

    def test_F_vanishes_at_zero_weight_slope(self):
        assert kernel_f(0.0, 1.3) == 0.0

    def test_K_vanishes_at_origin(self):
        assert kernel_k(0.0, 1.3) == pytest.approx(0.0, abs=1e-15)
        assert kernel_k(1.3, 0.0) == 0.0

    def test_S_degenerate_arguments(self):
        assert kernel_s(0.5, 1.0, 0.0) == 0.0
        assert kernel_s(0.5, 0.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_R_vanishes_at_flat_weight(self):
        assert kernel_r(0.0, 1.0) == pytest.approx(0.0, abs=1e-15)


class TestIdentities:
    """The linking identities connecting the six kernels."""

    @settings(max_examples=25, deadline=None)
    @given(x_b=coord, x_t=coord)
    def test_gamma_at_centered_offset_is_half_F(self, x_b, x_t):
        assert kernel_gamma(0.0, x_b, x_t) == pytest.approx(kernel_f(x_b, x_t) / 2.0, abs=1e-11)

    @settings(max_examples=25, deadline=None)
    @given(x_a=coord, x_b=coord, x_t=coord)
    def test_gamma_splits_into_S_and_R(self, x_a, x_b, x_t):
        lhs = kernel_gamma(x_a, x_b, x_t)
        rhs = x_t * kernel_s(x_a, x_b, x_t) + kernel_r(x_b, x_a - x_t) + kernel_r(x_b, x_a + x_t)
        assert lhs == pytest.approx(rhs, abs=1e-11)

    @settings(max_examples=25, deadline=None)
    @given(x_a=coord, x_b=coord, x_t=coord)
    def test_one_minus_2P_is_a_K_difference(self, x_a, x_b, x_t):
        lhs = 1.0 - 2.0 * kernel_p(x_a, x_b, x_t)
        rhs = kernel_k(x_t + x_a, x_b) - kernel_k(x_t - x_a, x_b)
        assert lhs == pytest.approx(rhs, abs=1e-11)

    def test_identities_on_a_fixed_grid(self):
        """Deterministic sweep of the same identities (no sampling in the way)."""
        grid = np.linspace(0.0, 3.0, 7)
        worst = 0.0
        for x_a in grid:
            for x_b in grid:
                for x_t in grid:
                    g = kernel_gamma(x_a, x_b, x_t)
                    split = (
                        x_t * kernel_s(x_a, x_b, x_t)
                        + kernel_r(x_b, x_a - x_t)
                        + kernel_r(x_b, x_a + x_t)
                    )
                    worst = max(worst, abs(g - split))
        assert worst <= 1e-10


class TestInequalities:
    grid = np.linspace(0.0, 3.0, 10)

    def test_P_dominates_S(self):
        """P > S >= 0 whenever x_b > 0."""
        for x_a in self.grid:
            for x_b in self.grid[1:]:
                for x_t in self.grid:
                    p = kernel_p(x_a, x_b, x_t)
                    s = kernel_s(x_a, x_b, x_t)
                    assert p > s
                    assert s >= -1e-12

    def test_P_lower_bound(self):
        """Gaussian-tail lower bound for x_a >= x_theta; flat 1/4 otherwise."""
        for x_a in self.grid:
            for x_b in self.grid:
                for x_t in self.grid:
                    p = kernel_p(x_a, x_b, x_t)
                    if x_a >= x_t:
                        bound = 0.5 * (1.0 - std_normal_cdf(x_a - x_t)) + 0.5 * (
                            1.0 - std_normal_cdf(x_a + x_t)
                        )
                        assert p >= bound - 1e-12
                    else:
                        assert p >= 0.25 - 1e-12

    def test_gamma_over_P_bound(self):
        """Gamma / (2P) <= (x_a + sqrt(2/pi)) / 2 on x_a >= x_theta."""
        for x_a in self.grid:
            for x_b in self.grid:
                for x_t in self.grid[self.grid <= x_a]:
                    lhs = kernel_gamma(x_a, x_b, x_t) / (2.0 * kernel_p(x_a, x_b, x_t))
                    assert lhs <= 0.5 * (x_a + SQRT_2_OVER_PI) + 1e-12

    def test_midpoint_drift_ratio(self):
        """Gamma (1-2P) / (2P(1-P)) <= kappa x_a: below 0.999 x_a everywhere,
        and below (1/2 + 1/pi) x_a on the x_a >= x_theta cone."""
        margin = 0.5 + 1.0 / math.pi
        for x_a in np.linspace(0.05, 3.0, 10):
            for x_b in self.grid:
                for x_t in self.grid:
                    p = kernel_p(x_a, x_b, x_t)
                    ratio = kernel_gamma(x_a, x_b, x_t) * (1.0 - 2.0 * p) / (2.0 * p * (1.0 - p))
                    assert ratio <= 0.999 * x_a
                    if x_a >= x_t:
                        assert ratio <= margin * x_a

    def test_F_pullback_ratio_below_one(self):
        """sup |F(x_b, x_t) - x_t| / |x_b - x_t| < 1 away from the diagonal."""
        axis = np.linspace(0.25, 3.0, 12)
        sup = max(
            abs(kernel_f(x_b, x_t) - x_t) / abs(x_b - x_t)
            for x_b in axis
            for x_t in axis
            if x_b != x_t
        )
        assert sup < 1.0

    def test_aux_bounds_positive(self):
        for x in np.linspace(0.05, 6.0, 40):
            aux = eval_aux_bounds(x)
            assert aux.J > 0.0
            assert aux.mills_gap > 0.0
            assert aux.W > 0.0

    def test_l_ratio_below_half(self):
        """l(x) (1/2 - Phi(-x)) / x < 1/2, the J > 0 statement rearranged."""
        for x in np.linspace(0.05, 6.0, 40):
            aux = eval_aux_bounds(x)
            assert aux.l * (0.5 - std_normal_cdf(-x)) / x < 0.5


class TestShape:
    def test_P_decreasing_in_offset(self):
        vals = [kernel_p(x_a, 1.0, 1.0) for x_a in np.linspace(0.0, 3.0, 13)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_F_concave_nondecreasing_in_x_b(self):
        xs = np.linspace(0.1, 3.0, 9)
        vals = [kernel_f(x, 1.0) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        h = xs[1] - xs[0]
        second = np.diff(vals, 2) / h**2
        assert np.max(second) <= 1e-7

    def test_K_concave_increasing(self):
        xs = np.linspace(0.1, 3.0, 9)
        vals = [kernel_k(x, 1.0) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        h = xs[1] - xs[0]
        second = np.diff(vals, 2) / h**2
        assert np.max(second) <= 1e-7

    def test_gamma_slope_in_x_b_at_zero(self):
        """d Gamma / d x_b at x_b = 0 equals (1 + x_theta^2) / 2."""
        h = 1e-4
        for x_t in (0.0, 0.7, 1.5):
            fd = (kernel_gamma(0.4, h, x_t) - kernel_gamma(0.4, 0.0, x_t)) / h
            assert fd == pytest.approx(0.5 * (1.0 + x_t * x_t), abs=1e-6)


class TestMonteCarloRoute:
    def test_F_against_simulation(self):
        """Third route for F(0.5, 1.0): sample the defining expectation."""
        rng = np.random.default_rng(5150)
        u = rng.standard_normal(400_000) + 1.0
        draws = np.tanh(u * 0.5) * u
        mc = float(draws.mean())
        se = float(draws.std(ddof=1)) / math.sqrt(draws.size)
        assert kernel_f(0.5, 1.0) == pytest.approx(mc, abs=4.0 * se)


class TestValidation:
    def test_aux_bounds_domain(self):
        with pytest.raises(DomainError):
            eval_aux_bounds(0.0)
        with pytest.raises(DomainError):
            eval_aux_bounds(-1.0)
        with pytest.raises(DomainError):
            eval_aux_bounds(float("inf"))


class TestTabulate:
    def test_grid_shape_and_order(self):
        rows = tabulate([0.0, 1.0], [0.5], [0.0, 2.0])
        assert len(rows) == 4
        # row-major: x_a slowest, x_theta fastest
        assert [(r[0], r[1], r[2]) for r in rows] == [
            (0.0, 0.5, 0.0),
            (0.0, 0.5, 2.0),
            (1.0, 0.5, 0.0),
            (1.0, 0.5, 2.0),
        ]

    def test_row_contents(self):
        (row,) = tabulate([0.7], [1.3], [0.9])
        assert row[3] == kernel_p(0.7, 1.3, 0.9)
        assert row[4] == kernel_gamma(0.7, 1.3, 0.9)
        assert row[5] == kernel_s(0.7, 1.3, 0.9)
        assert row[6] == kernel_f(1.3, 0.9)
        assert row[7] == kernel_k(0.7, 1.3)
