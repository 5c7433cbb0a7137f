"""Scalar kernel tests: frozen reference values, linking identities, and the
inequality battery that the population-step analysis leans on.

Reference digits were frozen from an adaptive-Simpson evaluation of each
defining integral at tol 1e-13 (an independent route from the Gauss-Hermite
rule the implementation uses); the Monte Carlo class keeps a third route
alive for one pinned case.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emlab import (
    DomainError,
    NonConvergence,
    QuadratureSpec,
    eval_aux_bounds,
    kernel_f,
    kernel_gamma,
    kernel_k,
    kernel_p,
    kernel_pgs,
    kernel_r,
    kernel_s,
)
from emlab.kernels import SQRT_2_OVER_PI, tabulate
from emlab.quadrature import (
    DEFAULT_SPEC,
    _gh_rule,
    integrate_against_gaussian,
    std_normal_cdf,
    std_normal_pdf,
)
from oracles import adaptive_simpson, mixture_pdf_1d, weight_1d

coord = st.floats(min_value=0.0, max_value=3.0, allow_nan=False)


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


class TestCore:
    """kernel_pgs, the one evaluation behind P, Gamma and S."""

    @pytest.mark.parametrize(
        "x_a, x_b, x_t",
        [(0.0, 1.3, 0.9), (0.7, 1.1, 0.0), (0.4, 1e-4, 1.2), (-0.8, 0.9, -1.1)],
    )
    def test_matches_simpson_of_the_defining_integrals(self, x_a, x_b, x_t):
        def w(y):
            return float(weight_1d(y - x_a, x_b))

        def delta(y):
            return 0.5 * (std_normal_pdf(y - x_t) - std_normal_pdf(y + x_t))

        lo, hi = -abs(x_t) - 12.0, abs(x_t) + 12.0
        expected = (
            adaptive_simpson(lambda y: w(y) * mixture_pdf_1d(y, x_t), lo, hi, tol=1e-13),
            adaptive_simpson(lambda y: w(y) * y * mixture_pdf_1d(y, x_t), lo, hi, tol=1e-13),
            adaptive_simpson(lambda y: w(y) * delta(y), lo, hi, tol=1e-13),
        )
        np.testing.assert_allclose(kernel_pgs(x_a, x_b, x_t), expected, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("x_t", [0.0, -0.0])
    def test_S_is_exactly_zero_on_the_orthogonal_slice(self, x_t):
        for x_a, x_b in ((0.0, 1.0), (0.5, 2.0), (-1.3, 0.3)):
            assert kernel_pgs(x_a, x_b, x_t)[2] == 0.0

    @pytest.mark.parametrize("x_t", [0.0, -0.0])
    def test_orthogonal_slice_equals_the_two_lobe_sums_bitwise(self, x_t):
        """At x_theta == +-0.0 the core sums one lobe and uses it for both;
        that is the same float as summing both lobes of the 2N rule."""
        y_nodes, weights = _gh_rule(2 * DEFAULT_SPEC.nodes_per_lobe)
        for x_a, x_b in ((0.0, 1.0), (0.5, 2.0), (-1.3, 0.3), (2.2, 0.05)):
            t0, t1 = [], []
            for center in (x_t, -x_t):
                y = center + y_nodes
                t = np.tanh((y - x_a) * x_b)
                t0.append(float(np.dot(weights, t)))
                t1.append(float(np.dot(weights, t * y)))
            expected = (
                0.5 + 0.25 * (t0[0] + t0[1]), 0.25 * (t1[0] + t1[1]), 0.25 * (t0[0] - t0[1])
            )
            got = kernel_pgs(x_a, x_b, x_t)
            assert np.array(got).tobytes() == np.array(expected).tobytes()

    def test_P_is_exactly_half_at_flat_weight(self):
        for x_a, x_t in ((0.0, 0.0), (0.9, 1.4), (-2.0, -0.5)):
            assert kernel_pgs(x_a, 0.0, x_t)[0] == 0.5

    def test_gamma_at_the_centered_orthogonal_point_is_half_F_bitwise(self):
        for x_b in (1e-4, 0.05, 1.0, 2.5):
            assert kernel_pgs(0.0, x_b, 0.0)[1] == kernel_f(x_b, 0.0) / 2.0

    def test_rough_rule_fails_its_self_check(self):
        with pytest.raises(NonConvergence):
            kernel_pgs(0.3, 8.0, 1.0, QuadratureSpec(nodes_per_lobe=16, abs_tol=1e-14))


# points with the exact cases mixed in: the orthogonal slice x_theta = +-0.0
# (one lobe when a call holds only such points) and the flat weight x_b = 0
batch_point = st.tuples(
    st.floats(-4.0, 4.0) | st.just(0.0),
    st.floats(0.0, 2.5) | st.just(0.0),
    st.floats(-4.0, 4.0) | st.sampled_from([0.0, -0.0]),
)


class TestBatches:
    """Every kernel takes 1-D arrays of points; each point's values are its
    one-point call's, bit for bit, however the points are split."""

    @settings(max_examples=40, deadline=None)
    @given(points=st.lists(batch_point, min_size=1, max_size=12), chunk=st.integers(1, 12))
    def test_chunked_arrays_equal_one_point_calls_byte_for_byte(self, points, chunk):
        x_a, x_b, x_t = (np.array(axis) for axis in zip(*points))

        def one_point(a, b, t):
            return [*kernel_pgs(a, b, t), kernel_f(b, t), kernel_k(a, b), kernel_r(b, a)]

        def batch(a, b, t):
            return np.array([*kernel_pgs(a, b, t), kernel_f(b, t), kernel_k(a, b), kernel_r(b, a)])

        expected = np.array([one_point(*p) for p in points])
        got = np.concatenate([
            batch(x_a[lo:lo + chunk], x_b[lo:lo + chunk], x_t[lo:lo + chunk]).T
            for lo in range(0, len(points), chunk)
        ])
        assert got.tobytes() == expected.tobytes()

    def test_floats_in_give_floats_out(self):
        assert all(type(v) is float for v in kernel_pgs(0.3, 1.0, 0.5))
        others = (kernel_f(1.0, 0.5), kernel_k(0.3, 1.0), kernel_r(1.0, 0.3))
        assert all(type(v) is float for v in others)
        p, g, s = kernel_pgs(np.array([0.3]), 1.0, np.array([0.5, -0.5]))
        assert p.shape == g.shape == s.shape == (2,)

    def test_a_batch_names_its_unresolved_point(self):
        """At x_b = 8 the 16-node rule cannot resolve the weight (as in
        test_rough_rule_fails_its_self_check); the points around it settle on
        their own, and the batch's error names the one that does not."""
        rough = QuadratureSpec(nodes_per_lobe=16, abs_tol=1e-3)
        x_a = np.array([0.0, -0.4, 0.3, 1.2])
        x_b = np.array([0.2, 1.0, 8.0, 0.5])
        x_t = np.array([0.0, 0.5, 1.0, -0.7])
        for i in (0, 1, 3):
            kernel_pgs(x_a[i], x_b[i], x_t[i], rough)
        with pytest.raises(NonConvergence, match="at x_a 0.3, x_b 8.0, x_theta 1.0 did not settle"):
            kernel_pgs(x_a, x_b, x_t, rough)


# (x_a, x_b, x_theta) points for the one-point contract: the exact cases
# (x_theta = +-0.0, x_b = 0, a subnormal x_b), ordinary points, and points
# whose self-check fails for some kernels (x_b = 4 near the lobe, x_b = 8,
# x_theta = inf, a NaN)
ONE_POINTS = [
    (0.3, 1.2, 0.8), (0.0, 1.0, 0.0), (0.5, 2.0, -0.0), (0.7, 0.0, 0.9),
    (-1.3, 0.3, -1.1), (2.2, 0.05, 1.5), (-4.0, 1e-310, 2.0), (0.0, 2.5, -3.0),
    (3.5, 4.0, 4.0), (0.0, 8.0, 0.0), (0.5, 1.0, math.inf), (math.nan, 1.0, 1.0),
]
# each kernel with its arguments at a point (x_a, x_b, x_theta)
KERNEL_ARGS = {
    "pgs": (kernel_pgs, lambda a, b, t: (a, b, t)),
    "F": (kernel_f, lambda a, b, t: (b, t)),
    "K": (kernel_k, lambda a, b, t: (a, b)),
    "R": (kernel_r, lambda a, b, t: (b, a)),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestOnePoint:
    """A call whose points are all 0-d (floats, numpy scalars or 0-d arrays)
    gives Python floats, each equal bit for bit to the point's entry in a
    batched call; where one path raises NonConvergence, so does the other,
    with no numpy warning before the error."""

    @pytest.mark.parametrize("zero_d", [float, np.float64, np.array])
    @pytest.mark.parametrize("name", KERNEL_ARGS)
    def test_zero_d_points_give_floats_equal_to_the_batch(self, name, zero_d):
        kernel, args = KERNEL_ARGS[name]
        settled, unsettled = [], []
        for point in ONE_POINTS:
            try:
                got = kernel(*(zero_d(v) for v in args(*point)))
            except NonConvergence:
                unsettled.append(args(*point))
                continue
            values = got if name == "pgs" else (got,)
            assert all(type(v) is float for v in values)
            settled.append((args(*point), values))
        assert settled and unsettled
        batch = kernel(*(np.array(axis) for axis in zip(*(a for a, _ in settled))))
        one_point = np.array([values for _, values in settled]).T
        assert np.reshape(batch, one_point.shape).tobytes() == one_point.tobytes()
        # an unsettled point fails its batch too, whatever settles around it
        for point in unsettled:
            with pytest.raises(NonConvergence):
                kernel(*(np.array([v, w]) for v, w in zip(settled[0][0], point)))

    # every coordinate by name, with its argument position in each kernel
    COORDS = [
        ("pgs", 0, "x_a"), ("pgs", 1, "x_b"), ("pgs", 2, "x_theta"),
        ("F", 0, "x_b"), ("F", 1, "x_theta"),
        ("K", 0, "x"), ("K", 1, "x_b"),
        ("R", 0, "x_b"), ("R", 1, "x"),
    ]

    @pytest.mark.parametrize("name, pos, coord", COORDS)
    def test_a_nan_coordinate_fails_and_is_named(self, name, pos, coord):
        kernel, args = KERNEL_ARGS[name]
        point = list(args(0.5, 1.0, 1.0))
        point[pos] = math.nan
        with pytest.raises(NonConvergence, match=rf"\b{coord} nan\b.* = nan > "):
            kernel(*point)

    @pytest.mark.parametrize(
        "name, pos, coord",
        [c for c in COORDS if c[2] in ("x_b", "x_theta")],
    )
    @pytest.mark.parametrize("inf", [math.inf, -math.inf])
    def test_an_infinite_scale_or_centre_fails_and_is_named(self, name, pos, coord, inf):
        kernel, args = KERNEL_ARGS[name]
        point = list(args(0.5, 1.0, 1.0))
        point[pos] = inf
        with pytest.raises(NonConvergence, match=rf"\b{coord} {inf!r}\b"):
            kernel(*point)

    def test_an_infinite_offset_is_the_exact_limit(self):
        """At x_a = +-inf the weight is 0 or 1 on every node, so both rules
        agree: that is the limit of the integral, not a failure."""
        assert kernel_pgs(math.inf, 1.0, 1.0) == (0.0, 0.0, 0.0)
        assert kernel_pgs(-math.inf, 1.0, 1.0) == (1.0, 0.0, 0.0)
        assert kernel_k(math.inf, 1.0) == 0.5

    def test_a_nan_gap_among_settled_values_fails(self):
        """At x_theta = inf the gaps of P and S are 0 and only Gamma's is
        NaN; the largest gap by max() would be 0 and pass."""
        with pytest.raises(
            NonConvergence,
            match=re.escape("at x_a 0.5, x_b 1.0, x_theta inf did not settle: |I_2N - I_N| = nan"),
        ):
            kernel_pgs(0.5, 1.0, math.inf)

    def test_the_near_lobe_failure_message_is_pinned(self):
        with pytest.raises(NonConvergence) as failure:
            kernel_pgs(3.5, 4.0, 4.0)
        assert str(failure.value) == (
            "(P, Gamma, S) quadrature at x_a 3.5, x_b 4.0, x_theta 4.0 did not settle: "
            "|I_2N - I_N| = 6.658e-09 > 1.000e-10"
        )


class TestOneCore:
    """F, K and R are views of the core behind kernel_pgs: F and K keep the
    bytes of their lobe integrals, and R leaves its w-form by at most the
    rounding of the constant half it drops (int y phi(y) dy = 0)."""

    @settings(max_examples=40, deadline=None)
    @given(points=st.lists(batch_point, min_size=1, max_size=64))
    @example(points=[(-4.0, 1e-310, 1.0), (0.3, 1e-310, 0.0), (2.7, 1e-310, -2.0)])
    def test_F_and_K_equal_their_lobe_integrals_byte_for_byte(self, points):
        x_a, x_b, x_t = (np.array(axis) for axis in zip(*points))
        b = x_b[:, None]
        f = integrate_against_gaussian(lambda u: np.tanh(u * b) * u, x_t)
        k = integrate_against_gaussian(lambda y: 0.5 * np.tanh(y * b), x_a)
        assert kernel_f(x_b, x_t).tobytes() == f.tobytes()
        # K halves its sum once, the lobe integral each term; the two differ
        # only where the halved terms are subnormal (x_b below ~1e-277)
        got = kernel_k(x_a, x_b)
        exact = (x_b == 0.0) | (x_b > 1e-250)
        assert got[exact].tobytes() == k[exact].tobytes()
        assert np.all(np.abs(got - k) <= 1e-315)

    @settings(max_examples=40, deadline=None)
    @given(points=st.lists(batch_point, min_size=1, max_size=64))
    def test_R_is_its_w_form_to_rounding(self, points):
        x_a, x_b, _ = (np.array(axis) for axis in zip(*points))
        a, b = x_a[:, None], x_b[:, None]
        w_form = 0.5 * integrate_against_gaussian(
            lambda y: weight_1d(y - a, b) * y, np.zeros_like(x_a)
        )
        assert np.all(np.abs(kernel_r(x_b, x_a) - w_form) <= 1e-16)


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
        assert kernel_r(0.0, 1.0) == 0.0


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
