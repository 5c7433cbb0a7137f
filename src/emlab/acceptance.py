"""The thirteen-point acceptance suite.

``CRITERIA`` is the one table of the suite: entry k - 1 is the title and the
check of criterion k.  Each check ``criterion_k`` is deterministic (pinned
seeds) and self-contained, and returns a pass flag and a one-line detail
string.  ``run_one(k)`` times check k and wraps its verdict in a
CriterionResult.  The `verify` CLI subcommand and the acceptance test module
both go through ``run_one``, so a terminal table and the test run can never
disagree.

Criterion 1 runs every kernel over its flattened grid in chunks of points
(``kernels._chunked``), bitwise equal to one-point calls.  Shared heavy
artifacts (the fifty free-means trajectories behind criteria 5-7) are
computed once per process and cached.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import ABState, MeanPair, MixtureModel, from_ab, state_distance, to_ab
from .harness import concentration_check, consistency_ladder, contraction_estimate
from .kernels import (
    SQRT_2_OVER_PI,
    _chunked,
    eval_aux_bounds,
    kernel_f,
    kernel_k,
    kernel_pgs,
    kernel_r,
)
from .landscape import Classification, classify_stationary, grad_G
from .population import (
    StopRule,
    Trajectory,
    _betas,
    _sign_target,
    a_priori_bounds,
    model2_step,
    run,
    run_model1,
)
from .quadrature import DEFAULT_SPEC, std_normal_cdf
from .sampling import model2_step_ab, model2_step_mu, sample_mixture

_GRID = np.linspace(0.0, 3.0, 20)
# criterion 1's inequalities, in the order its notes list them at a point
_INEQUALITIES = ("P>S>=0", "Gamma/(2P) bound", "P lower bound", "P >= 1/4")
_A_MARGIN = 0.5 + 1.0 / math.pi + 0.05


@dataclass(frozen=True)
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str
    seconds: float


def _max_gap(x: ABState, y: ABState) -> float:
    """Largest coordinate difference between two (a, b) states."""
    return max(float(np.max(np.abs(x.a - y.a))), float(np.max(np.abs(x.b - y.b))))


def criterion_1() -> tuple[bool, str]:
    """Kernel identities and inequalities on the 20^3 grid of [0,3]^3, each
    kernel run over the flattened grid in chunks of points."""
    tol = 1e-9
    xa, xb, xt = (v.ravel() for v in np.meshgrid(_GRID, _GRID, _GRID, indexing="ij"))
    p, g, s = _chunked(kernel_pgs, DEFAULT_SPEC, xa, xb, xt)
    at0 = xa == 0.0
    r_minus, r_plus = (_chunked(kernel_r, DEFAULT_SPEC, xb, x) for x in (xa - xt, xa + xt))
    k_plus, k_minus = (_chunked(kernel_k, DEFAULT_SPEC, x, xb) for x in (xt + xa, xt - xa))
    residuals = (
        g[at0] - 0.5 * _chunked(kernel_f, DEFAULT_SPEC, xb[at0], xt[at0]),
        g - (xt * s + r_minus + r_plus),
        (1.0 - 2.0 * p) - (k_plus - k_minus),
    )
    half_f, srr, kdiff = (float(np.max(np.abs(r), initial=0.0)) for r in residuals)
    upper = xa >= xt
    lower = 0.5 * (1.0 - std_normal_cdf(xa - xt)) + 0.5 * (1.0 - std_normal_cdf(xa + xt))
    # failing[i, k]: inequality k fails at point i (row-major grid order)
    failing = np.stack((
        (xb > 0.0) & ~((p > s) & (s > -tol)),
        upper & (g > 2.0 * p * (xa + SQRT_2_OVER_PI) / 2.0 + tol),
        upper & (p < lower - tol),
        ~upper & (p < 0.25 - tol),
    ), axis=1)
    notes = [
        f"{_INEQUALITIES[k]} fails at {(float(xa[i]), float(xb[i]), float(xt[i]))}"
        for i, k in np.argwhere(failing)
    ]
    aux_ok = True
    for x in _GRID[_GRID > 0.0]:
        bounds = eval_aux_bounds(x)
        if not (bounds.J > 0.0 and bounds.mills_gap > 0.0):
            aux_ok = False
            notes.append(f"aux positivity fails at x={x}")
    identity_ok = all(v <= tol for v in (half_f, srr, kdiff))
    passed = identity_ok and not failing.any() and aux_ok
    detail = (
        f"identity residuals: half-F {half_f:.2e}, "
        f"S/R split {srr:.2e}, K-difference {kdiff:.2e}"
    )
    if notes:
        detail += "; " + "; ".join(notes[:3])
    return passed, detail


def criterion_2() -> tuple[bool, str]:
    """The truth (0, theta*) is a fixed point of the free-means update."""
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 9))
        direction = rng.standard_normal(d)
        direction /= np.linalg.norm(direction)
        theta = float(rng.uniform(0.3, 2.5)) * direction
        model = MixtureModel(d, theta)
        state = ABState(np.zeros(d), theta.copy())
        new_state, _ = model2_step(state, model)
        worst = max(worst, state_distance(new_state, state))
    return worst <= 1e-10, f"worst fixed-point drift {worst:.2e} over 20 draws"


def criterion_3() -> tuple[bool, str]:
    """Symmetric-model population EM contracts at every step and converges."""
    rng = np.random.default_rng(31)
    dims = (1, 2, 3, 8)
    bad_ratio = 0
    worst_final = 0.0
    max_ratio = 0.0
    for i in range(50):
        d = dims[i % 4]
        theta_dir = rng.standard_normal(d)
        theta_dir /= np.linalg.norm(theta_dir)
        theta = float(rng.uniform(0.25, 2.0)) * theta_dir
        while True:
            init = rng.standard_normal(d)
            init *= float(rng.uniform(0.1, 2.0)) * np.linalg.norm(theta) / np.linalg.norm(init)
            cos = float(init @ theta) / (np.linalg.norm(init) * np.linalg.norm(theta))
            if abs(cos) >= 0.05:
                break
        model = MixtureModel(d, theta)
        iters = run_model1(init, model, StopRule(max_iters=10_000, step_tol=1e-10))
        errs = np.linalg.norm(iters - _sign_target(init, model), axis=1)
        # a bit-identical stall pair (step size exactly zero) carries no
        # contraction information, so its vacuous ratio of 1 is excluded
        steps = np.linalg.norm(iters[1:] - iters[:-1], axis=1)
        pos = (errs[:-1] > 0.0) & (steps > 0.0)
        ratios = errs[1:][pos] / errs[:-1][pos]
        if ratios.size and float(ratios.max()) >= 1.0:
            bad_ratio += 1
        if ratios.size:
            max_ratio = max(max_ratio, float(ratios.max()))
        worst_final = max(worst_final, float(errs[-1]))
    passed = bad_ratio == 0 and worst_final <= 1e-8
    return passed, (
        f"max per-step error ratio {max_ratio:.6f}, worst final error "
        f"{worst_final:.2e}, {bad_ratio} runs with a non-contracting step"
    )


def criterion_4() -> tuple[bool, str]:
    """Exactly-orthogonal inits stay orthogonal and collapse to zero at EM's
    exact singular-regime rate.

    For theta orthogonal to theta_star, Stein's lemma gives the locked-means
    step exactly as theta+ = theta * E[sech^2(|theta| g)], g ~ N(0, 1), so

        |theta+|^-2 = |theta|^-2 + 2 - |theta|^2 + O(|theta|^4)

    and the norm decays like (2t)^{-1/2}, not geometrically.  Every init runs
    the full budget T; each iterate must stay bitwise orthogonal to
    theta_star and strictly shrink in norm, and the slope
    L = (|theta_T|^-2 - |theta_0|^-2) / (2T) must satisfy |L - 1| <= 1e-3.
    From O(1) inits L = 1 - ln T / (4T) + o(ln T / T); a stalled or
    overshooting update (a nonzero fixed point, or a contraction factor off
    by 1e-3) puts L far from 1.
    """
    budget = 10_000
    cases = [
        (2, 1.0, np.array([0.0, 1.0])),
        (3, 1.0, np.array([0.0, 0.7, -0.4])),
        (2, 0.5, np.array([0.0, 0.25])),
        (3, 1.0, np.array([0.0, 1e-4, 0.0])),
    ]
    exact_ok = True
    monotone_ok = True
    final_norms = []
    slopes = []
    for d, tnorm, theta0 in cases:
        theta_star = np.zeros(d)
        theta_star[0] = tnorm
        iters = run_model1(theta0, MixtureModel(d, theta_star), StopRule(budget, 0.0))
        norms = np.linalg.norm(iters, axis=1)
        exact_ok &= bool(np.all(iters @ theta_star == 0.0))
        monotone_ok &= bool(np.all(norms[1:] < norms[:-1]))
        norm0, norm = float(norms[0]), float(norms[-1])
        final_norms.append(norm)
        slopes.append((norm**-2 - norm0**-2) / (2 * budget) if norm > 0.0 else math.inf)
    slope_ok = all(abs(v - 1.0) <= 1e-3 for v in slopes)
    passed = exact_ok and monotone_ok and slope_ok
    detail = (
        f"orthogonality exact for every iterate: {exact_ok}; norm strictly "
        f"decreasing: {monotone_ok}; L = (|theta_T|^-2 - |theta_0|^-2)/(2T) "
        f"at T={budget}: "
        + ", ".join(f"{v:.7f}" for v in slopes)
        + f" (need |L-1| <= 1e-3; O(1) inits predict 1 - ln T/(4T) = "
        f"{1.0 - math.log(budget) / (4 * budget):.7f}); norms after budget: "
        + ", ".join(f"{v:.3e}" for v in final_norms)
    )
    return passed, detail


# ------------------------------------------------------- criteria 5-7 (runs)


@lru_cache(maxsize=1)
def _contraction_runs() -> tuple[tuple[ABState, MixtureModel, Trajectory], ...]:
    rng = np.random.default_rng(47)
    dims = (2, 3, 8)
    out = []
    for i in range(50):
        d = dims[i % 3]
        theta_dir = rng.standard_normal(d)
        theta_dir /= np.linalg.norm(theta_dir)
        theta = float(rng.uniform(0.25, 2.0)) * theta_dir
        tnorm = float(np.linalg.norm(theta))
        while True:
            b0 = rng.standard_normal(d)
            b0 *= float(rng.uniform(0.25, 1.5)) * tnorm / np.linalg.norm(b0)
            cos = float(b0 @ theta) / (np.linalg.norm(b0) * tnorm)
            if abs(cos) >= 0.05:
                break
        a0 = rng.standard_normal(d)
        a0 *= float(rng.uniform(0.0, 0.25)) * tnorm / np.linalg.norm(a0)
        model = MixtureModel(d, theta)
        init = ABState(a0, b0)
        # stop well above the quadrature-noise floor (~1e-12): ratios taken
        # between errors at that floor are noise, not contraction factors
        traj = run(init, model, StopRule(max_iters=2000, step_tol=1e-8))
        out.append((init, model, traj))
    return tuple(out)


def _pre_floor(traj: Trajectory) -> Trajectory:
    """The rows before the first one at a numerical floor of any diagnostic.

    Converged tails sit on plateaus (b-distance at the quadrature-bias
    offset of the float fixed point, angle and a-norm at rounding scale);
    ratios taken there measure noise, not contraction.
    """
    r = traj.records
    floor = np.flatnonzero((r["dist_b"] < 1e-10) | (r["norm_a"] < 1e-13) | (r["sin_beta"] < 1e-10))
    return dataclasses.replace(traj, records=r[: floor[0] if floor.size else len(r)])


def _series(traj: Trajectory, model: MixtureModel):
    """|a|, |b| and sin(beta) for every record plus the final state."""
    b_rows = np.vstack([traj.records["b"], traj.final_state.b])
    norm_a = np.linalg.norm(np.vstack([traj.records["a"], traj.final_state.a]), axis=1)
    return norm_a, np.linalg.norm(b_rows, axis=1), np.sin(_betas(b_rows, model))


def criterion_5() -> tuple[bool, str]:
    """Angle decay is monotone with a contracting fit; the a-norm recursion
    holds with the stated margin constant."""
    monotone_bad = 0
    kappa_bad = 0
    margin_bad = 0
    worst_kappa = 0.0
    for init, model, traj in _contraction_runs():
        norm_a, _, sin_b = _series(traj, model)
        sins = sin_b[~np.isnan(sin_b)]
        if np.any(np.diff(sins) > 1e-12):
            monotone_bad += 1
        est = contraction_estimate(_pre_floor(traj))
        if math.isfinite(est.kappa_sin):
            worst_kappa = max(worst_kappa, est.kappa_sin)
            if est.kappa_sin >= 1.0:
                kappa_bad += 1
        tnorm = model.norm_theta
        lhs = norm_a[1:] ** 2
        rhs = (_A_MARGIN * norm_a[:-1]) ** 2 + (tnorm * sin_b[:-1] / 2.0) ** 2
        if np.any(lhs > rhs * (1.0 + 1e-9) + 1e-30):
            margin_bad += 1
    passed = monotone_bad == 0 and kappa_bad == 0 and margin_bad == 0
    return passed, (
        f"non-monotone sine: {monotone_bad}, fitted sine factor >= 1: {kappa_bad} "
        f"(max {worst_kappa:.4f}), a-recursion margin violations: {margin_bad}"
    )


def criterion_6() -> tuple[bool, str]:
    """Past a finite transient the b-error contracts with a fitted factor < 1."""
    bad = 0
    worst_kappa = 0.0
    worst_T0 = 0
    for _, _, traj in _contraction_runs():
        clipped = _pre_floor(traj)
        est = contraction_estimate(clipped)
        if not (est.valid and est.kappa_b < 1.0 and est.T0 < len(clipped) - 1):
            bad += 1
        else:
            worst_kappa = max(worst_kappa, est.kappa_b)
            worst_T0 = max(worst_T0, est.T0)
    return bad == 0, (
        f"all 50 runs admit a transient T0 (max {worst_T0}) with fitted "
        f"b-contraction factor < 1 (max {worst_kappa:.4f}); failures: {bad}"
    )


def criterion_7() -> tuple[bool, str]:
    """Trajectories never leave the a-priori compact region."""
    violations = 0
    slack = 1e-12
    for init, model, traj in _contraction_runs():
        bounds = a_priori_bounds(init, model)
        norm_a, norm_b, _ = _series(traj, model)
        if np.any(norm_a > bounds.c_u1 + slack) or np.any(norm_b > bounds.c_u3 + slack):
            violations += 1
    return violations == 0, f"violations of the compactness bounds: {violations}/50"


def criterion_8() -> tuple[bool, str]:
    """One population step matches a 10^7-sample Monte Carlo step to ~3 digits."""
    rng = np.random.default_rng(88)
    worst = 0.0
    for k in range(10):
        direction = rng.standard_normal(2)
        direction /= np.linalg.norm(direction)
        theta = float(rng.uniform(0.5, 1.5)) * direction
        model = MixtureModel(2, theta)
        a = 0.3 * rng.standard_normal(2)
        b = rng.standard_normal(2)
        b *= float(rng.uniform(0.4, 1.5)) / np.linalg.norm(b)
        state = ABState(a, b)
        pop, _ = model2_step(state, model)
        samp = model2_step_ab(state, sample_mixture(model, 10_000_000, [88, k]))
        diff = _max_gap(samp, pop)
        scale = max(
            1.0, float(np.max(np.abs(pop.a))), float(np.max(np.abs(pop.b)))
        )
        worst = max(worst, diff / scale)
    return worst <= 5e-3, f"worst relative single-step discrepancy {worst:.2e}"


def criterion_9() -> tuple[bool, str]:
    """Sample trajectories track the population flow at rate ~ n^{-1/2}."""
    model = MixtureModel(2, np.array([1.0, 0.0]))
    init = ABState(np.array([0.1, 0.05]), np.array([0.6, 0.3]))
    res = consistency_ladder(
        init, model, (1_000, 10_000, 100_000, 1_000_000), T=50, trials=20, seed=0
    )
    decreasing = all(
        b < a for a, b in zip(res.sup_discrepancy, res.sup_discrepancy[1:])
    )
    slope_ok = -0.65 <= res.slope <= -0.35
    return decreasing and slope_ok, (
        f"median sup-discrepancy {tuple(round(v, 5) for v in res.sup_discrepancy)} "
        f"(strictly decreasing: {decreasing}); final-error slope {res.slope:.3f}"
    )


def criterion_10() -> tuple[bool, str]:
    """Stationary-point structure: gradients vanish and classifications match."""
    m1 = MixtureModel(1, np.array([1.0]))
    m2 = MixtureModel(2, np.array([0.8, 0.6]))
    checks = []

    def gnorm(state, model):
        g1, g2 = grad_G(MeanPair(state.a - state.b, state.a + state.b), model)
        return float(np.linalg.norm(np.concatenate([g1, g2])))

    for model in (m1, m2):
        t = model.theta_star
        z = np.zeros(model.dim)
        for point in (ABState(z, t.copy()), ABState(z, -t), ABState(z, z.copy())):
            checks.append(gnorm(point, model) <= 1e-6)

    def cls(point, model, symmetric):
        return classify_stationary(point, model, symmetric=symmetric).classification

    z1, z2 = np.zeros(1), np.zeros(2)
    checks.append(cls(ABState(z1, z1.copy()), m1, True) == Classification.MIN)
    checks.append(cls(ABState(z2, z2.copy()), m2, True) == Classification.SADDLE)
    checks.append(cls(ABState(z1, np.array([1.0])), m1, True) == Classification.MAX)
    checks.append(cls(ABState(z1, np.array([-1.0])), m1, True) == Classification.MAX)
    checks.append(cls(ABState(z2, m2.theta_star.copy()), m2, False) == Classification.MAX)
    checks.append(cls(ABState(z2, -m2.theta_star), m2, False) == Classification.MAX)
    checks.append(cls(ABState(z2, z2.copy()), m2, False) == Classification.SADDLE)
    return all(checks), f"{sum(checks)}/{len(checks)} stationary-structure checks passed"


def criterion_11() -> tuple[bool, str]:
    """The two sample-update parameterizations are the same map."""
    rng = np.random.default_rng(111)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 4))
        theta_dir = rng.standard_normal(d)
        theta = theta_dir / np.linalg.norm(theta_dir) * float(rng.uniform(0.0, 2.0))
        model = MixtureModel(d, theta)
        data = sample_mixture(model, int(rng.integers(5, 60)), int(rng.integers(2**31)))
        state = ABState(0.5 * rng.standard_normal(d), rng.standard_normal(d))
        ab = model2_step_ab(state, data)
        mu = to_ab(model2_step_mu(from_ab(state), data))
        worst = max(worst, _max_gap(ab, mu))
    return worst <= 1e-12, f"worst coordinate difference {worst:.2e} over 100 datasets"


def criterion_12() -> tuple[bool, str]:
    """Empirical-mean concentration bound and its negative control."""
    model = MixtureModel(2, np.array([1.0, 0.0]))
    rate = concentration_check(model, 10_000, 0.05, 500, seed=0)
    null_model = MixtureModel(2, np.zeros(2))
    control = concentration_check(null_model, 10_000, 0.05, 500, seed=1, factor=0.1)
    passed = rate <= 0.05 and control >= 0.9
    return passed, (
        f"violation rate {rate:.3f} (<= 0.05 required); deflated-constant "
        f"control rate {control:.3f} (>= 0.9 required)"
    )


def criterion_13() -> tuple[bool, str]:
    """Population dynamics commute with orthogonal maps."""
    rng = np.random.default_rng(131)
    d = 3
    theta = rng.standard_normal(d)
    theta /= np.linalg.norm(theta)
    model = MixtureModel(d, theta)
    init = ABState(np.array([0.15, -0.1, 0.05]), np.array([0.5, 0.4, -0.2]))
    stop = StopRule(max_iters=25, step_tol=0.0)
    base = run(init, model, stop)
    worst = 0.0
    for _ in range(10):
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        rot_model = MixtureModel(d, q @ theta)
        rot_init = ABState(q @ init.a, q @ init.b)
        rot = run(rot_init, rot_model, stop)
        for part in ("a", "b"):
            gap = np.abs(rot.records[part] - base.records[part] @ q.T)
            worst = max(worst, float(gap.max()))
    return worst <= 1e-10, f"worst rotated-state discrepancy {worst:.2e} over 10 maps"


CRITERIA = (
    ("kernel identities and inequalities on the grid", criterion_1),
    ("truth is a fixed point of the free-means step", criterion_2),
    ("symmetric-model global contraction (50 configs)", criterion_3),
    ("hyperplane confinement and collapse toward zero", criterion_4),
    ("angle contraction and the a-norm recursion margin", criterion_5),
    ("post-transient b-error contraction", criterion_6),
    ("a-priori norm bounds hold along all runs", criterion_7),
    ("population step vs large-sample Monte Carlo step", criterion_8),
    ("coupled-run ladder: tracking and n^{-1/2} rate", criterion_9),
    ("stationary points: gradients and classifications", criterion_10),
    ("mu-form and (a,b)-form sample updates agree", criterion_11),
    ("mean-norm concentration bound with negative control", criterion_12),
    ("orthogonal equivariance of the population flow", criterion_13),
)


def run_one(number: int) -> CriterionResult:
    """Run criterion ``number`` (1-based) and time it."""
    if not 1 <= number <= len(CRITERIA):
        raise ValueError(f"criterion number must be in 1..{len(CRITERIA)}, got {number}")
    title, check = CRITERIA[number - 1]
    start = time.perf_counter()
    passed, detail = check()
    return CriterionResult(number, title, passed, detail, time.perf_counter() - start)
