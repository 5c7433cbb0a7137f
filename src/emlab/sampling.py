"""Finite-sample EM updates for both mean parameterizations.

Data model: each draw is y = zeta * theta_star + omega with zeta a Rademacher
sign and omega standard Gaussian, i.e. an i.i.d. sample from the balanced
two-component mixture with unit covariance.  The sample updates mirror the
population maps:

    Model 1:  theta+ = (1/n) sum_i tanh(<y_i, theta>) y_i
    Model 2 (mu-form):   mu1+ = sum v_i y_i / sum v_i,   mu2+ analogous,
    Model 2 (ab-form):   a+ = qh (1-2ph)/(2 ph (1-ph)) + ybar/(2(1-ph)),
                         b+ = qh /(2 ph (1-ph))         - ybar/(2(1-ph)),

with posterior weights w_i = (1 + t_i)/2 of the +b component and
v_i = (1 - t_i)/2 of the -b component, where t_i = tanh(<y_i, b> - <a, b>)
is the saturation-safe signed weight.  Neither weight vector is formed: one
pass over the data gives t, then s = sum t_i and m = X^T t, and with the
column sum c = X^T 1 cached on the Dataset

    ph = (1 + s/n)/2,   qh = (c + m)/(2n),
    mu2+ = (c + m)/(n + s),   mu1+ = (c - m)/(n - s),

so the two Model-2 forms are the same algebra and agree to rounding.  For
|<y - a, b>| beyond ~19 the t_i round to exactly +-1; a p_hat outside
(1e-15, 1 - 1e-15) raises DegenerateWeights instead of being clamped.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import DegenerateWeights, DimensionMismatch
from .geometry import ABState, MeanPair, MixtureModel, from_ab, to_ab
from .landscape import _log_cosh
from .population import _P_INTERIOR, StopRule, Trajectory, _trajectory


class Dataset:
    """Immutable sample matrix plus the generation record (seed, model)."""

    def __init__(self, data: np.ndarray, seed, model: MixtureModel) -> None:
        data = np.array(data, dtype=float)
        if data.ndim != 2 or data.shape[0] < 1:
            raise ValueError(f"data must be a nonempty n x d matrix, got shape {data.shape}")
        if data.shape[1] != model.dim:
            raise DimensionMismatch(
                f"data has {data.shape[1]} columns but model dimension is {model.dim}"
            )
        if not np.all(np.isfinite(data)):
            raise ValueError("data contains non-finite entries")
        self._own(data, seed, model)

    def _own(self, data: np.ndarray, seed, model: MixtureModel) -> None:
        data.setflags(write=False)
        self.data = data
        self.seed = seed
        self.model = model

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    @cached_property
    def colsum(self) -> np.ndarray:
        """Column sums X^T 1 as one BLAS matrix-vector product."""
        c = np.ones(self.n) @ self.data
        c.setflags(write=False)
        return c

    @cached_property
    def mean(self) -> np.ndarray:
        ybar = self.colsum / self.n
        ybar.setflags(write=False)
        return ybar

    def to_csv(self, path) -> None:
        """Write one row per sample with a '#' metadata preamble."""
        # repr of the *Python* float round-trips; numpy scalar repr does not
        theta = ",".join(repr(float(v)) for v in self.model.theta_star)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# seed: {self.seed}\n")
            fh.write(f"# n: {self.n}\n")
            fh.write(f"# d: {self.dim}\n")
            fh.write(f"# theta_star: [{theta}]\n")
            fh.write(",".join(f"y{j}" for j in range(self.dim)) + "\n")
            for row in self.data:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")


def sample_mixture(model: MixtureModel, n: int, seed) -> Dataset:
    """Draw n rows zeta_i * theta_star + omega_i; deterministic given seed."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    zeta = rng.integers(0, 2, size=n) * 2 - 1
    omega = rng.standard_normal((n, model.dim))
    omega += zeta[:, None] * model.theta_star  # in place: saves one n x d temporary
    # a fresh finite draw referenced nowhere else: adopt it without the
    # copy and the finiteness scan that outside arrays get
    dataset = Dataset.__new__(Dataset)
    dataset._own(omega, seed, model)
    return dataset


def _posterior(data: Dataset, state: ABState) -> tuple[np.ndarray, float, float]:
    """Signed weights t_i = tanh(<y_i, b> - <a, b>), their sum s and the
    posterior mass p_hat = (1 + s/n)/2 of the +b component, from one pass
    over the data that forms no n x d temporary; DegenerateWeights when
    p_hat leaves (1e-15, 1 - 1e-15)."""
    t = data.data @ state.b
    t -= state.a @ state.b
    np.tanh(t, out=t)
    s = float(t.sum())
    p_hat = 0.5 * (1.0 + s / data.n)
    if not _P_INTERIOR < p_hat < 1.0 - _P_INTERIOR:
        raise DegenerateWeights(f"p_hat = {p_hat!r} outside (1e-15, 1 - 1e-15)")
    return t, s, p_hat


def model1_step_sample(theta_hat: np.ndarray, data: Dataset) -> np.ndarray:
    """One sample EM step for the symmetric model: (1/n) sum tanh(<y,theta>) y."""
    theta_hat = np.asarray(theta_hat, dtype=float)
    if theta_hat.shape != (data.dim,):
        raise DimensionMismatch(
            f"theta_hat has shape {theta_hat.shape}, expected ({data.dim},)"
        )
    return (data.data.T @ np.tanh(data.data @ theta_hat)) / data.n


def _step_mu(means: MeanPair, data: Dataset) -> tuple[MeanPair, float]:
    t, s, p_hat = _posterior(data, to_ab(means))
    m = t @ data.data
    # p_hat inside (1e-15, 1 - 1e-15) keeps n -+ s above 2e-15 n, and the
    # subtraction is exact (Sterbenz) wherever it cancels
    mu1 = (data.colsum - m) / (data.n - s)
    mu2 = (data.colsum + m) / (data.n + s)
    return MeanPair(mu1=mu1, mu2=mu2), p_hat


def model2_step_mu(means: MeanPair, data: Dataset) -> MeanPair:
    """One sample EM step in the (mu1, mu2) parameterization."""
    if means.mu1.shape != (data.dim,):
        raise DimensionMismatch(
            f"means have dimension {means.mu1.shape[0]}, data has {data.dim}"
        )
    return _step_mu(means, data)[0]


def _step_ab_core(state: ABState, data: Dataset) -> tuple[ABState, float]:
    t, _, p_hat = _posterior(data, state)
    q_hat = (data.colsum + t @ data.data) / (2.0 * data.n)
    ybar = data.mean
    denom = 2.0 * p_hat * (1.0 - p_hat)
    shift = ybar / (2.0 * (1.0 - p_hat))
    a_new = q_hat * ((1.0 - 2.0 * p_hat) / denom) + shift
    b_new = q_hat / denom - shift
    return ABState(a=a_new, b=b_new), p_hat


def model2_step_ab(state: ABState, data: Dataset) -> ABState:
    """One sample EM step in (a, b) coordinates; same algebra as the mu-form."""
    if state.dim != data.dim:
        raise DimensionMismatch(
            f"state has dimension {state.dim}, data has {data.dim}"
        )
    return _step_ab_core(state, data)[0]


def sample_loglik(state: ABState, data: Dataset) -> float:
    """Mean per-sample log-likelihood of the two-component model at `state`.

    log density = -d/2 log(2 pi) - (|y-a|^2 + |b|^2)/2 + log cosh(<y-a, b>),
    with log cosh evaluated as logaddexp(z, -z) - log 2 to stay finite.
    """
    if state.dim != data.dim:
        raise DimensionMismatch(
            f"state has dimension {state.dim}, data has {data.dim}"
        )
    resid = data.data - state.a
    z = resid @ state.b
    quad = 0.5 * (np.einsum("ij,ij->i", resid, resid) + state.b @ state.b)
    return float(np.mean(-0.5 * data.dim * np.log(2.0 * np.pi) - quad + _log_cosh(z)))


def _step_mu_as_ab(state: ABState, data: Dataset) -> tuple[ABState, float]:
    means, p_hat = _step_mu(from_ab(state), data)
    return to_ab(means), p_hat


_FORMS = {"ab": _step_ab_core, "mu": _step_mu_as_ab}


def run_sample(
    init: ABState, data: Dataset, stop: StopRule = StopRule(), form: str = "ab"
) -> Trajectory:
    """Iterate the Model-2 sample step from `init` on fixed data.

    Record semantics match the population runner: row t is the iterate the
    step was taken from, with p the posterior mass of the weights that step
    used; a converged run does not append the post-step state as a row (it
    is Trajectory.final_state).
    """
    if init.dim != data.dim:
        raise DimensionMismatch(f"init has dimension {init.dim}, data has {data.dim}")
    try:
        step = _FORMS[form]
    except KeyError:
        raise ValueError(f"form must be one of {sorted(_FORMS)}, got {form!r}") from None
    return _trajectory(
        init,
        data.model,
        stop,
        lambda state: step(state, data),
        lambda state: _posterior(data, state)[2],
    )
