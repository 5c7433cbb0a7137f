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
Model 1 is the a = 0 slice of the same pass: theta+ = m/n with b = theta.

The pass runs over row blocks of about 256 KB: each block gives its t, its
share of s and its share of m, and the shares are added in block order, so
no n-length t is formed and every sum has one order, fixed by n and d.  The
column sum c is accumulated the same way.  The blocks' X^T t products go
through BLAS, which splits a product over its threads; so that the split
never reaches the artifacts, importing this module pins numpy's bundled
OpenBLAS to one thread for the whole process.  With one thread every
artifact's bytes are the same whatever OPENBLAS_NUM_THREADS or the core
count says.  A numpy built against another BLAS has no such setter and is
left as it is.
"""

from __future__ import annotations

import ctypes
import mmap
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DegenerateWeights, DimensionMismatch
from .geometry import ABState, MeanPair, MixtureModel, from_ab, state_distance, to_ab
from .landscape import _log_cosh
from .population import _P_INTERIOR, StopRule, Trajectory, _drive, _trajectory

# rows per block: 16384 at d = 2, 4096 at d = 8
_BLOCK_BYTES = 1 << 18
# draws this large or larger get a memory map of their own
_MAP_BYTES = 1 << 22


def _pin_blas_to_one_thread() -> bool:
    """Set numpy's bundled OpenBLAS to one thread; False when numpy bundles
    no scipy-openblas library with ``scipy_openblas_set_num_threads64_``."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            # the library numpy already loaded, so the setting is numpy's
            setter = ctypes.CDLL(str(path)).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(1)
        return True
    return False


_BLAS_PINNED = _pin_blas_to_one_thread()


def _block_rows(d: int) -> int:
    """Rows in one ~256 KB block of an n x d float64 array."""
    return max(1, _BLOCK_BYTES // (8 * d))


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
        """Column sums X^T 1, one row block at a time, added in block order."""
        rows = _block_rows(self.dim)
        ones = np.ones(min(rows, self.n))
        c = np.zeros(self.dim)
        for start in range(0, self.n, rows):
            block = self.data[start:start + rows]
            c += ones[:len(block)] @ block
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


def _fresh(n: int, d: int) -> np.ndarray:
    """Storage for an n x d draw.  From 4 MB up it is a private anonymous
    memory map of its own, with huge pages where the kernel grants them (as
    numpy asks for its own large arrays).  The map goes back to the system
    when the dataset is freed; in the malloc heap a freed dataset can stay
    resident (glibc keeps up to 32 MB of free heap) and raise a later peak."""
    if 8 * n * d < _MAP_BYTES:
        return np.empty((n, d))
    buf = mmap.mmap(-1, 8 * n * d, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        buf.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buf, dtype=float).reshape(n, d)


def sample_mixture(model: MixtureModel, n: int, seed) -> Dataset:
    """Draw n rows zeta_i * theta_star + omega_i; deterministic given seed."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    # the stream's int64 signs, drawn a block at a time and kept as int8
    zeta = np.empty(n, dtype=np.int8)
    chunk = _block_rows(1)
    for start in range(0, n, chunk):
        zeta[start:start + chunk] = rng.integers(0, 2, size=min(chunk, n - start))
    zeta *= 2
    zeta -= 1
    omega = rng.standard_normal(out=_fresh(n, model.dim))
    # add zeta_i * theta_star in place, a block at a time: no n x d temporary
    rows = _block_rows(model.dim)
    shift = np.empty((min(rows, n), model.dim))
    for start in range(0, n, rows):
        block = omega[start:start + rows]
        sb = shift[:len(block)]
        np.multiply(zeta[start:start + rows, None], model.theta_star, out=sb)
        block += sb
    # a fresh finite draw referenced nowhere else: adopt it without the
    # copy and the finiteness scan that outside arrays get
    dataset = Dataset.__new__(Dataset)
    dataset._own(omega, seed, model)
    return dataset


def _weight_pass(X: np.ndarray, b: np.ndarray, shift: float) -> tuple[float, np.ndarray]:
    """s = sum t_i and m = X^T t for t_i = tanh(<y_i, b> - shift), one row
    block at a time: each block's t fills one reused buffer, and the blocks'
    shares of s and m are added in block order."""
    n, d = X.shape
    rows = _block_rows(d)
    t = np.empty(min(rows, n))
    s, m = 0.0, np.zeros(d)
    for start in range(0, n, rows):
        block = X[start:start + rows]
        tb = t[:len(block)]
        np.matmul(block, b, out=tb)
        tb -= shift
        np.tanh(tb, out=tb)
        s += float(tb.sum())
        m += tb @ block
    return s, m


def _posterior(data: Dataset, state: ABState) -> tuple[float, np.ndarray, float]:
    """The weight pass at t_i = tanh(<y_i, b> - <a, b>): s, m and the
    posterior mass p_hat = (1 + s/n)/2 of the +b component; DegenerateWeights
    when p_hat leaves (1e-15, 1 - 1e-15)."""
    s, m = _weight_pass(data.data, state.b, state.a @ state.b)
    p_hat = 0.5 * (1.0 + s / data.n)
    if not _P_INTERIOR < p_hat < 1.0 - _P_INTERIOR:
        raise DegenerateWeights(f"p_hat = {p_hat!r} outside (1e-15, 1 - 1e-15)")
    return s, m, p_hat


def model1_step_sample(theta_hat: np.ndarray, data: Dataset) -> np.ndarray:
    """One sample EM step for the symmetric model: (1/n) sum tanh(<y,theta>) y."""
    theta_hat = np.asarray(theta_hat, dtype=float)
    if theta_hat.shape != (data.dim,):
        raise DimensionMismatch(
            f"theta_hat has shape {theta_hat.shape}, expected ({data.dim},)"
        )
    # the a = 0 slice of the weight pass, where p = 1/2 needs no check
    return _weight_pass(data.data, theta_hat, 0.0)[1] / data.n


def _step_mu(means: MeanPair, data: Dataset) -> tuple[MeanPair, float]:
    s, m, p_hat = _posterior(data, to_ab(means))
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
    _, m, p_hat = _posterior(data, state)
    q_hat = (data.colsum + m) / (2.0 * data.n)
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
    with log cosh evaluated as |z| + log1p(exp(-2|z|)) - log 2 to stay finite.
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
    states, ps, converged = _drive(init, stop, lambda state: step(state, data), state_distance)
    return _trajectory([s.a for s in states], [s.b for s in states], ps, converged, data.model)
