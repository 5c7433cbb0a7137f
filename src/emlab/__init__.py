"""Numerical laboratory for EM on symmetric two-Gaussian mixtures.

Exposes the quadrature spec, the scalar kernels, the population and
sample-based EM steps/runners, the expected log-likelihood landscape tools,
and the consistency harness.  See the command-line entry point ``emlab``
for the packaged experiments.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DegenerateWeights,
    DimensionMismatch,
    DomainError,
    InsufficientData,
    NonConvergence,
    NotPositiveDefinite,
)
from .geometry import (
    ABState,
    MeanPair,
    MixtureModel,
    PlanarCoords,
    from_ab,
    planar_reduce,
    to_ab,
    whiten,
)
from .harness import (
    ConsistencyResult,
    ContractionEstimate,
    concentration_check,
    consistency_ladder,
    contraction_estimate,
    coupled_run,
    rate_fit,
)
from .kernels import (
    AuxBounds,
    eval_aux_bounds,
    kernel_f,
    kernel_gamma,
    kernel_k,
    kernel_p,
    kernel_pgs,
    kernel_r,
    kernel_s,
    tabulate,
)
from .landscape import (
    Classification,
    StationaryReport,
    classify_stationary,
    expected_loglik,
    grad_G,
)
from .population import (
    APrioriBounds,
    StopRule,
    Trajectory,
    a_priori_bounds,
    model1_step,
    model2_step,
    run,
    run_model1,
)
from .quadrature import QuadratureSpec
from .sampling import (
    Dataset,
    model1_step_sample,
    model2_step_ab,
    model2_step_mu,
    run_sample,
    sample_loglik,
    sample_mixture,
)

__all__ = [
    "__version__",
    "ABState",
    "APrioriBounds",
    "AuxBounds",
    "Classification",
    "ConfigError",
    "ConsistencyResult",
    "ContractionEstimate",
    "Dataset",
    "DegenerateWeights",
    "DimensionMismatch",
    "DomainError",
    "InsufficientData",
    "MeanPair",
    "MixtureModel",
    "NonConvergence",
    "NotPositiveDefinite",
    "PlanarCoords",
    "QuadratureSpec",
    "StationaryReport",
    "StopRule",
    "Trajectory",
    "a_priori_bounds",
    "classify_stationary",
    "concentration_check",
    "consistency_ladder",
    "contraction_estimate",
    "coupled_run",
    "eval_aux_bounds",
    "expected_loglik",
    "from_ab",
    "grad_G",
    "kernel_f",
    "kernel_gamma",
    "kernel_k",
    "kernel_p",
    "kernel_pgs",
    "kernel_r",
    "kernel_s",
    "model1_step",
    "model1_step_sample",
    "model2_step",
    "model2_step_ab",
    "model2_step_mu",
    "planar_reduce",
    "rate_fit",
    "run",
    "run_model1",
    "run_sample",
    "sample_loglik",
    "sample_mixture",
    "tabulate",
    "to_ab",
    "whiten",
]
