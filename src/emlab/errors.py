"""Exception types shared across the package."""


class NonConvergence(RuntimeError):
    """A quadrature rule failed its two-resolution self-check."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the function."""


class DimensionMismatch(ValueError):
    """Vectors that must live in the same space have different lengths."""


class NotPositiveDefinite(ValueError):
    """A matrix required to be symmetric positive definite is not."""


class DegenerateWeights(RuntimeError):
    """Posterior weights collapsed so far that an M-step is numerically void."""


class InsufficientData(ValueError):
    """Not enough points/trials to perform the requested fit or estimate."""


class ConfigError(ValueError):
    """Invalid experiment configuration; ``field`` holds the offending path."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")
