"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: invalid arguments -> 2 (usage),
data problems -> 3, numeric failures (including non-convergence) -> 4.
"""


class OsplineError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgumentError(OsplineError, ValueError):
    """An argument violates a documented precondition."""


class DataError(OsplineError, ValueError):
    """Input data (CSV schema, missing values) is unusable."""


class NumericError(OsplineError, RuntimeError):
    """A numerical operation failed (factorization, quadrature, overflow)."""


class IterationError(NumericError):
    """An iterative procedure did not converge within its budget."""


def _require(condition: bool, message: str) -> None:
    """Raise :class:`InvalidArgumentError` with ``message`` unless ``condition``."""
    if not condition:
        raise InvalidArgumentError(message)
