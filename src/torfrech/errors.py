"""Typed failure modes shared across the package.

The split matters for the CLI: validation problems (bad payloads, bad flags,
malformed files) exit with code 2, while numerical failures encountered
mid-computation (singular designs, empty neighborhoods, solver breakdown)
exit with code 3.
"""


class TorfrechError(Exception):
    """Base class for all package-specific errors."""


class PayloadError(TorfrechError, ValueError):
    """A response payload violates an invariant of its declared space."""


class DatasetFormatError(TorfrechError, ValueError):
    """A file could not be read, parsed or written; the message names the file (and row)."""


class EmptyDatasetError(DatasetFormatError):
    """A dataset file contained no data rows."""


class NumericalError(TorfrechError):
    """Base class for failures of the numerical machinery (CLI exit 3)."""


class SingularDesignError(NumericalError):
    """The second local moment matrix is singular or too ill-conditioned."""

    def __init__(self, message: str, condition_number: float = float("inf")):
        super().__init__(message)
        self.condition_number = condition_number


class DegenerateVarianceError(NumericalError):
    """The local variance term sigma-hat is not strictly positive."""


class EmptyNeighborhoodError(NumericalError):
    """All kernel weights vanished at the query (compact-support kernels)."""


class DegenerateWeightsError(NumericalError):
    """Fréchet-mean weights do not sum to a positive value."""


class ConvergenceError(NumericalError):
    """An iterative solver stalled or hit its iteration cap; carries the best iterate."""

    def __init__(self, message: str, best_iterate=None, best_objective: float = float("nan")):
        super().__init__(message)
        self.best_iterate = best_iterate
        self.best_objective = best_objective


class UnsupportedOracleError(TorfrechError, ValueError):
    """The brute-force Fréchet-mean oracle does not cover this space."""
