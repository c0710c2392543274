"""Exception hierarchy shared by all normetric modules."""

__all__ = [
    "NormetricError", "DomainError", "ShapeError", "DegenerateDistributionError",
    "ConfigurationError", "DataError", "DivergenceError", "WorkerError",
]


class NormetricError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(NormetricError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class ShapeError(DomainError):
    """Sequence arguments have incompatible lengths or dimensions."""


class DegenerateDistributionError(DomainError):
    """A class or cluster distribution is empty or single-valued where it may not be."""


class ConfigurationError(NormetricError, ValueError):
    """An evaluation is missing required pieces (e.g. probabilities for a classifier)."""


class DataError(NormetricError, ValueError):
    """Input data could not be ingested (missing file, missing column, no usable rows)."""


class DivergenceError(NormetricError, ArithmeticError):
    """Gradient descent overflowed or ended with non-finite weights (e.g. a learning rate far too large)."""


class WorkerError(NormetricError):
    """A worker process died before it returned its result (killed, or out of memory), or what it returned or
    raised could not be pickled in the worker or unpickled in the calling process."""
