"""Exception types shared across the package."""

import contextlib


class SetintError(Exception):
    """Base class for all setint errors."""


class InvalidArgumentError(SetintError, ValueError):
    """An argument violates a documented precondition."""


class ResourceLimitError(SetintError):
    """A hard enumeration / cardinality cap would be exceeded."""


class ConfigError(SetintError):
    """A declared bound or experiment configuration is inconsistent with the data."""


class SolverFailureError(SetintError):
    """An iterative solver did not reach its certificate tolerance.

    Carries the best value and gap seen so callers can still use the estimate.
    """

    def __init__(self, message, value=None, gap=None):
        super().__init__(message)
        self.value = value
        self.gap = gap


@contextlib.contextmanager
def schema_faults(what: str):
    """Re-raise the KeyError, TypeError or ValueError of a malformed JSON
    document as InvalidArgumentError; setint's own errors pass through."""
    try:
        yield
    except SetintError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"malformed {what}: {type(exc).__name__} {exc}") from exc
