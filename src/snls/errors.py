"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2,
InstabilityError -> 3, CheckpointError and other I/O problems -> 4.
"""


class SnlsError(Exception):
    """Base class for all package errors."""


class InvalidFieldError(SnlsError):
    """A field contains NaN or Inf samples."""


class ParameterError(SnlsError):
    """A numeric parameter is outside its documented range."""


class GridMismatchError(SnlsError):
    """Two objects that must share a grid do not."""


class InstabilityError(SnlsError):
    """The time integration blew past the stability guard."""


class InsufficientDataError(SnlsError):
    """Not enough snapshots (or samples) to evaluate a functional."""


class DomainError(SnlsError):
    """A spatial argument leaves the safely resolved region."""


class CheckpointError(ParameterError):
    """A checkpoint file is truncated, corrupt or of an unknown format."""


class ConfigError(SnlsError):
    """A run configuration failed validation."""
