"""Exception types shared across the package.

The CLI maps these onto process exit codes (see the EXIT_* constants in cli).
"""


class Hbt4Error(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(Hbt4Error):
    """A parameter is outside its documented domain.

    Carries the offending field name so callers (and the CLI) can point
    at the exact input that was rejected.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class TruncationError(Hbt4Error):
    """A photon-number distribution could not be truncated below the
    requested tail tolerance within the hard size cap."""


class NoSignalError(Hbt4Error):
    """Coherence requested for a signal with zero mean click number.

    ``result`` optionally carries partial output (e.g. a Monte-Carlo
    histogram) gathered before the error was detected.
    """

    def __init__(self, message: str = "zero mean click number", result=None):
        self.result = result
        super().__init__(message)


class UndefinedCoherenceError(Hbt4Error):
    """Normalized coherence is undefined (vacuum input, zero mean)."""


class InternalInvariantError(Hbt4Error):
    """A quantity that must be real/normalized by construction failed its
    internal consistency check; indicates a bug, not bad user input."""
