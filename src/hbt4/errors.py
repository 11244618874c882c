"""Exception types shared across the package.

The CLI maps these onto process exit codes (see the EXIT_* constants in
cli): every UndefinedCoherenceError, NoSignalError included, exits 4.
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


class UndefinedCoherenceError(Hbt4Error):
    """Normalized coherence is undefined: the mean photon or click number
    it is normalized by is zero, or so small that its fourth power
    underflows.  One rule decides both (``clicks._undefined``)."""


class NoSignalError(UndefinedCoherenceError):
    """Undefined coherence of click statistics: the mean click number is
    zero or unresolved, or the detected distribution carries no mass.

    ``result`` optionally carries partial output (e.g. a Monte-Carlo
    histogram) gathered before the error was detected.
    """

    def __init__(self, message: str = "zero mean click number", result=None):
        self.result = result
        super().__init__(message)


class InternalInvariantError(Hbt4Error):
    """A quantity that must be real/normalized by construction failed its
    internal consistency check; indicates a bug, not bad user input."""
