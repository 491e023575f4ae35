"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A constructor or check was called with parameters violating its preconditions."""


class GraphFormatError(ValueError):
    """Malformed graph6 or edge-list input.

    ``offset`` is the byte offset of the offending input position when known.
    """

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class DisconnectedGraphError(ValueError):
    """A distance-based quantity was requested for a disconnected graph."""


class ScaleLimitError(RuntimeError):
    """An exhaustive search was asked to run beyond its documented desk-scale cap."""


class ConvergenceError(RuntimeError):
    """A LAPACK symmetric eigensolver (``eigvalsh`` or ``eigh``) did not converge."""
