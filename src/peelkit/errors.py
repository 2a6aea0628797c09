"""Exception types shared across the package."""


class PeelkitError(ValueError):
    """Base class for all argument / input errors raised by peelkit."""


class EdgeArityError(PeelkitError):
    """An edge does not contain exactly r distinct vertices."""


class VertexRangeError(PeelkitError):
    """A vertex id is outside [0, n)."""


class DuplicateEdgeError(PeelkitError):
    """The same edge (as a set) appears more than once."""


class BudgetExceededError(PeelkitError):
    """A brute-force enumeration would exceed the configured budget."""

    def __init__(self, message, required=None):
        super().__init__(message)
        self.required = required


class BracketError(PeelkitError):
    """A bracketing search could not separate the two phases / enclose a minimum."""
