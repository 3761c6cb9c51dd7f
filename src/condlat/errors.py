"""Exception types shared across the package.

Every structural rejection gets its own class so callers (and the CLI)
can tell a malformed input from a mathematical failure from an internal
bug.  InternalInconsistency is reserved for the last kind: two
independently computed routes to the same fact disagreed.
"""

from __future__ import annotations


class CondlatError(Exception):
    """Base class for all package-specific errors."""


class ParseError(CondlatError):
    """A text input (lattice, frame, or selection frame file) is malformed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NotAPartialOrder(CondlatError):
    """The input relation is not antisymmetric after closure."""


class MissingBound(CondlatError):
    """The order has no global bottom or no global top."""


class NotALattice(CondlatError):
    """Some pair of elements lacks a meet or a join."""


class TooLarge(CondlatError):
    """The requested structure exceeds a configured size guard."""


class WidthMismatch(CondlatError):
    """A bitmask addresses elements or points outside the structure."""


class NotResiduated(CondlatError):
    """The lattice admits no residual implication (it is not a Heyting algebra)."""


class NotAPrecomplementation(CondlatError):
    """A unary table is not antitone with top mapped to bottom."""


class NotAnOrthocomplementation(CondlatError):
    """A unary table fails antitonicity, a ∧ ¬a = 0, or ¬¬a = a."""


class NotAPreconditional(CondlatError):
    """A binary table fails one of the five core axioms where one is required."""


class NotBoolean(CondlatError):
    """The lattice is not a Boolean algebra where one is required."""


class PreconditionFailed(CondlatError):
    """An operation's documented precondition does not hold for the input."""


class ConditioningOnNull(CondlatError):
    """Conditional probability requested on a null antecedent."""


class EmbeddingNotVerified(CondlatError):
    """A representation embedding could not be verified; carries the report."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class BudgetExhausted(CondlatError):
    """A model search ran out of nodes; carries its partial result."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class InternalInconsistency(CondlatError):
    """Two independent computations of the same fact disagreed (a bug trap)."""
