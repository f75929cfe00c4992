"""Exception hierarchy shared across the package.

Every error raised by the library derives from LveError so the CLI can map
library failures to exit code 2 uniformly.
"""

from __future__ import annotations


class LveError(Exception):
    """Base class for all library errors."""


class InvalidPattern(LveError):
    """A pattern repeats a variable or places an arrow variable outside the rightmost position."""


class TypeCheckError(LveError):
    """Base class for typing failures."""


class ArrowSharing(TypeCheckError):
    """An arrow variable occurs free in both premises of a binary rule."""


class UnusedArrowBinder(TypeCheckError):
    """A let binds an arrow variable that is not free in its body."""


class PatternTypeMismatch(TypeCheckError):
    """A binder pattern's type differs from the type of the bound expression."""


class ApplicationMismatch(TypeCheckError):
    """An application's argument type or arity does not match the function or matrix."""


class NonPositiveLamParam(TypeCheckError):
    """A lambda parameter pattern contains an arrow variable."""


class InconsistentVariableTypes(TypeCheckError):
    """The same variable name occurs with two different types."""


class NotClosed(LveError):
    """An operation requiring a closed term received one with free variables."""


class NonFinite(LveError):
    """A computed distribution overflowed to inf or NaN."""


class NotPositive(LveError):
    """An operation requiring a positive term received one with an arrow-typed output."""


class WebCapExceeded(LveError):
    """A requested table would exceed the configured web-size cap."""


class InvalidAxes(LveError):
    """A factor's or variable space's axes are not sorted by name, or a factor's table does not fit its axes."""


class SharedVarTypeMismatch(LveError):
    """Two factors disagree on the type of a shared variable."""


class BinderCapture(LveError):
    """A definition's binder variables intersect the free variables of its expression."""


class NotCanonicalized(LveError):
    """A let-term violates the binder-uniqueness convention required by factor extraction."""


class UnknownVariable(LveError):
    """An elimination order mentions a variable absent from the factor set or term."""


class RepeatedInOrder(LveError):
    """An elimination order names one variable twice."""


class RewriteError(LveError):
    """Base class for rewriting failures."""


class SideConditionViolated(RewriteError):
    """A rewrite rule was applied where its side condition does not hold."""


class TooFewDefinitions(RewriteError):
    """A rule needing two adjacent definitions was applied near the end of the term."""


class NotDefined(RewriteError):
    """The variable to eliminate is not bound by any definition."""


class InOutput(RewriteError):
    """The variable to eliminate occurs in the output pattern."""


class ParseError(LveError):
    """Syntax error in a source file, with position information."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class NestingTooDeep(ParseError):
    """A term nests deeper than the parser can follow under Python's recursion limit."""

    def __init__(self, line: int, col: int):
        LveError.__init__(self, f"term nests too deeply for Python's recursion limit (at {line}:{col})")
        self.line = line
        self.col = col


class UndeclaredMatrix(LveError):
    """An applied capitalized name has no matrix declaration."""


class UndeclaredArrowVariable(LveError):
    """An applied lowercase name has no arrow-type declaration."""


class NetworkFormatError(LveError):
    """A network file violates the expected JSON structure."""


class CyclicNetwork(NetworkFormatError):
    """The parent relation of a network file contains a cycle."""


class CptShapeMismatch(NetworkFormatError):
    """A conditional probability table has the wrong number of rows or columns."""


class UnknownQueryVariable(NetworkFormatError):
    """The query names a variable that no node defines."""
