"""Source positions, the error hierarchy, and diagnostic rendering.

Every error raised by the library carries an optional source position; the
expansion engine attaches the nearest enclosing expression's position to any
error that reaches it without one, so CLI diagnostics always point somewhere
inside the offending input.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .record import Record


class SourcePos(NamedTuple):
    """A 1-based (line, column) position in a named input."""

    file: str
    line: int
    col: int

    def render(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"


class Diagnostic(Record):
    severity: str
    message: str
    pos: SourcePos

    def render(self) -> str:
        return f"{self.pos.render()}: {self.severity}: {self.message}"


def render_diagnostics(diags: Iterable[Diagnostic]) -> str:
    """One line per diagnostic, `file:line:col: severity: message` format."""
    return "".join(d.render() + "\n" for d in diags)


class GodpError(Exception):
    """Base class for all library errors."""

    severity = "error"

    def __init__(self, message: str, pos: SourcePos | None = None):
        super().__init__(message)
        self.message = message
        self.pos = pos

    def ensure_pos(self, pos: SourcePos | None) -> None:
        """Attach a position if none was recorded yet."""
        if self.pos is None and pos is not None:
            self.pos = pos

    def to_diagnostic(self, fallback_file: str = "<input>") -> Diagnostic:
        pos = self.pos if self.pos is not None else SourcePos(fallback_file, 1, 1)
        return Diagnostic(self.severity, self.message, pos)


# -- syntax-level ------------------------------------------------------------

class LexError(GodpError):
    pass


class ParseError(GodpError):
    pass


# -- semantic model ----------------------------------------------------------

class KindClash(GodpError):
    """One name used with two different symbol kinds."""


class UnmappedSymbol(GodpError):
    """A morphism was applied to a symbol outside its domain."""


# -- library building --------------------------------------------------------

class UnknownReference(GodpError):
    pass


class DuplicateDefinition(GodpError):
    pass


class IllegalCycle(GodpError):
    """A recursive call not guarded by a strictly shrinking list parameter."""


# -- instantiation -----------------------------------------------------------

class AmbiguousFitting(GodpError):
    pass


class NoCandidate(GodpError):
    pass


class KindMismatch(GodpError):
    pass


class IncompatibleFittings(GodpError):
    pass


class UnmetConstraint(GodpError):
    pass


class NoMatch(GodpError):
    """No template clause matches the list argument."""


class DepthExceeded(GodpError):
    pass


class MissingArgument(GodpError):
    pass


class ArityMismatch(GodpError):
    pass


class UnsupportedArgument(GodpError):
    pass


# -- emission ----------------------------------------------------------------

class StratificationClash(GodpError):
    pass


class UnstratifiedName(GodpError):
    pass
