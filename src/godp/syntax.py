"""AST for the pattern language, plus a pretty printer for round-trip tests.

Positions are carried on every node but excluded from equality, so structural
comparison of reparsed output works directly with `==`. `FRAME_FIELDS` states
each frame's fields once, for the parser, the printers and the resolver.
`frame_fields` lays out one frame for both printers: `pp_frame` joins its
fields on one line, the Manchester emitter puts each on a line of its own.
"""

from __future__ import annotations

from typing import Union

from .core import NameTerm, SymbolKind
from .diagnostics import SourcePos
from .record import Record, field

_POS = field(SourcePos("<none>", 1, 1), compare=False)


# ---------------------------------------------------------------------------
# Frames (the Manchester-like basic fragment)
# ---------------------------------------------------------------------------

class ClassFrame(Record):
    name: NameTerm
    equivalent: tuple[NameTerm, ...] | None = None
    pos: SourcePos = _POS


class ObjectPropertyFrame(Record):
    name: NameTerm
    domains: tuple[NameTerm, ...] = ()
    ranges: tuple[NameTerm, ...] = ()
    characteristics: tuple[str, ...] = ()
    sub_property_of: tuple[NameTerm, ...] = ()
    inverse_of: tuple[NameTerm, ...] = ()
    pos: SourcePos = _POS


class IndividualFrame(Record):
    name: NameTerm
    types: tuple[NameTerm, ...] = ()
    different_from: tuple[NameTerm, ...] = ()
    pos: SourcePos = _POS


class DifferentIndividualsFrame(Record):
    items: tuple[NameTerm, ...]
    pos: SourcePos = _POS


Frame = Union[ClassFrame, ObjectPropertyFrame, IndividualFrame, DifferentIndividualsFrame]

# Each frame's `Word:` fields, keyword -> attribute, in layout order; a
# DifferentIndividuals frame is its header's list. Every field but
# Characteristics holds a comma list of names, EquivalentTo's in braces.
FRAME_FIELDS: dict[type, dict[str, str]] = {
    ClassFrame: {"EquivalentTo": "equivalent"},
    ObjectPropertyFrame: {
        "Domain": "domains", "Range": "ranges", "Characteristics": "characteristics",
        "SubPropertyOf": "sub_property_of", "InverseOf": "inverse_of",
    },
    IndividualFrame: {"Types": "types", "DifferentFrom": "different_from"},
    DifferentIndividualsFrame: {"DifferentIndividuals": "items"},
}


# ---------------------------------------------------------------------------
# Expressions and arguments
# ---------------------------------------------------------------------------

class BlockExpr(Record):
    frames: tuple[Frame, ...]
    pos: SourcePos = _POS


class RefExpr(Record):
    name: str
    pos: SourcePos = _POS


class MissingArg(Record):
    """Whitespace between semicolons: an elided optional argument."""


class EmptyArg(Record):
    """The literal `empty` argument."""


class ListArgAst(Record):
    """Comma or cons list of name terms; `tail` names the remaining list, if any."""

    items: tuple[NameTerm, ...]
    tail: NameTerm | None = None


ArgValue = Union[MissingArg, EmptyArg, ListArgAst, "ExprAst"]


class ArgAst(Record):
    value: ArgValue
    fits: tuple[tuple[NameTerm, NameTerm], ...] = ()
    pos: SourcePos = _POS


class InstExpr(Record):
    name: str
    args: tuple[ArgAst, ...]
    pos: SourcePos = _POS


class ThenExpr(Record):
    terms: tuple["ExprAst", ...]
    pos: SourcePos = _POS


ExprAst = Union[BlockExpr, RefExpr, InstExpr, ThenExpr]


# ---------------------------------------------------------------------------
# Parameters and definitions
# ---------------------------------------------------------------------------

class FramesParam(Record):
    frames: tuple[Frame, ...]


class ListTemplate(Record):
    """A list parameter `Kind: head :: tail` or `Kind: head :: head2 ::
    tail`; the `empty` template has no kind, no heads and no tail."""

    kind: SymbolKind | None
    heads: tuple[str, ...]
    tail: str | None

    def matches(self, n: int) -> bool:
        return n >= len(self.heads) if self.heads else n == 0


ParamPayload = Union[FramesParam, ListTemplate]


class ParamClauseAst(Record):
    optional: bool
    payload: ParamPayload
    pos: SourcePos = _POS


class PatternDefAst(Record):
    name: str
    params: tuple[ParamClauseAst, ...]
    given: tuple[str, ...]
    locals: tuple["PatternDefAst", ...]
    body: ExprAst
    pos: SourcePos = _POS
    end: SourcePos = _POS


class LibraryAst(Record):
    items: tuple[PatternDefAst, ...]


# ---------------------------------------------------------------------------
# Pretty printer
# ---------------------------------------------------------------------------

_HEADERS = {ClassFrame: "Class", ObjectPropertyFrame: "ObjectProperty", IndividualFrame: "Individual"}


def frame_fields(f: Frame) -> list[str]:
    """A frame's header, then each of its non-empty fields with one comma list."""
    out = [f"{_HEADERS[type(f)]}: {f.name.render()}"] if type(f) in _HEADERS else []
    for word, attr in FRAME_FIELDS[type(f)].items():
        values = getattr(f, attr)
        if values:
            names = ", ".join(v if isinstance(v, str) else v.render() for v in values)
            out.append(f"{word}: {{{names}}}" if word == "EquivalentTo" else f"{word}: {names}")
    return out


def pp_frame(f: Frame) -> str:
    return " ".join(frame_fields(f))


def pp_frames(frames: tuple[Frame, ...]) -> str:
    return "  ".join(pp_frame(f) for f in frames)


def pp_arg(a: ArgAst) -> str:
    v = a.value
    if isinstance(v, MissingArg):
        body = " "
    elif isinstance(v, EmptyArg):
        body = "empty"
    elif isinstance(v, ListArgAst):
        names = [n.render() for n in (*v.items, v.tail) if n is not None]
        body = (", " if v.tail is None else " :: ").join(names)
    else:
        body = pp_expr(v)
    if a.fits:
        maps = ", ".join(f"{s.render()} |-> {t.render()}" for s, t in a.fits)
        body += f" fit {maps}"
    return body


def pp_expr(e: ExprAst) -> str:
    if isinstance(e, BlockExpr):
        inner = pp_frames(e.frames)
        return "{ " + inner + " }" if inner else "{ }"
    if isinstance(e, RefExpr):
        return e.name
    if isinstance(e, InstExpr):
        return f"{e.name}[{'; '.join(pp_arg(a) for a in e.args)}]"
    if isinstance(e, ThenExpr):
        return " then ".join(pp_expr(t) for t in e.terms)
    raise TypeError(f"not an expression: {e!r}")


def pp_param(p: ParamClauseAst) -> str:
    prefix = "? " if p.optional else ""
    pl = p.payload
    if isinstance(pl, FramesParam):
        return prefix + pp_frames(pl.frames)
    if not pl.heads:  # the other payload, a list template
        return prefix + "empty"
    return prefix + f"{pl.kind.value}: " + " :: ".join([*pl.heads, pl.tail])


def pp_def(d: PatternDefAst, indent: str = "") -> str:
    head = f"{indent}ontology {d.name}"
    if d.params:
        head += " [" + "; ".join(pp_param(p) for p in d.params) + "]"
    if d.given:
        head += " given " + ", ".join(d.given)
    head += " ="
    lines = [head]
    if d.locals:
        lines += [f"{indent}  let", *[pp_def(loc, indent + "    ") for loc in d.locals], f"{indent}  in"]
    lines.append(f"{indent}  {pp_expr(d.body)}")
    return "\n".join(lines)


def pretty_print(ast: LibraryAst) -> str:
    """Render a library back to parseable source."""
    return "\n\n".join(pp_def(d) for d in ast.items) + ("\n" if ast.items else "")
