"""Lexer and recursive-descent parser for pattern libraries.

Grammar (EBNF):

    library   = { patterndef } ;
    patterndef= "ontology" NAME [ "[" params "]" ] [ "given" names ] "="
                [ "let" { patterndef } "in" ] expr [ "end" ] ;
    params    = param { ";" param } ;
    param     = [ "?" ] ( "empty"
                        | KIND ":" NAME "::" NAME [ "::" NAME ]
                        | frames ) ;
    expr      = term { "then" term } ;
    term      = "{" frames "}" | frames | NAME [ "[" args "]" ] ;
    args      = arg { ";" arg } ;
    arg       = [ "empty" | listexpr | expr ] [ "fit" map { "," map } ] ;
    listexpr  = item "::" ( "empty" | NAME | listexpr ) | item { "," item } ;
    map       = NAME "|->" NAME ;

Frames are a closed Manchester-like fragment: Class (with EquivalentTo
individual enumerations), ObjectProperty (Domain / Range / Characteristics /
SubPropertyOf / InverseOf), Individual (Types / DifferentFrom), and standalone
DifferentIndividuals. Names may be parameterized (`greater[Val]`); identifiers
are made of letters, digits and underscores with at least one non-digit, so
grade names like `0Insignificant` lex as names. Comments run from `%%` to end
of line.

The lexer is one loop over a compiled master regex (`_LEXEME`) that appends
each token's value and start offset to the lists of a `Tokens`; the kinds
follow from the values (`_KINDS`). It builds no object per token. A position
(`SourcePos`) is made from an offset and the line starts only where one is
kept: by an AST node that carries one, by an error, or when `Tokens` is
iterated as `(kind, value, pos)` triples. The parser reads the kind and value
lists, padded with copies of EOF, so lookahead is a plain index; a value
names its kind except for names, so it reads kinds only to tell a name from a
keyword. Nesting of `[` (in names and instantiations) and of `let` is bounded
by MAX_NESTING; deeper input is a positioned ParseError at the token that
opens the level past the bound.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections.abc import Callable, Iterator
from itertools import repeat

from .core import NameTerm, SymbolKind
from .diagnostics import LexError, ParseError, SourcePos
from .syntax import (
    FRAME_FIELDS,
    ArgAst,
    BlockExpr,
    ClassFrame,
    DifferentIndividualsFrame,
    EmptyArg,
    ExprAst,
    Frame,
    FramesParam,
    IndividualFrame,
    InstExpr,
    LibraryAst,
    ListArgAst,
    ListTemplate,
    MissingArg,
    ObjectPropertyFrame,
    ParamClauseAst,
    PatternDefAst,
    RefExpr,
    ThenExpr,
)

KEYWORDS = {"ontology", "given", "let", "in", "then", "fit", "empty", "end"}

KIND_KEYWORDS = {
    "Class": SymbolKind.CLASS,
    "ObjectProperty": SymbolKind.OBJECT_PROPERTY,
    "Individual": SymbolKind.INDIVIDUAL,
}

FIELD_KEYWORDS = {w for fields in FRAME_FIELDS.values() for w in fields} - {"DifferentIndividuals"}

CHARACTERISTICS = {"Transitive", "Reflexive"}

# Deepest nesting of `[` (names and instantiations) and `let` the parser
# accepts; deeper input is a ParseError, never an interpreter recursion error.
MAX_NESTING = 100

FRAME_WORDS = {*KIND_KEYWORDS, "DifferentIndividuals"}  # each starts a frame before a colon

# builds a SourcePos from a tuple of its fields without the Python frame of
# the namedtuple's `__new__`
_new = tuple.__new__


class Tokens:
    """One input's tokens: parallel lists of each token's kind, value and
    start offset, the last token an EOF, and the offsets where lines start.
    Its length is the number of tokens; iterating it gives each token as a
    `(kind, value, pos)` triple."""

    __slots__ = ("kinds", "values", "starts", "line_starts", "file")

    def __init__(self, line_starts: list[int], file: str):
        self.kinds, self.values, self.starts = [], [], []  # `tokenize` fills them
        self.line_starts, self.file = line_starts, file

    def __len__(self) -> int:
        return len(self.kinds)

    def __iter__(self) -> Iterator[tuple[str, str, SourcePos]]:
        return zip(self.kinds, self.values, map(self.pos, range(len(self.kinds))))

    def pos(self, i: int) -> SourcePos:
        """Token i's position."""
        start = self.starts[i]
        line = bisect_right(self.line_starts, start)
        return _new(SourcePos, (self.file, line, start - self.line_starts[line - 1] + 1))


# Each match is one lexeme (group 1: a name, a keyword or punctuation), a
# comment, or BAD, any other character, and takes the blanks and line ends
# after it; SPACE matches only at the start of the input, before blanks. So
# `finditer` never skips a character.
_LEXEME = re.compile(r"""
    (?:
      ([A-Za-z0-9_]+|::|\|->|[:\[\]{};,=?])
    | (?P<COMMENT>%%[^\n]*)
    | (?P<SPACE>(?=[ \t\r\n]))
    | (?P<BAD>[\s\S])
    )[ \t\r\n]*
""", re.VERBOSE)

# the kind of each value that is not a name
_KINDS = {
    "::": "CONS", ":": "COLON", "|->": "MAPSTO",
    "[": "LBRACKET", "]": "RBRACKET", "{": "LBRACE", "}": "RBRACE",
    ";": "SEMI", ",": "COMMA", "=": "EQUALS", "?": "QUESTION",
    **dict.fromkeys(KEYWORDS, "KEYWORD"),
}

def tokenize(text: str, file: str) -> Tokens:
    tokens = Tokens([0, *(m.end() for m in re.finditer("\n", text))], file)
    values, starts = tokens.values, tokens.starts
    add_value, add_start = values.append, starts.append
    end = len(text)  # where the EOF token sits; a trailing comment moves it back
    bad = None
    for m in _LEXEME.finditer(text):
        value = m[1]
        if value is not None:
            add_value(value)
            add_start(m.start())
        elif m.lastgroup == "BAD":
            bad = m
            break
        elif m.lastgroup == "COMMENT" and m.end("COMMENT") == len(text):
            end = m.start()
    tokens.kinds += map(_KINDS.get, values, repeat("IDENT"))
    word = next(filter(str.isdigit, values), None)  # before `bad`: the first error in the text wins
    if word is not None:
        pos = tokens.pos(values.index(word))
        raise LexError(f"bad token {word!r}: names need at least one letter or '_'", pos)
    if bad is not None:
        add_start(bad.start())
        raise LexError(f"bad character {bad['BAD']!r}", tokens.pos(-1))
    tokens.kinds.append("EOF")
    add_value("")
    add_start(end)
    return tokens


class _Parser:
    def __init__(self, tokens: Tokens):
        # copies of EOF past the end let lookahead (at most 3 ahead) index
        # without a bounds check; the parser never moves past the first EOF
        self.kinds = tokens.kinds + ["EOF"] * 3
        self.values = tokens.values + [""] * 3
        self.pos = tokens.pos
        self.i = 0
        self.depth = 0

    # -- token access ------------------------------------------------------

    def fail(self, what: str):
        """Raise `expected <what>, got <the current token>` at that token."""
        i = self.i
        raise ParseError(f"expected {what}, got {self.values[i] or self.kinds[i]!r}", self.pos(i))

    def expect(self, value: str) -> None:
        """Step over the current token if it is `value`, else fail."""
        if self.values[self.i] != value:
            self.fail(repr(value))
        self.i += 1

    def nest(self) -> None:
        """Step over the current `[` or `let`, entering one level of nesting."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", self.pos(self.i))
        self.i += 1

    # -- names -------------------------------------------------------------

    def parse_plain_name(self) -> str:
        i = self.i
        if self.kinds[i] != "IDENT":
            self.fail("a name")
        self.i = i + 1
        return self.values[i]

    def parse_name_term(self) -> NameTerm:
        base = self.parse_plain_name()
        if self.values[self.i] != "[":
            return NameTerm(base)
        self.nest()
        args = self._sep_list(self.parse_name_term)
        self.expect("]")
        self.depth -= 1
        return NameTerm(base, args)

    def _sep_list(self, parse: Callable, sep: str = ",") -> tuple:
        """One or more of what `parse` reads, separated by `sep` tokens: a
        comma list by default."""
        items = [parse()]
        while self.values[self.i] == sep:
            self.i += 1
            items.append(parse())
        return tuple(items)

    # -- frames --------------------------------------------------------------

    def parse_frames(self, stop: tuple[str, ...]) -> tuple[Frame, ...]:
        values = self.values
        frames: list[Frame] = []
        while values[self.i] in FRAME_WORDS and values[self.i + 1] == ":":
            frames.append(self.parse_frame())
            if values[self.i] in stop:
                break
        if not frames:
            self.fail("a frame")
        return tuple(frames)

    def parse_frame(self) -> Frame:
        i = self.i
        word = self.values[i]
        self.i = i + 2  # the header and its colon
        if word == "DifferentIndividuals":
            return DifferentIndividualsFrame(self._sep_list(self.parse_name_term), self.pos(i))
        if word == "Class":
            name = self.parse_name_term()
            equivalent = None
            if self.values[self.i] == "EquivalentTo":
                self.i += 1
                self.expect(":")
                self.expect("{")
                equivalent = self._sep_list(self.parse_name_term)
                self.expect("}")
            return ClassFrame(name, equivalent, self.pos(i))
        # "Individual": parse_frames calls this only at a frame start
        frame = ObjectPropertyFrame if word == "ObjectProperty" else IndividualFrame
        return self._parse_fields(frame, self.parse_name_term(), self.pos(i))

    def _parse_fields(self, frame: type, name: NameTerm, pos: SourcePos) -> Frame:
        """The `Word:` fields of an ObjectProperty or Individual frame, in any
        order and each any number of times."""
        fields = FRAME_FIELDS[frame]
        words = self.values
        values: dict[str, tuple] = dict.fromkeys(fields.values(), ())
        while words[self.i] in fields and words[self.i + 1] == ":":
            self.i, attr = self.i + 2, fields[words[self.i]]
            if attr != "characteristics":
                values[attr] += self._sep_list(self.parse_name_term)
                continue
            while True:
                i = self.i
                if self.kinds[i] != "IDENT":
                    self.fail("a characteristic")
                if words[i] not in CHARACTERISTICS:
                    raise ParseError(
                        f"unsupported characteristic {words[i]!r} "
                        f"(supported: {', '.join(sorted(CHARACTERISTICS))})",
                        self.pos(i),
                    )
                values[attr] += (words[i],)
                self.i = i + 1
                if not (words[i + 1] == "," and words[i + 2] in CHARACTERISTICS and words[i + 3] != ":"):
                    break
                self.i = i + 2
        return frame(name, *values.values(), pos)  # the fields in layout order

    # -- expressions ---------------------------------------------------------

    def parse_expr(self) -> ExprAst:
        terms = [self.parse_term()]
        while self.values[self.i] == "then":
            self.i += 1
            terms.append(self.parse_term())
        return terms[0] if len(terms) == 1 else ThenExpr(tuple(terms), terms[0].pos)

    def parse_term(self) -> ExprAst:
        i = self.i
        values = self.values
        if values[i] == "{":
            self.i = i + 1
            frames = () if values[i + 1] == "}" else self.parse_frames(("}",))
            self.expect("}")
            return BlockExpr(frames, self.pos(i))
        if values[i] in FRAME_WORDS and values[i + 1] == ":":
            frames = self.parse_frames(())
            return BlockExpr(frames, frames[0].pos)
        if self.kinds[i] != "IDENT":
            self.fail("an ontology expression")
        if values[i + 1] != "[":
            self.i = i + 1
            return RefExpr(values[i], self.pos(i))
        self.i = i + 1
        self.nest()
        args = self._sep_list(self.parse_arg, ";")
        self.expect("]")
        self.depth -= 1
        return InstExpr(values[i], args, self.pos(i))

    # -- instantiation arguments ----------------------------------------------

    def parse_arg(self) -> ArgAst:
        i = self.i
        values = self.values
        if values[i] in (";", "]"):
            return ArgAst(MissingArg(), (), self.pos(i))
        if values[i] == "empty":
            self.i = i + 1
            value, pos = EmptyArg(), self.pos(i)
        else:
            value = self.parse_expr()
            pos = value.pos  # an expression's position is its first token's
            if values[self.i] in (",", "::"):
                value = self._parse_list_rest(value)
        fits: tuple[tuple[NameTerm, NameTerm], ...] = ()
        if values[self.i] == "fit":
            self.i += 1
            fits = self._sep_list(self._parse_fit_map)
        return ArgAst(value, fits, pos)

    def _parse_list_rest(self, first: ExprAst) -> ListArgAst:
        items = [expr_to_name_term(first)]
        if items[0] is None:
            raise ParseError("expected a name in a list argument", first.pos)
        values = self.values
        while values[self.i] == "::":
            self.i += 1
            if values[self.i] == "empty":
                self.i += 1
                return ListArgAst(tuple(items), None)
            items.append(self.parse_name_term())
        if values[self.i] == ",":
            self.i += 1
            return ListArgAst((*items, *self._sep_list(self.parse_name_term)), None)
        return ListArgAst(tuple(items[:-1]), items[-1])  # a cons list that ends in its tail

    def _parse_fit_map(self) -> tuple[NameTerm, NameTerm]:
        src = self.parse_name_term()
        self.expect("|->")
        return (src, self.parse_name_term())

    # -- parameters ------------------------------------------------------------

    def parse_param(self) -> ParamClauseAst:
        i = self.i
        values = self.values
        optional = values[i] == "?"
        j = self.i = i + optional  # past the `?`
        if values[j] == "empty":
            self.i = j + 1
            payload = ListTemplate(None, (), None)
        elif (values[j] in KIND_KEYWORDS and values[j + 1] == ":" and self.kinds[j + 2] == "IDENT"
                and values[j + 3] == "::"):
            self.i = j + 4  # the kind, its colon, the head and `::`
            heads, tail = (values[j + 2],), self.parse_plain_name()
            if values[self.i] == "::":
                self.i += 1
                heads, tail = (*heads, tail), self.parse_plain_name()
            payload = ListTemplate(KIND_KEYWORDS[values[j]], heads, tail)
        else:
            payload = FramesParam(self.parse_frames((";", "]")))
        return ParamClauseAst(optional, payload, self.pos(i))

    # -- definitions -------------------------------------------------------------

    def parse_def(self) -> PatternDefAst:
        """A definition; the current token is its `ontology`."""
        start = self.i
        self.i += 1
        name = self.parse_plain_name()
        values = self.values
        params: tuple[ParamClauseAst, ...] = ()
        if values[self.i] == "[":
            self.i += 1
            params = self._sep_list(self.parse_param, ";")
            self.expect("]")
        given: tuple[str, ...] = ()
        if values[self.i] == "given":
            self.i += 1
            given = self._sep_list(self.parse_plain_name)
        self.expect("=")
        locals_: tuple[PatternDefAst, ...] = ()
        if values[self.i] == "let":
            self.nest()
            defs = []
            while values[self.i] == "ontology":
                defs.append(self.parse_def())
            self.expect("in")
            self.depth -= 1
            locals_ = tuple(defs)
        body = self.parse_expr()
        end = self.i
        if values[end] == "end":
            self.i += 1
        return PatternDefAst(name, params, given, locals_, body, self.pos(start), self.pos(end))

    def parse_library(self) -> LibraryAst:
        items = []
        while self.kinds[self.i] != "EOF":
            if self.values[self.i] != "ontology":
                self.fail("'ontology'")
            items.append(self.parse_def())
        return LibraryAst(tuple(items))


def expr_to_name_term(e: ExprAst) -> NameTerm | None:
    """Reinterpret an expression as a parameterized name, if it has that shape.

    `greater[Val]` parses as an instantiation node; whether it denotes a
    pattern call or a name is decided during elaboration, which uses this.
    """
    if isinstance(e, RefExpr):
        return NameTerm(e.name)
    if not isinstance(e, InstExpr):
        return None
    args: list[NameTerm] = []
    for a in e.args:
        v = a.value
        if a.fits or isinstance(v, ListArgAst) and v.tail is not None:
            return None
        if isinstance(v, ListArgAst):
            args.extend(v.items)
        elif (t := expr_to_name_term(v)) is None:  # no name: a block, `then` or empty argument
            return None
        else:
            args.append(t)
    return NameTerm(e.name, tuple(args)) if args else None


def parse_library(text: str, file: str = "<input>") -> LibraryAst:
    """Parse a whole pattern library; raises LexError/ParseError with positions."""
    return _Parser(tokenize(text, file)).parse_library()


def parse_frames(text: str, file: str = "<frames>") -> tuple[Frame, ...]:
    """Parse a bare sequence of frames (the Manchester-like fragment)."""
    p = _Parser(tokenize(text, file))
    frames = () if p.kinds[0] == "EOF" else p.parse_frames(())
    if p.kinds[p.i] != "EOF":
        p.fail("end of input")
    return frames
