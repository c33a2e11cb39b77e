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

The lexer is one loop over a compiled master regex (`_LEXEME`) whose named
groups are the token kinds; columns are counted from the start of the current
line. The parser reads a token list padded with copies of EOF, so lookahead is
a plain index. Nesting of `[` (in names and instantiations) and of `let` is
bounded by MAX_NESTING; deeper input is a positioned ParseError at the token
that opens the level past the bound.
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple, TypeVar

from .core import NameTerm, SymbolKind
from .diagnostics import LexError, ParseError, SourcePos
from .syntax import (
    FRAME_FIELDS,
    ArgAst,
    BlockExpr,
    ClassFrame,
    DifferentIndividualsFrame,
    EmptyArg,
    EmptyParam,
    ExprAst,
    Frame,
    FramesParam,
    IndividualFrame,
    InstExpr,
    LibraryAst,
    ListArgAst,
    ListHeaderParam,
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

_T = TypeVar("_T")


class Token(NamedTuple):
    kind: str
    value: str
    pos: SourcePos

    def __repr__(self):
        return f"Token({self.kind}, {self.value!r}, {self.pos.line}:{self.pos.col})"


# One alternative per lexeme, named after its token kind, and each match also
# takes the blanks after it, so most matches are exactly one token. SPACE
# matches only blanks that follow no lexeme (at the start of the input or of a
# line); BAD takes any other character, so `finditer` never skips one.
_LEXEME = re.compile(r"""
    (?:
      (?P<IDENT>[A-Za-z0-9_]+)
    | (?P<NEWLINE>\n)
    | (?P<COMMENT>%%[^\n]*)
    | (?P<CONS>::)
    | (?P<COLON>:)
    | (?P<MAPSTO>\|->)
    | (?P<LBRACKET>\[) | (?P<RBRACKET>\])
    | (?P<LBRACE>\{) | (?P<RBRACE>\})
    | (?P<SEMI>;) | (?P<COMMA>,)
    | (?P<EQUALS>=) | (?P<QUESTION>\?)
    | (?P<SPACE>(?=[ \t\r]))
    | (?P<BAD>[\s\S])
    )[ \t\r]*
""", re.VERBOSE)

_PUNCTUATION = {
    "CONS": "::", "COLON": ":", "MAPSTO": "|->",
    "LBRACKET": "[", "RBRACKET": "]", "LBRACE": "{", "RBRACE": "}",
    "SEMI": ";", "COMMA": ",", "EQUALS": "=", "QUESTION": "?",
}

# builds a Token or SourcePos from a tuple of its fields without the Python
# frame of the NamedTuple constructor, which is most of the cost per token
_new = tuple.__new__


def tokenize(text: str, file: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    line, line_start = 1, 0
    end = len(text)  # where the EOF token sits; a trailing comment moves it back
    for m in _LEXEME.finditer(text):
        kind = m.lastgroup
        if kind == "IDENT":
            word = m[1]  # IDENT is group 1
            pos = _new(SourcePos, (file, line, m.start() - line_start + 1))
            if word in KEYWORDS:
                kind = "KEYWORD"
            elif word.isdigit():
                raise LexError(f"bad token {word!r}: names need at least one letter or '_'", pos)
            append(_new(Token, (kind, word, pos)))
        elif kind == "NEWLINE":
            line += 1
            line_start = m.start() + 1
        elif kind in _PUNCTUATION:
            pos = _new(SourcePos, (file, line, m.start() - line_start + 1))
            append(_new(Token, (kind, _PUNCTUATION[kind], pos)))
        elif kind == "COMMENT":
            if m.end() == len(text):
                end = m.start()
        elif kind == "BAD":
            raise LexError(f"bad character {m[kind]!r}", SourcePos(file, line, m.start() - line_start + 1))
    append(Token("EOF", "", SourcePos(file, line, end - line_start + 1)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        # copies of EOF past the end let `peek` (at most 3 ahead) index
        # without a bounds check; `advance` never moves past the first EOF
        self.tokens = tokens + tokens[-1:] * 3
        self.i = 0
        self.depth = 0

    # -- token access ------------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.i + ahead]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "EOF":
            self.i += 1
        return tok

    def at(self, kind: str, value: str | None = None) -> bool:
        tok = self.tokens[self.i]
        return tok.kind == kind and (value is None or tok.value == value)

    def at_keyword(self, word: str) -> bool:
        tok = self.tokens[self.i]
        return tok.kind == "KEYWORD" and tok.value == word

    def accept(self, kind: str, value: str | None = None) -> Token | None:
        tok = self.tokens[self.i]
        if tok.kind == kind and (value is None or tok.value == value):
            return self.advance()
        return None

    def nest(self, tok: Token) -> None:
        """Enter one level of `[` or `let` nesting opened by `tok`."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", tok.pos)

    def expect(self, kind: str, value: str | None = None, what: str | None = None) -> Token:
        tok = self.tokens[self.i]
        if tok.kind == kind and (value is None or tok.value == value):
            return self.advance()
        expected = what or (repr(value) if value is not None else kind)
        got = tok.value or tok.kind
        raise ParseError(f"expected {expected}, got {got!r}", tok.pos)

    # -- names -------------------------------------------------------------

    def parse_plain_name(self) -> str:
        return self.expect("IDENT", what="a name").value

    def parse_name_term(self) -> NameTerm:
        base = self.parse_plain_name()
        if not self.at("LBRACKET"):
            return NameTerm(base)
        self.nest(self.advance())
        args = self._sep_list(self.parse_name_term)
        self.expect("RBRACKET", what="']'")
        self.depth -= 1
        return NameTerm(base, args)

    def _sep_list(self, parse: Callable[[], _T], sep: str = "COMMA") -> tuple[_T, ...]:
        """One or more of what `parse` reads, separated by `sep` tokens."""
        items = [parse()]
        while self.accept(sep):
            items.append(parse())
        return tuple(items)

    # -- frames --------------------------------------------------------------

    def at_frame_start(self) -> bool:
        tok = self.tokens[self.i]
        if tok.kind != "IDENT" or self.tokens[self.i + 1].kind != "COLON":
            return False
        return tok.value in KIND_KEYWORDS or tok.value == "DifferentIndividuals"

    def parse_frames(self, stop_kinds: tuple[str, ...]) -> tuple[Frame, ...]:
        frames: list[Frame] = []
        while self.at_frame_start():
            frames.append(self.parse_frame())
            if self.tokens[self.i].kind in stop_kinds:
                break
        if not frames:
            tok = self.peek()
            raise ParseError(f"expected a frame, got {tok.value or tok.kind!r}", tok.pos)
        return tuple(frames)

    def parse_frame(self) -> Frame:
        tok = self.expect("IDENT")
        self.expect("COLON", what="':'")
        if tok.value == "DifferentIndividuals":
            return DifferentIndividualsFrame(self._sep_list(self.parse_name_term), tok.pos)
        if tok.value == "Class":
            name = self.parse_name_term()
            equivalent = None
            if self.at("IDENT", "EquivalentTo"):
                self.advance()
                self.expect("COLON", what="':'")
                self.expect("LBRACE", what="'{'")
                equivalent = self._sep_list(self.parse_name_term)
                self.expect("RBRACE", what="'}'")
            return ClassFrame(name, equivalent, tok.pos)
        # "Individual": parse_frames calls this only at a frame start
        frame = ObjectPropertyFrame if tok.value == "ObjectProperty" else IndividualFrame
        return self._parse_fields(frame, self.parse_name_term(), tok.pos)

    def _parse_fields(self, frame: type, name: NameTerm, pos: SourcePos) -> Frame:
        """The `Word:` fields of an ObjectProperty or Individual frame, in any
        order and each any number of times."""
        fields = FRAME_FIELDS[frame]
        values: dict[str, tuple] = dict.fromkeys(fields.values(), ())
        while ((tok := self.tokens[self.i]).kind == "IDENT" and tok.value in fields
               and self.tokens[self.i + 1].kind == "COLON"):
            self.i, attr = self.i + 2, fields[tok.value]
            if attr != "characteristics":
                values[attr] += self._sep_list(self.parse_name_term)
                continue
            while True:
                ctok = self.expect("IDENT", what="a characteristic")
                if ctok.value not in CHARACTERISTICS:
                    raise ParseError(
                        f"unsupported characteristic {ctok.value!r} "
                        f"(supported: {', '.join(sorted(CHARACTERISTICS))})",
                        ctok.pos,
                    )
                values[attr] += (ctok.value,)
                if not (self.at("COMMA") and self.peek(1).kind == "IDENT"
                        and self.peek(1).value in CHARACTERISTICS
                        and self.peek(2).kind != "COLON"):
                    break
                self.advance()
        return frame(name, *values.values(), pos)  # the fields in layout order

    # -- expressions ---------------------------------------------------------

    def parse_expr(self) -> ExprAst:
        first = self.parse_term()
        terms = [first]
        while self.at_keyword("then"):
            self.advance()
            terms.append(self.parse_term())
        if len(terms) == 1:
            return first
        return ThenExpr(tuple(terms), first.pos)

    def parse_term(self) -> ExprAst:
        tok = self.tokens[self.i]
        if tok.kind == "LBRACE":
            self.advance()
            frames: tuple[Frame, ...] = ()
            if not self.at("RBRACE"):
                frames = self.parse_frames(("RBRACE",))
            self.expect("RBRACE", what="'}'")
            return BlockExpr(frames, tok.pos)
        if self.at_frame_start():
            return BlockExpr(self.parse_frames(()), tok.pos)
        if tok.kind == "IDENT":
            name = self.advance().value
            if self.at("LBRACKET"):
                self.nest(self.advance())
                args = self._sep_list(self.parse_arg, "SEMI")
                self.expect("RBRACKET", what="']'")
                self.depth -= 1
                return InstExpr(name, args, tok.pos)
            return RefExpr(name, tok.pos)
        raise ParseError(f"expected an ontology expression, got {tok.value or tok.kind!r}", tok.pos)

    # -- instantiation arguments ----------------------------------------------

    def parse_arg(self) -> ArgAst:
        tok = self.tokens[self.i]
        if tok.kind in ("SEMI", "RBRACKET"):
            return ArgAst(MissingArg(), (), tok.pos)
        if tok.kind == "KEYWORD" and tok.value == "empty":
            self.advance()
            value = EmptyArg()
        else:
            expr = self.parse_expr()
            if self.at("COMMA") or self.at("CONS"):
                value = self._parse_list_rest(expr)
            else:
                value = expr
        fits: tuple[tuple[NameTerm, NameTerm], ...] = ()
        if self.at_keyword("fit"):
            self.advance()
            fits = self._sep_list(self._parse_fit_map)
        return ArgAst(value, fits, tok.pos)

    def _expr_as_item(self, e: ExprAst) -> NameTerm:
        t = expr_to_name_term(e)
        if t is None:
            raise ParseError("expected a name in a list argument", e.pos)
        return t

    def _parse_list_rest(self, first: ExprAst) -> ListArgAst:
        items = [self._expr_as_item(first)]
        if self.at("COMMA"):
            while self.accept("COMMA"):
                items.append(self.parse_name_term())
            return ListArgAst(tuple(items), None)
        tail: NameTerm | None = None
        while self.accept("CONS"):
            if self.at_keyword("empty"):
                self.advance()
                tail = None
                break
            term = self.parse_name_term()
            if self.at("CONS"):
                items.append(term)
                continue
            if self.at("COMMA"):
                items.append(term)
                while self.accept("COMMA"):
                    items.append(self.parse_name_term())
                tail = None
                break
            tail = term
            break
        return ListArgAst(tuple(items), tail)

    def _parse_fit_map(self) -> tuple[NameTerm, NameTerm]:
        src = self.parse_name_term()
        self.expect("MAPSTO", what="'|->'")
        dst = self.parse_name_term()
        return (src, dst)

    # -- parameters ------------------------------------------------------------

    def parse_param(self) -> ParamClauseAst:
        tok = self.peek()
        optional = bool(self.accept("QUESTION"))
        if self.at_keyword("empty"):
            self.advance()
            return ParamClauseAst(optional, EmptyParam(), tok.pos)
        if (self.at("IDENT") and self.peek().value in KIND_KEYWORDS
                and self.peek(1).kind == "COLON" and self.peek(2).kind == "IDENT"
                and self.peek(3).kind == "CONS"):
            kind = KIND_KEYWORDS[self.advance().value]
            self.advance()  # colon
            head = self.parse_plain_name()
            self.expect("CONS", what="'::'")
            second = self.parse_plain_name()
            if self.accept("CONS"):
                tail = self.parse_plain_name()
                return ParamClauseAst(optional, ListHeaderParam(kind, head, second, tail), tok.pos)
            return ParamClauseAst(optional, ListHeaderParam(kind, head, None, second), tok.pos)
        frames = self.parse_frames(("SEMI", "RBRACKET"))
        return ParamClauseAst(optional, FramesParam(frames), tok.pos)

    # -- definitions -------------------------------------------------------------

    def parse_def(self) -> PatternDefAst:
        start = self.expect("KEYWORD", "ontology", what="'ontology'")
        name = self.parse_plain_name()
        params: tuple[ParamClauseAst, ...] = ()
        if self.accept("LBRACKET"):
            params = self._sep_list(self.parse_param, "SEMI")
            self.expect("RBRACKET", what="']'")
        given: tuple[str, ...] = ()
        if self.at_keyword("given"):
            self.advance()
            given = self._sep_list(self.parse_plain_name)
        self.expect("EQUALS", what="'='")
        locals_: tuple[PatternDefAst, ...] = ()
        if self.at_keyword("let"):
            self.nest(self.advance())
            defs = []
            while self.at_keyword("ontology"):
                defs.append(self.parse_def())
            self.expect("KEYWORD", "in", what="'in'")
            self.depth -= 1
            locals_ = tuple(defs)
        body = self.parse_expr()
        end = self.peek().pos
        if self.at_keyword("end"):
            end = self.advance().pos
        return PatternDefAst(name, params, given, locals_, body, start.pos, end)

    def parse_library(self) -> LibraryAst:
        items = []
        while not self.at("EOF"):
            if not self.at_keyword("ontology"):
                tok = self.peek()
                raise ParseError(f"expected 'ontology', got {tok.value or tok.kind!r}", tok.pos)
            items.append(self.parse_def())
        return LibraryAst(tuple(items))


def expr_to_name_term(e: ExprAst) -> NameTerm | None:
    """Reinterpret an expression as a parameterized name, if it has that shape.

    `greater[Val]` parses as an instantiation node; whether it denotes a
    pattern call or a name is decided during elaboration, which uses this.
    """
    if isinstance(e, RefExpr):
        return NameTerm(e.name)
    if isinstance(e, InstExpr):
        args: list[NameTerm] = []
        for a in e.args:
            if a.fits:
                return None
            v = a.value
            if isinstance(v, ListArgAst):
                if v.tail is not None:
                    return None
                args.extend(v.items)
            elif isinstance(v, (RefExpr, InstExpr)):
                t = expr_to_name_term(v)
                if t is None:
                    return None
                args.append(t)
            else:
                return None
        if not args:
            return None
        return NameTerm(e.name, tuple(args))
    return None


def parse_library(text: str, file: str = "<input>") -> LibraryAst:
    """Parse a whole pattern library; raises LexError/ParseError with positions."""
    return _Parser(tokenize(text, file)).parse_library()


def parse_frames(text: str, file: str = "<frames>") -> tuple[Frame, ...]:
    """Parse a bare sequence of frames (the Manchester-like fragment)."""
    p = _Parser(tokenize(text, file))
    if p.at("EOF"):
        return ()
    frames = p.parse_frames(())
    p.expect("EOF", what="end of input")
    return frames
