from __future__ import annotations

import ast as pyast
import shutil
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from godp import (
    build_library,
    emit_struct_dump,
    expand_named,
    parse_frames,
    parse_library,
    pretty_print,
    render_diagnostics,
)
from godp.core import NameTerm, SymbolKind, name
from godp.diagnostics import Diagnostic, LexError, ParseError, SourcePos
from godp.elaborate import build_block
from godp.parser import MAX_NESTING, tokenize
from godp.syntax import (
    BlockExpr,
    ClassFrame,
    FramesParam,
    IndividualFrame,
    InstExpr,
    ListArgAst,
    ListTemplate,
    RefExpr,
    ThenExpr,
)

from conftest import corpus_paths
from front_end_cost import build_cost, corpus_texts, count_calls
import source_size


def test_parse_two_param_clauses():
    ast = parse_library(
        "ontology ReflexiveRelation [ObjectProperty: r; Class: C] =\n"
        "  { ObjectProperty: r Domain: C Range: C Characteristics: Reflexive }\n"
    )
    assert len(ast.items) == 1
    d = ast.items[0]
    assert d.name == "ReflexiveRelation"
    assert len(d.params) == 2
    assert isinstance(d.params[0].payload, FramesParam)
    assert isinstance(d.params[1].payload, FramesParam)


def test_parse_empty_input():
    assert parse_library("").items == ()
    assert parse_library("%% just a comment\n").items == ()


def test_parse_list_parameter_header():
    ast = parse_library("ontology G [Class: C :: Cs] = { Class: C }")
    p = ast.items[0].params[0].payload
    assert p == ListTemplate(SymbolKind.CLASS, ("C",), "Cs")


def test_parse_double_cons_header_and_empty_template():
    ast = parse_library(
        "ontology G [Individual: x :: y :: ys] = { Individual: x }\n"
        "ontology G [empty] = { }\n"
    )
    assert ast.items[0].params[0].payload == ListTemplate(SymbolKind.INDIVIDUAL, ("x", "y"), "ys")
    assert ast.items[1].params[0].payload == ListTemplate(None, (), None)


def test_parse_frames_property_fields():
    frames = parse_frames("ObjectProperty: r Characteristics: Transitive Domain: C Range: C")
    assert len(frames) == 1
    o = build_block(frames)
    assert len([s for s in o.signature if s.kind is SymbolKind.OBJECT_PROPERTY]) == 1
    assert len(o.axioms) == 3


def test_parse_frames_class_decl_only():
    frames = parse_frames("Class: C")
    assert frames == (ClassFrame(name("C")),)
    o = build_block(frames)
    assert len(o.signature) == 1 and not o.axioms


def test_parse_frames_individual_with_type():
    frames = parse_frames("Individual: v Types: Val")
    assert frames == (IndividualFrame(name("v"), (name("Val"),), ()),)
    o = build_block(frames)
    assert len(o.signature) == 2
    assert len(o.axioms) == 1


def test_parse_frames_unknown_keyword():
    with pytest.raises(ParseError):
        parse_frames("Relation: r")


def test_an_unsupported_characteristic_is_a_positioned_parse_error():
    with pytest.raises(ParseError) as exc:
        parse_library("ontology A = { ObjectProperty: p Characteristics: Symmetric }", "c.gdp")
    assert exc.value.message == "unsupported characteristic 'Symmetric' (supported: Reflexive, Transitive)"
    assert exc.value.pos == SourcePos("c.gdp", 1, 51)


def test_a_characteristics_field_without_a_word_is_a_positioned_parse_error():
    with pytest.raises(ParseError) as exc:
        parse_library("ontology A = ObjectProperty: r Characteristics: ,", "c.gdp")
    assert exc.value.message == "expected a characteristic, got ','"
    assert exc.value.pos == SourcePos("c.gdp", 1, 49)


@pytest.mark.parametrize("arg", [
    "{ Class: C }, b", "g[x fit a |-> b] :: t", "g[x :: xs], b", "g[{ Class: C }], b", "g[ ], b", "g[empty], b",
])
def test_a_list_argument_item_that_is_no_name_is_a_positioned_parse_error(arg):
    with pytest.raises(ParseError) as exc:
        parse_library(f"ontology A = G[{arg}]", "l.gdp")
    assert exc.value.message == "expected a name in a list argument"
    assert exc.value.pos == SourcePos("l.gdp", 1, 16)


def test_parse_frames_rejects_what_follows_the_frames():
    with pytest.raises(ParseError) as exc:
        parse_frames("Class: C }", "f")
    assert exc.value.message == "expected end of input, got '}'"
    assert exc.value.pos == SourcePos("f", 1, 10)


def test_parse_parameterized_names():
    frames = parse_frames("ObjectProperty: greater[Val] Domain: Val")
    assert frames[0].name == name("greater", "Val")


def test_parse_digit_initial_names():
    frames = parse_frames("Individual: 0Insignificant Types: Significance")
    assert frames[0].name == NameTerm("0Insignificant")
    with pytest.raises(LexError):
        parse_frames("Individual: 042")


def test_lex_bad_character():
    with pytest.raises(LexError) as exc:
        parse_library("ontology A = { Class: C$ }")
    assert exc.value.pos is not None


def test_parse_then_chain_and_instantiation():
    ast = parse_library("ontology A = B then G[x; Class: D; a, b; x :: xs] then { Class: C }")
    body = ast.items[0].body
    assert isinstance(body, ThenExpr) and len(body.terms) == 3
    inst = body.terms[1]
    assert isinstance(inst, InstExpr) and inst.name == "G"
    assert isinstance(inst.args[0].value, RefExpr)
    assert isinstance(inst.args[1].value, BlockExpr)
    assert inst.args[2].value == ListArgAst((name("a"), name("b")), None)
    assert inst.args[3].value == ListArgAst((name("x"),), name("xs"))


def test_cons_list_arguments_ending_in_empty_or_a_comma_list():
    src = (
        "ontology All [Individual: x :: xs] = { DifferentIndividuals: x, xs }\n"
        "ontology One = All[a :: empty]\n"
        "ontology Three = All[a :: b, c]\n"
    )
    one, three = (d.body.args[0].value for d in parse_library(src).items[1:])
    assert one == ListArgAst((name("a"),), None)
    assert three == ListArgAst((name("a"), name("b"), name("c")), None)
    lib = build_library(parse_library(src))
    assert emit_struct_dump(expand_named(lib, "One")) == "SYM Individual a\n"
    assert emit_struct_dump(expand_named(lib, "Three")) == (
        "AX DifferentIndividuals a b c\n"
        "SYM Individual a\n"
        "SYM Individual b\n"
        "SYM Individual c\n"
    )


def test_parse_fit_maps_and_missing_args():
    ast = parse_library("ontology A = G[q fit D |-> Pizza, R |-> Person; ; empty]")
    args = ast.items[0].body.args
    assert args[0].fits == ((name("D"), name("Pizza")), (name("R"), name("Person")))
    from godp.syntax import EmptyArg, MissingArg

    assert isinstance(args[1].value, MissingArg)
    assert isinstance(args[2].value, EmptyArg)


def test_parse_let_in_and_given_and_end():
    src = (
        "ontology G [Class: Val] given Base, Extra =\n"
        "  let\n"
        "    ontology Step [Individual: x :: xs] = { Individual: x } then Step[xs]\n"
        "    ontology Step [empty] = { }\n"
        "  in\n"
        "  Step[a, b]\n"
        "end\n"
    )
    ast = parse_library(src)
    d = ast.items[0]
    assert d.given == ("Base", "Extra")
    assert len(d.locals) == 2
    assert d.locals[0].name == "Step"


def test_parse_error_has_position_inside_input():
    src = "ontology A [Class: C = { Class: C }"
    with pytest.raises(ParseError) as exc:
        parse_library(src, "pat.gdp")
    pos = exc.value.pos
    assert pos is not None and pos.file == "pat.gdp"
    assert 1 <= pos.line <= src.count("\n") + 1


def test_render_diagnostics_format():
    d = Diagnostic("error", "expected ']'", SourcePos("pat.gdp", 3, 7))
    assert render_diagnostics([d]) == "pat.gdp:3:7: error: expected ']'\n"


def test_render_diagnostics_empty_and_two():
    assert render_diagnostics([]) == ""
    d1 = Diagnostic("error", "first", SourcePos("a.gdp", 1, 2))
    d2 = Diagnostic("error", "second", SourcePos("a.gdp", 4, 1))
    assert render_diagnostics([d1, d2]) == "a.gdp:1:2: error: first\na.gdp:4:1: error: second\n"


def test_parse_is_deterministic():
    src = corpus_paths()[0].read_text(encoding="utf-8")
    assert parse_library(src) == parse_library(src)


def test_pretty_print_round_trip_corpus():
    for f in corpus_paths():
        src = f.read_text(encoding="utf-8")
        ast = parse_library(src, str(f))
        again = parse_library(pretty_print(ast), str(f))
        assert again == ast, f"round trip failed for {f}"


def test_pretty_print_writes_one_comma_list_per_field():
    src = (
        "ontology A = { ObjectProperty: p Domain: a Domain: b Range: c "
        "SubPropertyOf: q SubPropertyOf: r InverseOf: s InverseOf: t }\n"
    )
    ast = parse_library(src)
    text = pretty_print(ast)
    assert "ObjectProperty: p Domain: a, b Range: c SubPropertyOf: q, r InverseOf: s, t" in text
    assert parse_library(text) == ast


# -- the lexer against a character-by-character reference -----------------------

_REF_SINGLES = {
    "[": "LBRACKET", "]": "RBRACKET",
    "{": "LBRACE", "}": "RBRACE",
    ";": "SEMI", ",": "COMMA",
    "=": "EQUALS", "?": "QUESTION",
}
_REF_KEYWORDS = {"ontology", "given", "let", "in", "then", "fit", "empty", "end"}


def _ref_is_ident_char(ch: str) -> bool:
    return ch.isascii() and (ch.isalnum() or ch == "_")


def reference_tokenize(text: str, file: str) -> list[tuple[str, str, SourcePos]]:
    """The lexer as a scan of one character at a time: (kind, value, pos) per token."""
    tokens = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "%" and i + 1 < n and text[i + 1] == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        pos = SourcePos(file, line, col)
        if ch == ":":
            if i + 1 < n and text[i + 1] == ":":
                tokens.append(("CONS", "::", pos))
                i += 2
                col += 2
            else:
                tokens.append(("COLON", ":", pos))
                i += 1
                col += 1
            continue
        if ch == "|":
            if text[i:i + 3] == "|->":
                tokens.append(("MAPSTO", "|->", pos))
                i += 3
                col += 3
                continue
            raise LexError(f"bad character {ch!r}", pos)
        if ch in _REF_SINGLES:
            tokens.append((_REF_SINGLES[ch], ch, pos))
            i += 1
            col += 1
            continue
        if _ref_is_ident_char(ch):
            start = i
            while i < n and _ref_is_ident_char(text[i]):
                i += 1
            word = text[start:i]
            col += len(word)
            if word.isdigit():
                raise LexError(f"bad token {word!r}: names need at least one letter or '_'", pos)
            tokens.append(("KEYWORD" if word in _REF_KEYWORDS else "IDENT", word, pos))
            continue
        raise LexError(f"bad character {ch!r}", pos)
    tokens.append(("EOF", "", SourcePos(file, line, col)))
    return tokens


def _lex_outcome(lexer, text: str):
    try:
        return [tuple(t) for t in lexer(text, "<lex>")]
    except LexError as e:
        return ("LexError", e.message, e.pos)


def assert_lexes_like_reference(text: str) -> None:
    reference = _lex_outcome(reference_tokenize, text)
    assert _lex_outcome(tokenize, text) == reference
    if type(reference) is list:  # the token count, EOF included, that the cost gates divide by
        assert len(tokenize(text, "<lex>")) == len(reference)


@pytest.mark.parametrize("text", [
    "ontology A = { Class: C } %% trailing comment",  # EOF sits at the comment's start
    "%% only a comment",
    "ontology A = { Class: C }\n   %% indented comment",
    "a % b",
    "%",
    "G[a |- b]",
    "G[a |",
    "Individual: 042",
    "x 12345 y",
    "ontology A =\r\n  { Class: C }\r\n",
    "\r\n\r\nA\r\n",
    "A\tB \x0c C",
    "Class: café",
    "a::b :: c ::: d",
    "p |-> q|->r",
    "",
    "   ",
    "\n\n",
])
def test_lexer_matches_reference_on_edge_cases(text):
    assert_lexes_like_reference(text)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.sampled_from(list("%|->:[]{};,=? \r\n\t\x0ca_Zé0179")), max_size=60))
def test_lexer_matches_reference_on_characters(text):
    assert_lexes_like_reference(text)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(
    ["ontology", "let", "in", "x1", "0c", "42", "%%", "%", "|->", "|-", "|", "::", ":",
     "-", ">", "\r\n", "\n", "\t", " ", "\x0c", "é", "[", "]"]
)).map("".join))
def test_lexer_matches_reference_on_lexeme_soup(text):
    assert_lexes_like_reference(text)


# -- the front end's cost --------------------------------------------------------

def test_parsing_the_corpus_makes_at_most_three_python_calls_per_token():
    """A gate on the parser's work that holds on any machine: the Python
    function calls `parse_library` makes over the corpus, counted by a
    profile hook, per token of its input (EOF included)."""
    texts = [(p.read_text(encoding="utf-8"), str(p)) for p in corpus_paths()]
    tokens = sum(len(tokenize(text, file)) for text, file in texts)
    calls = 0

    def count(frame, event, arg) -> None:
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        for text, file in texts:
            parse_library(text, file)
    finally:
        sys.setprofile(None)
    assert calls <= 3.0 * tokens, f"{calls} calls for {tokens} tokens"


@pytest.mark.parametrize("case", ["corpus", "wide"])
def test_building_a_library_makes_at_most_one_and_three_quarters_python_calls_per_token(case):
    """A gate on `build_library`'s work, import expansions included, counted
    as the parser's is, over the corpus and over a library shaped like the
    `wide_library` benchmark's; the bound is about 20% above both counts."""
    tokens, calls, lib = build_cost(corpus_texts(case))
    assert calls <= 1.75 * tokens, f"{calls} calls for {tokens} tokens"
    if case == "wide":  # the generated definitions are well-formed and expand
        for target in ("W0x0", "W3x7"):
            assert expand_named(lib, target).signature


def test_source_size_prints_the_measures_of_src_and_their_difference_from_a_revision(capsys):
    # what CI's summary showed before the script: `wc -l src/godp/*.py` and
    # the AST nodes of the same files
    paths = sorted((source_size.ROOT / source_size.SRC).glob("*.py"))
    lines = sum(p.read_bytes().count(b"\n") for p in paths)
    nodes = sum(1 for p in paths for _ in pyast.walk(pyast.parse(p.read_text(encoding="utf-8"))))
    assert source_size.main([]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[-1].split() == ["total", str(lines), str(nodes)] and len(rows) == len(paths) + 2
    if shutil.which("git") is None or not (source_size.ROOT / ".git").exists():
        pytest.skip("no git checkout to read a revision from")
    assert source_size.main(["--base", "HEAD"]) == 0
    total = capsys.readouterr().out.splitlines()[-1].split()
    assert total[0] == "total" and total[1:2] + total[4:5] == [str(lines), str(nodes)]
    assert int(total[3]) == lines - int(total[2]) and int(total[6]) == nodes - int(total[5])
    assert source_size.main(["--base", "no-such-revision"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("source_size: cannot read revision 'no-such-revision'")


# -- the nesting bound ---------------------------------------------------------

def _wrap(depth: int) -> str:
    return "ontology Deep = " + "Wrap[" * depth + "Thing" + "]" * depth + "\n"


def _name_nest(depth: int) -> str:
    return "ontology Deep = { Class: " + "g[" * depth + "x" + "]" * depth + " }\n"


def _let_nest(depth: int) -> str:
    return "ontology A = let " * depth + "ontology Z = { Class: C }" + " in Z" * depth + "\n"


@pytest.mark.parametrize("source", [_wrap, _name_nest, _let_nest])
def test_nesting_up_to_the_bound_parses(source):
    assert len(parse_library(source(MAX_NESTING)).items) == 1


@pytest.mark.parametrize("source, col", [
    # the `[` or `let` that opens level MAX_NESTING + 1
    (_wrap, len("ontology Deep = ") + 5 * MAX_NESTING + 5),
    (_name_nest, len("ontology Deep = { Class: ") + 2 * MAX_NESTING + 2),
    (_let_nest, len("ontology A = let ") * MAX_NESTING + len("ontology A = ") + 1),
])
@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 1500])
def test_nesting_past_the_bound_is_a_positioned_parse_error(source, col, depth):
    with pytest.raises(ParseError) as exc:
        parse_library(source(depth), "deep.gdp")
    assert exc.value.message == f"nesting deeper than {MAX_NESTING} levels"
    assert exc.value.pos == SourcePos("deep.gdp", 1, col)
