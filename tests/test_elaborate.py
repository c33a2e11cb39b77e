from __future__ import annotations

import random

import pytest

from godp import (
    build_library,
    emit_struct_dump,
    expand_named,
    parse_library,
    stratify,
)
from godp.blocks import BlockTemplate
from godp.cli import main
from godp.core import Domain, Range, Symbol, SymbolKind, Transitive, make_ontology, name
from godp.diagnostics import (
    ArityMismatch,
    DuplicateDefinition,
    IllegalCycle,
    KindClash,
    UnknownReference,
    UnsupportedArgument,
)
from godp.elaborate import ListTemplate, PatternDef, _build_def, _Draft, build_block
from godp.syntax import BlockExpr, LibraryAst

from conftest import corpus_paths, lib_of, unresolved

OP = SymbolKind.OBJECT_PROPERTY
CLS = SymbolKind.CLASS
IND = SymbolKind.INDIVIDUAL


def test_build_library_fig1_patterns(corpus_lib):
    for pattern in ("ReflexiveRelation", "TransitiveRelation", "InverseRelation", "SubProp"):
        assert pattern in corpus_lib.defs
    sub = corpus_lib.defs["SubProp"]
    assert sub.arity == 4
    fourth = sub.clauses[0].params[3]
    assert not fourth.is_list
    assert fourth.new_symbols == (Symbol(name("p"), OP),)
    assert Domain(name("p"), name("D")) in fourth.shape.axioms
    assert Range(name("p"), name("R")) in fourth.shape.axioms


def test_build_library_empty():
    lib = build_library(LibraryAst(()))
    assert lib.defs == {}


def test_self_reference_without_list_is_illegal():
    with pytest.raises(IllegalCycle):
        lib_of("ontology A = { Class: C } then A")


def test_self_call_reconsing_same_list_is_illegal():
    with pytest.raises(IllegalCycle):
        lib_of("ontology B [Class: X :: Xs] = B[X :: Xs]")


def test_tail_recursion_is_legal():
    lib = lib_of(
        "ontology B [Class: X :: Xs] = { Class: X } then B[Xs]\n"
        "ontology B [empty] = { }\n"
    )
    assert lib.defs["B"].clauses[1].params[0].shape == ListTemplate(None, (), None)


def test_mutual_cycle_without_shrink_is_illegal():
    src = (
        "ontology A [Class: X :: Xs] = B[X :: Xs]\n"
        "ontology B [Class: X :: Xs] = A[X :: Xs]\n"
    )
    with pytest.raises(IllegalCycle):
        lib_of(src)


_SPLICED_TAIL = (
    "ontology D [Individual: x :: y :: xs] = { Individual: x } then D[{ARG}]\n"
    "ontology D [Individual: x :: xs] = { Individual: x }\n"
    "ontology D [empty] = { }\n"
    "ontology U = D[a, b, c, d]\n"
)


def test_a_list_with_a_spliced_tail_before_the_callers_tail_does_not_shrink(tmp_path, capsys):
    # `xs` spliced before `:: xs` has unknown length: D[a, b, c, d] would
    # recurse on D[c, d, c, d] for ever
    f = tmp_path / "d.gdp"
    f.write_text(_SPLICED_TAIL.replace("{ARG}", "xs :: xs"), encoding="utf-8")
    assert main(["expand", "--target", "U", str(f)]) == 1
    assert capsys.readouterr() == (
        "", f"{f}:1:64: error: recursive call from 'D' to 'D' does not strictly shrink a list parameter\n"
    )


@pytest.mark.parametrize("arg", ["y :: xs", "y, xs"])
def test_a_comma_list_ending_in_the_callers_tail_shrinks_as_a_cons_does(arg):
    lib = lib_of(_SPLICED_TAIL.replace("{ARG}", arg))
    assert [s.name.base for s in expand_named(lib, "U").sorted_signature()] == ["a", "b", "c", "d"]


def test_corpus_clause_bodies_hold_only_checked_calls(corpus_lib):
    assert unresolved(corpus_lib) == []
    assert any(d.locals for d in corpus_lib.defs.values())  # locals are walked too


_P = "ontology P [Class: C] = { Class: C }\n"


@pytest.mark.parametrize("source, position", [
    # no 0-parameter definition instantiates G
    (_P + "ontology G [Class: D] = P[a, b] then P[D; E]\nontology Ok = P[X]\n", "2:27"),
    # a template clause that never matches
    (_P + "ontology L [Individual: x :: xs] = { Individual: x } then P[a, b]\n"
     "ontology L [empty] = { }\nontology U = L[empty]\n", "2:61"),
    # a local that is never called
    (_P + "ontology G [Class: D] =\n  let ontology Unused [Class: E] = P[a, b] in { Class: D }\n"
     "ontology Ok = G[X]\n", "3:38"),
], ids=["uninstantiated pattern", "unmatched clause", "uncalled local"])
def test_check_checks_every_calls_arguments_where_nothing_runs_it(tmp_path, capsys, source, position):
    f = tmp_path / "f.gdp"
    f.write_text(source, encoding="utf-8")
    assert main(["check", str(f)]) == 1
    assert capsys.readouterr() == (
        "", f"{f}:{position}: error: list argument given for a non-list parameter\n"
    )


def test_an_unknown_name_in_an_argument_expression_is_a_build_error():
    with pytest.raises(UnknownReference) as exc:
        lib_of(_P + "ontology G [Class: D] = P[{ Class: A } then Foo]\n")
    assert exc.value.message == "unknown ontology or pattern 'Foo'"
    assert (exc.value.pos.line, exc.value.pos.col) == (2, 45)


def test_build_block_takes_frames_only():
    with pytest.raises(TypeError) as exc:
        build_block([BlockExpr(())])
    assert str(exc.value) == "not a frame: BlockExpr(frames=())"


def test_a_draft_is_built_with_every_field_in_order():
    # `_build_def` passes every field of its records by position; so does
    # their keyword form with the defaults, as long as the fields keep that order
    [item] = parse_library("ontology A [Class: C] = { }\n", "<t>").items
    [dr] = _build_def("A", [item], "A", None, {})
    assert dr.d == PatternDef("A", "A", 1, {}, item.pos)
    assert dr == _Draft(dr.d, [item], dr.clauses, dr.merged) and dr.parent is None


def _definer(lib, d):
    """The definition that has `d` as a local, found by its qualified name."""
    *path, _ = d.qual.split("::")
    if not path:
        return None
    found = lib.defs[path[0]]
    for n in path[1:]:
        found = found.locals[n]
    return found


def _seen(lib, d, upto=None, clause=0):
    """What parameter `upto` of clause `clause` of `d` sees (all of them
    with None), built from new symbols: the imports of `d` and of its
    definers, its definers' first-clause parameters, and its own parameters
    before `upto`, a plain one declaring its new symbols and a list one its
    heads."""
    definer = _definer(lib, d)
    out = set(_seen(lib, definer)) if definer is not None else set()
    for imp in d.imports:
        out |= expand_named(lib, imp.name).signature
    for p in d.clauses[clause].params[:upto]:
        if p.is_list:
            out |= {Symbol(name(h), p.shape.kind) for h in p.shape.heads}
        else:
            out |= set(p.new_symbols)
    return out


def test_param_environments_subprop(corpus_lib):
    sub = corpus_lib.defs["SubProp"]
    params = sub.clauses[0].params
    assert len(params) == 4
    visible_to_fourth = {s.name.base for s in _seen(corpus_lib, sub, 3)}
    assert visible_to_fourth == {"q", "D", "R"}
    # the fourth parameter's new symbols exclude what it sees
    assert {s.name.base for s in params[3].new_symbols} == {"p"}
    for p in params:  # each parameter adds to what the ones before it declare
        assert not set(p.new_symbols) & _seen(corpus_lib, sub, p.index)


def test_param_environments_zero_param_def(corpus_lib):
    agents = corpus_lib.defs["Agents"]
    assert agents.arity == 0 and _seen(corpus_lib, agents) == set()
    with_import = corpus_lib.defs["PersonRels"]
    assert with_import.imports == (agents,)  # the definitions, not their names
    assert {s.name.base for s in _seen(corpus_lib, with_import, 0)} == {"Person"}


def test_param_environments_valset_optional_sees_val_and_head(corpus_lib):
    valset = corpus_lib.defs["ValSet"]
    env_for_optional = _seen(corpus_lib, valset, 2)
    assert Symbol(name("Val"), CLS) in env_for_optional
    assert Symbol(name("v"), IND) in env_for_optional
    assert valset.clauses[0].params[2].new_symbols == (Symbol(name("greater", "Val"), OP),)


def _every_def(defs):
    for d in defs:
        yield d
        yield from _every_def(d.locals.values())


def _heads(params):
    return [(h, p.shape.kind) for p in params if p.is_list for h in p.shape.heads]


def test_new_symbols_equal_env_difference(corpus_lib):
    for d in _every_def(corpus_lib.defs.values()):
        first = d.clauses[0].params
        for k, clause in enumerate(d.clauses):
            for p in clause.params:
                if not p.is_list:
                    # clauses that bind the same heads before a parameter share
                    # it, its new symbols computed once
                    if _heads(clause.params[: p.index]) == _heads(first[: p.index]):
                        assert p is first[p.index]
                    diff = p.shape.signature - _seen(corpus_lib, d, p.index, k)
                    assert frozenset(p.new_symbols) == diff


_H = (
    "ontology H [empty; ObjectProperty: p Domain: x] = { ObjectProperty: p }\n"
    "ontology H [Class: x :: xs; ObjectProperty: p Domain: x] = { ObjectProperty: p }\n"
)


def test_a_plain_parameter_sees_the_list_heads_of_its_own_clause():
    lib = lib_of(
        _H + "ontology U = { Class: a ObjectProperty: q Domain: a } then H[a; q]\n"
        "ontology V = { ObjectProperty: q Domain: x } then H[empty; q]\n"
    )
    empty, cons = (c.params[1] for c in lib.defs["H"].clauses)
    # x is new where the clause binds no head x, and a head where it does
    assert {s.name.base for s in empty.new_symbols} == {"p", "x"}
    assert cons.new_symbols == (Symbol(name("p"), OP),)
    assert emit_struct_dump(expand_named(lib, "U")) == (
        "AX Domain q a\n"
        "SYM Class a\n"
        "SYM ObjectProperty q\n"
    )
    with pytest.raises(UnsupportedArgument, match="parameter 2 of 'H' defines 2 new symbols"):
        expand_named(lib, "V")
    # a clash with a later clause's own head is a build error too
    with pytest.raises(KindClash) as exc:
        lib_of(_H.replace("p Domain: x", "x"))
    assert exc.value.message == "kind clash for 'x': Class vs ObjectProperty"
    assert (exc.value.pos.line, exc.value.pos.col) == (1, 20)


def test_imports_are_expanded_by_expand_named_with_a_fresh_budget(monkeypatch):
    import godp.instantiate as instantiate

    seen = []
    expand_named = instantiate.expand_named

    def recording(lib, name, *args, **kwargs):
        seen.append((name, args, kwargs))
        return expand_named(lib, name, *args, **kwargs)

    monkeypatch.setattr(instantiate, "expand_named", recording)
    lib = lib_of(
        "ontology Base = { Class: Person }\n"
        "ontology Other = { Class: Place }\n"
        "ontology A [Class: C] given Base, Other = { Class: C }\n"
        "ontology B given Base = { ObjectProperty: livesIn Domain: Person }\n"
    )
    # one call per import of each definition, each with the default depth
    assert seen == [("Base", (), {}), ("Other", (), {}), ("Base", (), {})]
    assert {s.name.base for s in _seen(lib, lib.defs["A"], 0)} == {"Person", "Place"}


def test_locals_share_enclosing_parameters(corpus_lib):
    valset = corpus_lib.defs["ValSet"]
    step = valset.locals["OrderStep"]
    prefix = _seen(corpus_lib, step, 0)
    assert Symbol(name("Val"), CLS) in prefix
    assert Symbol(name("greater", "Val"), OP) in prefix


def test_no_locals_is_unchanged(corpus_lib):
    sub = corpus_lib.defs["SubProp"]
    # the built definition is the resolved one: its body resolved, its
    # parameters' new symbols there, nothing left for a later step to fill in
    assert isinstance(sub.clauses[0].body, BlockTemplate)
    assert [len(p.new_symbols) for p in sub.clauses[0].params] == [1] * sub.arity
    assert sub.locals == {}


def test_graded_rels_sub_locals_registered(corpus_lib):
    d = corpus_lib.defs["GradedRelsSub"]
    assert "AtLeastStep" in d.locals
    assert "AtMostInitial" in d.locals
    als = d.locals["AtLeastStep"]
    assert len(als.clauses) == 2
    assert Symbol(name("p"), OP) in _seen(corpus_lib, als, 0)


def test_locals_of_distinct_patterns_do_not_collide(corpus_lib):
    step_a = corpus_lib.defs["GradedRels"].locals["Step"]
    assert step_a.qual == "GradedRels::Step"
    assert "Step" not in corpus_lib.defs


def test_duplicate_zero_param_definition():
    with pytest.raises(DuplicateDefinition):
        lib_of("ontology A = { Class: C }\nontology A = { Class: D }\n")


def test_clause_shape_disagreement():
    src = (
        "ontology G [Class: C :: Cs] = { Class: C }\n"
        "ontology G [Class: X] = { Class: X }\n"
    )
    with pytest.raises(DuplicateDefinition):
        lib_of(src)


_PLAIN_G = "ontology G [Class: C] = { Class: C }\n"
_LIST_G = "ontology G [Class: C; Individual: x :: xs] = { Class: C }\n"


@pytest.mark.parametrize("clauses, message", [
    (_PLAIN_G + "ontology G [Class: C; Class: D] = { Class: C }\n",
     "disagree on parameter count (1 vs 2)"),
    (_PLAIN_G + "ontology G [Class: C] given B = { Class: C }\n", "disagree on given imports"),
    (_PLAIN_G + "ontology G [? Class: C] = { Class: C }\n",
     "disagree on optionality of parameter 1"),
    (_PLAIN_G + "ontology G [Class: C :: Cs] = { Class: C }\n",
     "disagree on the shape of parameter 1"),
    (_PLAIN_G + "ontology G [Class: D] = { Class: D }\n", "disagree on plain parameter 1"),
    (_LIST_G + "ontology G [Class: C; Class: y :: ys] = { Class: C }\n",
     "disagree on the kind of list parameter 2"),
])
def test_clause_compatibility_messages(clauses, message):
    # the second clause, on line 3, is the one reported
    with pytest.raises(DuplicateDefinition) as exc:
        lib_of("ontology B = { Class: Z }\n" + clauses)
    assert exc.value.message == f"clauses of 'G' {message}"
    assert (exc.value.pos.line, exc.value.pos.col) == (3, 1)


@pytest.mark.parametrize("source, position", [
    # a clash inside one block points at its first frame, not at the brace
    ("ontology A =\n  { Class: X\n    ObjectProperty: X }\n", (2, 5)),
    # a clash inside parameter frames points at the parameter's first frame
    ("ontology P [Class: X  ObjectProperty: X] = { }\n", (1, 13)),
])
def test_kind_clash_in_frames_points_at_the_first_frame(source, position):
    with pytest.raises(KindClash) as exc:
        lib = lib_of(source)
        expand_named(lib, "A")
    assert exc.value.message == "kind clash for 'X': Class vs ObjectProperty"
    assert (exc.value.pos.line, exc.value.pos.col) == position


@pytest.mark.parametrize("source, position", [
    # a list parameter's head clashes with an earlier parameter: at the list parameter
    ("ontology P [ObjectProperty: x; Class: x :: xs] = { }\n", "1:32"),
    # two imports clash: at the definition that imports them
    ("ontology A = { Class: x }\nontology B = { ObjectProperty: x }\n"
     "ontology P [Class: C] given A, B = { }\n", "3:1"),
])
def test_kind_clash_between_parameters_or_imports_has_a_position(tmp_path, capsys, source, position):
    f = tmp_path / "f.gdp"
    f.write_text(source, encoding="utf-8")
    assert main(["check", str(f)]) == 1
    assert capsys.readouterr() == (
        "", f"{f}:{position}: error: kind clash for 'x': Class vs ObjectProperty\n"
    )


def test_individual_different_from_a_list_tail():
    lib = lib_of(
        "ontology Q [Individual: x :: xs] = { Individual: x DifferentFrom: xs }\n"
        "ontology U = Q[a, b, c]\n"
    )
    assert emit_struct_dump(expand_named(lib, "U")) == (
        "AX DifferentIndividuals a b\n"
        "AX DifferentIndividuals a c\n"
        "SYM Individual a\n"
        "SYM Individual b\n"
        "SYM Individual c\n"
    )


def test_an_empty_argument_list_on_a_zero_parameter_definition_is_a_reference():
    lib = lib_of("ontology Agents = { Class: Person }\nontology U = Agents[]\n")
    assert emit_struct_dump(expand_named(lib, "U")) == "SYM Class Person\n"


@pytest.mark.parametrize("source", [
    # a clash reported at the reference, not inside the definition it names
    "ontology A = { Class: X }\nontology B = { ObjectProperty: X } then A[]\n",
    # a definition reached twice: the second time it costs one tick
    "ontology A = { Class: X }\nontology C = A then A then A then A\nontology D = C[] then C\n",
    # in an argument, and a definition with nothing new for the fit
    "ontology A = { Class: X }\nontology C = A then A\nontology P [Class: Y] = { Individual: i Types: Y }\n"
    "ontology E = P[C[]] then C\nontology F = A then P[A[]]\n",
])
def test_g_with_an_empty_argument_list_runs_as_the_bare_reference(tmp_path, capsys, source):
    """`G[]` on a 0-parameter library definition and `G` give the same dump,
    the same diagnostics and the same outcome at every depth."""
    f = tmp_path / "g.gdp"

    def outcomes(text):
        f.write_text(text)
        runs = [(main(["check", "--depth", str(depth), str(f)]), capsys.readouterr()) for depth in range(1, 16)]
        last = text.splitlines()[-1].split()[1]
        return runs, main(["expand", "--target", last, "--format", "dump", str(f)]), capsys.readouterr()

    assert outcomes(source) == outcomes(source.replace("[]", "  "))  # at the same columns


def test_unknown_reference_in_body():
    with pytest.raises(UnknownReference):
        lib_of("ontology A = Nowhere then { Class: C }")


def test_given_must_be_zero_parameter():
    src = (
        "ontology G [Class: C] = { Class: C }\n"
        "ontology A given G = { Class: D }\n"
    )
    with pytest.raises(UnsupportedArgument):
        lib_of(src)


@pytest.mark.parametrize("source, message", [
    ("ontology A given Nowhere = { Class: D }", "unknown import 'Nowhere' in 'A'"),
    # the imports of a definition and of its locals resolve before their bodies
    ("ontology D = let ontology L given Nope = { } in Foo", "unknown import 'Nope' in 'D::L'"),
])
def test_given_unknown_import(source, message):
    with pytest.raises(UnknownReference) as exc:
        lib_of(source)
    assert exc.value.message == message


# -- environment order ------------------------------------------------------------

_IMPORTS_LATER_PATTERN = (
    "ontology A given B = { Class: Z }\n",
    "ontology B = T[ARG]\n",
    "ontology T [ObjectProperty: r] = { ObjectProperty: r Characteristics: Transitive }\n",
)


def _ordered(t_first: bool, arg: str) -> str:
    a, b, t = (line.replace("ARG", arg) for line in _IMPORTS_LATER_PATTERN)
    return t + a + b if t_first else a + b + t


def test_import_of_an_instance_of_a_later_pattern_checks_clean():
    lib = lib_of(_ordered(False, "x"))
    for target in lib.zero_param_names():
        expand_named(lib, target)
    assert expand_named(lib, "B") == make_ontology([Symbol(name("x"), OP)], [Transitive(name("x"))])


@pytest.mark.parametrize("t_first", [True, False])
def test_import_expansion_does_not_depend_on_definition_order(t_first):
    lib = lib_of(_ordered(t_first, "{ ObjectProperty: s }"))
    assert expand_named(lib, "A") == make_ontology(
        [Symbol(name("Z"), CLS), Symbol(name("s"), OP)], [Transitive(name("s"))]
    )


_LOCAL_GIVEN = (
    "ontology Agents = { Class: Person }\n"
    "ontology L0 [ObjectProperty: p Domain: Person] given Agents = { ObjectProperty: p }\n"
    "ontology Top = { ObjectProperty: q Domain: Person } then L0[q]\n"
    "ontology D [Class: C] =\n"
    "  let ontology L [ObjectProperty: p Domain: Person] given Agents = { ObjectProperty: p }\n"
    "  in { Class: C ObjectProperty: q Domain: Person } then L[q]\n"
    "ontology Loc = D[K]\n"
)


def test_a_local_sees_its_own_imports_as_a_library_definition_does():
    lib = lib_of(_LOCAL_GIVEN)
    # Person comes from the import, so p is the parameter's one new symbol
    local = lib.defs["D"].locals["L"]
    assert local.imports == (lib.defs["Agents"],)
    assert local.clauses[0].params[0].new_symbols == (Symbol(name("p"), OP),)
    assert emit_struct_dump(expand_named(lib, "Loc")) == (
        "AX Domain q Person\n"
        "SYM Class K\n"
        "SYM Class Person\n"
        "SYM ObjectProperty q\n"
    )
    assert emit_struct_dump(expand_named(lib, "Top")) == (
        "AX Domain q Person\n"
        "SYM Class Person\n"
        "SYM ObjectProperty q\n"
    )


_UNUSED_LOCAL = "ontology A_D = let ontology L [Class: C] given Z_Y = { Class: C } in { Class: K }\n"
_Z = (
    "ontology Z_P [ObjectProperty: p] = { ObjectProperty: p Domain: Thing }\n"
    "ontology Z_Y = { ObjectProperty: r } then Z_P[r]\n"
    "ontology Z_T = Z_Y\n"
)


def test_a_local_import_expands_after_every_definition_it_reaches():
    # A_D sorts before Z_P and does not call L, whose import Z_Y calls Z_P:
    # Z_Y must not be expanded before Z_P has its parameters' new symbols
    lib = lib_of(_UNUSED_LOCAL + _Z)
    assert emit_struct_dump(expand_named(lib, "Z_T")) == emit_struct_dump(
        expand_named(lib_of(_Z), "Z_T")
    ) == "AX Domain r Thing\nSYM Class Thing\nSYM ObjectProperty r\n"


def test_corpus_dumps_do_not_depend_on_file_order():
    texts = [(str(p), p.read_text(encoding="utf-8")) for p in corpus_paths()]

    def dumps(order):
        items = [i for f, text in order for i in parse_library(text, f).items]
        lib = build_library(LibraryAst(tuple(items)))
        return {t: emit_struct_dump(stratify(expand_named(lib, t))) for t in lib.zero_param_names()}

    reference = dumps(texts)
    shuffled = texts[:]
    random.Random(5).shuffle(shuffled)
    for order in (texts[::-1], texts[3:] + texts[:3], shuffled):
        assert dumps(order) == reference


# -- lexical scope: parameters shadow definitions ---------------------------------

def _corpus_text() -> str:
    return "".join(p.read_text(encoding="utf-8") for p in corpus_paths())


def _dumps(lib, targets) -> dict[str, str]:
    return {t: emit_struct_dump(stratify(expand_named(lib, t))) for t in targets}


@pytest.mark.parametrize("extra, target", [
    ("ontology T = { Class: Zz }\n", "GradedRelsSub_Significance"),
    ("ontology Val = { Class: Zz }\n", "ValSet_CrustStyle"),
    # inside ValSet, `greater[Val]` is its parameter, not a call of `greater`
    ("ontology greater [Class: X] = { Class: X }\n", "ValSet_CrustStyle"),
])
def test_a_definition_named_like_a_parameter_does_not_capture_it(corpus_lib, extra, target):
    lib = lib_of(_corpus_text() + extra)
    assert _dumps(lib, [target]) == _dumps(corpus_lib, [target])
    dump = _dumps(lib, [target])[target]
    assert "Zz" not in dump
    if target == "GradedRelsSub_Significance":
        for grade in ("0Insignificant", "1Subordinate", "2Essential", "3Dominant"):
            assert f"AX Range hasIngredient_{grade} FoodStuff\n" in dump


def test_a_call_of_a_pattern_from_a_definition_named_like_its_parameter_is_no_cycle(corpus_lib):
    # T is a parameter of GradedRelsSub, which passes it on to GradedRels
    lib = lib_of(_corpus_text() + "ontology T = GradedRelsSub[p; S; U; V; a, b]\n")
    targets = corpus_lib.zero_param_names()
    assert _dumps(lib, targets) == _dumps(corpus_lib, targets)
    assert Range(name("p", "a"), name("U")) in expand_named(lib, "T").axioms


def test_an_argument_that_is_a_parameter_stays_a_symbol_in_the_callee():
    lib = lib_of(
        "ontology P [Class: A] = { Class: A }\n"
        "ontology Q [Class: B] = P[B]\n"
        "ontology B = { Class: Zed Individual: z }\n"
        "ontology R = Q[Foo]\n"
    )
    assert expand_named(lib, "R") == make_ontology([Symbol(name("Foo"), CLS)], [])


@pytest.mark.parametrize("source, position, message", [
    # a local named like a parameter of its own definition, of any clause
    ("ontology D [Class: x] =\n  let ontology x = { Class: Y } in { Class: x }\n", (2, 7),
     "local 'x' of 'D' has the name of a parameter of 'D'"),
    ("ontology L [Class: C; Individual: h :: hs] = { Class: C }\n"
     "ontology L [Class: C; empty] =\n  let ontology hs = { Class: Y } in hs\n", (3, 7),
     "local 'hs' of 'L' has the name of a parameter of 'L'"),
    # or like a parameter around its definition, which would hide it everywhere
    ("ontology D [Class: x] =\n  let ontology E = let ontology x = { } in x in E\n", (2, 24),
     "local 'x' of 'D::E' has the name of a parameter of 'D'"),
    # a parameter symbol or list variable where an ontology is expected
    ("ontology P [Class: T] = T\n", (1, 25),
     "'T' is a parameter of 'P', not an ontology or pattern"),
    ("ontology P [Class: T] = { Class: A } then T[A]\n", (1, 43),
     "'T' is a parameter of 'P', not an ontology or pattern"),
    ("ontology P [Individual: x :: xs] =\n  let ontology Q [Class: C] = xs in Q[A]\n", (2, 31),
     "'xs' is a parameter of 'P', not an ontology or pattern"),
])
def test_a_parameter_name_used_as_a_definition_is_a_build_error(tmp_path, capsys, source, position, message):
    f = tmp_path / "scope.gdp"
    f.write_text(source, encoding="utf-8")
    assert main(["check", str(f)]) == 1
    line, col = position
    assert capsys.readouterr() == ("", f"{f}:{line}:{col}: error: {message}\n")


# -- which of two build errors is reported -----------------------------------------

_G = "ontology G [Individual: v :: vs] = { Individual: v }\n"
_CLASHING_IMPORTS = "ontology I1 = { Class: x }\nontology I2 = { Individual: x }\nontology A given I1, I2 = { }\n"


@pytest.mark.parametrize("source, error, position, message", [
    # an unknown reference in a body, and an illegal cycle
    ("ontology A = Foo\nontology B = C\nontology C = B\n",
     UnknownReference, (1, 14), "unknown ontology or pattern 'Foo'"),
    ("ontology B = C\nontology C = B\nontology A = Foo\n",
     UnknownReference, (3, 14), "unknown ontology or pattern 'Foo'"),
    # an arity mismatch, and an unknown import: the one of the earlier definition
    ("ontology P [Class: K] = { Class: K }\nontology A = P[X; Y]\nontology B given Nope = { }\n",
     ArityMismatch, (2, 14), "'P' takes 1 argument(s), got 2"),
    ("ontology B given Nope = { }\nontology P [Class: K] = { Class: K }\nontology A = P[X; Y]\n",
     UnknownReference, (1, 1), "unknown import 'Nope' in 'B'"),
    # a kind clash between two imports, and an unsupported argument in a body
    (_CLASHING_IMPORTS + _G + "ontology B = G[{ Class: Q }]\n",
     UnsupportedArgument, (5, 16), "a list argument must be a comma or '::' list of names"),
    (_G + "ontology B = G[{ Class: Q }]\n" + _CLASHING_IMPORTS,
     UnsupportedArgument, (2, 16), "a list argument must be a comma or '::' list of names"),
    # clauses that disagree, and a local named like a parameter
    ("ontology L [Class: C; Individual: x :: xs] = { }\nontology L [Individual: x :: xs] = { }\n"
     "ontology M [Class: K] = let ontology K = { } in { Class: K }\n",
     DuplicateDefinition, (2, 1), "clauses of 'L' disagree on parameter count (2 vs 1)"),
    ("ontology M [Class: K] = let ontology K = { } in { Class: K }\n"
     "ontology L [Class: C; Individual: x :: xs] = { }\nontology L [Individual: x :: xs] = { }\n",
     DuplicateDefinition, (3, 1), "clauses of 'L' disagree on parameter count (2 vs 1)"),
    # a plain parameter whose frames clash, and an unknown reference in a later definition
    ("ontology P [Class: z  Individual: z] = { }\nontology Q = Nope\n",
     KindClash, (1, 13), "kind clash for 'z': Class vs Individual"),
    # two illegal cycles; an import cycle and a call cycle: the first call's
    ("ontology X = Y\nontology Y = X\nontology U = V\nontology V = U\n",
     IllegalCycle, (1, 14), "recursive call from 'X' to 'Y' does not strictly shrink a list parameter"),
    ("ontology A given B = { }\nontology B given A = { }\nontology X = Y\nontology Y = X\n",
     IllegalCycle, (3, 14), "recursive call from 'X' to 'Y' does not strictly shrink a list parameter"),
    # kind clashes found once the imports are expanded: the first in that order
    ("ontology J1 = { Class: y }\nontology J2 = { Individual: y }\nontology B given J1, J2 = { }\n"
     + _CLASHING_IMPORTS,
     KindClash, (6, 1), "kind clash for 'x': Class vs Individual"),
    ("ontology H [Class: a; Individual: a] = { }\n" + _CLASHING_IMPORTS,
     KindClash, (4, 1), "kind clash for 'x': Class vs Individual"),
    ("ontology H [Class: a; Individual: a :: as] = { }\nontology K [Class: b; ObjectProperty: b] = { }\n",
     KindClash, (1, 23), "kind clash for 'a': Class vs Individual"),
    ("ontology I1 = { Class: x }\nontology O [Individual: x] = let ontology L given I1 = { } in L\n",
     KindClash, (2, 34), "kind clash for 'x': Class vs Individual"),
])
def test_of_two_build_errors_the_first_in_build_order_is_reported(tmp_path, capsys, source, error, position, message):
    f = tmp_path / "two.gdp"
    f.write_text(source, encoding="utf-8")
    assert main(["check", str(f)]) == 1
    line, col = position
    assert capsys.readouterr() == ("", f"{f}:{line}:{col}: error: {message}\n")
    with pytest.raises(error):
        lib_of(source)


@pytest.mark.parametrize("source, importer, imported", [
    ("ontology A given A = { Class: C }\n", "A", "A"),
    ("ontology A given B = { Class: C }\nontology B given A = { Class: D }\n", "A", "B"),
])
def test_an_import_cycle_is_named_as_one(tmp_path, capsys, source, importer, imported):
    f = tmp_path / "cycle.gdp"
    f.write_text(source, encoding="utf-8")
    assert main(["check", str(f)]) == 1
    assert capsys.readouterr() == (
        "", f"{f}:1:1: error: '{importer}' imports '{imported}', and this import closes a cycle\n"
    )
    with pytest.raises(IllegalCycle):
        lib_of(source)
