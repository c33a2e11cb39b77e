from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import godp.emit
from godp import (
    Instantiation,
    ListArg,
    LocalSymbolArg,
    emit_manchester,
    emit_struct_dump,
    expand,
    expand_named,
    parse_frames,
    stratify,
)
from godp.core import (
    EMPTY_ONTOLOGY,
    DifferentIndividuals,
    FittingMorphism,
    Symbol,
    SymbolKind,
    Transitive,
    apply_morphism,
    make_ontology,
    name,
)
from godp.cli import main
from godp.diagnostics import StratificationClash, UnstratifiedName
from godp.elaborate import build_block
from godp.emit import IDENTIFIER_RE, flatten_name

from conftest import GOLDEN, lib_of

OP = SymbolKind.OBJECT_PROPERTY
CLS = SymbolKind.CLASS
IND = SymbolKind.INDIVIDUAL


# -- stratify -----------------------------------------------------------------

def test_stratify_parameterized_name():
    o = make_ontology([Symbol(name("greater", "Significance"), OP)], [])
    out = stratify(o)
    assert {s.name for s in out.signature} == {name("greater_Significance")}


def test_stratify_flattens_each_name_once(corpus_lib, monkeypatch):
    items = tuple(name(f"g{i}") for i in range(48))
    plain = tuple(LocalSymbolArg(name(n)) for n in ("p", "S", "T", "Val"))
    o = expand(corpus_lib, Instantiation("GradedRelsSub", (*plain, ListArg(items))))
    calls = []
    flatten = godp.emit.flatten_name
    monkeypatch.setattr(godp.emit, "flatten_name", lambda n: calls.append(n) or flatten(n))
    out = stratify(o)
    assert len(calls) == len(o.signature) == 194
    assert set(calls) == {s.name for s in o.signature}
    monkeypatch.undo()
    assert out == stratify(o)


def test_a_rename_that_leaves_an_nary_axiom_vacuous_drops_it():
    a, b, c = name("a"), name("b"), name("c")
    m = FittingMorphism.of({Symbol(a, IND): Symbol(c, IND), Symbol(b, IND): Symbol(c, IND)})
    o = stratify(apply_morphism(m, make_ontology([], [DifferentIndividuals((a, b))])))
    assert o == make_ontology([Symbol(c, IND)], [])
    text = emit_manchester(o)
    assert text == "Individual: c\n"
    assert build_block(parse_frames(text, "<emitted>")) == o


def test_stratify_plain_name_unchanged():
    o = make_ontology([Symbol(name("Person"), CLS)], [])
    assert stratify(o) == o


def test_stratify_nested_and_clash():
    nested = name("p", name("a", "b"), name("c"))
    assert flatten_name(nested) == name("p_a_b_c")
    o = make_ontology([Symbol(nested, OP)], [])
    assert {s.name for s in stratify(o).signature} == {name("p_a_b_c")}
    clash = make_ontology([Symbol(nested, OP), Symbol(name("p_a_b_c"), OP)], [])
    with pytest.raises(StratificationClash):
        stratify(clash)


def test_stratify_digit_initial_prefix():
    o = make_ontology([Symbol(name("0Insignificant"), IND)], [])
    assert {s.name for s in stratify(o).signature} == {name("_0Insignificant")}
    # embedded occurrences stay guarded by the joining underscore
    assert flatten_name(name("hasIngredient", "0Insignificant")) == name(
        "hasIngredient_0Insignificant"
    )


def test_stratify_idempotent_on_corpus(corpus_lib):
    for target in corpus_lib.zero_param_names():
        o = stratify(expand_named(corpus_lib, target))
        assert stratify(o) == o


def test_stratify_preserves_counts(corpus_lib):
    for target in corpus_lib.zero_param_names():
        o = expand_named(corpus_lib, target)
        out = stratify(o)
        assert len(out.signature) == len(o.signature)
        assert len(out.axioms) == len(o.axioms)


_name_terms = st.recursive(
    st.sampled_from([name("a"), name("b"), name("0c"), name("p")]),
    lambda kids: st.builds(
        lambda base, args: name(base, *args),
        st.sampled_from(["p", "q", "atLeast"]),
        st.lists(kids, min_size=1, max_size=2),
    ),
    max_leaves=4,
)


@settings(max_examples=60)
@given(_name_terms)
def test_flatten_idempotent_and_legal(t):
    flat = flatten_name(t)
    assert flatten_name(flat) == flat
    assert IDENTIFIER_RE.match(flat.base)


# -- emit_manchester -------------------------------------------------------------

def test_emit_manchester_person_rels(corpus_lib):
    text = emit_manchester(stratify(expand_named(corpus_lib, "PersonRels")))
    frame = (
        "ObjectProperty: isParentOf\n"
        "    Domain: Person\n"
        "    Range: Person\n"
        "    SubPropertyOf: isAncestorOf"
    )
    assert frame in text
    assert "Characteristics: Transitive" in text


def test_emit_manchester_empty():
    assert emit_manchester(EMPTY_ONTOLOGY) == ""


def test_emit_manchester_requires_stratified():
    o = make_ontology([Symbol(name("greater", "Val"), OP)], [])
    with pytest.raises(UnstratifiedName):
        emit_manchester(o)


def test_emit_parse_emit_fixpoint_on_corpus(corpus_lib):
    for target in corpus_lib.zero_param_names():
        o = stratify(expand_named(corpus_lib, target))
        text = emit_manchester(o)
        if not text:
            continue
        reparsed = build_block(parse_frames(text))
        assert emit_manchester(reparsed) == text
        assert (reparsed.signature, reparsed.axioms) == (o.signature, o.axioms)


def test_several_equivalent_to_unions_are_one_class_frame_each(tmp_path, capsys):
    f = tmp_path / "unions.gdp"
    f.write_text(
        "ontology A = { Class: C EquivalentTo: {a} } then { Class: C EquivalentTo: {b} }\n",
        encoding="utf-8",
    )
    assert main(["expand", "--target", "A", str(f)]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert out.out == (
        "Class: C\n"
        "    EquivalentTo: {a}\n"
        "\n"
        "Class: C\n"
        "    EquivalentTo: {b}\n"
        "\n"
        "Individual: a\n"
        "\n"
        "Individual: b\n"
    )
    assert build_block(parse_frames(out.out)) == expand_named(lib_of(f.read_text(encoding="utf-8")), "A")


# -- emit_struct_dump --------------------------------------------------------------

def test_dump_single_class():
    o = make_ontology([Symbol(name("Person"), CLS)], [])
    assert emit_struct_dump(o) == "SYM Class Person\n"


def test_dump_transitive_axiom_line():
    o = make_ontology([], [Transitive(name("isAncestorOf"))])
    assert "AX Transitive isAncestorOf\n" in emit_struct_dump(o)


def test_dump_graded_rels_sub_contains_hierarchy_edge(corpus_lib):
    o = stratify(expand_named(corpus_lib, "GradedRelsSub_Significance"))
    dump = emit_struct_dump(o)
    assert "AX SubPropertyOf hasIngredient_3Dominant hasIngredient_atLeast_2Essential\n" in dump


def test_dump_byte_stable(corpus_lib):
    a = emit_struct_dump(stratify(expand_named(corpus_lib, "ValSet_Significance")))
    b = emit_struct_dump(stratify(expand_named(corpus_lib, "ValSet_Significance")))
    assert a == b


def test_dump_injective(corpus_lib):
    targets = corpus_lib.zero_param_names()
    onts = {t: stratify(expand_named(corpus_lib, t)) for t in targets}
    for t1 in targets:
        for t2 in targets:
            same_dump = emit_struct_dump(onts[t1]) == emit_struct_dump(onts[t2])
            same_ont = onts[t1] == onts[t2]
            assert same_dump == same_ont


# -- golden files -------------------------------------------------------------------

def test_golden_person_rels(corpus_lib):
    expected = (GOLDEN / "person_rels.dump").read_text(encoding="utf-8")
    got = emit_struct_dump(stratify(expand_named(corpus_lib, "PersonRels")))
    assert got == expected


def test_golden_valset_significance(corpus_lib):
    expected = (GOLDEN / "valset_significance.dump").read_text(encoding="utf-8")
    got = emit_struct_dump(stratify(expand_named(corpus_lib, "ValSet_Significance")))
    assert got == expected
