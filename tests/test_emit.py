from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import godp.core
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
    ClassAssertion,
    DifferentIndividuals,
    Domain,
    EquivalentToUnion,
    FlatOntology,
    Symbol,
    SymbolKind,
    Transitive,
    make_ontology,
    name,
)
from godp.cli import main
from godp.diagnostics import GodpError, KindClash, StratificationClash, UnstratifiedName
from godp.elaborate import build_block
from godp.emit import flat_text

from conftest import GOLDEN, IDENTIFIER_RE, lib_of

OP = SymbolKind.OBJECT_PROPERTY
CLS = SymbolKind.CLASS
IND = SymbolKind.INDIVIDUAL


# -- stratify -----------------------------------------------------------------

def test_stratify_parameterized_name():
    o = make_ontology([Symbol(name("greater", "Significance"), OP)], [])
    out = stratify(o)
    assert {s.name for s in out.signature} == {name("greater_Significance")}


def _graded_rels_sub(lib, items):
    plain = tuple(LocalSymbolArg(name(n)) for n in ("p", "S", "T", "Val"))
    return expand(lib, Instantiation("GradedRelsSub", (*plain, ListArg(items))))


@pytest.mark.parametrize("run", [
    stratify, lambda o: emit_manchester(o, flat=True), lambda o: emit_struct_dump(o, flat=True),
], ids=["stratify", "emit_manchester", "emit_struct_dump"])
def test_stratify_flattens_each_name_once(corpus_lib, monkeypatch, run):
    o = _graded_rels_sub(corpus_lib, tuple(name(f"g{i}") for i in range(48)))
    calls = []
    flatten = godp.emit.flat_text
    monkeypatch.setattr(godp.emit, "flat_text", lambda n: calls.append(n) or flatten(n))
    out = run(o)
    assert len(calls) == len(o.signature) == 194
    assert set(calls) == {s.name for s in o.signature}
    monkeypatch.undo()
    assert out == run(o)


def test_emission_interns_no_name_and_makes_no_symbol(corpus_lib, symbols_made):
    prefix = "unemitted"
    while any(base.startswith(prefix) for base, _ in list(godp.core._NAMES)):
        prefix += "_"
    o = _graded_rels_sub(corpus_lib, tuple(name(f"{prefix}{i}") for i in range(48)))
    before = len(godp.core._NAMES)
    symbols_made.clear()
    manchester, dump = emit_manchester(o, flat=True), emit_struct_dump(o, flat=True)
    assert (len(godp.core._NAMES), symbols_made) == (before, [])
    assert f"p_atLeast_{prefix}0" in manchester and f"p_atLeast_{prefix}0" in dump
    # what emitting the stratified copy costs: a flat name for each renamed one
    stratify(o)
    assert len(godp.core._NAMES) > before
    # the count sees what makes symbols: reading the signature makes one per name
    assert len(o.signature) == len(symbols_made) == len(o.kinds)


def test_a_fit_that_leaves_an_nary_axiom_vacuous_drops_it():
    lib = lib_of("ontology P [Individual: a; Individual: b] = { Individual: a DifferentFrom: b }\n"
                 "ontology U = P[c; c]\n")
    o = stratify(expand_named(lib, "U"))
    assert o == make_ontology([Symbol(name("c"), IND)], [])
    text = emit_manchester(o)
    assert text == "Individual: c\n"
    assert build_block(parse_frames(text, "<emitted>")) == o


def test_stratify_plain_name_unchanged():
    o = make_ontology([Symbol(name("Person"), CLS)], [])
    assert stratify(o) == o


def test_an_axiom_name_outside_the_signature_is_outside_what_emission_accepts():
    o = FlatOntology({}, frozenset([Transitive(name("p", "a"))]))  # built by hand, not signature-closed
    for run in (stratify, emit_manchester, emit_struct_dump, lambda o: emit_manchester(o, flat=True)):
        with pytest.raises(KeyError, match=r"p\[a\]"):
            run(o)
    closed = make_ontology([], o.axioms)  # what every builder gives
    assert closed.kinds == {name("p", "a"): OP}
    assert emit_struct_dump(closed, flat=True) == "AX Transitive p_a\nSYM ObjectProperty p_a\n"


def test_stratify_nested_and_clash():
    nested = name("p", name("a", "b"), name("c"))
    assert flat_text(nested) == "p_a_b_c"
    o = make_ontology([Symbol(nested, OP)], [])
    assert {s.name for s in stratify(o).signature} == {name("p_a_b_c")}
    clash = make_ontology([Symbol(nested, OP), Symbol(name("p_a_b_c"), OP)], [])
    with pytest.raises(StratificationClash):
        stratify(clash)


def test_stratify_digit_initial_prefix():
    o = make_ontology([Symbol(name("0Insignificant"), IND)], [])
    assert {s.name for s in stratify(o).signature} == {name("_0Insignificant")}
    # embedded occurrences stay guarded by the joining underscore
    assert flat_text(name("hasIngredient", "0Insignificant")) == "hasIngredient_0Insignificant"


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
    flat = flat_text(t)
    assert flat_text(name(flat)) == flat
    assert IDENTIFIER_RE.match(flat)


# -- emitting with flat=True is emitting the stratified copy -------------------------

def _outcome(run, o):
    try:
        return run(o)
    except GodpError as e:
        return type(e), str(e)


def assert_flat_emission_is_stratified_emission(o: FlatOntology) -> None:
    """Both emitters give `o` with `flat=True` the bytes, or the error class
    and message, that they give `stratify(o)`."""
    for emit in (emit_manchester, emit_struct_dump):
        assert _outcome(lambda o: emit(o, flat=True), o) == _outcome(lambda o: emit(stratify(o)), o)


def test_flat_emission_is_stratified_emission_on_corpus(corpus_lib):
    for target in sorted(corpus_lib.zero_param_names()):
        o = expand_named(corpus_lib, target)
        assert_flat_emission_is_stratified_emission(o)
        assert emit_manchester(o, flat=True) == emit_manchester(stratify(o))  # no error on the corpus


_drawn_axioms = st.one_of(
    st.builds(Transitive, _name_terms),
    st.builds(Domain, _name_terms, _name_terms),
    st.builds(ClassAssertion, _name_terms, _name_terms),
    st.builds(EquivalentToUnion, _name_terms, st.lists(_name_terms, max_size=3).map(tuple)),
    st.builds(DifferentIndividuals, st.lists(_name_terms, max_size=3).map(tuple)),
)


@settings(max_examples=150)
@given(st.dictionaries(_name_terms, st.sampled_from(list(SymbolKind)), max_size=6), st.lists(_drawn_axioms, max_size=4))
def test_flat_emission_is_stratified_emission_on_drawn_names(kinds, axioms):
    try:
        o = make_ontology([Symbol(n, k) for n, k in kinds.items()], axioms)
    except KindClash:
        assume(False)
    assert_flat_emission_is_stratified_emission(o)


@pytest.mark.parametrize("reverse", [False, True])
def test_a_clash_is_the_same_error_however_it_is_emitted(reverse):
    symbols = [Symbol(name("p", "a", "b"), OP), Symbol(name("p_a", "b"), OP), Symbol(name("c"), CLS)]
    o = make_ontology(symbols[::-1] if reverse else symbols, [])
    message = "stratification maps both 'p[a,b]' and 'p_a[b]' to 'p_a_b'"
    for run in (stratify, lambda o: emit_manchester(o, flat=True), lambda o: emit_struct_dump(o, flat=True)):
        assert _outcome(run, o) == (StratificationClash, message)
    assert_flat_emission_is_stratified_emission(o)


@pytest.mark.parametrize("reverse", [False, True])
def test_an_unstratified_name_is_the_least_in_kind_and_name_order(reverse):
    symbols = [Symbol(name("a", "x"), IND), Symbol(name("z", "y"), CLS), Symbol(name("b"), CLS),
               Symbol(name("q", "c"), CLS), Symbol(name("p", "z"), OP)]
    o = make_ontology(symbols[::-1] if reverse else symbols, [])
    message = "'q[c]' is parameterized; stratify before emitting Manchester output"
    assert _outcome(emit_manchester, o) == (UnstratifiedName, message)
    assert emit_manchester(o, flat=True) == emit_manchester(stratify(o))
    assert "SYM Individual a[x]\n" in emit_struct_dump(o)


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
