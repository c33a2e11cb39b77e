from __future__ import annotations

import pytest

from godp import (
    AnonymousArg,
    Bindings,
    EmptyOptArg,
    Instantiation,
    ListArg,
    LocalSymbolArg,
    NamedOntologyArg,
    check_compatibility,
    check_constraints,
    derive_fitting,
    elide_optional,
    emit_struct_dump,
    expand,
    expand_named,
    match_template,
    substitute_name,
    union_flat,
)
from godp.cli import main
from godp.core import (
    EMPTY_ONTOLOGY,
    DifferentIndividuals,
    Domain,
    FittingMorphism,
    NameTerm,
    Range,
    Symbol,
    SymbolKind,
    Transitive,
    make_ontology,
    name,
)
from godp.diagnostics import (
    AmbiguousFitting,
    ArityMismatch,
    DepthExceeded,
    GodpError,
    IncompatibleFittings,
    KindClash,
    KindMismatch,
    MissingArgument,
    NoCandidate,
    NoMatch,
    UnknownReference,
    UnmetConstraint,
    UnsupportedArgument,
)

from godp.elaborate import Call
from godp.instantiate import DEFAULT_DEPTH
from godp.parser import FIELD_KEYWORDS
from godp.record import replace

from conftest import CORPUS, ERRORS, corpus_paths, lib_of, load_corpus_library, load_library

OP = SymbolKind.OBJECT_PROPERTY
CLS = SymbolKind.CLASS
IND = SymbolKind.INDIVIDUAL


def sym(n, k):
    return Symbol(name(n) if isinstance(n, str) else n, k)


# -- derive_fitting ------------------------------------------------------------

def test_fit_local_symbol_single_new_symbol(corpus_lib):
    fourth = corpus_lib.defs["SubProp"].clauses[0].params[3]
    env = make_ontology(
        [sym("isAncestorOf", OP), sym("Person", CLS)],
        [Domain(name("isAncestorOf"), name("Person"))],
    )
    m = derive_fitting(fourth, LocalSymbolArg(name("isAncestorOf")), env)
    assert dict(m.pairs) == {sym("p", OP): sym("isAncestorOf", OP)}


def test_fit_anonymous_single_class(corpus_lib):
    second = corpus_lib.defs["TransitiveRelation"].clauses[0].params[1]
    arg = AnonymousArg(make_ontology([sym("Person", CLS)], []))
    m = derive_fitting(second, arg, EMPTY_ONTOLOGY)
    assert dict(m.pairs) == {sym("C", CLS): sym("Person", CLS)}


def test_fit_ambiguous_two_candidates(corpus_lib):
    first = corpus_lib.defs["TransitiveRelation"].clauses[0].params[0]
    arg = AnonymousArg(make_ontology([sym("q1", OP), sym("q2", OP)], []))
    with pytest.raises(AmbiguousFitting):
        derive_fitting(first, arg, EMPTY_ONTOLOGY)


def test_fit_named_ontology_ambiguous():
    from godp import NamedOntologyArg

    lib = lib_of(
        "ontology TwoProps = { ObjectProperty: q1  ObjectProperty: q2 }\n"
        "ontology NeedsOneProp [ObjectProperty: r] = { ObjectProperty: r }\n"
    )
    first = lib.defs["NeedsOneProp"].clauses[0].params[0]
    with pytest.raises(AmbiguousFitting):
        derive_fitting(first, NamedOntologyArg("TwoProps"), EMPTY_ONTOLOGY, lib=lib)
    m = derive_fitting(
        first, NamedOntologyArg("TwoProps"), EMPTY_ONTOLOGY,
        explicit=[(name("r"), name("q1"))], lib=lib,
    )
    assert dict(m.pairs) == {sym("r", OP): sym("q1", OP)}


def test_fit_explicit_map_resolves_ambiguity(corpus_lib):
    first = corpus_lib.defs["TransitiveRelation"].clauses[0].params[0]
    arg = AnonymousArg(make_ontology([sym("q1", OP), sym("q2", OP)], []))
    m = derive_fitting(first, arg, EMPTY_ONTOLOGY, explicit=[(name("r"), name("q2"))])
    assert dict(m.pairs) == {sym("r", OP): sym("q2", OP)}


def test_fit_no_candidate(corpus_lib):
    first = corpus_lib.defs["TransitiveRelation"].clauses[0].params[0]
    arg = AnonymousArg(make_ontology([sym("Person", CLS)], []))
    with pytest.raises(NoCandidate):
        derive_fitting(first, arg, EMPTY_ONTOLOGY)


def test_fit_kind_mismatch(corpus_lib):
    first = corpus_lib.defs["TransitiveRelation"].clauses[0].params[0]
    env = make_ontology([sym("Person", CLS)], [])
    with pytest.raises(KindMismatch):
        derive_fitting(first, LocalSymbolArg(name("Person")), env)


def test_fit_empty_against_non_optional(corpus_lib):
    first = corpus_lib.defs["TransitiveRelation"].clauses[0].params[0]
    with pytest.raises(MissingArgument):
        derive_fitting(first, EmptyOptArg(), EMPTY_ONTOLOGY)


# -- the public helpers are the engine's entry points ------------------------------

def test_fit_of_a_symbol_the_parameter_does_not_introduce_is_not_in_the_result(corpus_lib):
    fourth = corpus_lib.defs["SubProp"].clauses[0].params[3]
    env = make_ontology([sym("Person", CLS)], [])
    fits = ((name("D"), name("Person")),)
    expected = {sym("p", OP): sym("isAncestorOf", OP)}
    m = derive_fitting(fourth, LocalSymbolArg(name("isAncestorOf"), fits=fits), env)
    assert dict(m.pairs) == expected
    arg = AnonymousArg(make_ontology([sym("isAncestorOf", OP)], []), fits=fits)
    assert dict(derive_fitting(fourth, arg, env).pairs) == expected


def test_derive_fitting_reads_and_fills_the_library_memo():
    from godp import NamedOntologyArg

    lib = load_corpus_library()
    assert "ValSet_CrustStyle" not in lib.memo
    second = lib.defs["TransitiveRelation"].clauses[0].params[1]
    m = derive_fitting(second, NamedOntologyArg("ValSet_CrustStyle"), EMPTY_ONTOLOGY, lib=lib)
    assert dict(m.pairs) == {sym("C", CLS): sym("CrustStyle", CLS)}
    assert lib.memo["ValSet_CrustStyle"].ontology == expand_named(lib, "ValSet_CrustStyle")


def test_a_named_ontology_argument_is_evaluated_as_a_reference(corpus_lib):
    from godp import NamedOntologyArg

    for ref, error, message in (
        ("Nope", UnknownReference, "unknown ontology or pattern 'Nope'"),
        ("ValSet", ArityMismatch, "'ValSet' is generic: 3 argument(s) required"),
    ):
        args = (NamedOntologyArg(ref), LocalSymbolArg(name("C")))
        with pytest.raises(error) as exc:
            expand(corpus_lib, Instantiation("TransitiveRelation", args))
        assert exc.value.message == message


def test_fit_anonymous_argument_applies_its_own_fit_map(corpus_lib):
    first = corpus_lib.defs["TransitiveRelation"].clauses[0].params[0]
    ont = make_ontology([sym("q1", OP), sym("q2", OP)], [])
    m = derive_fitting(first, AnonymousArg(ont, fits=((name("r"), name("q2")),)), EMPTY_ONTOLOGY)
    assert dict(m.pairs) == {sym("r", OP): sym("q2", OP)}


def test_fit_local_symbol_with_a_conflicting_fit_is_incompatible_as_in_the_language(corpus_lib):
    first = corpus_lib.defs["TransitiveRelation"].clauses[0].params[0]
    conflict = ((name("r"), name("b")),)
    with pytest.raises(IncompatibleFittings):
        derive_fitting(first, LocalSymbolArg(name("a"), fits=conflict), EMPTY_ONTOLOGY)
    with pytest.raises(IncompatibleFittings):
        derive_fitting(first, LocalSymbolArg(name("a")), EMPTY_ONTOLOGY, explicit=conflict)
    # an agreeing fit is no conflict
    m = derive_fitting(first, LocalSymbolArg(name("a")), EMPTY_ONTOLOGY, explicit=[(name("r"), name("a"))])
    assert dict(m.pairs) == {sym("r", OP): sym("a", OP)}
    lib = lib_of(
        (CORPUS / "patterns.gdp").read_text(encoding="utf-8")
        + "ontology Use = { Class: Person } then TransitiveRelation[a fit r |-> b; Person]\n"
    )
    with pytest.raises(IncompatibleFittings):
        expand_named(lib, "Use")


# the corpus passes bare symbols only; these pass the other argument forms
ARGUMENT_FORMS = """
ontology TwoProps = { ObjectProperty: q1  ObjectProperty: q2 }
ontology Rel = { ObjectProperty: owns }
ontology ByName = TransitiveRelation[Rel; Thing]
ontology ByNameFit = TransitiveRelation[TwoProps fit r |-> q2; Thing]
ontology ByFrames = TransitiveRelation[{ ObjectProperty: likes }; Thing]
ontology ByFramesInEnv =
  { ObjectProperty: owns } then TransitiveRelation[{ ObjectProperty: likes }; Thing]
ontology ByInstance given Agents =
  SubProp[isParentOf; Person; Person;
          TransitiveRelation[isAncestorOf; Person] fit p |-> isAncestorOf]
"""


def test_derive_fitting_replays_every_engine_fitting(monkeypatch):
    """Record each parameter fitting the engine derives while building and
    expanding the corpus, then derive it again through derive_fitting from
    the same parameter, argument and environment."""
    import godp.instantiate as engine

    calls = []  # (parameter, argument, environment, engine's pairs, its instantiation's run)
    fit_local, fit_ontology = engine._fit_local, engine._fit_ontology

    def fitted(pspec, sigma):
        return {n: sym(sigma.name_map[n.name], n.kind) for n in pspec.new_symbols}

    def record_local(owner, pspec, form, runs, acc):  # `runs[0]`: the run it binds in
        avail = acc.freeze()  # what it fits in
        fit_local(owner, pspec, form, runs, acc)
        calls.append((pspec, form, avail, fitted(pspec, runs[0]), runs[0]))

    def record_ontology(pspec, form, arg_ont, env, runs):
        fit_ontology(pspec, form, arg_ont, env, runs)
        expr = getattr(form, "expr", None)
        if isinstance(expr, Call) and expr.args is None and expr.up is None:
            # a bare library name is replayed as the form the Python API gives it
            form = NamedOntologyArg(expr.qual, form.fits)  # a library definition's qual is its name
        elif isinstance(form, engine._ExprArg):  # an expression argument, already evaluated
            form = AnonymousArg(arg_ont, form.fits)
        calls.append((pspec, form, env, fitted(pspec, runs[0]), runs[0]))

    monkeypatch.setattr(engine, "_fit_local", record_local)
    monkeypatch.setattr(engine, "_fit_ontology", record_ontology)
    # a fresh library, recorded from its build on: each closed expansion runs once
    src = "".join(p.read_text(encoding="utf-8") for p in sorted(CORPUS.glob("*.gdp")))
    lib = lib_of(src + ARGUMENT_FORMS)
    for target in sorted(lib.zero_param_names()):
        expand_named(lib, target)
    monkeypatch.undo()

    kinds = {type(arg).__name__ for _, arg, _, _, _ in calls}
    assert kinds == {"LocalSymbolArg", "NamedOntologyArg", "AnonymousArg"}
    for pspec, arg, env, pairs, _ in calls:
        assert derive_fitting(pspec, arg, env, lib=lib) == FittingMorphism.of(pairs)
    # the fittings of one instantiation agree on every symbol they share
    instantiations = {}
    for _, _, _, pairs, sigma in calls:
        instantiations.setdefault(id(sigma), []).append(FittingMorphism.of(pairs))
    assert len(instantiations) > 10
    for fittings in instantiations.values():
        check_compatibility(fittings)


# a local whose parameter's constraint names a symbol of its definer, and fits
# on a bare symbol argument, on an inline ontology and on a named one
_PLANS = """
ontology Agents = { Class: Person }
ontology Owned = { ObjectProperty: has }
ontology Rel [Class: C; ObjectProperty: p] given Agents =
  let ontology L [ObjectProperty: q Domain: C] = { ObjectProperty: q Range: C } in
  { ObjectProperty: p Domain: C } then L[p]
ontology Sym [ObjectProperty: r; Class: S] = { ObjectProperty: r Domain: S }
ontology Use = Rel[Person; knows] then Sym[likes fit r |-> likes; Person]
  then Sym[{ ObjectProperty: owns } fit r |-> owns; Person] then Sym[Owned fit r |-> has; Person]
"""


@pytest.mark.parametrize("source", ["corpus", _PLANS])
def test_no_plan_is_compiled_twice(monkeypatch, source):
    """Once every 0-parameter definition of a library has run, running each
    again, its memo cleared, compiles no name: every plan a run reads is
    compiled once per library."""
    import godp.blocks
    import godp.elaborate
    import godp.instantiate

    compiled = []
    for module in (godp.blocks, godp.elaborate, godp.instantiate):
        def counted(*args, compile_names=module.compile_names):
            compiled.append(args[0])
            return compile_names(*args)

        monkeypatch.setattr(module, "compile_names", counted)
    lib = load_corpus_library() if source == "corpus" else lib_of(source)
    passes = []
    for _ in range(2):
        lib.memo.clear()  # so that every instantiation runs again
        before = len(compiled)
        for target in sorted(lib.zero_param_names()):
            expand_named(lib, target)
        passes.append(len(compiled) - before)
    assert compiled and passes[1] == 0, passes


def test_expand_missing_arguments_fail_as_in_the_language(corpus_lib):
    cases = [
        ("TransitiveRelation", (LocalSymbolArg(name("r")),), "TransitiveRelation[r]", MissingArgument),
        ("ValSet", (LocalSymbolArg(name("Val")),), "ValSet[Val]", ArityMismatch),
    ]
    src = "".join(p.read_text(encoding="utf-8") for p in sorted(CORPUS.glob("*.gdp")))
    for pattern, args, written, error in cases:
        with pytest.raises(error) as api:
            expand(corpus_lib, Instantiation(pattern, args))
        with pytest.raises(error) as language:
            expand_named(lib_of(src + f"\nontology Use = {written}\n"), "Use")
        assert api.value.message == language.value.message


# a call `Use = ...` on line 7: the call is at 7:16 and its first argument at 7:18
ARGUMENT_CHECKS = """\
ontology P [Class: C] = { Class: C }
ontology G [Class: C; Class: D] = { Class: C }
ontology L [Individual: x :: xs] = { Individual: x }
ontology L [empty] = { }
ontology M [Class: C; Individual: x :: xs] = { Class: C }
ontology Y [Class: C  Class: D] = { Class: C }
"""


# a call's arguments are checked when the library is built
_STATIC_ARGUMENT_ROWS = [
    ("L[a, b fit x |-> y]", UnsupportedArgument, "fit maps are not allowed on list arguments", 18),
    ("L[empty fit x |-> y]", UnsupportedArgument, "fit maps are not allowed on list arguments", 18),
    ("L[a :: zs]", UnknownReference,
     "'zs' is not a list in scope (expected a list-parameter tail)", 18),
    ("L[{ Individual: a }]", UnsupportedArgument,
     "a list argument must be a comma or '::' list of names", 18),
    ("L[Foo[empty]]", UnsupportedArgument,
     "a list argument must be a comma or '::' list of names", 18),
    ("P[empty fit C |-> D]", UnsupportedArgument,
     "fit maps are meaningless on an empty argument", 18),
    ("P[a, b]", UnsupportedArgument, "list argument given for a non-list parameter", 18),
    ("P[a :: zs]", UnsupportedArgument, "list argument given for a non-list parameter", 18),
    ("P[G]", ArityMismatch, "'G' is generic and needs arguments to be used as an argument", 18),
    ("P[a; b]", ArityMismatch, "'P' takes 1 argument(s), got 2", 16),
    ("G[empty; b]", MissingArgument, "missing argument for non-optional parameter 1 of 'G'", 18),
    ("M[a]", ArityMismatch, "missing argument for list parameter 2 of 'M'", 16),
    ("P[Foo[empty]]", UnknownReference, "unknown ontology or pattern 'Foo'", 18),
]

# a fitting is derived when the call runs
_FITTING_ROWS = [
    # every fit of a symbol is bound, as for a bare symbol argument
    ("P[{ Class: A Class: B } fit C |-> A, C |-> B]", IncompatibleFittings,
     "'C' is mapped both to 'A' and to 'B'", 18),
    ("P[{ Class: A } fit C |-> Zz]", NoCandidate,
     "fit target 'Zz' is not a symbol of the argument", 18),
    ("P[{ ObjectProperty: A } fit C |-> A]", KindMismatch,
     "fit target 'A' has kind ObjectProperty, parameter 'C' needs Class", 18),
    ("Y[a]", UnsupportedArgument, "parameter 1 of 'Y' defines 2 new symbols; a bare symbol "
     "argument fits only single-symbol parameters", 18),
]


@pytest.mark.parametrize("call, error, message, col", _STATIC_ARGUMENT_ROWS + _FITTING_ROWS)
def test_argument_diagnostics_of_gdp_text(call, error, message, col):
    source = ARGUMENT_CHECKS + f"ontology Use = {call}\n"
    if (call, error, message, col) in _FITTING_ROWS:
        lib = lib_of(source)
        with pytest.raises(error) as exc:
            expand_named(lib, "Use")
    else:
        with pytest.raises(error) as exc:
            lib_of(source)
    assert exc.value.message == message
    assert (exc.value.pos.line, exc.value.pos.col) == (7, col)


def test_a_list_variable_passed_to_a_plain_parameter_is_an_error(tmp_path, capsys):
    f = tmp_path / "w.gdp"
    f.write_text(
        "ontology W [Individual: x :: xs] = TransitiveRelation[xs; Sig]\n"
        "ontology U = W[a, b]\n",
        encoding="utf-8",
    )
    assert main(["check", str(CORPUS / "patterns.gdp"), str(f)]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"{f}:1:55: error: list argument given for a non-list parameter\n")


def test_a_list_variable_the_running_clause_does_not_bind_is_an_error(tmp_path, capsys):
    # D[empty] runs the clause without `xs`, and its local L passes `xs` on
    f = tmp_path / "u.gdp"
    f.write_text(
        "ontology Q [Individual: y :: ys] = { Individual: y }\n"
        "ontology Q [empty] = { }\n"
        "ontology D [Individual: x :: xs] =\n"
        "  let ontology L [Class: C] = { Class: C } then Q[xs] in L[K1]\n"
        "ontology D [empty] = L[K2]\n"
        "ontology U = D[empty]\n",
        encoding="utf-8",
    )
    assert main(["expand", "--target", "U", str(f)]) == 1
    assert capsys.readouterr() == (
        "", f"{f}:4:51: error: 'xs' is not a list in scope (expected a list-parameter tail)\n"
    )


def test_expand_named_of_an_unknown_name_is_an_unknown_reference():
    with pytest.raises(UnknownReference) as exc:
        expand_named(lib_of("ontology A = { Class: C }\n"), "Nope")
    assert exc.value.message == "unknown ontology or pattern 'Nope'"


@pytest.mark.parametrize("depth", [1, DEFAULT_DEPTH])
def test_an_explicit_empty_argument_is_reported_before_the_call_runs(depth, tmp_path, capsys):
    # when the library is built, before any tick is charged and before the
    # first argument is fitted, as for a left-out argument
    source = (
        "ontology G [Class: C; Class: D] = { Class: C }\n"
        "ontology U = { ObjectProperty: a } then G[a; empty]\n"
    )
    with pytest.raises(MissingArgument) as exc:
        lib_of(source)
    assert exc.value.message == "missing argument for non-optional parameter 2 of 'G'"
    assert (exc.value.pos.line, exc.value.pos.col) == (2, 46)
    f = tmp_path / "u.gdp"
    f.write_text(source, encoding="utf-8")
    assert main(["check", "--depth", str(depth), str(f)]) == 1
    assert capsys.readouterr() == ("", f"{f}:2:46: error: {exc.value.message}\n")


def test_expand_checks_its_arguments_as_gdp_text_does(corpus_lib):
    from godp import NamedOntologyArg

    src = "".join(p.read_text(encoding="utf-8") for p in corpus_paths())
    written = lib_of(src + "ontology ByName = ValSet[Sig; v]\nontology ByRef = ValSet[Sig; Agents]\n")
    sig = LocalSymbolArg(name("Sig"))

    def valset(*args):
        return expand(corpus_lib, Instantiation("ValSet", args))

    by_name = valset(sig, LocalSymbolArg(name("v")), EmptyOptArg())
    assert by_name == expand_named(written, "ByName")
    assert by_name.signature == {sym("Sig", CLS), sym("v", IND)}
    by_ref = valset(sig, NamedOntologyArg("Agents"), EmptyOptArg())
    assert by_ref == expand_named(written, "ByRef")
    assert by_ref.signature == {sym("Sig", CLS), sym("Agents", IND)}

    block = AnonymousArg(make_ontology([sym("v", IND)], []))
    fitted = LocalSymbolArg(name("v"), fits=((name("x"), name("v")),))
    items = ListArg((name("v"),))
    for args, message in (
        ((sig, block, EmptyOptArg()), "a list argument must be a comma or '::' list of names"),
        ((sig, fitted, EmptyOptArg()), "fit maps are not allowed on list arguments"),
        ((items, items, EmptyOptArg()), "list argument given for a non-list parameter"),
    ):
        with pytest.raises(UnsupportedArgument) as exc:
            valset(*args)
        assert exc.value.message == message


def test_derive_fitting_checks_its_argument_as_expand_does(corpus_lib):
    first = corpus_lib.defs["TransitiveRelation"].clauses[0].params[0]
    for arg, error, message in (
        (ListArg((name("r"),)), UnsupportedArgument, "list argument given for a non-list parameter"),
        (EmptyOptArg(), MissingArgument, "missing argument for non-optional parameter 1"),
    ):
        with pytest.raises(error) as fitting:
            derive_fitting(first, arg, EMPTY_ONTOLOGY)
        with pytest.raises(error) as expansion:
            expand(corpus_lib, Instantiation("TransitiveRelation", (arg, LocalSymbolArg(name("C")))))
        assert fitting.value.message == message
        assert expansion.value.message == message + (
            " of 'TransitiveRelation'" if error is MissingArgument else ""
        )


def test_derive_fitting_entry_checks(corpus_lib):
    valset = corpus_lib.defs["ValSet"].clauses[0].params
    with pytest.raises(UnsupportedArgument) as exc:
        derive_fitting(valset[1], ListArg((name("v"),)), EMPTY_ONTOLOGY)
    assert exc.value.message == "derive_fitting applies to plain parameters"
    # an elided optional parameter fits nothing
    assert derive_fitting(valset[2], EmptyOptArg(), EMPTY_ONTOLOGY) == FittingMorphism(pairs=())
    first = corpus_lib.defs["TransitiveRelation"].clauses[0].params[0]
    with pytest.raises(UnsupportedArgument) as exc:
        derive_fitting(first, NamedOntologyArg("Agents"), EMPTY_ONTOLOGY)
    assert exc.value.message == "resolving a named ontology argument needs the library"


def test_derive_fitting_takes_no_fits_on_an_empty_argument(corpus_lib):
    # as `.gdp` text takes none: `ValSet[Val; v; empty fit Nope |-> x]` fails alike
    optional = corpus_lib.defs["ValSet"].clauses[0].params[2]
    with pytest.raises(UnsupportedArgument) as exc:
        derive_fitting(optional, EmptyOptArg(), EMPTY_ONTOLOGY, explicit=[(name("Nope"), name("x"))])
    assert exc.value.message == "fit maps are meaningless on an empty argument"


def test_expand_resolves_its_arguments_before_it_fits_any(corpus_lib):
    # the first argument does not fit: Person is a class in the local environment
    env = make_ontology([sym("Person", CLS)], [])
    args = (LocalSymbolArg(name("Person")), NamedOntologyArg("Nope"))
    with pytest.raises(UnknownReference) as exc:
        expand(corpus_lib, Instantiation("TransitiveRelation", args, env))
    assert exc.value.message == "unknown ontology or pattern 'Nope'"
    with pytest.raises(KindMismatch):
        expand(corpus_lib, Instantiation("TransitiveRelation", args[:1] + (NamedOntologyArg("Agents"),), env))


def test_match_template_takes_clauses_with_one_list_parameter():
    lib = lib_of(
        "ontology A [Class: a :: xs; Class: b :: ys] = { Class: a }\n"
        "ontology A [empty; empty] = { }\n"
    )
    with pytest.raises(UnsupportedArgument) as exc:
        match_template(lib.defs["A"].clauses, ListArg(()))
    assert exc.value.message == "match_template expects clauses with exactly one list parameter"


_FIT = "ontology P [Class: C] = { Class: C  Class: Foo }\nontology B = { Class: X }\n"


@pytest.mark.parametrize("command", [["check"], ["list"], ["expand", "--target", "U", "--format", "dump"]])
def test_a_fit_may_name_only_a_symbol_of_its_parameter(tmp_path, capsys, command):
    f = tmp_path / "fit.gdp"
    f.write_text(_FIT + "ontology U = P[B fit C |-> X, Foo |-> Bar]\n", encoding="utf-8")
    assert main([*command, str(f)]) == 1
    assert capsys.readouterr() == (
        "", f"{f}:3:16: error: fit source 'Foo' is not a symbol of parameter 1 of 'P'\n"
    )


def test_the_python_api_checks_fit_sources_as_gdp_text_does():
    lib = lib_of(_FIT)
    param = lib.defs["P"].clauses[0].params[0]
    bad = ((name("Foo"), name("Bar")),)
    for arg, explicit in (
        (NamedOntologyArg("B", fits=bad), ()),
        (AnonymousArg(make_ontology([sym("X", CLS)], []), fits=bad), ()),
        (LocalSymbolArg(name("X")), bad),
    ):
        with pytest.raises(UnsupportedArgument) as fitting:
            derive_fitting(param, arg, EMPTY_ONTOLOGY, explicit, lib=lib)
        assert fitting.value.message == "fit source 'Foo' is not a symbol of parameter 1"
        with pytest.raises(UnsupportedArgument) as expansion:
            expand(lib, Instantiation("P", (replace(arg, fits=arg.fits + explicit),)))
        assert expansion.value.message == "fit source 'Foo' is not a symbol of parameter 1 of 'P'"


def test_argument_position_takes_no_part_in_equality():
    from godp.diagnostics import SourcePos

    at = SourcePos("f.gdp", 3, 7)
    assert LocalSymbolArg(name("a"), pos=at) == LocalSymbolArg(name("a"))
    assert hash(ListArg((name("a"),), at)) == hash(ListArg((name("a"),)))
    assert EmptyOptArg(at) == EmptyOptArg()


# -- check_compatibility ----------------------------------------------------------

def test_compatibility_shared_symbol_same_image():
    d = sym("D", CLS)
    person = sym("Person", CLS)
    m1 = FittingMorphism.of({d: person, sym("r", OP): sym("owns", OP)})
    m2 = FittingMorphism.of({d: person, sym("s", OP): sym("ownedBy", OP)})
    check_compatibility([m1, m2])


def test_compatibility_single_morphism_vacuous():
    check_compatibility([FittingMorphism.of({sym("D", CLS): sym("Person", CLS)})])
    check_compatibility([])


def test_compatibility_conflict():
    d = sym("D", CLS)
    m1 = FittingMorphism.of({d: sym("Person", CLS)})
    m2 = FittingMorphism.of({d: sym("Pizza", CLS)})
    with pytest.raises(IncompatibleFittings):
        check_compatibility([m1, m2])


def test_remention_of_old_symbol_with_agreeing_image_is_fine():
    lib = lib_of(
        "ontology Pair [Class: D; ObjectProperty: r Domain: D] =\n"
        "  { ObjectProperty: r Characteristics: Reflexive }\n"
        "ontology Use =\n"
        "  { Class: Person  ObjectProperty: owns Domain: Person }\n"
        "  then Pair[Person; owns fit D |-> Person]\n"
    )
    out = expand_named(lib, "Use")
    from godp.core import Reflexive

    assert Reflexive(name("owns")) in out.axioms


# -- check_constraints -------------------------------------------------------------

def _subprop_constraints():
    return [Domain(name("p"), name("D")), Range(name("p"), name("R"))]


def _subprop_fitting():
    return FittingMorphism.of({
        sym("p", OP): sym("isAncestorOf", OP),
        sym("D", CLS): sym("Person", CLS),
        sym("R", CLS): sym("Person", CLS),
    })


def test_constraints_satisfied():
    available = make_ontology(
        [],
        [
            Domain(name("isAncestorOf"), name("Person")),
            Range(name("isAncestorOf"), name("Person")),
            Transitive(name("isAncestorOf")),
        ],
    )
    check_constraints(_subprop_constraints(), _subprop_fitting(), available)


def test_constraints_empty_set_ok():
    check_constraints([], _subprop_fitting(), EMPTY_ONTOLOGY)


def test_constraints_missing_range():
    available = make_ontology([], [Domain(name("isAncestorOf"), name("Person"))])
    with pytest.raises(UnmetConstraint) as exc:
        check_constraints(_subprop_constraints(), _subprop_fitting(), available)
    assert "Range isAncestorOf Person" in exc.value.message


# -- elide_optional ---------------------------------------------------------------

def test_elide_removes_order_axioms():
    gt = name("greater", "Val")
    o = make_ontology(
        [],
        [Transitive(gt), Domain(gt, name("Val")), Range(gt, name("Val")),
         Domain(name("keep"), name("Val"))],
    )
    out = elide_optional(o, {Symbol(gt, OP)})
    assert out.axioms == frozenset({Domain(name("keep"), name("Val"))})
    assert Symbol(gt, OP) not in out.signature


def test_elide_empty_dead_set_is_identity():
    o = make_ontology([], [Transitive(name("p"))])
    assert elide_optional(o, set()) == o


def test_elide_whole_signature_gives_empty():
    o = make_ontology([], [Transitive(name("p"))])
    assert elide_optional(o, o.signature) == EMPTY_ONTOLOGY


def test_elide_optional_decides_as_an_instantiation_elides():
    """A name dies with a dead symbol's name, with a plain dead base, or with
    a dead argument: `elide_optional` of H's body with `gt` bound, dead
    `gt`, is H with `gt` left out."""
    lib = lib_of(
        "ontology H [Class: Val; ? ObjectProperty: gt] =\n"
        "  { ObjectProperty: gt Domain: Val\n"
        "    ObjectProperty: inv[gt] Domain: Val InverseOf: gt\n"
        "    ObjectProperty: gt[Val] Range: Val }\n"
        "ontology U = H[V; ]\n"
    )
    v, gt = LocalSymbolArg(name("V")), Symbol(name("gt"), OP)
    body = expand(lib, Instantiation("H", (v, LocalSymbolArg(gt.name))))
    assert {s.name for s in body.signature} == {name("V"), name("gt"), name("inv", "gt"), name("gt", "V")}
    assert len(body.axioms) == 4
    elided = elide_optional(body, {gt})
    assert elided == expand(lib, Instantiation("H", (v, EmptyOptArg()))) == expand_named(lib, "U")
    assert emit_struct_dump(elided) == "SYM Class V\n"
    assert elided.kinds == {name("V"): CLS}


# -- match_template ----------------------------------------------------------------

def _items(*names_):
    return tuple(name(n) for n in names_)


def test_match_template_recursive_then_final(corpus_lib):
    clauses = corpus_lib.defs["GradedRelsSub"].locals["AtLeastStep"].clauses
    # two-element recursive case first, one-element final case second: on a
    # 4-item list the recursion hits the first clause three times, then the final
    picks = []
    items = _items("g0", "g1", "g2", "g3")
    while items:
        clause, bindings = match_template(clauses, ListArg(items))
        picks.append(clauses.index(clause))
        if clauses.index(clause) == 0:
            assert bindings.name_map[name("x")] == items[0]
            assert bindings.name_map[name("y")] == items[1]
            items = items[1:]
        else:
            break
    assert picks == [0, 0, 0, 1]


def test_match_template_empty_clause(corpus_lib):
    clauses = corpus_lib.defs["GradedRels"].clauses
    clause, bindings = match_template(clauses, ListArg(()))
    assert clause is clauses[1]
    assert bindings.name_map == {} and bindings.list_map == {}


def test_match_template_no_match(corpus_lib):
    clauses = corpus_lib.defs["ValSet"].clauses
    with pytest.raises(NoMatch):
        match_template(clauses, ListArg(()))


def test_match_template_checks_its_argument_as_expand_does(corpus_lib):
    clauses = corpus_lib.defs["GradedRels"].clauses
    assert match_template(clauses, LocalSymbolArg(name("g0"))) == match_template(
        clauses, ListArg((name("g0"),))
    )
    assert match_template(clauses, EmptyOptArg()) == match_template(clauses, ListArg(()))
    with pytest.raises(UnsupportedArgument) as exc:
        match_template(clauses, AnonymousArg(EMPTY_ONTOLOGY))
    assert exc.value.message == "a list argument must be a comma or '::' list of names"


# -- substitute_name ----------------------------------------------------------------

def test_substitute_parameterized_name():
    b = Bindings({name("Val"): name("Significance")}, {})
    assert substitute_name(name("greater", "Val"), b) == name("greater", "Significance")


def test_substitute_plain_name_unbound():
    assert substitute_name(name("Person"), Bindings({}, {})) == name("Person")


def test_substitute_nested():
    b = Bindings({name("X"): name("a", "b"), name("Y"): name("c")}, {})
    out = substitute_name(name("p", name("X"), name("Y")), b)
    assert out == name("p", name("a", "b"), name("c"))


def test_substitute_bound_base_prefixes_args():
    b = Bindings({name("p"): name("hasIngredient")}, {})
    assert substitute_name(name("p", "x"), b) == name("hasIngredient", "x")


# -- expand -------------------------------------------------------------------------

def test_expand_transitive_relation(corpus_lib):
    env = make_ontology([sym("Person", CLS)], [])
    inst = Instantiation(
        "TransitiveRelation",
        (LocalSymbolArg(name("isAncestorOf")), LocalSymbolArg(name("Person"))),
        local_env=env,
    )
    out = expand(corpus_lib, inst)
    a = name("isAncestorOf")
    assert Transitive(a) in out.axioms
    assert Domain(a, name("Person")) in out.axioms
    assert Range(a, name("Person")) in out.axioms
    assert sym("isAncestorOf", OP) in out.signature


def test_expand_empty_list_leaves_local_env_unchanged():
    lib = lib_of(
        "ontology G [Class: C :: Cs] = { Class: C }\n"
        "ontology G [empty] = { }\n"
    )
    env = make_ontology([sym("Base", CLS)], [])
    out = expand(lib, Instantiation("G", (ListArg(()),), local_env=env))
    assert out == env


def test_an_empty_argument_for_a_list_parameter_is_the_empty_list(corpus_lib):
    val = LocalSymbolArg(name("Sig"))
    with pytest.raises(NoMatch) as empty_list:
        expand(corpus_lib, Instantiation("ValSet", (val, ListArg(()), EmptyOptArg())))
    with pytest.raises(NoMatch) as empty_arg:
        expand(corpus_lib, Instantiation("ValSet", (val, EmptyOptArg(), EmptyOptArg())))
    assert empty_arg.value.message == empty_list.value.message
    plain = tuple(LocalSymbolArg(name(n)) for n in ("p", "S", "T", "Val"))
    assert expand(corpus_lib, Instantiation("GradedRelsSub", (*plain, EmptyOptArg()))) == expand(
        corpus_lib, Instantiation("GradedRelsSub", (*plain, ListArg(())))
    )


def test_expand_graded_rels_four_values(corpus_lib):
    out = expand_named(corpus_lib, "GradedRels_Significance")
    graded = sorted(
        s.name.render() for s in out.signature
        if s.kind is OP and s.name.base == "hasIngredient" and s.name.args
    )
    assert graded == [
        "hasIngredient[0Insignificant]",
        "hasIngredient[1Subordinate]",
        "hasIngredient[2Essential]",
        "hasIngredient[3Dominant]",
    ]
    for g in graded:
        base, grade = g.split("[")
        term = name(base, grade.rstrip("]"))
        assert Domain(term, name("Recipe")) in out.axioms
        assert Range(term, name("FoodStuff")) in out.axioms


def test_expand_deterministic(corpus_lib):
    a = expand_named(corpus_lib, "GradedRelsSub_Significance")
    b = expand_named(corpus_lib, "GradedRelsSub_Significance")
    assert a == b


def test_expand_snst_idempotent_on_corpus(corpus_lib):
    for target in corpus_lib.zero_param_names():
        o = expand_named(corpus_lib, target)
        assert union_flat(o, o) == o


def test_expand_depth_budget(corpus_lib):
    with pytest.raises(DepthExceeded):
        expand_named(corpus_lib, "GradedRelsSub_Significance", depth=3)


def test_missing_non_optional_argument(corpus_lib):
    with pytest.raises((MissingArgument, Exception)) as exc:
        expand(corpus_lib, Instantiation("TransitiveRelation", (LocalSymbolArg(name("r")),)))
    assert exc.type.__name__ in ("ArityMismatch", "MissingArgument")


def test_missing_middle_argument_elides_optional():
    lib = lib_of(
        "ontology H [Class: A; ? Class: B; Class: C] =\n"
        "  { ObjectProperty: rel[B] Domain: A Range: C }\n"
        "ontology Use = H[X; ; Z]\n"
    )
    out = expand_named(lib, "Use")
    assert all("rel" != s.name.base for s in out.signature)
    assert {s.name.base for s in out.signature} == {"X", "Z"}


def test_optional_argument_provided():
    lib = lib_of(
        "ontology H [Class: A; ? Class: B; Class: C] =\n"
        "  { ObjectProperty: rel[B] Domain: A Range: C }\n"
        "ontology Use = H[X; Y; Z]\n"
    )
    out = expand_named(lib, "Use")
    assert Symbol(name("rel", "Y"), OP) in out.signature


def test_fresh_local_symbol_with_constraints_fails():
    # a constrained parameter cannot be satisfied by an invisible fresh symbol
    lib = lib_of(
        "ontology N [Class: D; ObjectProperty: r Domain: D] = { Class: D }\n"
        "ontology Use = { Class: Person } then N[Person; ghost]\n"
    )
    with pytest.raises(UnmetConstraint):
        expand_named(lib, "Use")


def test_checked_constraints_hold_in_their_environment(monkeypatch):
    import godp.instantiate as engine
    from godp.instantiate import is_placeholder

    checked = []  # (translated axiom, the environment it was checked in)
    check = engine._check_constraints

    def recording(axioms, rename, available, pos):
        check(axioms, rename, available, pos)
        for ax in axioms:
            translated = ax.rename(rename).canonical()
            if not any(is_placeholder(n) for n, _ in translated.refs()):
                checked.append((translated, available.axioms))

    monkeypatch.setattr(engine, "_check_constraints", recording)
    out = expand_named(load_corpus_library(), "ValSetWithOrder_Significance")
    assert checked, "constrained instantiations should be recorded"
    for translated, env_axioms in checked:
        assert translated in env_axioms
        assert env_axioms <= out.axioms


def test_at_least_step_call_schedule(monkeypatch):
    # on the 4-grade list the recursive clause (binding two heads) fires three
    # times and the one-element final clause (binding one head) once
    import godp.instantiate as engine

    calls = []  # (pattern, list heads its clause binds)
    instantiate, select = engine._instantiate, engine._select_clause

    def recording(ctx, target, found_scope, forms, *rest):
        clause = select(target.clauses, forms, target.name, None)
        calls.append((target.qual, sum(len(p.shape.heads) for p in clause.params if p.is_list)))
        return instantiate(ctx, target, found_scope, forms, *rest)

    monkeypatch.setattr(engine, "_instantiate", recording)
    expand_named(load_corpus_library(), "GradedRelsSub_Significance")
    als_calls = [heads for qual, heads in calls if qual == "GradedRelsSub::AtLeastStep"]
    assert als_calls == [2, 2, 2, 1]
    link_calls = [qual for qual, _ in calls if qual == "GradedRelsSub::AtLeastLink"]
    assert len(link_calls) == 3


def test_list_argument_against_plain_parameter(corpus_lib):
    with pytest.raises(UnsupportedArgument):
        lib_of(
            "ontology P [Class: C] = { Class: C }\n"
            "ontology Use = P[a, b]\n"
        )


def test_instantiation_as_argument_matches_local_symbol_form(corpus_lib):
    # the long form: the fourth argument is itself an instantiation, fitted
    # explicitly; it must agree with the shorthand used by PersonRels
    src = "".join(
        (CORPUS / part).read_text(encoding="utf-8")
        for part in ("patterns.gdp", "person_rels.gdp")
    ) + (
        "\nontology PersonRelsLong given Agents =\n"
        "  SubProp[isParentOf; Person; Person;\n"
        "          TransitiveRelation[isAncestorOf; Person] fit p |-> isAncestorOf]\n"
    )
    lib = lib_of(src)
    assert expand_named(lib, "PersonRelsLong") == expand_named(lib, "PersonRels")


def test_given_symbols_visible_in_parameters():
    lib = lib_of(
        "ontology Base = { Class: Person }\n"
        "ontology G [ObjectProperty: r Domain: Person] given Base =\n"
        "  { ObjectProperty: r Characteristics: Transitive }\n"
        "ontology Use = { ObjectProperty: owns Domain: Person } then G[owns]\n"
    )
    g = lib.defs["G"]
    assert [s.name.base for s in g.clauses[0].params[0].new_symbols] == ["r"]
    out = expand_named(lib, "Use")
    assert Transitive(name("owns")) in out.axioms
    assert sym("Person", CLS) in out.signature


def test_anonymous_argument_inside_generic_body_is_substituted():
    # the inline-frames argument mentions the enclosing parameter C; its
    # evaluation must happen under the caller's bindings
    lib = lib_of(
        "ontology T [ObjectProperty: r; Class: C] =\n"
        "  { ObjectProperty: r Domain: C Range: C Characteristics: Transitive }\n"
        "ontology Wrap [Class: C] =\n"
        "  T[{ ObjectProperty: rel[C] }; C]\n"
        "ontology Use = Wrap[Thing]\n"
    )
    out = expand_named(lib, "Use")
    assert Symbol(name("rel", "Thing"), OP) in out.signature
    assert Transitive(name("rel", "Thing")) in out.axioms
    assert all(s.name != name("rel", "C") for s in out.signature)


def test_local_zero_param_helper_sees_enclosing_bindings():
    lib = lib_of(
        "ontology G [Class: Val] =\n"
        "  let ontology Helper = { Class: marked[Val] } in\n"
        "  Helper then { Class: Val }\n"
        "ontology Use = G[Thing]\n"
    )
    out = expand_named(lib, "Use")
    assert sym(name("marked", "Thing"), CLS) in out.signature


def test_local_zero_param_subpattern_as_argument_expands_in_context():
    lib = lib_of(
        "ontology T [ObjectProperty: r; Class: C] = { ObjectProperty: r Domain: C }\n"
        "ontology G [Class: Val] =\n"
        "  let ontology Helper = { ObjectProperty: rel[Val] } in T[Helper; Val]\n"
        "ontology Go = G[Thing]\n"
    )
    out = expand_named(lib, "Go")
    assert out == make_ontology(
        [sym(name("rel", "Thing"), OP), sym(name("Thing"), CLS)],
        [Domain(name("rel", "Thing"), name("Thing"))],
    )
    # local sub-patterns never enter the memo, under their qual or, out of
    # budget, under (qual, depth)
    assert {k if isinstance(k, str) else k[0] for k in lib.memo} <= set(lib.defs)


# -- the library's memo of closed expansions ----------------------------------------

def _engine_run(lib, target, depth, memo):
    """Outcome of expanding `target` on a context reading `memo`, with the
    budget it ends with and the least depth that gives it (its `need`)."""
    import godp.instantiate as engine

    ctx = engine._Ctx(lib, depth, depth, memo)
    d = lib.defs[target]
    try:
        out = engine._closed_expansion(ctx, d, d.pos)
    except GodpError as e:
        return (type(e).__name__, e.message, e.pos)
    return (out, ctx.budget, ctx.need)


# closed lookups that meet again (imports too), and placeholders made at
# several levels
_DIAMOND = (
    "ontology H [Class: A; ? Class: B; Class: C] =\n"
    "  { ObjectProperty: rel[B] Domain: A Range: C }\n"
    "ontology Base = H[X; ; Z]\n"
    "ontology Left given Base = Base then { Class: L }\n"
    "ontology Right = Base then H[P; ; Q]\n"
    "ontology Top given Left = Right then Left then Base then H[R; ; S] then Right\n"
)


# failures that closed lookups reach after other lookups, and through a
# chain of closed expansions that each fail because the one they reach does
_FAILING = (
    "ontology L [Class: A; ? Class: B] = { Class: A } then { ObjectProperty: B }\n"
    "ontology P = { Class: P1 }\n"
    "ontology Q given P = P then { Class: Q1 }\n"
    "ontology V = Q then P then L[X; ]\n"
    "ontology W = P then V then { Class: Y }\n"
    "ontology U = Q then W then V\n"
    "ontology Ok = Q then P\n"
)


# a definition reached twice in one context, as `G[]` in a body and as
# `P[G[]]`, an argument; a local named with an empty argument list
_EMPTY_ARG_LISTS = (
    "ontology G = { Class: G1 }\n"
    "ontology P [Class: A] = { ObjectProperty: r Domain: A }\n"
    "ontology T = P[G[]] then G[] then { Class: T1 }\n"
    "ontology U = T then G[] then P[G[] fit A |-> G1] then G\n"
    "ontology V = let ontology M = G[] then { Class: M1 } in M[] then P[M[] fit A |-> M1] then T\n"
    "ontology W = U then P[G[]]\n"
)


# an elided optional symbol written by every path into an accumulator: a
# block of its own clause, a callee's block through a plain parameter, a
# list item, an ontology argument that fits it, and a compound name built
# two calls down; a memo hit of G between them. O elides the symbol that it
# passes on to H, so H's writes die with O's placeholder
_ELIDED_EVERYWHERE = (
    "ontology G = { Class: g1 }\n"
    "ontology Q [ObjectProperty: r; Class: C] = { ObjectProperty: r Range: C }\n"
    "ontology L [Class: C; Individual: x :: xs] = { Individual: x Types: C } then L[C; xs]\n"
    "ontology L [Class: C; empty] = { }\n"
    "ontology P [Class: C; ObjectProperty: p] = { ObjectProperty: p Domain: C }\n"
    "ontology N2 [ObjectProperty: s] = { ObjectProperty: sub[s] SubPropertyOf: s }\n"
    "ontology N1 [ObjectProperty: s] = N2[s]\n"
    "ontology H [Class: A; ? ObjectProperty: gt] =\n"
    "  { ObjectProperty: gt Domain: A Characteristics: Transitive }\n"
    "  then G\n"
    "  then Q[gt; A]\n"
    "  then L[A; val[gt], k]\n"
    "  then P[A; { ObjectProperty: gt  ObjectProperty: w[gt] SubPropertyOf: gt } fit p |-> gt]\n"
    "  then N1[gt]\n"
    "  then { Class: A }\n"
    "ontology O [Class: B; ? ObjectProperty: q] = H[B; q] then { Individual: m[q] Types: B }\n"
    "ontology T = G then H[a; ]\n"
    "ontology U = H[b; rel]\n"
    "ontology V = O[c; ] then O[d; e]\n"
)


def _warm_cold_cases():
    """Libraries, each with the targets to compare: the corpus targets, then
    each error file's targets next to the corpus, then the diamond, the
    failing chain, the empty argument lists and the elided symbol written
    everywhere."""
    for extra in [None, *sorted(ERRORS.glob("*.gdp"))]:
        lib = load_library(corpus_paths() + ([extra] if extra else []))
        yield lib, [
            t for t in sorted(lib.zero_param_names())
            if extra is None or lib.defs[t].pos.file == str(extra)
        ]
    for src in (_DIAMOND, _FAILING, _EMPTY_ARG_LISTS, _ELIDED_EVERYWHERE):
        lib = lib_of(src)
        yield lib, sorted(lib.zero_param_names())


def test_warm_memo_gives_the_cold_outcome_at_every_depth():
    for lib, targets in _warm_cold_cases():
        fresh = dict(lib.memo)  # what a freshly built library holds
        for t in lib.zero_param_names():
            _engine_run(lib, t, DEFAULT_DEPTH, lib.memo)
        warm = lib.memo
        assert set(warm) > set(fresh)
        for depth in range(1, 121):
            for t in targets:
                cold = _engine_run(lib, t, depth, dict(fresh))
                assert _engine_run(lib, t, depth, warm) == cold, (t, depth)
                assert _engine_run(lib, t, depth, {}) == cold  # no memo at all


def test_a_target_needs_exactly_the_depth_its_memo_entry_names():
    """The `need` of a target's memo entry, after a run at the default depth,
    is the least depth that gives that run's outcome, warm and cold: at
    `need` the same, at `need - 1` a DepthExceeded."""

    def outcome(lib, target, depth=DEFAULT_DEPTH):
        try:
            return expand_named(lib, target, depth)
        except GodpError as e:
            return (type(e).__name__, e.message, e.pos)

    cases = 0
    for lib, targets in _warm_cold_cases():
        fresh = dict(lib.memo)  # what a freshly built library holds
        for t in targets:
            expected = outcome(lib, t)
            need = lib.memo[t].need
            for warm in (True, False):
                run = lib if warm else replace(lib, memo=dict(fresh))
                assert outcome(run, t, need) == expected, (t, need, warm)
                if need > 1:
                    run = lib if warm else replace(lib, memo=dict(fresh))
                    assert outcome(run, t, need - 1)[0] == "DepthExceeded", (t, need, warm)
                cases += 1
    assert cases == 74  # 37 targets, warm and cold


def test_a_failed_closed_expansion_is_taken_from_the_memo(tmp_path, monkeypatch, capsys):
    import godp.instantiate as engine

    ran = []
    instantiate = engine._instantiate

    def recording(ctx, target, *args):
        ran.append(target.name)
        return instantiate(ctx, target, *args)

    monkeypatch.setattr(engine, "_instantiate", recording)
    f = tmp_path / "f.gdp"
    f.write_text(
        "ontology L [Class: A; ? Class: B] = { Class: A } then { ObjectProperty: B }\n"
        "ontology V = L[X; ]\n"
        "ontology W = V then { Class: Y }\n"
    )
    assert main(["check", str(f)]) == 1
    assert ran == ["V", "L", "W"]  # W meets V's failure in the memo
    assert capsys.readouterr().err == f"{f}:1:55: error: kind clash for '?B_1_0': Class vs ObjectProperty\n"
    lib = load_library([f])
    with pytest.raises(GodpError):
        expand_named(lib, "V")
    assert lib.memo["V"].error is not None
    # V fails within 2 ticks of its own budget: W meets that in the memo
    ran.clear()
    with pytest.raises(KindClash):
        expand_named(lib, "W", depth=2)
    assert ran == ["W"]
    # a budget that does not reach the failure runs the expansion again
    ran.clear()
    with pytest.raises(DepthExceeded) as exc:
        expand_named(lib, "V", depth=1)
    assert (exc.value.pos.line, exc.value.pos.col) == (2, 14)
    assert ran == ["V", "L"]  # L's tick is the second


def test_depth_exceeded_position_holds_with_a_warm_memo(capsys):
    bad = ERRORS / "depth_exceeded.gdp"
    lib = load_library([bad])
    expand_named(lib, "Broken")
    assert "Broken" in lib.memo
    with pytest.raises(DepthExceeded) as exc:
        expand_named(lib, "Broken", depth=20)
    assert (exc.value.pos.line, exc.value.pos.col) == (6, 8)
    # `check` runs its targets in one library; a warm one reports the same
    for files in ([bad], [*corpus_paths(), bad]):
        assert main(["check", "--depth", "20", *map(str, files)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert f"{bad}:6:8: error: expansion depth budget exceeded" in lines


def test_placeholder_after_a_memo_hit_keeps_its_name(monkeypatch):
    import godp.core as core

    made = []  # the placeholders each instantiation elides, in the order they end
    close = core.Accumulator.close

    def recording(acc, placeholders):
        made.extend(sorted(ph.base for ph in placeholders if ph in acc.kinds))
        close(acc, placeholders)
        assert not any(ph in acc.kinds for ph in placeholders)

    monkeypatch.setattr(core.Accumulator, "close", recording)
    src = (
        "ontology H [Class: A; ? Class: B; ? Class: C] =\n"
        "  { ObjectProperty: rel[B] Domain: A Range: C }\n"
        "ontology W [Class: A] = H[A]\n"
        "ontology Inner = H[X; ; Z]\n"
        "ontology Outer = Inner then W[P]\n"
        "ontology Top = Outer then H[R] then Inner\n"
    )
    reference = expand_named(lib_of(src), "Top")
    cold = ["?B_1_0", "?B_2_0", "?C_2_1", "?B_1_0", "?C_1_1"]
    assert made == cold
    # Inner, then also Outer, come from the memo; the instantiations that
    # still run make the names they made in the cold run
    for warmed, rerun in (("Inner", cold[1:]), ("Outer", cold[3:])):
        warm = lib_of(src)
        expand_named(warm, warmed)
        made.clear()
        assert expand_named(warm, "Top") == reference
        assert made == rerun


def test_an_elided_symbol_leaves_nothing_of_what_any_write_built_from_it(tmp_path, capsys):
    """Whatever path wrote a sentence or a name built from an elided optional
    symbol, it goes when the instantiation that elided it ends: T is U with
    `a` for `b`, less every name and sentence built from `rel`. V's first O
    elides the symbol that it passes on to H, its second passes `e`."""
    f = tmp_path / "index.gdp"
    f.write_text(_ELIDED_EVERYWHERE, encoding="utf-8")
    dumps = {
        "T": (
            "AX ClassAssertion a k\n"
            "SYM Class a\n"
            "SYM Class g1\n"
            "SYM Individual k\n"
        ),
        "U": (
            "AX ClassAssertion b k\n"
            "AX ClassAssertion b val_rel\n"
            "AX Domain rel b\n"
            "AX Range rel b\n"
            "AX SubPropertyOf sub_rel rel\n"
            "AX SubPropertyOf w_rel rel\n"
            "AX Transitive rel\n"
            "SYM Class b\n"
            "SYM Class g1\n"
            "SYM Individual k\n"
            "SYM Individual val_rel\n"
            "SYM ObjectProperty rel\n"
            "SYM ObjectProperty sub_rel\n"
            "SYM ObjectProperty w_rel\n"
        ),
        "V": (
            "AX ClassAssertion c k\n"
            "AX ClassAssertion d k\n"
            "AX ClassAssertion d m_e\n"
            "AX ClassAssertion d val_e\n"
            "AX Domain e d\n"
            "AX Range e d\n"
            "AX SubPropertyOf sub_e e\n"
            "AX SubPropertyOf w_e e\n"
            "AX Transitive e\n"
            "SYM Class c\n"
            "SYM Class d\n"
            "SYM Class g1\n"
            "SYM Individual k\n"
            "SYM Individual m_e\n"
            "SYM Individual val_e\n"
            "SYM ObjectProperty e\n"
            "SYM ObjectProperty sub_e\n"
            "SYM ObjectProperty w_e\n"
        ),
    }
    for target, dump in dumps.items():
        assert main(["expand", "--target", target, "--format", "dump", str(f)]) == 0
        assert capsys.readouterr() == (dump, ""), target


# -- work that grows with list length ---------------------------------------------

_CHAIN = (
    "ontology Chain [Individual: x :: xs] = { Individual: x } then Chain[xs]\n"
    "ontology Chain [empty] = { }\n"
)


def _long_lists(n: int) -> str:
    listed = ", ".join(f"v{i}" for i in range(n))
    return (
        f"ontology A = ValSet[Val; {listed}; greater[Val]]\n"
        f"ontology B = ValSetWithOrder[Val; {listed}]\n"
        f"ontology C = GradedRelsSub[p; S; T; Val; {listed}]\n"
        f"ontology D = Chain[{listed}]\n"
    )


def test_instantiations_and_unions_grow_linearly_with_list_length(monkeypatch):
    """Expanding ValSet, ValSetWithOrder, GradedRelsSub and Chain over n
    items, three counts grow at most 2.2x when n doubles: instantiations,
    the names merged through the engine's one merge point
    (`Accumulator.merge`), and the (term, kind) pairs that reach the kind
    check. A list item is checked where a call writes it, not again at each
    level that passes on the tail it is in."""
    import godp.core as core
    import godp.instantiate as engine

    src = "".join(p.read_text(encoding="utf-8") for p in corpus_paths()) + _CHAIN
    counts = {}
    for n in (100, 200):
        lib = lib_of(src + _long_lists(n))
        tally = counts[n] = {"instantiations": 0, "merged names": 0, "kind checks": 0}
        instantiate, merge, declare = engine._instantiate, core.Accumulator.merge, engine._declare

        def instantiating(*args):
            tally["instantiations"] += 1
            return instantiate(*args)

        def merging(acc, kinds, axioms):
            tally["merged names"] += len(kinds)
            return merge(acc, kinds, axioms)

        def declaring(acc, terms, pos, clash):
            terms = list(terms)
            tally["kind checks"] += len(terms)
            return declare(acc, terms, pos, clash)

        with monkeypatch.context() as m:
            m.setattr(engine, "_instantiate", instantiating)
            m.setattr(core.Accumulator, "merge", merging)
            m.setattr(engine, "_declare", declaring)
            for target in "ABCD":
                expand_named(lib, target)
    for key, small in counts[100].items():
        assert 0 < small and counts[200][key] <= 2.2 * small, (key, small, counts[200][key])


def test_long_lists_and_long_definition_chains_expand_under_the_default_recursion_limit(tmp_path, capsys):
    # two Python frames per list item and three per closed expansion: 400
    # items and 250 definitions stay below the interpreter's limit
    f = tmp_path / "long.gdp"
    f.write_text(_CHAIN + _long_lists(400), encoding="utf-8")
    for target in "ABCD":
        assert main(["expand", "--target", target, "--format", "dump", *map(str, corpus_paths()), str(f)]) == 0
    assert capsys.readouterr().out.count("SYM Individual v399\n") == 4
    chain = tmp_path / "chain.gdp"
    chain.write_text(
        "".join(f"ontology D{i} = D{i + 1} then {{ Class: c{i} }}\n" for i in range(250)) + "ontology D250 = { Class: z }\n",
        encoding="utf-8",
    )
    assert main(["check", str(chain)]) == 0
    assert capsys.readouterr() == ("", "")


def test_closed_expansions_cost_work_linear_in_the_chain_length():
    """`check` of a chain of n closed expansions, `given` imports, `then`
    references, and one chain whose last definition runs out of `--depth 20`,
    and of a list recursion that elides an optional parameter at each of its
    n levels, traces at most 2.2x the line events in `src/godp` when n
    doubles: a memo hit is a lookup, and a DepthExceeded is kept for its
    depth, so the failure that every target of the failing chain reaches runs
    once, and is reported once; an instantiation elides what its own
    placeholders' index holds, not its whole accumulator."""
    from engine_cost import CHAINS, SIZES, check_cost

    small, large = SIZES
    for name, (make, options) in CHAINS.items():
        lines, _, _ = check_cost(make(small), options)
        more, code, err = check_cost(make(large), options)
        assert more <= 2.2 * lines, (name, lines, more)
        if name == "failing chain":
            assert code == 1 and err.count("\n") == 1
            assert f"chain.gdp:{large + 1}:" in err and err.endswith(": error: expansion depth budget exceeded\n")
        else:
            assert (code, err) == (0, "")


def test_an_expansion_makes_no_symbol():
    """Expanding a `then` chain of 200 definitions over fresh names interns
    no `Symbol`: an accumulator and a flat ontology hold their signature as
    a name -> kind map."""
    from godp import core

    text = "".join(f"ontology Fresh{i} = Fresh{i + 1} then {{ Class: fresh{i} }}\n" for i in range(200))
    assert ("fresh0", ()) not in core._NAMES
    lib = lib_of(text + "ontology Fresh200 = { Class: fresh200 }\n")
    symbols = len(core._SYMBOLS)
    assert len(expand_named(lib, "Fresh0").kinds) == 201
    assert len(core._SYMBOLS) == symbols


@pytest.mark.parametrize("target", ["B", "C"])
def test_traced_memory_grows_about_linearly_with_list_length(target):
    """The traced peak of expanding ValSetWithOrder or GradedRelsSub over 300
    items is at most 3.2x that over 150: one accumulator per expansion, no
    copy per level. What grows faster is the tail each level binds."""
    import tracemalloc

    src = "".join(p.read_text(encoding="utf-8") for p in corpus_paths()) + _CHAIN
    peaks = []
    for n in (150, 300):
        lib = lib_of(src + _long_lists(n))
        tracemalloc.start()
        try:
            expand_named(lib, target)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 3.2 * peaks[0], peaks


def test_block_fills_call_neither_make_ontology_nor_substitute_name(monkeypatch):
    """Expanding ValSet and GradedRelsSub over 100 items fills each block
    from its plan: no call of make_ontology or substitute_name comes from a
    block fill; only a kind clash inside a block makes one. A block with
    nothing to bind gives one ontology object on every run. No
    substitute_name call comes from an instantiation at all, its arguments,
    fits and parameter constraints included."""
    import sys

    import godp.blocks as blocks
    import godp.instantiate as engine

    listed = ", ".join(f"v{i}" for i in range(100))
    lib = lib_of(
        "".join(p.read_text(encoding="utf-8") for p in corpus_paths())
        + f"ontology A = ValSet[Val; {listed}; greater[Val]]\n"
        + f"ontology C = GradedRelsSub[p; S; T; Val; {listed}]\n"
        + "ontology P [Class: C] = { Class: Src  Class: Dst } then { Class: C }\n"
        + "ontology E = P[A] then P[B]\n"
        + "ontology F given Agents = { ObjectProperty: anc Domain: Person Range: Person }\n"
        + "  then SubProp[isParentOf; Person; Person; anc]\n"
        + "  then SubProp[isChildOf; Person; Person; { ObjectProperty: a2 Domain: Person Range: Person } fit p |-> a2]\n"
    )
    from_fills, filled, from_instantiations = [], [], []

    def called_in(code, calls, fn):
        def watched(*args):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code is not code:
                frame = frame.f_back
            calls.append(frame is not None)
            return fn(*args)
        return watched

    def in_a_fill(fn):
        return called_in(blocks.fill_block.__code__, from_fills, fn)

    def fill(plan, scope, acc):
        filled.append(plan)
        return blocks.fill_block(plan, scope, acc)

    monkeypatch.setattr(blocks, "make_ontology", in_a_fill(blocks.make_ontology))
    monkeypatch.setattr(engine, "make_ontology", in_a_fill(engine.make_ontology))
    monkeypatch.setattr(engine, "substitute_name", in_a_fill(engine.substitute_name))
    monkeypatch.setattr(
        engine, "substitute_name", called_in(engine._instantiate.__code__, from_instantiations, engine.substitute_name)
    )
    monkeypatch.setattr(engine, "fill_block", fill)
    for target in "ACEF":
        expand_named(lib, target)
    assert len(filled) > 500 and not any(from_fills)
    assert not any(from_instantiations)
    # the one ontology object that the plan of a block with nothing to bind holds fills each run
    constant = [plan[-1] for plan in filled if "Src" in {n.base for n in plan[0] if n is not None}]
    assert len(constant) == 2 and constant[0] is constant[1] is not None
    # the watch sees the call that a kind clash inside a block makes
    with pytest.raises(KindClash):
        expand_named(lib_of("ontology P [Class: C] = { Class: C  Individual: C }\nontology K = P[k]\n"), "K")
    assert from_fills == [True]


# -- placeholders are names no user can write ------------------------------------

# the user writes the name a placeholder had when placeholders were identifiers
_WRITTEN_LIKE_A_PLACEHOLDER = (
    "ontology H [Class: A; ? Class: B; Class: C] =\n"
    "  { ObjectProperty: rel[B] Domain: A Range: C }\n"
    "ontology SubProp [ObjectProperty: p; ObjectProperty: q SubPropertyOf: p] = { }\n"
    "ontology Use = H[X; ; Z]\n"
    "  then { ObjectProperty: __elided_B_0 ObjectProperty: r }\n"
    "  then SubProp[__elided_B_0; r]\n"
)


def test_a_written_name_is_never_a_placeholder(tmp_path, capsys):
    from godp.instantiate import is_placeholder

    assert not is_placeholder(NameTerm("__elided_B_0"))
    lib = lib_of(_WRITTEN_LIKE_A_PLACEHOLDER)
    with pytest.raises(UnmetConstraint) as exc:
        expand_named(lib, "Use")
    message = "argument does not satisfy required axiom: SubPropertyOf r __elided_B_0"
    assert exc.value.message == message
    assert (exc.value.pos.line, exc.value.pos.col) == (6, 30)  # the `r` of SubProp[...]
    f = tmp_path / "use.gdp"
    f.write_text(_WRITTEN_LIKE_A_PLACEHOLDER, encoding="utf-8")
    assert main(["check", str(f)]) == 1
    assert capsys.readouterr().err == f"{f}:6:30: error: {message}\n"


_ELIDED_KIND_CLASH = (
    "ontology L [Class: A; ? Class: B] = { Class: A } then { ObjectProperty: B }\n"
    "ontology V = L[X; ]\n"
    "ontology W = V then { Class: Y }\n"
)


def test_a_placeholder_in_a_diagnostic_does_not_depend_on_depth_target_or_memo():
    messages = set()
    for depth in (50, DEFAULT_DEPTH):
        for order in (["V", "W"], ["W", "V"]):
            lib = lib_of(_ELIDED_KIND_CLASH)
            for target in order:
                with pytest.raises(KindClash) as exc:
                    expand_named(lib, target, depth=depth)
                assert (exc.value.pos.line, exc.value.pos.col) == (1, 55)
                messages.add(exc.value.message)
    (message,) = messages
    assert message.startswith("kind clash for '?B_")


_ELIDED_TO_A_SYMBOL_PARAMETER = (
    "ontology K2 [ObjectProperty: P] = { }\n"
    "ontology L [Class: A; ? Class: B] = { Class: A } then K2[B]\n"
    "ontology V = L[X; ]\n"
    "ontology W = V then { Class: Y }\n"
    "ontology Given = L[X; Y]\n"
)


def test_an_elided_symbol_passed_to_a_symbol_parameter_is_neither_declared_nor_kind_checked():
    lib = lib_of(_ELIDED_TO_A_SYMBOL_PARAMETER)
    assert expand_named(lib, "V") == make_ontology([sym("X", CLS)], [])
    assert expand_named(lib, "W") == make_ontology([sym("X", CLS), sym("Y", CLS)], [])
    # a symbol that is given is still kind-checked
    with pytest.raises(KindMismatch) as exc:
        expand_named(lib, "Given")
    assert exc.value.message == "'Y' has kind Class, parameter 'P' needs ObjectProperty"
    assert (exc.value.pos.line, exc.value.pos.col) == (2, 58)


def test_an_elided_symbol_as_a_list_item_is_neither_declared_nor_kind_checked():
    lib = lib_of(
        "ontology Each [Individual: x :: xs] = Each[xs]\n"
        "ontology Each [empty] = { }\n"
        "ontology Opt [Individual: a; ? ObjectProperty: p] = Each[a, p, rel[p]]\n"
        "ontology Use = Opt[i]\n"
    )
    assert expand_named(lib, "Use") == make_ontology([sym("i", IND)], [])


def test_a_constraint_on_a_name_built_from_an_elided_symbol_is_not_checked():
    lib = lib_of(
        "ontology SubProp [ObjectProperty: p; ObjectProperty: q SubPropertyOf: p] = { }\n"
        "ontology L [Class: A; ? Class: B] =\n"
        "  { Class: A ObjectProperty: rel[B] ObjectProperty: s } then SubProp[rel[B]; s]\n"
        "ontology Use = L[X; ]\n"
    )
    assert expand_named(lib, "Use") == make_ontology([sym("X", CLS), sym("s", OP)], [])


# -- a name a clause binds hides an enclosing list tail --------------------------

_M = "ontology M [Individual: y :: ys] = { Individual: r DifferentFrom: y, ys }\n"


def _different_from(body: str, extra: str = "") -> list[str]:
    lib = lib_of(extra + f"ontology D [Individual: x :: xs] = let {body}\nontology U = D[a, b, c]\n")
    return sorted(
        " ".join(n.render() for n in a.individuals)
        for a in expand_named(lib, "U").axioms
        if isinstance(a, DifferentIndividuals)
    )


@pytest.mark.parametrize("body, extra, expected", [
    # a local's parameter named like D's tail: in a block's comma list it is the parameter
    ("ontology L [Individual: xs] = { Individual: r DifferentFrom: xs } in L[q]", "", ["q r"]),
    # so is a local's list head
    ("ontology L [Individual: xs :: ys] = { Individual: r DifferentFrom: xs } in L[q, t]", "", ["q r"]),
    # and the parameter in an argument's comma list
    ("ontology L [Individual: xs] = M[s, xs] in L[q]", _M, ["q r", "r s"]),
])
def test_a_name_the_clause_binds_hides_an_enclosing_list_tail(body, extra, expected):
    assert _different_from(body, extra) == expected


@pytest.mark.parametrize("body, expected", [
    # a bare argument naming the local's parameter is that parameter
    ("ontology L [Individual: xs] = M[xs] in L[q]", ["q r"]),
    # and naming the enclosing tail, which nothing hides, is the tail
    ("ontology L [Individual: z] = M[xs] in L[q]", ["b r", "c r"]),
    ("ontology L [Individual: z] = { Individual: z DifferentFrom: xs } in L[q]", ["b q", "c q"]),
])
def test_argument_positions_and_unhidden_tails_resolve_as_before(body, expected):
    assert _different_from(body, _M) == expected


# -- list tails are resolved when the library is built ----------------------------

_FIELD_CASES = [
    ("Individual", "Class: C EquivalentTo: {xs}", ["EquivalentToUnion C b c"]),
    ("Class", "ObjectProperty: p Domain: xs", ["Domain p b", "Domain p c"]),
    ("Class", "ObjectProperty: p Range: xs", ["Range p b", "Range p c"]),
    ("ObjectProperty", "ObjectProperty: p SubPropertyOf: xs", ["SubPropertyOf p b", "SubPropertyOf p c"]),
    ("ObjectProperty", "ObjectProperty: p InverseOf: xs", ["InverseOf p b", "InverseOf p c"]),
    ("Class", "Individual: i Types: xs", ["ClassAssertion b i", "ClassAssertion c i"]),
    ("Individual", "Individual: r DifferentFrom: xs", ["DifferentIndividuals b r", "DifferentIndividuals c r"]),
    ("Individual", "DifferentIndividuals: xs", ["DifferentIndividuals b c"]),
]


@pytest.mark.parametrize("kind, frame, expected", _FIELD_CASES)
def test_a_list_tail_splices_into_every_comma_list_field(kind, frame, expected):
    lib = lib_of(f"ontology P [{kind}: x :: xs] = {{ {frame} }}\nontology U = P[a, b, c]\n")
    dump = emit_struct_dump(expand_named(lib, "U"))
    assert [line[3:] for line in dump.splitlines() if line.startswith("AX ")] == expected


def test_the_field_cases_cover_every_comma_list_field():
    words = {frame.split(":")[-2].split()[-1] for _, frame, _ in _FIELD_CASES}
    assert words == FIELD_KEYWORDS - {"Characteristics"} | {"DifferentIndividuals"}


_NOT_A_LIST = "'xs' is not a list in scope (expected a list-parameter tail)"


def test_a_block_tail_the_running_clause_does_not_bind_is_an_error(tmp_path, capsys):
    # D[empty] runs the clause without `xs`, and its local L names `xs` in a block
    f = tmp_path / "d.gdp"
    f.write_text(
        "ontology D [Individual: x :: xs] = let ontology L [Individual: r] = "
        "{ Individual: r DifferentFrom: xs } in L[k1]\n"
        "ontology D [empty] = L[k2]\n"
        "ontology U = D[empty]\n",
        encoding="utf-8",
    )
    assert main(["expand", "--target", "U", "--format", "dump", str(f)]) == 1
    assert capsys.readouterr() == ("", f"{f}:1:69: error: {_NOT_A_LIST}\n")


_A_TAIL = "'xs' is a list-parameter tail, not a name"
_P = "ontology P [Individual: r] = { Individual: r }\n"


@pytest.mark.parametrize("body, extra, position", [
    ("{ Individual: xs Types: C }", "", "1:36"),  # a frame's subject: at the block, when it runs
    ("{ Individual: x DifferentFrom: g[xs] }", "", "1:36"),  # a part of a name in a comma list
    ("P[g[xs]]", _P, "1:38"),  # a part of an argument symbol: at the argument, when built
    ("E[g[xs], x]", "ontology E [Individual: y :: ys] = { }\n", "1:38"),  # of a list argument's item
    ("P[O fit r |-> xs]", _P + "ontology O = { Individual: xs }\n", "1:38"),  # a fit target
    # an enclosing pattern's tail, in a local's block
    ("let ontology L [Individual: r] = { Individual: xs DifferentFrom: r } in L[k]", "", "1:69"),
])
def test_a_list_tail_used_as_one_name_is_an_error(tmp_path, capsys, body, extra, position):
    # each once gave a symbol named after the tail
    f = tmp_path / "d.gdp"
    f.write_text(
        f"ontology D [Individual: x :: xs] = {body}\nontology D [empty] = {{ }}\nontology U = D[a, b, c]\n{extra}",
        encoding="utf-8",
    )
    assert main(["expand", "--target", "U", "--format", "dump", str(f)]) == 1
    assert capsys.readouterr() == ("", f"{f}:{position}: error: {_A_TAIL}\n")


_NOT_BOUND = "'x' is not bound in scope (a list head that the running clause does not bind)"


@pytest.mark.parametrize("body, position", [
    ("{ Individual: r DifferentFrom: x }", "1:69"),  # in a block: at the block
    ("{ Individual: r } then M[x]", "1:94"),  # as an argument: at the argument
    ("N[r :: xs; x]", "1:80"),  # read before an earlier argument splices the tail `xs`
])
def test_a_list_head_the_running_clause_does_not_bind_is_an_error(tmp_path, capsys, body, position):
    # D[empty] runs the clause without the head `x`, which its local L reads;
    # a run of the clause that binds `x` reads its item
    f = tmp_path / "d.gdp"
    f.write_text(
        f"ontology D [Individual: x :: xs] = let ontology L [Individual: r] = {body} in L[k1]\n"
        "ontology D [empty] = L[k2]\n"
        "ontology M [Individual: r] = { Individual: r }\n"
        "ontology N [Individual: r :: rs; Individual: s] = { Individual: s }\n"
        "ontology U = D[empty]\n"
        "ontology V = D[a, b]\n",
        encoding="utf-8",
    )
    assert main(["expand", "--target", "U", "--format", "dump", str(f)]) == 1
    assert capsys.readouterr() == ("", f"{f}:{position}: error: {_NOT_BOUND}\n")
    assert main(["expand", "--target", "V", "--format", "dump", str(f)]) == 0
    assert "SYM Individual x" not in capsys.readouterr().out
    assert main(["check", str(f)]) == 1
    assert capsys.readouterr().err == f"{f}:{position}: error: {_NOT_BOUND}\n"


_PLAIN_AND_HEAD = (
    "ontology D [Individual: x; empty] = "
    "let ontology L [Individual: r] = { Individual: r DifferentFrom: x } in L[k]\n",
    "ontology D [Individual: x; Individual: x :: xs] = { Individual: x }\n",
)


@pytest.mark.parametrize("clauses", [_PLAIN_AND_HEAD, _PLAIN_AND_HEAD[::-1]])
def test_a_name_every_clause_binds_plain_is_no_unbound_head(tmp_path, capsys, clauses):
    # the plain `x` is bound in every run, whichever clause rebinds it as a head
    f = tmp_path / "d.gdp"
    f.write_text("".join(clauses) + "ontology U = D[a; empty]\n", encoding="utf-8")
    assert main(["expand", "--target", "U", "--format", "dump", str(f)]) == 0
    assert capsys.readouterr().out == (
        "AX DifferentIndividuals a k\nSYM Individual a\nSYM Individual k\n"
    )


def test_a_local_of_a_local_reads_the_head_of_the_run_two_definers_out():
    lib = lib_of(_NESTED.replace("DifferentFrom: xs", "DifferentFrom: x"))
    assert {a for a in expand_named(lib, "U").axioms if isinstance(a, DifferentIndividuals)} == {
        DifferentIndividuals((name("a"), name("k1")))
    }
    with pytest.raises(UnknownReference) as exc:
        expand_named(lib, "V")
    assert exc.value.message == _NOT_BOUND
    assert (exc.value.pos.line, exc.value.pos.col) == (3, 43)


def test_a_head_is_read_from_the_run_of_its_own_definition():
    # L reads D's `x`; the clause of D that ran binds none, though the
    # bindings it copied from A's run hold A's `x`
    source = (
        "ontology A [Individual: x :: xs] =\n"
        "  let\n"
        "    ontology D [Individual: x :: ys] =\n"
        "      let ontology L [Individual: r] = { Individual: r DifferentFrom: x } in L[k1]\n"
        "    ontology D [empty] = L[k2]\n"
        "  in D[ARG]\n"
        "ontology U = A[a, b]\n"
    )
    with pytest.raises(UnknownReference) as exc:
        expand_named(lib_of(source.replace("ARG", "empty")), "U")
    assert exc.value.message == _NOT_BOUND
    assert (exc.value.pos.line, exc.value.pos.col) == (4, 40)
    assert {a for a in expand_named(lib_of(source.replace("ARG", "c")), "U").axioms} == {
        DifferentIndividuals((name("c"), name("k1")))
    }


_NESTED = (
    "ontology D [Individual: x :: xs] =\n"
    "  let ontology L [Individual: r] =\n"
    "        let ontology L2 [Individual: s] = { Individual: s DifferentFrom: xs } in L2[r]\n"
    "      in L[k1]\n"
    "ontology D [empty] = L[k2]\n"
    "ontology U = D[a, b, c]\n"
    "ontology V = D[empty]\n"
)


def test_a_local_of_a_local_reads_the_tail_of_the_run_two_definers_out():
    lib = lib_of(_NESTED)
    assert {a for a in expand_named(lib, "U").axioms if isinstance(a, DifferentIndividuals)} == {
        DifferentIndividuals((name("b"), name("k1"))), DifferentIndividuals((name("c"), name("k1")))
    }
    # D[empty] runs the clause without `xs`, two definitions out from L2's block
    with pytest.raises(UnknownReference) as exc:
        expand_named(lib, "V")
    assert exc.value.message == _NOT_A_LIST
    assert (exc.value.pos.line, exc.value.pos.col) == (3, 43)


def test_a_local_of_a_local_calls_a_local_of_the_definition_two_out(tmp_path, capsys):
    # C calls A's local M, two definitions out (`Call.up == 2`); M's block
    # reads A's head `a` and tail `as` from A's run
    source = (
        "ontology A [Individual: a :: as] =\n"
        "  let\n"
        "    ontology M [Individual: m] = { Individual: m DifferentFrom: a, as }\n"
        "    ontology B [Individual: b] =\n"
        "      let ontology C [Individual: c] = { Individual: c } then M[c] then M[b] in C[k]\n"
        "  in B[j]\n"
        "ontology A [empty] = { }\n"
        "ontology U = A[p, q, r]\n"
    )
    calls = lib_of(source).quals["A::B::C"].clauses[0].body[1:]
    assert [(c.qual, c.up) for c in calls] == [("A::M", 2)] * 2
    pairs = "".join(f"AX DifferentIndividuals {i} {o}\n" for i in "jk" for o in "pqr")
    symbols = "".join(f"SYM Individual {s}\n" for s in "jkpqr")
    assert _cli(tmp_path, capsys, source, "U") == [(0, pairs + symbols, ""), (0, "", "")]


_L_NAMES_XS = "ontology L [Individual: z] = { Individual: z DifferentFrom: xs } then M[xs] in L[q]"
_HEAD_CLAUSE = "ontology D [Individual: xs :: ys] = L[q]"


def test_a_name_a_clause_binds_as_a_tail_is_that_tail_in_a_block_and_as_an_argument():
    # D's clauses bind `xs` as a tail and as a head; to its local L it is the
    # tail, in a block's comma list and as an argument alike
    assert _different_from(f"{_L_NAMES_XS}\n{_HEAD_CLAUSE}", _M) == ["b q", "b r", "c q", "c r"]
    # a run of the clause that binds `xs` as a head has no such list
    with pytest.raises(UnknownReference) as exc:
        _different_from(_L_NAMES_XS, f"{_M}{_HEAD_CLAUSE}\n")
    assert exc.value.message == _NOT_A_LIST
    assert (exc.value.pos.line, exc.value.pos.col) == (3, 69)


def test_a_tail_that_a_later_parameter_binds_again_holds_no_list():
    # the first clause binds `xs` as a tail, then as a head: in its own body
    # `xs` is the head, and to the local L, for which the second clause makes
    # `xs` a tail, this run has no list `xs`
    source = (
        "ontology D [Individual: x :: xs; Individual: xs :: ys] =\n"
        "  let ontology L [Individual: z] = { Individual: z DifferentFrom: xs } in {BODY}\n"
        "ontology D [empty; Individual: y :: xs] = L[q]\n"
        "ontology U = D[a, b, c; d, e]\n"
    )
    lib = lib_of(source.replace("{BODY}", "{ Individual: w DifferentFrom: xs }"))
    assert [a for a in expand_named(lib, "U").axioms if isinstance(a, DifferentIndividuals)] == [
        DifferentIndividuals((name("d"), name("w")))
    ]
    with pytest.raises(UnknownReference) as exc:
        expand_named(lib_of(source.replace("{BODY}", "L[q]")), "U")
    assert exc.value.message == _NOT_A_LIST
    assert (exc.value.pos.line, exc.value.pos.col) == (2, 36)


# -- a name is read from the run that binds it ---------------------------------------

def _cli(tmp_path, capsys, source, *args):
    """`godp expand --format dump` on `source`, written to a file, for each
    target in `args`, then `godp check`: each one's exit code, stdout and
    stderr, the file's path written as `F`."""
    f = tmp_path / "lib.gdp"
    f.write_text(source, encoding="utf-8")
    out = []
    for argv in [["expand", "--target", t, "--format", "dump"] for t in args] + [["check"]]:
        code = main([*argv, str(f)])
        stdout, stderr = capsys.readouterr()
        out.append((code, stdout, stderr.replace(str(f), "F")))
    return out


def test_a_local_parameter_frame_reads_a_definer_head_from_its_run(tmp_path, capsys):
    # L[k2]'s constraint `DifferentIndividuals k2 x` reads D's head `x`, which
    # the clause D[empty] runs does not bind: an error at the argument, where
    # the clause's own constant `x` met it
    source = (
        "ontology D [Individual: x :: xs] = let ontology L [Individual: r DifferentFrom: x] = "
        "{ Individual: r } in { Individual: k1 DifferentFrom: x } then L[k1]\n"
        "ontology D [empty] = { Individual: k2 DifferentFrom: x } then L[k2]\n"
        "ontology U = D[empty]\n"
    )
    error = (1, "", f"F:2:65: error: {_NOT_BOUND}\n")
    assert _cli(tmp_path, capsys, source, "U") == [error, error]


def test_a_definer_head_that_only_a_frame_without_fields_names_is_read_too(tmp_path, capsys):
    # every name of L's frames is read when its argument is checked, `h` in
    # `Class: h` too, though no axiom of L's names it: in the clause D[empty]
    # runs, D binds no head `h`
    source = (
        "ontology D [Class: h :: hs] = let ontology L [Class: h  ObjectProperty: q Domain: C] = "
        "{ ObjectProperty: q } in L[{ Class: C ObjectProperty: owns Domain: C }]\n"
        "ontology D [empty] = L[{ Class: C ObjectProperty: owns Domain: C }]\n"
        "ontology U = D[empty]\n"
        "ontology V = D[k]\n"
    )
    error = (1, "", f"F:2:24: error: {_NOT_BOUND.replace('x', 'h', 1)}\n")
    assert _cli(tmp_path, capsys, source, "U", "V") == [
        error, (0, "AX Domain owns C\nSYM Class C\nSYM Class k\nSYM ObjectProperty owns\n", ""), error,
    ]


def test_a_local_parameter_named_like_a_definer_head_is_its_own(tmp_path, capsys):
    # L's new symbol `x` is bound in L's run, whatever D's run binds `x` to
    source = (
        "ontology D [empty] = let ontology L [Individual: x] = { Individual: x Types: C } in L[k0]\n"
        "ontology D [Individual: x :: xs] = L[k1]\n"
        "ontology U = D[a]\n"
        "ontology V = D[empty]\n"
    )
    assert _cli(tmp_path, capsys, source, "U", "V") == [
        (0, "AX ClassAssertion C k1\nSYM Class C\nSYM Individual a\nSYM Individual k1\n", ""),
        (0, "AX ClassAssertion C k0\nSYM Class C\nSYM Individual k0\n", ""),
        (0, "", ""),
    ]


_READS_S = "AX Domain rel Thing\nAX Range rel Thing\nSYM Class Thing\nSYM ObjectProperty rel\n"
_MAPPED_BOTH = "F:1:108: error: 'S' is mapped both to 'Thing' and to 'Y'\n"


@pytest.mark.parametrize("body, outcome", [
    # `S` in L, a name of L's parameter frame that L does not bind, is D's
    ("{ ObjectProperty: rel Domain: S } then L[rel]", (0, _READS_S, "")),
    # a fit of a symbol that a definer binds must agree with it
    ("L[{ ObjectProperty: rel Domain: Y Class: Y } fit S |-> Y]", (1, "", _MAPPED_BOTH)),
    ("L[{ ObjectProperty: rel Domain: S } fit S |-> S]", (0, _READS_S, "")),
])
def test_a_local_reads_a_definer_parameter_it_does_not_bind(tmp_path, capsys, body, outcome):
    source = (
        "ontology D [Class: S] = let ontology L [ObjectProperty: q Domain: S] = "
        f"{{ ObjectProperty: q Range: S }} in {body}\n"
        "ontology U = D[Thing]\n"
    )
    assert _cli(tmp_path, capsys, source, "U") == [outcome, outcome[:1] + ("", outcome[2])]


def test_a_fit_may_rename_a_constant_of_a_parameter_frame(tmp_path, capsys):
    source = (
        "ontology P [ObjectProperty: q Domain: Thing] = { Class: Thing }\n"
        "ontology U = P[{ ObjectProperty: r Domain: Z Class: Z } fit Thing |-> Z]\n"
    )
    assert _cli(tmp_path, capsys, source, "U") == [
        (0, "AX Domain r Z\nSYM Class Z\nSYM ObjectProperty r\n", ""), (0, "", "")
    ]


def test_a_definer_head_hides_an_outer_plain_parameter_its_run_leaves_unbound(tmp_path, capsys):
    # L reads D's head `x`, not A's plain `x`, though D[empty] binds no `x`
    source = (
        "ontology A [Individual: x] =\n"
        "  let\n"
        "    ontology D [empty] =\n"
        "      let ontology L [Individual: r] = { Individual: r DifferentFrom: x } in L[k2]\n"
        "    ontology D [Individual: x :: xs] = { Individual: x }\n"
        "  in D[empty]\n"
        "ontology U = A[a]\n"
    )
    error = (1, "", f"F:4:40: error: {_NOT_BOUND}\n")
    assert _cli(tmp_path, capsys, source, "U") == [error, error]


def test_a_run_holds_only_what_its_own_definition_binds(monkeypatch):
    """Expanding the corpus, and ValSet and GradedRelsSub over 100 items:
    each run binds only names whose bases its own definition's parameters
    name; a local reads what its definer binds from the definer's run."""
    import godp.instantiate as engine

    listed = ", ".join(f"v{i}" for i in range(100))
    lib = lib_of(
        "".join(p.read_text(encoding="utf-8") for p in corpus_paths())
        + f"ontology A = ValSet[Val; {listed}; greater[Val]]\n"
        + f"ontology C = GradedRelsSub[p; S; T; Val; {listed}]\n"
    )
    running, runs = [], []
    instantiate, bindings = engine._instantiate, engine.Bindings

    def tracked(ctx, target, *rest):
        running.append(target)
        try:
            return instantiate(ctx, target, *rest)
        finally:
            running.pop()

    def made(*fields):
        run = bindings(*fields)
        runs.append((running[-1], run))
        return run

    monkeypatch.setattr(engine, "_instantiate", tracked)
    monkeypatch.setattr(engine, "Bindings", made)
    for target in sorted(lib.zero_param_names()):
        expand_named(lib, target)
    monkeypatch.undo()
    locals_ = [run for d, run in runs if "::" in d.qual and run.name_map]
    assert len(runs) > 500 and len(locals_) > 200
    for d, run in runs:
        named = {
            b for c in d.clauses for p in c.params
            for b in (p.shape.heads if p.is_list else [b for s in p.shape.signature for b in s.name.bases()])
        }
        assert all(set(n.bases()) <= named for n in run.name_map), (d.qual, run.name_map)


@pytest.mark.parametrize("local, calls, out", [
    # `rel[x]` is L's own symbol, bound whole: its part `x`, D's head, is not read
    ("L [ObjectProperty: rel[x]] = { ObjectProperty: rel[x] Domain: C }", ("L[k0]", "L[k1]"),
     "AX Domain k1 C\nSYM Class C\nSYM ObjectProperty k1\n"),
    # a fit binds D's head `x` in L's run, where D's run binds none: it reads no head
    ("L [Individual: x] = { Individual: x Types: C }", ("L[{ Individual: k0 }]", "L[{ Individual: k1 } fit x |-> k2]"),
     "AX ClassAssertion C k2\nSYM Class C\nSYM Individual k1\nSYM Individual k2\n"),
])
def test_a_head_the_running_clause_does_not_bind_is_an_error_only_where_it_is_read(tmp_path, capsys, local, calls, out):
    source = (
        f"ontology D [Individual: x :: xs] = let ontology {local} in {calls[0]}\n"
        f"ontology D [empty] = {calls[1]}\n"
        "ontology U = D[empty]\n"
    )
    assert _cli(tmp_path, capsys, source, "U") == [(0, out, ""), (0, "", "")]
