from __future__ import annotations

import concurrent.futures
import copy
import dataclasses
import inspect
import itertools
import pathlib
import pickle
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from godp.core import (
    EMPTY_ONTOLOGY,
    Axiom,
    ClassAssertion,
    DifferentIndividuals,
    Domain,
    EquivalentToUnion,
    FittingMorphism,
    InverseOf,
    NameTerm,
    Range,
    Reflexive,
    SubPropertyOf,
    Symbol,
    SymbolKind,
    Transitive,
    make_ontology,
    name,
    union_flat,
)
from godp.diagnostics import KindClash
from godp.emit import emit_struct_dump, stratify
from godp.instantiate import Bindings, elide_optional, expand_named, substitute_name
from godp.parser import parse_frames
from godp.record import Record, replace

from conftest import ROOT, lib_of

OP = SymbolKind.OBJECT_PROPERTY
CLS = SymbolKind.CLASS
IND = SymbolKind.INDIVIDUAL


def transitive_relation_body(prop="r", cls="C"):
    p, c = name(prop), name(cls)
    return make_ontology(
        [Symbol(p, OP), Symbol(c, CLS)],
        [Transitive(p), Domain(p, c), Range(p, c)],
    )


def validate_closure(o) -> bool:
    """Test oracle: every axiom's symbols are in the signature with matching kinds."""
    have = {(s.name, s.kind) for s in o.signature}
    return all((n, k) in have for a in o.axioms for n, k in a.refs())


# -- interned names, and symbols as pairs -----------------------------------

def test_a_name_is_one_object_however_it_is_built():
    n = name("p", "x", name("q", "y"))
    frame = parse_frames("ObjectProperty: p[x, q[y]]")[0]
    assert frame.name is n
    assert NameTerm("p", (NameTerm("x"), NameTerm("q", (NameTerm("y"),)))) is n
    assert substitute_name(name("p", "z", name("q", "y")), Bindings({name("z"): name("x")})) is n
    assert substitute_name(name("r", "x", name("q", "y")), Bindings({name("r"): name("p")})) is n
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(n, protocol)) is n
    assert copy.copy(n) is n and copy.deepcopy(n) is n
    assert copy.deepcopy([n, (n, n)])[1][0] is n
    assert n != name("p", "x", name("q", "z")) and n != "p[x,q[y]]"
    # equality and hash are the C-level identity ones; a symbol's are the
    # tuple's, over its interned name and its kind
    assert NameTerm.__eq__ is object.__eq__ and NameTerm.__hash__ is object.__hash__
    assert Symbol.__eq__ is tuple.__eq__ and Symbol.__hash__ is tuple.__hash__
    assert SymbolKind.__hash__ is object.__hash__


def test_a_symbol_is_its_name_and_kind_pair():
    s = Symbol(name("p", "x"), OP)
    built = Symbol(NameTerm("p", (NameTerm("x"),)), SymbolKind("ObjectProperty"))
    assert built == s and hash(built) == hash(s) and built.name is s.name
    assert s == (name("p", "x"), OP) and hash(s) == hash((name("p", "x"), OP))
    assert Symbol(name("p", "x"), CLS) != s
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(s, protocol))
        assert type(back) is Symbol and back == s and back.name is s.name
    for copied in (copy.copy(s), copy.deepcopy(s), copy.deepcopy([s, (s, s)])[1][0]):
        assert type(copied) is Symbol and copied == s and copied.name is s.name
    assert make_ontology([], [Transitive(name("p", "x"))]).signature == {s}
    assert type(next(iter(make_ontology([], [Transitive(name("p", "x"))]).signature))) is Symbol


def test_every_corpus_target_holds_its_signature_as_its_kinds_items(corpus_lib):
    """A symbol is the `(name, kind)` item of a `kinds` map that it names:
    the signature is the set of those items, the items rebuild the ontology,
    and a symbol keeps its interned name through pickle and deepcopy."""
    targets = sorted(corpus_lib.zero_param_names())
    assert len(targets) == 10
    for target in targets:
        o = expand_named(corpus_lib, target)
        assert o.signature == set(o.kinds.items()), target
        assert make_ontology(o.kinds.items(), o.axioms) == o, target
        for n, k in o.kinds.items():
            s = Symbol(n, k)
            assert s == (n, k) and hash(s) == hash((n, k))
            back = pickle.loads(pickle.dumps(s)), copy.deepcopy(s)
            assert back == (s, s) and back[0].name is n and back[1].name is n


@pytest.mark.parametrize("value, attr", [(name("p", "x"), "base"), (name("p"), "args"),
                                         (Symbol(name("p"), OP), "name"), (Symbol(name("p"), OP), "kind")])
def test_names_and_symbols_are_immutable(value, attr):
    before = getattr(value, attr)
    with pytest.raises(AttributeError):
        setattr(value, attr, before)
    with pytest.raises(AttributeError):
        delattr(value, attr)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, attr) is before


def test_threads_building_the_same_names_get_the_same_objects():
    tag = "race"  # bases no other test builds, so each thread races to intern them first
    start = threading.Barrier(8, timeout=60)

    def build(_):
        start.wait()
        terms = [name(f"{tag}{i % 50}", name(f"{tag}x{i}", "y")) for i in range(1000)]
        return terms, [Symbol(t, IND) for t in terms]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            results = [f.result(timeout=60) for f in [pool.submit(build, i) for i in range(8)]]
    finally:
        sys.setswitchinterval(interval)
    terms, symbols = results[0]
    assert len(set(terms)) == 1000 and len(set(symbols)) == 1000
    for other_terms, other_symbols in results[1:]:
        assert all(a is b and a.args[0] is b.args[0] for a, b in zip(terms, other_terms))
        assert all(a == b and a.name is b.name for a, b in zip(symbols, other_symbols))


# -- union -------------------------------------------------------------------

def test_union_of_two_copies_is_one_copy():
    o = transitive_relation_body("isAncestorOf", "Person")
    assert union_flat(o, o) == o


def test_union_with_empty_is_identity():
    o = transitive_relation_body()
    assert union_flat(o, EMPTY_ONTOLOGY) == o
    assert union_flat(EMPTY_ONTOLOGY, o) == o


def test_union_kind_clash():
    a = make_ontology([Symbol(name("C"), CLS)], [])
    b = make_ontology([Symbol(name("C"), OP)], [])
    with pytest.raises(KindClash):
        union_flat(a, b)


def _clash_message(build) -> str:
    with pytest.raises(KindClash) as e:
        build()
    return e.value.message


def test_kind_clash_message_names_kinds_in_kind_order():
    cls, op = Symbol(name("C"), CLS), Symbol(name("C"), OP)
    a, b = make_ontology([cls], []), make_ontology([op], [])
    expected = "kind clash for 'C': Class vs ObjectProperty"
    assert _clash_message(lambda: union_flat(a, b)) == expected
    assert _clash_message(lambda: union_flat(b, a)) == expected
    assert _clash_message(lambda: make_ontology([cls, op], [])) == expected
    assert _clash_message(lambda: make_ontology([op, cls], [])) == expected


def test_kind_clash_message_with_several_clashes_is_order_independent():
    symbols = [Symbol(name("D"), k) for k in (IND, OP, CLS)] + [Symbol(name("C"), IND), Symbol(name("C"), OP)]
    expected = "kind clash for 'C': ObjectProperty vs Individual"
    for order in itertools.permutations(symbols):
        assert _clash_message(lambda: make_ontology(order, [])) == expected


# -- fitting morphisms, and fits that merge names -------------------------------

def test_morphism_kind_preserving():
    with pytest.raises(KindClash):
        FittingMorphism.of({Symbol(name("p"), OP): Symbol(name("C"), CLS)})


_MERGING = """\
ontology P [Individual: a; Individual: b] = { Individual: a DifferentFrom: b }
ontology U = P[c; c]
ontology V = P[c; d]
ontology Q [Individual: a; Individual: b] = { Class: C Individual: a Types: C DifferentFrom: b }
ontology T = Q[c; c]
ontology R [ObjectProperty: p; ObjectProperty: q] =
  { ObjectProperty: p Characteristics: Transitive ObjectProperty: q Characteristics: Transitive }
ontology W = R[r; r]
"""


def test_fits_that_merge_two_properties_dedupe_their_axioms():
    out = expand_named(lib_of(_MERGING), "W")
    assert len(out.kinds) == 1
    assert out.axioms == frozenset({Transitive(name("r"))})


def test_a_fit_that_merges_the_members_of_an_nary_axiom_drops_it():
    lib, c, d = lib_of(_MERGING), name("c"), name("d")
    out = expand_named(lib, "U")
    assert emit_struct_dump(out) == "SYM Individual c\n"
    assert out == make_ontology([Symbol(c, IND)], [DifferentIndividuals((c, c))])
    assert expand_named(lib, "V") == make_ontology([], [DifferentIndividuals((c, d))])
    assert expand_named(lib, "T").axioms == frozenset({ClassAssertion(name("C"), c)})


_FITS = """\
ontology TR [ObjectProperty: r; Class: C] = { ObjectProperty: r Domain: C Range: C Characteristics: Transitive }
ontology A = TR[isAncestorOf; Person]
ontology I = TR[r; C]
ontology Q [ObjectProperty: q; Class: D] = TR[q; D]
ontology S = Q[s; D]
ontology S2 = TR[s; D]
"""


def test_a_fit_renames_the_body():
    out = expand_named(lib_of(_FITS), "A")
    assert out == transitive_relation_body("isAncestorOf", "Person")


def test_a_fit_of_each_parameter_to_itself_is_the_body():
    assert expand_named(lib_of(_FITS), "I") == transitive_relation_body()


def test_fits_compose():
    """TR fitted by (r ↦ q, C ↦ D), then by (q ↦ s, D ↦ D), is TR fitted by the composite."""
    lib = lib_of(_FITS)
    assert expand_named(lib, "S") == expand_named(lib, "S2") == transitive_relation_body("s", "D")


# -- elision: one rule, `core._dead_in` -------------------------------------------

def valset_like_body():
    """Hand-built stand-in for the ordered value-set body over greater[Val]."""
    gt, val = name("greater", "Val"), name("Val")
    v0, v1 = name("v0"), name("v1")
    return make_ontology(
        [],
        [
            Transitive(gt), Domain(gt, val), Range(gt, val),
            ClassAssertion(val, v0), ClassAssertion(val, v1),
            DifferentIndividuals((v0, v1)),
            EquivalentToUnion(val, (v0, v1)),
        ],
    )


_ORDER = frozenset({
    Transitive(name("greater", "Val")),
    Domain(name("greater", "Val"), name("Val")),
    Range(name("greater", "Val"), name("Val")),
})


@pytest.mark.parametrize("dead, elided", [
    pytest.param(lambda o: {Symbol(name("greater", "Val"), OP)}, lambda o: _ORDER, id="order_relation"),
    pytest.param(lambda o: set(), lambda o: frozenset(), id="empty_dead_set"),
    pytest.param(lambda o: o.signature, lambda o: o.axioms, id="whole_signature"),
])
def test_elision_drops_exactly_the_axioms_that_mention_a_dead_name(dead, elided):
    o = valset_like_body()
    out = elide_optional(o, dead(o))
    assert o.axioms - out.axioms == elided(o)
    assert out.axioms <= o.axioms
    assert validate_closure(out)


# -- canonicalization ----------------------------------------------------------

def test_canonicalize_sorts_different_individuals():
    a = DifferentIndividuals((name("b"), name("a")))
    assert a.canonical() == DifferentIndividuals((name("a"), name("b")))


def test_canonicalize_is_identity_on_directional_axioms():
    for a in (
        Reflexive(name("p")),
        Transitive(name("p")),
        InverseOf(name("q"), name("p")),
        Domain(name("p"), name("C")),
        Range(name("p"), name("C")),
        SubPropertyOf(name("b"), name("a")),
        ClassAssertion(name("C"), name("i")),
    ):
        assert a.canonical() is a


# -- the axiom model: operand kinds, renaming and dump fields -------------------

def _upper(n):
    return name(n.base.upper(), *n.args)


P, Q, C, I, J, K = (name(n) for n in ("p", "q", "C", "i", "j", "k"))

# axiom, its refs(), its dump_fields(), and its rename with _upper
_AXIOM_MODEL = [
    (Reflexive(P), ((P, OP),), ("Reflexive", "p"), Reflexive(name("P"))),
    (Transitive(P), ((P, OP),), ("Transitive", "p"), Transitive(name("P"))),
    (InverseOf(P, Q), ((P, OP), (Q, OP)), ("InverseOf", "p", "q"), InverseOf(name("P"), name("Q"))),
    (Domain(P, C), ((P, OP), (C, CLS)), ("Domain", "p", "C"), Domain(name("P"), C)),
    (Range(P, C), ((P, OP), (C, CLS)), ("Range", "p", "C"), Range(name("P"), C)),
    (SubPropertyOf(Q, P), ((Q, OP), (P, OP)), ("SubPropertyOf", "q", "p"), SubPropertyOf(name("Q"), name("P"))),
    (ClassAssertion(C, I), ((C, CLS), (I, IND)), ("ClassAssertion", "C", "i"), ClassAssertion(C, name("I"))),
    (DifferentIndividuals((I, J, K)), ((I, IND), (J, IND), (K, IND)), ("DifferentIndividuals", "i", "j", "k"),
     DifferentIndividuals((name("I"), name("J"), name("K")))),
    (EquivalentToUnion(C, (I, J)), ((C, CLS), (I, IND), (J, IND)), ("EquivalentToUnion", "C", "i", "j"),
     EquivalentToUnion(C, (name("I"), name("J")))),
]


@pytest.mark.parametrize("axiom, refs, fields, renamed", _AXIOM_MODEL)
def test_axiom_refs_dump_fields_and_rename(axiom, refs, fields, renamed):
    assert axiom.refs() == refs
    assert axiom.dump_fields() == fields
    assert axiom.sort_key() == fields
    out = axiom.rename(_upper)
    assert type(out) is type(axiom)
    assert out == renamed
    assert repr(out) == repr(renamed)


def test_nary_rename_that_merges_members_sorts_them_and_drops_the_repeat():
    merge = {name("z"): name("a"), name("m"): name("a")}

    def fn(n):
        return merge.get(n, n)

    di = DifferentIndividuals((name("b"), name("m"), name("z")))
    assert di.rename(fn) == DifferentIndividuals((name("a"), name("b")))
    eq = EquivalentToUnion(name("z"), (name("z"), name("c"), name("m")))
    assert eq.rename(fn) == EquivalentToUnion(name("a"), (name("a"), name("c")))


_SAME_FIELDS_OTHER_TYPE = [
    (Domain(P, C), Range(P, C)),
    (Transitive(P), Reflexive(P)),
    (SubPropertyOf(P, Q), InverseOf(P, Q)),
]


@pytest.mark.parametrize("a, b", _SAME_FIELDS_OTHER_TYPE)
def test_axiom_equality_and_hash_see_the_type(a, b):
    assert a != b
    assert len(frozenset({a, b})) == 2
    assert a in frozenset({a}) and b not in frozenset({a})
    twin = type(a)(*(n for n, _ in a.refs()))
    assert twin == a and hash(twin) == hash(a)


def _subclasses(cls: type) -> list[type]:
    return [c for sub in cls.__subclasses__() for c in (sub, *_subclasses(sub))]


_RECORDS = sorted(set(_subclasses(Record)), key=lambda c: (c.__module__, c.__qualname__))
# the fields left out of == and hash: source positions, derived indexes and
# links, such as a library's table of every definition by qual and a compiled
# block's link to the names its body sees; but the positions of a diagnostic
# and of a resolved call or definition are part of it
_NOT_THE_VALUE = {"pos", "end", "memo", "quals", "parent", "scope"}
_PART_OF_THE_VALUE = {("Diagnostic", "pos"), ("Call", "pos"), ("PatternDef", "pos")}


def _fields_of(cls: type, tag: str = "") -> tuple:
    """Values to build a `cls` from: a distinct string per field, except what
    a constructor checks."""
    if cls is FittingMorphism:
        return ((((Symbol(C, CLS), Symbol(name("D"), CLS)),) if not tag else ()),)
    return tuple(f"{cls.__name__}.{f}{tag}" for f in cls._fields)


def _defaults_of(cls: type) -> dict:
    """The fields that a call may leave out, and their defaults: those after
    the last field without one (a subclass that adds a required field after
    its base's defaulted one makes that one required)."""
    n = len(cls._fields)
    while n and cls._fields[n - 1] in cls._defaults:
        n -= 1
    return {f: cls._defaults[f] for f in cls._fields[n:]}


# the fields declared `None` whose own `__init__` makes a new map for each
# instance that leaves them out
_MADE_PER_INSTANCE = {("Bindings", "name_map"), ("Bindings", "list_map"), ("Library", "memo")}


@pytest.mark.parametrize("cls", _RECORDS, ids=lambda c: c.__qualname__)
def test_every_record_class_is_a_value_of_its_type(cls):
    values = _fields_of(cls)
    a, frozen = cls(*values), cls.__hash__ is not None
    assert a == cls(*values) and not a != cls(*values)
    assert cls(**dict(zip(cls._fields, values))) == a  # every field by keyword
    defaults = _defaults_of(cls)
    required = {f: v for f, v in zip(cls._fields, values) if f not in defaults}
    bare, by_name = cls(*required.values()), cls(**required)  # every defaulted field left out
    for f, default in defaults.items():
        if (cls.__name__, f) in _MADE_PER_INSTANCE:
            assert getattr(bare, f) == {} and getattr(bare, f) is not getattr(by_name, f)
        else:
            assert getattr(bare, f) is default and getattr(by_name, f) is default
    if frozen:
        assert hash(a) == hash(cls(*values))
    else:  # as a mutable dataclass
        with pytest.raises(TypeError):
            hash(a)
    assert copy.copy(a) == a and copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a
    twin = type("Twin", (cls,), {})(*values)  # the same fields, another type
    assert a != twin and twin != a
    assert not frozen or len({a, twin}) == 2
    for f, value in zip(cls._fields, _fields_of(cls, "'")):
        changed = replace(a, **{f: value})
        assert getattr(changed, f) == value
        assert all(getattr(changed, g) is getattr(a, g) for g in cls._fields if g != f)
        left_out = f in _NOT_THE_VALUE and (cls.__name__, f) not in _PART_OF_THE_VALUE
        assert (changed == a) is left_out
        assert not (frozen and left_out) or hash(changed) == hash(a)
    for f, value in zip(cls._fields, _fields_of(cls, "'")):
        if frozen:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(a, f, value)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(a, f)
        else:
            setattr(a, f, value)
            assert getattr(a, f) == value


def test_a_record_subclass_keeps_the_mutability_of_its_record_base():
    # a twin of a mutable record is mutable and unhashable, and a twin of a
    # frozen one frozen and hashable, without restating `frozen`
    from godp.elaborate import Library, ListArg, PatternDef
    from godp.instantiate import Bindings

    for cls in (PatternDef, Library, Bindings):
        values = _fields_of(cls)
        twin = type("Twin", (cls,), {})(*values)
        for f, value in zip(cls._fields, _fields_of(cls, "'")):
            setattr(twin, f, value)
            assert getattr(twin, f) == value
        with pytest.raises(TypeError):
            hash(twin)
    twin = type("Twin", (ListArg,), {})((C,), None)
    assert hash(twin) == hash(type(twin)((C,), None))
    with pytest.raises(dataclasses.FrozenInstanceError):
        twin.items = ()
    # a direct subclass of `Record` is frozen unless it says otherwise
    point = type("Point", (Record,), {"__annotations__": {"x": int}})(1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        point.x = 2
    assert hash(point) == hash(type(point)(1))


def test_a_record_is_built_from_its_fields_only():
    # Python binds the arguments, with the constructor named after its class
    from godp.syntax import RefExpr

    for build, message in (
        (lambda: RefExpr(), "RefExpr() missing 1 required positional argument: 'name'"),
        (lambda: RefExpr("a", None, 3), "RefExpr() takes from 2 to 3 positional arguments but 4 were given"),
        (lambda: RefExpr("a", bogus=1), "RefExpr() got an unexpected keyword argument 'bogus'"),
        (lambda: RefExpr("a", name="b"), "RefExpr() got multiple values for argument 'name'"),
        (lambda: replace(RefExpr("a"), bogus=1), "RefExpr has no field 'bogus'"),
    ):
        with pytest.raises(TypeError) as exc:
            build()
        assert str(exc.value) == message


@pytest.mark.parametrize("cls", _RECORDS, ids=lambda c: c.__qualname__)
def test_a_record_constructor_is_godp_source_and_takes_exactly_its_fields(cls):
    # made from a template in godp's own files, not compiled from a string
    # at import (as `dataclasses` does, at a cost to every process)
    if not cls._fields:
        assert cls.__init__ is object.__init__
        return
    assert ROOT / "src" / "godp" in pathlib.Path(cls.__init__.__code__.co_filename).resolve().parents
    params = inspect.signature(cls).parameters
    assert tuple(params) == cls._fields
    assert {p.kind for p in params.values()} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}
    defaults = _defaults_of(cls)
    assert [f for f, p in params.items() if p.default is not p.empty] == list(defaults)
    assert all(params[f].default is d for f, d in defaults.items())


def test_a_defaulted_base_field_before_a_required_field_is_required():
    # a default holds only after the last field without one, as Python's own
    # defaults do: the subclass's `tag` makes `ListArg`'s defaulted `pos` required
    from godp.elaborate import ListArg

    tagged = type("Tagged", (ListArg,), {"__annotations__": {"tag": str}})
    assert tagged._fields == ("items", "pos", "tag") and tagged._defaults == {"pos": None}
    assert _defaults_of(tagged) == {}
    params = inspect.signature(tagged).parameters
    assert tuple(params) == tagged._fields and all(p.default is p.empty for p in params.values())
    with pytest.raises(TypeError) as exc:
        tagged((C,), tag="t")
    assert str(exc.value) == "Tagged() missing 1 required positional argument: 'pos'"
    assert tagged((C,), None, "t") == tagged(items=(C,), pos=None, tag="t")
    assert ListArg((C,)).pos is None  # the base keeps its default


def test_a_record_class_whose_field_count_has_no_template_is_refused_when_it_is_made():
    fields = {f"f{i}": int for i in range(8)}
    with pytest.raises(TypeError) as exc:
        type("Eight", (Record,), {"__annotations__": fields})
    assert str(exc.value) == "Eight has 8 fields, which no constructor template takes: define Eight.__init__"

    def __init__(self, *values):
        for f, value in zip(self._fields, values):
            object.__setattr__(self, f, value)

    eight = type("Eight", (Record,), {"__annotations__": fields, "__init__": __init__})
    assert eight(*range(8)) == eight(*range(8)) != eight(*range(1, 9))


# -- hypothesis properties -------------------------------------------------------

_classes = st.sampled_from([name("C1"), name("C2")])
_props = st.sampled_from([name("p1"), name("p2"), name("p3")])
_inds = st.sampled_from([name("i1"), name("i2"), name("i3")])

_axioms = st.one_of(
    st.builds(Transitive, _props),
    st.builds(Reflexive, _props),
    st.builds(Domain, _props, _classes),
    st.builds(Range, _props, _classes),
    st.builds(SubPropertyOf, _props, _props),
    st.builds(InverseOf, _props, _props),
    st.builds(ClassAssertion, _classes, _inds),
    st.builds(DifferentIndividuals, st.lists(_inds, min_size=2, max_size=4).map(tuple)),
    st.builds(EquivalentToUnion, _classes, st.lists(_inds, min_size=1, max_size=4).map(tuple)),
)

_ontologies = st.lists(_axioms, max_size=6).map(lambda axs: make_ontology([], axs))


@settings(max_examples=60)
@given(_axioms)
def test_canonicalize_idempotent(a):
    assert Axiom.canonical(Axiom.canonical(a)) == Axiom.canonical(a)
    assert a.canonical().canonical() == a.canonical()
    assert a.rename(lambda n: n) == a.canonical()


@settings(max_examples=60)
@given(_ontologies, _ontologies, _ontologies)
def test_union_properties(a, b, c):
    assert union_flat(a, a) == a
    assert union_flat(a, b) == union_flat(b, a)
    assert union_flat(union_flat(a, b), c) == union_flat(a, union_flat(b, c))


def _wrapped(o):
    """`o` with each name `n` wrapped as `w[n]`, which `stratify` writes `w_n`."""
    return make_ontology([], [a.rename(lambda n: name("w", n)) for a in o.axioms])


@settings(max_examples=60)
@given(_ontologies)
def test_signature_closure_after_union_and_rename(o):
    assert validate_closure(o)
    assert validate_closure(union_flat(o, transitive_relation_body("p1", "C1")))
    assert validate_closure(stratify(_wrapped(o)))


@settings(max_examples=60)
@given(_ontologies)
def test_a_renaming_never_adds_axioms_and_stratify_keeps_their_count(o):
    # collapse everything onto one name per kind
    one = {CLS: name("C1"), OP: name("p1"), IND: name("i1")}
    collapsed = make_ontology([], [a.rename(lambda n: one[o.kinds[n]]) for a in o.axioms])
    assert len(collapsed.axioms) <= len(o.axioms)
    # injective, since a clash is an error: no two axioms merge and none becomes vacuous
    out = stratify(_wrapped(o))
    assert {n.render() for n in out.kinds} == {f"w_{n.render()}" for n in o.kinds}
    assert len(out.axioms) == len(o.axioms)
