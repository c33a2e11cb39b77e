"""Generative and environmental robustness checks.

The parser must be total (parse or raise a positioned library error, never
anything else, even on input nested far past its bound), and so must
`godp check` on generated libraries; pretty-printed ASTs
must reparse to themselves; emitted Manchester text must read back as the
ontology it came from; a definition named like a parameter must change no
corpus expansion; CLI output must be byte-identical across processes
regardless of hash randomization; expansion must be safe to run from several
threads at once and leave the library as it was; a flat ontology's `kind_of` must agree with a linear scan of
its signature.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import dataclasses
import io
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import godp
from godp import (
    elide_optional,
    emit_manchester,
    emit_struct_dump,
    expand_named,
    parse_frames,
    parse_library,
    pretty_print,
    stratify,
)
from godp.blocks import ListVar, compile_block, fill_block
from godp.core import (
    Accumulator,
    ClassAssertion,
    DifferentIndividuals,
    Domain,
    EquivalentToUnion,
    FlatOntology,
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
from godp.diagnostics import GodpError, KindClash, SourcePos, StratificationClash, UnknownReference
from godp.elaborate import build_block
from godp.instantiate import Bindings
from godp.parser import FIELD_KEYWORDS, KEYWORDS, KIND_KEYWORDS, MAX_NESTING
from godp.syntax import (
    ArgAst,
    BlockExpr,
    ClassFrame,
    DifferentIndividualsFrame,
    EmptyArg,
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

from godp.cli import main
from godp.record import replace

from conftest import ERRORS, corpus_paths, lib_of, load_corpus_library, load_library, unresolved
from test_core import _axioms
from test_emit import assert_flat_emission_is_stratified_emission

RESERVED = KEYWORDS | set(KIND_KEYWORDS) | FIELD_KEYWORDS | {"DifferentIndividuals", "Transitive", "Reflexive"}

_idents = st.sampled_from(["a", "b", "rel", "x_0", "v9", "0g", "gt"])
_upper_idents = st.sampled_from(["A", "B", "G", "Pat", "Val2", "X_o"])

_name_terms = st.recursive(
    st.builds(NameTerm, _idents),
    lambda kids: st.builds(
        lambda b, args: NameTerm(b, tuple(args)),
        _idents,
        st.lists(kids, min_size=1, max_size=2),
    ),
    max_leaves=3,
)

_names1 = st.lists(_name_terms, min_size=1, max_size=2).map(tuple)

_frames = st.one_of(
    st.builds(ClassFrame, _name_terms, st.none() | _names1),
    st.builds(
        ObjectPropertyFrame,
        _name_terms,
        _names1 | st.just(()),
        _names1 | st.just(()),
        st.sampled_from([(), ("Transitive",), ("Reflexive",), ("Transitive", "Reflexive")]),
        _names1 | st.just(()),
        _names1 | st.just(()),
    ),
    st.builds(IndividualFrame, _name_terms, _names1 | st.just(()), _names1 | st.just(())),
    st.builds(DifferentIndividualsFrame, _names1),
)

_blocks = st.builds(lambda fs: BlockExpr(tuple(fs)), st.lists(_frames, max_size=3))

# only parser-producible argument shapes: a lone name parses as RefExpr, a
# lone-item comma list cannot be told apart from it, so lists carry >=2 items
# or an explicit tail
_list_args = st.one_of(
    st.builds(lambda items: ListArgAst(tuple(items), None), st.lists(_name_terms, min_size=2, max_size=3)),
    st.builds(lambda items, tail: ListArgAst(tuple(items), tail), st.lists(_name_terms, min_size=1, max_size=2), _name_terms),
)

_fit_maps = st.lists(st.tuples(_name_terms, _name_terms), max_size=2).map(tuple)

_arg_values = st.one_of(
    st.just(MissingArg()),
    st.just(EmptyArg()),
    _list_args,
    st.builds(RefExpr, _idents),
    _blocks,
)

_args = st.builds(
    lambda v, fits: ArgAst(v, () if isinstance(v, MissingArg) else fits),
    _arg_values,
    _fit_maps,
)

_terms = st.one_of(
    _blocks,
    st.builds(RefExpr, _upper_idents),
    st.builds(lambda n, a: InstExpr(n, tuple(a)), _upper_idents, st.lists(_args, min_size=1, max_size=3)),
)

_exprs = st.one_of(
    _terms,
    st.builds(lambda ts: ThenExpr(tuple(ts)), st.lists(_terms, min_size=2, max_size=3)),
)

_params = st.one_of(
    st.builds(
        lambda opt, fs: ParamClauseAst(opt, FramesParam(tuple(fs))),
        st.booleans(),
        st.lists(_frames, min_size=1, max_size=2),
    ),
    st.builds(
        lambda opt, kind, h, h2, t: ParamClauseAst(opt, ListTemplate(kind, (h,) if h2 is None else (h, h2), t)),
        st.booleans(),
        st.sampled_from(list(SymbolKind)),
        _idents,
        st.none() | _idents,
        _idents,
    ),
    st.builds(lambda opt: ParamClauseAst(opt, ListTemplate(None, (), None)), st.booleans()),
)

_defs = st.builds(
    lambda n, ps, body: PatternDefAst(n, tuple(ps), (), (), body), _upper_idents, st.lists(_params, max_size=3), _exprs
)


@st.composite
def _libraries(draw):
    """Up to three definitions, each importing some of the library's own
    0-parameter definitions, never itself."""
    defs = draw(st.lists(_defs, max_size=3))
    closed = sorted({d.name for d in defs if not d.params})
    out = []
    for d in defs:
        others = [n for n in closed if n != d.name]
        given = draw(st.lists(st.sampled_from(others), max_size=2, unique=True)) if others else []
        out.append(replace(d, given=tuple(given)))
    return LibraryAst(tuple(out))


@settings(max_examples=60, deadline=None)
@given(_libraries())
def test_pretty_print_reparses_to_same_ast(ast):
    assert parse_library(pretty_print(ast), "<gen>") == ast


@settings(max_examples=100, deadline=None)
@given(_libraries())
def test_check_is_total_on_generated_libraries(ast):
    with tempfile.TemporaryDirectory() as tmp:
        f = os.path.join(tmp, "gen.gdp")
        with open(f, "w", encoding="utf-8") as out:
            out.write(pretty_print(ast))
        diagnostic = re.compile(re.escape(f) + r":\d+:\d+: error: ")
        for depth in ([], ["--depth", "50"]):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(["check", *depth, f])
            assert code in (0, 1, 2)
            assert stdout.getvalue() == ""
            lines = stderr.getvalue().splitlines()
            assert (code == 0) == (lines == [])
            assert all(diagnostic.match(line) for line in lines), lines
        try:
            lib = load_library([pathlib.Path(f)])
        except GodpError:
            return
    assert unresolved(lib) == []


def test_the_build_rate_script_draws_the_same_libraries_on_every_run():
    # tests/strategy_rate.py, on a small draw: one outcome per example, and
    # its fixed seed draws the same examples again
    import strategy_rate

    drawn, outcomes = strategy_rate.rate(20)
    assert drawn == sum(outcomes.values()) > 0
    assert strategy_rate.rate(20) == (drawn, outcomes)


@settings(max_examples=150, deadline=None)
@given(st.lists(_frames, max_size=5), st.lists(_axioms, max_size=4))
@example([], [EquivalentToUnion(name("C"), ())])
@example([], [DifferentIndividuals((name("a"),))])
def test_emitted_manchester_reads_back_as_the_same_ontology(frames, axioms):
    try:
        o = stratify(union_flat(build_block(frames), make_ontology([], axioms)))
    except (KindClash, StratificationClash):
        return  # frames that build no flat ontology have nothing to emit
    text = emit_manchester(o)
    back = build_block(parse_frames(text, "<emitted>") if text else ())
    assert back == o
    assert emit_manchester(back) == text


@settings(max_examples=150, deadline=None)
@given(st.lists(_frames, max_size=5), st.lists(_axioms, max_size=4))
def test_flat_emission_of_built_frames_is_emission_of_their_stratified_copy(frames, axioms):
    try:
        o = union_flat(build_block(frames), make_ontology([], axioms))
    except KindClash:
        return  # frames that build no flat ontology have nothing to emit
    assert_flat_emission_is_stratified_emission(o)


def _substituted(n: NameTerm, name_map: dict) -> NameTerm:
    """`n` with the names `name_map` binds substituted: an exact binding of
    the whole term first, else its base's image with its arguments, each
    substituted, appended."""
    if (exact := name_map.get(n)) is not None:
        return exact
    base = name_map.get(NameTerm(n.base), NameTerm(n.base))
    return NameTerm(base.base, base.args + tuple(_substituted(a, name_map) for a in n.args))


def _frames_built_by_substitution(frames, run: Bindings, tails: set[str]):
    """The oracle for block fills: each name substituted by `_substituted`,
    each tail in a comma list spliced, then `make_ontology`, a kind clash at
    the first frame: a direct builder that walks the frames once per run. A
    name that is or has a tail among its parts is an error of the block."""

    def one(n):
        for b in n.bases():
            if b in tails:
                raise UnknownReference(f"'{b}' is a list-parameter tail, not a name")
        return _substituted(n, run.name_map)

    many = lambda ns: [
        m for n in ns for m in (run.list_map[n.base][0] if n.base in tails and not n.args else [one(n)])
    ]
    symbols, axioms = [], []
    for f in frames:
        if isinstance(f, DifferentIndividualsFrame):
            axioms.append(DifferentIndividuals(tuple(many(f.items))))
            continue
        s = one(f.name)
        kinds = {ClassFrame: SymbolKind.CLASS, IndividualFrame: SymbolKind.INDIVIDUAL}
        kind = kinds.get(type(f), SymbolKind.OBJECT_PROPERTY)
        symbols.append(Symbol(s, kind))
        if isinstance(f, ClassFrame):
            axioms += [EquivalentToUnion(s, tuple(many(f.equivalent)))] if f.equivalent is not None else []
        elif isinstance(f, IndividualFrame):
            axioms += [ClassAssertion(t, s) for t in many(f.types)]
            axioms += [DifferentIndividuals((s, o)) for o in many(f.different_from)]
        else:
            axioms += [Domain(s, d) for d in many(f.domains)] + [Range(s, r) for r in many(f.ranges)]
            axioms += [Transitive(s) if c == "Transitive" else Reflexive(s) for c in f.characteristics]
            axioms += [SubPropertyOf(s, p) for p in many(f.sub_property_of)]
            axioms += [InverseOf(s, i) for i in many(f.inverse_of)]
    try:
        return make_ontology(symbols, axioms)
    except GodpError as e:
        e.ensure_pos(frames[0].pos if frames else None)
        raise


_placeholders = st.builds(lambda b, i: NameTerm(f"?{b}_0_{i}"), _idents, st.integers(0, 2))

# A block's frames and a run: its exact bindings (of compound names too) to
# names or placeholders, the items of each list tail the block names, and
# bases the block may bind that the run leaves unbound.
_block_runs = st.tuples(
    st.lists(_frames, max_size=4),
    st.dictionaries(_name_terms, _name_terms | _placeholders, max_size=4),
    st.dictionaries(_idents, st.lists(_name_terms, max_size=3).map(tuple), max_size=2),
    st.sets(_idents, max_size=2),
)


def _outcome(build):
    try:
        o = build()
    except GodpError as e:
        return type(e), e.message, e.pos
    return o, o.kinds


@settings(max_examples=200, deadline=None)
@given(_block_runs)
# a DifferentFrom self-pair, a one-item DifferentIndividuals, an EquivalentTo
# that splices an empty tail, an exact binding of a compound name
@example(([IndividualFrame(name("a"), (), (name("a"), name("b")))], {}, {}, set()))
@example(([DifferentIndividualsFrame((name("a"),))], {}, {}, set()))
@example(([ClassFrame(name("A"), (name("b"), name("xs")))], {}, {"xs": ()}, set()))
# a tail as a frame's subject, and as a part of a name in a comma list
@example(([IndividualFrame(name("xs"), (name("C"),))], {}, {"xs": ()}, set()))
@example(([IndividualFrame(name("a"), (), (name("b"), name("g", "xs")))], {}, {"xs": ()}, set()))
@example((
    [ObjectPropertyFrame(name("greater", "Val"), (name("Val"),))], {name("greater", "Val"): name("gt")}, {}, set()
))
def test_a_block_fill_is_make_ontology_over_the_substituted_frames(block_run):
    frames, name_map, lists, unbound = block_run
    frames = [replace(f, pos=SourcePos("<block>", i + 1, 1)) for i, f in enumerate(frames)]
    run = Bindings(name_map, {t: (items, SymbolKind.INDIVIDUAL) for t, items in lists.items()})
    bound = {b for n in name_map for b in n.bases()} | set(lists) | unbound
    tails = {NameTerm(t): ListVar(t, 0) for t in lists}
    expected = _outcome(lambda: _frames_built_by_substitution(frames, run, set(lists)))

    def filled():  # in the display of a run with no definer, into an accumulator of its own
        acc = Accumulator()
        fill_block(compile_block(frames, (bound,), tails), (run,), acc)
        return acc.freeze()

    assert _outcome(filled) == expected


@settings(max_examples=80, deadline=None)
@given(st.text(alphabet=st.characters(min_codepoint=9, max_codepoint=126), max_size=120))
def test_parser_is_total_on_arbitrary_text(text):
    try:
        parse_library(text, "<fuzz>")
    except GodpError as e:
        assert e.pos is not None


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(
    ["ontology", "given", "let", "in", "then", "fit", "empty", "end",
     "Class:", "ObjectProperty:", "Individual:", "DifferentIndividuals:",
     "Domain:", "Range:", "Types:", "[", "]", "{", "}", ";", ",", "::",
     "|->", "=", "?", "A", "b", "0c", "greater[Val]"]
), max_size=25).map(" ".join))
def test_parser_is_total_on_token_soup(text):
    try:
        parse_library(text, "<soup>")
    except GodpError as e:
        assert e.pos is not None


@st.composite
def _deep_nests(draw):
    """A definition nested up to 2000 deep: instantiations, then names, or `let`s.

    Returns the text and its nesting depth; `closed` decides whether every
    opened level is closed again.
    """
    depth = draw(st.integers(0, 2000))
    closed = draw(st.booleans())
    if draw(st.booleans()):
        k = draw(st.integers(0, depth))  # levels of instantiation around the name
        inner = "g[" * (depth - k) + "x" + "]" * (depth - k) * closed
        text = "ontology Deep = " + "Wrap[" * k + "{ Class: " + inner + " }" + "]" * k * closed
    else:
        text = "ontology A = let " * depth + "ontology Z = { Class: C }" + " in Z" * depth * closed
    return text + "\n", depth


@settings(max_examples=60, deadline=None)
@given(_deep_nests())
def test_parser_is_total_on_deep_nesting(nest):
    text, depth = nest
    try:
        parse_library(text, "<deep>")
    except GodpError as e:
        assert e.pos is not None
    else:
        assert depth <= MAX_NESTING


# runs `godp` in process for each argv of RUNS and prints exit code and output
_CLI_RUNS = """
import contextlib, io, sys
from godp.cli import main
for argv in RUNS:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    sys.stdout.write(f"{argv} -> {code}\\n{out.getvalue()}{err.getvalue()}\\n")
"""

# interns every word of the corpus, plain and as an argument, as a symbol of
# each kind, in shuffled order, so that the names the runs build sit at other
# addresses than in a plain run
_INTERN_SHUFFLED = """
import pathlib, random, re
from godp.core import NameTerm, Symbol, SymbolKind
words = sorted({w for f in CORPUS for w in re.findall(r"[A-Za-z0-9_]+", pathlib.Path(f).read_text())})
random.Random(7).shuffle(words)
KEEP = [[NameTerm(w), NameTerm(w, (NameTerm(v),))] + [Symbol(NameTerm(v), k) for k in SymbolKind]
        for w, v in zip(words, reversed(words))]
"""


def test_cli_byte_identical_across_hash_seeds():
    corpus = [str(p) for p in corpus_paths()]
    src = os.path.dirname(os.path.dirname(godp.__file__))
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        r = subprocess.run(
            [sys.executable, "-m", "godp", "expand", "--target", "GradedRelsSub_Significance",
             "--format", "dump", *corpus],
            capture_output=True, env=env, text=True,
        )
        assert r.returncode == 0, r.stderr
        outs.append(r.stdout)
    assert outs[0] == outs[1]
    # names are interned and hash by identity, so set order follows object
    # addresses: interning the corpus names first, in shuffled order, must
    # not change a byte either
    runs = [["expand", "--target", "GradedRelsSub_Significance", "--format", "dump", *corpus]]
    runs += [["check", *corpus, str(e)] for e in sorted(ERRORS.glob("*.gdp"))]
    setup = f"RUNS = {runs!r}\nCORPUS = {corpus!r}\n"
    results = []
    for seed, prelude in (("1", ""), ("3", _INTERN_SHUFFLED)):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        r = subprocess.run(
            [sys.executable, "-c", setup + prelude + _CLI_RUNS], capture_output=True, env=env
        )
        assert r.returncode == 0, r.stderr
        results.append(r.stdout)
    assert results[0] == results[1]
    assert results[0].startswith(f"{runs[0]!r} -> 0\n".encode() + outs[0].encode())


def test_library_is_not_changed_by_concurrent_use():
    lib = load_corpus_library()

    def clauses(d):
        yield from d.clauses
        for loc in d.locals.values():
            yield from clauses(loc)

    every_clause = [c for d in lib.defs.values() for c in clauses(d)]
    snapshot = [repr(c) for c in every_clause]
    fields = [(c.params, c.body) for c in every_clause]

    def use(_):
        for name in sorted(lib.zero_param_names()):
            expand_named(lib, name)
        for d in lib.defs.values():
            for p in d.clauses[0].params:
                assert p.is_list or set(p.new_symbols) <= p.shape.signature
            assert all(loc.qual == f"{d.qual}::{n}" for n, loc in d.locals.items())
        return True

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(use, i) for i in range(8)]
            assert all(f.result(timeout=120) for f in futures)
    finally:
        sys.setswitchinterval(interval)
    now = [c for d in lib.defs.values() for c in clauses(d)]
    assert all(a is b for a, b in zip(now, every_clause)) and len(now) == len(every_clause)
    assert [repr(c) for c in now] == snapshot
    assert all(c.params is p and c.body is b for c, (p, b) in zip(now, fields))
    for field in ("params", "body"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(every_clause[0], field, ())


def test_concurrent_expansions_agree(corpus_lib):
    targets = sorted(corpus_lib.zero_param_names()) * 3
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda t: (t, expand_named(corpus_lib, t)), targets))
    reference = {t: expand_named(corpus_lib, t) for t in set(targets)}
    for t, o in results:
        assert o == reference[t]


def test_threads_sharing_a_fresh_memo_agree_with_a_sequential_run():
    bad = ERRORS / "depth_exceeded.gdp"

    def outcome(lib, target, depth):
        try:
            return expand_named(lib, target, depth=depth)
        except GodpError as e:
            return (type(e).__name__, e.message, e.pos)

    def every_target(lib, shift):
        names = sorted(lib.zero_param_names())
        names = names[shift:] + names[:shift]  # threads start on different targets
        return {(t, depth): outcome(lib, t, depth) for depth in (20, 10_000) for t in names}

    sequential = load_library([*corpus_paths(), bad])
    reference = every_target(sequential, 0)
    assert isinstance(reference["Broken", 20], tuple)  # the failures are compared too
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(5):  # the threads race only while the memo is cold
            shared = load_library([*corpus_paths(), bad])
            with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(every_target, shared, 3 * i) for i in range(4)]
                assert all(f.result(timeout=120) == reference for f in futures)
            assert shared.memo == sequential.memo
    finally:
        sys.setswitchinterval(interval)


# -- the name -> kind map of flat ontologies ------------------------------------

def _scanned_kind(o: FlatOntology, n: NameTerm) -> SymbolKind | None:
    """Reference for FlatOntology.kind_of: a linear scan of the signature."""
    for s in o.signature:
        if s.name == n:
            return s.kind
    return None


def _wrapped(n: NameTerm) -> NameTerm:
    return name("w", n)


_pool = [NameTerm("a"), NameTerm("b"), name("p", "a"), name("p", "b"), name("q", name("p", "a"))]
_probes = _pool + [_wrapped(n) for n in _pool] + [NameTerm("absent")]

# clash-free: each name gets one kind
_signatures = st.dictionaries(st.sampled_from(_pool), st.sampled_from(list(SymbolKind)), max_size=5).map(
    lambda kinds: [Symbol(n, k) for n, k in kinds.items()]
)

def _kinds(sig: list[Symbol]) -> dict[NameTerm, SymbolKind]:
    return {s.name: s.kind for s in sig}


_built_ontologies = st.one_of(
    _signatures.map(lambda sig: make_ontology(sig, [])),
    _signatures.map(lambda sig: FlatOntology(_kinds(sig), frozenset())),
    st.builds(
        lambda sig, i, j: union_flat(make_ontology(sig[:i], []), FlatOntology(_kinds(sig[j:]), frozenset())),
        _signatures, st.integers(0, 5), st.integers(0, 5),
    ),
    _signatures.map(lambda sig: make_ontology([Symbol(_wrapped(s.name), s.kind) for s in sig], [])),
    st.builds(lambda sig, i: elide_optional(make_ontology(sig, []), sig[:i]), _signatures, st.integers(0, 5)),
)


@settings(max_examples=100)
@given(_built_ontologies)
def test_kind_index_agrees_with_signature_scan(o):
    for n in _probes:
        assert o.kind_of(n) == _scanned_kind(o, n)


@settings(max_examples=100)
@given(_built_ontologies)
def test_flat_emission_of_a_built_ontology_is_emission_of_its_stratified_copy(o):
    assert_flat_emission_is_stratified_emission(o)


@settings(max_examples=100)
@given(_signatures, _signatures)
def test_union_raises_kind_clash_exactly_on_conflicting_kinds(sig_a, sig_b):
    a, b = make_ontology(sig_a, []), make_ontology(sig_b, [])
    clash = any(x.name == y.name and x.kind is not y.kind for x in sig_a for y in sig_b)
    for first, second in ((a, b), (b, a)):
        if clash:
            with pytest.raises(KindClash):
                union_flat(first, second)
        else:
            u = union_flat(first, second)
            assert u.signature == a.signature | b.signature
            for n in _probes:
                assert u.kind_of(n) == _scanned_kind(u, n)


@settings(max_examples=60)
@given(_signatures, st.integers(0, 5))
def test_equality_and_hash_ignore_how_an_ontology_was_built(sig, i):
    o = make_ontology(sig, [])
    unioned = union_flat(make_ontology(sig[:i], []), make_ontology(sig[i:], []))
    assert unioned == o
    assert hash(unioned) == hash(o)


# -- hygiene: a parameter's meaning does not depend on the library around it ----

def _corpus_parameter_names() -> tuple[set[str], set[str]]:
    """Every parameter base and list head or tail of the corpus definitions
    and their locals that is not itself the name of a definition; and those
    of them also written where no parameter binds them."""
    names, defined, free = set(), set(), set()

    def binds(p: ParamClauseAst) -> set[str]:
        if isinstance(p.payload, ListTemplate):
            return {n for n in (*p.payload.heads, p.payload.tail) if n}
        if isinstance(p.payload, FramesParam):
            return {b for s in build_block(p.payload.frames).signature for b in s.name.bases()}
        return set()

    def written(e):  # the names of references and calls, at every position
        if isinstance(e, ThenExpr):
            for t in e.terms:
                yield from written(t)
        elif isinstance(e, (RefExpr, InstExpr)):
            yield e.name
            for a in getattr(e, "args", ()):
                yield from written(a.value)

    def visit(d: PatternDefAst, outer: set[str]) -> None:
        bound = outer.union(*map(binds, d.params))
        defined.add(d.name)
        names.update(bound)
        free.update(n for n in written(d.body) if n not in bound)
        for loc in d.locals:
            visit(loc, bound)

    for path in corpus_paths():
        for d in parse_library(path.read_text(encoding="utf-8"), str(path)).items:
            visit(d, set())
    return names - defined, free


@pytest.mark.parametrize("definition", [
    "ontology {} = {{ Class: Zz }}\n",
    "ontology {} [Class: Zc] = {{ Class: Zc }}\n",
])
def test_a_definition_named_like_a_parameter_changes_no_corpus_expansion(definition):
    names, free = _corpus_parameter_names()
    assert len(names) == 24
    # `greater[Significance]` and `greater[Val]` are also written outside
    # ValSet, the one pattern whose parameter `greater[Val]` binds `greater`;
    # there a definition named `greater` is what the text calls
    assert names & free == {"greater"}
    text = "".join(p.read_text(encoding="utf-8") for p in corpus_paths())
    lib = lib_of(text)
    targets = sorted(lib.zero_param_names())
    reference = {t: emit_struct_dump(expand_named(lib, t)) for t in targets}
    changed = {}
    for n in sorted(names - free):
        try:
            extended = lib_of(text + definition.format(n))
        except GodpError as e:
            changed[n] = e.message
            continue
        for t in targets:
            try:
                dump = emit_struct_dump(expand_named(extended, t))
            except GodpError as e:
                dump = e.message
            if dump != reference[t]:
                changed.setdefault(n, []).append(t)
    assert changed == {}
