"""Build a resolved pattern library from the AST.

Merges same-name definitions into ordered template clauses, resolves the
names in every clause body once, computes sequential parameter environments
along the inclusion chain, and enforces the recursion guard: a self or mutual
call is only legal when it strictly shrinks some list parameter.

A name in a body means the first of: a parameter symbol or list variable of
the clause or of an enclosing definition (of any of its clauses, since locals
merge across them); a local sub-pattern of the definition or of an enclosing
one; a library definition. A resolved body is made of `Call`s, symbols
(`NameTerm`s), `ListVar`s and `BlockExpr`s, a `then` chain being a tuple of
them.

Clauses are frozen: made with the AST body, then with the resolved one, then
with the new symbols of the plain parameters and the environments. These are
computed in the order of the call graph's components, callees first, so each
import is expanded (by `instantiate.expand_named`, with a fresh default depth
budget) only after everything it reaches has its environments. Once
`build_library` returns, nothing in the Library changes but its memo.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, NamedTuple, Union

from .core import (
    Axiom,
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
    union_flat,
)
from .diagnostics import (
    DuplicateDefinition,
    GodpError,
    IllegalCycle,
    SourcePos,
    UnknownReference,
    UnsupportedArgument,
)
from .parser import expr_to_name_term
from .syntax import (
    ArgAst,
    BlockExpr,
    ClassFrame,
    DifferentIndividualsFrame,
    EmptyParam,
    ExprAst,
    Frame,
    FramesParam,
    IndividualFrame,
    InstExpr,
    LibraryAst,
    ListArgAst,
    ObjectPropertyFrame,
    PatternDefAst,
    RefExpr,
    ThenExpr,
)

ResolveFn = Callable[[NameTerm], NameTerm]
SpliceFn = Callable[[NameTerm], "tuple[NameTerm, ...] | None"]


def _identity(n: NameTerm) -> NameTerm:
    return n


def _no_splice(n: NameTerm) -> tuple[NameTerm, ...] | None:
    return None


def resolve_items(
    resolve: ResolveFn, splice: SpliceFn, names: Iterable[NameTerm]
) -> tuple[NameTerm, ...]:
    """`names` resolved, each one bound to a list (a template tail) spliced
    into its items."""
    out: list[NameTerm] = []
    for n in names:
        spliced = splice(n)
        if spliced is not None:
            out.extend(spliced)
        else:
            out.append(resolve(n))
    return tuple(out)


def build_block(
    frames: Iterable[Frame],
    resolve: ResolveFn = _identity,
    splice: SpliceFn = _no_splice,
) -> FlatOntology:
    """Build a flat ontology from frames, applying a name substitution.

    `splice` expands a name bound to a list (a template tail) into its items;
    it applies in every comma-list position.
    """
    items = partial(resolve_items, resolve, splice)
    symbols: list[Symbol] = []
    axioms: list = []
    for f in frames:
        if isinstance(f, ClassFrame):
            cls = resolve(f.name)
            symbols.append(Symbol(cls, SymbolKind.CLASS))
            if f.equivalent is not None:
                axioms.append(EquivalentToUnion(cls, items(f.equivalent)))
        elif isinstance(f, ObjectPropertyFrame):
            prop = resolve(f.name)
            symbols.append(Symbol(prop, SymbolKind.OBJECT_PROPERTY))
            for d in items(f.domains):
                axioms.append(Domain(prop, d))
            for r in items(f.ranges):
                axioms.append(Range(prop, r))
            for c in f.characteristics:
                axioms.append(Transitive(prop) if c == "Transitive" else Reflexive(prop))
            for s in items(f.sub_property_of):
                axioms.append(SubPropertyOf(prop, s))
            for inv in items(f.inverse_of):
                axioms.append(InverseOf(prop, inv))
        elif isinstance(f, IndividualFrame):
            ind = resolve(f.name)
            symbols.append(Symbol(ind, SymbolKind.INDIVIDUAL))
            for t in items(f.types):
                axioms.append(ClassAssertion(t, ind))
            for other in items(f.different_from):
                axioms.append(DifferentIndividuals((ind, other)))
        elif isinstance(f, DifferentIndividualsFrame):
            axioms.append(DifferentIndividuals(items(f.items)))
        else:
            raise TypeError(f"not a frame: {f!r}")
    try:
        return make_ontology(symbols, axioms)
    except GodpError as e:
        first = next(iter(frames), None)
        e.ensure_pos(first.pos if first is not None else None)
        raise


# The inverse of build_block: axiom type -> the frame field it is read from,
# the axiom field naming the frame's symbol and the one holding the value
# (None: the type's name, a characteristic).
_FRAME_FIELD = {
    Domain: ("domains", "prop", "cls"),
    Range: ("ranges", "prop", "cls"),
    Transitive: ("characteristics", "prop", None),
    Reflexive: ("characteristics", "prop", None),
    SubPropertyOf: ("sub_property_of", "sub", "sup"),
    InverseOf: ("inverse_of", "prop", "inverse"),
    ClassAssertion: ("types", "individual", "cls"),
}


def frames_of(o: FlatOntology) -> list[Frame]:
    """Frames that `build_block` reads back as `o`: one per symbol in
    `Symbol.key` order, each field's names sorted and distinct, but one per
    EquivalentTo union for a class; then one per DifferentIndividuals axiom."""
    fields: dict[NameTerm, dict[str, set]] = {}
    unions: dict[NameTerm, list[Axiom]] = {}
    different: list[Axiom] = []
    for a in o.axioms:
        entry = _FRAME_FIELD.get(type(a))
        if entry is not None:
            attr, subject, value = entry
            values = fields.setdefault(getattr(a, subject), {}).setdefault(attr, set())
            values.add(type(a).__name__ if value is None else getattr(a, value))
        elif isinstance(a, EquivalentToUnion):
            unions.setdefault(a.cls, []).append(a)
        else:
            different.append(a)
    frames: list[Frame] = []
    for s in o.sorted_signature():
        if s.kind is SymbolKind.CLASS:
            equivalents = [u.members for u in sorted(unions.get(s.name, ()), key=Axiom.sort_key)]
            frames.extend(ClassFrame(s.name, eq) for eq in equivalents or [None])
            continue
        frame = ObjectPropertyFrame if s.kind is SymbolKind.OBJECT_PROPERTY else IndividualFrame
        frames.append(frame(s.name, **{
            attr: tuple(sorted(values, key=None if attr == "characteristics" else NameTerm.key))
            for attr, values in fields.get(s.name, {}).items()
        }))
    frames.extend(DifferentIndividualsFrame(a.individuals) for a in sorted(different, key=Axiom.sort_key))
    return frames


# ---------------------------------------------------------------------------
# Resolved model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlainShape:
    frames: tuple[Frame, ...]
    delta: FlatOntology
    new_symbols: tuple[Symbol, ...]


@dataclass(frozen=True)
class ListTemplate:
    kind: SymbolKind | None  # None for the `empty` template
    head: str | None
    head2: str | None
    tail: str | None
    heads: tuple[str, ...] = field(init=False, compare=False, repr=False)  # the bound heads

    def __post_init__(self) -> None:
        object.__setattr__(self, "heads", tuple(h for h in (self.head, self.head2) if h is not None))

    @property
    def min_len(self) -> int:
        return len(self.heads)

    def matches(self, n: int) -> bool:
        return n == 0 if self.head is None else n >= self.min_len


@dataclass(frozen=True)
class ParamSpec:
    index: int
    optional: bool
    shape: PlainShape | ListTemplate

    @property
    def is_list(self) -> bool:
        return isinstance(self.shape, ListTemplate)

    @property
    def shape_word(self) -> str:
        if self.is_list:
            return "list"
        return "optional" if self.optional else "plain"


@dataclass(frozen=True)
class Call:
    """A call of `target`, a bare reference if `args` is None. `up` counts
    the definitions from the caller out to the one that has `target` as a
    local (None: a library one). Inside an argument, `target` is None for a
    name that is no definition; running the call raises."""

    name: str
    target: PatternDef | None = field(compare=False, repr=False)
    args: tuple[ArgAst, ...] | None  # with resolved values
    up: int | None
    pos: SourcePos


@dataclass(frozen=True)
class ListVar:
    """A list parameter's tail at an argument position."""

    name: str


# a resolved expression; a tuple is a `then` chain
Expr = Union[Call, BlockExpr, tuple]


@dataclass(frozen=True)
class Clause:
    params: tuple[ParamSpec, ...]
    body: Expr  # the AST body until build_library resolves it
    pos: object
    # envs[i]: what parameter i sees (imports plus the deltas of parameters
    # 0..i-1); envs[-1] is the full parameter environment. A by-product of
    # computing PlainShape.new_symbols.
    envs: tuple[FlatOntology, ...] = ()


@dataclass
class PatternDef:
    name: str
    qual: str
    imports: tuple  # the `given` names, then the definitions they name
    locals: dict[str, "PatternDef"]
    clauses: tuple[Clause, ...]
    pos: object
    parent: "PatternDef | None" = None

    @property
    def arity(self) -> int:
        return len(self.clauses[0].params)

    def shape_words(self) -> list[str]:
        return [p.shape_word for p in self.clauses[0].params]


@dataclass
class Library:
    defs: dict[str, PatternDef]
    # finished 0-parameter expansions by qual, filled as they are used
    # (instantiate._Memo); entries are written child before parent and never
    # replaced, so threads may share it
    memo: dict = field(default_factory=dict, compare=False, repr=False)

    def require(self, name: str, pos=None) -> PatternDef:
        d = self.defs.get(name)
        if d is None:
            raise UnknownReference(f"unknown ontology or pattern '{name}'", pos)
        return d

    def zero_param_names(self) -> list[str]:
        return [n for n, d in self.defs.items() if d.arity == 0]


# ---------------------------------------------------------------------------
# Building
# ---------------------------------------------------------------------------

def _check_clause_compatibility(name: str, first: PatternDefAst, other: PatternDefAst) -> None:
    if len(first.params) != len(other.params):
        raise DuplicateDefinition(
            f"clauses of '{name}' disagree on parameter count "
            f"({len(first.params)} vs {len(other.params)})",
            other.pos,
        )
    if first.given != other.given:
        raise DuplicateDefinition(f"clauses of '{name}' disagree on given imports", other.pos)
    for i, (a, b) in enumerate(zip(first.params, other.params)):
        if a.optional != b.optional:
            raise DuplicateDefinition(
                f"clauses of '{name}' disagree on optionality of parameter {i + 1}", other.pos
            )
        plain = isinstance(a.payload, FramesParam)
        if plain != isinstance(b.payload, FramesParam):
            raise DuplicateDefinition(
                f"clauses of '{name}' disagree on the shape of parameter {i + 1}", other.pos
            )
        if plain:
            if a.payload != b.payload:
                raise DuplicateDefinition(
                    f"clauses of '{name}' disagree on plain parameter {i + 1}", other.pos
                )
        else:
            ka = None if isinstance(a.payload, EmptyParam) else a.payload.kind
            kb = None if isinstance(b.payload, EmptyParam) else b.payload.kind
            if ka is not None and kb is not None and ka is not kb:
                raise DuplicateDefinition(
                    f"clauses of '{name}' disagree on the kind of list parameter {i + 1}",
                    other.pos,
                )


def _build_def(
    name: str,
    clause_asts: list[PatternDefAst],
    qual: str,
    parent: PatternDef | None,
) -> PatternDef:
    first = clause_asts[0]
    for other in clause_asts[1:]:
        _check_clause_compatibility(name, first, other)
    if len(clause_asts) > 1 and all(isinstance(p.payload, FramesParam) for p in first.params):
        raise DuplicateDefinition(
            f"duplicate definition of '{name}' (only list-parameter patterns may "
            f"have several template clauses)",
            clause_asts[1].pos,
        )

    d = PatternDef(name, qual, first.given, {}, (), first.pos, parent)
    # locals from all clause defs merge; same-name local defs become clauses
    local_asts: dict[str, list[PatternDefAst]] = {}
    for ca in clause_asts:
        for loc in ca.locals:
            local_asts.setdefault(loc.name, []).append(loc)
    for lname, lasts in local_asts.items():
        d.locals[lname] = _build_def(lname, lasts, f"{qual}::{lname}", d)

    clauses: list[Clause] = []
    for ca in clause_asts:
        params: list[ParamSpec] = []
        for i, p in enumerate(ca.params):
            pl = p.payload
            if clauses and isinstance(pl, FramesParam):  # clauses share plain parameters
                shape = clauses[0].params[i].shape
            elif isinstance(pl, FramesParam):  # new symbols with the environments
                shape = PlainShape(pl.frames, build_block(pl.frames), ())
            elif isinstance(pl, EmptyParam):
                shape = ListTemplate(None, None, None, None)
            else:
                shape = ListTemplate(pl.kind, pl.head, pl.head2, pl.tail)
            params.append(ParamSpec(i, p.optional, shape))
        clauses.append(Clause(tuple(params), ca.body, ca.pos))
    d.clauses = tuple(clauses)
    return d


def build_library(ast: LibraryAst) -> Library:
    """Resolve an AST into an immutable Library; validates names, clause
    consistency, sequential environments, imports, and recursion legality."""
    grouped: dict[str, list[PatternDefAst]] = {}
    for item in ast.items:
        grouped.setdefault(item.name, []).append(item)

    defs: dict[str, PatternDef] = {}
    for name, clause_asts in grouped.items():
        defs[name] = _build_def(name, clause_asts, name, None)
    lib = Library(defs)

    edges: list = []
    for d in defs.values():
        _resolve_imports(lib, d)
        _resolve(lib, d, {})
        _collect_edges(d, edges)
    comp = _check_cycles(lib, edges)
    # callees first, so an import expands only what already has environments
    for d in sorted(defs.values(), key=lambda d: comp[d.qual]):
        _compute_environments(lib, d)
    return lib


def _resolve_imports(lib: Library, d: PatternDef) -> None:
    imports = []
    for imp in d.imports:
        target = lib.defs.get(imp)
        if target is None:
            raise UnknownReference(f"unknown import '{imp}' in '{d.qual}'", d.pos)
        if target.arity != 0:
            raise UnsupportedArgument(
                f"import '{imp}' in '{d.qual}' is generic; only 0-parameter "
                f"ontologies can be imported",
                d.pos,
            )
        imports.append(target)
    d.imports = tuple(imports)
    for loc in d.locals.values():
        _resolve_imports(lib, loc)


# -- name resolution -------------------------------------------------------------

def _param_names(d: PatternDef, clause: Clause, outer: dict) -> dict[str, tuple[str, bool]]:
    """`outer` and each name a clause's parameters bind, with the qual of `d`
    and whether it is a list tail; a plain parameter binds the bases of its
    names."""
    names, plain, tail = dict(outer), (d.qual, False), (d.qual, True)
    for p in clause.params:
        if not p.is_list:
            for s in p.shape.delta.signature:
                names.update(dict.fromkeys(s.name.bases(), plain))
            continue
        names.update(dict.fromkeys(p.shape.heads, plain))
        if p.shape.tail is not None:
            names[p.shape.tail] = tail
    return names


def _resolve(lib: Library, d: PatternDef, outer: dict) -> None:
    """Resolve the clause bodies of `d` and of its locals; `outer` holds the
    parameters of the definitions around `d`."""
    seen = [_param_names(d, c, outer) for c in d.clauses]
    merged = seen[0]
    for names in seen[1:]:
        merged = {**merged, **names}
    for name, loc in d.locals.items():
        if name in merged:
            raise DuplicateDefinition(
                f"local '{name}' of '{d.qual}' has the name of a parameter of "
                f"'{merged[name][0]}'",
                loc.pos,
            )
    d.clauses = tuple(
        Clause(c.params, _Scope(lib, params, d).expr(c.body, strict=True), c.pos)
        for c, params in zip(d.clauses, seen)
    )
    for loc in d.locals.values():
        _resolve(lib, loc, merged)


class _Scope(NamedTuple):
    """What the names of one clause body of `d` mean; `params` maps each
    parameter it sees as `_param_names` does."""

    lib: Library
    params: dict[str, tuple[str, bool]]
    d: PatternDef

    def definition(self, name: str) -> tuple[PatternDef | None, int | None]:
        up, cur = 0, self.d
        while cur is not None and name not in cur.locals:
            cur, up = cur.parent, up + 1
        return (cur.locals[name], up) if cur is not None else (self.lib.defs.get(name), None)

    def expr(self, e: ExprAst, strict: bool = False) -> Expr:
        """`e` where an ontology is expected; an unknown name there fails now
        if `strict`, else when the call runs."""
        if isinstance(e, ThenExpr):
            return tuple([self.expr(t, strict) for t in e.terms])
        if isinstance(e, BlockExpr):
            return e
        if e.name in self.params:
            raise UnknownReference(
                f"'{e.name}' is a parameter of '{self.params[e.name][0]}', not an "
                f"ontology or pattern",
                e.pos,
            )
        target, up = self.definition(e.name)
        if target is None and strict:
            raise UnknownReference(f"unknown ontology or pattern '{e.name}'", e.pos)
        if isinstance(e, RefExpr):
            return Call(e.name, target, None, up, e.pos)
        shapes = target.clauses[0].params if target is not None else ()
        args = [self.arg(a, shapes[i] if i < len(shapes) else None) for i, a in enumerate(e.args)]
        return Call(e.name, target, tuple(args), up, e.pos)

    def arg(self, a: ArgAst, param: ParamSpec | None) -> ArgAst:
        """`a`, given to `param`, with its value resolved: a name of a
        parameter or of no definition is a symbol (a `NameTerm`) or a list
        variable, and so is a bare name that a list parameter gets."""
        v = a.value
        if isinstance(v, (RefExpr, InstExpr)):
            owner, tail = self.params.get(v.name, (None, False))
            bare = isinstance(v, RefExpr)
            if tail and bare:
                return ArgAst(ListVar(v.name), a.fits, a.pos)
            at_list = bare and param is not None and param.is_list
            if owner or at_list or self.definition(v.name)[0] is None:
                v = expr_to_name_term(v) or v
        if isinstance(v, (RefExpr, InstExpr, ThenExpr, BlockExpr)):
            v = self.expr(v)
        return a if v is a.value else ArgAst(v, a.fits, a.pos)


# -- recursion guard -----------------------------------------------------------

def _clause_tail_depths(clause: Clause) -> dict[str, int]:
    return {p.shape.tail: p.shape.min_len for p in clause.params if p.is_list and p.shape.tail}


def _arg_shrinks(a: ArgAst, tails: dict[str, int]) -> bool:
    v = a.value
    if isinstance(v, ListVar):
        return v.name in tails  # bare tail: one constructor stripped
    if isinstance(v, ListArgAst) and v.tail is not None and v.tail.is_plain():
        d = tails.get(v.tail.base)
        return d is not None and len(v.items) < d
    return False


def _calls(e: Expr, out: list[Call]) -> list[Call]:
    """`out` and the calls of definitions in `e`, each before those in its
    arguments."""
    if isinstance(e, tuple):
        for t in e:
            _calls(t, out)
    elif isinstance(e, Call):
        if e.target is not None:
            out.append(e)
        for a in e.args or ():
            if isinstance(a.value, (Call, tuple)):
                _calls(a.value, out)
    return out


def _collect_edges(d: PatternDef, edges: list) -> None:
    """The calls of `d` and its locals."""
    for clause in d.clauses:
        tails = _clause_tail_depths(clause)
        for c in _calls(clause.body, []):
            shrinks = c.args is not None and any(_arg_shrinks(a, tails) for a in c.args)
            edges.append((d.qual, c.target.qual, shrinks, c.pos))
    for loc in d.locals.values():
        _collect_edges(loc, edges)


def _all_defs(lib: Library):
    def walk(d: PatternDef):
        yield d
        for loc in d.locals.values():
            yield from walk(loc)

    for d in lib.defs.values():
        yield from walk(d)


def _check_cycles(lib: Library, edges: list) -> dict[str, int]:
    """Raise on an illegal cycle; return each node's call-graph component."""
    for d in _all_defs(lib):
        for imp in d.imports:
            edges.append((d.qual, imp.qual, False, d.pos))

    nodes = {d.qual for d in _all_defs(lib)}
    adj: dict[str, set[str]] = {n: set() for n in nodes}
    for src, dst, _, _ in edges:
        adj[src].add(dst)
    comp = _tarjan_scc(nodes, adj)
    for src, dst, shrinks, pos in edges:
        if comp[src] == comp[dst] and not shrinks:
            raise IllegalCycle(
                f"recursive call from '{src}' to '{dst}' does not strictly shrink "
                f"a list parameter",
                pos,
            )
    return comp


def _tarjan_scc(nodes: set[str], adj: dict[str, set[str]]) -> dict[str, int]:
    """Each node's strongly connected component, numbered callees first:
    Tarjan's algorithm without recursion, taking roots and successors in
    sorted order."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    comp: dict[str, int] = {}
    count = 0
    for root in sorted(nodes):
        work = [] if root in index else [(root, None)]
        while work:
            node, it = work[-1]
            if it is None:  # first visit
                index[node] = low[node] = len(index)
                stack.append(node)
                work[-1] = (node, it := iter(sorted(adj[node])))
            for w in it:
                if w not in index:
                    work.append((w, None))
                    break
                if w not in comp:  # still on the stack
                    low[node] = min(low[node], index[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    while node not in comp:
                        comp[stack.pop()] = count
                    count += 1
    return comp


# -- environments --------------------------------------------------------------

def _compute_environments(lib: Library, d: PatternDef, prefix: FlatOntology | None = None) -> None:
    if prefix is None:
        from .instantiate import _imports_ontology, expand_named  # circular at module level by design

        prefix = _imports_ontology(d, lambda imp: expand_named(lib, imp.name))
    d.clauses = tuple(_with_environments(clause, prefix) for clause in d.clauses)
    for loc in d.locals.values():
        _compute_environments(lib, loc, prefix=d.clauses[0].envs[-1])


def _with_environments(clause: Clause, base: FlatOntology) -> Clause:
    envs = [base]
    params: list[ParamSpec] = []
    for p in clause.params:
        env = envs[-1]
        if p.is_list:
            delta = make_ontology([Symbol(NameTerm(h), p.shape.kind) for h in p.shape.heads], [])
            envs.append(union_flat(env, delta))
        else:
            delta = p.shape.delta
            try:
                envs.append(union_flat(env, delta))  # well-formedness in this environment
            except GodpError as e:
                e.ensure_pos(p.shape.frames[0].pos)
                raise
            new_syms = tuple(sorted(delta.signature - env.signature, key=Symbol.key))
            p = ParamSpec(p.index, p.optional, PlainShape(p.shape.frames, delta, new_syms))
        params.append(p)
    return Clause(tuple(params), clause.body, clause.pos, tuple(envs))
