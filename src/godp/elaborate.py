"""Build a resolved pattern library from the AST.

Resolves references (locals shadow library names inside their defining
pattern), merges same-name definitions into ordered template clauses, computes
sequential parameter environments along the inclusion chain, and enforces the
recursion guard: a self or mutual call is only legal when it strictly shrinks
some list parameter. One walk over the clause bodies does both the reference
check and the call graph for the guard.

Clauses are frozen. Each is made first without the deltas of its plain
parameters, which the checks above do not need, then once more with them and
its environments. Environments are computed definition by definition in the
order of the call graph's components, callees first, so each import is
expanded (by `instantiate.expand_named`, with a fresh default depth budget)
only after everything it reaches has its environments. Once `build_library`
returns, nothing in the Library changes but its memo of expansions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable

from .core import (
    EMPTY_ONTOLOGY,
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
    UnknownReference,
    UnsupportedArgument,
)
from .syntax import (
    ArgAst,
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
    ListHeaderParam,
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
    it applies in every comma-list position. DifferentIndividuals axioms with
    fewer than two distinct members and empty individual enumerations are
    vacuous and dropped.
    """
    items = partial(resolve_items, resolve, splice)
    symbols: list[Symbol] = []
    axioms: list = []
    for f in frames:
        if isinstance(f, ClassFrame):
            cls = resolve(f.name)
            symbols.append(Symbol(cls, SymbolKind.CLASS))
            if f.equivalent is not None:
                members = items(f.equivalent)
                if members:
                    axioms.append(EquivalentToUnion(cls, members))
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
                pair = DifferentIndividuals((ind, other)).canonical()
                if len(pair.individuals) >= 2:
                    axioms.append(pair)
        elif isinstance(f, DifferentIndividualsFrame):
            di = DifferentIndividuals(items(f.items)).canonical()
            if len(di.individuals) >= 2:
                axioms.append(di)
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
class Clause:
    params: tuple[ParamSpec, ...]
    body: ExprAst
    pos: object
    # envs[i]: what parameter i sees (imports plus the deltas of parameters
    # 0..i-1); envs[-1] is the full parameter environment. A by-product of
    # computing PlainShape.new_symbols.
    envs: tuple[FlatOntology, ...] = ()


@dataclass
class PatternDef:
    name: str
    qual: str
    imports: tuple[str, ...]
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

    def lookup(self, name: str) -> PatternDef | None:
        return self.defs.get(name)

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

def _param_category(ast_param) -> str:
    if isinstance(ast_param.payload, FramesParam):
        return "plain"
    return "list"


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
        ca, cb = _param_category(a), _param_category(b)
        if ca != cb:
            raise DuplicateDefinition(
                f"clauses of '{name}' disagree on the shape of parameter {i + 1}", other.pos
            )
        if ca == "plain":
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


def _template_of(param) -> ListTemplate:
    pl = param.payload
    if isinstance(pl, EmptyParam):
        return ListTemplate(None, None, None, None)
    assert isinstance(pl, ListHeaderParam)
    return ListTemplate(pl.kind, pl.head, pl.head2, pl.tail)


def _build_def(
    name: str,
    clause_asts: list[PatternDefAst],
    qual: str,
    parent: PatternDef | None,
) -> PatternDef:
    first = clause_asts[0]
    for other in clause_asts[1:]:
        _check_clause_compatibility(name, first, other)
    has_list = any(_param_category(p) == "list" for p in first.params)
    if len(clause_asts) > 1 and not has_list:
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
            if _param_category(p) == "plain":
                shape = PlainShape(p.payload.frames, EMPTY_ONTOLOGY, ())  # delta with the envs
            else:
                shape = _template_of(p)
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
        _validate_imports(lib, d)
        _collect_edges(lib, d, edges)
    comp = _check_cycles(lib, edges)
    # callees first, so an import expands only what already has environments
    for d in sorted(defs.values(), key=lambda d: comp[d.qual]):
        _compute_environments(lib, d)
    return lib


def _validate_imports(lib: Library, d: PatternDef) -> None:
    for imp in d.imports:
        target = lib.lookup(imp)
        if target is None:
            raise UnknownReference(f"unknown import '{imp}' in '{d.qual}'", d.pos)
        if target.arity != 0:
            raise UnsupportedArgument(
                f"import '{imp}' in '{d.qual}' is generic; only 0-parameter "
                f"ontologies can be imported",
                d.pos,
            )
    for loc in d.locals.values():
        _validate_imports(lib, loc)


# -- reference resolution ----------------------------------------------------

def resolve_name(lib: Library, d: PatternDef, name: str) -> PatternDef | None:
    """Resolve a pattern/ontology name as seen from inside `d`."""
    cur: PatternDef | None = d
    while cur is not None:
        if name in cur.locals:
            return cur.locals[name]
        cur = cur.parent
    return lib.lookup(name)


# -- recursion guard -----------------------------------------------------------

def _clause_tail_depths(clause: Clause) -> dict[str, int]:
    depths: dict[str, int] = {}
    for p in clause.params:
        if p.is_list and p.shape.tail is not None:
            depths[p.shape.tail] = p.shape.min_len
    return depths


def _arg_shrinks(a: ArgAst, tails: dict[str, int]) -> bool:
    v = a.value
    if isinstance(v, RefExpr):
        return v.name in tails  # bare tail: one constructor stripped
    if isinstance(v, ListArgAst) and v.tail is not None and v.tail.is_plain():
        d = tails.get(v.tail.base)
        return d is not None and len(v.items) < d
    return False


def _collect_edges(lib: Library, d: PatternDef, edges: list) -> None:
    """The calls of `d` and its locals; an unknown reference in a body raises."""
    for clause in d.clauses:
        tails = _clause_tail_depths(clause)
        _walk_calls(lib, d, clause.body, tails, edges, strict=True)
    for loc in d.locals.values():
        _collect_edges(lib, loc, edges)


def _walk_calls(lib: Library, d: PatternDef, expr: ExprAst, tails, edges, strict: bool) -> None:
    if isinstance(expr, ThenExpr):
        for t in expr.terms:
            _walk_calls(lib, d, t, tails, edges, strict)
        return
    if isinstance(expr, (RefExpr, InstExpr)):
        target = resolve_name(lib, d, expr.name)
        if target is not None:
            shrinks = isinstance(expr, InstExpr) and any(_arg_shrinks(a, tails) for a in expr.args)
            edges.append((d.qual, target.qual, shrinks, expr.pos))
        elif strict:  # in argument position a name may be a local symbol
            raise UnknownReference(f"unknown ontology or pattern '{expr.name}'", expr.pos)
    if isinstance(expr, InstExpr):
        for a in expr.args:
            if isinstance(a.value, (RefExpr, InstExpr, ThenExpr)):
                _walk_calls(lib, d, a.value, tails, edges, strict=False)


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
            edges.append((d.qual, lib.defs[imp].qual, False, d.pos))

    nodes = {d.qual for d in _all_defs(lib)}
    adj: dict[str, set[str]] = {n: set() for n in nodes}
    for src, dst, _, _ in edges:
        adj[src].add(dst)
    comp = _tarjan_scc(nodes, adj)
    for src, dst, shrinks, pos in edges:
        same = comp[src] == comp[dst]
        if same and not shrinks:
            raise IllegalCycle(
                f"recursive call from '{src}' to '{dst}' does not strictly shrink "
                f"a list parameter",
                pos,
            )
    return comp


def _tarjan_scc(nodes: set[str], adj: dict[str, set[str]]) -> dict[str, int]:
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    comp: dict[str, int] = {}
    counter = [0]
    comps = [0]

    def strongconnect(v: str) -> None:
        work = [(v, iter(sorted(adj[v])))]
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(adj[w]))))
                    advanced = True
                    break
                if w in on_stack:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp[w] = comps[0]
                    if w == node:
                        break
                comps[0] += 1

    for v in sorted(nodes):
        if v not in index:
            strongconnect(v)
    # components are numbered callees first; self-loops form their own
    # component but comp equality already covers them
    return comp


# -- environments --------------------------------------------------------------

def _compute_environments(lib: Library, d: PatternDef, prefix: FlatOntology | None = None) -> None:
    if prefix is None:
        from .instantiate import _imports_ontology, expand_named  # circular at module level by design

        prefix = _imports_ontology(d, lambda imp: expand_named(lib, imp))
    d.clauses = tuple(_with_environments(d, clause, prefix) for clause in d.clauses)
    for loc in d.locals.values():
        _compute_environments(lib, loc, prefix=d.clauses[0].envs[-1])


def _with_environments(d: PatternDef, clause: Clause, base: FlatOntology) -> Clause:
    envs = [base]
    params: list[ParamSpec] = []
    for p in clause.params:
        env = envs[-1]
        if p.is_list:
            tmpl: ListTemplate = p.shape
            delta = make_ontology([Symbol(NameTerm(h), tmpl.kind) for h in tmpl.heads], [])
        else:
            try:
                delta = build_block(p.shape.frames)
                union_flat(env, delta)  # well-formedness in this environment
            except GodpError as e:
                e.ensure_pos(p.shape.frames[0].pos if p.shape.frames else d.pos)
                raise
            new_syms = tuple(
                sorted(
                    (s for s in delta.signature if s not in env.signature),
                    key=Symbol.key,
                )
            )
            p = ParamSpec(p.index, p.optional, PlainShape(p.shape.frames, delta, new_syms))
        params.append(p)
        envs.append(union_flat(env, delta))
    return Clause(tuple(params), clause.body, clause.pos, tuple(envs))


def param_environments(d: PatternDef) -> list[FlatOntology]:
    """env[i] = what parameter i sees: imports plus deltas of parameters 0..i-1.

    The final entry env[arity] is the full parameter environment. Read from
    the first clause (clauses share plain parameters).
    """
    return list(d.clauses[0].envs)


def resolve_local_subpatterns(lib: Library, d: PatternDef) -> PatternDef:
    """The definition itself: `build_library` already gave its local
    sub-patterns environments prefixed by its full parameter environment."""
    return d
