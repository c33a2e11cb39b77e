"""Build a resolved pattern library from the AST.

Merges same-name definitions into ordered template clauses, resolves the
names in every clause body once, gives each definition its parameter
environment, and enforces the recursion guard: a self or mutual call is only
legal when it strictly shrinks some list parameter.

A name in a body means the first of: a parameter symbol or list variable of
the clause or of an enclosing definition (of any of its clauses, since locals
merge across them: a list tail if some clause binds it as one); a local
sub-pattern of the definition or of an enclosing one; a library definition.
A resolved body is made of `Call`s and `BlockTemplate`s, a `then` chain
being a tuple of them. A call names its callee by qual (`Library.quals`), so
a built library holds no reference cycle. It holds one argument form per
parameter of its callee, checked against it here (`_check_args`), so an
ill-formed call, or a bare reference to a generic definition, is a build
error even where nothing runs it. Its symbols are `NameTerm`s, and a list
tail, in an argument or in a block's comma list, is a `ListVar`: the one
rule for both places.

A build makes each record once, in four steps, and reports the first error
of the first step that meets one: (1) each definition, before its locals,
checks its clauses against each other and walks each clause's parameters once
(`_walk_params`), building equal plain frames once; (2) each library
definition, with its locals, takes its imports, then resolves each clause body
in one walk, with the list tails and strips derived from the clause's roles
and templates, checking each call against its callee's first clause; (3) the
recursion guard sees every call and import; (4) in an order where each import
is expanded (by `instantiate.expand_named`, with a fresh default depth budget)
only after everything it reaches has its clauses, each `ParamSpec` and
`Clause` is made, final. A definition's parameters see its
imports and, for a local, all that its definer's first-clause parameters see,
and each one those before it in its clause; a plain one's new symbols are
what it adds. Once `build_library` returns, nothing in the Library changes
but its memo and the plans that its blocks, calls and parameters are
compiled into when they are first read.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from operator import attrgetter, itemgetter

from .blocks import BlockTemplate, ListVar, _compiled, _no_tails, _not_a_list, build_block, compile_names
from .core import Axiom, FlatOntology, NameTerm, Symbol, make_ontology, union_flat
from .diagnostics import (
    ArityMismatch,
    DuplicateDefinition,
    GodpError,
    IllegalCycle,
    MissingArgument,
    SourcePos,
    UnknownReference,
    UnsupportedArgument,
)
from .parser import expr_to_name_term
from .record import Record, field
from .syntax import (
    ArgAst,
    BlockExpr,
    EmptyArg,
    ExprAst,
    FramesParam,
    InstExpr,
    LibraryAst,
    ListArgAst,
    ListTemplate,
    MissingArg,
    PatternDefAst,
    RefExpr,
    ThenExpr,
)


# ---------------------------------------------------------------------------
# Resolved model
# ---------------------------------------------------------------------------

class ParamSpec(Record):
    """A clause's parameter: a list one's `shape` is its template, a plain
    one's the ontology of its frames, with the `new_symbols` it adds and the
    `plan` of its frames' names, compiled in `scope` (its definition's
    `_Draft.chain`) when first read, for every fit and check, and the axioms
    a check reads, sorted, or None if no check fills it: for its axioms, or
    to read a definer's list head."""

    index: int
    optional: bool
    shape: FlatOntology | ListTemplate
    new_symbols: tuple[Symbol, ...]
    scope: tuple = field(compare=False)
    __slots__ = ("plan",)
    __getattr__ = _compiled(lambda p: (compile_names(p.shape.kinds, p.scope), tuple(
        sorted(p.shape.axioms, key=Axiom.sort_key)) if p.shape.axioms or any(
            level[b][1] is None for level in p.scope[1:] for n in p.shape.kinds for b in n.bases() if b in level)
        else None))

    @property
    def is_list(self) -> bool:
        return isinstance(self.shape, ListTemplate)

    @property
    def shape_word(self) -> str:
        if self.is_list:
            return "list"
        return "optional" if self.optional else "plain"


class Call(Record):
    """A call of the definition `Library.quals[qual]`, a bare reference if
    `args` is None. `up` counts the definitions from the caller out to the
    one that has the callee as a local (None: a library one): the callee's
    definers' runs are `runs[up:]` of the caller's display. `args` are the
    argument forms, one per parameter, already checked against them
    (`_check_args`): a list parameter's is a `ListArg`, and a left-out
    trailing one an `EmptyOptArg`. Running it reads the caller's names in
    them (list items, symbols and fit targets), compiled in `scope`, the
    caller's `_Draft.chain`, into `plan`; where the caller binds no name,
    there is nothing to read."""

    qual: str
    args: tuple[ArgumentForm | _ExprArg, ...] | None
    up: int | None
    pos: SourcePos
    scope: tuple = field((), compare=False)
    __slots__ = ("plan",)
    __getattr__ = _compiled(lambda c: any(c.scope) and [compile_names([n for n in (
        *getattr(f, "items", ()), getattr(f, "term", None), *[t for _, t in getattr(f, "fits", ())]
    ) if type(n) is NameTerm], c.scope, f.pos) for f in c.args])


# a resolved expression; a tuple is a `then` chain
Expr = Call | BlockTemplate | tuple


# -- argument forms ----------------------------------------------------------------
# The forms `expand` takes, and those a resolved `Call` holds. `pos` is where
# the argument was written (None when built in Python); it takes no part in
# equality.

_POS = field(None, compare=False)


class NamedOntologyArg(Record):
    name: str
    fits: tuple[tuple[NameTerm, NameTerm], ...] = ()
    pos: SourcePos | None = _POS


class AnonymousArg(Record):
    ontology: FlatOntology
    fits: tuple[tuple[NameTerm, NameTerm], ...] = ()
    pos: SourcePos | None = _POS


class LocalSymbolArg(Record):
    term: NameTerm
    fits: tuple[tuple[NameTerm, NameTerm], ...] = ()
    pos: SourcePos | None = _POS


class EmptyOptArg(Record):
    pos: SourcePos | None = _POS


class ListArg(Record):
    items: tuple[NameTerm, ...]  # in a clause body, a list tail is a `ListVar`
    pos: SourcePos | None = _POS


class _ExprArg(Record):
    """A resolved argument expression (a call, a `then` chain, inline frames
    or an `AnonymousArg`'s ontology), evaluated on top of the local
    environment in the caller's scope."""

    expr: Expr | FlatOntology
    fits: tuple[tuple[NameTerm, NameTerm], ...]
    pos: SourcePos | None = _POS


ArgumentForm = NamedOntologyArg | AnonymousArg | LocalSymbolArg | EmptyOptArg | ListArg

_LIST_FITS = "fit maps are not allowed on list arguments"
_EMPTY_FITS = "fit maps are meaningless on an empty argument"


def _of(owner: str | None) -> str:
    """The pattern part of a message; helpers called without one leave it out."""
    return f" of '{owner}'" if owner is not None else ""


def _check_arg(index: int, optional: bool, shape: ListTemplate | FlatOntology, form: ArgumentForm | _ExprArg,
               owner: str | None) -> ArgumentForm | _ExprArg:
    """`form` fitted to parameter `index` (from 0) as `.gdp` text is, by type: a
    list parameter (`shape` its template) takes a list, an empty argument as
    the empty list and a bare name without fits as a one-item list; a plain
    one (`shape` the ontology of its frames) takes any other form, an empty
    one only if it is `optional`, and fits only of its own symbols."""
    t = type(form)
    if type(shape) is ListTemplate:
        if t is ListArg:
            return form
        if t is EmptyOptArg:
            return ListArg((), form.pos)
        if form.fits:
            raise UnsupportedArgument(_LIST_FITS, form.pos)
        if t in (LocalSymbolArg, NamedOntologyArg):
            return ListArg((form.term if t is LocalSymbolArg else NameTerm(form.name),), form.pos)
        raise UnsupportedArgument("a list argument must be a comma or '::' list of names", form.pos)
    if t is ListArg:
        raise UnsupportedArgument("list argument given for a non-list parameter", form.pos)
    if t is EmptyOptArg:
        if not optional:
            raise MissingArgument(f"missing argument for non-optional parameter {index + 1}{_of(owner)}", form.pos)
        return form
    for src, _ in form.fits:
        if src not in shape.kinds:
            raise UnsupportedArgument(
                f"fit source '{src.render()}' is not a symbol of parameter {index + 1}{_of(owner)}", form.pos
            )
    return form


def _check_args(name: str, decls: Sequence[tuple], args: Sequence, pos: SourcePos | None, convert=lambda a, shape: a):
    """The arguments of a call of `name`, whose first clause's parameters are
    `decls`, each an (optional, shape) pair as `_check_arg` takes them: each
    argument made a form by `convert` and checked in turn; left-out trailing
    ones are empty, which no list parameter takes."""
    if len(args) > len(decls):
        raise ArityMismatch(f"'{name}' takes {len(decls)} argument(s), got {len(args)}", pos)
    forms = []
    for i, (optional, shape) in enumerate(decls):
        if i < len(args):
            form = convert(args[i], shape)
        elif type(shape) is ListTemplate:
            raise ArityMismatch(f"missing argument for list parameter {i + 1} of '{name}'", pos)
        else:
            form = EmptyOptArg(pos)
        forms.append(_check_arg(i, optional, shape, form, name))
    return forms


class Clause(Record):
    params: tuple[ParamSpec, ...]
    body: Expr


class PatternDef(Record, frozen=False):
    name: str
    qual: str
    arity: int
    locals: dict[str, "PatternDef"]
    pos: object
    # each set once by build_library, after every definition exists: a call
    # or an import may name a definition made later, or its own
    imports: tuple["PatternDef", ...] = ()
    clauses: tuple[Clause, ...] = ()


class Library(Record, frozen=False):
    defs: dict[str, PatternDef]
    quals: dict[str, PatternDef] = field(compare=False)  # every definition by qual, locals too
    # closed expansions, filled as they are used (instantiate._Memo): by
    # qual, or by (qual, depth) for one that ran out of that depth; an entry
    # is never replaced, so threads may share it
    memo: dict = field(factory=dict, compare=False)

    def require(self, name: str) -> PatternDef:
        d = self.defs.get(name)
        if d is None:
            raise UnknownReference(f"unknown ontology or pattern '{name}'")
        return d

    def zero_param_names(self) -> list[str]:
        return [n for n, d in self.defs.items() if d.arity == 0]


# ---------------------------------------------------------------------------
# Building
# ---------------------------------------------------------------------------

def _check_clause_compatibility(name: str, first: PatternDefAst, other: PatternDefAst) -> None:
    def disagree(on: str) -> DuplicateDefinition:
        return DuplicateDefinition(f"clauses of '{name}' disagree on {on}", other.pos)

    if len(first.params) != len(other.params):
        raise disagree(f"parameter count ({len(first.params)} vs {len(other.params)})")
    if first.given != other.given:
        raise disagree("given imports")
    for i, (a, b) in enumerate(zip(first.params, other.params), 1):
        if a.optional != b.optional:
            raise disagree(f"optionality of parameter {i}")
        plain = isinstance(a.payload, FramesParam)
        if plain != isinstance(b.payload, FramesParam):
            raise disagree(f"the shape of parameter {i}")
        if plain and a.payload != b.payload:
            raise disagree(f"plain parameter {i}")
        if not plain and None is not a.payload.kind is not b.payload.kind is not None:
            raise disagree(f"the kind of list parameter {i}")


_NO_NAMES: Mapping = {}  # shared, never written: an empty map per clause would feed the cyclic collector


class _Draft(Record, frozen=False):
    """A definition until build_library makes its clauses: what `_walk_params`
    makes of each clause; what its parameters bind over its clauses, as its
    locals see them (`merged`), and `chain`, that and then each definer's.
    `parent` is the draft of a local's definer."""

    d: PatternDef
    asts: list[PatternDefAst]
    clauses: list[tuple]
    merged: dict
    chain: tuple = ()
    visible: Mapping = _NO_NAMES  # its locals and its definers', the innermost counting
    bodies: list[Expr] = field(factory=list)
    rank: int = 0  # its place in the order that makes the clauses
    sees: Mapping = _NO_NAMES  # the name -> kind index its locals' parameters see
    parent: "_Draft | None" = field(None, compare=False)


def _build_def(
    name: str, clause_asts: list[PatternDefAst], qual: str, parent: _Draft | None, deltas: dict
) -> list[_Draft]:
    """The drafts of the definition `name` and of its locals, a definition
    before its locals; `deltas` holds the ontology of each plain parameter's
    frames built, with the bases of its names, for clauses and definitions
    that repeat them."""
    first = clause_asts[0]
    for other in clause_asts[1:]:
        _check_clause_compatibility(name, first, other)
    if len(clause_asts) > 1 and all(isinstance(p.payload, FramesParam) for p in first.params):
        raise DuplicateDefinition(
            f"duplicate definition of '{name}' (only list-parameter patterns may "
            f"have several template clauses)",
            clause_asts[1].pos,
        )

    # every field in order: a record binds a shorter or keyword call in Python
    d = PatternDef(name, qual, len(first.params), {}, first.pos, (), ())
    dr = _Draft(d, clause_asts, [], _NO_NAMES, (), _NO_NAMES, [], 0, _NO_NAMES, parent)
    tree = [dr]
    # locals from all clause defs merge; same-name local defs become clauses
    local_asts: dict[str, list[PatternDefAst]] = {}
    for ca in clause_asts:
        for loc in ca.locals:
            local_asts.setdefault(loc.name, []).append(loc)
    for lname, lasts in local_asts.items():
        sub = _build_def(lname, lasts, f"{qual}::{lname}", dr, deltas)
        d.locals[lname] = sub[0].d
        tree += sub

    for ca in clause_asts:
        dr.clauses.append(_walk_params(ca.params, (qual, False), (qual, None), (qual, True), deltas))
    # a name some clause binds is the definition's, a list tail if some clause
    # binds it as one, else a head only if no clause binds it plain (plain
    # parameters are every clause's, so bound each run)
    dr.merged = dr.clauses[0][1] if len(dr.clauses) == 1 else {
        n: v for role in (None, False, True) for c in dr.clauses for n, v in c[1].items() if v[1] is role
    }
    return tree


def _walk_params(params: tuple, plain: tuple, head: tuple, tail: tuple, deltas: dict) -> tuple:
    """One clause's parameters walked once: their (optional, shape) pairs as
    `_check_arg` takes them, and each name they bind to its role, the last
    binding counting (a plain parameter binds the bases of its names). A tail
    that a later parameter binds again is no list in a run: its template
    drops it."""
    names, decls = {} if params else _NO_NAMES, []
    for p in params:
        pl = p.payload
        if type(pl) is ListTemplate:
            names.update(dict.fromkeys(pl.heads, head))
            if pl.tail is not None:
                names[pl.tail] = tail
        else:
            built = deltas.get(pl.frames)
            if built is None:
                delta = build_block(pl.frames)
                built = deltas[pl.frames] = delta, {b for n in delta.kinds for b in n.bases()}
            names.update(dict.fromkeys(built[1], plain))
            pl = built[0]
        decls.append((p.optional, pl))
    for i, (optional, shape) in enumerate(decls):
        if type(shape) is ListTemplate and shape.tail and names[shape.tail] is not tail:
            decls[i] = (optional, ListTemplate(shape.kind, shape.heads, None))
    return tuple(decls), names


def build_library(ast: LibraryAst) -> Library:
    """Resolve an AST into an immutable Library; validates names, clause
    consistency, sequential environments, imports, and recursion legality."""
    from .instantiate import expand_named  # circular at module level by design

    grouped = {}  # name -> its clauses' ASTs
    for item in ast.items:
        grouped.setdefault(item.name, []).append(item)
    deltas: dict = {}  # frames -> (their ontology, the bases of its names)
    trees = [_build_def(name, asts, name, None, deltas) for name, asts in grouped.items()]
    drafts = [dr for tree in trees for dr in tree]
    lib = Library({tree[0].d.name: tree[0].d for tree in trees}, {dr.d.qual: dr.d for dr in drafts})
    # a call's arguments are checked against its callee's first clause
    rs = _Resolver(lib, [], {dr.d.qual: dr.clauses[0][0] for dr in drafts}, None, {}, {}, {})

    for tree in trees:  # a definition's imports and its locals', then their bodies
        for dr in tree:
            if given := dr.asts[0].given:
                dr.d.imports = tuple([_import(lib, dr.d, name) for name in given])
        for dr in tree:
            _resolve(rs, dr)
    imports = [(dr.d.qual, imp.qual, None, dr.d.pos) for dr in drafts for imp in dr.d.imports]
    comp = _check_cycles(set(lib.quals), rs.calls + imports)

    # An import is expanded only after every definition it reaches has its
    # clauses. Those lie in the import's component or lower ones, and so do
    # their definers. So a definition comes after its definers and after the
    # components of its imports, as a library definition's own component is.
    for dr in drafts:
        dr.rank = dr.parent.rank if dr.parent else comp[dr.d.qual]
        for imp in dr.d.imports:
            dr.rank = max(dr.rank, comp[imp.qual] + 1)
    for dr in sorted(drafts, key=attrgetter("rank")):  # stable: definers first
        env = dict(dr.parent.sees) if dr.parent else {}
        try:  # a clash between imports, or with the definers' parameters
            for imp in dr.d.imports:
                _extend(env, expand_named(lib, imp.name).kinds)
        except GodpError as e:
            e.ensure_pos(dr.d.pos)
            raise
        dr.d.clauses, dr.sees = _clauses(dr, env)
    return lib


def _import(lib: Library, d: PatternDef, name: str) -> PatternDef:
    target = lib.defs.get(name)
    if target is None:
        raise UnknownReference(f"unknown import '{name}' in '{d.qual}'", d.pos)
    if target.arity != 0:
        raise UnsupportedArgument(
            f"import '{name}' in '{d.qual}' is generic; only 0-parameter "
            f"ontologies can be imported",
            d.pos,
        )
    return target


def _extend(kinds: dict, add: dict) -> None:
    """Add the name -> kind index `add` to `kinds`; a name with two kinds is
    the KindClash that `union_flat` reports for their ontologies."""
    for n in kinds.keys() & add.keys():
        if kinds[n] is not add[n]:
            union_flat(*[make_ontology(k.items(), ()) for k in (kinds, add)])
    kinds.update(add)


def _clauses(dr: _Draft, env: dict) -> tuple[tuple[Clause, ...], dict]:
    """The clauses of a definition whose parameters see `env`, a name -> kind
    index, and what its locals see: `env` and its first clause's parameters.
    Each parameter sees `env` and those before it; clauses that bind the same
    list heads before a plain parameter share it, with the symbols it adds."""
    plain: dict = {}  # (index, heads bound before it) -> parameter
    clauses, sees = [], None
    first = dr.asts[0].params  # a plain parameter's frames are its first clause's
    for ast, walked, body in zip(dr.asts, dr.clauses, dr.bodies):
        kinds, heads, params = dict(env), (), []
        for i, (optional, shape) in enumerate(walked[0]):
            listed = type(shape) is ListTemplate
            if not listed and (p := plain.get((i, heads))) is None:
                new = [Symbol(n, k) for n, k in shape.kinds.items() if n not in kinds]
                new = tuple(sorted(new, key=Symbol.key) if len(new) > 1 else new)
                p = plain[i, heads] = ParamSpec(i, optional, shape, new, dr.chain)
            try:  # a clash is at a list parameter, or at a plain one's first frame
                _extend(kinds, dict.fromkeys(map(NameTerm, shape.heads), shape.kind) if listed else shape.kinds)
            except GodpError as e:
                e.ensure_pos(ast.params[i].pos if listed else first[i].payload.frames[0].pos)
                raise
            if listed:
                heads += shape.heads
                p = ParamSpec(i, optional, shape, (), dr.chain)
            params.append(p)
        clauses.append(Clause(tuple(params), body))
        sees = kinds if sees is None else sees
    return tuple(clauses), sees


# -- name resolution -------------------------------------------------------------

def _resolve(rs: _Resolver, dr: _Draft) -> None:
    """Resolve the clause bodies of `dr`, its definers' done, with `rs`."""
    d, outer = dr.d, dr.parent.chain if dr.parent else ()
    dr.chain, dr.visible = (dr.merged, *outer), {**dr.parent.visible, **d.locals} if dr.parent else d.locals
    above = {n: v for names in reversed(outer) for n, v in names.items()} if outer else _NO_NAMES
    for name, loc in d.locals.items():
        if owner := dr.merged.get(name) or above.get(name):
            raise DuplicateDefinition(
                f"local '{name}' of '{d.qual}' has the name of a parameter of '{owner[0]}'", loc.pos
            )
    rs.dr, level = dr, d.qual.count("::")  # a definer's qual is a prefix of d's, one level shorter each
    for ca, (decls, names) in zip(dr.asts, dr.clauses):
        rs.seen = seen = {**above, **names} if above else names  # the innermost binding counts
        rs.tails = {NameTerm(n): ListVar(n, level - q.count("::")) for n, (q, t) in seen.items() if t} or _NO_NAMES
        rs.strips = {s.tail: len(s.heads) for _, s in decls if type(s) is ListTemplate and s.tail} or _NO_NAMES
        dr.bodies.append(rs.expr(ca.body))


_EMPTY_ARGS = (ArgAst(MissingArg()),)  # `G[]`


def _reference(name: str, target: PatternDef | None, up: int | None, pos: SourcePos | None) -> Call:
    """The call that a bare reference to `name` is, `target` being the
    definition it names (None: none) and `up` as in `Call`; only a
    0-parameter definition can be named without arguments."""
    if target is None:
        raise UnknownReference(f"unknown ontology or pattern '{name}'", pos)
    if target.arity != 0:
        raise ArityMismatch(f"'{name}' is generic: {target.arity} argument(s) required", pos)
    return Call(target.qual, None, up, pos, ())


class _Resolver(Record, frozen=False):
    """Resolves the clause bodies of a library, one at a time. `calls` gets
    the recursion guard's edges, `decls` holds each definition's first-clause
    parameters by qual; the rest is the clause in hand, of `dr`, as `_resolve`
    derives it: the role of each parameter name it sees, the innermost binding
    counting, the `ListVar` of each list tail among them, and the heads each
    of its own templates strips from its tail, which the guard reads."""

    lib: Library
    calls: list
    decls: dict
    dr: _Draft
    seen: Mapping
    tails: Mapping
    strips: Mapping

    def expr(self, e: ExprAst) -> Expr:
        """`e` where an ontology is expected, each call's arguments checked
        and its edge recorded before those of the calls in them: caller,
        callee, whether an argument shrinks a list of the caller, position.
        `G[]` on a 0-parameter definition is the reference `G`."""
        t = type(e)
        if t is BlockExpr:
            return BlockTemplate(e.frames, (self.dr.chain, self.tails), e.pos)
        if t is ThenExpr:
            return tuple([self.expr(term) for term in e.terms])
        if e.name in self.seen:
            raise UnknownReference(
                f"'{e.name}' is a parameter of '{self.seen[e.name][0]}', not an ontology or pattern", e.pos
            )
        # a local is a call `up` definitions out from its definer's
        target, up = self.dr.visible.get(e.name), None
        if target is not None:
            up = self.dr.d.qual.count("::") + 1 - target.qual.count("::")
        else:
            target = self.lib.defs.get(e.name)
        caller = self.dr.d.qual
        if target is None or t is RefExpr or not self.decls[target.qual] and e.args == _EMPTY_ARGS:
            call = _reference(e.name, target, up, e.pos)
            self.calls.append((caller, target.qual, False, e.pos))
            return call
        edge = len(self.calls)
        self.calls.append(None)
        forms = _check_args(target.name, self.decls[target.qual], e.args, e.pos, self.arg)
        # only a list that ends in an own tail can shrink
        shrinks = bool(self.strips) and any(_arg_shrinks(f, self.strips) for f in forms if type(f) is ListArg)
        self.calls[edge] = (caller, target.qual, shrinks, e.pos)
        return Call(target.qual, tuple(forms), up, e.pos, self.dr.chain)

    def arg(self, a: ArgAst, shape: ListTemplate | FlatOntology) -> ArgumentForm | _ExprArg:
        """`a` as a form for `_check_arg` to fit to a parameter of `shape`: a
        list tail is a `ListVar` item, a bare one the list `[] :: tail`; any
        other name of a parameter or of no definition is a symbol, and so is a
        bare name that a list parameter gets, which takes no fits and no
        unbound `::` tail. No symbol, list item or fit target is a list tail
        or has one among its parts."""
        v, t = a.value, type(a.value)
        listed = type(shape) is ListTemplate
        if a.fits and listed:
            raise UnsupportedArgument(_LIST_FITS, a.pos)
        if t in (MissingArg, EmptyArg):
            if a.fits:
                raise UnsupportedArgument(_EMPTY_FITS, a.pos)
            return EmptyOptArg(a.pos)
        if t is ListArgAst:
            if v.tail is not None and v.tail not in self.tails and listed:
                raise _not_a_list(v.tail.render(), a.pos)
            items = tuple([self.tails.get(n, n) for n in (v.items if v.tail is None else (*v.items, v.tail))])
            if self.tails:
                _no_tails(items, self.tails, a.pos)
            return ListArg(items, a.pos)
        if t in (RefExpr, InstExpr):
            owner, tail = self.seen.get(v.name, (None, False))
            bare = t is RefExpr
            if tail and bare:
                return ListArg((self.tails[NameTerm(v.name)],), a.pos)
            target = self.dr.visible.get(v.name) or self.lib.defs.get(v.name)
            if owner or (bare and listed) or target is None:
                v = NameTerm(v.name) if bare else expr_to_name_term(v) or v
            elif bare and target.arity != 0:
                raise ArityMismatch(
                    f"'{v.name}' is generic and needs arguments to be used as an argument", a.pos
                )
        if self.tails and (a.fits or type(v) is NameTerm and (v in self.tails or v.args)):
            _no_tails((v, *map(itemgetter(1), a.fits)), self.tails, a.pos)  # nor a symbol or a fit target
        if type(v) is NameTerm:
            return LocalSymbolArg(v, a.fits, a.pos)
        if not listed:  # at a list parameter it is no name, as `_check_arg` says
            v = self.expr(v)
        return _ExprArg(v, a.fits, a.pos)


# -- recursion guard -----------------------------------------------------------

def _arg_shrinks(a: ListArg, strips: dict[str, int]) -> bool:
    """Whether the list `a` ends in the caller's own tail, with fewer items
    before it than that tail's template strips and none of them a spliced
    tail, whose length is unknown; a bare tail is `[] :: tail`."""
    last = a.items[-1] if a.items else None
    return type(last) is ListVar and last.up == 0 and len(a.items) - 1 < strips[last.name] and (
        list(map(type, a.items)).count(ListVar) == 1
    )


def _check_cycles(nodes: set[str], edges: list) -> dict[str, int]:
    """Raise on an illegal cycle; return each node's call-graph component.
    `edges` are (caller, callee, whether it shrinks a list, position), and
    (importer, import, None, position)."""
    adj: dict[str, set[str]] = {n: set() for n in nodes}
    for src, dst, _, _ in edges:
        adj[src].add(dst)
    comp = _tarjan_scc(nodes, adj)
    for src, dst, shrinks, pos in edges:
        if comp[src] == comp[dst] and not shrinks:
            raise IllegalCycle(
                f"'{src}' imports '{dst}', and this import closes a cycle" if shrinks is None else
                f"recursive call from '{src}' to '{dst}' does not strictly shrink a list parameter",
                pos,
            )
    return comp


def _tarjan_scc(nodes: set[str], adj: dict[str, set[str]]) -> dict[str, int]:
    """Each node's strongly connected component, numbered callees first:
    Tarjan's algorithm without recursion, taking roots and successors in
    sorted order."""
    index, low, stack, comp, count = {}, {}, [], {}, 0  # comp: node -> its component
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
