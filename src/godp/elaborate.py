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

A definition's parameters see its imports and, for a local, all that its
definer's first-clause parameters see; each one also sees those before it in
its clause. A plain parameter's new symbols are what it adds, computed once
for the clauses that bind the same list heads before it. Each frozen `Clause`
is made once, with its resolved body, in an order where each import is
expanded (by `instantiate.expand_named`, with a fresh default depth budget)
only after everything it reaches has its clauses. Once `build_library`
returns, nothing in the Library changes but its memo and the plans its
blocks are compiled into when they first run.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence, Union

from .blocks import BlockTemplate, ListVar, _compiled, _not_a_list, build_block, compile_names
from .core import EMPTY_ONTOLOGY, FlatOntology, NameTerm, Symbol, make_ontology, union_flat
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
from .record import Record, field, replace
from .syntax import (
    ArgAst,
    BlockExpr,
    EmptyArg,
    ExprAst,
    Frame,
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

class PlainShape(Record):
    frames: tuple[Frame, ...]
    delta: FlatOntology
    new_symbols: tuple[Symbol, ...]


class ParamSpec(Record):
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
Expr = Union[Call, BlockTemplate, tuple]


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


ArgumentForm = Union[NamedOntologyArg, AnonymousArg, LocalSymbolArg, EmptyOptArg, ListArg]

_LIST_FITS = "fit maps are not allowed on list arguments"
_EMPTY_FITS = "fit maps are meaningless on an empty argument"


def _of(owner: str | None) -> str:
    """The pattern part of a message; helpers called without one leave it out."""
    return f" of '{owner}'" if owner is not None else ""


def _check_arg(
    pspec: ParamSpec, form: ArgumentForm | _ExprArg, owner: str | None
) -> ArgumentForm | _ExprArg:
    """`form` fitted to `pspec` as `.gdp` text is: a list parameter takes a
    list, an empty argument as the empty list and a bare name without fits as
    a one-item list; a plain parameter takes any other form, an empty one
    only if it is optional, and fits only of its own symbols."""
    if pspec.is_list:
        if isinstance(form, ListArg):
            return form
        if isinstance(form, EmptyOptArg):
            return ListArg((), form.pos)
        if form.fits:
            raise UnsupportedArgument(_LIST_FITS, form.pos)
        if isinstance(form, LocalSymbolArg):
            return ListArg((form.term,), form.pos)
        if isinstance(form, NamedOntologyArg):
            return ListArg((NameTerm(form.name),), form.pos)
        raise UnsupportedArgument("a list argument must be a comma or '::' list of names", form.pos)
    if isinstance(form, ListArg):
        raise UnsupportedArgument("list argument given for a non-list parameter", form.pos)
    if isinstance(form, EmptyOptArg):
        if not pspec.optional:
            raise MissingArgument(
                f"missing argument for non-optional parameter {pspec.index + 1}{_of(owner)}",
                form.pos,
            )
        return form
    for src, _ in form.fits:
        if src not in pspec.shape.delta.kinds:
            raise UnsupportedArgument(
                f"fit source '{src.render()}' is not a symbol of parameter {pspec.index + 1}{_of(owner)}",
                form.pos,
            )
    return form


def _check_args(
    name: str,
    params: Sequence[ParamSpec],
    args: Sequence,
    pos: SourcePos | None,
    convert: Callable[[object, ParamSpec], ArgumentForm | _ExprArg] = lambda a, p: a,
) -> list[ArgumentForm | _ExprArg]:
    """The arguments of a call of `name`, which has `params` (its first
    clause's), each made a form by `convert` and checked by `_check_arg` in
    turn; left-out trailing ones are empty, which no list parameter takes."""
    if len(args) > len(params):
        raise ArityMismatch(f"'{name}' takes {len(params)} argument(s), got {len(args)}", pos)
    forms = [_check_arg(p, convert(a, p), name) for p, a in zip(params, args)]
    for p in params[len(args):]:
        if p.is_list:
            raise ArityMismatch(f"missing argument for list parameter {p.index + 1} of '{name}'", pos)
        forms.append(_check_arg(p, EmptyOptArg(pos), name))
    return forms


class Clause(Record):
    params: tuple[ParamSpec, ...]
    body: Expr
    scope: tuple = field((), compare=False)  # its definition's `_Draft.chain`


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

    def shape_words(self) -> list[str]:
        return [p.shape_word for p in self.clauses[0].params]


class Library(Record, frozen=False):
    defs: dict[str, PatternDef]
    quals: dict[str, PatternDef] = field(compare=False)  # every definition by qual, locals too
    # finished 0-parameter expansions by qual, filled as they are used
    # (instantiate._Memo); entries are written child before parent and never
    # replaced, so threads may share it
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
            ka, kb = a.payload.kind, b.payload.kind
            if ka is not None and kb is not None and ka is not kb:
                raise DuplicateDefinition(
                    f"clauses of '{name}' disagree on the kind of list parameter {i + 1}",
                    other.pos,
                )


class _Draft(Record, frozen=False):
    """A definition until build_library makes its clauses: each clause's AST
    and parameters, a plain one shared by all clauses with its new symbols
    not yet known, then each clause's resolved body. `parent` is the draft
    of a local's definer."""

    d: PatternDef
    asts: list[PatternDefAst]
    params: list[tuple[ParamSpec, ...]]
    bodies: list[Expr] = field(factory=list)
    chain: tuple = ()  # what its parameters bind (`_param_names`) over its clauses, then each definer's
    rank: int = 0  # its place in the order that makes the clauses
    sees: FlatOntology = EMPTY_ONTOLOGY  # what its locals' parameters see
    parent: "_Draft | None" = field(None, compare=False)


def _build_def(
    name: str, clause_asts: list[PatternDefAst], qual: str, parent: _Draft | None, deltas: dict
) -> list[_Draft]:
    """The drafts of the definition `name` and of its locals, a definition
    before its locals; `deltas` holds each plain parameter's frames built."""
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
    tree = [_Draft(d, clause_asts, [], [], (), 0, EMPTY_ONTOLOGY, parent)]
    # locals from all clause defs merge; same-name local defs become clauses
    local_asts: dict[str, list[PatternDefAst]] = {}
    for ca in clause_asts:
        for loc in ca.locals:
            local_asts.setdefault(loc.name, []).append(loc)
    for lname, lasts in local_asts.items():
        sub = _build_def(lname, lasts, f"{qual}::{lname}", tree[0], deltas)
        d.locals[lname] = sub[0].d
        tree += sub

    plain: dict[int, ParamSpec] = {}
    for ca in clause_asts:
        params: list[ParamSpec] = []
        for i, p in enumerate(ca.params):
            pl = p.payload
            if isinstance(pl, ListTemplate):
                params.append(ParamSpec(i, p.optional, pl))
                continue
            if i not in plain:  # clauses share plain parameters
                delta = deltas.get(pl.frames) or deltas.setdefault(pl.frames, build_block(pl.frames))
                plain[i] = ParamSpec(i, p.optional, PlainShape(pl.frames, delta, ()))
            params.append(plain[i])
        tree[0].params.append(tuple(params))
    return tree


def build_library(ast: LibraryAst) -> Library:
    """Resolve an AST into an immutable Library; validates names, clause
    consistency, sequential environments, imports, and recursion legality."""
    from .instantiate import expand_named  # circular at module level by design

    grouped: dict[str, list[PatternDefAst]] = {}
    for item in ast.items:
        grouped.setdefault(item.name, []).append(item)
    deltas: dict[tuple[Frame, ...], FlatOntology] = {}
    trees = [_build_def(name, asts, name, None, deltas) for name, asts in grouped.items()]
    drafts = [dr for tree in trees for dr in tree]
    lib = Library({tree[0].d.name: tree[0].d for tree in trees}, {dr.d.qual: dr.d for dr in drafts})
    # a call's arguments are checked against these: whether each is a list,
    # optional, its index and a plain one's symbols are read, all final here
    shapes = {dr.d.qual: dr.params[0] for dr in drafts}

    calls: list = []  # the recursion guard's edges, one per call as it is resolved
    for tree in trees:  # a definition's imports and its locals', then their bodies
        for dr in tree:
            dr.d.imports = tuple(_import(lib, dr.d, name) for name in dr.asts[0].given)
        for dr in tree:
            _resolve(lib, dr, shapes, calls)
    imports = [(dr.d.qual, imp.qual, False, dr.d.pos) for dr in drafts for imp in dr.d.imports]
    comp = _check_cycles(set(shapes), calls + imports)

    # An import is expanded only after every definition it reaches has its
    # clauses. Those lie in the import's component or lower ones, and so do
    # their definers. So a definition comes after its definers and after the
    # components of its imports, as a library definition's own component is.
    for dr in drafts:
        outer = dr.parent.rank if dr.parent else comp[dr.d.qual]
        dr.rank = max([outer] + [comp[imp.qual] + 1 for imp in dr.d.imports])
    for dr in sorted(drafts, key=lambda dr: dr.rank):  # stable: definers first
        env = dr.parent.sees if dr.parent else EMPTY_ONTOLOGY
        for imp in dr.d.imports:
            try:  # a clash between imports, or with the definers' parameters
                env = union_flat(env, expand_named(lib, imp.name))
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


def _clauses(dr: _Draft, env: FlatOntology) -> tuple[tuple[Clause, ...], FlatOntology]:
    """The clauses of a definition whose parameters see `env`, and what its
    locals see: `env` and the first clause's parameters, list heads included.
    Each parameter sees `env` and the parameters before it in its clause; a
    plain one's new symbols are those it adds. Clauses that bind the same list
    heads before a plain parameter share it, its new symbols computed once."""
    plain: dict = {}  # (index, heads bound before it) -> (parameter, what the next one sees)
    clauses, sees = [], []
    for ast, params, body in zip(dr.asts, dr.params, dr.bodies):
        cur, heads, final = env, (), []
        for p in params:
            try:  # a clash is at a list parameter, or at a plain one's first frame
                if p.is_list:
                    bound = tuple(Symbol(NameTerm(h), p.shape.kind) for h in p.shape.heads)
                    cur, heads = union_flat(cur, make_ontology(bound, [])), heads + bound
                else:
                    if (p.index, heads) not in plain:
                        after = union_flat(cur, p.shape.delta)  # well-formedness in this environment
                        new = tuple(sorted(p.shape.delta.signature - cur.signature, key=Symbol.key))
                        plain[p.index, heads] = replace(p, shape=replace(p.shape, new_symbols=new)), after
                    p, cur = plain[p.index, heads]
            except GodpError as e:
                e.ensure_pos(ast.params[p.index].pos if p.is_list else p.shape.frames[0].pos)
                raise
            final.append(p)
        clauses.append(Clause(tuple(final), body, dr.chain))
        sees.append(cur)
    return tuple(clauses), sees[0]


# -- name resolution -------------------------------------------------------------

def _param_names(d: PatternDef, params: tuple) -> tuple[dict[str, tuple[str, bool | None]], set[str]]:
    """Each name a clause's parameters bind, with the qual of `d` and whether
    it is a list tail (None: a list head), the last binding of a name
    counting; and the tails that a later parameter binds again. A plain
    parameter binds the bases of its names."""
    names, hidden = {}, set()
    plain, head, tail = (d.qual, False), (d.qual, None), (d.qual, True)
    for p in reversed(params):
        if not p.is_list:
            for s in p.shape.delta.signature:
                for b in s.name.bases():
                    names.setdefault(b, plain)
            continue
        if p.shape.tail is not None and names.setdefault(p.shape.tail, tail) is not tail:
            hidden.add(p.shape.tail)
        for h in p.shape.heads:
            names.setdefault(h, head)
    return names, hidden


def _resolve(lib: Library, dr: _Draft, shapes: dict[str, tuple[ParamSpec, ...]], calls: list) -> None:
    """Resolve the clause bodies of `dr`, its definers' done; `shapes` holds
    the first-clause parameters of every definition, `calls` gets the
    recursion guard's edge for each call resolved."""
    d, own = dr.d, []
    outer = dr.parent.chain if dr.parent is not None else ()
    above = {n: v for names in reversed(outer) for n, v in names.items()}  # the innermost counts
    for i, params in enumerate(dr.params):
        names, hidden = _param_names(d, params)
        if hidden:  # so a run never holds a list its clause last bound as a symbol
            dr.params[i] = tuple(
                replace(p, shape=replace(p.shape, tail=None)) if p.is_list and p.shape.tail in hidden else p
                for p in params
            )
        own.append(names)
    # what the locals see: a name some clause binds is the definition's, a
    # list tail if some clause binds it as one, else a head only if no clause
    # binds it plain (plain parameters are every clause's, so bound each run)
    merged = {}
    for names in own:
        merged.update(names)
    for role in (False, True) if len(own) > 1 else ():
        merged.update({n: v for names in own for n, v in names.items() if v[1] is role})
    dr.chain = (merged, *outer)
    for name, loc in d.locals.items():
        if owner := merged.get(name) or above.get(name):
            raise DuplicateDefinition(
                f"local '{name}' of '{d.qual}' has the name of a parameter of '{owner[0]}'", loc.pos
            )
    level = d.qual.count("::")  # a definer's qual is a prefix of d's, one level shorter each
    dr.bodies = []
    for ca, params, names in zip(dr.asts, dr.params, own):
        seen = {**above, **names}
        tails = {NameTerm(n): ListVar(n, level - q.count("::")) for n, (q, t) in seen.items() if t}
        strips = {p.shape.tail: p.shape.min_len for p in params if p.is_list and p.shape.tail}
        dr.bodies.append(_Scope(lib, seen, tails, dr, shapes, strips, calls).expr(ca.body))


def _reference(name: str, target: PatternDef | None, up: int | None, pos: SourcePos | None) -> Call:
    """The call that a bare reference to `name` is, `target` being the
    definition it names (None: none) and `up` as in `Call`; only a
    0-parameter definition can be named without arguments."""
    if target is None:
        raise UnknownReference(f"unknown ontology or pattern '{name}'", pos)
    if target.arity != 0:
        raise ArityMismatch(f"'{name}' is generic: {target.arity} argument(s) required", pos)
    return Call(target.qual, None, up, pos)


class _Scope(NamedTuple):
    """What the names of one clause body of `dr` mean; `params` maps each
    parameter name it sees as `_param_names` does, the innermost binding
    counting, `tails` each list tail among them to its `ListVar`, `shapes`
    each definition's first-clause parameters, and `strips` each of the
    clause's own tails to the items its template strips. Each call resolved
    adds its edge to `calls`."""

    lib: Library
    params: dict[str, tuple[str, bool | None]]
    tails: dict[NameTerm, ListVar]
    dr: _Draft
    shapes: dict[str, tuple[ParamSpec, ...]]
    strips: dict[str, int]
    calls: list

    def definition(self, name: str) -> tuple[PatternDef | None, int | None]:
        up, cur = 0, self.dr
        while cur is not None and name not in cur.d.locals:
            cur, up = cur.parent, up + 1
        return (cur.d.locals[name], up) if cur is not None else (self.lib.defs.get(name), None)

    def expr(self, e: ExprAst) -> Expr:
        """`e` where an ontology is expected, each call's arguments checked
        and its edge recorded before those of the calls in them: caller,
        callee, whether an argument shrinks a list of the caller, position."""
        if isinstance(e, ThenExpr):
            return tuple([self.expr(t) for t in e.terms])
        if isinstance(e, BlockExpr):
            return BlockTemplate(e.frames, (self.dr.chain, self.tails), e.pos)
        if e.name in self.params:
            raise UnknownReference(
                f"'{e.name}' is a parameter of '{self.params[e.name][0]}', not an "
                f"ontology or pattern",
                e.pos,
            )
        target, up = self.definition(e.name)
        if target is None or isinstance(e, RefExpr):
            call = _reference(e.name, target, up, e.pos)
            self.calls.append((self.dr.d.qual, target.qual, False, e.pos))
            return call
        params, args = self.shapes[target.qual], e.args
        if not params and len(args) == 1 and isinstance(args[0].value, MissingArg):
            args = ()  # G[] on a 0-parameter pattern
        edge = len(self.calls)
        self.calls.append(None)
        forms = _check_args(target.name, params, args, e.pos, self.arg)
        shrinks = any(_arg_shrinks(a, self.strips) for a in forms)
        self.calls[edge] = (self.dr.d.qual, target.qual, shrinks, e.pos)
        return Call(target.qual, tuple(forms), up, e.pos, self.dr.chain)

    def arg(self, a: ArgAst, p: ParamSpec) -> ArgumentForm | _ExprArg:
        """`a` as a form for `_check_arg` to fit to `p`: a list tail is a
        `ListVar` item, a bare one the list `[] :: tail`; any other name of a
        parameter or of no definition is a symbol, and so is a bare name that
        a list parameter gets, which takes no fits and no unbound `::` tail."""
        v = a.value
        if a.fits and p.is_list:
            raise UnsupportedArgument(_LIST_FITS, a.pos)
        if isinstance(v, (MissingArg, EmptyArg)):
            if a.fits:
                raise UnsupportedArgument(_EMPTY_FITS, a.pos)
            return EmptyOptArg(a.pos)
        if isinstance(v, ListArgAst):
            if v.tail is not None and v.tail not in self.tails and p.is_list:
                raise _not_a_list(v.tail.render(), a.pos)
            items = v.items if v.tail is None else (*v.items, v.tail)
            return ListArg(tuple([self.tails.get(n, n) for n in items]), a.pos)
        if isinstance(v, (RefExpr, InstExpr)):
            owner, tail = self.params.get(v.name, (None, False))
            bare = isinstance(v, RefExpr)
            if tail and bare:
                return ListArg((self.tails[NameTerm(v.name)],), a.pos)
            target = self.definition(v.name)[0]
            if owner or (bare and p.is_list) or target is None:
                v = expr_to_name_term(v) or v
            elif bare and target.arity != 0:
                raise ArityMismatch(
                    f"'{v.name}' is generic and needs arguments to be used as an argument", a.pos
                )
        if isinstance(v, NameTerm):
            return LocalSymbolArg(v, a.fits, a.pos)
        if not p.is_list:  # at a list parameter it is no name, as `_check_arg` says
            v = self.expr(v)
        return _ExprArg(v, a.fits, a.pos)


# -- recursion guard -----------------------------------------------------------

def _arg_shrinks(a: ArgumentForm | _ExprArg, strips: dict[str, int]) -> bool:
    """Whether `a` is a list that ends in the caller's own tail, with fewer
    items before it than that tail's template strips and none of them a
    spliced tail, whose length is unknown; a bare tail is `[] :: tail`."""
    items = a.items if isinstance(a, ListArg) else ()
    last = items[-1] if items else None
    return isinstance(last, ListVar) and last.up == 0 and len(items) - 1 < strips[last.name] and (
        sum(isinstance(n, ListVar) for n in items) == 1
    )


def _check_cycles(nodes: set[str], edges: list) -> dict[str, int]:
    """Raise on an illegal cycle; return each node's call-graph component."""
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
