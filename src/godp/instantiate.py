"""The expansion engine.

Derives fitting morphisms for the three argument forms (named ontology,
anonymous ontology, local-environment symbol), checks compatibility and
parameter constraints, elides optional parameters, recurses over list
parameters with first-match template selection, and produces flat ontologies
under the Same Name - Same Thing union.

Each of these has one implementation, the one `expand`/`expand_named` run:
the public helpers `derive_fitting`, `check_compatibility`,
`check_constraints`, `match_template` and `elide_optional` are entry points
into it. One check, `_check_arg`, fits an argument form (defined beside
`Call` in `elaborate`) to its parameter, with the same messages for every
entry point: `build_library` runs it once on each call in `.gdp` text,
`expand` and `derive_fitting` when they are called. Those two then resolve
what the Python API alone gives (`_entry_form`): a `NamedOntologyArg` is the
`Call` that its name written bare in `.gdp` text is, and an `AnonymousArg` an
expression whose value is its ontology. The engine takes the checked forms
as they are, and only substitutes the caller's names in them.

An elided optional symbol becomes a placeholder, a name whose base starts with
`?` as no identifier in `.gdp` text can, so `is_placeholder` reads the name
alone. A placeholder lives until the instantiation that made it returns, so it
is numbered by that instantiation's depth inside the innermost closed
expansion and its own index there: unique among live ones, and unchanged by
memo hits. While it lives, its accumulator indexes what dies with it, by
`elide_optional`'s rule, and its instantiation ends by removing just that.

Calls, their argument forms and list tails arrive resolved by
`build_library`, so the engine looks no name up: a call names its callee by
qual, read from the library's table of every definition. A run holds only
what its own clause and parameters bind. It is read through its display, the
tuple of its own `Bindings` and its definers' runs, innermost first: a name
or `ListVar` bound `up` definitions out is read from `runs[up]`
(`blocks.compile_names`), and a local callee's definers are `runs[up:]`.
Every name a run reads, in a block, in a call's arguments, in a fit or in a
parameter's constraints, comes from a plan compiled once per library when it
is first read (`BlockTemplate.plan`, `Call.plan`, `ParamSpec.plan`). A list
head or tail that its run's clause does not bind is an error when it is
read. Nothing a run makes points back at its caller or at a definition, so a
finished expansion is freed by reference counting alone.

One private `Accumulator` serves each closed expansion, each ontology
argument (seeded from the environment its instantiation starts from) and
each `expand` or `derive_fitting` call; instantiations write into it, each
write a name -> kind map and axioms (`Accumulator.merge`), and elide their
own placeholders from it in place. It is frozen only where a value leaves
the engine: a memo entry, a top-level result or an argument being fitted. A
list binding keeps the kind its items were declared with, so a tail passed
on to a list parameter of that kind is not checked again, only the heads.

Expansion is pure over an immutable Library. Every top-level call gets its own
context. A closed expansion, a 0-parameter library definition reached by name
(a target, an import, a reference in a body or an argument), runs on a budget
of its own of `depth` ticks: each instantiation costs one, and the reference
costs its caller one, paid before the memo is read. Closed expansions live
only in the library's memo, which every one that runs joins and all later
calls share: an entry holds the ontology or the error, and `need`, the least
depth that gives it again. An entry whose `need` is within the depth is taken
as it is, in one lookup; a DepthExceeded is kept for its depth. So an
outcome depends only on the target and the depth, not on what ran before,
and independent expansions can run concurrently.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Iterable, NamedTuple, Sequence

from .blocks import BlockTemplate, ListVar, _splice, compile_names, fill_block, fill_names
from .core import (
    EMPTY_ONTOLOGY,
    Accumulator,
    Axiom,
    FittingMorphism,
    FlatOntology,
    NameTerm,
    Symbol,
    SymbolKind,
    make_ontology,  # noqa: F401 (the benchmark's tracer wraps it in each engine module)
    union_flat,
)
from .diagnostics import (
    AmbiguousFitting,
    ArityMismatch,
    DepthExceeded,
    GodpError,
    IncompatibleFittings,
    KindMismatch,
    NoCandidate,
    NoMatch,
    SourcePos,
    UnmetConstraint,
    UnsupportedArgument,
)
from .elaborate import (  # the argument forms and their check live beside `Call`
    AnonymousArg,
    ArgumentForm,
    Clause,
    EmptyOptArg,
    Expr,
    Library,
    ListArg,
    LocalSymbolArg,
    NamedOntologyArg,
    ParamSpec,
    PatternDef,
    _check_arg,
    _check_args,
    _EMPTY_FITS,
    _ExprArg,
    _of,
    _reference,
)
from .record import Record, field, replace
from .syntax import ListTemplate

DEFAULT_DEPTH = 10_000


# ---------------------------------------------------------------------------
# Bindings and name substitution
# ---------------------------------------------------------------------------

class Bindings(Record, frozen=False):
    """One run of a clause: the names it binds itself (its list heads, its
    parameters' new symbols and fit sources that no run around it binds),
    and each list its own template tails bind, as (items, the kind of its
    template). It heads the run's display, followed by its definers' runs,
    where a slot's walk and a `ListVar` read the run `up` definitions out."""

    name_map: dict[NameTerm, NameTerm] = field(factory=dict)
    list_map: dict[str, tuple[tuple[NameTerm, ...], SymbolKind]] = field(factory=dict)


def substitute_name(n: NameTerm, b: Bindings) -> NameTerm:
    """Capture-free structural substitution of the names `b` binds, `n`
    compiled as a name of `b`'s own run, then filled: an exact binding for the
    whole term wins; otherwise a bound base is replaced (its image's arguments
    are prefixed when the image is itself parameterized) and arguments are
    substituted recursively. Unbound plain names pass through unchanged."""
    return fill_names(compile_names([n], (set(n.bases()),)), (b,))[n]


def is_placeholder(n: NameTerm) -> bool:
    """True iff `n` mentions an elided optional symbol."""
    return n.base.startswith("?") or any(map(is_placeholder, n.args))


# ---------------------------------------------------------------------------
# Engine context
# ---------------------------------------------------------------------------

class _Memo(NamedTuple):
    """A finished closed expansion, or one that failed with `error`, kept
    under its qual; one that failed with a DepthExceeded is kept under
    `(qual, depth)`. `need` is the least depth that gives it again: its own
    ticks, or more where a closed expansion it reached needs more."""

    ontology: FlatOntology | None
    need: int
    error: tuple[type, str, SourcePos | None] | None = None


class _Ctx(Record, frozen=False):
    """One top-level call. `budget` and `need` are those of the innermost
    closed expansion running, or of the call itself outside any: the ticks
    left of `depth`, and the greatest `need` of the closed expansions it
    reached."""

    lib: Library
    depth: int
    budget: int
    memo: dict
    need: int = 0
    running: int = 0  # instantiations running inside the innermost closed expansion

    def tick(self, pos: SourcePos | None) -> None:
        if self.budget <= 0:
            raise DepthExceeded("expansion depth budget exceeded", pos)
        self.budget -= 1


# ---------------------------------------------------------------------------
# Template matching
# ---------------------------------------------------------------------------

def _select_clause(clauses: Sequence[Clause], forms: Sequence[ArgumentForm | _ExprArg], owner: str | None,
                   pos: SourcePos | None) -> Clause:
    for clause in clauses:
        for p, f in zip(clause.params, forms):
            if type(p.shape) is ListTemplate and not p.shape.matches(len(f.items)):
                break
        else:
            return clause
    lengths = [len(f.items) for f in forms if isinstance(f, ListArg)]
    raise NoMatch(
        f"no template clause{_of(owner)} matches list argument length(s) "
        f"{lengths}; the instantiation is incorrect",
        pos,
    )


def match_template(clauses: Sequence[Clause], arg: ListArg) -> tuple[Clause, Bindings]:
    """First clause (source order) whose list template matches the argument's
    length structure, with head/tail bindings; raises NoMatch otherwise. The
    argument is checked as `expand` checks it."""
    if any(sum(p.is_list for p in c.params) != 1 for c in clauses):
        raise UnsupportedArgument("match_template expects clauses with exactly one list parameter")
    # the clauses of one pattern share their parameter shapes; the clause
    # test reads only the list position
    params = clauses[0].params if clauses else ()
    forms = [_check_arg(p.index, p.optional, p.shape, arg, None) if p.is_list else EmptyOptArg() for p in params]
    clause = _select_clause(clauses, forms, None, None)
    b = Bindings()
    for p, f in zip(clause.params, forms):
        if p.is_list:
            _bind_template(p.shape, f.items, b)
    return clause, b


def _bind_template(tmpl: ListTemplate, items: tuple[NameTerm, ...], b: Bindings) -> None:
    for head, item in zip(tmpl.heads, items):
        b.name_map[NameTerm(head)] = item
    if tmpl.tail is not None:
        b.list_map[tmpl.tail] = (items[len(tmpl.heads):], tmpl.kind)


# ---------------------------------------------------------------------------
# Fittings and constraints
# ---------------------------------------------------------------------------

def check_compatibility(fittings: Sequence[FittingMorphism]) -> None:
    """A symbol shared between parameters must map identically everywhere."""
    seen = (Bindings(),)
    for m in fittings:
        for src, dst in m.pairs:
            _bind_fit(seen, src.name, dst.name, ((0, False),), None)


def check_constraints(param_axioms: Iterable[Axiom], m: FittingMorphism, available: FlatOntology) -> None:
    """Translated parameter axioms must already hold (syntactic membership
    after canonicalization) in the available environment."""
    table = {src.name: dst.name for src, dst in m.pairs}
    _check_constraints(sorted(param_axioms, key=Axiom.sort_key), lambda n: table.get(n, n), available, None)


def _check_constraints(axioms: Iterable[Axiom], rename: Callable[[NameTerm], NameTerm],
                       available: FlatOntology | Accumulator, pos: SourcePos | None) -> None:
    for ax in axioms:  # in their order: the first that fails is reported
        translated = ax.rename(rename)
        if any(is_placeholder(n) for n, _ in translated.refs()):
            continue  # the elided branch contributes nothing to check
        if translated not in available.axioms:
            raise UnmetConstraint(
                f"argument does not satisfy required axiom: "
                f"{' '.join(translated.dump_fields())}",
                pos,
            )


def derive_fitting(
    param: ParamSpec,
    arg: ArgumentForm,
    env: FlatOntology,
    explicit: Sequence[tuple[NameTerm, NameTerm]] = (),
    lib: Library | None = None,
) -> FittingMorphism:
    """Derive the fitting morphism for one plain parameter, as `expand` does.

    `explicit` is appended to the argument's own fit map. Candidate symbols
    for ontology arguments are the argument's contribution beyond the local
    environment `env`; a local-symbol argument maps the parameter's single new
    symbol to its term, which must not clash with its kind in `env`. Fits of
    other symbols are checked against each other but are not part of the
    result. Resolving a NamedOntologyArg needs `lib`, whose memo it reads
    and fills. `arg`, with `explicit`, is checked against `param` and
    resolved as `expand` does it, and its fits are bound as the engine binds
    them, through `param.plan`, in a display of runs that bind nothing.
    """
    if param.is_list:
        raise UnsupportedArgument("derive_fitting applies to plain parameters")
    if isinstance(arg, EmptyOptArg) and explicit:
        raise UnsupportedArgument(_EMPTY_FITS, arg.pos)
    if not isinstance(arg, (EmptyOptArg, ListArg)):  # every other form has a fit map
        arg = replace(arg, fits=arg.fits + tuple(explicit))
    form = _entry_form(lib, _check_arg(param.index, param.optional, param.shape, arg, None))
    if isinstance(form, EmptyOptArg):
        return FittingMorphism.of({})
    runs = tuple([Bindings() for _ in param.scope])
    if isinstance(form, LocalSymbolArg):
        _fit_local(None, param, form, runs, Accumulator(env))
    else:
        ctx = _Ctx(lib, DEFAULT_DEPTH, DEFAULT_DEPTH, lib.memo if lib is not None else {})
        _fit_ontology(param, form, _evaluated(ctx, form.expr, env, ()), env, runs)
    return FittingMorphism.of(
        {n: Symbol(runs[0].name_map[n.name], n.kind) for n in param.new_symbols}
    )


def _bind_fit(runs: tuple, src: NameTerm, dst: NameTerm, walk: Sequence, pos) -> None:
    """Bind the fit source `src` to `dst` in the run that heads the display
    `runs`; the first binding that its `walk`, from its parameter's plan,
    finds there or further out must agree. A list head unbound on the way is
    no binding: a fit reads none."""
    prior = next((v for up, _ in walk if (v := runs[up].name_map.get(src)) is not None), None)
    if prior is not None and prior != dst:
        raise IncompatibleFittings(
            f"'{src.render()}' is mapped both to '{prior.render()}' and to "
            f"'{dst.render()}'",
            pos,
        )
    runs[0].name_map[src] = dst


def _fit_local(owner: str | None, pspec: ParamSpec, form: LocalSymbolArg, runs: tuple, acc: Accumulator) -> None:
    if len(pspec.new_symbols) != 1:
        raise UnsupportedArgument(
            f"parameter {pspec.index + 1}{_of(owner)} defines "
            f"{len(pspec.new_symbols)} new symbols; a bare symbol argument fits "
            f"only single-symbol parameters",
            form.pos,
        )
    n = pspec.new_symbols[0]
    term = runs[0].name_map[n.name] = form.term  # a new symbol shadows what a definer binds
    for src, dst in form.fits:  # a fit of the parameter must agree
        _bind_fit(runs, src, dst, pspec.plan[0][src][1], form.pos)
    _declare(
        acc, ((term, n.kind),), form.pos,
        lambda t, k: f"'{t.render()}' has kind {k.value}, parameter "
        f"'{n.name.render()}' needs {n.kind.value}",
    )


def _fit_ontology(pspec: ParamSpec, form: _ExprArg, arg_ont: FlatOntology, env: FlatOntology, runs: tuple) -> None:
    explicit = dict(reversed(form.fits))  # a symbol's first fit; every fit is bound below
    kinds = arg_ont.kinds
    pool = sorted(kinds.keys() - env.kinds.keys(), key=NameTerm.key)  # `arg_ont` holds `env`
    for n in pspec.new_symbols:
        image = explicit.get(n.name)
        if image is not None:
            k = arg_ont.kind_of(image)
            if k is None:
                raise NoCandidate(
                    f"fit target '{image.render()}' is not a symbol of the argument",
                    form.pos,
                )
            if k is not n.kind:
                raise KindMismatch(
                    f"fit target '{image.render()}' has kind {k.value}, parameter "
                    f"'{n.name.render()}' needs {n.kind.value}",
                    form.pos,
                )
        else:
            candidates = [c for c in pool if kinds[c] is n.kind]
            if not candidates:
                raise NoCandidate(
                    f"no {n.kind.value} symbol in the argument to fit parameter "
                    f"'{n.name.render()}'",
                    form.pos,
                )
            if len(candidates) > 1:
                raise AmbiguousFitting(
                    f"parameter '{n.name.render()}' has {len(candidates)} "
                    f"{n.kind.value} candidates "
                    f"({', '.join(c.render() for c in candidates)}); "
                    f"give an explicit fit map",
                    form.pos,
                )
            image = candidates[0]
        runs[0].name_map[n.name] = image
    for src, dst in form.fits:
        _bind_fit(runs, src, dst, pspec.plan[0][src][1], form.pos)


# ---------------------------------------------------------------------------
# Elision
# ---------------------------------------------------------------------------

def elide_optional(body: FlatOntology, dead: Iterable[Symbol]) -> FlatOntology:
    """`body` less what dies with the dead symbols' names, by the rule an
    instantiation elides its placeholders by (`core._dead_in`)."""
    acc = Accumulator(body)
    acc.elide({s.name for s in dead}, body.kinds, body.axioms)
    return acc.freeze()


# ---------------------------------------------------------------------------
# The expansion proper
# ---------------------------------------------------------------------------

def _closed_expansion(ctx: _Ctx, d: PatternDef, pos) -> FlatOntology:
    """`d`, reached at `pos`, from the memo, or expanded on a budget of its
    own into the memo; an error it failed with is raised again."""
    ctx.tick(pos)  # the caller pays for the reference, hit or not
    entry = ctx.memo.get(d.qual)
    if entry is None or entry.need > ctx.depth:
        entry = ctx.memo.get((d.qual, ctx.depth))
    if entry is None:
        saved = ctx.budget, ctx.need, ctx.running
        ctx.budget, ctx.need, ctx.running = ctx.depth, 0, 0  # no placeholder is visible from outside
        key, acc = d.qual, Accumulator()
        try:
            _instantiate(ctx, d, (), [], acc, pos)
            ontology, error = acc.freeze(), None
        except GodpError as e:
            ontology, error = None, (type(e), e.message, e.pos)
            if isinstance(e, DepthExceeded):
                key = (d.qual, ctx.depth)
        need = max(ctx.need, ctx.depth - ctx.budget)
        ctx.budget, ctx.need, ctx.running = saved
        # never replaced: an entry already there equals this one
        entry = ctx.memo.setdefault(key, _Memo(ontology, need, error))
    ctx.need = max(ctx.need, entry.need)
    if entry.error is not None:
        raise entry.error[0](entry.error[1], entry.error[2])
    return entry.ontology


def _evaluated(ctx: _Ctx, expr: Expr | FlatOntology, env: FlatOntology, runs: tuple) -> FlatOntology:
    """An argument's value on top of `env`, in the display `runs`."""
    acc = Accumulator(env)
    _eval_expr(ctx, expr, acc, runs)
    return acc.freeze()


def _eval_expr(ctx: _Ctx, expr: Expr | FlatOntology, acc: Accumulator, runs: tuple) -> None:
    """Write `expr`, in the display `runs`, into `acc`, term by term."""
    if type(expr) is FlatOntology:  # an `AnonymousArg`'s
        return acc.add(expr)
    for term in expr if type(expr) is tuple else (expr,):
        try:
            if type(term) is BlockTemplate:
                fill_block(term.plan, runs, acc)
                continue
            target = ctx.lib.quals[term.qual]
            if term.args is None and term.up is None:
                acc.add(_closed_expansion(ctx, target, term.pos))
                continue
            names = [fill_names(p, runs) for p in term.plan or ()]  # every head read before any tail
            forms = [_apply_form(f, n, runs) for f, n in zip(term.args, names)] if names else term.args or ()
            # a local shares the parameters around it: its definers' runs
            base = () if term.up is None else runs[term.up:]
            _instantiate(ctx, target, base, forms, acc, term.pos, runs)
        except GodpError as e:
            e.ensure_pos(term.pos)
            raise


class _Spliced(ListArg):
    """A list argument as a call passes it on: `items[heads:]` is the list
    that a run of the caller binds, its items declared with `kind`."""

    heads: int
    kind: SymbolKind


def _apply_form(form: ArgumentForm | _ExprArg, names: dict, runs: tuple) -> ArgumentForm | _ExprArg:
    """A call's checked argument form in the caller's display `runs`: its
    names read from `names`, its plan filled in `runs`, its list tails
    spliced."""
    if isinstance(form, ListArg):
        items = tuple(_splice(form.items, names, runs, form.pos))
        if form.items and type(last := form.items[-1]) is ListVar:
            tail, kind = runs[last.up].list_map[last.name]
            return _Spliced(items, form.pos, len(items) - len(tail), kind)
        return ListArg(items, form.pos)
    if isinstance(form, EmptyOptArg):
        return form
    # fit sources name the callee's parameter symbols and stay as written;
    # targets live in the caller's context and get substituted
    fits = tuple([(src, names[dst]) for src, dst in form.fits])
    if isinstance(form, LocalSymbolArg):
        return LocalSymbolArg(names[form.term], fits, form.pos)
    return _ExprArg(form.expr, fits, form.pos)


def _instantiate(ctx: _Ctx, target: PatternDef, base: tuple, forms: Sequence[ArgumentForm | _ExprArg],
                 acc: Accumulator, pos: SourcePos | None, caller: tuple = ()) -> None:
    """`target` run on the checked `forms`, into `acc`: its display is its own
    new run, then `base`, its definers' runs; expression arguments are
    evaluated in the `caller`'s display, on top of what `acc` held on entry."""
    ctx.tick(pos)
    level = ctx.running
    ctx.running += 1
    clause = _select_clause(target.clauses, forms, target.name, pos)
    runs = (Bindings({}, {}), *base)
    env = acc.freeze() if _ExprArg in map(type, forms) else None
    if target.imports:
        imports_ont = EMPTY_ONTOLOGY
        for imp in target.imports:
            imports_ont = union_flat(imports_ont, _closed_expansion(ctx, imp, pos))
        acc.add(imports_ont)
    dead = []  # its placeholders

    for pspec, form in zip(clause.params, forms):
        try:
            if type(shape := pspec.shape) is ListTemplate:
                items = form.items
                if type(form) is _Spliced and form.kind is shape.kind:
                    items = items[:form.heads]  # the rest were declared with this kind when bound
                _declare(
                    acc, zip(items, repeat(shape.kind)), form.pos,
                    lambda t, k: f"list item '{t.render()}' has kind {k.value}, "
                    f"expected {shape.kind.value}",
                )
                _bind_template(shape, form.items, runs[0])
            elif isinstance(form, EmptyOptArg):
                for s in pspec.new_symbols:  # each a fresh placeholder
                    ph = runs[0].name_map[s.name] = NameTerm(f"?{s.name.base}_{level}_{len(dead)}")
                    dead.append(ph)
                    acc.open(ph, s.kind)
            else:
                if isinstance(form, LocalSymbolArg):
                    _fit_local(target.name, pspec, form, runs, acc)
                else:  # evaluated on top of env, in the caller's display
                    added = _evaluated(ctx, form.expr, env, caller)
                    _fit_ontology(pspec, form, added, env, runs)
                    acc.add(added)
                if shape.axioms or pspec.scope[1:]:  # a local's frames may name a definer's list head
                    plan, checks = pspec.plan
                    if checks is not None:
                        _check_constraints(checks, fill_names(plan, runs).__getitem__, acc, form.pos)
        except GodpError as e:
            e.ensure_pos(form.pos or pos)
            raise

    _eval_expr(ctx, clause.body, acc, runs)
    if dead:
        acc.close(dead)
    ctx.running -= 1


def _declare(acc: Accumulator, terms: Iterable[tuple[NameTerm, SymbolKind]], pos: SourcePos | None,
             clash: Callable[[NameTerm, SymbolKind], str]) -> None:
    """Declare in `acc` each term it lacks, with its kind. A term it has
    with another kind is a KindMismatch with the text
    `clash(term, kind found)`, unless the term is a placeholder: every
    sentence that mentions one goes anyway."""
    new = {}
    held = acc.kinds
    for term, kind in terms:
        found = held.get(term)
        if found is None:
            new[term] = kind
        elif found is not kind and not is_placeholder(term):
            raise KindMismatch(clash(term, found), pos)
    if new:
        acc.merge(new, ())


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

class Instantiation(Record):
    pattern: str
    args: tuple[ArgumentForm, ...]
    local_env: FlatOntology = EMPTY_ONTOLOGY


def _entry_form(lib: Library | None, form: ArgumentForm) -> ArgumentForm | _ExprArg:
    """A checked argument form as the engine runs it: a `NamedOntologyArg` as
    the bare reference to its name, an `AnonymousArg` as its ontology."""
    if isinstance(form, NamedOntologyArg):
        if lib is None:
            raise UnsupportedArgument("resolving a named ontology argument needs the library")
        return _ExprArg(_reference(form.name, lib.defs.get(form.name), None, form.pos), form.fits, form.pos)
    if isinstance(form, AnonymousArg):
        return _ExprArg(form.ontology, form.fits, form.pos)
    return form


def expand(lib: Library, inst: Instantiation, depth: int = DEFAULT_DEPTH) -> FlatOntology:
    """Expand one instantiation against its local environment; its arguments,
    and those left out at the end, are checked as in `.gdp` text, then
    resolved."""
    ctx = _Ctx(lib, depth, depth, lib.memo)
    target = lib.require(inst.pattern)
    decls = [(p.optional, p.shape) for p in target.clauses[0].params]
    forms = [_entry_form(lib, f) for f in _check_args(target.name, decls, inst.args, None)]
    acc = Accumulator(inst.local_env)
    _instantiate(ctx, target, (), forms, acc, None)
    return acc.freeze()


def expand_named(lib: Library, name: str, depth: int = DEFAULT_DEPTH) -> FlatOntology:
    """Expand a 0-parameter definition to its flat ontology."""
    ctx = _Ctx(lib, depth, depth, lib.memo)
    target = lib.require(name)
    if target.arity != 0:
        raise ArityMismatch(f"'{name}' is generic and needs arguments", target.pos)
    return _closed_expansion(ctx, target, target.pos)
