"""The expansion engine.

Derives fitting morphisms for the three argument forms (named ontology,
anonymous ontology, local-environment symbol), checks compatibility and
parameter constraints, elides optional parameters, recurses over list
parameters with first-match template selection, and produces flat ontologies
under the Same Name - Same Thing union.

Each of these has one implementation, the one `expand`/`expand_named` run:
the public helpers `derive_fitting`, `check_compatibility`,
`check_constraints`, `match_template` and `elide_optional` are entry points
into it, and the engine itself works on the public argument forms
(`NamedOntologyArg` ... `ListArg`, defined beside `Call` in `elaborate`). One
check, `_check_arg`, fits a form to its parameter, with the same messages for
every entry point: `build_library` runs it once on each call in `.gdp` text,
`expand` and `derive_fitting` when they are called. The engine takes the
checked forms as they are, and only substitutes the caller's names in them.

An elided optional symbol becomes a placeholder, a name whose base starts with
`?` as no identifier in `.gdp` text can, so `is_placeholder` reads the name
alone. A placeholder lives until the instantiation that made it returns, so it
is numbered by that instantiation's depth inside the innermost closed
expansion and its own index there: unique among live ones, and unchanged by
memo hits.

Calls, their argument forms and list tails arrive resolved by
`build_library`; the engine looks up by name only the library definition a
`NamedOntologyArg` names. A runtime scope holds only bindings: a local
pattern's `parent` bindings are those of its definer's run, and each run's
`list_map` holds only its own clause's tails, which a `ListVar` reads from
the run it counts up to; one that the run lacks is an error when the call runs.

Expansion is pure over an immutable Library. Every top-level call gets its own
context: a depth budget and the names of the 0-parameter expansions it has
reached. Their ontologies live only in the library's memo, which every
finished 0-parameter expansion joins and all later calls share. A memo hit
charges exactly the ticks expanding it in this context would spend, so
budgets and `DepthExceeded` positions do not depend on what ran before, and
independent expansions can run concurrently.
"""

from __future__ import annotations

from itertools import repeat
from typing import AbstractSet, Callable, Iterable, NamedTuple, Sequence

from .core import (
    EMPTY_ONTOLOGY,
    Axiom,
    FittingMorphism,
    FlatOntology,
    NameTerm,
    Symbol,
    SymbolKind,
    _elide,
    make_ontology,
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
    Call,
    Clause,
    EmptyOptArg,
    Expr,
    Library,
    ListArg,
    ListTemplate,
    ListVar,
    LocalSymbolArg,
    NamedOntologyArg,
    ParamSpec,
    PatternDef,
    PlainShape,
    _check_arg,
    _check_args,
    _ExprArg,
    _not_a_list,
    _of,
    build_block,
)
from .record import Record, field, replace
from .syntax import BlockExpr

DEFAULT_DEPTH = 10_000


# ---------------------------------------------------------------------------
# Bindings and name substitution
# ---------------------------------------------------------------------------

class Bindings(Record, frozen=False):
    """One run of a clause: its parameter-name substitution, which starts as
    a copy of its definer's run's, and the list bindings of its own template
    tails. `parent` is the definer's run, for a local pattern; a `ListVar`
    reads the list of the run it counts `up` to."""

    name_map: dict[NameTerm, NameTerm] = field(factory=dict)
    list_map: dict[str, tuple[NameTerm, ...]] = field(factory=dict)
    parent: "Bindings | None" = field(None, compare=False)

    def child(self) -> "Bindings":
        return Bindings(dict(self.name_map), {}, self)

    def apply(self, n: NameTerm) -> NameTerm:
        return substitute_name(n, self)

    def outer(self, up: int) -> "Bindings":
        """The run `up` definers out."""
        b = self
        for _ in range(up):
            b = b.parent
        return b

    def apply_list(self, names: Iterable, pos: SourcePos | None = None) -> tuple[NameTerm, ...]:
        """`names` substituted, each list tail (a `ListVar`) spliced into the
        items its run bound; a tail that run's clause lacks is an error."""
        out: list[NameTerm] = []
        for n in names:
            if not isinstance(n, ListVar):
                out.append(substitute_name(n, self))
                continue
            items = self.outer(n.up).list_map.get(n.name)
            if items is None:
                raise _not_a_list(n.name, pos)
            out.extend(items)
        return tuple(out)


EMPTY_BINDINGS = Bindings()


def substitute_name(n: NameTerm, b: Bindings) -> NameTerm:
    """Capture-free structural substitution of bound parameter names.

    An exact binding for the whole term wins; otherwise a bound base is
    replaced (its image's arguments are prefixed when the image is itself
    parameterized) and arguments are substituted recursively. Unbound plain
    names pass through unchanged.
    """
    exact = b.name_map.get(n)
    if exact is not None:
        return exact
    new_args = tuple(substitute_name(a, b) for a in n.args)
    base_image = b.name_map.get(NameTerm(n.base))
    if base_image is not None:
        return NameTerm(base_image.base, base_image.args + new_args)
    if new_args != n.args:
        return NameTerm(n.base, new_args)
    return n


def _contains_base(n: NameTerm, bases: AbstractSet[str]) -> bool:
    return any(b in bases for b in n.bases())


def is_placeholder(n: NameTerm) -> bool:
    """True iff `n` mentions an elided optional symbol."""
    return n.base.startswith("?") or any(map(is_placeholder, n.args))


# ---------------------------------------------------------------------------
# Engine context
# ---------------------------------------------------------------------------

class _Memo(NamedTuple):
    """A finished 0-parameter expansion, or one that failed with `error`, not
    a DepthExceeded. `ticks` are its own, up to a failure: they leave out
    those of its nested closed lookups, listed in order (a failed one last)."""

    ontology: FlatOntology | None
    ticks: int
    lookups: tuple[str, ...]
    error: tuple[type, str, SourcePos | None] | None = None


class _Ctx(Record, frozen=False):
    lib: Library
    budget: int
    reached: set[str] = field(factory=set)  # closed expansions, read from memo
    memo: dict[str, _Memo] = field(factory=dict)
    # the running closed expansion: [nested lookups, their ticks]
    frame: list | None = None
    running: int = 0  # instantiations running inside the innermost closed expansion

    def tick(self, pos: SourcePos | None) -> None:
        if self.budget <= 0:
            raise DepthExceeded("expansion depth budget exceeded", pos)
        self.budget -= 1


# ---------------------------------------------------------------------------
# Template matching
# ---------------------------------------------------------------------------

def _clause_matches(clause: Clause, forms: Sequence[ArgumentForm | _ExprArg]) -> bool:
    for p, f in zip(clause.params, forms):
        if p.is_list and not p.shape.matches(len(f.items)):
            return False
    return True


def _select_clause(
    clauses: Sequence[Clause],
    forms: Sequence[ArgumentForm | _ExprArg],
    owner: str | None,
    pos: SourcePos | None,
) -> Clause:
    for clause in clauses:
        if _clause_matches(clause, forms):
            return clause
    lengths = [len(f.items) for f in forms if isinstance(f, ListArg)]
    raise NoMatch(
        f"no template clause{_of(owner)} matches list argument length(s) "
        f"{lengths}; the instantiation is incorrect",
        pos,
    )


def match_template(
    clauses: Sequence[Clause], arg: ListArg
) -> tuple[Clause, Bindings]:
    """First clause (source order) whose list template matches the argument's
    length structure, with head/tail bindings; raises NoMatch otherwise. The
    argument is checked as `expand` checks it."""
    if any(sum(p.is_list for p in c.params) != 1 for c in clauses):
        raise UnsupportedArgument(
            "match_template expects clauses with exactly one list parameter"
        )
    # the clauses of one pattern share their parameter shapes; the clause
    # test reads only the list position
    params = clauses[0].params if clauses else ()
    forms = [_check_arg(p, arg, None) if p.is_list else EmptyOptArg() for p in params]
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
        b.list_map[tmpl.tail] = items[tmpl.min_len:]


# ---------------------------------------------------------------------------
# Fittings and constraints
# ---------------------------------------------------------------------------

def check_compatibility(fittings: Sequence[FittingMorphism]) -> None:
    """A symbol shared between parameters must map identically everywhere."""
    seen = Bindings()
    for m in fittings:
        for src, dst in m.pairs:
            _bind_checked(seen, src.name, dst.name, None)


def check_constraints(
    param_axioms: Iterable[Axiom], m: FittingMorphism, available: FlatOntology
) -> None:
    """Translated parameter axioms must already hold (syntactic membership
    after canonicalization) in the available environment."""
    table = {src.name: dst.name for src, dst in m.pairs}
    _check_constraints(param_axioms, lambda n: table.get(n, n), available, None)


def _check_constraints(
    axioms: Iterable[Axiom],
    rename: Callable[[NameTerm], NameTerm],
    available: FlatOntology,
    pos: SourcePos | None,
) -> None:
    for ax in sorted(axioms, key=Axiom.sort_key):
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
    and fills. `arg` is checked against `param` as `expand` checks it.
    """
    if param.is_list:
        raise UnsupportedArgument("derive_fitting applies to plain parameters")
    if isinstance(_check_arg(param, arg, None), EmptyOptArg):
        return FittingMorphism.of({})
    if isinstance(arg, NamedOntologyArg) and lib is None:
        raise UnsupportedArgument("resolving a named ontology argument needs the library")
    arg = replace(arg, fits=arg.fits + tuple(explicit))
    sigma = Bindings()
    if isinstance(arg, LocalSymbolArg):
        _fit_local(None, param, arg, sigma, env)
    else:
        ctx = _Ctx(lib, DEFAULT_DEPTH, memo=lib.memo if lib is not None else {})
        arg_ont = _eval_arg_ontology(ctx, arg, env, EMPTY_BINDINGS)
        _fit_ontology(param, arg, arg_ont, env, sigma)
    return FittingMorphism.of(
        {n: Symbol(sigma.name_map[n.name], n.kind) for n in param.shape.new_symbols}
    )


def _bind_checked(sigma: Bindings, src: NameTerm, dst: NameTerm, pos) -> None:
    prior = sigma.name_map.get(src)
    if prior is not None and prior != dst:
        raise IncompatibleFittings(
            f"'{src.render()}' is mapped both to '{prior.render()}' and to "
            f"'{dst.render()}'",
            pos,
        )
    sigma.name_map[src] = dst


def _fit_local(
    owner: str | None,
    pspec: ParamSpec,
    form: LocalSymbolArg,
    sigma: Bindings,
    avail: FlatOntology,
) -> FlatOntology:
    shape: PlainShape = pspec.shape
    if len(shape.new_symbols) != 1:
        raise UnsupportedArgument(
            f"parameter {pspec.index + 1}{_of(owner)} defines "
            f"{len(shape.new_symbols)} new symbols; a bare symbol argument fits "
            f"only single-symbol parameters",
            form.pos,
        )
    n = shape.new_symbols[0]
    term = form.term
    for src, dst in ((n.name, term), *form.fits):  # a fit of the parameter must agree
        _bind_checked(sigma, src, dst, form.pos)
    return _declare(
        avail, ((term, n.kind),), form.pos,
        lambda t, k: f"'{t.render()}' has kind {k.value}, parameter "
        f"'{n.name.render()}' needs {n.kind.value}",
    )


def _eval_arg_ontology(
    ctx: _Ctx,
    form: NamedOntologyArg | AnonymousArg | _ExprArg,
    env: FlatOntology,
    caller: Bindings,
) -> FlatOntology:
    if isinstance(form, AnonymousArg):
        return union_flat(env, form.ontology)
    if isinstance(form, NamedOntologyArg):  # from the Python API: a library name
        target = ctx.lib.require(form.name, form.pos)
        if target.arity != 0:  # `build_library` checks the references in `.gdp` text
            raise ArityMismatch(f"'{form.name}' is generic: {target.arity} argument(s) required", form.pos)
        return _eval_expr(ctx, Call(form.name, target, None, None, form.pos), env, caller)
    # local-environment injection: the argument is evaluated on top of env,
    # in the caller's scope (its bindings substitute enclosing parameters)
    return _eval_expr(ctx, form.expr, env, caller)


def _fit_ontology(
    pspec: ParamSpec,
    form: NamedOntologyArg | AnonymousArg | _ExprArg,
    arg_ont: FlatOntology,
    env: FlatOntology,
    sigma: Bindings,
) -> None:
    shape: PlainShape = pspec.shape
    explicit = dict(reversed(form.fits))  # a symbol's first fit; every fit is bound below
    pool = [s for s in arg_ont.sorted_signature() if s not in env.signature]
    for n in shape.new_symbols:
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
            candidates = [s for s in pool if s.kind is n.kind]
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
                    f"({', '.join(c.name.render() for c in candidates)}); "
                    f"give an explicit fit map",
                    form.pos,
                )
            image = candidates[0].name
        _bind_checked(sigma, n.name, image, form.pos)
    for src, dst in form.fits:
        _bind_checked(sigma, src, dst, form.pos)


# ---------------------------------------------------------------------------
# Elision
# ---------------------------------------------------------------------------

def elide_optional(body: FlatOntology, dead: Iterable[Symbol]) -> FlatOntology:
    """Remove the dead symbols and every axiom mentioning one of them."""
    return _elide(body, frozenset(s.name for s in dead).__contains__)


# ---------------------------------------------------------------------------
# The expansion proper
# ---------------------------------------------------------------------------

def _closed_expansion(ctx: _Ctx, d: PatternDef, pos) -> FlatOntology:
    parent, budget, running = ctx.frame, ctx.budget, ctx.running
    try:
        if d.qual in ctx.reached:
            ctx.tick(pos)
        elif d.arity != 0:
            raise ArityMismatch(f"'{d.name}' is generic and needs arguments", pos)
        elif not _charge_memo(ctx, d.qual):
            ctx.frame = frame = [[], 0]
            ctx.running = 0  # it starts from an empty environment: no placeholder is visible
            try:
                out = _instantiate(ctx, d, EMPTY_BINDINGS, [], EMPTY_ONTOLOGY, pos)
            except GodpError as e:
                if not isinstance(e, DepthExceeded):  # that one depends on the budget
                    ticks, error = budget - ctx.budget - frame[1], (type(e), e.message, e.pos)
                    ctx.memo.setdefault(d.qual, _Memo(None, ticks, tuple(frame[0]), error))
                raise
            ctx.frame, ctx.running = parent, running
            # an entry is never replaced: one already there equals `out`
            ctx.memo.setdefault(d.qual, _Memo(out, budget - ctx.budget - frame[1], tuple(frame[0])))
            ctx.reached.add(d.qual)
    finally:  # a failed lookup is charged to its caller too
        if parent is not None:
            parent[0].append(d.qual)
            parent[1] += budget - ctx.budget
    return ctx.memo[d.qual].ontology


def _charge_memo(ctx: _Ctx, qual: str) -> bool:
    """Take `qual` from the memo, charging what expanding it in this context
    would spend, and mark as reached the closed expansions that expansion
    would reach; their ontologies stay in the memo. An expansion that failed
    raises its error again once its ticks are charged. False, with nothing
    charged, if there is no entry or the budget is short: the real expansion
    then fails where it always did."""
    if qual not in ctx.memo:
        return False
    ticks = 0
    reached: set[str] = set()
    todo = [qual]
    while todo:
        q = todo.pop()
        if q in ctx.reached or q in reached:
            ticks += 1  # reached before: a lookup
            continue
        entry = ctx.memo[q]  # written before any entry that looks it up
        reached.add(q)
        ticks += entry.ticks
        todo.extend(entry.lookups)  # the sum does not depend on the order
    if ctx.budget < ticks:
        return False
    ctx.budget -= ticks
    error = ctx.memo[qual].error
    if error is not None:
        raise error[0](error[1], error[2])
    ctx.reached |= reached
    return True


def _eval_expr(ctx: _Ctx, expr: Expr, env: FlatOntology, scope: Bindings) -> FlatOntology:
    if isinstance(expr, tuple):  # a `then` chain
        for term in expr:
            env = _eval_expr(ctx, term, env, scope)
        return env
    try:
        if isinstance(expr, BlockExpr):
            return union_flat(env, build_block(expr.frames, scope))
        target = expr.target
        # a local shares the parameters around it
        base = EMPTY_BINDINGS if expr.up is None else scope.outer(expr.up)
        if expr.args is not None:
            forms = [_apply_form(f, scope) for f in expr.args]
            return _instantiate(ctx, target, base, forms, env, expr.pos, scope)
        if expr.up is None:
            return union_flat(env, _closed_expansion(ctx, target, expr.pos))
        return _instantiate(ctx, target, base, [], env, expr.pos, scope)
    except GodpError as e:
        e.ensure_pos(expr.pos)
        raise


def _apply_form(form: ArgumentForm | _ExprArg, b: Bindings) -> ArgumentForm | _ExprArg:
    """A call's checked argument form under the caller's bindings `b`: its
    symbol and fit targets substituted, its list tails spliced."""
    if isinstance(form, ListArg):
        return ListArg(b.apply_list(form.items, form.pos), form.pos)
    if isinstance(form, EmptyOptArg):
        return form
    # fit sources name the callee's parameter symbols and stay as written;
    # targets live in the caller's context and get substituted
    fits = tuple([(src, b.apply(dst)) for src, dst in form.fits])
    if isinstance(form, LocalSymbolArg):
        return LocalSymbolArg(b.apply(form.term), fits, form.pos)
    return _ExprArg(form.expr, fits, form.pos)


def _instantiate(
    ctx: _Ctx,
    target: PatternDef,
    base: Bindings,
    forms: Sequence[ArgumentForm | _ExprArg],
    env: FlatOntology,
    pos: SourcePos | None,
    caller: Bindings = EMPTY_BINDINGS,
) -> FlatOntology:
    ctx.tick(pos)
    level = ctx.running
    ctx.running += 1
    clause = _select_clause(target.clauses, forms, target.name, pos)
    sigma = base.child()
    imports_ont = EMPTY_ONTOLOGY
    for imp in target.imports:
        imports_ont = union_flat(imports_ont, _closed_expansion(ctx, imp, pos))
    avail = union_flat(env, imports_ont)
    dead: set[str] = set()

    for pspec, form in zip(clause.params, forms):
        try:
            if pspec.is_list:
                tmpl: ListTemplate = pspec.shape
                avail = _declare(
                    avail, zip(form.items, repeat(tmpl.kind)), form.pos,
                    lambda t, k: f"list item '{t.render()}' has kind {k.value}, "
                    f"expected {tmpl.kind.value}",
                )
                _bind_template(tmpl, form.items, sigma)
            elif isinstance(form, EmptyOptArg):
                elided = []
                for s in pspec.shape.new_symbols:
                    ph = NameTerm(f"?{s.name.base}_{level}_{len(dead)}")
                    _bind_checked(sigma, s.name, ph, form.pos)
                    dead.add(ph.base)
                    elided.append((ph, s.kind))
                avail = _declare(avail, elided, form.pos, None)
            else:
                if isinstance(form, LocalSymbolArg):
                    avail = _fit_local(target.name, pspec, form, sigma, avail)
                else:
                    added = _eval_arg_ontology(ctx, form, env, caller)
                    _fit_ontology(pspec, form, added, env, sigma)
                    avail = union_flat(avail, added)
                _check_constraints(pspec.shape.delta.axioms, sigma.apply, avail, form.pos)
        except GodpError as e:
            e.ensure_pos(form.pos or pos)
            raise

    out = _eval_expr(ctx, clause.body, avail, sigma)
    if dead:
        out = _elide(out, lambda n: _contains_base(n, dead))
    ctx.running -= 1
    return out


def _declare(
    avail: FlatOntology,
    terms: Iterable[tuple[NameTerm, SymbolKind]],
    pos: SourcePos | None,
    clash: Callable[[NameTerm, SymbolKind], str] | None,
) -> FlatOntology:
    """`avail` plus each term it does not have yet, declared with its kind.
    A term it has with another kind is a KindMismatch with the text
    `clash(term, kind found)`, unless the term is a placeholder: every
    sentence that mentions one goes anyway. Without `clash` the terms are
    fresh placeholders, declared without a lookup."""
    symbols = []
    for term, kind in terms:
        found = avail.kind_of(term) if clash is not None else None
        if found is None:
            symbols.append(Symbol(term, kind))
        elif found is not kind and not is_placeholder(term):
            raise KindMismatch(clash(term, found), pos)
    return union_flat(avail, make_ontology(symbols, [])) if symbols else avail


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

class Instantiation(Record):
    pattern: str
    args: tuple[ArgumentForm, ...]
    local_env: FlatOntology = EMPTY_ONTOLOGY


def expand(lib: Library, inst: Instantiation, depth: int = DEFAULT_DEPTH) -> FlatOntology:
    """Expand one instantiation against its local environment; its arguments,
    and those left out at the end, are checked as in `.gdp` text."""
    ctx = _Ctx(lib, depth, memo=lib.memo)
    target = lib.require(inst.pattern)
    forms = _check_args(target.name, target.clauses[0].params, inst.args, None)
    return _instantiate(ctx, target, EMPTY_BINDINGS, forms, inst.local_env, None)


def expand_named(lib: Library, name: str, depth: int = DEFAULT_DEPTH) -> FlatOntology:
    """Expand a 0-parameter definition to its flat ontology."""
    ctx = _Ctx(lib, depth, memo=lib.memo)
    target = lib.require(name)
    return _closed_expansion(ctx, target, target.pos)
