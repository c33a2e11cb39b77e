"""Names and blocks compiled once into plans (`compile_names`, `compile_block`),
filled per run (`fill_names`, `fill_block`) in its display: its own bindings,
then its definers' runs, innermost first, so a name bound `up` definitions out
is read from `runs[up]`. A block is filled into the accumulator of the
expansion that runs it. `build_block` does both for frames on their own;
`emit.emit_manchester` writes its inverse, reading which axiom fills which
frame field from `_FIELD_AXIOMS`.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterable, Mapping, Sequence
from operator import itemgetter

from .core import (
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
    Transitive,
    _sorted_set,
    make_ontology,
)
from .diagnostics import GodpError, SourcePos, UnknownReference
from .record import Record, field
from .syntax import _HEADERS, FRAME_FIELDS, Frame


class ListVar(namedtuple("ListVar", "name up")):
    """A list parameter's tail in a comma list of a clause body: a block's
    field or a list argument's item or `::` tail. `up` counts the definitions
    out to the one whose parameter it is, as `elaborate.Call.up` does."""

    __slots__ = ()


def _not_a_list(tail: str, pos: SourcePos | None) -> UnknownReference:
    return UnknownReference(f"'{tail}' is not a list in scope (expected a list-parameter tail)", pos)


def _no_tails(names: Iterable, tails: Mapping, pos: SourcePos | None) -> None:
    """Raise at `pos` if a name of `names` is a list tail of `tails` or has one
    among its parts: a tail stands alone in a comma list, as a `ListVar`,
    which is no name."""
    for n in names:
        if type(n) is NameTerm and (n in tails or n.args):
            if n in tails:
                raise UnknownReference(f"'{n.base}' is a list-parameter tail, not a name", pos)
            _no_tails((NameTerm(n.base), *n.args), tails, pos)


def build_block(frames: Iterable[Frame]) -> FlatOntology:
    """The flat ontology of frames on their own: compiled, then filled."""
    return compile_block(frames)[-1]


def _compiled(compile: Callable) -> Callable:
    """A record's `__getattr__` that sets its `plan` slot to what `compile`
    makes of it when it is first read (a race makes it twice, alike)."""

    def __getattr__(self, attr: str) -> object:
        if attr != "plan":
            raise AttributeError(attr)
        object.__setattr__(self, "plan", plan := compile(self))
        return plan

    return __getattr__


class BlockTemplate(Record):
    """A block of a resolved clause body and the `scope` its names have
    there, as `compile_block` takes it."""

    frames: tuple[Frame, ...]
    scope: tuple = field(compare=False)
    pos: SourcePos | None = field(compare=False)
    __slots__ = ("plan",)
    __getattr__ = _compiled(lambda t: compile_block(t.frames, *t.scope))


def compile_names(names: Iterable[NameTerm], chain: Sequence = (), pos: SourcePos | None = None) -> dict:
    """The plan of `names`, read at `pos`, in the runs whose names `chain`
    holds (`elaborate._Draft.chain`): a slot per name, its parts first, name
    -> (name, walk, base, args, pos, parts); its walk is each `up` whose names
    hold its every base, and whether it is a definer's list head there. A
    compound name that a run may bind whole has its parts in a plan of their
    own, read only when none does."""
    ops = {}
    for n in names:
        if n not in ops:
            base = n.args and NameTerm(n.base)
            walk = [(up, not base and up and level[n.base][1] is None) for up, level in enumerate(chain)
                    if n.base in level and (not base or all(b in level for b in n.bases()))]
            parts = base and compile_names([base, *n.args], chain, pos)
            if not walk:
                ops.update(parts)
            ops[n] = (n, walk, base, n.args, pos, walk and parts)
    return ops


def fill_names(ops: dict, runs: Sequence) -> dict:
    """Each name of a plan to its value in the display `runs` (a run's
    `instantiate.Bindings`, then its definers'): the first binding its walk
    finds, each `up` read as `runs[up]`, else the name built from its parts'.
    A list head that its run does not bind stops the walk, as an unbound tail
    does."""
    vals = {}
    for n, walk, base, args, pos, parts in ops.values():
        v = None
        for up, head in walk:
            if (v := runs[up].name_map.get(n)) is not None:
                break
            if head:
                raise UnknownReference(
                    f"'{n.base}' is not bound in scope (a list head that the running clause does not bind)", pos
                )
        if v is None and args:
            parts = fill_names(parts, runs) if parts else vals
            b = parts[base]
            v = NameTerm(b.base, b.args + tuple([parts[a] for a in args]))
        vals[n] = v or n
    return vals


# Each comma-list field's axiom class, and whether the frame's symbol is the
# first (True) or second (False) operand of one axiom per name, or the
# leading field of one n-ary axiom over them all (None).
_FIELD_AXIOMS = {
    "domains": (Domain, True), "ranges": (Range, True), "sub_property_of": (SubPropertyOf, True),
    "inverse_of": (InverseOf, True), "types": (ClassAssertion, False),
    "different_from": (DifferentIndividuals, True),
    "equivalent": (EquivalentToUnion, None), "items": (DifferentIndividuals, None),
}


def compile_block(frames: Iterable[Frame], chain: Sequence = (), tails: Mapping = {}) -> tuple:
    """The plan of a block whose names have the runs of `chain`, `tails`
    mapping each list tail it sees to its `ListVar`: the plan of its names
    (`compile_names`), then the (name, kind) pairs, the fixed-arity axioms,
    the comma lists to splice, where a clash is reported, and the block's
    value if nothing can be bound, or its kind clash raised."""
    names, symbols, fixed, lists, frame_pos = [], {}, [], [], None  # symbols: (name, kind) -> None
    for f in frames:
        if type(f) not in FRAME_FIELDS:
            raise TypeError(f"not a frame: {f!r}")
        frame_pos = frame_pos or f.pos
        subj = f.name if type(f) in _HEADERS else None
        if subj is not None:
            symbols[subj, _HEADERS[type(f)]] = None
            names.append(subj)
        for attr in FRAME_FIELDS[type(f)].values():
            if not (v := getattr(f, attr)):
                continue
            if attr == "characteristics":
                fixed += [(Transitive if c == "Transitive" else Reflexive, subj, None) for c in v]
                continue
            cls, first = _FIELD_AXIOMS[attr]
            kind = cls.KINDS[0 if first is False else -1]
            items = tuple([tails.get(n) or n for n in v])
            names += [n for n in items if type(n) is not ListVar]
            if first is None or cls.NARY or not tails.keys().isdisjoint(v):
                lists.append((cls, subj, items, kind, first))
                continue
            for s in items:
                symbols[s, kind] = None
                fixed.append((cls, subj, s) if first else (cls, s, subj))
    if tails:
        _no_tails(names, tails, None)
    ops = compile_names(names, chain)
    plan = (ops, tuple(symbols), tuple(fixed), tuple(lists), frame_pos, None)
    if any(map(itemgetter(1), ops.values())) or any(ListVar in map(type, items) for _, _, items, _, _ in lists):
        return plan
    acc = Accumulator()
    fill_block(plan, (), acc)  # a kind clash in it is raised here: no plan is kept, and each run raises it
    return (*plan[:-1], acc.freeze())


def fill_block(plan: tuple, runs: Sequence, acc: Accumulator) -> None:
    """Merge into `acc` the flat ontology of a block's `plan` in the display
    `runs`, as `fill_names` reads it: each name filled once, the axioms built
    from them, and merged with the name -> kind map of their static kinds.
    Only a kind clash inside the block goes through `make_ontology`."""
    ops, symbols, fixed, lists, frame_pos, ontology = plan
    if ontology is not None:
        return acc.add(ontology)
    vals = fill_names(ops, runs)
    axioms = [cls(vals[a]) if b is None else cls(vals[a], vals[b]) for cls, a, b in fixed]
    kinds, clash = {}, False
    for s, k in symbols:
        clash |= kinds.setdefault(vals[s], k) is not k
    for cls, subj, items, kind, first in lists:
        names = _splice(items, vals, runs, None)
        s = vals[subj] if subj is not None else None
        if first is None:  # one n-ary axiom, unless it says nothing
            if len(names := _sorted_set(names)) < cls.NARY:
                continue
            axioms.append(cls(names) if s is None else cls(s, names))
        elif cls.NARY:  # DifferentFrom: a pair per name but the frame's own
            axioms += [cls(_sorted_set((s, n))) for n in names if n is not s]
        else:
            axioms += [cls(s, n) if first else cls(n, s) for n in names]
        for n in names:
            clash |= kinds.setdefault(n, kind) is not kind
    if not clash:
        return acc.merge(kinds, axioms)
    try:  # make_ontology raises the clash, named as it always has been
        make_ontology([(vals[s], k) for s, k in symbols], axioms)
    except GodpError as e:
        e.ensure_pos(frame_pos)
        raise


def _splice(names: Iterable, vals: Mapping, runs: Sequence, pos: SourcePos | None) -> list:
    """`names` read from `vals`, each list tail (a `ListVar`) spliced into
    the items its run, `runs[up]` in the display `runs`, bound; a tail that
    run's clause lacks is an error."""
    out = []
    for n in names:
        if type(n) is not ListVar:
            out.append(vals[n])
        elif (bound := runs[n.up].list_map.get(n.name)) is None:
            raise _not_a_list(n.name, pos)
        else:
            out += bound[0]
    return out
