"""Blocks: frames compiled once into a plan (`compile_block`), filled per
run (`fill_block`); `build_block` is both for frames on their own, and
`frames_of` its inverse.
"""

from __future__ import annotations

from typing import Callable, Collection, Iterable, Mapping, NamedTuple

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
    _sorted_set,
    make_ontology,
)
from .diagnostics import GodpError, SourcePos, UnknownReference
from .record import Record, field
from .syntax import (
    _HEADERS,
    FRAME_FIELDS,
    ClassFrame,
    DifferentIndividualsFrame,
    Frame,
    IndividualFrame,
    ObjectPropertyFrame,
)


class ListVar(NamedTuple):
    """A list parameter's tail in a comma list of a clause body: a block's
    field or a list argument's item or `::` tail. `up` counts the definitions
    out to the one whose parameter it is, as `elaborate.Call.up` does."""

    name: str
    up: int


def _not_a_list(tail: str, pos: SourcePos | None) -> UnknownReference:
    return UnknownReference(f"'{tail}' is not a list in scope (expected a list-parameter tail)", pos)


def build_block(frames: Iterable[Frame]) -> FlatOntology:
    """The flat ontology of frames on their own: compiled, then filled."""
    plan = compile_block(frames)
    return plan[-1] or fill_block(plan, None)


class BlockTemplate(Record):
    """A block of a resolved clause body and the `scope` its names have
    there, as `compile_block` takes it; compiled into its `plan` when it
    first runs (a race compiles it twice, alike)."""

    frames: tuple[Frame, ...]
    scope: tuple = field(compare=False)
    pos: SourcePos | None = field(compare=False)
    __slots__ = ("_plan",)

    @property
    def plan(self) -> tuple:
        try:
            return self._plan
        except AttributeError:
            object.__setattr__(self, "_plan", compile_block(self.frames, *self.scope))
            return self._plan


# Each comma-list field's axiom class, and whether the frame's symbol is the
# first (True) or second (False) operand of one axiom per name, or the
# leading field of one n-ary axiom over them all (None).
_FIELD_AXIOMS = {
    "domains": (Domain, True), "ranges": (Range, True), "sub_property_of": (SubPropertyOf, True),
    "inverse_of": (InverseOf, True), "types": (ClassAssertion, False),
    "different_from": (DifferentIndividuals, True),
    "equivalent": (EquivalentToUnion, None), "items": (DifferentIndividuals, None),
}
_HEADER_KINDS = {frame: SymbolKind(word) for frame, word in _HEADERS.items()}


def compile_block(
    frames: Iterable[Frame], bound: Collection[str] = (), tails: Mapping = {}, level: int = 0
) -> tuple:
    """The plan of a block whose names can be bound where a base is in
    `bound` (at `level` > 0, a local's `_Scope.params`), `tails` mapping each
    list tail it sees to its `ListVar`. Each distinct name is a slot: its
    name if constant, else computed by an op (slot, name, exact lookup?,
    base slot, arg slots) as `substitute_name` does. The plan also holds the
    (slot, kind) pairs, the fixed-arity axioms over slots, the comma lists
    to splice, the definers' heads read, where a clash is reported, and the
    block's value if nothing can be bound."""
    slots, values, ops = {}, [], []

    def slot(n: NameTerm) -> int:
        i = slots.get(n)
        if i is None:
            op = None
            if not n.args:
                op = (n, True, None, ()) if n.base in bound else None
            elif any(b in bound for b in n.bases()):
                exact = all(b in bound for b in n.bases())
                op = (n, exact, slot(NameTerm(n.base)), tuple([slot(a) for a in n.args]))
            i = slots[n] = len(values)
            values.append(n if op is None else None)
            if op is not None:
                ops.append((i, *op))
        return i

    symbols, fixed, lists, frame_pos = {}, [], [], None  # symbols: (slot, kind) -> None
    for f in frames:
        if type(f) not in FRAME_FIELDS:
            raise TypeError(f"not a frame: {f!r}")
        frame_pos = frame_pos or f.pos
        subj = slot(f.name) if type(f) in _HEADER_KINDS else None
        if subj is not None:
            symbols[subj, _HEADER_KINDS[type(f)]] = None
        for attr in FRAME_FIELDS[type(f)].values():
            if not (v := getattr(f, attr)):
                continue
            if attr == "characteristics":
                fixed += [(Transitive if c == "Transitive" else Reflexive, subj, None) for c in v]
                continue
            cls, first = _FIELD_AXIOMS[attr]
            kind = cls.KINDS[0 if first is False else -1]
            items = tuple([tails.get(n) or slot(n) for n in v])
            if first is None or cls.NARY or not tails.keys().isdisjoint(v):
                lists.append((cls, subj, items, kind, first))
                continue
            for s in items:
                symbols[s, kind] = None
                fixed.append((cls, subj, s) if first else (cls, s, subj))
    heads = tuple(_head_reads(slots, bound, level, None)) if level else ()
    plan = (tuple(values), tuple(ops), tuple(symbols), tuple(fixed), tuple(lists), heads, frame_pos, None)
    if ops or any(ListVar in map(type, items) for _, _, items, _, _ in lists):
        return plan
    try:  # a kind clash in it is reported by each run
        return (*plan[:-1], fill_block(plan, None))
    except GodpError:
        return plan


def fill_block(plan: tuple, scope) -> FlatOntology:
    """The flat ontology of a block's `plan` in the run `scope`
    (`instantiate.Bindings`): each slot resolved once, the axioms built
    from the slots, the signature and its kind index taken from the slots'
    static kinds. Only a kind clash goes through `make_ontology`."""
    vals, ops, symbols, fixed, lists, heads, frame_pos, ontology = plan
    if ontology is not None:
        return ontology
    if heads:
        _check_heads(heads, scope)
    if ops:
        vals, name_map = list(vals), scope.name_map
        for i, n, exact, base, args in ops:  # an exact binding of the whole name first,
            v = name_map.get(n) if exact else None  # then the base's image, args appended
            if v is None and base is not None:
                v = NameTerm(vals[base].base, vals[base].args + tuple([vals[a] for a in args]))
            vals[i] = n if v is None else v
    axioms = [cls(vals[a]) if b is None else cls(vals[a], vals[b]) for cls, a, b in fixed]
    kinds, clash = {}, False
    for s, k in symbols:
        clash |= kinds.setdefault(vals[s], k) is not k
    for cls, subj, items, kind, first in lists:
        names = _splice(items, vals.__getitem__, scope, None)
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
        return FlatOntology(frozenset(map(Symbol, kinds, kinds.values())), frozenset(axioms), kinds)
    try:  # make_ontology names the clash as it always has
        return make_ontology([Symbol(vals[s], k) for s, k in symbols], axioms)
    except GodpError as e:
        e.ensure_pos(frame_pos)
        raise


def _splice(names: Iterable, resolve: Callable, scope, pos: SourcePos | None) -> list:
    """`names` resolved, each list tail (a `ListVar`) spliced into the items
    its run bound; a tail that run's clause lacks is an error."""
    out = []
    for n in names:
        if type(n) is not ListVar:
            out.append(resolve(n))
        elif (items := scope.outer(n.up).list_map.get(n.name)) is None:
            raise _not_a_list(n.name, pos)
        else:
            out += items
    return out


def _head_reads(names: Iterable, params: Mapping, level: int, pos: SourcePos | None) -> list:
    """The definers' list heads that `names` read: (head, its run's `up`, where it is checked)."""
    return [(b, up, pos) for n in names if type(n) is NameTerm for b in n.bases()
            if (p := params.get(b)) and p[1] is None and (up := level - p[0].count("::"))]


def _check_heads(heads: Iterable[tuple[str, int, SourcePos | None]], scope) -> None:
    """A list head read from a run whose clause binds none is an error, as a list tail is."""
    for h, up, pos in heads:
        if h not in scope.outer(up).heads:
            raise UnknownReference(
                f"'{h}' is not bound in scope (a list head that the running clause does not bind)", pos
            )


# The inverse of build_block: axiom type -> the frame field it is read from,
# the axiom field naming the frame's symbol and the one holding the value
# (None: the type's name, a characteristic).
_FRAME_FIELD = {
    cls: (attr, *cls._fields[:: 1 if first else -1]) for attr, (cls, first) in _FIELD_AXIOMS.items()
    if first is not None and not cls.NARY
} | {c: ("characteristics", "prop", None) for c in (Transitive, Reflexive)}


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
