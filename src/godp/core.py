"""Semantic model: kinded symbols, the axiom fragment, flat ontologies, morphisms.

Each axiom class states the kind of each of its fields once (`Axiom.KINDS`);
`Axiom` derives from that the references, renaming, canonical form and dump
fields (each name as a given function writes it) of all of them.
`Axiom.is_vacuous` says which axioms say nothing (an n-ary one with fewer
members than its `NARY`); `make_ontology` drops them.

Names (`NameTerm`) are interned: one object per value, however it is built,
so `==` on them is identity and hashing costs no Python call. Their table,
`_NAMES`, lives for the process and holds each distinct name once. It is
godp's one intern table. A symbol (`Symbol`) is a plain `(name, kind)`
namedtuple: equal to that pair, an item of a `kinds` map, and hashed as it
is. Expansion makes no `Symbol`, and the emitters of `godp.emit` make
neither a name nor a symbol: they write each name as text.

All values are immutable; operations are pure functions, so everything here is
safe to share across threads. A flat ontology is its signature, held as a
name -> kind map (`kinds`: under Same Name - Same Thing a name has one kind),
and its axioms; `signature` is the set of that map's items, as `Symbol`s,
made only when it is read. It keeps its axiom set canonical (see
`Axiom.canonical`) and signature-closed: every name occurring in an axiom is
in `kinds`, with the kind it has there. Its map is never mutated once it is
built.

The one mutable thing, an `Accumulator`, is a flat ontology under
construction, private to the expansion that writes it; its `merge` is the
one merge point, `union_flat` included, and `freeze` hands out a value.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Collection, Container, Iterable, Iterator, Mapping
from enum import Enum
from itertools import filterfalse, repeat

from .diagnostics import KindClash
from .record import Record

_set = object.__setattr__


class SymbolKind(Enum):
    CLASS = "Class"
    OBJECT_PROPERTY = "ObjectProperty"
    INDIVIDUAL = "Individual"

    __hash__ = object.__hash__  # Enum's own hash is a Python call


_KIND_ORDER = {SymbolKind.CLASS: 0, SymbolKind.OBJECT_PROPERTY: 1, SymbolKind.INDIVIDUAL: 2}


def kind_order(kind: SymbolKind) -> int:
    return _KIND_ORDER[kind]


_NAMES: dict[tuple, NameTerm] = {}


def _intern(base: str, args: tuple) -> NameTerm:
    """A new `NameTerm` for `(base, args)`, unless a thread making the same
    name stored one first."""
    obj = object.__new__(NameTerm)
    _set(obj, "base", base)
    _set(obj, "args", args)
    return _NAMES.setdefault((base, args), obj)


class NameTerm:
    """A possibly parameterized name: a base identifier plus argument terms.

    Hash-consed: `_NAMES` keeps, for the life of the process, one object per
    `(base, args)`, so `==` and `hash` are the inherited identity ones. A
    name is immutable, and a copy or an unpickled one is the name itself."""

    __slots__ = ("base", "args")
    base: str
    args: tuple[NameTerm, ...]

    def __new__(cls, base: str, args: tuple[NameTerm, ...] = ()):
        return _NAMES.get((base, args)) or _intern(base, args)

    def __setattr__(self, attr, value=None):
        raise AttributeError("NameTerm is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return NameTerm, (self.base, self.args)

    def __copy__(self, memo=None):
        return self

    __deepcopy__ = __copy__

    def key(self):
        return (self.base, tuple(a.key() for a in self.args))

    def render(self) -> str:
        if not self.args:
            return self.base
        return f"{self.base}[{','.join(a.render() for a in self.args)}]"

    def bases(self) -> Iterator[str]:
        """All base identifiers occurring in this term, outermost first."""
        yield self.base
        for a in self.args:
            yield from a.bases()

    def __repr__(self) -> str:  # compact in test failures
        return f"NameTerm({self.render()!r})"


def name(base: str, *args: NameTerm | str) -> NameTerm:
    """Convenience constructor: name("p", "x", name("q", "y"))."""
    return NameTerm(base, tuple(a if isinstance(a, NameTerm) else NameTerm(a) for a in args))


class Symbol(namedtuple("Symbol", "name kind")):
    """A name with its kind: equal to the `(name, kind)` pair, an item of a
    `kinds` map, and hashed as it is."""

    __slots__ = ()

    def key(self):
        return (kind_order(self.kind), self.name.key())


RenameFn = Callable[[NameTerm], NameTerm]


# ---------------------------------------------------------------------------
# Axioms
# ---------------------------------------------------------------------------

def _sorted_set(ns: Iterable[NameTerm]) -> tuple[NameTerm, ...]:
    return tuple(sorted(set(ns), key=NameTerm.key))


class Axiom(Record):
    """Base class. A subclass declares its fields, in dump order, and states
    their symbol kinds once: `KINDS` holds one kind per field. A nonzero
    `NARY` says that the last field is a set of names, kept sorted and
    distinct, and is the fewest members that set needs to say anything."""

    KINDS = ()  # tuple[SymbolKind, ...]; class attributes, not fields
    NARY = 0

    def refs(self) -> tuple[tuple[NameTerm, SymbolKind], ...]:
        values = self._values(self)
        if not self.NARY:
            return tuple(zip(values, self.KINDS))
        *fixed, rest = values
        return tuple(zip(fixed, self.KINDS)) + tuple(zip(rest, repeat(self.KINDS[-1])))

    def rename(self, fn: RenameFn) -> "Axiom":
        """The axiom with `fn` applied to every name; canonical."""
        values = self._values(self)
        if not self.NARY:  # a list: starring a map would build a tuple the gc counts
            return type(self)(*[fn(v) for v in values])
        *fixed, rest = values
        return type(self)(*map(fn, fixed), _sorted_set(map(fn, rest)))

    def canonical(self) -> "Axiom":
        return self.rename(lambda n: n) if self.NARY else self

    def dump_fields(self, text: Callable[[NameTerm], str] = NameTerm.render, resort: bool = False) -> tuple[str, ...]:
        """Its class's name, then each name as `text` writes it: an n-ary
        set's in its own order, or in the order of those texts if `resort`."""
        values = self._values(self)
        if self.NARY:
            *fixed, rest = values
            values = (*fixed, *(sorted(rest, key=text) if resort else rest))
        return (type(self).__name__, *map(text, values))

    def sort_key(self):
        return self.dump_fields()

    def is_vacuous(self) -> bool:
        """An n-ary axiom whose set has fewer than `NARY` members says nothing."""
        return self.NARY != 0 and len(self._values(self)[-1]) < self.NARY


_OP, _CLASS, _IND = SymbolKind.OBJECT_PROPERTY, SymbolKind.CLASS, SymbolKind.INDIVIDUAL


class Reflexive(Axiom):
    prop: NameTerm
    KINDS = (_OP,)


class Transitive(Axiom):
    prop: NameTerm
    KINDS = (_OP,)


# each word of a frame's `Characteristics` field -> the axiom it states
CHARACTERISTICS = {"Transitive": Transitive, "Reflexive": Reflexive}


class InverseOf(Axiom):
    prop: NameTerm
    inverse: NameTerm
    KINDS = (_OP, _OP)


class Domain(Axiom):
    prop: NameTerm
    cls: NameTerm
    KINDS = (_OP, _CLASS)


class Range(Axiom):
    prop: NameTerm
    cls: NameTerm
    KINDS = (_OP, _CLASS)


class SubPropertyOf(Axiom):
    sub: NameTerm
    sup: NameTerm
    KINDS = (_OP, _OP)


class ClassAssertion(Axiom):
    cls: NameTerm
    individual: NameTerm
    KINDS = (_CLASS, _IND)


class DifferentIndividuals(Axiom):
    individuals: tuple[NameTerm, ...]
    KINDS = (_IND,)
    NARY = 2


class EquivalentToUnion(Axiom):
    """C EquivalentTo {i1, ..., in}: the class is exactly this set of individuals."""

    cls: NameTerm
    members: tuple[NameTerm, ...]
    KINDS = (_CLASS, _IND)
    NARY = 1


# ---------------------------------------------------------------------------
# Flat ontologies
# ---------------------------------------------------------------------------

class FlatOntology(Record):
    """A flat ontology: its signature as a name -> kind map, and its axioms,
    which mention only names of that map (`godp.emit` relies on it)."""

    kinds: Mapping[NameTerm, SymbolKind]
    axioms: frozenset[Axiom]

    def __hash__(self) -> int:  # a dict has no hash; equal maps have equal sizes
        return hash((len(self.kinds), self.axioms))

    @property
    def signature(self) -> frozenset[Symbol]:
        return frozenset(map(Symbol._make, self.kinds.items()))

    def kind_of(self, n: NameTerm) -> SymbolKind | None:
        return self.kinds.get(n)


def _index_kinds(
    pairs: Collection[tuple[NameTerm, SymbolKind]], index: dict[NameTerm, SymbolKind]
) -> dict[NameTerm, SymbolKind]:
    """Add the (name, kind) `pairs` to the name -> kind `index`, a dict the
    caller owns.

    A clash names the least clashing name and its two least kinds, so the
    message does not depend on iteration order.
    """
    clashes = [n for n, k in pairs if index.setdefault(n, k) is not k]
    if clashes:
        n = min(clashes, key=NameTerm.key)
        kinds = {index[n]} | {k for m, k in pairs if m is n}
        first, second = sorted(kinds, key=kind_order)[:2]
        raise KindClash(f"kind clash for '{n.render()}': {first.value} vs {second.value}")
    return index


EMPTY_ONTOLOGY = FlatOntology({}, frozenset())


def make_ontology(symbols: Iterable[tuple[NameTerm, SymbolKind]], axioms: Iterable[Axiom]) -> FlatOntology:
    """Canonicalize axioms, drop the vacuous ones, close the signature of
    `(name, kind)` pairs (or `Symbol`s) over axiom references, check kinds."""
    axs = frozenset(a for a in map(Axiom.canonical, axioms) if not a.is_vacuous())
    pairs = [*symbols, *(ref for a in axs for ref in a.refs())]
    return FlatOntology(_index_kinds(pairs, {}), axs)


class Accumulator:
    """A flat ontology under construction, written in place by one expansion:
    a name -> kind map and an axiom set. It shares the frozen `seed` it
    starts from until its first write copies it; a merge that adds nothing
    writes nothing. What `freeze` returns is a value, which takes its map:
    from then on it shares that value as it shares a seed, and a later write
    copies it.

    While a placeholder is live, from `open` to `close`, each merge indexes
    under it the new names and axioms that die with it (`_dead_in`): `live`
    maps it to them, `marked` each name held that dies to its placeholders."""

    __slots__ = ("kinds", "axioms", "seed", "live", "marked")

    def __init__(self, seed: FlatOntology = EMPTY_ONTOLOGY) -> None:
        self._share(seed)
        self.live, self.marked = {}, {}

    def _share(self, seed: FlatOntology) -> None:
        self.kinds, self.axioms, self.seed = seed.kinds, seed.axioms, seed

    def _own(self) -> None:
        """Copy the seed it shares, before its first write."""
        if self.seed is not None:
            self.kinds, self.axioms, self.seed = dict(self.kinds), set(self.axioms), None

    def freeze(self) -> FlatOntology:
        """What it holds, as a value: its seed while it has not been written,
        else a new one, which it is seeded with from then on."""
        if self.seed is None:
            self.seed = FlatOntology(self.kinds, frozenset(self.axioms))
            self.axioms = self.seed.axioms
        return self.seed

    def add(self, o: FlatOntology) -> None:
        """Merge `o`; one that holds only the empty ontology takes `o` itself."""
        if self.seed is EMPTY_ONTOLOGY:
            return self._share(o)
        self.merge(o.kinds, o.axioms)

    def merge(self, kinds: Mapping[NameTerm, SymbolKind], axioms: Collection[Axiom]) -> None:
        """Same Name - Same Thing union, in place, with the ontology of the
        name -> kind map `kinds` and `axioms`. A name it holds with another
        kind is the KindClash of `_index_kinds`."""
        new = [*filterfalse(self.kinds.items().__contains__, kinds.items())]
        if self.live:
            self._mark(new, kinds, axioms)
        if self.seed is not None:
            if not new and self.axioms.issuperset(axioms):
                return
            if self.seed is EMPTY_ONTOLOGY:  # the first write to one that holds nothing makes a value
                return self._share(FlatOntology(dict(kinds), frozenset(axioms)))
            self._own()
        held, clash = self.kinds, False
        for n, k in new:  # no call where nothing clashes
            clash |= held.setdefault(n, k) is not k
        if clash:
            _index_kinds(new, held)  # raises the KindClash, naming the least clashing name
        self.axioms.update(axioms)

    def _mark(self, new: Iterable[tuple[NameTerm, SymbolKind]], kinds: Mapping[NameTerm, SymbolKind],
              axioms: Iterable[Axiom]) -> None:
        """Index under each live placeholder what dies with it of the `new` names and new `axioms`."""
        live, marked = self.live, self.marked
        for n, _ in new:
            if found := _dead_in(n, live):
                marked[n] = found
                for ph in found:
                    live[ph][0].append(n)
        if not marked.keys().isdisjoint(kinds.keys()):  # `kinds` names every name of `axioms`
            for a in filterfalse(self.axioms.__contains__, axioms):
                for ph in {ph for n, _ in a.refs() for ph in marked.get(n, ())}:
                    live[ph][1].append(a)

    def open(self, ph: NameTerm, kind: SymbolKind) -> None:
        """Declare the placeholder `ph` with `kind`; it is live until `close`."""
        self.live[ph] = ([], [])
        self.merge({ph: kind}, ())

    def close(self, placeholders: Collection[NameTerm]) -> None:
        """Elide the live `placeholders`: what the index holds for them."""
        entries = [self.live.pop(ph) for ph in placeholders]
        self.elide(placeholders, [n for e in entries for n in e[0]], [a for e in entries for a in e[1]])

    def elide(self, dead: Collection[NameTerm], names: Iterable[NameTerm], axioms: Iterable[Axiom]) -> None:
        """Remove, in place, those of `names` and `axioms` that die with
        the names `dead` (`_dead_in`)."""
        names = [n for n in names if _dead_in(n, dead)]
        axioms = [a for a in axioms if any(_dead_in(n, dead) for n, _ in a.refs())]
        if names or axioms:
            self._own()
            for n in names:
                self.kinds.pop(n, None)
                self.marked.pop(n, None)
            self.axioms.difference_update(axioms)


def _dead_in(n: NameTerm, dead: Container[NameTerm]) -> list[NameTerm]:
    """The names of `dead` that `n` dies with, by the one rule of elision: it
    dies when it is a dead name, when its base is a plain dead name, or when
    one of its arguments dies."""
    found = [n] if n in dead else []
    if n.args:
        if (base := _NAMES.get((n.base, ()))) in dead:  # its base as a plain name, if one was made
            found.append(base)
        for a in n.args:
            found += _dead_in(a, dead)
    return found


def union_flat(a: FlatOntology, b: FlatOntology) -> FlatOntology:
    """Same Name - Same Thing union: deduplicating, kind-clash checked. The
    smaller operand is merged into an accumulator seeded with the larger."""
    acc = Accumulator(a if len(a.kinds) >= len(b.kinds) else b)
    acc.add(b if acc.seed is a else a)
    return acc.freeze()


# ---------------------------------------------------------------------------
# Fitting morphisms
# ---------------------------------------------------------------------------

class FittingMorphism(Record):
    """A kind-preserving symbol map, total on its declared domain."""

    pairs: tuple[tuple[Symbol, Symbol], ...]

    def __init__(self, pairs):
        for src, dst in pairs:
            if src.kind is not dst.kind:
                raise KindClash(
                    f"fitting maps {src.kind.value} '{src.name.render()}' to "
                    f"{dst.kind.value} '{dst.name.render()}'"
                )
        _set(self, "pairs", pairs)

    @staticmethod
    def of(mapping: Mapping[Symbol, Symbol]) -> "FittingMorphism":
        return FittingMorphism(tuple(sorted(mapping.items(), key=lambda p: p[0].key())))
