"""Name stratification and serialization of flat ontologies.

Stratification rewrites parameterized names into flat underscore-joined
identifiers (`greater[Significance]` -> `greater_Significance`), inner terms
first, and prefixes digit-initial plain names with `_` so the result is a
legal identifier. Collisions are hard errors, never silently renamed.

Both emitters write straight from a flat ontology's name -> kind map and its
axioms, each name as the one text `_texts` gives it: its stratified form
with `flat=True`, else its rendering. So `emit_x(o, flat=True)` is
`emit_x(stratify(o))`, byte for byte, without the stratified copy, and
emission makes no `NameTerm` and no `Symbol`. Manchester emission writes a
frame per name, sorted by (kind, name), with its fields in
`syntax.FRAME_FIELDS` order, one `syntax.field_line` each, and each field's
names sorted; `blocks._FIELD_AXIOMS` says which axiom fills which field.
Output is byte-stable, and `build_block` reads it back as the ontology it
came from; a class with several EquivalentTo unions is written as one
`Class:` frame per union. The structural dump is a line-oriented canonical
form for golden tests.
"""

from __future__ import annotations

from .blocks import _FIELD_AXIOMS
from .core import (
    DifferentIndividuals,
    FlatOntology,
    NameTerm,
    Reflexive,
    SymbolKind,
    Transitive,
    kind_order,
)
from .diagnostics import StratificationClash, UnstratifiedName
from .syntax import _HEADERS, FRAME_FIELDS, DifferentIndividualsFrame, field_line

# Each axiom class that fills a field of its subject's frame -> the field's
# attribute, and where its `dump_fields` hold the subject and the value (0:
# its class's name, a characteristic; a slice: an n-ary set).
# DifferentIndividuals makes frames of its own.
_FIELD_OF = {
    cls: (attr, 2, 1) if first is False else (attr, 1, 2 if first else slice(2, None))
    for attr, (cls, first) in _FIELD_AXIOMS.items() if cls is not DifferentIndividuals
} | dict.fromkeys((Transitive, Reflexive), ("characteristics", 1, 0))


def _joined(n: NameTerm) -> str:
    return "_".join([n.base, *map(_joined, n.args)])


def flat_text(n: NameTerm) -> str:
    """The stratified form of one name, as text.

    Digit-initial results get a `_` prefix so the whole name is a legal
    identifier; inner occurrences are already guarded by the joining
    underscore and stay untouched.
    """
    flat = _joined(n)
    return "_" + flat if flat[:1].isdigit() else flat


def _texts(o: FlatOntology, flat: bool, plain: bool = False) -> dict[NameTerm, str]:
    """Each name of `o` to the text it is written as, computed once: its
    stratified form if `flat`, else its rendering, which `plain` requires to
    be a plain name. An error names the first clash, or the least
    parameterized name, in (kind, name) order; only then are names sorted."""
    texts = dict(zip(o.kinds, map(flat_text if flat else NameTerm.render, o.kinds)))
    if (len(set(texts.values())) < len(texts)) if flat else plain and any(n.args for n in o.kinds):
        seen = {}
        for n in sorted(o.kinds, key=lambda n: (kind_order(o.kinds[n]), n.key())):
            if not flat and n.args:
                raise UnstratifiedName(f"'{n.render()}' is parameterized; stratify before emitting Manchester output")
            if (other := seen.setdefault(texts[n], n)) is not n:
                raise StratificationClash(
                    f"stratification maps both '{other.render()}' and '{n.render()}' to '{texts[n]}'"
                )
    return texts


def stratify(o: FlatOntology) -> FlatOntology:
    """`o` with every name rewritten to its flat form. `_texts` has raised
    any clash, so the renaming is injective: no two names or axioms merge,
    and no axiom becomes vacuous."""
    flat = dict(zip(o.kinds, map(NameTerm, _texts(o, True).values())))
    kinds = dict(zip(flat.values(), o.kinds.values()))
    return FlatOntology(kinds, frozenset(a.rename(flat.__getitem__) for a in o.axioms))


def emit_manchester(o: FlatOntology, *, flat: bool = False) -> str:
    """Serialize to Manchester-style frames, one field per line, with the
    names stratified if `flat`; else every name must be plain already."""
    texts = _texts(o, flat, plain=True)
    fields, different = {}, []  # (subject, field attribute) -> values; the DifferentIndividuals sets
    for a in o.axioms:
        row = a.dump_fields(texts.__getitem__, flat)
        if type(a) in _FIELD_OF:
            attr, subject, value = _FIELD_OF[type(a)]
            fields.setdefault((row[subject], attr), []).append(row[value])
        else:
            different.append(row[1:])
    frames = []
    for frame, kind in _HEADERS.items():  # in kind order
        for t in sorted([t for t, k in zip(texts.values(), o.kinds.values()) if k is kind]):
            head = f"{kind.value}: {t}"
            if kind is SymbolKind.CLASS:  # a frame per EquivalentTo union
                frames += [f"{head}\n    {field_line(w, u)}" for w, attr in FRAME_FIELDS[frame].items()
                           for u in sorted(fields.get((t, attr), ()))] or [head]
            else:
                frames.append("\n    ".join([head, *[field_line(w, sorted(fields[t, attr]))
                                                   for w, attr in FRAME_FIELDS[frame].items() if (t, attr) in fields]]))
    frames += [field_line(w, d) for w in FRAME_FIELDS[DifferentIndividualsFrame] for d in sorted(different)]
    return "\n\n".join(frames) + "\n" if frames else ""


def emit_struct_dump(o: FlatOntology, *, flat: bool = False) -> str:
    """Canonical line dump: `SYM kind name` and `AX ...` lines, sorted;
    byte-stable. The names are stratified if `flat`."""
    texts = _texts(o, flat)
    lines = [f"SYM {k.value} {t}" for t, k in zip(texts.values(), o.kinds.values())]
    lines += ["AX " + " ".join(a.dump_fields(texts.__getitem__, flat)) for a in o.axioms]
    return "".join(line + "\n" for line in sorted(lines))
