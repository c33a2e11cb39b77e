"""Name stratification and serialization of flat ontologies.

Stratification rewrites parameterized names into flat underscore-joined
identifiers (`greater[Significance]` -> `greater_Significance`), inner terms
first, and prefixes digit-initial plain names with `_` so the result is a
legal identifier. Collisions are hard errors, never silently renamed.

Manchester emission prints the frames of `blocks.frames_of`, laid out by
`syntax.frame_fields` with one field per line: frames sorted by (kind, name),
fields in a fixed order, names sorted. Output is byte-stable, and
`build_block` reads it back as the ontology it came from; a class with
several EquivalentTo unions is written as one `Class:` frame per union. The
structural dump is a line-oriented canonical form for golden tests.
"""

from __future__ import annotations

import re

from .core import FlatOntology, NameTerm, rename_ontology
from .diagnostics import StratificationClash, UnstratifiedName
from .blocks import frames_of
from .syntax import frame_fields

IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _flatten_raw(n: NameTerm) -> str:
    return "_".join([n.base, *map(_flatten_raw, n.args)])


def flatten_name(n: NameTerm) -> NameTerm:
    """The stratified form of one name term.

    Digit-initial results get a `_` prefix so the whole name is a legal
    identifier; inner occurrences are already guarded by the joining
    underscore and stay untouched.
    """
    flat = _flatten_raw(n)
    if flat and flat[0].isdigit():
        flat = "_" + flat
    return NameTerm(flat)


def stratify(o: FlatOntology) -> FlatOntology:
    """Rewrite every name to its flat form; injective on the signature."""
    table: dict[NameTerm, NameTerm] = {}
    seen: dict[NameTerm, NameTerm] = {}
    for s in o.sorted_signature():
        flat = flatten_name(s.name)
        other = seen.get(flat)
        if other is not None and other != s.name:
            raise StratificationClash(
                f"stratification maps both '{other.render()}' and "
                f"'{s.name.render()}' to '{flat.render()}'"
            )
        seen[flat] = s.name
        table[s.name] = flat

    return rename_ontology(o, lambda n: table.get(n) or flatten_name(n))


def emit_manchester(o: FlatOntology) -> str:
    """Serialize to Manchester-style frames, those of `frames_of`, one field
    per line; requires stratified (flat) names."""
    for s in o.sorted_signature():
        if not s.name.is_plain():
            raise UnstratifiedName(
                f"'{s.name.render()}' is parameterized; stratify before emitting Manchester output"
            )
    blocks = ["\n    ".join(frame_fields(f)) for f in frames_of(o)]
    return "\n\n".join(blocks) + "\n" if blocks else ""


def emit_struct_dump(o: FlatOntology) -> str:
    """Canonical line dump: `SYM kind name` and `AX ...` lines, sorted; byte-stable."""
    lines = [f"SYM {k.value} {n.render()}" for n, k in o.kinds.items()]
    lines.extend("AX " + " ".join(a.dump_fields()) for a in o.axioms)
    return "".join(line + "\n" for line in sorted(lines))
