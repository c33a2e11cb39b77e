"""Generic ontology design patterns: parse, elaborate, expand, emit."""

from .core import (
    Axiom,
    ClassAssertion,
    DifferentIndividuals,
    Domain,
    EquivalentToUnion,
    FittingMorphism,
    FlatOntology,
    EMPTY_ONTOLOGY,
    InverseOf,
    NameTerm,
    Range,
    Reflexive,
    SubPropertyOf,
    Symbol,
    SymbolKind,
    Transitive,
    apply_morphism,
    axioms_mentioning,
    make_ontology,
    name,
    union_flat,
)
from .diagnostics import Diagnostic, GodpError, SourcePos, render_diagnostics
from .elaborate import Library, PatternDef, build_library
from .emit import emit_manchester, emit_struct_dump, stratify
from .instantiate import (
    AnonymousArg,
    Bindings,
    EmptyOptArg,
    Instantiation,
    ListArg,
    LocalSymbolArg,
    NamedOntologyArg,
    check_compatibility,
    check_constraints,
    derive_fitting,
    elide_optional,
    expand,
    expand_named,
    match_template,
    substitute_name,
)
from .parser import parse_frames, parse_library
from .syntax import pretty_print

__all__ = [
    "Axiom", "ClassAssertion", "DifferentIndividuals", "Domain", "EquivalentToUnion",
    "FittingMorphism", "FlatOntology", "EMPTY_ONTOLOGY", "InverseOf", "NameTerm",
    "Range", "Reflexive", "SubPropertyOf", "Symbol", "SymbolKind", "Transitive",
    "apply_morphism", "axioms_mentioning", "make_ontology", "name", "union_flat",
    "Diagnostic", "GodpError", "SourcePos", "render_diagnostics",
    "Library", "PatternDef", "build_library",
    "emit_manchester", "emit_struct_dump", "stratify",
    "AnonymousArg", "Bindings", "EmptyOptArg", "Instantiation", "ListArg",
    "LocalSymbolArg", "NamedOntologyArg", "check_compatibility", "check_constraints",
    "derive_fitting", "elide_optional", "expand", "expand_named", "match_template",
    "substitute_name",
    "parse_frames", "parse_library", "pretty_print",
]
