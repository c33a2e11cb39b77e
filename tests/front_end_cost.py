"""The front end's work over `corpus/*.gdp`, in Python calls per token:
`parse_library`, then `build_library` (its import expansions included), each
counted with `sys.setprofile`, the parse once the names are interned; and
both over a library shaped like the `wide_library` benchmark's. Numbers that
are the same on any machine with the same Python; tier-1 tests in
`test_parser.py` bound the corpus's two and the wide library's build.

    PYTHONPATH=src python tests/front_end_cost.py
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Callable

from godp import build_library, parse_library
from godp.elaborate import Library
from godp.parser import tokenize
from godp.syntax import LibraryAst

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
# the corpus files whose patterns `wide_library` calls
PATTERNS = ["patterns.gdp", "orders.gdp", "value_sets.gdp"]


def count_calls(fn: Callable, *args) -> tuple[int, object]:
    """The Python function calls that `fn(*args)` makes, and its result."""
    calls = 0

    def count(frame, event, arg) -> None:
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return calls, result


def wide_library(groups: int = 4, per_group: int = 8) -> str:
    """Small definitions over the corpus patterns, in groups that share a
    `given` base: every argument form (a bare name, an instance name, inline
    frames, a named ontology with a fit map, a list) and, in every other one,
    ValSet's optional order left out."""
    out = []
    for g in range(groups):
        out.append(f"ontology B{g} = {{ Class: K{g}  ObjectProperty: o{g} Domain: K{g} Range: K{g} }}\n")
        for i in range(per_group):
            s, order = f"{g}x{i}", f"; greater[V{g}x{i}]" if i % 2 else ""
            out.append(
                f"ontology P{s} = {{ ObjectProperty: h{s}  ObjectProperty: k{s} }}\n"
                f"ontology W{s} given B{g} =\n"
                f"  {{ Class: A{s} }}\n"
                f"  then TransitiveRelation[r{s}; A{s}]\n"
                f"  then SubProp[u{s}; A{s}; A{s}; r{s}]\n"
                f"  then ReflexiveRelation[{{ ObjectProperty: q{s} }}; K{g}]\n"
                f"  then InverseRelation[P{s} fit r |-> h{s}; k{s}; A{s}; K{g}]\n"
                f"  then ValSet[V{s}; {', '.join(f'v{s}y{j}' for j in range(2 + i % 4))}{order}]\n"
            )
    return "".join(out)


def corpus_texts(case: str) -> list[tuple[str, str]]:
    """Each file's text and name: for `"corpus"`, `corpus/*.gdp`; for
    `"wide"`, the `PATTERNS` files and `wide_library()`."""
    paths = sorted(CORPUS.glob("*.gdp"))
    if case == "corpus":
        return [(p.read_text(encoding="utf-8"), str(p)) for p in paths]
    return [(p.read_text(encoding="utf-8"), str(p)) for p in paths if p.name in PATTERNS] + [(wide_library(), "<wide>")]


def build_cost(texts: list[tuple[str, str]]) -> tuple[int, int, Library]:
    """The tokens of `texts`, the Python calls that `build_library` makes
    over their items, and the library it builds."""
    tokens = sum(len(tokenize(text, file)) for text, file in texts)
    ast = LibraryAst(tuple(item for text, file in texts for item in parse_library(text, file).items))
    calls, lib = count_calls(build_library, ast)
    return tokens, calls, lib


def main() -> int:
    for case, what in (("corpus", "in corpus/*.gdp"), ("wide", "shaped like the wide_library benchmark's")):
        texts = corpus_texts(case)
        tokens = sum(len(tokenize(text, file)) for text, file in texts)  # re's first compile of "\n" counts nowhere
        for _ in range(2):  # the second parse is counted: the first interned the names
            parsed = sum(count_calls(parse_library, text, file)[0] for text, file in texts)
        _, built, _ = build_cost(texts)
        print(f"{tokens} tokens {what}: parse_library {parsed / tokens:.2f}, build_library {built / tokens:.2f} "
              f"Python calls per token (Python {sys.version.split()[0]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
