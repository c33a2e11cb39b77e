"""Every AST node keeps its source position: the table
`golden/ast_positions.json` lists, for each input, the position of every
node that carries one, in walk order, or the error the input gives.

A record's `==` leaves `pos` out, so the other AST tests cannot see a
position that moves; this one compares positions alone. The inputs are
`corpus/*.gdp`, `corpus/errors/*.gdp`, and the small texts of `SMALL` below:
CRLF line ends, tabs, a byte-order mark, a trailing `%%` comment, every
parameter and argument form, and lexer and parser errors.

A change that moves positions on purpose regenerates the table with

    PYTHONPATH=src python tests/test_ast_positions.py

and says in CHANGES.md which positions moved and why.
"""

from __future__ import annotations

import json
import pathlib
import sys

from godp.diagnostics import GodpError, SourcePos
from godp.parser import parse_library
from godp.record import Record

ROOT = pathlib.Path(__file__).resolve().parent.parent
TABLE = ROOT / "tests" / "golden" / "ast_positions.json"

SMALL = {
    "crlf": "ontology A [Class: C] =\r\n  { Class: C\r\n    ObjectProperty: r Domain: C }\r\n\r\n"
            "ontology B = A[D]\r\n",
    "tabs": "ontology\tT =\t{\tClass:\tX\tEquivalentTo: {a,\tb} }\n"
            "\tthen\tU[x :: y :: empty;\t; empty fit p |-> q]\n",
    "bom": "\ufeffontology A = { Class: C }\n",
    "bom as the cli reads it": "\ufeffontology A = { Class: C }\n".removeprefix("\ufeff"),
    "trailing comment": "ontology A = { Class: C } end %% the end",
    "trailing comment, no body": "ontology A = %% no body",
    "every form": (
        "ontology P [? Class: x :: y :: ys; empty; ObjectProperty: r; Individual: i :: is] given G, H =\n"
        "  let ontology L = { Class: K } ontology M [Class: c] = L in\n"
        "  L then P[a, b; ; {Class: Z}; g[h] :: t fit u |-> v, w |-> z] then M[empty] end\n"
        "ontology F = ObjectProperty: r Characteristics: Transitive, Reflexive InverseOf: s\n"
        "  Individual: a Types: C DifferentFrom: b DifferentIndividuals: a, b\n"
        "  Class: g[h, k[l]] EquivalentTo: {m, n}\n"
    ),
    "too deep": "ontology N = " + "G[" * 101 + "x" + "]" * 101,
    "digits only": "ontology A = { Class: 042 }",
    "bad character": "ontology A =\n  { Class: C } $",
    "unclosed parameters": "ontology A [Class: C = { }",
    "unsupported characteristic": "ontology A = ObjectProperty: r Characteristics: Symmetric",
    "no frame": "ontology A = { Domain: C }",
    "not a definition": "\n\n   Class: C",
}


def positions(text: str, file: str) -> list[str]:
    """`Type.field line:col` for every position in the parsed AST, in walk
    order, or the one line of the error parsing gives."""
    try:
        ast = parse_library(text, file)
    except GodpError as e:
        return [f"{type(e).__name__} {e.pos.line}:{e.pos.col} {e.message}"]
    out: list[str] = []

    def walk(x: object) -> None:
        if isinstance(x, Record):
            for f in x._fields:
                v = getattr(x, f)
                if isinstance(v, SourcePos):
                    assert v.file == file, (v, file)
                    out.append(f"{type(x).__name__}.{f} {v.line}:{v.col}")
                else:
                    walk(v)
        elif isinstance(x, tuple):
            for v in x:
                walk(v)

    walk(ast)
    return out


def _inputs() -> dict[str, tuple[str, str]]:
    """Each input's name in the table, its text and the file name it parses under."""
    files = sorted((ROOT / "corpus").glob("*.gdp")) + sorted((ROOT / "corpus" / "errors").glob("*.gdp"))
    inputs = {}
    for p in files:
        rel = p.relative_to(ROOT).as_posix()
        inputs[rel] = (p.read_bytes().decode("utf-8"), rel)
    inputs.update((name, (text, "<small>")) for name, text in SMALL.items())
    return inputs


def _table() -> dict[str, list[str]]:
    return {name: positions(text, file) for name, (text, file) in _inputs().items()}


if __name__ == "__main__":
    TABLE.write_text(json.dumps(_table(), indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote the positions of {len(_inputs())} inputs to {TABLE.relative_to(ROOT)}\n")
    sys.exit(0)

import pytest  # noqa: E402 (only pytest needs it: the script above runs without it)

_TABLE = json.loads(TABLE.read_text(encoding="utf-8")) if TABLE.exists() else {}


def test_the_table_covers_every_input():
    assert sorted(_TABLE) == sorted(_inputs())


@pytest.mark.parametrize("name", sorted(_TABLE))
def test_ast_positions_are_unchanged(name):
    text, file = _inputs()[name]
    assert positions(text, file) == _TABLE[name]
