"""The front end's work over `corpus/*.gdp`, in Python calls per token:
`parse_library`, then `build_library` (its import expansions included), each
counted with `sys.setprofile`. A number that is the same on any machine with
the same Python; tier-1 tests in `test_parser.py` bound both.

    PYTHONPATH=src python tests/front_end_cost.py
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Callable

from godp import build_library, parse_library
from godp.parser import tokenize
from godp.syntax import LibraryAst

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


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


def main() -> int:
    texts = [(p.read_text(encoding="utf-8"), str(p)) for p in sorted(CORPUS.glob("*.gdp"))]
    tokens = sum(len(tokenize(text, file)) for text, file in texts)
    parsed, items = 0, []
    for text, file in texts:
        calls, ast = count_calls(parse_library, text, file)
        parsed, items = parsed + calls, items + list(ast.items)
    built, _ = count_calls(build_library, LibraryAst(tuple(items)))
    print(f"{tokens} tokens: parse_library {parsed / tokens:.2f}, build_library {built / tokens:.2f} "
          f"Python calls per token (Python {sys.version.split()[0]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
