from __future__ import annotations

import pathlib

import pytest
from hypothesis import settings

from godp import build_library, parse_library
from godp.blocks import BlockTemplate
from godp.elaborate import Call
from godp.instantiate import EmptyOptArg, ListArg, LocalSymbolArg, _ExprArg
from godp.syntax import LibraryAst

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
ERRORS = CORPUS / "errors"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

# Every run draws the same examples, so a shared or slow machine neither
# changes what is tested nor fails a test on time; `--hypothesis-profile`
# selects another profile.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


def corpus_paths() -> list[pathlib.Path]:
    return sorted(CORPUS.glob("*.gdp"))


def load_library(paths):
    items = []
    for f in paths:
        items.extend(parse_library(f.read_text(encoding="utf-8"), str(f)).items)
    return build_library(LibraryAst(tuple(items)))


def load_corpus_library():
    return load_library(corpus_paths())


def lib_of(source: str, file: str = "<test>"):
    return build_library(parse_library(source, file))


def unresolved(lib) -> list:
    """What a built library must not hold in a clause body, locals included:
    anything but calls and compiled blocks, a call whose qual names no
    definition in the library's table, or one whose arguments are not one
    checked form per parameter of the callee (a `ListArg` for each list
    parameter)."""
    bad = []

    def expr(e) -> None:
        if isinstance(e, tuple):
            for t in e:
                expr(t)
        elif not isinstance(e, Call):
            if not isinstance(e, BlockTemplate):
                bad.append(e)
        elif e.qual not in lib.quals:
            bad.append(e)
        elif e.args is not None:
            params = lib.quals[e.qual].clauses[0].params
            if len(e.args) != len(params):
                bad.append(e)
            for p, a in zip(params, e.args):
                if p.is_list and not isinstance(a, ListArg) or type(a) not in _FORMS:
                    bad.append(a)
                elif isinstance(a, _ExprArg):
                    expr(a.expr)

    def visit(d) -> None:
        for c in d.clauses:
            expr(c.body)
        for loc in d.locals.values():
            visit(loc)

    for d in lib.defs.values():
        visit(d)
    return bad


_FORMS = (LocalSymbolArg, EmptyOptArg, ListArg, _ExprArg)


@pytest.fixture(scope="session")
def corpus_lib():
    return load_corpus_library()


@pytest.fixture(scope="session")
def corpus_files():
    return corpus_paths()
