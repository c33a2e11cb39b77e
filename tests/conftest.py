from __future__ import annotations

import pathlib

import pytest
from hypothesis import settings

from godp import build_library, parse_library
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


@pytest.fixture(scope="session")
def corpus_lib():
    return load_corpus_library()


@pytest.fixture(scope="session")
def corpus_files():
    return corpus_paths()
