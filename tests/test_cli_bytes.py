"""CLI bytes stay identical: the exit code, stdout and stderr of every run in
the table `golden/cli_bytes.json` must hash to the recorded sha256.

The runs are in-process calls of `godp.cli.main`, with the repository root as
the working directory and relative paths:

- `list`, `check` and `check --depth 20` over `corpus/`, and over `corpus/`
  plus each `corpus/errors/` file;
- `check` of each `corpus/errors/` file alone;
- `expand` of every definition of `corpus/` in both formats, with and
  without `--no-stratify`.

A change that alters any of these outputs on purpose regenerates the table
with

    PYTHONPATH=src python tests/test_cli_bytes.py

and says in CHANGES.md which outputs changed and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys

import pytest

from godp.cli import main

from conftest import ERRORS, GOLDEN, ROOT, corpus_paths, load_corpus_library

TABLE = GOLDEN / "cli_bytes.json"


def _invocations() -> list[list[str]]:
    corpus = [p.relative_to(ROOT).as_posix() for p in corpus_paths()]
    errors = [p.relative_to(ROOT).as_posix() for p in sorted(ERRORS.glob("*.gdp"))]
    runs = []
    for files in [corpus] + [corpus + [e] for e in errors]:
        for command in (["list"], ["check"], ["check", "--depth", "20"]):
            runs.append(command + files)
    runs.extend(["check", e] for e in errors)
    for target in sorted(load_corpus_library().defs):
        for fmt in ("manchester", "dump"):
            for stratify in ([], ["--no-stratify"]):
                runs.append(["expand", "--target", target, "--format", fmt, *stratify, *corpus])
    return runs


def _run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process run from the repository root."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def _digest(result: tuple[int, str, str]) -> str:
    return hashlib.sha256(json.dumps(result).encode("utf-8")).hexdigest()


# empty while the table is first written; the coverage test then fails
_TABLE = json.loads(TABLE.read_text(encoding="utf-8")) if TABLE.exists() else {}


def test_the_table_covers_every_invocation():
    assert sorted(_TABLE) == sorted(" ".join(argv) for argv in _invocations())


@pytest.mark.parametrize("invocation", sorted(_TABLE))
def test_cli_bytes_are_unchanged(invocation):
    result = _run(invocation.split(" "))
    assert _digest(result) == _TABLE[invocation], (
        f"godp {invocation} changed its output:\n"
        f"exit code {result[0]}\n--- stdout ---\n{result[1]}--- stderr ---\n{result[2]}"
    )


if __name__ == "__main__":
    table = {" ".join(argv): _digest(_run(argv)) for argv in _invocations()}
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {len(table)} digests to {TABLE.relative_to(ROOT)}\n")
