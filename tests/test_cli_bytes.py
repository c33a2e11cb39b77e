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

    PYTHONPATH=src python tests/test_cli_bytes.py --check

compares every run with the table instead, and exits 1 if one differs or if
an exception was raised where none can propagate, such as the warning about a
file left unclosed under `python -W error::ResourceWarning`. This script mode
imports neither pytest nor hypothesis, so it runs on any supported Python
with nothing installed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys

from godp.cli import _read_library, main

ROOT = pathlib.Path(__file__).resolve().parent.parent
TABLE = ROOT / "tests" / "golden" / "cli_bytes.json"


def _invocations() -> list[list[str]]:
    corpus = sorted((ROOT / "corpus").glob("*.gdp"))
    errors = [p.relative_to(ROOT).as_posix() for p in sorted((ROOT / "corpus" / "errors").glob("*.gdp"))]
    targets = sorted(_read_library([str(p) for p in corpus]).defs)
    corpus = [p.relative_to(ROOT).as_posix() for p in corpus]
    runs = []
    for files in [corpus] + [corpus + [e] for e in errors]:
        for command in (["list"], ["check"], ["check", "--depth", "20"]):
            runs.append(command + files)
    runs.extend(["check", e] for e in errors)
    for target in targets:
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


def _script(args: list[str]) -> int:
    """Regenerate the table, or with `--check` compare every run with it."""
    if args not in ([], ["--check"]):
        sys.stderr.write("usage: test_cli_bytes.py [--check]\n")
        return 2
    ignored = []  # exceptions in finalizers and the like, printed as usual and counted

    def hook(unraisable) -> None:
        sys.__unraisablehook__(unraisable)
        ignored.append(unraisable.exc_type)

    sys.unraisablehook = hook
    table = {" ".join(argv): _digest(_run(argv)) for argv in _invocations()}
    if not args:
        TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        sys.stdout.write(f"wrote {len(table)} digests to {TABLE.relative_to(ROOT)}\n")
        return 0
    recorded = json.loads(TABLE.read_text(encoding="utf-8"))
    differ = sorted(k for k in table.keys() | recorded.keys() if table.get(k) != recorded.get(k))
    for invocation in differ:
        sys.stdout.write(f"differs: godp {invocation}\n")
    sys.stdout.write(f"{len(table) - len(differ)} of {len(table)} runs match {TABLE.relative_to(ROOT)}\n")
    if ignored:
        sys.stdout.write(f"{len(ignored)} exceptions ignored during the runs\n")
    return 1 if differ or ignored else 0


if __name__ == "__main__":
    sys.exit(_script(sys.argv[1:]))

import pytest  # noqa: E402 (only pytest needs it: the script above runs without it)

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

