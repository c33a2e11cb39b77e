"""The functions of `src/godp` that no command runs.

In one fresh interpreter, with a `sys.settrace` function that records the
code of every call (call events only, so no line is traced), it imports
`godp` and runs, in process:

- the CLI-bytes invocations, as `tests/test_cli_bytes.py --check` runs them;
- every operation of each workload of `bench/workloads.py` at seed 7, in a
  temporary directory, checked as `bench/worker.py` checks it.

It then prints each function (`def`) of `src/godp` that no call reached,
with its AST nodes and the reason in `KEEP` that it stays. Every such
function needs one: code that nothing runs and nothing keeps is deleted.
With `--check` it exits 1 when an unreached function has no reason, when a
`KEEP` entry names no function of `src/godp` or one that a run reaches, or
when a run did not give its expected result.

    python3 tests/reach.py [--check]
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "godp"
SEED = 7

ENTRY = "a public entry that ROADMAP item 21 keeps"
VALUE = "the value protocol"
PRETTY = "the pretty-printer used for round trips"
SPANS = "read by bench/spans.py"
USAGE = "argparse's help and usage output, which tests/test_cli.py runs"

# Each function that no run reaches, by qualified name, and why it stays.
KEEP = {
    "cli._ArgumentParser._print_message": USAGE,
    "core.Axiom.canonical": ENTRY,  # make_ontology's
    "core.Axiom.is_vacuous": ENTRY,  # make_ontology's
    "core.FittingMorphism.__init__": ENTRY,  # what derive_fitting returns
    "core.FittingMorphism.of": ENTRY,
    "core.FlatOntology.__hash__": VALUE,
    "core.FlatOntology.signature": SPANS,
    "core.NameTerm.__copy__": VALUE,
    "core.NameTerm.__reduce__": VALUE,
    "core.NameTerm.__repr__": VALUE,
    "core.NameTerm.__setattr__": VALUE,
    "core.Symbol.key": ENTRY,  # FittingMorphism.of's order
    "core.make_ontology": SPANS,
    "core.name": ENTRY,
    "emit.stratify": SPANS,
    "instantiate._entry_form": ENTRY,  # expand's and derive_fitting's
    "instantiate.check_compatibility": ENTRY,
    "instantiate.check_constraints": ENTRY,
    "instantiate.derive_fitting": ENTRY,
    "instantiate.elide_optional": ENTRY,
    "instantiate.expand": ENTRY,
    "instantiate.match_template": ENTRY,
    "instantiate.substitute_name": ENTRY,
    "parser.Tokens.__iter__": VALUE,
    "parser.Tokens.__len__": SPANS,
    "parser.parse_frames": ENTRY,
    "record.Record.__reduce__": VALUE,
    "record.Record.__repr__": VALUE,
    "record._refuse": VALUE,
    "record.replace": ENTRY,  # derive_fitting's
    "syntax.pp_arg": PRETTY,
    "syntax.pp_def": PRETTY,
    "syntax.pp_expr": PRETTY,
    "syntax.pp_frame": PRETTY,
    "syntax.pp_frames": PRETTY,
    "syntax.pp_param": PRETTY,
    "syntax.pretty_print": PRETTY,
}


def functions() -> dict[tuple[str, int], tuple[str, int]]:
    """Each function of `src/godp`, keyed by its file and the first line of
    its code (its first decorator's, if it has one): its qualified name,
    `module.Class.function`, and its AST nodes. A name defined twice in one
    scope gets `#2`, `#3`, … from its second definition on."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        seen: dict[str, int] = {}

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{prefix}.{child.name}"
                    seen[qual] = seen.get(qual, 0) + 1
                    if seen[qual] > 1:
                        qual += f"#{seen[qual]}"
                    first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    found[os.path.realpath(path), first] = (qual, sum(1 for _ in ast.walk(child)))
                    visit(child, qual)
                else:
                    visit(child, f"{prefix}.{child.name}" if isinstance(child, ast.ClassDef) else prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def _cli_bytes() -> list[str]:
    """Run `tests/test_cli_bytes.py --check` in process: its count, and
    each difference or ignored exception it reports, as a failed run."""
    out, argv = io.StringIO(), sys.argv
    sys.argv = [str(ROOT / "tests" / "test_cli_bytes.py"), "--check"]
    try:
        with contextlib.redirect_stdout(out), contextlib.suppress(SystemExit):
            runpy.run_path(sys.argv[0], run_name="__main__")
    finally:
        sys.argv = argv
    return [f"CLI bytes: {line}" if " runs match " in line else f"  {line}" for line in out.getvalue().splitlines()]


def _workloads() -> list[str]:
    """Run every operation of each workload at `SEED`; one line per failed
    operation after each workload's count."""
    sys.path.insert(0, str(ROOT / "bench"))
    import reference
    import worker
    import workloads
    from godp.cli import main

    lines, cwd = [], os.getcwd()
    for name in workloads.GENERATORS:
        w = workloads.generate(ROOT, name, SEED)
        failures = []
        with tempfile.TemporaryDirectory() as work:
            w.write_files(Path(work))
            os.chdir(work)
            try:
                for op in map(asdict, w.ops):
                    _, _, stdout, stderr, exc, code = worker.run_op(main, op)
                    if why := reference.mismatch(op, stdout, stderr, exc, code):
                        failures.append(f"  {' '.join(op['argv'][:3])}: {why}")
            finally:
                os.chdir(cwd)
        lines += [f"{name}: {len(w.ops) - len(failures)} of {len(w.ops)} operations as expected", *failures]
    return lines


def collect() -> tuple[list[str], set[tuple[str, int]]]:
    """Import `godp` and do every run under a call tracer: what the runs
    report, and the file and first line of each code object called."""
    if "godp" in sys.modules:
        raise RuntimeError("reach needs a fresh interpreter: calls made before it runs are not seen")
    called = set()

    def on_call(frame, event, arg) -> None:  # no local tracer: line events stay off
        called.add(frame.f_code)

    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(on_call)  # godp starts no thread
    try:
        report = _cli_bytes() + _workloads()
    finally:
        sys.settrace(None)
    return report, {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in called}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on an unreached function outside KEEP, a stale or reached KEEP entry, "
                        "or a failed run")
    args = parser.parse_args(argv)
    report, called = collect()
    defs = functions()
    unreached = sorted(qual_nodes for key, qual_nodes in defs.items() if key not in called)
    names = {qual for qual, _ in defs.values()}
    stale = sorted(KEEP.keys() - names)
    reached = sorted(qual for key, (qual, _) in defs.items() if qual in KEEP and key in called)
    unkept = [qual for qual, _ in unreached if qual not in KEEP]
    failed = [line for line in report if line.startswith("  ")]
    print(*report, sep="\n")
    print(f"{len(unreached)} of {len(defs)} functions in src/godp unreached, "
          f"{sum(n for _, n in unreached)} AST nodes:")
    for qual, nodes in unreached:
        print(f"  {qual:<52}{nodes:>6}  {KEEP.get(qual, 'NOT IN KEEP')}")
    for qual in stale:
        print(f"KEEP names {qual}, which is not a function of src/godp")
    for qual in reached:
        print(f"KEEP names {qual}, which a run reaches")
    return 1 if args.check and (unkept or stale or reached or failed) else 0


if __name__ == "__main__":
    sys.exit(main())
