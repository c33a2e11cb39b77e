"""Command-line front end.

    godp check FILES...
    godp expand --target NAME [--format manchester|dump] [--no-stratify]
                [--depth N] [-o OUT] FILES...
    godp list FILES...

Exit codes: 0 success, 1 semantic/parse error, 2 I/O or usage error (so is
an input that is not UTF-8, or a stdout pipe whose reader has gone).
Diagnostics go to stderr in `file:line:col: severity: message` form, naming
a file as given; payload goes to stdout or `-o`. The GODP_DEPTH environment
variable overrides the default expansion depth of `check` and `expand`; an
explicit --depth wins over both. A command runs with the cyclic collector
suspended, restored as it was on every exit: what it makes holds no reference
cycle but the formatter of an argparse usage message, which the next
collection frees.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys
from _thread import allocate_lock

from .diagnostics import GodpError, render_diagnostics
from .elaborate import Library, build_library
# the emitters are called by these module attributes, where the benchmark's
# tracer wraps them; `stratify`, no longer called here, stays importable for it
from .emit import emit_manchester, emit_struct_dump, stratify  # noqa: F401
from .instantiate import DEFAULT_DEPTH, expand_named
from .parser import parse_library
from .syntax import LibraryAst, PatternDefAst

_GC_LOCK = allocate_lock()  # so no command's enable falls between another's read and disable


def _default_depth() -> int | None:
    """Depth from GODP_DEPTH, the built-in default, or None if unparseable."""
    raw = os.environ.get("GODP_DEPTH")
    if raw is None:
        return DEFAULT_DEPTH
    try:
        return int(raw)
    except ValueError:
        sys.stderr.write(f"godp: invalid GODP_DEPTH value {raw!r}\n")
        return None


def _read_library(inputs: list[str]) -> Library:
    """Concatenate the input files into one library namespace, in order."""
    items: list[PatternDefAst] = []
    for name in inputs:
        try:
            with open(name, "rb") as f:  # no newline translation: positions match parse_library's
                text = f.read().decode("utf-8")
        except UnicodeDecodeError as e:
            # an unreadable input file, reported like the other I/O errors
            raise OSError(f"{name}: not valid UTF-8 ({e.reason} at byte {e.start})") from None
        ast = parse_library(text.removeprefix("\ufeff"), name)  # one byte-order mark
        items.extend(ast.items)
    return build_library(LibraryAst(tuple(items)))


def run_check(ns: argparse.Namespace) -> int:
    lib = _read_library(ns.inputs)
    diags = []
    for name in sorted(lib.zero_param_names()):
        try:
            expand_named(lib, name, depth=ns.depth)
        except GodpError as e:
            diags.append(e.to_diagnostic())
    if diags:
        # targets that reach one failing definition report it once
        unique = dict.fromkeys(diags)
        ordered = sorted(unique, key=lambda d: (d.pos.file, d.pos.line, d.pos.col))
        sys.stderr.write(render_diagnostics(ordered))
        return 1
    return 0


def run_expand(ns: argparse.Namespace) -> int:
    lib = _read_library(ns.inputs)
    target = lib.defs.get(ns.target)
    if target is None:  # nothing in the input to point at
        sys.stderr.write(f"godp: unknown ontology or pattern '{ns.target}'\n")
        return 1
    ont = expand_named(lib, ns.target, depth=ns.depth)
    try:
        emit = emit_manchester if ns.format == "manchester" else emit_struct_dump
        payload = emit(ont, flat=not ns.no_stratify)
    except GodpError as e:
        e.ensure_pos(target.pos)  # the emitters know no position
        raise
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as f:
            f.write(payload)
    else:
        sys.stdout.write(payload)
    return 0


def run_list(ns: argparse.Namespace) -> int:
    lib = _read_library(ns.inputs)
    for name, d in sorted(lib.defs.items()):
        shapes = ",".join([p.shape_word for p in d.clauses[0].params])
        sys.stdout.write(f"{name} {d.arity} {shapes}".rstrip() + "\n")
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    def _print_message(self, message: str, file=None) -> None:
        """Write as argparse does, but let an OSError such as a closed
        pipe's through, which argparse drops from Python 3.11 on."""
        if message:
            (file or sys.stderr).write(message)


@functools.cache  # one per process: building it costs ten times parsing with it
def _argparser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="godp", description="Generic ontology design patterns")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="parse, build, and dry-expand a library")
    check.add_argument("inputs", nargs="+", metavar="FILES")
    check.add_argument("--depth", type=int, default=None)

    expand = sub.add_parser("expand", help="expand a named ontology")
    expand.add_argument("inputs", nargs="+", metavar="FILES")
    expand.add_argument("--target", required=True)
    expand.add_argument("--format", choices=["manchester", "dump"], default="manchester")
    expand.add_argument("--no-stratify", action="store_true")
    expand.add_argument("--depth", type=int, default=None)
    expand.add_argument("-o", "--out", default=None)

    lst = sub.add_parser("list", help="list definitions and parameter shapes")
    lst.add_argument("inputs", nargs="+", metavar="FILES")
    return parser


def _run(ns: argparse.Namespace) -> int:
    if ns.command != "list":  # the commands that expand
        option = "--depth"
        if ns.depth is None:
            ns.depth, option = _default_depth(), "GODP_DEPTH"
            if ns.depth is None:
                return 2
        if ns.depth < 1:
            sys.stderr.write(f"godp: {option} must be at least 1\n")
            return 2
    return {"check": run_check, "expand": run_expand, "list": run_list}[ns.command](ns)


def main(argv: list[str] | None = None) -> int:
    enabled = False
    try:  # so an interrupt that lands after the disable still meets the `finally`
        with _GC_LOCK:
            enabled = gc.isenabled()
            gc.disable()
        try:
            try:
                ns = _argparser().parse_args(argv)
            except SystemExit as e:  # after argparse's usage error or help
                code = 2 if e.code not in (0, None) else 0
            else:
                code = _run(ns)
            sys.stdout.flush()  # so a closed pipe fails here, as an unbuffered stdout does, not at exit
            return code
        except OSError as e:
            if isinstance(e, BrokenPipeError):  # what stays unwritten goes nowhere at the interpreter's last flush
                os.dup2(null := os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
                os.close(null)
            sys.stderr.write(f"godp: {e}\n")
            return 2
        except GodpError as e:
            sys.stderr.write(render_diagnostics([e.to_diagnostic()]))
            return 1
    finally:
        if enabled:
            with _GC_LOCK:
                gc.enable()


if __name__ == "__main__":
    sys.exit(main())
