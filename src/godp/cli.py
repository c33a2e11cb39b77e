"""Command-line front end.

    godp check FILES...
    godp expand --target NAME [--format manchester|dump] [--no-stratify]
                [--depth N] [-o OUT] FILES...
    godp list FILES...

Exit codes: 0 success, 1 semantic/parse error, 2 I/O or usage error (an input
file that is not valid UTF-8 is an I/O error).
Diagnostics go to stderr in `file:line:col: severity: message` form; payload
goes to stdout or `-o`. The GODP_DEPTH environment variable overrides the
default expansion depth of `check` and `expand`; an explicit --depth wins
over both. A command runs with the cyclic collector suspended, restored as it
was on every exit: what it makes holds no reference cycle but the formatter of
an argparse usage message, which the next collection frees.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys
from _thread import allocate_lock
from pathlib import Path

from .diagnostics import GodpError, render_diagnostics
from .elaborate import Library, build_library
from .emit import emit_manchester, emit_struct_dump, stratify
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
    for path in map(Path, inputs):
        try:
            # no newline translation, so positions match parse_library on the same text
            text = path.read_bytes().decode("utf-8")
        except UnicodeDecodeError as e:
            # an unreadable input file, reported like the other I/O errors
            raise OSError(f"{path}: not valid UTF-8 ({e.reason} at byte {e.start})") from None
        ast = parse_library(text.removeprefix("\ufeff"), str(path))  # one byte-order mark
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
        if not ns.no_stratify:
            ont = stratify(ont)
        payload = emit_manchester(ont) if ns.format == "manchester" else emit_struct_dump(ont)
    except GodpError as e:
        e.ensure_pos(target.pos)  # the emitters know no position
        raise
    if ns.out:
        Path(ns.out).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)
    return 0


def run_list(ns: argparse.Namespace) -> int:
    lib = _read_library(ns.inputs)
    for name, d in sorted(lib.defs.items()):
        shapes = ",".join([p.shape_word for p in d.clauses[0].params])
        sys.stdout.write(f"{name} {d.arity} {shapes}".rstrip() + "\n")
    return 0


@functools.cache  # one per process: building it costs ten times parsing with it
def _argparser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="godp", description="Generic ontology design patterns")
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


def main(argv: list[str] | None = None) -> int:
    enabled = False
    try:  # so an interrupt that lands after the disable still meets the `finally`
        with _GC_LOCK:
            enabled = gc.isenabled()
            gc.disable()
        try:
            ns = _argparser().parse_args(argv)
        except SystemExit as e:
            return 2 if e.code not in (0, None) else 0

        if ns.command != "list":  # the commands that expand
            option = "--depth"
            if ns.depth is None:
                ns.depth, option = _default_depth(), "GODP_DEPTH"
                if ns.depth is None:
                    return 2
            if ns.depth < 1:
                sys.stderr.write(f"godp: {option} must be at least 1\n")
                return 2
        try:
            if ns.command == "check":
                return run_check(ns)
            if ns.command == "expand":
                return run_expand(ns)
            return run_list(ns)
        except OSError as e:
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
