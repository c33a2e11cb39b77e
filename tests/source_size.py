"""The size of `src/godp`: lines and AST nodes of each module, and their
totals, the two measures of ROADMAP's "src/ no larger" aim (`setup_s`
follows the AST nodes compiled when no bytecode is cached). With `--base
REV`, the same for the git revision REV, read with `git ls-tree` and `git
show`, and the difference; a revision that cannot be read exits 2.

    python3 tests/source_size.py [--base REV]
"""

from __future__ import annotations

import argparse
import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = "src/godp"


def sizes(texts: dict[str, str]) -> dict[str, tuple[int, int]]:
    """Each module's lines (as `wc -l` counts them) and AST nodes."""
    return {name: (text.count("\n"), sum(1 for _ in ast.walk(ast.parse(text)))) for name, text in texts.items()}


def working_tree() -> dict[str, str]:
    return {p.name: p.read_text(encoding="utf-8") for p in sorted((ROOT / SRC).glob("*.py"))}


def at_revision(rev: str) -> dict[str, str]:
    """The modules of `src/godp` at `rev`; a `CalledProcessError` if git
    cannot read it."""

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, encoding="utf-8", check=True
        ).stdout

    paths = [p for p in git("ls-tree", "--name-only", f"{rev}^{{tree}}", f"{SRC}/").splitlines() if p.endswith(".py")]
    return {Path(p).name: git("show", f"{rev}:{p}") for p in paths}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", metavar="REV", help="also show the sizes at this git revision, and the difference")
    args = parser.parse_args(argv)
    now = sizes(working_tree())
    if args.base is None:
        print(f"{'module':<16}{'lines':>8}{'nodes':>8}")
        for name, (lines, nodes) in [*now.items(), ("total", tuple(map(sum, zip(*now.values()))))]:
            print(f"{name:<16}{lines:>8}{nodes:>8}")
        return 0
    try:
        base = sizes(at_revision(args.base))
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"source_size: cannot read revision {args.base!r}: {getattr(e, 'stderr', None) or e}".strip(),
              file=sys.stderr)
        return 2
    print(f"{'module':<16}{'lines':>8}{'base':>8}{'diff':>7}{'nodes':>8}{'base':>8}{'diff':>7}")
    rows = {name: (*now.get(name, (0, 0)), *base.get(name, (0, 0))) for name in sorted(now.keys() | base.keys())}
    for name, (lines, nodes, lines0, nodes0) in [*rows.items(), ("total", tuple(map(sum, zip(*rows.values()))))]:
        print(f"{name:<16}{lines:>8}{lines0:>8}{lines - lines0:>+7}{nodes:>8}{nodes0:>8}{nodes - nodes0:>+7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
