from __future__ import annotations

import ast
import subprocess
import sys

import godp

from conftest import ROOT


def test_every_function_that_no_command_runs_has_a_reason_to_stay():
    """`tests/reach.py --check` in a fresh interpreter, where the import of
    godp is traced too: every function of `src/godp` that neither the CLI
    bytes runs nor the benchmark's workloads call is in its `KEEP` table,
    and each entry of that table names a function that exists."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "reach.py"), "--check"],
        capture_output=True, text=True, timeout=300,
    )
    assert (done.returncode, done.stderr) == (0, ""), done.stdout


def test_godp_exports_exactly_the_public_names_its_init_binds():
    tree = ast.parse((ROOT / "src" / "godp" / "__init__.py").read_text(encoding="utf-8"))
    bound = [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names]
    public = sorted(n for n in bound if not n.startswith("_"))
    assert sorted(godp.__all__) == public
    assert len(set(godp.__all__)) == len(godp.__all__)
    star: dict = {}
    exec("from godp import *", star)  # an AttributeError for a name it lists but does not bind
    assert sorted(star.keys() - {"__builtins__"}) == public
