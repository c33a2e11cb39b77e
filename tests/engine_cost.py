"""The engine's work on chains of closed expansions and on one list
recursion, in traced line events of `src/godp` per step (a definition of a
chain, an item of the list): `godp check` of four generated libraries of n
steps, at n = 100 and 200, and the ratio of the two counts.

- import chain: `ontology Di given D(i+1) = { Class: ci }`;
- then chain: `ontology Di = D(i+1) then { Class: ci }`;
- failing chain, run with `--depth 20`:
  `ontology Di = P[ai] then P[bi] then P[ci] then D(i+1) then { Class: ci }`,
  whose last definition makes 30 calls, more than 20 ticks allow;
- elision chain, a list recursion that elides an optional parameter at each
  of its n levels: `ontology E [? Class: C; Individual: x :: xs] =
  { Individual: x } then E[ ; xs]`, `ontology E [? Class: C; empty] = { }`
  and `ontology T = E[ ; i0, …]` over n items.

A count is exact: the same on any machine with the same Python. Each library
is checked twice and the second run counted, so names that the first run
interned, and the CLI's cached argument parser, cost the same at every n. A
tier-1 test in `test_instantiate.py` bounds the ratios with `check_cost`.

Run as a script, it also prints each chain's `tracemalloc` peak, in MB, of
the second of two untraced checks at the same sizes (`check_peak`): what the
memo entries and accumulators of a run hold at once. No test reads it.

    PYTHONPATH=src python tests/engine_cost.py
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
import tracemalloc
from pathlib import Path

import godp
from godp import cli

SOURCES = str(Path(godp.__file__).parent) + os.sep  # as the code objects name their files
SIZES = (100, 200)


def _import_chain(n: int) -> str:
    return "".join(f"ontology D{i} given D{i + 1} = {{ Class: c{i} }}\n" for i in range(n)) + (
        f"ontology D{n} = {{ Class: z }}\n"
    )


def _then_chain(n: int) -> str:
    return "".join(f"ontology D{i} = D{i + 1} then {{ Class: c{i} }}\n" for i in range(n)) + (
        f"ontology D{n} = {{ Class: z }}\n"
    )


def _failing_chain(n: int) -> str:
    calls = " then ".join(f"P[z{j}]" for j in range(30))
    return (
        "ontology P [Class: X] = { Class: X }\n"
        + "".join(
            f"ontology D{i} = P[a{i}] then P[b{i}] then P[c{i}] then D{i + 1} then {{ Class: c{i} }}\n"
            for i in range(n - 1)
        )
        + f"ontology D{n - 1} = {calls}\n"
    )


def _elision_chain(n: int) -> str:
    items = ", ".join(f"i{j}" for j in range(n))
    return (
        "ontology E [? Class: C; Individual: x :: xs] = { Individual: x } then E[ ; xs]\n"
        "ontology E [? Class: C; empty] = { }\n"
        f"ontology T = E[ ; {items}]\n"
    )


# name -> (library of n steps, the arguments of `check` before its file)
CHAINS = {
    "import chain": (_import_chain, []),
    "then chain": (_then_chain, []),
    "failing chain": (_failing_chain, ["--depth", "20"]),
    "elision chain": (_elision_chain, []),
}


@contextlib.contextmanager
def _library_file(text: str):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "chain.gdp")
        path.write_text(text, encoding="utf-8")
        yield path


def check_cost(text: str, options: list[str]) -> tuple[int, int, str]:
    """`godp check` of the library `text`: the line events it traces in
    `src/godp` on its second run, its exit code and its stderr."""
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(SOURCES) else None

    with _library_file(text) as path:
        previous = sys.gettrace()
        for tracer in (previous, call):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                sys.settrace(tracer)
                try:
                    code = cli.main(["check", *options, str(path)])
                finally:
                    sys.settrace(previous)
    return lines, code, err.getvalue()


def check_peak(text: str, options: list[str]) -> float:
    """`godp check` of the library `text`: the `tracemalloc` peak of its
    second run, in MB."""
    with _library_file(text) as path, contextlib.redirect_stderr(io.StringIO()):
        cli.main(["check", *options, str(path)])
        tracemalloc.start()
        try:
            cli.main(["check", *options, str(path)])
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()


def main() -> int:
    for name, (make, options) in CHAINS.items():
        counts = [check_cost(make(n), options)[0] for n in SIZES]
        per = ", ".join(f"n={n} {c} ({c / n:.0f} per step)" for n, c in zip(SIZES, counts))
        print(f"{name}: {per}; x{counts[1] / counts[0]:.2f} when n doubles")
    print(f"(line events in src/godp, Python {sys.version.split()[0]})")
    for name, (make, options) in CHAINS.items():
        peaks = [check_peak(make(n), options) for n in SIZES]
        per = ", ".join(f"n={n} {p:.2f} MB" for n, p in zip(SIZES, peaks))
        print(f"{name}: {per}; x{peaks[1] / peaks[0]:.2f} when n doubles")
    print("(tracemalloc peak of the second check)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
