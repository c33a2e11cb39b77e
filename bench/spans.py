"""Spans around godp's public functions, taken from outside the program.

In a traced run the workload process replaces the module attributes that
godp's own callers look up (see `install`) with wrappers that record one
span per call: name, start, end, parent span and operation id, plus a small
size taken from the result. Each run of the interpreter's cyclic garbage
collector is a span too, so the self time of the span it interrupts leaves
it out. Spans stay in memory; `layer_metrics` folds one pass of them into
the per-layer metrics and `write_jsonl` writes them out.
"""

from __future__ import annotations

import gc
import json
import time
from collections import defaultdict
from statistics import fmean
from typing import Callable

NAME, START, END, PARENT, OP, INFO = range(6)


class Recorder:
    """Collects nested spans; `parent` is an index into the current list."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []

    def open(self, name: str) -> list:
        # the list literal is the only allocation that can start a garbage
        # collection here, and it happens before the span is linked in
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span[START] = self.clock()
        return span

    def close(self, span: list) -> None:
        span[END] = self.clock()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, info: Callable | None = None) -> Callable:
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if info is not None:
                span[INFO] = info(args, result)
            return result

        return traced

    def take(self) -> list[list]:
        """The spans recorded so far; call only between operations."""
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    children = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - children[i] for i, s in enumerate(spans)]


def _size(args, result) -> int:
    return len(result)


def _emitted(args, result) -> int:
    return len(result.encode("utf-8"))


def install(rec: Recorder) -> Callable[[], None]:
    """Wrap godp's public functions where their callers look them up.

    Returns a function that puts the originals back.
    """
    import godp.cli as cli
    import godp.core as core
    import godp.elaborate as elaborate
    import godp.instantiate as instantiate
    import godp.parser as parser

    saved = []

    def patch(owner, attr: str, name: str, info: Callable | None = None) -> None:
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, rec.wrap(name, original, info))

    def expanded(args, result):
        return (args[1], len(result.signature), len(result.axioms))

    patch(parser, "tokenize", "parser.tokenize", _size)
    patch(cli, "parse_library", "parser.parse_library", lambda a, r: len(r.items))
    patch(cli, "build_library", "elaborate.build_library", lambda a, r: len(r.defs))
    # elaborate imports expand_named from instantiate at call time, so the
    # module attribute also catches the import expansions of build_library
    patch(cli, "expand_named", "instantiate.expand_named", expanded)
    patch(instantiate, "expand_named", "instantiate.expand_named", expanded)
    patch(cli, "stratify", "emit.stratify")
    patch(cli, "emit_manchester", "emit.emit_manchester", _emitted)
    patch(cli, "emit_struct_dump", "emit.emit_struct_dump", _emitted)
    for module in (core, elaborate, instantiate):
        patch(module, "union_flat", "core.union_flat", lambda a, r: len(r.signature))
        patch(module, "make_ontology", "core.make_ontology")
    patch(core.FlatOntology, "kind_of", "core.kind_of")
    stop_gc_spans = trace_gc(rec)

    def restore() -> None:
        stop_gc_spans()
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore


def trace_gc(rec: Recorder) -> Callable[[], None]:
    """Record each garbage collection as a `python.gc` span; returns the undo."""
    collecting = []

    def on_gc(phase: str, info: dict) -> None:
        if phase == "start":
            collecting.append(rec.open("python.gc"))
        elif collecting:
            rec.close(collecting.pop())

    gc.callbacks.append(on_gc)
    return lambda: gc.callbacks.remove(on_gc)


TIMED_LAYERS = {
    "cli.main": "cli.self_s",
    "parser.tokenize": "parser.tokenize_s",
    "parser.parse_library": "parser.parse_library_s",
    "elaborate.build_library": "elaborate.build_library_s",
    "instantiate.expand_named": "instantiate.expand_named_s",
    "core.union_flat": "core.union_flat_s",
    "core.kind_of": "core.kind_of_s",
    "core.make_ontology": "core.make_ontology_s",
    "emit.stratify": "emit.stratify_s",
    "emit.emit_manchester": "emit.emit_manchester_s",
    "emit.emit_struct_dump": "emit.emit_struct_dump_s",
    "python.gc": "python.gc_s",
}


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one pass: self times, counts and rates."""
    selfs = self_times(spans)
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    infos: dict[str, list] = defaultdict(list)
    for s, own in zip(spans, selfs):
        busy[s[NAME]] += own
        calls[s[NAME]] += 1
        if s[INFO] is not None:
            infos[s[NAME]].append(s[INFO])

    out = {metric: busy[name] for name, metric in TIMED_LAYERS.items()}

    tokens = sum(infos["parser.tokenize"])
    out["parser.tokens"] = tokens
    out["parser.tokens_per_s"] = tokens / busy["parser.tokenize"] if tokens else 0.0
    out["parser.items"] = sum(infos["parser.parse_library"])

    out["elaborate.defs"] = sum(infos["elaborate.build_library"])
    imports = _import_expansions(spans)
    expansions = sum(len(names) for names in imports.values())
    distinct = sum(len(set(names)) for names in imports.values())
    out["elaborate.import_expansions"] = expansions
    out["elaborate.import_reuse"] = distinct / expansions if expansions else 1.0

    expanded = infos["instantiate.expand_named"]
    out["instantiate.expand_named.calls"] = calls["instantiate.expand_named"]
    out["instantiate.out_symbols"] = sum(e[1] for e in expanded)
    out["instantiate.out_axioms"] = sum(e[2] for e in expanded)

    out["core.union_flat.calls"] = calls["core.union_flat"]
    out["core.union_flat.sig_mean"] = fmean(infos["core.union_flat"]) if infos["core.union_flat"] else 0.0
    out["core.kind_of.calls"] = calls["core.kind_of"]
    out["core.make_ontology.calls"] = calls["core.make_ontology"]

    out["python.gc.collections"] = calls["python.gc"]

    emitted = sum(infos["emit.emit_manchester"]) + sum(infos["emit.emit_struct_dump"])
    emit_s = busy["emit.emit_manchester"] + busy["emit.emit_struct_dump"]
    out["emit.bytes_per_s"] = emitted / emit_s if emit_s else 0.0
    return out


def _import_expansions(spans: list[list]) -> dict[int, list[str]]:
    """Names expanded inside each build_library span, keyed by that span."""
    out: dict[int, list[str]] = defaultdict(list)
    for s in spans:
        if s[NAME] != "instantiate.expand_named" or s[INFO] is None:
            continue
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != "elaborate.build_library":
            p = spans[p][PARENT]
        if p >= 0:
            out[p].append(s[INFO][0])
    return out


def write_jsonl(path, spans: list[list]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for i, s in enumerate(spans):
            f.write(json.dumps({
                "id": i, "name": s[NAME], "start": s[START], "end": s[END],
                "parent": s[PARENT], "op": s[OP], "info": s[INFO],
            }) + "\n")
