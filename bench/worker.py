"""The workload process: runs passes of CLI operations in process.

    python3 worker.py setup
    python3 worker.py digest SPEC WORKDIR
    python3 worker.py run SPEC WORKDIR --seconds S [--trace-out FILE]

SPEC is the JSON written by run.py. The process imports `godp.cli` (found
through PYTHONPATH), changes into WORKDIR and calls `godp.cli.main` once per
operation, with stdout and stderr captured. Every result is checked against
the expected one in SPEC. It starts no threads and no processes.

`setup` times the import of `godp.cli` and then the calibration loop.
`digest` runs a single pass and prints a digest of each operation's result.
`run` runs one warm-up pass, then passes for S seconds, timing the
calibration loop before and after each one. With --trace-out it instead
alternates untraced and traced passes (see spans.py), so both see the same
machine conditions, and writes the spans of the last traced pass to FILE.
Every mode prints one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

import spans
from reference import mismatch

MAX_FAILURE_NOTES = 5
REPEAT_CHECK = "repeatable output"


_CALIBRATION_TEXT = "ontology Foo [Class: C; ObjectProperty: r Domain: C] = { Class: C }\n" * 150


def calibrate() -> float:
    """Seconds taken by a fixed piece of pure-Python work.

    It mixes the kinds of work godp does: scanning text character by
    character, and hashing small tuples into dicts, sets and frozenset
    unions. It runs next to every pass, so run.py can scale pass times by
    how fast the interpreter ran at that moment on a shared machine.
    """
    start = time.perf_counter()
    text, words, i = _CALIBRATION_TEXT, [], 0
    while i < len(text):
        j = i
        while j < len(text) and (text[j].isalnum() or text[j] == "_"):
            j += 1
        if j > i:
            words.append(text[i:j])
        i = j + 1
    counts: dict = {}
    union = frozenset()
    for k, word in enumerate(words):
        key = (word, k & 255)
        counts[key] = counts.get(key, 0) + 1
        if k % 64 == 0:
            union = union | frozenset(counts)
    sorted(counts)
    seen = set()
    for k in range(15000):
        key = (k & 255, k & 7)
        counts[key] = counts.get(key, 0) + 1
        seen.add(key)
    return time.perf_counter() - start


def import_cli():
    """Import godp.cli; returns its main and the seconds the import took."""
    start = time.perf_counter()
    from godp.cli import main
    return main, time.perf_counter() - start


def run_op(main, op: dict) -> tuple[float, float, str, str, str | None, object]:
    """Call the CLI once; returns (wall, cpu, stdout, stderr, exception, exit)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    exc = None
    code = None
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        code = main(list(op["argv"]))
    except Exception as e:  # an escaping exception is a failed operation
        exc = f"{type(e).__name__}: {e}"[:200]
    finally:
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        sys.stdout, sys.stderr = saved
    return wall, cpu, out.getvalue(), err.getvalue(), exc, code


class Runner:
    def __init__(self, ops: list[dict], main):
        self.ops = ops
        self.main = main
        self.attempted = 0
        self.failed = 0
        self.failed_ops: set = set()  # distinct operations that failed at least once
        self.notes: list[str] = []
        self.last_spans: list[list] = []

    def fail(self, key, note: str) -> None:
        self.failed += 1
        self.failed_ops.add(key)
        if len(self.notes) < MAX_FAILURE_NOTES:
            self.notes.append(note)

    def run_pass(self, rec: spans.Recorder | None = None) -> dict:
        """One pass over every operation; times exclude the checking."""
        digests = []
        wall = cpu = 0.0
        groups = {"base": 0.0, "double": 0.0, "other": 0.0}
        out_bytes = 0
        for i, op in enumerate(self.ops):
            if rec is not None:
                rec.op += 1
            w, c, stdout, stderr, exc, code = run_op(self.main, op)
            wall += w
            cpu += c
            groups[op["group"]] += w
            out_bytes += len(stdout.encode("utf-8")) + len(stderr.encode("utf-8"))
            result = json.dumps([op["argv"], code, exc, stdout, stderr]).encode("utf-8")
            digests.append(hashlib.sha256(result).hexdigest()[:16])
            self.attempted += 1
            why = mismatch(op, stdout, stderr, exc, code)
            if why is not None:
                self.fail(i, f"{' '.join(op['argv'][:3])}: {why}")
        return {"wall": wall, "cpu": cpu, "groups": groups,
                "bytes": out_bytes, "digests": digests}

    def run_for(self, seconds: float) -> list[dict]:
        passes = []
        deadline = time.perf_counter() + seconds
        before = calibrate()
        while not passes or time.perf_counter() < deadline:
            p = self.run_pass()
            after = calibrate()
            p["cal"] = (before + after) / 2
            before = after
            passes.append(p)
        return passes

    def run_alternating(self, seconds: float) -> tuple[list[dict], list[dict], list[dict]]:
        """Untraced and traced passes in turn; also each traced pass's layers."""
        plain, rec = self.main, spans.Recorder()
        untraced, traced, layers = [], [], []
        deadline = time.perf_counter() + seconds
        while not traced or time.perf_counter() < deadline:
            untraced.append(self.run_pass())
            restore = spans.install(rec)
            self.main = rec.wrap("cli.main", plain)
            try:
                traced.append(self.run_pass(rec))
            finally:
                restore()
                self.main = plain
            self.last_spans = rec.take()
            layers.append(spans.layer_metrics(self.last_spans))
        return untraced, traced, layers

    def check_repeats(self, passes: list[dict]) -> None:
        """Output bytes and digest must be the same in every pass."""
        self.attempted += 1
        for key in ("digests", "bytes"):
            values = {str(p[key]) for p in passes}
            if len(values) > 1:
                self.fail(REPEAT_CHECK, f"pass {key} not repeatable: {len(values)} values")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "digest", "run"))
    ap.add_argument("spec", nargs="?")
    ap.add_argument("workdir", nargs="?")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args()
    godp_main, import_s = import_cli()
    if args.mode == "setup":
        print(json.dumps({"import_s": import_s, "cal": calibrate()}))
        return 0

    spec = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    trace_out = Path(args.trace_out).resolve() if args.trace_out else None
    os.chdir(args.workdir)
    runner = Runner(spec["ops"], godp_main)
    if args.mode == "digest":
        p = runner.run_pass()
        print(json.dumps({"digests": p["digests"]}))
        return 0

    result: dict = {"import_s": import_s, "import_cal": calibrate()}
    warmup = runner.run_pass()
    if trace_out is None:
        passes = runner.run_for(args.seconds)
        runner.check_repeats([warmup] + passes)
    else:
        passes, traced, layers = runner.run_alternating(args.seconds)
        runner.check_repeats([warmup] + passes + traced)
        spans.write_jsonl(trace_out, runner.last_spans)
        result["traced"] = traced
        result["layers"] = layers
    result.update({
        "passes": passes,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "distinct_ops": len(runner.ops) + 1,
        "failed_ops": len(runner.failed_ops),
        "notes": runner.notes,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
