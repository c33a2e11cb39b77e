"""Tests of the benchmark's own parts: generators, reference checker, spans.

    python -m pytest -q bench/test_bench.py

None of these import godp; they run from a plain checkout.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import reference as ref
import run
import spans
import workloads
from reference import Ontology

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generators_are_deterministic_per_seed_and_differ_across_seeds(name):
    a = workloads.generate(ROOT, name, 7)
    b = workloads.generate(ROOT, name, 7)
    c = workloads.generate(ROOT, name, 8)
    assert a.files == b.files and a.spec() == b.spec()
    assert (a.files, a.spec()) != (c.files, c.spec())
    assert len(a.ops) == len(c.ops)


def test_generated_output_sizes_do_not_depend_on_the_seed():
    for name in workloads.GENERATORS:
        sizes = {
            sum(len(op.stdout) for op in workloads.generate(ROOT, name, seed).ops)
            for seed in (1, 2, 3)
        }
        assert len(sizes) == 1, name


def _corpus_op(target: str) -> dict:
    return {"argv": ["expand", "--target", target], "exit": 0,
            "stdout": ref.read_corpus_dump(ROOT, target), "diag": None}


def test_checker_flags_one_changed_byte_in_a_dump():
    op = _corpus_op("PersonRels")
    good = op["stdout"]
    assert ref.mismatch(op, good, "", None, 0) is None
    for i in (0, len(good) // 2, len(good) - 1):
        bad = good[:i] + chr(ord(good[i]) ^ 1) + good[i + 1:]
        assert ref.mismatch(op, bad, "", None, 0) is not None


def test_checker_flags_wrong_exit_exception_and_stray_diagnostics():
    op = _corpus_op("Food")
    assert ref.mismatch(op, op["stdout"], "", None, 1) is not None
    assert ref.mismatch(op, op["stdout"], "", "RecursionError: deep", None) is not None
    assert ref.mismatch(op, op["stdout"], "x.gdp:1:1: warning: w\n", None, 0) is not None


def test_checker_flags_a_wrong_diagnostic_position():
    path = "corpus/errors/kind_clash.gdp"
    op = {"argv": ["check", path], "exit": 1, "stdout": "", "diag": [path, 5, 31]}
    assert ref.mismatch(op, "", f"{path}:5:31: error: kind clash\n", None, 1) is None
    for pos in ("5:30", "4:31", "5:310"):
        assert ref.mismatch(op, "", f"{path}:{pos}: error: kind clash\n", None, 1) is not None
    assert ref.mismatch(op, "", "", None, 1) is not None


def test_error_table_covers_the_error_corpus():
    names = {p.name for p in (ROOT / "corpus/errors").glob("*.gdp")}
    assert names == set(ref.ERROR_TABLE)


def test_pattern_model_agrees_with_the_hand_written_dump():
    expected = Ontology()
    for target in ("Food", "ValSet_Significance"):
        expected.merge(Ontology.from_dump(ref.read_corpus_dump(ROOT, target)))
    grades = ["0Insignificant", "1Subordinate", "2Essential", "3Dominant"]
    ref.graded_rels_sub(expected, "hasIngredient", "Recipe", "FoodStuff", "Significance", grades)
    assert expected.dump() == ref.read_corpus_dump(ROOT, "GradedRelsSub_Significance")


def test_manchester_renderer_layout():
    o = Ontology()
    ref.val_set(o, "V", ["b", "a"], ordered=True)
    assert o.manchester() == (
        "Class: V\n    EquivalentTo: {a, b}\n\n"
        "ObjectProperty: greater_V\n    Domain: V\n    Range: V\n"
        "    Characteristics: Transitive\n\n"
        "Individual: a\n    Types: V\n\n"
        "Individual: b\n    Types: V\n\n"
        "DifferentIndividuals: a, b\n"
    )


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 5] > leaf [2, 3]; root > b [6, 9]
    tree = [
        ["root", 0.0, 10.0, -1, 1, None],
        ["a", 1.0, 5.0, 0, 1, None],
        ["leaf", 2.0, 3.0, 1, 1, None],
        ["b", 6.0, 9.0, 0, 1, None],
    ]
    assert spans.self_times(tree) == [3.0, 3.0, 1.0, 3.0]


def test_recorder_nests_spans_and_times_them():
    ticks = iter(range(100))
    rec = spans.Recorder(clock=lambda: float(next(ticks)))
    inner = rec.wrap("core.kind_of", lambda x: x)
    outer = rec.wrap("instantiate.expand_named", lambda: inner(1) + inner(2),
                     lambda args, result: ("T", result, 0))
    rec.op = 4
    assert outer() == 3
    taken = rec.take()
    assert [s[spans.NAME] for s in taken] == [
        "instantiate.expand_named", "core.kind_of", "core.kind_of"]
    assert [s[spans.PARENT] for s in taken] == [-1, 0, 0]
    assert {s[spans.OP] for s in taken} == {4}
    assert spans.self_times(taken) == [3.0, 1.0, 1.0]
    layers = spans.layer_metrics(taken)
    assert layers["core.kind_of.calls"] == 2
    assert layers["instantiate.out_symbols"] == 3
    assert rec.take() == []


def test_tail_has_ten_samples_beyond_it():
    values = [float(i) for i in range(1, 41)]
    value, pct = run.tail(values)
    assert value == 30.0 and pct == 75.0
    assert sum(v > value for v in values) == 10
    assert run.tail([1.0, 2.0]) == (2.0, 100.0)


def test_probe_checker_rejects_tracebacks_and_accepts_listed_outcomes():
    accept = [{"exit": 0, "stdout": "SYM Class Thing\n"}, {"exit": 1, "diag_file": "probes/deep.gdp"}]
    assert ref.probe_mismatch(accept, 0, "SYM Class Thing\n", "") is None
    assert ref.probe_mismatch(accept, 1, "", "probes/deep.gdp:2:16: error: too deep\n") is None
    assert ref.probe_mismatch(accept, 1, "", "Traceback (most recent call last):\nRecursionError\n")
    assert ref.probe_mismatch(accept, 1, "", "probes/deep.gdp: error: unpositioned\n")
    assert ref.probe_mismatch(accept, 0, "SYM Class Other\n", "")
    utf8 = [{"exit": 2, "stderr_prefix": "godp:"}]
    assert ref.probe_mismatch(utf8, 2, "", "godp: cannot decode probes/latin1.gdp\n") is None
    assert ref.probe_mismatch(utf8, 1, "", "godp: cannot decode probes/latin1.gdp\n")


def test_garbage_collection_is_a_child_span_of_the_interrupted_call():
    import gc

    rec = spans.Recorder()
    stop = spans.trace_gc(rec)
    try:
        rec.wrap("instantiate.expand_named", gc.collect)()
    finally:
        stop()
    taken = rec.take()
    assert [s[spans.NAME] for s in taken] == ["instantiate.expand_named", "python.gc"]
    assert taken[1][spans.PARENT] == 0
    assert spans.layer_metrics(taken)["python.gc.collections"] == 1
