from __future__ import annotations

import gc
import os
import subprocess
import sys
import threading
import time
from types import SimpleNamespace

import pytest

import godp.cli
from godp import parse_library, render_diagnostics
from godp.cli import _argparser, _read_library, main
from godp.diagnostics import ParseError
from godp.parser import MAX_NESTING

from conftest import CORPUS, ERRORS, ROOT, corpus_paths
from test_cli_bytes import _invocations, _run


def corpus_args():
    return [str(p) for p in corpus_paths()]


def run(capsys, *argv, env=None, monkeypatch=None):
    if env:
        for k, v in env.items():
            monkeypatch.setenv(k, v)
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- check ---------------------------------------------------------------------

def test_check_corpus_clean(capsys):
    code, out, err = run(capsys, "check", *corpus_args())
    assert code == 0
    assert err == ""


def test_check_semantic_error_exits_one(capsys):
    bad = str(ERRORS / "ambiguous_fitting.gdp")
    code, out, err = run(capsys, "check", bad)
    assert code == 1
    assert err.count("\n") == 1
    assert "error:" in err


def test_check_missing_file_exits_two(capsys):
    code, out, err = run(capsys, "check", str(CORPUS / "does_not_exist.gdp"))
    assert code == 2


def test_check_non_utf8_exits_two(tmp_path, capsys):
    f = tmp_path / "latin1.gdp"
    f.write_bytes("%% café au lait\nontology Latin = { Class: Cafe }\n".encode("latin-1"))
    for argv in (["check", str(f)], ["list", str(f)], ["expand", "--target", "Latin", str(f)]):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"godp: {f}: not valid UTF-8 (invalid continuation byte at byte 6)\n"


def test_check_strips_one_byte_order_mark(tmp_path, capsys):
    f = tmp_path / "bom.gdp"
    f.write_bytes(b"\xef\xbb\xbfontology A = { Class: C }\n")
    assert run(capsys, "check", str(f)) == (0, "", "")
    # positions are those of the text after the mark
    f.write_bytes(b"\xef\xbb\xbfontology A = { Class: C }\nontology B = { Class: D } Q\n")
    assert run(capsys, "check", str(f)) == (1, "", f"{f}:2:27: error: expected 'ontology', got 'Q'\n")
    f.write_bytes(b"\xef\xbb\xbfontology A = { Class: C } Q\n")
    assert run(capsys, "check", str(f)) == (1, "", f"{f}:1:27: error: expected 'ontology', got 'Q'\n")
    # only one mark is dropped
    f.write_bytes(b"\xef\xbb\xbf\xef\xbb\xbfontology A = { Class: C }\n")
    assert run(capsys, "check", str(f)) == (1, "", f"{f}:1:1: error: bad character '\\ufeff'\n")


@pytest.mark.parametrize("line_end, position", [(b"\r", "1:53"), (b"\r\n", "2:27")])
def test_positions_match_parse_library_on_the_same_bytes(tmp_path, capsys, line_end, position):
    f = tmp_path / "line_ends.gdp"
    data = b"ontology A = { Class: C }" + line_end + b"ontology B = { Class: D } Q"
    f.write_bytes(data)
    with pytest.raises(ParseError) as exc:
        parse_library(data.decode("utf-8"), str(f))
    assert exc.value.pos.render() == f"{f}:{position}"
    code, out, err = run(capsys, "check", str(f))
    assert (code, out) == (1, "")
    assert err == render_diagnostics([exc.value.to_diagnostic()])
    assert err == f"{f}:{position}: error: expected 'ontology', got 'Q'\n"


def test_check_parse_error_exits_one(tmp_path, capsys):
    f = tmp_path / "bad.gdp"
    f.write_text("ontology A [Class: C = { Class: C }", encoding="utf-8")
    code, out, err = run(capsys, "check", str(f))
    assert code == 1
    assert f"{f}:" in err


@pytest.mark.parametrize("command", [["check"], ["list"], ["expand", "--target", "A"]])
def test_every_command_reports_a_library_error_alike(tmp_path, capsys, command):
    f = tmp_path / "bad.gdp"
    f.write_text("ontology A = { Class: C }\nontology A = { Class: D }\n", encoding="utf-8")
    message = "duplicate definition of 'A' (only list-parameter patterns may have several template clauses)"
    assert run(capsys, *command, str(f)) == (1, "", f"{f}:2:1: error: {message}\n")


def test_check_duplicate_across_files(tmp_path, capsys):
    a = tmp_path / "a.gdp"
    b = tmp_path / "b.gdp"
    a.write_text("ontology Shared = { Class: C }\n", encoding="utf-8")
    b.write_text("ontology Shared = { Class: D }\n", encoding="utf-8")
    code, out, err = run(capsys, "check", str(a), str(b))
    assert code == 1
    assert "duplicate definition" in err


def test_check_reports_all_diagnostics_in_order(tmp_path, capsys):
    f = tmp_path / "two_bad.gdp"
    f.write_text(
        "ontology L [Class: C :: Cs] = { Class: C }\n"
        "ontology BadOne = L[empty]\n"
        "ontology BadTwo = { Class: T } then { ObjectProperty: T }\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "check", str(f))
    assert code == 1
    lines = err.strip().splitlines()
    assert len(lines) == 2
    positions = [int(line.split(":")[1]) for line in lines]
    assert positions == sorted(positions)
    # an ill-formed call fails the build: nothing is expanded after it
    f.write_text(
        "ontology P [Class: C] = { Class: C }\n"
        "ontology BadOne = P[a, b]\n"
        "ontology BadTwo = { Class: T } then { ObjectProperty: T }\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "check", str(f))
    assert (code, out) == (1, "")
    assert err == f"{f}:2:21: error: list argument given for a non-list parameter\n"


# -- expand --------------------------------------------------------------------

def test_expand_dump_contains_at_least_chain(capsys):
    code, out, err = run(
        capsys, "expand", "--target", "GradedRelsSub_Significance",
        "--format", "dump", *corpus_args(),
    )
    assert code == 0
    assert "hasIngredient_atLeast_0Insignificant" in out
    assert "hasIngredient_atLeast_1Subordinate" in out
    assert "hasIngredient_atLeast_2Essential" in out


def test_expand_is_byte_identical_across_runs(capsys):
    args = ["expand", "--target", "GradedRelsSub_Significance", "--format", "dump"] + corpus_args()
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_expand_empty_ontology(capsys):
    code, out, err = run(capsys, "expand", "--target", "EmptyOnt", *corpus_args())
    assert code == 0
    assert out == ""


def test_expand_crust_style_has_no_greater(capsys):
    code, out, err = run(
        capsys, "expand", "--target", "ValSet_CrustStyle", "--format", "dump", *corpus_args()
    )
    assert code == 0
    assert "greater" not in out


def test_expand_unknown_target(capsys):
    code, out, err = run(capsys, "expand", "--target", "Nowhere", *corpus_args())
    assert code == 1
    assert "Nowhere" in err


def test_expand_unknown_target_points_at_no_input_position(capsys):
    code, out, err = run(capsys, "expand", "--target", "Nope", *corpus_args())
    assert code == 1
    assert "<input>" not in err
    assert err == "godp: unknown ontology or pattern 'Nope'\n"


def test_expand_generic_target_is_an_error(capsys):
    code, out, err = run(capsys, "expand", "--target", "ValSet", *corpus_args())
    assert code == 1
    assert "generic" in err


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """A start-up gate that counts modules, not milliseconds, so it gives the
    same answer on any machine: `dataclasses`, which imports `inspect`, cost
    as much start-up as all of godp's own modules."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    probe = "import sys, godp.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


_GENERIC_P = "ontology P [Class: C] = { Class: C }\n"


@pytest.mark.parametrize("source, where, message", [
    # no target reaches G, so only the build can report it
    (_GENERIC_P + "ontology G [Class: D] = P then { Class: D }\nontology Ok = P[X]\n", "2:25",
     "'P' is generic: 1 argument(s) required"),
    (_GENERIC_P + "ontology Ok = P[X]\nontology G [Class: D] =\n  let ontology L = { Class: D } then P in L\n",
     "4:38", "'P' is generic: 1 argument(s) required"),
    (_GENERIC_P + "ontology T [Class: X] = { Class: X }\nontology G = T[P]\n", "3:16",
     "'P' is generic and needs arguments to be used as an argument"),
])
def test_a_bare_reference_to_a_generic_pattern_fails_the_build(tmp_path, capsys, source, where, message):
    f = tmp_path / "generic.gdp"
    f.write_text(source, encoding="utf-8")
    code, out, err = run(capsys, "check", str(f))
    assert (code, out, err) == (1, "", f"{f}:{where}: error: {message}\n")


def test_expand_output_file(tmp_path, capsys):
    out_file = tmp_path / "out.omn"
    code, out, err = run(
        capsys, "expand", "--target", "PersonRels", "-o", str(out_file), *corpus_args()
    )
    assert code == 0
    assert out == ""
    assert "ObjectProperty: isAncestorOf" in out_file.read_text(encoding="utf-8")


def test_expand_no_stratify_manchester_rejects_parameterized(capsys):
    code, out, err = run(
        capsys, "expand", "--target", "GradedRels_Significance", "--no-stratify",
        *corpus_args(),
    )
    assert code == 1
    assert "stratify" in err


def test_emitter_error_points_at_the_target_definition(capsys):
    code, out, err = run(
        capsys, "expand", "--target", "AgeOrder", "--format", "manchester", "--no-stratify",
        *corpus_args(),
    )
    assert code == 1
    assert out == ""
    assert "<input>" not in err
    assert err == (
        f"{CORPUS / 'orders.gdp'}:16:1: error: 'greater[Age]' is parameterized; "
        f"stratify before emitting Manchester output\n"
    )


def test_expand_no_stratify_dump_keeps_brackets(capsys):
    code, out, err = run(
        capsys, "expand", "--target", "GradedRels_Significance", "--no-stratify",
        "--format", "dump", *corpus_args(),
    )
    assert code == 0
    assert "hasIngredient[0Insignificant]" in out


# -- list -----------------------------------------------------------------------

def test_list_fig1_corpus(capsys):
    code, out, err = run(capsys, "list", str(CORPUS / "patterns.gdp"))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert "SubProp 4 plain,plain,plain,plain" in lines
    assert lines == sorted(lines)


def test_list_valset_shapes(capsys):
    code, out, err = run(capsys, "list", *corpus_args())
    assert "ValSet 3 plain,list,optional" in out.splitlines()


def test_list_empty_library(tmp_path, capsys):
    f = tmp_path / "empty.gdp"
    f.write_text("", encoding="utf-8")
    code, out, err = run(capsys, "list", str(f))
    assert code == 0
    assert out == ""


# -- depth handling ---------------------------------------------------------------

def test_depth_flag_triggers_budget(capsys):
    bad = str(ERRORS / "depth_exceeded.gdp")
    code, out, err = run(capsys, "check", "--depth", "20", bad)
    assert code == 1
    assert "depth" in err
    code2, _, _ = run(capsys, "check", bad)
    assert code2 == 0  # the default budget clears the 40-item chain


def test_depth_env_var(monkeypatch, capsys):
    bad = str(ERRORS / "depth_exceeded.gdp")
    code, out, err = run(capsys, "check", bad, env={"GODP_DEPTH": "20"}, monkeypatch=monkeypatch)
    assert code == 1
    code2, _, err2 = run(
        capsys, "check", "--depth", "10000", bad,
        env={"GODP_DEPTH": "20"}, monkeypatch=monkeypatch,
    )
    assert code2 == 0  # explicit flag wins over the environment


def test_invalid_depth_values(monkeypatch, capsys):
    bad = str(ERRORS / "depth_exceeded.gdp")
    assert run(capsys, "check", "--depth", "0", bad) == (2, "", "godp: --depth must be at least 1\n")
    code2, _, err = run(capsys, "check", bad, env={"GODP_DEPTH": "soup"}, monkeypatch=monkeypatch)
    assert code2 == 2
    # a value from the environment is reported under its own name
    for raw in ("0", "-3"):
        assert run(capsys, "check", bad, env={"GODP_DEPTH": raw}, monkeypatch=monkeypatch) == (
            2, "", "godp: GODP_DEPTH must be at least 1\n")
    assert run(capsys, "expand", "--target", "Broken", "--depth", "0", bad) == (
        2, "", "godp: --depth must be at least 1\n")
    # `list` expands nothing and reads no depth
    monkeypatch.delenv("GODP_DEPTH")
    listing = run(capsys, "list", *corpus_args())
    assert listing[0] == 0 and listing[1]
    for raw in ("0", "soup"):
        assert run(capsys, "list", *corpus_args(), env={"GODP_DEPTH": raw}, monkeypatch=monkeypatch) == listing


def test_usage_error_exits_two(capsys):
    assert main(["expand"]) == 2  # argparse: missing required arguments
    assert main(["frobnicate", "x"]) == 2


def test_repeated_main_calls_give_identical_bytes(capsys):
    calls = [
        ["expand", "--target", "ValSet_Significance", "--format", "dump", "--no-stratify",
         *corpus_args()],
        ["expand", "--target", "ValSet_Significance", *corpus_args()],
        ["check", "--depth", "20", str(ERRORS / "depth_exceeded.gdp")],
        ["list", *corpus_args()],
        ["expand", "--format", "xml", *corpus_args()],  # a usage error
    ]
    first = [run(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in first] == [0, 0, 1, 0, 2]
    assert "usage: godp expand" in first[-1][2]
    # the usage error now runs first, and each call runs after different ones
    again = [run(capsys, *argv) for argv in reversed(calls)]
    assert again[::-1] == first


# -- deep nesting -------------------------------------------------------------------

def _deep_wrap(tmp_path, depth):
    f = tmp_path / "deep.gdp"
    nest = "Wrap[" * depth + "Thing" + "]" * depth
    f.write_text(f"ontology Wrap [Class: C] = {{ Class: C }}\nontology Deep = {nest}\n", encoding="utf-8")
    return f


def _deep_name(tmp_path, depth):
    f = tmp_path / "deep.gdp"
    f.write_text("ontology Deep = { Class: " + "g[" * depth + "x" + "]" * depth + " }\n", encoding="utf-8")
    return f


def test_nesting_at_the_bound_expands(tmp_path, capsys):
    f = _deep_wrap(tmp_path, MAX_NESTING)
    assert run(capsys, "check", str(f)) == (0, "", "")
    assert run(capsys, "expand", "--target", "Deep", str(f)) == (0, "Class: Thing\n", "")
    assert run(capsys, "expand", "--target", "Deep", "--format", "dump", str(f)) == (0, "SYM Class Thing\n", "")
    f = _deep_name(tmp_path, MAX_NESTING)
    flat = "g_" * MAX_NESTING + "x"
    assert run(capsys, "expand", "--target", "Deep", str(f)) == (0, f"Class: {flat}\n", "")
    assert run(capsys, "expand", "--target", "Deep", "--format", "dump", str(f)) == (0, f"SYM Class {flat}\n", "")


def test_nesting_past_the_bound_exits_one_with_a_position(tmp_path, capsys):
    for depth in (MAX_NESTING + 1, 1500):
        for make, line in ((_deep_wrap, 2), (_deep_name, 1)):
            f = make(tmp_path, depth)
            code, out, err = run(capsys, "check", str(f))
            assert code == 1
            assert err.count("\n") == 1
            where, message = err.split(": error: ")
            assert message == f"nesting deeper than {MAX_NESTING} levels\n"
            file, at_line, at_col = where.rsplit(":", 2)
            assert (file, int(at_line)) == (str(f), line)
            assert 1 <= int(at_col) <= len(f.read_text(encoding="utf-8").splitlines()[line - 1])


# -- elided symbols in diagnostics ---------------------------------------------

def test_elided_symbol_in_a_diagnostic_is_the_same_at_every_depth(tmp_path, capsys):
    f = tmp_path / "elided.gdp"
    f.write_text(
        "ontology L [Class: A; ? Class: B] = { Class: A } then { ObjectProperty: B }\n"
        "ontology V = L[X; ]\n"
        "ontology W = V then { Class: Y }\n",
        encoding="utf-8",
    )
    outcomes = [run(capsys, "check", *depth, str(f)) for depth in ([], ["--depth", "50"])]
    assert outcomes[0] == outcomes[1]
    code, out, err = outcomes[0]
    assert code == 1
    (line,) = err.splitlines()  # V and W reach the same failure: it is printed once
    assert line.startswith(f"{f}:1:55: error: kind clash for '?B_")


# -- memory ----------------------------------------------------------------------

def _garbage_of(argv: list[str]) -> list:
    """What the cyclic collector would find after one in-process run."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        _run(argv)
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def test_a_check_and_an_expansion_leave_nothing_for_the_cyclic_collector(tmp_path, monkeypatch):
    # a built library and a finished expansion hold no reference cycle, so
    # reference counting alone frees them, on every exit path; this is what
    # lets `main` suspend the collector. The argument parser, built once per
    # process, is built before. Usage errors are left out: argparse's
    # `HelpFormatter` makes a cycle of its own (a formatter, a `_Section`, a
    # list, two tuples and a bound method) that godp cannot avoid, and the
    # first collection after the command frees it
    _argparser()
    corpus = corpus_args()
    latin = tmp_path / "latin1.gdp"
    latin.write_bytes("ontology Latin = { Class: Café }\n".encode("latin-1"))
    exits = [
        ["check", *corpus, *(str(p) for p in sorted(ERRORS.glob("*.gdp")))],
        ["check", str(CORPUS / "does_not_exist.gdp")],
        ["check", str(latin)],
        ["check", "--depth", "0", *corpus],
        ["expand", "--target", "Nowhere", *corpus],
        ["expand", "--target", "Broken", "--depth", "20", str(ERRORS / "depth_exceeded.gdp")],
        ["expand", "--target", "PersonRels", "-o", str(tmp_path / "out.omn"), *corpus],
    ]
    for argv in _invocations() + exits:
        assert _garbage_of(argv) == [], argv[:3]
    monkeypatch.setenv("GODP_DEPTH", "soup")
    assert _garbage_of(["check", *corpus]) == []


def _collections_during(argv: list[str]) -> tuple[int, int]:
    """The exit code of one run and the automatic collections it triggered."""
    starts = []

    def count(phase: str, info: dict) -> None:
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(count)
    try:
        code = _run(argv)[0]
    finally:
        gc.callbacks.remove(count)
    return code, len(starts)


def test_a_command_triggers_no_collection():
    # each of these triggers two or three with the collector on
    corpus = corpus_args()
    errors = [str(p) for p in sorted(ERRORS.glob("*.gdp"))]
    for argv, expected in (
        (["check", *corpus], 0),
        (["check", *corpus, *errors], 1),
        (["expand", "--target", "GradedRelsSub_Significance", "--format", "dump", *corpus], 0),
        (["list", *corpus], 0),
    ):
        assert gc.isenabled()
        assert _collections_during(argv) == (expected, 0), argv[:3]
        assert gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False])
def test_every_exit_gives_the_collector_back_as_it_was(monkeypatch, enabled):
    corpus = corpus_args()
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for argv, expected in (
            (["check", *corpus], 0),
            (["check", str(ERRORS / "kind_clash.gdp")], 1),
            (["check", str(CORPUS / "does_not_exist.gdp")], 2),
            (["expand"], 2),  # argparse: missing required arguments
        ):
            assert _run(argv)[0] == expected, argv
            assert gc.isenabled() is enabled, argv

        def broken(ast):
            raise RuntimeError("boom")

        with monkeypatch.context() as m:
            m.setattr(godp.cli, "build_library", broken)
            with pytest.raises(RuntimeError, match="boom"):
                _run(["check", *corpus])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def _slow_read() -> bool:
    """`gc.isenabled`, but when it reads "off", other threads run before its
    caller acts on it: long enough for another command to end."""
    enabled = gc.isenabled()
    if not enabled:
        time.sleep(0.01)
    return enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_concurrent_commands_give_the_collector_back_as_it_was(tmp_path, capsys, monkeypatch, enabled):
    # a read of the collector's state and the disable that follows must not be
    # split by another command's enable, or one that read "off" leaves it off
    # for good; a slow read widens that window, so a wrapper without the lock
    # fails here in most runs
    monkeypatch.setattr(godp.cli, "gc", SimpleNamespace(isenabled=_slow_read, disable=gc.disable, enable=gc.enable))
    corpus = corpus_args()
    targets = sorted(_read_library(corpus).zero_param_names())
    threads = 8
    outs = [tmp_path / f"{i}.omn" for i in range(threads)]
    codes: list[list[int]] = [[] for _ in range(threads)]

    def commands(i: int) -> None:
        for _ in range(3):
            codes[i].append(main(["check", *corpus]))
            codes[i].append(main(["expand", "--target", targets[i % len(targets)], "-o", str(outs[i]), *corpus]))

    was, interval = gc.isenabled(), sys.getswitchinterval()
    (gc.enable if enabled else gc.disable)()
    sys.setswitchinterval(1e-6)
    try:
        running = [threading.Thread(target=commands, args=(i,)) for i in range(threads)]
        for t in running:
            t.start()
        for t in running:
            t.join(timeout=120)
            assert not t.is_alive()
        assert gc.isenabled() is enabled
    finally:
        sys.setswitchinterval(interval)
        (gc.enable if was else gc.disable)()
    assert codes == [[0] * 6] * threads
    assert capsys.readouterr() == ("", "")
    for i, out in enumerate(outs):
        alone = tmp_path / "alone.omn"
        assert main(["expand", "--target", targets[i % len(targets)], "-o", str(alone), *corpus]) == 0
        assert out.read_bytes() == alone.read_bytes(), targets[i % len(targets)]


# -- the traced benchmark's wrap points ------------------------------------------

def test_the_benchmark_tracer_wraps_every_layer_it_reads(monkeypatch, capsys, tmp_path):
    # bench/spans.py looks up functions by module attribute, so a moved import
    # would break only traced runs
    monkeypatch.syspath_prepend(str(CORPUS.parent / "bench"))
    import spans

    rec = spans.Recorder()
    restore = spans.install(rec)
    clash = tmp_path / "clash.gdp"  # a parameter whose frames clash with one before it makes an ontology
    clash.write_text("ontology P [Class: X; Individual: X] = { }\n", encoding="utf-8")
    try:
        code = main(["check", *(str(p) for p in corpus_paths())])
        assert capsys.readouterr() == ("", "")
        assert main(["check", str(clash)]) == 1
    finally:
        restore()
    assert code == 0
    assert capsys.readouterr() == ("", f"{clash}:1:23: error: kind clash for 'X': Class vs Individual\n")
    names = {s[spans.NAME] for s in rec.take()}
    assert {
        "elaborate.build_library", "instantiate.expand_named", "core.union_flat", "core.make_ontology",
    } <= names
