"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own pass/fail report.
"""

from __future__ import annotations

import random
import re
import time

import pytest

from godp import (
    ListArg,
    emit_manchester,
    expand_named,
    match_template,
    parse_frames,
    parse_library,
    pretty_print,
    stratify,
    union_flat,
)
from godp.cli import main
from godp.core import (
    ClassAssertion,
    DifferentIndividuals,
    EquivalentToUnion,
    SubPropertyOf,
    SymbolKind,
    Transitive,
    name,
)
from godp.diagnostics import UnmetConstraint
from godp.elaborate import build_block
from godp.instantiate import is_placeholder

from conftest import CORPUS, ERRORS, IDENTIFIER_RE, corpus_paths, lib_of

OP = SymbolKind.OBJECT_PROPERTY

DIAG_RE = re.compile(r"^(.+):(\d+):(\d+): error: .+$")


def _passed(n: int, label: str) -> None:
    print(f"ACCEPTANCE {n} ({label}): PASS")


def test_criterion_1_golden_hierarchy(corpus_lib):
    start = time.monotonic()
    o = stratify(expand_named(corpus_lib, "GradedRelsSub_Significance"))
    elapsed = time.monotonic() - start
    edges = {
        (a.sub.base, a.sup.base)
        for a in o.axioms
        if isinstance(a, SubPropertyOf) and ("atLeast" in a.sub.base or "atLeast" in a.sup.base)
    }
    expected = {
        ("hasIngredient_3Dominant", "hasIngredient_atLeast_2Essential"),
        ("hasIngredient_2Essential", "hasIngredient_atLeast_2Essential"),
        ("hasIngredient_atLeast_2Essential", "hasIngredient_atLeast_1Subordinate"),
        ("hasIngredient_1Subordinate", "hasIngredient_atLeast_1Subordinate"),
        ("hasIngredient_atLeast_1Subordinate", "hasIngredient_atLeast_0Insignificant"),
        ("hasIngredient_0Insignificant", "hasIngredient_atLeast_0Insignificant"),
    }
    assert edges == expected
    assert elapsed < 1.0
    _passed(1, "golden hierarchy")


def test_criterion_2_person_rels(corpus_lib):
    o = expand_named(corpus_lib, "PersonRels")
    a, p, person = name("isAncestorOf"), name("isParentOf"), name("Person")
    from godp.core import Domain, Range

    for ax in (
        Transitive(a),
        Domain(a, person), Range(a, person),
        SubPropertyOf(p, a),
        Domain(p, person), Range(p, person),
    ):
        assert ax in o.axioms
    # deleting the range axiom from the environment breaks the instantiation
    broken = (CORPUS / "patterns.gdp").read_text(encoding="utf-8") + (
        "\nontology PersonRelsBroken =\n"
        "  { Class: Person\n"
        "    ObjectProperty: isAncestorOf Domain: Person Characteristics: Transitive }\n"
        "  then SubProp[isParentOf; Person; Person; isAncestorOf]\n"
    )
    lib = lib_of(broken)
    with pytest.raises(UnmetConstraint) as exc:
        expand_named(lib, "PersonRelsBroken")
    assert "Range isAncestorOf Person" in exc.value.message
    _passed(2, "person relations and unmet constraint")


def test_criterion_3_valset_pair(corpus_lib):
    sig_ont = stratify(expand_named(corpus_lib, "ValSet_Significance"))
    values = tuple(
        name(v) for v in ("_0Insignificant", "_1Subordinate", "_2Essential", "_3Dominant")
    )
    assert Transitive(name("greater_Significance")) in sig_ont.axioms
    assert DifferentIndividuals(values) in sig_ont.axioms
    assertions = [a for a in sig_ont.axioms if isinstance(a, ClassAssertion)]
    assert len(assertions) == 4
    assert EquivalentToUnion(name("Significance"), values) in sig_ont.axioms

    crust = expand_named(corpus_lib, "ValSet_CrustStyle")
    for s in crust.signature:
        assert "greater" not in list(s.name.bases())
    for a in crust.axioms:
        for n, _ in a.refs():
            assert "greater" not in list(n.bases())
    # elision completeness: no placeholder remnants in any corpus target
    for target in corpus_lib.zero_param_names():
        out = expand_named(corpus_lib, target)
        assert not any(is_placeholder(s.name) for s in out.signature), target
        assert not any(is_placeholder(n) for a in out.axioms for n, _ in a.refs()), target
    _passed(3, "value-set pair")


def test_criterion_4_recursion_length(corpus_lib):
    graded = corpus_lib.defs["GradedRels"]
    for n in (0, 1, 2, 5, 20):
        grades = ", ".join(f"g{i:02d}" for i in range(n)) if n else "empty"
        src = (
            (CORPUS / "graded_rels.gdp").read_text(encoding="utf-8")
            + (CORPUS / "value_sets.gdp").read_text(encoding="utf-8")
            + (CORPUS / "patterns.gdp").read_text(encoding="utf-8")
            + (CORPUS / "orders.gdp").read_text(encoding="utf-8")
            + "\nontology Probe =\n"
            f"  {{ Class: Src  Class: Tgt  Class: Grades }}\n"
            f"  then GradedRels[prop; Src; Tgt; Grades; {grades}]\n"
        )
        lib = lib_of(src)
        out = expand_named(lib, "Probe")
        step_symbols = [
            s for s in out.signature
            if s.kind is OP and s.name.base == "prop" and s.name.args
        ]
        assert len(step_symbols) == n, f"expected {n} graded properties"
        if n == 0:
            clause, _ = match_template(graded.clauses, ListArg(()))
            assert clause is graded.clauses[1]  # the empty clause
    _passed(4, "recursion length")


def test_criterion_5_snst_idempotence(corpus_lib):
    for target in corpus_lib.zero_param_names():
        o = expand_named(corpus_lib, target)
        assert union_flat(o, o) == o

    rng = random.Random(20250810)
    kinds = ["Class", "ObjectProperty", "Individual"]
    for i in range(100):
        n_params = rng.randint(1, 3)
        param_kinds = ["Class"] + [rng.choice(kinds) for _ in range(n_params - 1)]
        params = "; ".join(f"{k}: x{j}" for j, k in enumerate(param_kinds))
        frames = []
        for j, k in enumerate(param_kinds):
            if k == "ObjectProperty":
                frames.append(f"ObjectProperty: x{j} Domain: x0 Range: x0")
            elif k == "Individual":
                frames.append(f"Individual: x{j} Types: x0")
            else:
                frames.append(f"Class: x{j}")
        frames.append(f"ObjectProperty: extra{i}[x0] Domain: x0 Range: x0")
        args = []
        for j in range(n_params):
            if rng.random() < 0.3:
                args.append(f"arg{i}_{j}[W{i}]")
            else:
                args.append(f"arg{i}_{j}")
        src = (
            f"ontology Pat{i} [{params}] = {{ {'  '.join(frames)} }}\n"
            f"ontology Use{i} = Pat{i}[{'; '.join(args)}]\n"
        )
        lib = lib_of(src)
        o1 = expand_named(lib, f"Use{i}")
        o2 = expand_named(lib, f"Use{i}")
        assert o1 == o2
        assert union_flat(o1, o2) == o1
    _passed(5, "SNST idempotence incl. 100 randomized instantiations")


def test_criterion_6_stratification(corpus_lib, capsys):
    corpus = [str(p) for p in corpus_paths()]
    for target in sorted(corpus_lib.zero_param_names()):
        o = stratify(expand_named(corpus_lib, target))
        for s in o.signature:
            assert not s.name.args and IDENTIFIER_RE.match(s.name.base), s
        assert stratify(o) == o
        code = main(["expand", "--target", target, "--format", "manchester", *corpus])
        text = capsys.readouterr().out
        assert code == 0
        assert text == emit_manchester(o)
        for token in re.findall(r"[A-Za-z0-9_]+", text):
            assert IDENTIFIER_RE.match(token), f"illegal identifier {token!r} in {target}"
    # the specific rewrite from the naming scheme
    from godp.emit import flat_text

    assert flat_text(name("greater", "Significance")) == "greater_Significance"
    _passed(6, "stratification")


def test_criterion_7_error_suite(capsys):
    cases = {
        "ambiguous_fitting.gdp": ("candidates", []),
        "incompatible_fittings.gdp": ("mapped both", []),
        "unmet_constraint.gdp": ("does not satisfy", []),
        "no_match.gdp": ("instantiation is incorrect", []),
        "kind_clash.gdp": ("kind clash", []),
        "depth_exceeded.gdp": ("depth budget", ["--depth", "20"]),
    }
    for fname, (fragment, extra) in cases.items():
        path = ERRORS / fname
        code = main(["check", *extra, str(path)])
        captured = capsys.readouterr()
        assert code == 1, f"{fname}: expected exit 1, got {code}"
        line = captured.err.strip().splitlines()[0]
        m = DIAG_RE.match(line)
        assert m, f"{fname}: diagnostic lacks a position: {line!r}"
        assert int(m.group(2)) >= 1 and int(m.group(3)) >= 1
        assert fragment in line, f"{fname}: {line!r}"
    _passed(7, "error suite")


def test_criterion_8_round_trips(corpus_lib):
    start = time.monotonic()
    for f in corpus_paths():
        src = f.read_text(encoding="utf-8")
        ast = parse_library(src, str(f))
        assert parse_library(pretty_print(ast), str(f)) == ast
    for target in corpus_lib.zero_param_names():
        o = stratify(expand_named(corpus_lib, target))
        text = emit_manchester(o)
        if not text:
            continue
        reparsed = build_block(parse_frames(text))
        assert (reparsed.signature, reparsed.axioms) == (o.signature, o.axioms)
    assert time.monotonic() - start < 30.0
    _passed(8, "round trips")
