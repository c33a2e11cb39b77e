"""Expected outputs for the benchmark and the checks against them.

Nothing here imports godp: the benchmark checks every CLI result against a
reference that godp did not produce (`mismatch` for pass operations,
`probe_mismatch` for the robustness probes). Three sources feed it:

- the golden dumps under `tests/golden/` and the hand-written dumps under
  `bench/expected/`, for the corpus targets;
- `ERROR_TABLE`, the hand-written exit code and first diagnostic position of
  every file in `corpus/errors/`;
- `Ontology` plus the pattern models below, which build the expected flat
  ontology of a generated target by string building and render it as a
  structural dump or as Manchester frames.

The renderers follow the output format documented in `src/godp/emit.py`:
dump lines sorted as strings; Manchester frames sorted by (kind, name), with
fields in a fixed order and blocks separated by a blank line.
"""

from __future__ import annotations

import re
from pathlib import Path

CLASS = "Class"
OBJECT_PROPERTY = "ObjectProperty"
INDIVIDUAL = "Individual"
_KIND_ORDER = {CLASS: 0, OBJECT_PROPERTY: 1, INDIVIDUAL: 2}

# file name -> (exit code, line, col) of the first diagnostic; each file is
# checked on its own, depth_exceeded.gdp with --depth 20.
ERROR_TABLE = {
    "ambiguous_fitting.gdp": (1, 8, 32),
    "depth_exceeded.gdp": (1, 6, 8),
    "incompatible_fittings.gdp": (1, 9, 21),
    "kind_clash.gdp": (1, 5, 31),
    "no_match.gdp": (1, 6, 19),
    "unmet_constraint.gdp": (1, 10, 45),
}

# corpus target -> file holding its expected dump; two are the test goldens
CORPUS_DUMPS = {
    "AgeOrder": "bench/expected/AgeOrder.dump",
    "Agents": "bench/expected/Agents.dump",
    "EmptyOnt": "bench/expected/EmptyOnt.dump",
    "Food": "bench/expected/Food.dump",
    "GradedRels_Significance": "bench/expected/GradedRels_Significance.dump",
    "GradedRelsSub_Significance": "bench/expected/GradedRelsSub_Significance.dump",
    "PersonRels": "tests/golden/person_rels.dump",
    "ValSet_CrustStyle": "bench/expected/ValSet_CrustStyle.dump",
    "ValSet_Significance": "tests/golden/valset_significance.dump",
    "ValSetWithOrder_Significance": "bench/expected/ValSetWithOrder_Significance.dump",
}


def flat(*parts: str) -> str:
    """Stratified name of a (possibly nested) parameterized name.

    `flat("p", "atLeast", "x")` is the flat form of `p[atLeast[x]]`; only a
    digit-initial whole name gets the `_` prefix.
    """
    name = "_".join(parts)
    return "_" + name if name[0].isdigit() else name


class Ontology:
    """A flat ontology as sets of (kind, name) symbols and axiom field tuples."""

    def __init__(self) -> None:
        self.symbols: set[tuple[str, str]] = set()
        self.axioms: set[tuple[str, ...]] = set()

    def declare(self, kind: str, *names: str) -> "Ontology":
        self.symbols.update((kind, n) for n in names)
        return self

    @classmethod
    def from_dump(cls, text: str) -> "Ontology":
        """Read back a structural dump."""
        o = cls()
        for line in text.splitlines():
            head, *rest = line.split(" ")
            if head == "SYM":
                o.declare(rest[0], rest[1])
            else:
                o.axioms.add(tuple(rest))
        return o

    def merge(self, other: "Ontology") -> "Ontology":
        self.symbols |= other.symbols
        self.axioms |= other.axioms
        return self

    # -- axioms; each also declares the symbols it mentions ------------------

    def domain(self, prop: str, cls: str) -> None:
        self._prop_cls("Domain", prop, cls)

    def range(self, prop: str, cls: str) -> None:
        self._prop_cls("Range", prop, cls)

    def _prop_cls(self, head: str, prop: str, cls: str) -> None:
        self.declare(OBJECT_PROPERTY, prop).declare(CLASS, cls)
        self.axioms.add((head, prop, cls))

    def characteristic(self, which: str, prop: str) -> None:
        self.declare(OBJECT_PROPERTY, prop)
        self.axioms.add((which, prop))

    def sub_property(self, sub: str, sup: str) -> None:
        self.declare(OBJECT_PROPERTY, sub, sup)
        self.axioms.add(("SubPropertyOf", sub, sup))

    def inverse_of(self, prop: str, inverse: str) -> None:
        self.declare(OBJECT_PROPERTY, prop, inverse)
        self.axioms.add(("InverseOf", prop, inverse))

    def class_assertion(self, cls: str, individual: str) -> None:
        self.declare(CLASS, cls).declare(INDIVIDUAL, individual)
        self.axioms.add(("ClassAssertion", cls, individual))

    def different(self, individuals) -> None:
        members = sorted(set(individuals))
        self.declare(INDIVIDUAL, *members)
        self.axioms.add(("DifferentIndividuals", *members))

    def equivalent_to(self, cls: str, individuals) -> None:
        members = sorted(set(individuals))
        self.declare(CLASS, cls).declare(INDIVIDUAL, *members)
        self.axioms.add(("EquivalentToUnion", cls, *members))

    # -- renderers ------------------------------------------------------------

    def dump(self) -> str:
        lines = [f"SYM {k} {n}" for k, n in self.symbols]
        lines += ["AX " + " ".join(a) for a in self.axioms]
        return "".join(line + "\n" for line in sorted(lines))

    def manchester(self) -> str:
        fields: dict[tuple[str, str], dict[str, list]] = {
            s: {"eq": [], "Domain": [], "Range": [], "chars": [],
                "SubPropertyOf": [], "InverseOf": [], "Types": []}
            for s in self.symbols
        }
        standalone = []
        for a in sorted(self.axioms):
            head = a[0]
            if head in ("Domain", "Range", "SubPropertyOf", "InverseOf"):
                fields[(OBJECT_PROPERTY, a[1])][head].append(a[2])
            elif head in ("Transitive", "Reflexive"):
                fields[(OBJECT_PROPERTY, a[1])]["chars"].append(head)
            elif head == "ClassAssertion":
                fields[(INDIVIDUAL, a[2])]["Types"].append(a[1])
            elif head == "EquivalentToUnion":
                fields[(CLASS, a[1])]["eq"].append(a[2:])
            else:
                standalone.append(a)

        def names(ns) -> str:
            return ", ".join(sorted(set(ns)))

        blocks = []
        for kind, name in sorted(self.symbols, key=lambda s: (_KIND_ORDER[s[0]], s[1])):
            f = fields[(kind, name)]
            lines = [f"{kind}: {name}"]
            if kind == CLASS:
                lines += [f"    EquivalentTo: {{{names(eq)}}}" for eq in f["eq"]]
            elif kind == OBJECT_PROPERTY:
                for label, key in (("Domain", "Domain"), ("Range", "Range"),
                                   ("Characteristics", "chars"),
                                   ("SubPropertyOf", "SubPropertyOf"),
                                   ("InverseOf", "InverseOf")):
                    if f[key]:
                        lines.append(f"    {label}: {names(f[key])}")
            elif f["Types"]:
                lines.append(f"    Types: {names(f['Types'])}")
            blocks.append("\n".join(lines))
        blocks += ["DifferentIndividuals: " + ", ".join(a[1:]) for a in standalone]
        return "\n\n".join(blocks) + "\n" if blocks else ""


# ---------------------------------------------------------------------------
# Models of the corpus patterns the generated workloads instantiate
# ---------------------------------------------------------------------------

def transitive_relation(o: Ontology, r: str, c: str) -> None:
    o.domain(r, c)
    o.range(r, c)
    o.characteristic("Transitive", r)


def reflexive_relation(o: Ontology, r: str, c: str) -> None:
    o.domain(r, c)
    o.range(r, c)
    o.characteristic("Reflexive", r)


def inverse_relation(o: Ontology, r: str, s: str, d: str, rng: str) -> None:
    o.domain(r, d)
    o.range(r, rng)
    o.domain(s, rng)
    o.range(s, d)
    o.inverse_of(s, r)


def sub_prop(o: Ontology, q: str, d: str, rng: str, p: str) -> None:
    o.domain(q, d)
    o.range(q, rng)
    o.sub_property(q, p)


def val_set(o: Ontology, val: str, raw_items, ordered: bool) -> None:
    """`ValSet[val; items; greater[val]]`, or with the order elided."""
    items = [flat(i) for i in raw_items]
    for i in items:
        o.class_assertion(val, i)
    o.different(items)
    o.equivalent_to(val, items)
    if ordered:
        transitive_relation(o, flat("greater", val), val)


def graded_rels(o: Ontology, p: str, s: str, t: str, val: str, raw_items) -> None:
    """`GradedRels[p; s; t; val; items]` with a non-empty list."""
    o.declare(OBJECT_PROPERTY, p).declare(CLASS, s, t, val)
    o.declare(INDIVIDUAL, *(flat(g) for g in raw_items))
    for g in raw_items:
        o.domain(flat(p, g), s)
        o.range(flat(p, g), t)


def graded_rels_sub(o: Ontology, p: str, s: str, t: str, val: str, raw_items) -> None:
    """`GradedRelsSub[p; s; t; val; items]` with a non-empty list.

    Grade g_i gets p[atLeast[g_i]] for every grade but the last and
    p[atMost[g_i]] for every grade but the first; each chain is linked
    by SubPropertyOf in list order.
    """
    graded_rels(o, p, s, t, val, raw_items)
    g = list(raw_items)
    n = len(g)
    least = [flat(p, "atLeast", x) for x in g]
    most = [flat(p, "atMost", x) for x in g]
    plain = [flat(p, x) for x in g]
    for i in range(n - 1):
        o.domain(least[i], s)
        o.range(least[i], t)
        o.sub_property(plain[i], least[i])
        o.sub_property(least[i + 1] if i + 2 < n else plain[n - 1], least[i])
    if n >= 2:
        o.sub_property(plain[0], most[1])
    for j in range(1, n):
        o.domain(most[j], s)
        o.range(most[j], t)
        o.sub_property(plain[j], most[j])
        if j + 1 < n:
            o.sub_property(most[j], most[j + 1])


def mismatch(op: dict, stdout: str, stderr: str, exc: str | None, code) -> str | None:
    """Why the result differs from the reference, or None when it matches."""
    if exc is not None:
        return f"exception escaped main: {exc}"
    if code != op["exit"]:
        return f"exit {code}, expected {op['exit']}"
    if stdout != op["stdout"]:
        return f"stdout differs from the reference ({len(stdout)} vs {len(op['stdout'])} chars)"
    if op["diag"] is None:
        if stderr:
            return f"unexpected diagnostics: {stderr.splitlines()[0][:120]}"
    else:
        file, line, col = op["diag"]
        if not stderr.startswith(f"{file}:{line}:{col}:"):
            first = stderr.splitlines()[0][:120] if stderr else "<none>"
            return f"first diagnostic {first!r}, expected {file}:{line}:{col}"
    return None


def probe_mismatch(accept: list[dict], code: int, stdout: str, stderr: str) -> str | None:
    """Why a robustness probe's result matches none of `accept`, or None.

    A traceback never matches: it means an exception escaped the CLI.
    """
    if "Traceback" in stderr:
        lines = stderr.strip().splitlines()
        return f"exception escaped main: {lines[-1][:160] if lines else ''}"
    for acc in accept:
        if code != acc["exit"]:
            continue
        if "stdout" in acc and stdout != acc["stdout"]:
            continue
        if "diag_file" in acc and not re.match(re.escape(acc["diag_file"]) + r":\d+:\d+: ", stderr):
            continue
        if "stderr_prefix" in acc and not stderr.startswith(acc["stderr_prefix"]):
            continue
        return None
    return f"exit {code} does not match the reference"


def read_corpus_dump(root: Path, target: str) -> str:
    return (root / CORPUS_DUMPS[target]).read_text(encoding="utf-8")
