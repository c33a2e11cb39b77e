"""Seeded workload generators. Nothing here imports godp.

A workload is a set of `.gdp` input files plus the CLI operations of one
pass, each with the result the reference in `reference.py` expects. Paths
are relative to the work directory the operations run in, so diagnostics and
output bytes do not depend on where that directory is.

Operation groups: a pass runs every operation once. `base` operations run
the workload at size 1, `double` operations at size 2 (twice the list length
or library size); `compile_s.ratio_2n` compares the two. `other` operations
(the error corpus) count toward the pass but toward neither size.
"""

from __future__ import annotations

import random
import re
import string
from dataclasses import asdict, dataclass, field
from pathlib import Path

import reference as ref
from reference import Ontology

KEYWORDS = {"ontology", "given", "let", "in", "then", "fit", "empty", "end"}

# long_list list length n and wide_library definition count m, sized so that
# one pass of each takes a fraction of a second on one core; the `double`
# half of a pass runs 2n and 2m.
LONG_LIST_N = 24
WIDE_LIBRARY_M = 16
DEFS_PER_BASE = 8  # wide_library: definitions sharing one `given` base

ROBUST_VALSET_ITEMS = 340  # just past the interpreter recursion limit today
ROBUST_NEST_DEPTH = 1500


@dataclass
class Op:
    argv: list[str]
    group: str  # "base", "double" or "other"
    exit: int
    stdout: str = ""
    diag: list | None = None  # [file, line, col] of the first diagnostic


@dataclass
class Probe:
    """A robustness operation, run once per run in its own process.

    It passes when the result matches one of `accept`: each entry gives the
    exit code and one of the exact stdout, `diag_file` (the file a
    positioned first diagnostic must name) or `stderr_prefix`.
    """

    name: str
    argv: list[str]
    accept: list[dict]


@dataclass
class Workload:
    name: str
    seed: int
    sizes: dict
    files: dict[str, bytes] = field(default_factory=dict)
    ops: list[Op] = field(default_factory=list)
    probes: list[Probe] = field(default_factory=list)

    def spec(self) -> dict:
        """JSON-ready description for the workload process (no file contents)."""
        return {
            "workload": self.name,
            "seed": self.seed,
            "sizes": self.sizes,
            "ops": [asdict(o) for o in self.ops],
            "probes": [asdict(p) for p in self.probes],
        }

    def write_files(self, workdir: Path) -> None:
        for rel, data in self.files.items():
            path = workdir / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)


class _Names:
    """Unique seeded identifiers: a fixed prefix plus five random characters.

    Every name of one kind has the same length, so output sizes do not
    depend on the seed. No stem is a keyword or a word of the corpus.
    """

    def __init__(self, rng: random.Random, avoid: set[str]):
        self.rng = rng
        self.used = set(avoid) | KEYWORDS

    def stem(self) -> str:
        alphabet = string.ascii_lowercase + string.digits
        while True:
            s = self.rng.choice(string.ascii_lowercase) + "".join(
                self.rng.choice(alphabet) for _ in range(4)
            )
            if s not in self.used:
                self.used.add(s)
                return s

    def take(self, prefix: str, count: int) -> list[str]:
        return [prefix + self.stem() for _ in range(count)]


def _rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _corpus_files(root: Path) -> dict[str, bytes]:
    files = {}
    for path in sorted((root / "corpus").glob("*.gdp")) + sorted((root / "corpus/errors").glob("*.gdp")):
        files[path.relative_to(root).as_posix()] = path.read_bytes()
    return files


def _corpus_words(files: dict[str, bytes]) -> set[str]:
    words: set[str] = set()
    for data in files.values():
        words.update(re.findall(r"[A-Za-z0-9_]+", data.decode("utf-8")))
    return words


def _library(files: dict[str, bytes], rng: random.Random | None = None) -> list[str]:
    """The top-level corpus library files, shuffled when `rng` is given."""
    libs = [f for f in files if f.startswith("corpus/") and "/errors/" not in f]
    if rng is not None:
        rng.shuffle(libs)
    return libs


def _expand(target: str, inputs: list[str], fmt: str) -> list[str]:
    return ["expand", "--target", target, "--format", fmt, *inputs]


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

MANCHESTER_CORPUS_TARGET = "ValSetWithOrder_Significance"


def _twin(files: dict[str, bytes]) -> dict[str, bytes]:
    """A renamed copy of the corpus library: every definition X becomes X_twin.

    Symbols keep their names, so the twin adds as many definitions as the
    corpus has without changing what any original target expands to.
    """
    texts = {f: files[f].decode("utf-8") for f in _library(files)}
    defined = set()
    for text in texts.values():
        defined.update(re.findall(r"\bontology\s+([A-Za-z0-9_]+)", text))
    pattern = re.compile(r"\b(" + "|".join(sorted(defined, key=len, reverse=True)) + r")\b")
    return {
        "twin/" + Path(f).name: pattern.sub(r"\1_twin", text).encode("utf-8")
        for f, text in texts.items()
    }


def corpus(root: Path, seed: int) -> Workload:
    """Every zero-parameter corpus target, the error corpus, and the same
    targets against the corpus plus its renamed twin (the library doubled)."""
    rng = _rng(seed, "corpus")
    files = _corpus_files(root)
    files.update(_twin(files))
    single = _library(files, rng)
    double = single + sorted(f for f in files if f.startswith("twin/"))
    targets = sorted(ref.CORPUS_DUMPS)
    rng.shuffle(targets)
    w = Workload("corpus", seed, {"targets": len(targets), "error_files": len(ref.ERROR_TABLE)},
                 files)
    for group, inputs in (("base", single), ("double", double)):
        w.ops.append(Op(["check", *inputs], group, 0))
        for t in targets:
            w.ops.append(Op(_expand(t, inputs, "dump"), group, 0, ref.read_corpus_dump(root, t)))
        manchester = Ontology.from_dump(ref.read_corpus_dump(root, MANCHESTER_CORPUS_TARGET)).manchester()
        w.ops.append(Op(_expand(MANCHESTER_CORPUS_TARGET, inputs, "manchester"), group, 0, manchester))
    errors = sorted(ref.ERROR_TABLE)
    rng.shuffle(errors)
    for name in errors:
        path = f"corpus/errors/{name}"
        code, line, col = ref.ERROR_TABLE[name]
        depth = ["--depth", "20"] if name == "depth_exceeded.gdp" else []
        w.ops.append(Op(["check", *depth, path], "other", code, "", [path, line, col]))
    return w


# ---------------------------------------------------------------------------
# long_list
# ---------------------------------------------------------------------------

def long_list(root: Path, seed: int) -> Workload:
    """GradedRelsSub and ordered ValSet over one seeded list, at n and 2n."""
    n = LONG_LIST_N
    rng = _rng(seed, "long_list")
    files = _corpus_files(root)
    names = _Names(rng, _corpus_words(files))
    grades = names.take("g", 2 * n)
    src = ["%% Generated: GradedRelsSub and ValSet over one list at n and 2n.\n"]
    w = Workload("long_list", seed, {"n": n}, files)
    inputs = _library(files, rng) + ["long/targets.gdp"]
    for size, group in ((1, "base"), (2, "double")):
        items = grades[: size * n]
        listed = ", ".join(items)
        src.append(
            f"\nontology LongSub{size} =\n"
            f"  {{ Class: Src  Class: Dst }}\n"
            f"  then GradedRelsSub[hasGrade; Src; Dst; Grade; {listed}]\n"
            f"\nontology LongSet{size} =\n"
            f"  ValSet[Grade; {listed}; greater[Grade]]\n"
        )
        sub, vals = Ontology(), Ontology()
        ref.graded_rels_sub(sub, "hasGrade", "Src", "Dst", "Grade", items)
        ref.val_set(vals, "Grade", items, ordered=True)
        w.ops.append(Op(_expand(f"LongSub{size}", inputs, "dump"), group, 0, sub.dump()))
        w.ops.append(Op(_expand(f"LongSet{size}", inputs, "manchester"), group, 0, vals.manchester()))
    files["long/targets.gdp"] = "".join(src).encode("utf-8")
    return w


# ---------------------------------------------------------------------------
# wide_library
# ---------------------------------------------------------------------------

WIDE_PATTERN_FILES = ["corpus/patterns.gdp", "corpus/orders.gdp", "corpus/value_sets.gdp"]


def _wide_definitions(rng: random.Random, names: _Names, count: int):
    """`count` definitions in blocks of DEFS_PER_BASE sharing one base.

    Every block has the same mix: each list length from 2 to 5 occurs once
    with the optional order of ValSet supplied and once with it elided.
    """
    defs = []
    for _ in range(count // DEFS_PER_BASE):
        base = names.stem()
        shapes = [(i % 2 == 0, 2 + (i // 2) % 4) for i in range(DEFS_PER_BASE)]
        rng.shuffle(shapes)
        defs.extend((names.stem(), base, ordered, length) for ordered, length in shapes)
    return defs


def _wide_source(defs) -> tuple[str, dict[str, Ontology]]:
    out = ["%% Generated: small definitions over the corpus patterns.\n"]
    models: dict[str, Ontology] = {}
    bases_done = set()
    for s, b, ordered, length in defs:
        if b not in bases_done:
            bases_done.add(b)
            out.append(f"\nontology B{b} = {{ Class: K{b}  ObjectProperty: o{b} Domain: K{b} Range: K{b} }}\n")
        items = [f"v{s}{i}" for i in range(length)]
        order = f"; greater[V{s}]" if ordered else ""
        out.append(
            f"\nontology P{s} = {{ ObjectProperty: h{s}  ObjectProperty: k{s} }}\n"
            f"\nontology W{s} given B{b} =\n"
            f"  {{ Class: A{s} }}\n"
            f"  then TransitiveRelation[r{s}; A{s}]\n"
            f"  then SubProp[u{s}; A{s}; A{s}; r{s}]\n"
            f"  then ReflexiveRelation[{{ ObjectProperty: q{s} }}; K{b}]\n"
            f"  then InverseRelation[P{s} fit r |-> h{s}; k{s}; A{s}; K{b}]\n"
            f"  then ValSet[V{s}; {', '.join(items)}{order}]\n"
        )
        o = Ontology().declare(ref.CLASS, f"A{s}")
        o.domain(f"o{b}", f"K{b}")
        o.range(f"o{b}", f"K{b}")
        ref.transitive_relation(o, f"r{s}", f"A{s}")
        ref.sub_prop(o, f"u{s}", f"A{s}", f"A{s}", f"r{s}")
        ref.reflexive_relation(o, f"q{s}", f"K{b}")
        ref.inverse_relation(o, f"h{s}", f"k{s}", f"A{s}", f"K{b}")
        ref.val_set(o, f"V{s}", items, ordered)
        models[f"W{s}"] = o
    out.append("\nontology All =\n  " + "\n  then ".join(models) + "\n")
    return "".join(out), models


def wide_library(root: Path, seed: int) -> Workload:
    """A library of m small definitions, and one of 2m, each chained by All."""
    m = WIDE_LIBRARY_M
    rng = _rng(seed, "wide_library")
    files = _corpus_files(root)
    names = _Names(rng, _corpus_words(files))
    defs = _wide_definitions(rng, names, 2 * m)
    # the dumped definition has the same shape under every seed
    dumped = next(f"W{s}" for s, _, ordered, length in defs if ordered and length == 5)
    w = Workload("wide_library", seed, {"m": m}, files)
    for size, group in ((1, "base"), (2, "double")):
        text, models = _wide_source(defs[: size * m])
        lib = f"wide/lib{size}.gdp"
        files[lib] = text.encode("utf-8")
        inputs = WIDE_PATTERN_FILES + [lib]
        everything = Ontology()
        for o in models.values():
            everything.merge(o)
        w.ops.append(Op(["check", *inputs], group, 0))
        w.ops.append(Op(["expand", "--target", "All", *inputs], group, 0, everything.manchester()))
        w.ops.append(Op(_expand(dumped, inputs, "dump"), group, 0, models[dumped].dump()))
    return w


# ---------------------------------------------------------------------------
# Robustness probes: expected to fail before the engine and parser are fixed
# ---------------------------------------------------------------------------

def robustness_probes(seed: int) -> tuple[list[Probe], dict[str, bytes]]:
    """The three probes and the input files they read."""
    rng = _rng(seed, "probes")
    names = _Names(rng, set())
    probes = []

    nest = "Wrap[" * ROBUST_NEST_DEPTH + "Thing" + "]" * ROBUST_NEST_DEPTH
    deep = f"ontology Wrap [Class: C] = {{ Class: C }}\nontology Deep = {nest}\n"
    probes.append(Probe(
        "deep_nesting",
        _expand("Deep", ["probes/deep.gdp"], "dump"),
        [{"exit": 0, "stdout": "SYM Class Thing\n"}, {"exit": 1, "diag_file": "probes/deep.gdp"}],
    ))

    items = names.take("m", ROBUST_VALSET_ITEMS)
    big = f"ontology Big = ValSet[Grade; {', '.join(items)}; greater[Grade]]\n"
    expected = Ontology()
    ref.val_set(expected, "Grade", items, ordered=True)
    probes.append(Probe(
        "long_valset",
        _expand("Big", WIDE_PATTERN_FILES + ["probes/long_valset.gdp"], "dump"),
        [{"exit": 0, "stdout": expected.dump()}],
    ))

    probes.append(Probe(
        "non_utf8",
        ["check", "probes/latin1.gdp"],
        [{"exit": 2, "stderr_prefix": "godp:"}],
    ))
    files = {
        "probes/deep.gdp": deep.encode("utf-8"),
        "probes/long_valset.gdp": big.encode("utf-8"),
        "probes/latin1.gdp": "%% café au lait\nontology Latin = { Class: Cafe }\n".encode("latin-1"),
    }
    return probes, files


GENERATORS = {"corpus": corpus, "long_list": long_list, "wide_library": wide_library}


def generate(root: Path, name: str, seed: int) -> Workload:
    w = GENERATORS[name](root, seed)
    w.probes, files = robustness_probes(seed)
    w.files.update(files)
    return w
