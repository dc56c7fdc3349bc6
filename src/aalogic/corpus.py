"""Bundled desk-scale corpus: small Heyting and Boolean algebras (as upset
algebras of tiny posets), the three-valued Lukasiewicz matrix logic, the
built-in logics with their standard algebraizing pair, translation contexts
and the classical corpus used by the institution checks.

This module is also the one reader of the JSON file formats (signature,
algebra, logic, pair, context, corpus) and holds the two tables of bundled
names, ``LOGICS`` and ``CONTEXTS``; ``resolve_logic`` and
``resolve_context`` turn a name or a file path into the object."""

from __future__ import annotations

import json
import os

from .algebra import FiniteAlgebra
from .algebraization import AlgebraizingPair
from .glivenko import _NEGNEG, GlivenkoContext, adjoint_image
from .institutions import Corpus
from .provers import heyting_of_upsets
from .semantics import (
    BUILTIN_SIGNATURE,
    LogicMorphism,
    LogicSpec,
    Matrix,
    identity_morphism,
)
from .syntax import App, FlexibleMorphism, Signature, Var, parse_formula


def upset_algebra(n_points: int, leq_pairs: list[tuple[int, int]]) -> FiniteAlgebra:
    """The Heyting algebra of upward-closed subsets of a finite poset, over the
    built-in signature. Elements are sorted by size then bitmask, so 0 is the
    bottom and the last element is the top."""
    up = [1 << i for i in range(n_points)]
    closed = False
    while not closed:
        closed = True
        for i, j in leq_pairs:
            for k in range(n_points):
                if up[k] >> i & 1 and not up[k] >> j & 1:
                    up[k] |= 1 << j
                    closed = False
    return heyting_of_upsets(up, key=lambda s: (s.bit_count(), s))[0]


def heyting_chain(n: int) -> FiniteAlgebra:
    """The n-element chain: and=min, or=max, a->b is top when a<=b else b."""
    return upset_algebra(n - 1, [(i + 1, i) for i in range(n - 2)])


def boolean_algebra(atoms: int) -> FiniteAlgebra:
    """The powerset algebra on the given number of atoms (size 2^atoms)."""
    return upset_algebra(atoms, [])


def lukasiewicz3() -> FiniteAlgebra:
    """Three-valued Lukasiewicz tables over the built-in signature."""
    size = 3
    imp = lambda a, b: min(2, 2 - a + b)
    tables = {
        "neg": [2 - a for a in range(size)],
        "imp": [imp(a, b) for a in range(size) for b in range(size)],
        "and": [min(a, b) for a in range(size) for b in range(size)],
        "or": [max(a, b) for a in range(size) for b in range(size)],
        "iff": [min(imp(a, b), imp(b, a)) for a in range(size) for b in range(size)],
    }
    return FiniteAlgebra(BUILTIN_SIGNATURE, size, tables)


# named corpora (sizes in brackets)

def heyting_corpus(max_size: int = 6) -> list[tuple[str, FiniteAlgebra]]:
    named = [
        ("one", heyting_chain(1)),            # [1]
        ("two", heyting_chain(2)),            # [2]
        ("chain3", heyting_chain(3)),         # [3]
        ("chain4", heyting_chain(4)),         # [4]
        ("diamond", boolean_algebra(2)),      # [4]
        ("chain5", heyting_chain(5)),         # [5]
        ("wide5", upset_algebra(3, [(1, 0), (2, 0)])),   # [5] two coatoms over a stem
        ("peak5", upset_algebra(3, [(0, 1), (0, 2)])),   # [5] two atoms under a cap
        ("chain6", heyting_chain(6)),         # [6]
        ("mixed6", upset_algebra(3, [(0, 1)])),          # [6] chain piece plus a free point
    ]
    return [(name, A) for name, A in named if A.size <= max_size]


def boolean_corpus(max_size: int = 4) -> list[tuple[str, FiniteAlgebra]]:
    named = [
        ("one", boolean_algebra(0)),
        ("two", boolean_algebra(1)),
        ("four", boolean_algebra(2)),
    ]
    return [(name, A) for name, A in named if A.size <= max_size]


def b2() -> FiniteAlgebra:
    return boolean_algebra(1)


def h3() -> FiniteAlgebra:
    return heyting_chain(3)


def b4() -> FiniteAlgebra:
    return boolean_algebra(2)


def cpc_logic() -> LogicSpec:
    return LogicSpec.cpc()


def ipc_logic() -> LogicSpec:
    return LogicSpec.ipc()


def l3_logic() -> LogicSpec:
    return LogicSpec.from_matrices(
        BUILTIN_SIGNATURE, [Matrix(lukasiewicz3(), frozenset({2}))],
        implication="imp", name="l3",
    )


def classical_pair() -> AlgebraizingPair:
    f = lambda text: parse_formula(BUILTIN_SIGNATURE, text)
    return AlgebraizingPair([f("iff(x0,x1)")], [(f("imp(x0,x0)"), f("x0"))])


def perturbed_pair() -> AlgebraizingPair:
    """Deliberately wrong equivalence formulas (implication is not symmetric)."""
    f = lambda text: parse_formula(BUILTIN_SIGNATURE, text)
    return AlgebraizingPair([f("imp(x0,x1)")], [(f("imp(x0,x0)"), f("x0"))])


def _negneg_context(source: LogicSpec, name: str) -> GlivenkoContext:
    """The double-negation context from the source logic into classical logic."""
    pair = classical_pair()
    return GlivenkoContext(source, cpc_logic(), FlexibleMorphism.identity(BUILTIN_SIGNATURE), _NEGNEG,
                           source_pair=pair, target_pair=pair, name=name)


def classical_context() -> GlivenkoContext:
    """The double-negation context from intuitionistic into classical logic."""
    return _negneg_context(ipc_logic(), "classical")


def identity_context(logic: LogicSpec | None = None) -> GlivenkoContext:
    logic = logic or ipc_logic()
    return GlivenkoContext.identity(logic, classical_pair())


def cpc_negneg_context() -> GlivenkoContext:
    return _negneg_context(cpc_logic(), "cpc-negneg")


def _endo_morphism(logic: LogicSpec, overrides) -> LogicMorphism:
    base = FlexibleMorphism.identity(logic.signature).assignment
    base.update(overrides)
    return LogicMorphism(logic, logic, FlexibleMorphism(logic.signature, logic.signature, base))


def classical_corpus() -> Corpus:
    """Logics ipc/cpc with the standard pair, consequence-preserving morphisms,
    matrix models, reduced matrix models, quasivariety members and the
    double-negation context."""
    ipc, cpc = ipc_logic(), cpc_logic()
    pair = classical_pair()
    triple_neg = App("neg", (_NEGNEG,))
    swap_and = App("and", (Var(1), Var(0)))
    inclusion = LogicMorphism(ipc, cpc, FlexibleMorphism.identity(BUILTIN_SIGNATURE))
    # the matrices use the Heyting algebras' own instances, so each algebra
    # is built once per corpus and equal algebras share one memo
    heyting = dict(heyting_corpus(5))
    two, three, four, chain4 = heyting["two"], heyting["chain3"], heyting["diamond"], heyting["chain4"]
    return Corpus(
        logics={"ipc": ipc, "cpc": cpc},
        pairs={"ipc": pair, "cpc": pair},
        morphisms=[
            ("id-ipc", identity_morphism(ipc)),
            ("id-cpc", identity_morphism(cpc)),
            ("inclusion", inclusion),
            ("cpc-triple-neg", _endo_morphism(cpc, {"neg": triple_neg})),
            ("ipc-swap-and", _endo_morphism(ipc, {"and": swap_and})),
        ],
        matrices={
            "cpc": [
                Matrix(two, frozenset({1})),
                Matrix(four, frozenset({3})),
                Matrix(four, frozenset({1, 3})),
            ],
            "ipc": [
                Matrix(three, frozenset({2})),
                Matrix(chain4, frozenset({3})),
                Matrix(two, frozenset({1})),
            ],
        },
        reduced_matrices={
            "ipc": [
                Matrix(two, frozenset({1})),
                Matrix(three, frozenset({2})),
                Matrix(chain4, frozenset({3})),
                Matrix(four, frozenset({3})),
            ],
        },
        algebras={"ipc": list(heyting.values())},
        contexts=[("classical", classical_context())],
    )


def corrupted_reduct_corpus() -> Corpus:
    """Classical corpus with one reduct table tampered (fault injection)."""
    corpus = classical_corpus()
    broken = b2()
    tables = {name: list(t) for name, t in broken.tables.items()}
    tables["neg"] = [0, 1]  # negation forgotten
    corpus.overrides[("If", "inclusion", 0)] = Matrix(
        FiniteAlgebra(BUILTIN_SIGNATURE, broken.size, tables), corpus.matrices["cpc"][0].filter
    )
    return corpus


def corrupted_adjoint_filter_corpus() -> Corpus:
    """Classical corpus where one adjoint image filter is tampered."""
    corpus = classical_corpus()
    image = adjoint_image(corpus.contexts[0][1], corpus.reduced_matrices["ipc"][1])
    corpus.overrides[("InsAL", "classical", 1)] = Matrix(image.algebra, {0})
    return corpus


def corrupted_adjoint_algebra_corpus() -> Corpus:
    """Classical corpus where one adjoint value algebra is collapsed."""
    corpus = classical_corpus()
    corpus.overrides[("InsLAL", "classical", 1)] = heyting_chain(1)
    return corpus


# bundled names

LOGICS = {"cpc": cpc_logic, "ipc": ipc_logic, "l3": l3_logic}

CONTEXTS = {
    "classical": classical_context,
    "identity": identity_context,
    "identity-ipc": identity_context,
    "identity-cpc": lambda: identity_context(cpc_logic()),
}


# file formats; every path inside a file is relative to that file

class _Refusal(ValueError):
    """A reader's refusal of a file, final as written: the reader of an
    enclosing file passes it on instead of wrapping it again."""


def _read(path: str, convert):
    """``convert`` applied to the JSON in the file at path. Text that is not
    JSON, or nested too deeply to decode, becomes a ValueError naming the
    file. Contents without their format's shape (a list where a table
    belongs, a number where a formula does, a text carrier size) make
    ``convert`` raise a KeyError, TypeError, AttributeError, IndexError or
    ValueError, which becomes one too."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise _Refusal(f"{path} could not be decoded as JSON ({exc})") from None
    try:
        return convert(data)
    except _Refusal:
        raise
    except (KeyError, TypeError, AttributeError, IndexError, ValueError) as exc:
        raise _Refusal(f"{path} does not have its format's shape ({type(exc).__name__}: {exc})") from None


def _read_named(what: str, entry: str, names, path: str, convert):
    """``convert`` of the file at path, which an entry that is not a bundled
    name must be."""
    if not os.path.isfile(path):
        raise FileNotFoundError(f"unknown {what} {entry!r}: not a bundled name ({', '.join(names)}) and not a file")
    return _read(path, convert)


def _signature_of(entry, base: str) -> Signature:
    """A signature entry: inline, or a path relative to base."""
    if isinstance(entry, str):
        return _read(os.path.join(base, entry), Signature.from_json)
    return Signature.from_json(entry)


def load_algebra(entry, base: str = "", signature: Signature | None = None) -> FiniteAlgebra:
    """An algebra file, by a path relative to base, or an inline algebra:
    size and per-connective tables, with a signature entry that defaults to
    ``signature``. A file holds an inline algebra, not the path of another
    file."""
    if isinstance(entry, str):
        path = os.path.join(base, entry)
        return _read(path, lambda data: _algebra_of(data, os.path.dirname(path)))
    return _algebra_of(entry, base, signature)


def _algebra_of(entry: dict, base: str, signature: Signature | None = None) -> FiniteAlgebra:
    if "signature" in entry:
        signature = _signature_of(entry["signature"], base)
    return FiniteAlgebra.from_json(entry, signature)


def _matrix_of(entry, base: str, signature: Signature | None = None) -> Matrix:
    return Matrix(load_algebra(entry["algebra"], base, signature), entry["filter"])


def _morphism_of(entry, source: LogicSpec, target: LogicSpec) -> FlexibleMorphism:
    """A morphism entry: "identity" or an assignment of target formulas."""
    if entry == "identity":
        return FlexibleMorphism.identity(source.signature)
    assignment = {name: parse_formula(target.signature, text) for name, text in entry.items()}
    return FlexibleMorphism(source.signature, target.signature, assignment)


def _context_of(entry, source: LogicSpec, target: LogicSpec, source_pair, target_pair,
                name: str) -> GlivenkoContext:
    """A context entry: a morphism entry "h" (default "identity") and the
    fixed formula "theta"."""
    h = _morphism_of(entry.get("h", "identity"), source, target)
    return GlivenkoContext(source, target, h, parse_formula(source.signature, entry["theta"]),
                           source_pair=source_pair, target_pair=target_pair, name=name)


def resolve_logic(entry: str, base: str = "") -> LogicSpec:
    """A bundled logic by name, or a logic-spec file by a path relative to
    base: a signature entry plus either a built-in prover engine ("cpc" or
    "ipc") or a matrix family."""
    if entry in LOGICS:
        return LOGICS[entry]()
    path = os.path.join(base, entry)
    return _read_named("logic", entry, LOGICS, path, lambda data: _logic_of(data, os.path.dirname(path)))


def _logic_of(data, base: str) -> LogicSpec:
    engine = data.get("engine", data)
    sig_entry = data.get("signature")
    sig = None if sig_entry is None else _signature_of(sig_entry, base)
    if engine.get("kind") == "builtin":
        return LogicSpec(engine["name"], sig or BUILTIN_SIGNATURE, name=engine["name"])
    if engine.get("kind") == "matrix":
        if sig is None:
            raise ValueError("matrix logic spec needs a signature")
        matrices = [_matrix_of(m, base, sig) for m in engine["matrices"]]
        return LogicSpec.from_matrices(sig, matrices, implication=data.get("implication"))
    # a file that is no logic spec at all; _read names the file, and
    # tests/golden/error_signature_as_logic.txt pins the line
    raise ValueError("logic spec has no recognizable engine")


def resolve_context(entry: str) -> GlivenkoContext:
    """A bundled context by name, or a context file: source and target logic
    entries, a morphism entry and the fixed formula. A file's context between
    built-in engines gets the classical pair."""
    if entry in CONTEXTS:
        return CONTEXTS[entry]()

    def convert(data):
        source, target = (resolve_logic(data[key], os.path.dirname(entry)) for key in ("source", "target"))
        pair = classical_pair() if {source.kind, target.kind} <= {"cpc", "ipc"} else None
        return _context_of(data, source, target, pair, pair, os.path.splitext(os.path.basename(entry))[0])
    return _read_named("context", entry, CONTEXTS, entry, convert)


def load_pair(path: str, signature: Signature) -> AlgebraizingPair:
    return _read(path, lambda data: AlgebraizingPair.from_json(data, signature))


def load_corpus(path: str) -> Corpus:
    """Corpus file: named logics (bundled names or logic-spec paths), pairs,
    morphisms, matrices, reduced matrices, quasivariety members and
    contexts."""
    return _read(path, lambda data: _corpus_of(data, os.path.dirname(path)))


def _corpus_of(data, base: str) -> Corpus:
    logics = {name: resolve_logic(entry, base) for name, entry in data.get("logics", {}).items()}
    pairs = {
        name: AlgebraizingPair.from_json(entry, logics[name].signature)
        for name, entry in data.get("pairs", {}).items()
    }
    morphisms = []
    for entry in data.get("morphisms", []):
        source, target = logics[entry["source"]], logics[entry["target"]]
        morphisms.append(
            (entry["name"], LogicMorphism(source, target, _morphism_of(entry.get("h", "identity"), source, target)))
        )
    matrices = {name: [_matrix_of(m, base) for m in ms] for name, ms in data.get("matrices", {}).items()}
    reduced = {name: [_matrix_of(m, base) for m in ms] for name, ms in data.get("reduced_matrices", {}).items()}
    algebras = {name: [load_algebra(a, base) for a in As] for name, As in data.get("algebras", {}).items()}
    contexts = []
    for entry in data.get("contexts", []):
        name = entry["name"]
        source, target = logics[entry["source"]], logics[entry["target"]]
        contexts.append((name, _context_of(entry, source, target, pairs.get(entry["source"]),
                                           pairs.get(entry["target"]), name)))
    return Corpus(logics=logics, pairs=pairs, morphisms=morphisms, matrices=matrices,
                  reduced_matrices=reduced, algebras=algebras, contexts=contexts)
