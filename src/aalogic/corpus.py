"""Bundled desk-scale corpus: small Heyting and Boolean algebras (as upset
algebras of tiny posets), the three-valued Lukasiewicz matrix logic, the
built-in logics with their standard algebraizing pair, translation contexts
and the classical corpus used by the institution checks."""

from __future__ import annotations

from .algebra import FiniteAlgebra
from .algebraization import AlgebraizingPair
from .glivenko import GlivenkoContext
from .institutions import Corpus
from .provers import heyting_of_upsets
from .semantics import (
    BUILTIN_SIGNATURE,
    LogicMorphism,
    LogicSpec,
    Matrix,
    identity_morphism,
)
from .syntax import App, FlexibleMorphism, Var, parse_formula


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


def classical_context() -> GlivenkoContext:
    """The double-negation context from intuitionistic into classical logic."""
    pair = classical_pair()
    return GlivenkoContext(
        ipc_logic(), cpc_logic(), FlexibleMorphism.identity(BUILTIN_SIGNATURE),
        App("neg", (App("neg", (Var(0),)),)), source_pair=pair, target_pair=pair,
        name="classical",
    )


def identity_context(logic: LogicSpec | None = None) -> GlivenkoContext:
    logic = logic or ipc_logic()
    return GlivenkoContext.identity(logic, classical_pair())


def cpc_negneg_context() -> GlivenkoContext:
    pair = classical_pair()
    return GlivenkoContext(
        cpc_logic(), cpc_logic(), FlexibleMorphism.identity(BUILTIN_SIGNATURE),
        App("neg", (App("neg", (Var(0),)),)), source_pair=pair, target_pair=pair,
        name="cpc-negneg",
    )


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
    triple_neg = App("neg", (App("neg", (App("neg", (Var(0),)),)),))
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
    corpus.reduct_overrides[("inclusion", 0)] = FiniteAlgebra(
        BUILTIN_SIGNATURE, broken.size, tables
    )
    return corpus


def corrupted_adjoint_filter_corpus() -> Corpus:
    """Classical corpus where one adjoint image filter is tampered."""
    corpus = classical_corpus()
    corpus.adjoint_filter_overrides[("classical", 1)] = frozenset({0})
    return corpus


def corrupted_adjoint_algebra_corpus() -> Corpus:
    """Classical corpus where one adjoint value algebra is collapsed."""
    corpus = classical_corpus()
    corpus.adjoint_algebra_overrides[("classical", 1)] = heyting_chain(1)
    return corpus
