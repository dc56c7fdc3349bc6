import functools
import itertools
import os
import random
import subprocess
import sys

import pytest

from aalogic import (
    Equation,
    Matrix,
    Var,
    cpc_decide,
    equational_consequence,
    evaluate,
    ipc_decide,
    kripke_countermodel,
    quasiidentity_holds,
)
from aalogic import algebra, corpus, provers
from aalogic.algebraization import delta_translate, tau_translate
from aalogic.algebra import FiniteAlgebra, value_vector
from aalogic.provers import _FRAME_VARS, KripkeModel, _code, _frame_bits, _frames, _prove, heyting_of_upsets
from aalogic.semantics import BUILTIN_SIGNATURE, consequence, matrix_satisfies
from aalogic.syntax import (
    MAX_FORMULA_DEPTH,
    App,
    enumerate_formulas,
    formula_depth,
    parse_formula,
    random_formula,
    sorted_variables,
    substitute,
    variables,
)


def g4ip(gamma, phi):
    """Bare sequent search on the coded query: no classical pre-check and no
    Kripke fallback, so the oracles below check it on its own."""
    return _prove(frozenset(map(_code, gamma)), _code(phi))


def nn(phi):
    return App("neg", (App("neg", (phi,)),))


# the prover's falsum is an id that no formula names; a formula node named
# ``_bot`` is foreign to every procedure here
BOT = App("_bot", ())


class TestClassical:
    def test_excluded_middle(self, F):
        assert cpc_decide((), F("or(x0,neg(x0))"))

    def test_variable_not_a_theorem(self, F):
        assert not cpc_decide((), F("x0"))

    def test_peirce(self, peirce):
        assert cpc_decide((), peirce)

    def test_premises(self, F):
        assert cpc_decide((F("x0"), F("imp(x0,x1)")), F("x1"))
        assert not cpc_decide((F("imp(x0,x1)"),), F("x1"))

    def test_iff_connective(self, F):
        assert cpc_decide((), F("iff(x0,neg(neg(x0)))"))

    def test_agrees_with_two_element_matrix_exhaustively(self, sig2, b2):
        # every formula with <= 3 variables and depth <= 4 over neg/imp
        M = Matrix(b2, frozenset({1}))
        for phi in enumerate_formulas(sig2, 3, 4):
            assert cpc_decide((), phi) == matrix_satisfies(M, (), phi)

    def test_agrees_with_two_element_matrix_full_signature(self, sig, b2):
        M = Matrix(b2, frozenset({1}))
        for phi in enumerate_formulas(sig, 2, 3):
            assert cpc_decide((), phi) == matrix_satisfies(M, (), phi)

    def test_truth_bits_agree_with_the_kernel_on_b2(self, b2):
        # _frame_bits row R sets x_j to bit j of R; the kernel's row r over the
        # same frame x0..x3 is in product order, x0 the most significant digit
        frame = (1 << _FRAME_VARS) - 1
        frame_row = [
            sum((r >> (_FRAME_VARS - 1 - j) & 1) << j for j in range(_FRAME_VARS))
            for r in range(1 << _FRAME_VARS)
        ]
        for phi in enumerate_formulas(BUILTIN_SIGNATURE, 3, 3):
            bits = _frame_bits(phi)
            assert value_vector(b2, phi, frame) == tuple(bits >> R & 1 for R in frame_row)


class TestIntuitionistic:
    def test_identity_implication(self, F):
        assert ipc_decide((), F("imp(x0,x0)"))

    def test_peirce_fails(self, peirce, h3):
        assert not ipc_decide((), peirce)
        # three-element chain countermodel at x0 -> middle, x1 -> bottom
        assert evaluate(h3, peirce, {0: 1, 1: 0}) != 2

    def test_double_negated_peirce(self, F, peirce):
        assert ipc_decide((), App("neg", (App("neg", (peirce,)),)))
        assert kripke_countermodel((), App("neg", (App("neg", (peirce,)),))) is None

    def test_premises_in_antecedent(self, F):
        assert ipc_decide((F("x0"), F("imp(x0,x1)")), F("x1"))
        assert ipc_decide((F("neg(neg(x0))"),), F("neg(neg(neg(neg(x0))))"))
        assert not ipc_decide((F("neg(neg(x0))"),), F("x0"))

    def test_sound_for_heyting_chain(self, sig, h3):
        for phi in enumerate_formulas(sig, 2, 2):
            if ipc_decide((), phi):
                for a in range(3):
                    for b in range(3):
                        assert evaluate(h3, phi, {0: a, 1: b}) == 2

    def test_contained_in_classical(self, sig2):
        for phi in enumerate_formulas(sig2, 2, 4):
            if ipc_decide((), phi):
                assert cpc_decide((), phi)

    def test_deterministic(self, peirce):
        assert [ipc_decide((), peirce) for _ in range(3)] == [False] * 3

    @pytest.mark.parametrize(
        "text,provable",
        [
            ("imp(neg(neg(x0)),x0)", False),
            ("neg(neg(imp(neg(neg(x0)),x0)))", True),
            ("or(neg(x0),neg(neg(x0)))", False),
            ("or(imp(x0,x1),imp(x1,x0))", False),
            ("imp(imp(neg(x0),or(x1,x2)),or(imp(neg(x0),x1),imp(neg(x0),x2)))", False),
            ("neg(and(x0,neg(x0)))", True),
            ("iff(neg(neg(neg(x0))),neg(x0))", True),
            ("iff(neg(or(x0,x1)),and(neg(x0),neg(x1)))", True),
            ("imp(or(neg(x0),neg(x1)),neg(and(x0,x1)))", True),
            ("imp(neg(and(x0,x1)),or(neg(x0),neg(x1)))", False),
            ("iff(imp(and(x0,x1),x2),imp(x0,imp(x1,x2)))", True),
            ("imp(imp(x0,imp(x1,x2)),imp(imp(x0,x1),imp(x0,x2)))", True),
            ("imp(and(x0,neg(x0)),x1)", True),
        ],
    )
    def test_classic_separating_formulas(self, F, text, provable):
        phi = F(text)
        assert ipc_decide((), phi) == provable
        if not provable:
            assert kripke_countermodel((), phi, max_worlds=4) is not None

    def test_chain_cannot_refute_linearity_but_kripke_can(self, F, h3):
        # (x0->x1) v (x1->x0) holds on every chain yet is unprovable;
        # separating it needs a forked frame
        gd = F("or(imp(x0,x1),imp(x1,x0))")
        assert matrix_satisfies(Matrix(h3, frozenset({2})), (), gd)
        assert not ipc_decide((), gd)
        model = kripke_countermodel((), gd, max_worlds=3)
        assert model is not None


class TestKripkeOracle:
    def test_excluded_middle_refuted(self, F):
        model = kripke_countermodel((), F("or(x0,neg(x0))"))
        assert model is not None and model.worlds <= 2

    def test_never_contradicts_prover(self, sig2):
        for phi in enumerate_formulas(sig2, 2, 3):
            proved = ipc_decide((), phi)
            refuted = kripke_countermodel((), phi, max_worlds=3) is not None
            assert not (proved and refuted)
            assert not (g4ip((), phi) and refuted)

    def test_complete_on_small_universe(self, sig2):
        # at three worlds the refuter decides everything this small
        for phi in enumerate_formulas(sig2, 2, 3):
            assert ipc_decide((), phi) != (kripke_countermodel((), phi, max_worlds=3) is not None)
            assert g4ip((), phi) != (kripke_countermodel((), phi, max_worlds=3) is not None)

    def test_premises(self, F):
        assert kripke_countermodel((F("x0"),), F("x0")) is None
        model = kripke_countermodel((F("imp(x0,x1)"),), F("x1"))
        assert model is not None

    def test_premise_consequence_sampled(self, sig2):
        import random

        universe = enumerate_formulas(sig2, 2, 3)
        rng = random.Random(3)
        for _ in range(250):
            gamma = (universe[rng.randrange(len(universe))],)
            phi = universe[rng.randrange(len(universe))]
            proved = ipc_decide(gamma, phi)
            refuted = kripke_countermodel(gamma, phi, max_worlds=3) is not None
            assert proved != refuted
            assert g4ip(gamma, phi) != refuted

    def test_heyting_matrices_refute_too(self, sig, h3, chain4):
        # a second refutation route: anything the sequent search rejects over
        # this small universe has a finite Heyting matrix countermodel
        for phi in enumerate_formulas(sig, 2, 2):
            assert g4ip((), phi) == ipc_decide((), phi)
            if not ipc_decide((), phi):
                assert not matrix_satisfies(
                    Matrix(h3, frozenset({2})), (), phi
                ) or not matrix_satisfies(Matrix(chain4, frozenset({3})), (), phi) or (
                    kripke_countermodel((), phi, max_worlds=4) is not None
                )


def full_signature_queries(sig):
    """400 seeded queries over neg/imp/and/or/iff in three variables: up to
    two premises of depth <= 2 and a conclusion of depth <= 3."""
    premises = enumerate_formulas(sig, 3, 2)
    conclusions = enumerate_formulas(sig, 3, 3)
    rng = random.Random(31)
    for _ in range(400):
        gamma = tuple(rng.choice(premises) for _ in range(rng.randrange(3)))
        yield gamma, rng.choice(conclusions)


class TestFullSignatureOracle:
    def test_prover_against_kripke_and_heyting_matrices(self, sig):
        # the sequent search and the Kripke search never both succeed, and
        # whatever the search rejects is refuted by a small Kripke model or a
        # Heyting corpus matrix
        matrices = [Matrix(A, frozenset({A.size - 1})) for _, A in corpus.heyting_corpus()]
        unprovable = 0
        for gamma, phi in full_signature_queries(sig):
            proved = ipc_decide(gamma, phi)
            refuted = kripke_countermodel(gamma, phi, 3) is not None
            assert not (proved and refuted)
            bare = g4ip(gamma, phi)
            assert not (bare and refuted)
            if not bare:
                assert refuted or any(not matrix_satisfies(M, gamma, phi) for M in matrices)
            if not proved:
                unprovable += 1
                assert refuted or any(not matrix_satisfies(M, gamma, phi) for M in matrices)
        assert 0 < unprovable < 400


# ---------------------------------------------------------------------------
# the Kripke search against a direct forcing interpreter
# ---------------------------------------------------------------------------

@functools.cache
def ref_preorders(n):
    """Every relation on n worlds that contains the diagonal, kept when it is
    transitive, as successor bitmasks."""
    out = []
    diagonal = 0
    for i in range(n):
        diagonal |= 1 << (i * n + i)
    off_diag = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in itertools.product((0, 1), repeat=len(off_diag)):
        rel = diagonal
        for (i, j), b in zip(off_diag, bits):
            if b:
                rel |= 1 << (i * n + j)
        ok = True
        for i in range(n):
            for j in range(n):
                if rel >> (i * n + j) & 1:
                    for k in range(n):
                        if rel >> (j * n + k) & 1 and not rel >> (i * n + k) & 1:
                            ok = False
                            break
                    if not ok:
                        break
            if not ok:
                break
        if ok:
            out.append(tuple(
                sum(1 << j for j in range(n) if rel >> (i * n + j) & 1) for i in range(n)
            ))
    return out


def ref_forces(w, phi, up, val, memo):
    key = (w, phi)
    cached = memo.get(key)
    if cached is not None:
        return cached
    if isinstance(phi, Var):
        result = bool(val[phi.index] >> w & 1)
    else:
        name = phi.name
        if name == "and":
            result = all(ref_forces(w, a, up, val, memo) for a in phi.args)
        elif name == "or":
            result = any(ref_forces(w, a, up, val, memo) for a in phi.args)
        elif name == "imp":
            a, b = phi.args
            result = all(not ref_forces(u, a, up, val, memo) or ref_forces(u, b, up, val, memo)
                         for u in range(len(up)) if up[w] >> u & 1)
        elif name == "neg":
            result = all(not ref_forces(u, phi.args[0], up, val, memo)
                         for u in range(len(up)) if up[w] >> u & 1)
        elif name == "iff":
            a, b = phi.args
            result = (ref_forces(w, App("imp", (a, b)), up, val, memo)
                      and ref_forces(w, App("imp", (b, a)), up, val, memo))
        else:
            raise ValueError(f"connective {name} is not an intuitionistic connective")
    memo[key] = result
    return result


def ref_countermodel(gamma, phi, max_worlds):
    """Every model up to the bound, frame by frame, valuation by valuation
    (each variable an upset, ascending), world by world."""
    gamma = tuple(gamma)
    vars_ = sorted_variables(gamma + (phi,))
    for n in range(1, max_worlds + 1):
        for up in ref_preorders(n):
            upsets = [s for s in range(1 << n) if all(up[w] & ~s == 0 for w in range(n) if s >> w & 1)]
            for assignment in itertools.product(upsets, repeat=len(vars_)):
                val = dict(zip(vars_, assignment))
                memo = {}
                for w in range(n):
                    if all(ref_forces(w, g, up, val, memo) for g in gamma) and not ref_forces(
                        w, phi, up, val, memo
                    ):
                        return KripkeModel(n, up, val, w)
    return None


# countermodels to these need four worlds: a root under three maximal points
FOUR_WORLD_TEXTS = [
    "or(or(imp(x0,or(x1,x2)),imp(x1,or(x0,x2))),imp(x2,or(x0,x1)))",
    "imp(imp(neg(x0),or(x1,x2)),or(imp(neg(x0),x1),imp(neg(x0),x2)))",
]


class TestKripkeSearchAgainstForcing:
    def test_full_signature_queries_at_three_worlds(self, sig):
        found = 0
        for gamma, phi in full_signature_queries(sig):
            model = kripke_countermodel(gamma, phi, 3)
            assert model == ref_countermodel(gamma, phi, 3)
            found += model is not None
        assert 0 < found < 400

    def test_sampled_queries_at_four_worlds(self, sig, F):
        # the oracle takes about 1 s per provable query at four worlds, so
        # the random part is small
        universe = enumerate_formulas(sig, 2, 3)
        rng = random.Random(41)
        queries = [(tuple(rng.choice(universe) for _ in range(rng.randrange(2))), rng.choice(universe))
                   for _ in range(10)]
        queries += [((), F(text)) for text in FOUR_WORLD_TEXTS]
        models = [kripke_countermodel(gamma, phi, 4) for gamma, phi in queries]
        assert models == [ref_countermodel(gamma, phi, 4) for gamma, phi in queries]
        assert None in models
        assert all(model.worlds == 4 for model in models[-len(FOUR_WORLD_TEXTS):])

    def test_foreign_connectives_are_rejected(self, F):
        box = App("box", (F("x0"),))
        for gamma, phi in [((), box), ((box,), F("x0")), ((), App("imp", (F("x0"), box)))]:
            for search in (kripke_countermodel, ref_countermodel):
                with pytest.raises(ValueError, match="connective box is not an intuitionistic connective"):
                    search(gamma, phi, 2)
        with pytest.raises(ValueError, match="connective imp is not an intuitionistic connective"):
            kripke_countermodel((), App("imp", (F("x0"),)), 2)  # a known name at the wrong arity

    def test_internal_falsum_node_is_foreign(self, F):
        # falsum is the empty upset of every frame, but no formula names it
        for gamma, phi in [((), BOT), ((BOT,), F("x0")), ((), App("imp", (BOT, F("x0")))),
                           ((F("x0"),), App("or", (BOT, F("neg(neg(x0))"))))]:
            for search in (kripke_countermodel, ref_countermodel):
                with pytest.raises(ValueError, match="connective _bot is not an intuitionistic connective"):
                    search(gamma, phi, 2)

    def test_frame_memos_are_empty_after_a_call(self, F):
        assert kripke_countermodel((), F("or(imp(x0,x1),imp(x1,x0))"), 3) is not None
        assert kripke_countermodel((F("x0"),), F("neg(neg(x0))"), 3) is None
        frames = [A for frames in provers._frame_cache.values() for _, A, _ in frames]
        assert len(frames) >= 1 + 4 + 29  # the preorders on one, two and three worlds
        assert not any(A._memo for A in frames)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_frame_algebras_are_plain_upset_algebras(self, n):
        for up, A, upsets in _frames(n):
            B, fresh_upsets = heyting_of_upsets(up)
            assert A == B and hash(A) == hash(B) and upsets == fresh_upsets
            assert FiniteAlgebra.from_json(A.to_json()) == A


SEARCH_PROBE = """
from aalogic import corpus, provers
from aalogic.algebraization import check_bp_conditions, is_lindenbaum
from aalogic.syntax import BUILTIN_SIGNATURE, parse_formula
ipc, pair = corpus.ipc_logic(), corpus.classical_pair()
reports = [check_bp_conditions(ipc, pair, 2, 1).to_json(), is_lindenbaum(ipc, pair, 2, 2).to_json()]
print(len(provers._sequent_memo), reports)
parse = lambda text: parse_formula(BUILTIN_SIGNATURE, text)
for gamma, phi in [((), "or(imp(x0,x1),imp(x1,x0))"), (("neg(neg(x0))",), "x0"),
                   (("imp(x0,or(x1,x2))",), "or(imp(x0,x1),imp(x0,x2))")]:
    print(provers.kripke_countermodel(map(parse, gamma), parse(phi), 3))
"""


def test_search_does_not_depend_on_the_hash_seed():
    # the sequent search visits the same sequents, and the Kripke search
    # returns the same models, under any hash seed
    outputs = [
        subprocess.run([sys.executable, "-c", SEARCH_PROBE], capture_output=True, text=True,
                       check=True, env=dict(os.environ, PYTHONHASHSEED=seed)).stdout
        for seed in ("0", "1")
    ]
    assert outputs[0] == outputs[1]
    # the bounded Lindenbaum sweep keeps the probe inside the sequent search
    assert int(outputs[0].split()[0]) >= 191


class TestGlivenkoProperty:
    def test_classical_theorem_iff_double_negation_provable(self, sig2):
        for phi in enumerate_formulas(sig2, 2, 4):
            nn_phi = App("neg", (App("neg", (phi,)),))
            assert cpc_decide((), phi) == ipc_decide((), nn_phi)
            assert cpc_decide((), phi) == g4ip((), nn_phi)

    def test_full_signature_small(self, sig):
        for phi in enumerate_formulas(sig, 2, 2):
            nn_phi = App("neg", (App("neg", (phi,)),))
            assert cpc_decide((), phi) == ipc_decide((), nn_phi)
            assert cpc_decide((), phi) == g4ip((), nn_phi)


def bench_shaped_queries(sig, seed, count):
    """Seeded queries shaped like the consequence benchmark's stream: up to
    two premises and a conclusion over x0..x2 of depth <= 4; a third of them
    double-negated throughout, as the Glivenko queries reach the prover."""
    rng = random.Random(seed)
    for _ in range(count):
        gamma = tuple(random_formula(rng, sig, 3, 4) for _ in range(rng.randrange(3)))
        phi = random_formula(rng, sig, 3, 4)
        if rng.randrange(3) == 0:
            gamma, phi = tuple(map(nn, gamma)), nn(phi)
        yield gamma, phi


def iff_chain(leaves):
    """The left-nested iff chain over alternating x0/x1 with this many leaves;
    classically valid exactly when ``leaves`` is a multiple of 4."""
    phi = Var(0)
    for k in range(1, leaves):
        phi = App("iff", (phi, Var(k % 2)))
    return phi


class TestRefuteFirst:
    """ipc_decide refutes classically, and after its step budget by a small
    Kripke model, before it finishes the sequent search; its verdicts are
    those of the bare search."""

    @pytest.mark.parametrize("budget", [provers._STEP_BUDGET, 1, 3])
    def test_agrees_with_bare_sequent_search(self, sig, monkeypatch, budget):
        # a small budget sends nearly every classically valid query through
        # the Kripke fallback and on into the unbounded search
        monkeypatch.setattr(provers, "_STEP_BUDGET", budget)
        queries = list(full_signature_queries(sig)) + list(bench_shaped_queries(sig, 1501, 600))
        verdicts = [ipc_decide(gamma, phi) for gamma, phi in queries]
        assert verdicts == [g4ip(gamma, phi) for gamma, phi in queries]
        assert 0 < sum(verdicts) < len(queries)

    def test_classical_refutation_skips_the_sequent_search(self, F):
        memo = len(provers._sequent_memo)
        assert not ipc_decide((F("imp(x3,x2)"),), F("and(x2,imp(x1,x3))"))
        assert len(provers._sequent_memo) == memo

    def test_foreign_connective_is_not_intuitionistic(self, F):
        # the query is coded before the classical pre-check, whose message
        # would name a classical connective
        box = App("box", (F("x0"),))
        for gamma, phi in [((), box), ((box,), F("x1")), ((F("x0"),), App("and", (F("x1"), box)))]:
            with pytest.raises(ValueError, match="connective box is not an intuitionistic connective"):
                ipc_decide(gamma, phi)

    def test_internal_falsum_node_is_foreign(self, F, monkeypatch):
        # refused while coding the query, before the classical pre-check,
        # which would name it a foreign classical connective
        monkeypatch.setattr(provers, "cpc_decide", None)
        for gamma, phi in [((), BOT), ((BOT,), F("x0")), ((), App("imp", (BOT, F("x0")))),
                           ((F("x0"),), App("or", (BOT, F("x1"))))]:
            for decide in (ipc_decide, g4ip):
                with pytest.raises(ValueError, match="connective _bot is not an intuitionistic connective"):
                    decide(gamma, phi)

    def test_variables_beyond_the_frame_skip_the_refuters(self, F, monkeypatch):
        monkeypatch.setattr(provers, "cpc_decide", None)
        monkeypatch.setattr(provers, "kripke_countermodel", None)
        queries = [((), F("or(x4,neg(x4))")), ((), F("imp(x7,x7)")),
                   ((F("x0"), F("imp(x0,x5)")), F("x5")), ((F("neg(neg(x6))"),), F("x6")),
                   ((), nn(F("or(x4,neg(x4))")))]
        verdicts = [ipc_decide(gamma, phi) for gamma, phi in queries]
        assert verdicts == [False, True, True, False, True]
        assert verdicts == [g4ip(gamma, phi) for gamma, phi in queries]

    @pytest.mark.parametrize("leaves", [8, 12, 16, 200])
    def test_iff_chain_is_refuted(self, leaves):
        # G4ip alone takes 174,429 steps at 16 leaves and overflows the
        # recursion limit at 200; a two-world model refutes every length
        phi = iff_chain(leaves)
        assert cpc_decide((), phi) == (leaves % 4 == 0)
        assert not ipc_decide((), phi)

    def test_overflow_without_a_countermodel_propagates(self):
        # provable, so no Kripke model refutes it, and too deep to prove
        phi = nn(iff_chain(196))
        assert kripke_countermodel((), phi, provers._FALLBACK_WORLDS) is None
        with pytest.raises(RecursionError):
            ipc_decide((), phi)
        # no budget is left behind for the bare search, which needs 4,180
        # steps on the 12-leaf chain
        assert not g4ip((), iff_chain(12))


class TestEquational:
    def test_reflexive(self, b2):
        assert equational_consequence([b2], (), Equation(Var(0), Var(0)))

    def test_premise_forces_top(self, b2, F):
        premise = Equation(F("x0"), F("imp(x0,x0)"))
        assert equational_consequence([b2], (premise,), Equation(F("x0"), F("imp(x1,x1)")))

    def test_double_negation_fails_on_chain(self, h3, F):
        assert not equational_consequence([h3], (), Equation(F("neg(neg(x0))"), F("x0")))

    def test_quasiidentity(self, b2, h3, F):
        top = Equation(F("imp(x0,x0)"), F("imp(x0,x0)"))
        assert quasiidentity_holds(b2, (), top)
        assert not quasiidentity_holds(h3, (), Equation(F("neg(neg(x0))"), F("x0")))
        assert quasiidentity_holds(h3, (), Equation(F("x0"), F("x0")))

    def test_multiple_algebras(self, b2, h3, F):
        eq = Equation(F("neg(neg(x0))"), F("x0"))
        assert equational_consequence([b2], (), eq)
        assert not equational_consequence([b2, h3], (), eq)


class TestLukasiewiczLogic:
    def test_implicative(self, l3, F):
        assert l3.proves((), F("imp(x0,x0)"))
        assert l3.proves((F("x0"), F("imp(x0,x1)")), F("x1"))

    def test_between_ipc_and_cpc_on_em(self, l3, F):
        assert not l3.proves((), F("or(x0,neg(x0))"))
        assert l3.proves((), F("neg(neg(imp(x0,x0)))"))

    def test_interderivable_but_not_iff_provable(self, l3, F):
        # the designated-value sets agree while the values differ at the middle
        phi, psi = F("x0"), F("neg(imp(x0,neg(x0)))")
        assert l3.interderivable(phi, psi)
        assert not l3.proves((), F("iff(x0,neg(imp(x0,neg(x0))))"))


# ---------------------------------------------------------------------------
# per-node memos against fresh computations
# ---------------------------------------------------------------------------

def ref_desugar(phi):
    """phi over imp/and/or, with neg a as imp(a, BOT) and iff(a, b) as
    and(imp(a, b), imp(b, a))."""
    if isinstance(phi, Var):
        return phi
    args = [ref_desugar(a) for a in phi.args]
    if phi.name == "neg":
        return App("imp", (args[0], BOT))
    if phi.name == "iff":
        a, b = args
        return App("and", (App("imp", (a, b)), App("imp", (b, a))))
    return App(phi.name, tuple(args))


def decode(i):
    """The formula behind prover id i, read off the prover's node tables,
    with BOT for falsum."""
    tag = provers._tag[i]
    if tag == provers._ATOM:
        return Var(provers._left[i])
    if tag == provers._FALSUM:
        return BOT
    name = {provers._AND: "and", provers._OR: "or", provers._IMP: "imp"}[tag]
    return App(name, (decode(provers._left[i]), decode(provers._right[i])))


def ref_truth(phi, v):
    if isinstance(phi, Var):
        return v[phi.index]
    args = [ref_truth(a, v) for a in phi.args]
    if phi.name == "neg":
        return not args[0]
    if phi.name == "imp":
        return not args[0] or args[1]
    if phi.name == "and":
        return args[0] and args[1]
    if phi.name == "or":
        return args[0] or args[1]
    if phi.name == "iff":
        return args[0] == args[1]
    raise ValueError(phi.name)


def truth_table_entails(gamma, phi):
    vars_ = sorted(set().union(*map(variables, gamma + (phi,))))
    for bits in itertools.product((False, True), repeat=len(vars_)):
        v = dict(zip(vars_, bits))
        if all(ref_truth(g, v) for g in gamma) and not ref_truth(phi, v):
            return False
    return True


class TestNodeMemos:
    def test_cpc_agrees_with_b2_inside_the_frame(self, sig, b2):
        M = Matrix(b2, frozenset({1}))
        universe = enumerate_formulas(sig, 3, 3)
        for phi in universe:
            assert cpc_decide((), phi) == matrix_satisfies(M, (), phi)
        rng = random.Random(5)
        for _ in range(2000):
            gamma = tuple(rng.choice(universe) for _ in range(rng.randrange(1, 3)))
            phi = rng.choice(universe)
            assert cpc_decide(gamma, phi) == matrix_satisfies(M, gamma, phi)

    def test_cpc_agrees_with_b2_outside_the_frame(self, sig, b2):
        # variables up to x9, so that some queries leave the memoised frame
        # x0..x{_FRAME_VARS - 1} and take the compact path, and formulas
        # memoised in one query meet out-of-frame ones in the next
        M = Matrix(b2, frozenset({1}))
        rng = random.Random(17)
        outside = 0
        for _ in range(400):
            gamma = tuple(random_formula(rng, sig, 10, 3) for _ in range(rng.randrange(3)))
            phi = random_formula(rng, sig, 10, 4)
            used = variables(phi).union(*map(variables, gamma))
            outside += max(used) >= _FRAME_VARS
            assert cpc_decide(gamma, phi) == matrix_satisfies(M, gamma, phi)
        assert 0 < outside < 400

    def test_cpc_agrees_with_truth_tables_outside_the_frame(self, sig):
        # beyond x0..x{_FRAME_VARS - 1} cpc runs on the kernel, as does
        # matrix_satisfies, so the oracle here is a truth table of its own
        # (conclusions inside and beyond the frame share one cpc_entailed call)
        rng = random.Random(19)
        outside = 0
        for _ in range(400):
            gamma = tuple(random_formula(rng, sig, rng.choice((4, 10)), 3) for _ in range(rng.randrange(3)))
            phis = [random_formula(rng, sig, rng.choice((4, 10)), 4) for _ in range(3)]
            expected = tuple(i for i, phi in enumerate(phis) if truth_table_entails(gamma, phi))
            assert provers.cpc_entailed(gamma, phis) == expected
            for i, phi in enumerate(phis):
                outside += max(variables(phi).union(*map(variables, gamma))) >= _FRAME_VARS
                assert cpc_decide(gamma, phi) == (i in expected)
        assert 200 < outside < 1000
        x9 = Var(9)
        assert cpc_decide((), App("or", (x9, App("neg", (x9,)))))
        assert cpc_decide((App("imp", (Var(0), x9)), Var(0)), x9)
        assert not cpc_decide((App("imp", (Var(0), x9)),), x9)

    @pytest.mark.parametrize("var", [0, _FRAME_VARS])
    def test_foreign_connectives_are_not_classical(self, F, var):
        # the same message inside the frame and beyond it
        x = Var(var)
        box = App("box", (x,))
        queries = [((), box, "box"), ((box,), x, "box"), ((x,), App("imp", (x, box)), "box"),
                   ((), BOT, "_bot"), ((BOT,), x, "_bot")]
        for gamma, phi, name in queries:
            with pytest.raises(ValueError, match=f"connective {name} is not a classical connective"):
                cpc_decide(gamma, phi)

    def test_desugar_matches_reference(self, sig):
        rng = random.Random(23)
        sample = enumerate_formulas(sig, 2, 3) + [random_formula(rng, sig, 10, 5) for _ in range(200)]
        for _ in range(2):  # the first round fills the memo, the second reads it
            for phi in sample:
                assert decode(_code(phi)) == ref_desugar(phi)

    @pytest.mark.parametrize("make_pair", [corpus.classical_pair, corpus.perturbed_pair])
    def test_translations_match_fresh_substitution(self, sig, make_pair, monkeypatch):
        universe = enumerate_formulas(sig, 3, 2)
        # the first round fills the memos and the second reads them; the
        # third fills a new pair's memos under a small MEMO_LIMIT, which
        # drops them again and again
        first = make_pair()
        for pair, limit in ((first, algebra.MEMO_LIMIT), (first, algebra.MEMO_LIMIT), (make_pair(), 50)):
            monkeypatch.setattr(algebra, "MEMO_LIMIT", limit)
            for phi in universe:
                fresh_tau = tuple(
                    Equation(substitute(l, {0: phi}), substitute(r, {0: phi})) for l, r in pair.tau
                )
                assert tau_translate(pair, phi) == fresh_tau
                for psi in universe:
                    fresh_delta = tuple(substitute(d, {0: phi, 1: psi}) for d in pair.delta)
                    assert delta_translate(pair, Equation(phi, psi)) == fresh_delta
            assert len(pair._tau_memo) <= limit and len(pair._delta_memo) <= limit

    def test_equation_hash_is_that_of_its_sides(self, F):
        eq = Equation(F("x0"), F("imp(x0,x1)"))
        assert hash(eq) == hash((F("x0"), F("imp(x0,x1)")))
        assert eq == Equation(F("x0"), F("imp(x0,x1)"))
        assert len({eq, Equation(F("x0"), F("imp(x0,x1)")), Equation(F("x1"), F("x0"))}) == 2


# ---------------------------------------------------------------------------
# formulas at the parse-time depth limit still decide
# ---------------------------------------------------------------------------

DEEP_SHAPES = [("neg", None), ("imp", "right"), ("imp", "left"), ("and", "left"),
               ("or", "right"), ("iff", "left")]


def nested_text(name, side, depth):
    """A formula of the given depth, nested through one connective, with x0
    innermost and x1 as every other argument."""
    text = "x0"
    for _ in range(depth - 1):
        if name == "neg":
            text = f"neg({text})"
        elif side == "left":
            text = f"{name}({text},x1)"
        else:
            text = f"{name}(x1,{text})"
    return text


@pytest.mark.parametrize("name,side", DEEP_SHAPES)
def test_depth_limit_formulas_decide(name, side, cpc, ipc, b2):
    phi = parse_formula(BUILTIN_SIGNATURE, nested_text(name, side, MAX_FORMULA_DEPTH))
    assert formula_depth(phi) == MAX_FORMULA_DEPTH
    classical = consequence(cpc, (), phi)
    intuitionistic = consequence(ipc, (), phi)
    model = kripke_countermodel((), phi, 2)
    assert classical == matrix_satisfies(Matrix(b2, frozenset({1})), (), phi)
    assert not intuitionistic or (classical and model is None)
