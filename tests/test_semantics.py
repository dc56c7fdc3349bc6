import heapq
import random

import pytest

from aalogic import (
    FlexibleMorphism,
    LogicMorphism,
    LogicSpec,
    Matrix,
    Var,
    consequence,
    is_reduced,
    mod_translate,
    reduct,
    satisfaction_condition_check,
    substitute,
)
from aalogic.corpus import resolve_logic
from aalogic.semantics import identity_morphism, matrix_satisfies, matrix_violation
from aalogic.syntax import App, enumerate_formulas, random_formula
from aalogic import corpus


@pytest.fixture(scope="module")
def b2_matrix(b2):
    return Matrix(b2, frozenset({1}))


@pytest.fixture(scope="module")
def b2_logic(sig, b2_matrix):
    return LogicSpec.from_matrices(sig, [b2_matrix], implication="imp")


class TestConsequence:
    def test_reflexivity(self, b2_logic, F):
        assert consequence(b2_logic, (F("x0"),), F("x0"))

    def test_modus_ponens(self, b2_logic, F):
        assert consequence(b2_logic, (F("x0"), F("imp(x0,x1)")), F("x1"))

    def test_nothing_proves_a_variable(self, b2_logic, F):
        assert not consequence(b2_logic, (), F("x0"))

    def test_signature_checked(self, b2_logic):
        with pytest.raises(ValueError):
            consequence(b2_logic, (), App("box", (Var(0),)))

    def test_builtins_delegate(self, cpc, ipc, peirce):
        assert consequence(cpc, (), peirce)
        assert not consequence(ipc, (), peirce)

    def test_exact_over_matrix_family(self, sig, h3, F):
        logic = LogicSpec.from_matrices(sig, [Matrix(h3, frozenset({2}))])
        assert not consequence(logic, (), F("or(x0,neg(x0))"))
        assert consequence(logic, (F("x0"), F("x1")), F("and(x0,x1)"))


@pytest.fixture(scope="module")
def logics(sig, h3):
    return [
        LogicSpec.from_matrices(sig, [Matrix(h3, frozenset({2}))]),
        corpus.l3_logic(),
    ]


class TestTarskian:
    """Randomized bounded instances of the closure-relation laws."""

    def _draw(self, rng, sig, count):
        return tuple(random_formula(rng, sig, 2, 3) for _ in range(count))

    def test_reflexivity(self, logics, sig):
        rng = random.Random(11)
        for logic in logics:
            for _ in range(60):
                gamma = self._draw(rng, sig, rng.randrange(1, 4))
                assert logic.proves(gamma, gamma[rng.randrange(len(gamma))])

    def test_monotonicity(self, logics, sig):
        rng = random.Random(12)
        for logic in logics:
            for _ in range(60):
                gamma = self._draw(rng, sig, 2)
                extra = self._draw(rng, sig, 2)
                phi = self._draw(rng, sig, 1)[0]
                if logic.proves(gamma, phi):
                    assert logic.proves(gamma + extra, phi)

    def test_cut(self, logics, sig):
        rng = random.Random(13)
        for logic in logics:
            for _ in range(40):
                gamma = self._draw(rng, sig, 2)
                delta = self._draw(rng, sig, 2)
                phi = self._draw(rng, sig, 1)[0]
                if logic.proves(gamma, phi) and all(logic.proves(delta, g) for g in gamma):
                    assert logic.proves(delta, phi)

    def test_structurality(self, logics, sig):
        rng = random.Random(14)
        for logic in logics:
            for _ in range(40):
                gamma = self._draw(rng, sig, 2)
                phi = self._draw(rng, sig, 1)[0]
                sigma = {i: random_formula(rng, sig, 2, 2) for i in range(2)}
                if logic.proves(gamma, phi):
                    assert logic.proves(
                        tuple(substitute(g, sigma) for g in gamma), substitute(phi, sigma)
                    )


class TestReduct:
    def test_identity_reduct_is_table_for_table(self, sig, h3):
        assert reduct(FlexibleMorphism.identity(sig), h3) == h3

    def test_double_negation_reduct_on_chain(self, sig, h3):
        assignment = FlexibleMorphism.identity(sig).assignment
        assignment["neg"] = App("neg", (App("neg", (Var(0),)),))
        h = FlexibleMorphism(sig, sig, assignment)
        assert reduct(h, h3).tables["neg"] == (0, 2, 2)

    def test_preserves_carrier_size(self, sig, h3, b4):
        h = FlexibleMorphism.identity(sig)
        for A in (h3, b4):
            assert reduct(h, A).size == A.size

    def test_signature_mismatch(self, sig2, h3):
        with pytest.raises(ValueError):
            reduct(FlexibleMorphism.identity(sig2), h3)

    def test_contravariant_functoriality(self, sig, h3, b4):
        from aalogic import compose_morphisms

        f_assign = FlexibleMorphism.identity(sig).assignment
        f_assign["neg"] = App("neg", (App("neg", (App("neg", (Var(0),)),)),))
        f = FlexibleMorphism(sig, sig, f_assign)
        g_assign = FlexibleMorphism.identity(sig).assignment
        g_assign["and"] = App("and", (Var(1), Var(0)))
        g = FlexibleMorphism(sig, sig, g_assign)
        for M in (h3, b4, corpus.lukasiewicz3()):
            assert reduct(compose_morphisms(g, f), M) == reduct(f, reduct(g, M))


class TestMorphismHashing:
    def test_equal_morphisms_hash_equal(self, ipc, cpc):
        assert identity_morphism(ipc) == identity_morphism(ipc)
        assert hash(identity_morphism(ipc)) == hash(identity_morphism(ipc))
        assert hash(_triple_neg(cpc)) == hash(_triple_neg(cpc))
        assert identity_morphism(cpc) != _triple_neg(cpc)

    def test_a_set_of_the_corpus_morphisms_builds(self):
        morphisms = [m for _, m in corpus.classical_corpus().morphisms]
        again = {m for _, m in corpus.classical_corpus().morphisms}
        assert len(again) == len(morphisms) and all(m in again for m in morphisms)


def _negneg_on_neg(cpc):
    assignment = FlexibleMorphism.identity(cpc.signature).assignment
    assignment["neg"] = App("neg", (App("neg", (Var(0),)),))
    return LogicMorphism(cpc, cpc, FlexibleMorphism(cpc.signature, cpc.signature, assignment))


def _triple_neg(logic):
    assignment = FlexibleMorphism.identity(logic.signature).assignment
    assignment["neg"] = App("neg", (App("neg", (App("neg", (Var(0),)),)),))
    return LogicMorphism(logic, logic, FlexibleMorphism(logic.signature, logic.signature, assignment))


class TestModTranslate:
    def test_identity(self, cpc, b2_matrix):
        assert mod_translate(identity_morphism(cpc), b2_matrix) == b2_matrix

    def test_inclusion_is_identity_on_algebras(self, ipc, cpc, b2_matrix):
        inclusion = LogicMorphism(ipc, cpc, FlexibleMorphism.identity(cpc.signature))
        assert mod_translate(inclusion, b2_matrix) == b2_matrix

    def test_negneg_reduct_without_check(self, cpc, b2_matrix):
        assert reduct(_negneg_on_neg(cpc).morphism, b2_matrix.algebra).tables["neg"] == (0, 1)

    def test_negneg_filter_check_reports_witness(self, cpc, b2_matrix):
        # replacing one negation by two does not preserve consequence, and the
        # bounded filter check notices
        with pytest.raises(ValueError, match="not closed"):
            mod_translate(_negneg_on_neg(cpc), b2_matrix)

    def test_triple_neg_passes_check(self, cpc, b2_matrix):
        translated = mod_translate(_triple_neg(cpc), b2_matrix)
        assert translated.algebra.tables["neg"] == (1, 0)

    def test_preservation_probe(self, cpc):
        assert _negneg_on_neg(cpc).preserves_consequence() is not None
        assert _triple_neg(cpc).preserves_consequence() is None


# The two hand-counted loops that the shared bounded-sequent generator
# replaced, kept (with their bounds as parameters) as oracles, and moved to
# its order: by the sum of the premise's position (0 for none, i + 1 for
# formula i) and the conclusion's, the conclusion ascending within a sum.

def ref_sequent_order(universe):
    """The sequents lazily: one stream per conclusion, ascending in the
    premise, merged on (sum, conclusion)."""
    gammas = [()] + [(g,) for g in universe]

    def by_premise(c):
        return (((p + c, c), p) for p in range(len(gammas)))

    for (_, c), p in heapq.merge(*map(by_premise, range(len(universe)))):
        yield gammas[p], universe[c]


def ref_preserves_consequence(self, num_vars, depth, limit):
    universe = enumerate_formulas(self.source.signature, num_vars, depth)
    count = 0
    for gamma, phi in ref_sequent_order(universe):
        if count >= limit:
            return None
        count += 1
        if self.source.proves(gamma, phi):
            image_gamma = tuple(self.translate(g) for g in gamma)
            if not self.target.proves(image_gamma, self.translate(phi)):
                return (gamma, phi)
    return None


def ref_filter_check(logic, M, num_vars, depth, samples):
    universe = enumerate_formulas(logic.signature, num_vars, depth)
    count = 0
    for gamma, phi in ref_sequent_order(universe):
        if count >= samples:
            return None
        if logic.proves(gamma, phi):
            count += 1
            v = matrix_violation(M, gamma, phi)
            if v is not None:
                return gamma, phi, v
    return None


class TestBoundedChecksAgainstReference:
    def morphisms(self, cpc):
        return [h for _, h in corpus.classical_corpus().morphisms] + [_negneg_on_neg(cpc), _triple_neg(cpc)]

    def test_preserves_consequence(self, cpc):
        verdicts = []
        for h in self.morphisms(cpc):
            violation = h.preserves_consequence()
            assert violation == ref_preserves_consequence(h, 2, 3, 400)
            verdicts.append(violation is None)
        assert False in verdicts and True in verdicts

    def test_mod_translate_check(self, cpc):
        matrices = corpus.classical_corpus().matrices
        raised = 0
        for h in self.morphisms(cpc):
            for M in matrices[h.target.name]:
                witness = ref_filter_check(h.source, Matrix(reduct(h.morphism, M.algebra), M.filter), 2, 2, 60)
                if witness is None:
                    mod_translate(h, M)
                    continue
                gamma, phi, v = witness
                expected = (f"filter is not closed under source consequences: {list(gamma)} |- {phi!r} "
                            f"fails at valuation {v}")
                with pytest.raises(ValueError) as err:
                    mod_translate(h, M)
                assert str(err.value) == expected
                raised += 1
        assert raised


class TestSatisfactionCondition:
    def test_identity_trivial(self, cpc, b2_matrix, F):
        h = identity_morphism(cpc)
        assert satisfaction_condition_check(h, b2_matrix, (F("x0"),), F("x0"))

    def test_negneg_morphism_example(self, cpc, b2_matrix, F):
        h = _negneg_on_neg(cpc)
        assert satisfaction_condition_check(h, b2_matrix, (F("x0"),), F("x0"))

    def test_randomized_always_true(self, sig):
        rng = random.Random(20260809)
        all_corpus = corpus.classical_corpus()
        pool = [
            (h, M)
            for _, h in all_corpus.morphisms
            for M in all_corpus.matrices[h.target.name]
        ]
        for i in range(600):
            h, M = pool[i % len(pool)]
            gamma = tuple(random_formula(rng, sig, 2, 3) for _ in range(rng.randrange(3)))
            phi = random_formula(rng, sig, 2, 3)
            assert satisfaction_condition_check(h, M, gamma, phi)


class TestReducedPreserved:
    def test_translation_of_reduced_stays_reduced(self, cpc):
        all_corpus = corpus.classical_corpus()
        iso_class_endo = _triple_neg(cpc)
        for M in all_corpus.reduced_matrices["ipc"]:
            if M.algebra.signature == cpc.signature:
                translated = Matrix(reduct(iso_class_endo.morphism, M.algebra), M.filter)
                assert is_reduced(translated.algebra, translated.filter)


class TestLogicFiles:
    def test_matrix_logic_file(self, F):
        logic = resolve_logic("data/h3_logic.json")
        assert logic.kind == "matrix"
        assert not logic.proves((), F("or(x0,neg(x0))"))
        assert logic.proves((F("x0"),), F("neg(neg(x0))"))

    def test_lukasiewicz_file_matches_builder(self, F, l3):
        logic = resolve_logic("data/l3_logic.json")
        assert logic.matrices == l3.matrices

    def test_resolve_logic(self, cpc, ipc):
        assert resolve_logic("cpc") == cpc
        assert resolve_logic("ipc") == ipc
        assert resolve_logic("h3_logic.json", "data") == resolve_logic("data/h3_logic.json")
        assert resolve_logic("data/l3_logic.json").matrices == resolve_logic("data/l3_logic.json").matrices

    def test_matrix_satisfies_witness(self, b2_matrix, F):
        assert matrix_satisfies(b2_matrix, (F("x0"),), F("x0"))
        assert not matrix_satisfies(b2_matrix, (), F("x0"))
