import itertools

import pytest

from aalogic import (
    AlgebraizingPair,
    InsALSentence,
    InsLALSentence,
    Matrix,
    class_equal,
    comorphism_plus_check,
    insal_satisfies,
    inslal_satisfies,
    institution_report,
    reduce_matrix,
)
from aalogic.syntax import enumerate_formulas
from aalogic import corpus


class TestClassEqual:
    def test_classical_double_negation(self, cpc, pair, F):
        assert class_equal(cpc, pair, F("x0"), F("neg(neg(x0))"))

    def test_reflexive(self, cpc, ipc, pair, F):
        for logic in (cpc, ipc):
            assert class_equal(logic, pair, F("imp(x0,x1)"), F("imp(x0,x1)"))

    def test_intuitionistic_double_negation(self, ipc, pair, F):
        assert not class_equal(ipc, pair, F("x0"), F("neg(neg(x0))"))


class TestInsAL:
    def test_trivial(self, b2, F):
        M = Matrix(b2, frozenset({1}))
        assert insal_satisfies(M, InsALSentence(frozenset({F("x0")}), F("x0")))

    def test_peirce_on_boolean(self, b2, peirce):
        M = Matrix(b2, frozenset({1}))
        assert insal_satisfies(M, InsALSentence(frozenset(), peirce))

    def test_peirce_fails_on_chain(self, h3, peirce):
        M = Matrix(h3, frozenset({2}))
        assert not insal_satisfies(M, InsALSentence(frozenset(), peirce))

    def test_rejects_non_reduced(self, h3, F):
        M = Matrix(h3, frozenset({1, 2}))
        with pytest.raises(ValueError):
            insal_satisfies(M, InsALSentence(frozenset(), F("x0")))

    def test_rejects_algebra_outside_quasivariety(self, ipc, F):
        M = Matrix(corpus.lukasiewicz3(), frozenset({2}))
        with pytest.raises(ValueError):
            insal_satisfies(M, InsALSentence(frozenset(), F("x0")), logic=ipc)

    def test_representative_independence(self, cpc, pair, b2, sig):
        # swapping any representative for a class-equal one leaves satisfaction
        # unchanged (exhaustive at two variables, depth two)
        M = Matrix(b2, frozenset({1}))
        universe = enumerate_formulas(sig, 2, 2)
        for phi, psi in itertools.combinations(universe, 2):
            if class_equal(cpc, pair, phi, psi):
                for gamma in (frozenset(), frozenset({universe[0]})):
                    assert insal_satisfies(M, InsALSentence(gamma, phi)) == insal_satisfies(
                        M, InsALSentence(gamma, psi)
                    )
                assert insal_satisfies(M, InsALSentence(frozenset({phi}), universe[1])) == (
                    insal_satisfies(M, InsALSentence(frozenset({psi}), universe[1]))
                )


class TestInsLAL:
    def test_theorem_class(self, b2, pair, F):
        assert inslal_satisfies(b2, InsLALSentence((), F("iff(x0,x0)")), pair)

    def test_peirce_fails_on_chain(self, h3, pair, peirce):
        assert not inslal_satisfies(h3, InsLALSentence((), peirce), pair)

    def test_double_negation_from_premise(self, b2, pair, F):
        assert inslal_satisfies(b2, InsLALSentence((F("x0"),), F("neg(neg(x0))")), pair)

    def test_pair_swap_invariance(self, b2, h3, pair, sig, F):
        split = AlgebraizingPair(
            [F("imp(x0,x1)"), F("imp(x1,x0)")], [(F("imp(x0,x0)"), F("x0"))]
        )
        universe = enumerate_formulas(sig, 2, 2)
        for A in (b2, h3):
            for phi in universe:
                q = InsLALSentence((), phi)
                assert inslal_satisfies(A, q, pair) == inslal_satisfies(A, q, split)
            for gamma, phi in itertools.islice(itertools.product(universe, universe), 0, 400, 11):
                q = InsLALSentence((gamma,), phi)
                assert inslal_satisfies(A, q, pair) == inslal_satisfies(A, q, split)

    def test_representative_independence(self, cpc, pair, b2, sig):
        universe = enumerate_formulas(sig, 2, 2)
        for phi, psi in itertools.combinations(universe, 2):
            if class_equal(cpc, pair, phi, psi):
                assert inslal_satisfies(b2, InsLALSentence((), phi), pair) == inslal_satisfies(
                    b2, InsLALSentence((), psi), pair
                )


class TestComorphismPlus:
    def test_true_valuation(self, b2, pair, F):
        M = Matrix(b2, frozenset({1}))
        assert comorphism_plus_check(M, pair, F("x0"), {0: 1})

    def test_false_valuation(self, b2, pair, F):
        M = Matrix(b2, frozenset({1}))
        assert comorphism_plus_check(M, pair, F("x0"), {0: 0})

    def test_reduced_matrices_always_agree(self, pair, sig, h3, chain4, b4):
        for A, F_ in [(h3, {1, 2}), (chain4, {2, 3}), (b4, {1, 3})]:
            B, image = reduce_matrix(A, F_)
            M = Matrix(B, image)
            for phi in enumerate_formulas(sig, 2, 2):
                for v0 in B.elements():
                    for v1 in B.elements():
                        assert comorphism_plus_check(M, pair, phi, {0: v0, 1: v1})

    def test_non_reduced_violation_found(self, h3, pair, sig):
        M = Matrix(h3, frozenset({1, 2}))
        violations = [
            (phi, v0)
            for phi in enumerate_formulas(sig, 1, 2)
            for v0 in h3.elements()
            if not comorphism_plus_check(M, pair, phi, {0: v0})
        ]
        assert violations
        from aalogic import Var

        assert (Var(0), 1) in violations


class TestReports:
    def test_clean_corpus_passes(self):
        c = corpus.classical_corpus()
        for kind in ("If", "InsAL", "InsLAL"):
            report = institution_report(kind, c, samples=400, seed=3)
            assert report.passed and report.checked == 400

    def test_equal_corpus_algebras_are_one_instance(self):
        # equal algebras share their memos only when they are one object
        c = corpus.classical_corpus()
        algebras = [M.algebra for group in (c.matrices, c.reduced_matrices) for Ms in group.values() for M in Ms]
        algebras += c.algebras["ipc"]
        by_value = {}
        for A in algebras:
            assert by_value.setdefault(A, A) is A
        assert len(by_value) == len(c.algebras["ipc"]) == 8

    def test_identity_only_corpus(self):
        from aalogic.institutions import Corpus
        from aalogic.semantics import identity_morphism

        ipc = corpus.ipc_logic()
        c = Corpus(
            logics={"ipc": ipc},
            pairs={"ipc": corpus.classical_pair()},
            morphisms=[("id", identity_morphism(ipc))],
            matrices={"ipc": [Matrix(corpus.h3(), frozenset({2}))]},
            reduced_matrices={"ipc": [Matrix(corpus.h3(), frozenset({2}))]},
            algebras={"ipc": [corpus.h3()]},
            contexts=[("id", corpus.identity_context())],
        )
        for kind in ("If", "InsAL", "InsLAL"):
            assert institution_report(kind, c, samples=200, seed=1).passed

    def test_corrupted_reduct_reported(self):
        report = institution_report("If", corpus.corrupted_reduct_corpus(), samples=2000, seed=3)
        assert not report.passed
        witness = report.violations[0]
        assert witness["morphism"] == "inclusion" and "phi" in witness

    def test_corrupted_adjoint_filter_reported(self):
        report = institution_report("InsAL", corpus.corrupted_adjoint_filter_corpus(), samples=2000, seed=3)
        assert not report.passed
        assert report.violations[0]["context"] == "classical"

    def test_corrupted_adjoint_algebra_reported(self):
        report = institution_report("InsLAL", corpus.corrupted_adjoint_algebra_corpus(), samples=2000, seed=3)
        assert not report.passed
        assert report.violations[0]["context"] == "classical"

    def test_deterministic(self):
        c = corpus.classical_corpus()
        a = institution_report("If", c, samples=300, seed=11)
        b = institution_report("If", c, samples=300, seed=11)
        assert a.to_json() == b.to_json()

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            institution_report("bogus", corpus.classical_corpus())

    def test_corpus_file(self):
        c = corpus.load_corpus("data/classical_corpus.json")
        assert set(c.logics) == {"ipc", "cpc"}
        assert [name for name, _ in c.contexts] == ["classical"]
        for kind in ("If", "InsAL", "InsLAL"):
            assert institution_report(kind, c, samples=150, seed=2).passed

    def test_report_rendering(self):
        c = corpus.classical_corpus()
        r = institution_report("If", c, samples=60, seed=0)
        assert "overall: pass" in r.to_text()
        assert r.to_json()["passed"] is True
