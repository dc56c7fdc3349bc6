import itertools
import random
import re

import pytest

from aalogic import (
    BUILTIN_SIGNATURE,
    Congruence,
    Equation,
    FiniteAlgebra,
    FlexibleMorphism,
    LogicSpec,
    Matrix,
    Signature,
    all_filters,
    congruence_generated,
    equational_consequence,
    evaluate,
    filter_closure,
    homomorphisms,
    is_reduced,
    leibniz,
    leibniz_bruteforce,
    quasiidentity_holds,
    quotient,
    qv_membership,
    reduce_matrix,
    reduct,
)
from aalogic import algebra, glivenko
from aalogic.algebra import (
    all_congruences,
    compatible,
    find_isomorphism,
    frame_valuation,
    is_congruence,
    is_filter,
    theorem_values,
    unary_polynomials,
    value_vector,
)
from aalogic.corpus import load_algebra
from aalogic.semantics import matrix_satisfies, matrix_violation
from aalogic.syntax import enumerate_formulas, random_formula, sorted_variables, variables
from aalogic import corpus


class TestEvaluate:
    def test_implication_table(self, b2, F):
        assert evaluate(b2, F("imp(x0,x1)"), {0: 1, 1: 0}) == 0
        assert evaluate(b2, F("imp(x0,x1)"), {0: 0, 1: 0}) == 1

    def test_variable(self, h3, F):
        for k in range(3):
            assert evaluate(h3, F("x0"), {0: k}) == k

    def test_double_negation_on_chain(self, h3, F):
        assert evaluate(h3, F("neg(neg(x0))"), {0: 1}) == 2

    def test_missing_binding(self, b2, F):
        with pytest.raises(ValueError):
            evaluate(b2, F("imp(x0,x1)"), {0: 1})

    def test_unknown_connective(self, F):
        from aalogic import Signature

        neg_only = FiniteAlgebra(Signature([("neg", 1)]), 2, {"neg": [1, 0]})
        with pytest.raises(ValueError):
            evaluate(neg_only, F("imp(x0,x1)"), {0: 0, 1: 0})


class TestTableLengths:
    @pytest.mark.parametrize("arity, expected",
                             [(1, "3"), (3, "27"), (4, "81"), (5, "3**5"), (10**100, "3**1" + "0" * 100)])
    def test_a_length_mismatch_names_the_expected_length(self, arity, expected):
        # size**arity is not built once the arity passes the length's bit
        # length (4 for 9 entries): at 10**100 it would not finish
        with pytest.raises(ValueError, match=rf"^table for op has 9 entries, expected {re.escape(expected)}$"):
            FiniteAlgebra(Signature([("op", arity)]), 3, {"op": [0] * 9})

    def test_one_element_tables_of_any_arity(self):
        for arity in (0, 1, 5, 10**100):
            assert FiniteAlgebra(Signature([("op", arity)]), 1, {"op": [0]}).tables == {"op": (0,)}


class TestIntegerFields:
    # bool is a subclass of int, and 2.0 == 2: both were once read as numbers
    NOT_INTEGERS = [True, False, 1.5, 2.0, "1", None]

    @pytest.mark.parametrize("value", NOT_INTEGERS)
    def test_carrier_size(self, value):
        with pytest.raises(ValueError, match=f"^carrier size is not an integer: {re.escape(repr(value))}$"):
            FiniteAlgebra(Signature([("neg", 1)]), value, {"neg": [1, 0]})

    @pytest.mark.parametrize("value", NOT_INTEGERS)
    def test_table_cell(self, b2, value):
        data = b2.to_json()
        data["tables"]["neg"] = [value, 0]
        with pytest.raises(ValueError, match=f"^table cell of neg is not an integer: {re.escape(repr(value))}$"):
            FiniteAlgebra.from_json(data)

    @pytest.mark.parametrize("value", NOT_INTEGERS)
    def test_filter_element(self, b2, value):
        # checked before a set is built, where True would merge into 1
        message = f"^filter element is not an integer: {re.escape(repr(value))}$"
        for build in (lambda F: Matrix(b2, F), lambda F: leibniz(b2, F), lambda F: leibniz_bruteforce(b2, F)):
            with pytest.raises(ValueError, match=message):
                build([1, value])


class TestHomomorphisms:
    def test_b2_endomorphisms(self, b2):
        assert homomorphisms(b2, b2) == [(0, 1)]

    def test_identity_always_present(self, b2, h3, b4, chain4):
        for A in (b2, h3, b4, chain4):
            assert tuple(range(A.size)) in homomorphisms(A, A)

    def test_h3_to_b2_unique(self, h3, b2):
        assert homomorphisms(h3, b2) == [(0, 1, 1)]

    def test_signature_mismatch(self, b2):
        from aalogic import Signature

        other = FiniteAlgebra(Signature([("neg", 1)]), 2, {"neg": [1, 0]})
        with pytest.raises(ValueError):
            homomorphisms(b2, other)

    def test_commutes_with_evaluate(self, h3, b2, sig):
        rng = random.Random(7)
        homs = homomorphisms(h3, b2)
        formulas = enumerate_formulas(sig, 2, 3)
        for h in homs:
            for _ in range(80):
                phi = formulas[rng.randrange(len(formulas))]
                v = {i: rng.randrange(3) for i in variables(phi)}
                pushed = {i: h[x] for i, x in v.items()}
                assert h[evaluate(h3, phi, v)] == evaluate(b2, phi, pushed)


def brute_is_homomorphism(A, B, f):
    return all(
        f[A.op(name, *args)] == B.op(name, *(f[a] for a in args))
        for name, arity in A.signature.connectives
        for args in itertools.product(A.elements(), repeat=arity)
    )


class TestIsHomomorphism:
    def test_matches_the_definition_on_every_map(self):
        small = [A for _, A in corpus.heyting_corpus(4) + corpus.boolean_corpus()] + [corpus.lukasiewicz3()]
        for A in small:
            for B in small:
                if B.size ** A.size > 256:
                    continue
                for f in itertools.product(B.elements(), repeat=A.size):
                    assert algebra.is_homomorphism(A, B, f) == brute_is_homomorphism(A, B, f)

    def test_tampered_unit(self):
        from aalogic.glivenko import regular_elements, unit_map

        for _, H in corpus.heyting_corpus():
            B, _ = regular_elements(H)
            unit = unit_map(H)
            assert algebra.is_homomorphism(H, B, unit)
            for a in H.elements():
                for b in B.elements():
                    tampered = unit[:a] + (b,) + unit[a + 1:]
                    assert algebra.is_homomorphism(H, B, tampered) == brute_is_homomorphism(H, B, tampered)
                    assert algebra.is_homomorphism(H, B, tampered) == (b == unit[a])


# ---------------------------------------------------------------------------
# the backtracking homomorphism search and the clone built from translations,
# against the brute-force loops they replaced, kept here verbatim as oracles
# ---------------------------------------------------------------------------

def ref_homomorphisms(A, B):
    return [h for h in itertools.product(B.elements(), repeat=A.size) if algebra.is_homomorphism(A, B, h)]


def ref_unary_polynomials(A):
    identity = tuple(range(A.size))
    funcs = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for f in frontier:
            for name, arity in A.signature.connectives:
                if arity == 0:
                    continue
                for pos in range(arity):
                    for consts in itertools.product(A.elements(), repeat=arity - 1):
                        g = tuple(
                            A.op(name, *(consts[:pos] + (f[x],) + consts[pos:]))
                            for x in A.elements()
                        )
                        if g not in funcs:
                            funcs.add(g)
                            new.append(g)
        frontier = new
    return funcs


# a nullary, a unary, a binary and a ternary connective
SEARCH_SIGNATURE = Signature([("c", 0), ("u", 1), ("b", 2), ("t", 3)])


def narrow_algebra(rng, size):
    """A random algebra over SEARCH_SIGNATURE whose tables take values in a
    random subset, so that many maps into and out of it are homomorphisms."""
    values = rng.sample(range(size), rng.randint(1, size))
    return FiniteAlgebra(SEARCH_SIGNATURE, size, {
        name: [rng.choice(values) for _ in range(size ** arity)] for name, arity in SEARCH_SIGNATURE.connectives
    })


def search_pairs():
    """Every same-signature pair of the Heyting and Boolean corpora and L3,
    then every pair of seeded random algebras of sizes 1-4."""
    bundled = [A for _, A in corpus.heyting_corpus() + corpus.boolean_corpus()] + [corpus.lukasiewicz3()]
    rng = random.Random(2801)
    drawn = [narrow_algebra(rng, size) for size in range(1, 5) for _ in range(6)]
    return [(A, B) for pool in (bundled, drawn) for A in pool for B in pool if A.signature == B.signature]


class TestSearchAgainstBruteForce:
    def test_homomorphisms_in_order_and_the_first_isomorphism(self):
        several = isomorphic = 0
        for A, B in search_pairs():
            expected = ref_homomorphisms(A, B)
            assert homomorphisms(A, B) == expected
            bijections = [h for h in expected if len(set(h)) == A.size == B.size]
            assert find_isomorphism(A, B) == (bijections[0] if bijections else None)
            several += len(expected) > 1
            isomorphic += bool(bijections)
        assert several > 100  # the order is tested, not only single maps
        assert isomorphic >= 14 + 24  # at least every algebra with itself

    def test_unary_polynomials(self):
        rng = random.Random(2802)
        algebras = [A for _, A in corpus.heyting_corpus() + corpus.boolean_corpus()] + [corpus.lukasiewicz3()]
        algebras += [random_algebra(rng, sig, rng.randint(1, 4))
                     for sig in GENERATOR_SIGNATURES + [SEARCH_SIGNATURE] for _ in range(20)]
        for A in algebras:
            assert unary_polynomials(A) == ref_unary_polynomials(A)

    def test_adjoint_of_the_nine_element_chain(self):
        # the brute-force search tried 4**9 maps into the four-element Boolean algebra
        assert glivenko.find_adjoint_report(corpus.heyting_chain(9)).passed


class TestCongruences:
    def test_empty_generates_identity(self, h3):
        assert congruence_generated(h3, []).is_identity()

    def test_all_pairs_generate_total(self, h3):
        pairs = [(i, j) for i in range(3) for j in range(3)]
        assert congruence_generated(h3, pairs).num_blocks() == 1

    def test_h3_collapse_top(self, h3):
        theta = congruence_generated(h3, [(1, 2)])
        assert theta.blocks() == [[0], [1, 2]]

    def test_out_of_range(self, h3):
        with pytest.raises(ValueError):
            congruence_generated(h3, [(0, 5)])

    @pytest.mark.parametrize("rep", [(0, 5), (0, -1), (1, 1), (0, 0, 1), (0,)])
    def test_not_a_least_representative_map(self, rep):
        # an index outside the map is refused before it is read
        with pytest.raises(ValueError, match="not a least-representative map"):
            Congruence(2, rep)

    def test_generated_is_least(self, h3, b4, chain4):
        # the generated congruence is contained in every congruence holding the pairs
        for A in (h3, b4, chain4):
            congs = all_congruences(A)
            for a in range(A.size):
                for b in range(a + 1, A.size):
                    gen = congruence_generated(A, [(a, b)])
                    for theta in congs:
                        if theta.related(a, b):
                            assert theta.contains(gen)

    def test_quotient_identity_is_isomorphic(self, h3):
        Q, proj = quotient(h3, Congruence.identity(3))
        assert Q == h3 and proj == (0, 1, 2)

    def test_quotient_h3_is_b2(self, h3, b2):
        Q, proj = quotient(h3, Congruence(3, (0, 1, 1)))
        assert find_isomorphism(Q, b2) is not None
        assert proj == (0, 1, 1)

    def test_quotient_total(self, h3):
        Q, _ = quotient(h3, Congruence(3, (0, 0, 0)))
        assert Q.size == 1

    def test_quotient_rejects_incompatible(self, h3):
        with pytest.raises(ValueError):
            quotient(h3, Congruence.from_pairs(3, [(0, 1)]))

    def test_quotient_identifies_exactly_generated_pairs(self, h3, b4):
        for A in (h3, b4):
            for a in range(A.size):
                for b in range(a + 1, A.size):
                    theta = congruence_generated(A, [(a, b)])
                    _, proj = quotient(A, theta)
                    for x in range(A.size):
                        for y in range(A.size):
                            assert (proj[x] == proj[y]) == theta.related(x, y)


class TestLeibniz:
    def test_b2_singleton_filter(self, b2):
        assert leibniz(b2, {1}).is_identity()

    def test_h3_top_filter(self, h3):
        assert leibniz(h3, {2}).is_identity()

    def test_h3_upper_filter(self, h3):
        assert leibniz(h3, {1, 2}).blocks() == [[0], [1, 2]]

    def test_out_of_range(self, h3):
        with pytest.raises(ValueError):
            leibniz(h3, {7})

    @pytest.mark.parametrize("F", [{7}, {-1}, {0, 3}])
    def test_oracle_out_of_range(self, h3, F):
        with pytest.raises(ValueError, match="filter element out of range"):
            leibniz_bruteforce(h3, F)

    def test_agrees_with_oracle_on_small_corpus(self, monkeypatch, b2, h3):
        # fresh copies, so that the first pass starts from an empty memo
        algebras = [FiniteAlgebra.from_json(A.to_json())
                    for A in (b2, h3, corpus.lukasiewicz3(), corpus.heyting_chain(4))]
        cases = [(A, F) for A in algebras for k in range(A.size + 1)
                 for F in itertools.combinations(range(A.size), k)]
        expected = [leibniz_bruteforce(A, F) for A, F in cases]  # cold
        assert [leibniz(A, F) for A, F in cases] == expected
        assert [leibniz(A, F) for A, F in cases] == expected  # warm
        assert [leibniz_bruteforce(A, F) for A, F in cases] == expected
        monkeypatch.setattr(algebra, "MEMO_LIMIT", 1)
        for A in algebras:
            A._memo.clear()
        for (A, F), theta in zip(cases, expected):  # each call drops what the other stored
            assert leibniz(A, F) == leibniz_bruteforce(A, F) == theta
            assert len(A._memo) <= 1

    def test_mutating_the_returned_clone_does_not_change_leibniz(self, h3):
        A = FiniteAlgebra.from_json(h3.to_json())
        subsets = [F for k in range(A.size + 1) for F in itertools.combinations(range(A.size), k)]
        clone = unary_polynomials(A)
        unary_polynomials(A).clear()  # before the memo holds the sorted clone
        expected = [leibniz_bruteforce(A, F) for F in subsets]
        assert [leibniz(A, F) for F in subsets] == expected
        polys = unary_polynomials(A)  # and after
        polys.clear()
        polys.add((0, 1, 0))  # would split the block {1, 2} of the filter {1, 2}
        assert [leibniz(A, F) for F in subsets] == expected
        assert unary_polynomials(A) == clone

    def test_result_is_compatible_congruence(self, h3, b4):
        for A in (h3, b4):
            for k in range(A.size + 1):
                for F in itertools.combinations(range(A.size), k):
                    theta = leibniz(A, F)
                    assert is_congruence(A, theta)
                    assert compatible(theta, F)

    def test_unary_polynomials_contain_identity_and_tables(self, h3):
        polys = unary_polynomials(h3)
        assert tuple(range(3)) in polys
        assert tuple(h3.tables["neg"]) in polys

    def test_is_reduced(self, b2, h3):
        assert is_reduced(b2, {1})
        assert is_reduced(h3, {2})
        assert not is_reduced(h3, {1, 2})

    def test_reduce_matrix(self, b2, h3):
        A, F = reduce_matrix(b2, {1})
        assert A == b2 and F == {1}
        A, F = reduce_matrix(h3, {1, 2})
        assert find_isomorphism(A, b2) is not None and F == {1}
        one = corpus.heyting_chain(1)
        A, F = reduce_matrix(one, {0})
        assert A.size == 1 and F == {0}
        assert is_reduced(A, F)


class TestFilters:
    def test_closure_seed_on_chain(self, ipc, h3):
        assert filter_closure(ipc, h3, {1}) == {1, 2}

    def test_closure_of_nothing_is_theorem_values(self, cpc, b2):
        assert filter_closure(cpc, b2, ()) == {1}

    def test_closure_of_carrier(self, ipc, h3):
        assert filter_closure(ipc, h3, range(3)) == {0, 1, 2}

    def test_not_implicative_rejected(self, b2):
        from aalogic import LogicSpec, Matrix

        no_imp = LogicSpec.from_matrices(
            b2.signature, [Matrix(b2, frozenset({1}))], implication=None
        )
        with pytest.raises(ValueError):
            filter_closure(no_imp, b2, {1})

    def test_all_filters_b2(self, cpc, b2):
        assert all_filters(cpc, b2) == [frozenset({1}), frozenset({0, 1})]

    def test_all_filters_h3(self, ipc, h3):
        assert all_filters(ipc, h3) == [
            frozenset({2}),
            frozenset({1, 2}),
            frozenset({0, 1, 2}),
        ]

    def test_carrier_always_a_filter(self, ipc, cpc, h3, b4):
        assert frozenset(range(3)) in all_filters(ipc, h3)
        assert frozenset(range(4)) in all_filters(cpc, b4)

    def test_filters_closed_under_intersection(self, ipc, cpc, h3, b4, chain4):
        for logic, A in [(ipc, h3), (cpc, b4), (ipc, chain4)]:
            filters = all_filters(logic, A)
            for F, G in itertools.product(filters, repeat=2):
                assert F & G in filters

    def test_order_compatible_with_inclusion(self, ipc, chain4):
        filters = all_filters(ipc, chain4)
        for i, F in enumerate(filters):
            for G in filters[i + 1 :]:
                assert not (G < F)

    def test_theorem_values_on_quasivariety_member(self, ipc, h3, chain4):
        assert theorem_values(ipc, h3) == {2}
        assert theorem_values(ipc, chain4) == {3}

    def test_deeper_cpc_theorems_are_top_only_on_boolean_algebras(self, cpc):
        # theorem_values stops at depth 2; at depth 3 the classical theorems
        # over x0, x1 separate the Boolean algebras of the Heyting corpus
        theorems = [phi for phi in enumerate_formulas(BUILTIN_SIGNATURE, 2, 3) if cpc.proves((), phi)]
        verdicts = []
        for name, A in corpus.heyting_corpus():
            values = {a for phi in theorems for a in value_vector(A, phi, phi.vmask)}
            assert theorem_values(cpc, A) == {A.size - 1} <= values
            verdicts.append((name, values == {A.size - 1}))
        assert verdicts == [(name, qv_membership("boolean", A)) for name, A in corpus.heyting_corpus()]
        assert [name for name, boolean in verdicts if boolean] == ["one", "two", "diamond"]

    def test_bound_exhaustion_reported(self, ipc):
        # intuitionistic theorems take undesignated values on the Lukasiewicz
        # chain beyond the enumeration bound; the closure must say so
        with pytest.raises(RuntimeError, match="bound exhausted"):
            filter_closure(ipc, corpus.lukasiewicz3(), ())

    def test_theorem_values_past_the_universe_limit_name_the_algebra(self):
        # over 3 variables to depth 2, an 11-ary connective makes 177,159
        # formulas: the refusal names the algebra, not bounds the caller never gave
        sig = Signature([("imp", 2), ("w", 11)])
        imp = [2 if a <= b else b for a in range(3) for b in range(3)]
        A = FiniteAlgebra(sig, 3, {"imp": imp, "w": [0] * 3**11})
        logic = LogicSpec.from_matrices(sig, [Matrix(A, {2})], implication="imp")
        message = "^enumerating the theorem values of a 3-element algebra exceeds the limit of 100,000 formulas$"
        with pytest.raises(ValueError, match=message):
            all_filters(logic, A)

    def test_closure_missing_a_spot_theorem_value_is_reported(self, ipc, h3, monkeypatch):
        # with no bounded theorem values the closure of nothing is empty, so
        # the spot theorems' value (the top) falls outside it
        monkeypatch.setattr(algebra, "theorem_values", lambda logic, A: frozenset())
        with pytest.raises(RuntimeError, match="closure bound exhausted"):
            filter_closure(ipc, h3, ())

    @pytest.mark.parametrize("bad", [-1, 2])  # 2 is the carrier size of b2
    def test_out_of_range(self, ipc, b2, bad):
        with pytest.raises(ValueError, match="filter element out of range"):
            is_filter(ipc, b2, {1, bad})
        with pytest.raises(ValueError, match="filter element out of range"):
            filter_closure(ipc, b2, {1, bad})

    def test_algebra_without_implication_rejected(self, ipc):
        A = FiniteAlgebra(Signature([("neg", 1), ("and", 2)]), 2, {"neg": [1, 0], "and": [0, 0, 0, 1]})
        for check in (is_filter, filter_closure):
            with pytest.raises(ValueError, match="^algebra does not interpret imp$"):
                check(ipc, A, {1})
        with pytest.raises(ValueError, match="^algebra does not interpret imp$"):
            all_filters(ipc, A)

    def test_closure_on_lukasiewicz(self, l3):
        # imp(1,0) = 1 on the Lukasiewicz chain, so detachment from 1 reaches 0
        A = corpus.lukasiewicz3()
        assert filter_closure(l3, A, ()) == {2}
        assert filter_closure(l3, A, {1}) == {0, 1, 2}
        assert all_filters(l3, A) == [frozenset({2}), frozenset({0, 1, 2})]

    # the spot theorems over neg and imp alone: the two of the five that
    # this signature can express
    NEG_IMP_FILTERS = {
        "one": [{0}],
        "two": [{1}, {0, 1}],
        "chain3": [{2}, {1, 2}, {0, 1, 2}],
        "chain4": [{3}, {2, 3}, {1, 2, 3}, {0, 1, 2, 3}],
        "diamond": [{3}, {1, 3}, {2, 3}, {0, 1, 2, 3}],
    }

    @pytest.mark.parametrize("kind", ["ipc", "cpc"])
    def test_filters_over_neg_and_imp(self, kind):
        sig = Signature([("neg", 1), ("imp", 2)])
        logic = getattr(LogicSpec, kind)(sig)
        filters = {}
        for name, H in corpus.heyting_corpus(4):
            A = FiniteAlgebra(sig, H.size, {c: H.tables[c] for c in sig.names})
            top = {A.size - 1}
            assert algebra._spot_values(logic, A) == top
            assert filter_closure(logic, A, ()) == top
            filters[name] = all_filters(logic, A)
        assert filters == self.NEG_IMP_FILTERS


def lattice_filter_of(A, a):
    """The principal filter of a, with the order read off the meet."""
    return frozenset(b for b in A.elements() if A.op("and", a, b) == a)


def lattice_filters(A):
    """Nonempty subsets closed upward and under meets, in ``all_filters`` order:
    on a Heyting algebra these are exactly the ipc filters."""
    return [
        frozenset(F)
        for k in range(1, A.size + 1)
        for F in itertools.combinations(A.elements(), k)
        if all(lattice_filter_of(A, a) <= set(F) and A.op("and", a, b) in F for a in F for b in F)
    ]


class TestAlgebraInvariants:
    """Theorem values, filters and law-check verdicts are memoised on the
    algebra; a cold, a warm and a starved memo must give the same answers."""

    @staticmethod
    def calls(logics, A):
        return (
            [lambda l=l: theorem_values(l, A) for l in logics]
            + [lambda l=l: all_filters(l, A) for l in logics]
            + [lambda c=c: qv_membership(c, A) for c in ("heyting", "boolean")]
        )

    def test_cold_warm_and_dropped_memo_agree(self, monkeypatch, cpc, ipc, l3):
        logics = (cpc, ipc, l3)
        heyting = corpus.heyting_corpus()
        boolean = [A for _, A in corpus.boolean_corpus()]
        # fresh copies, so that the first pass starts from an empty memo
        algebras = [FiniteAlgebra.from_json(A.to_json())
                    for A in [H for _, H in heyting] + boolean + [corpus.lukasiewicz3()]]
        expected = [[call() for call in self.calls(logics, A)] for A in algebras]  # cold
        assert [[call() for call in self.calls(logics, A)] for A in algebras] == expected  # warm
        for A, values in zip(algebras, expected[: len(heyting)]):
            top = {a for a in A.elements() if lattice_filter_of(A, a) == {a}}
            assert values[0] == values[1] == top  # cpc and ipc theorems up to depth 2
            assert values[4] == lattice_filters(A)  # ipc filters
        assert expected[-1][5] == [frozenset({2}), frozenset({0, 1, 2})]  # l3 filters of L3
        assert [e[-2:] for e in expected] == (
            [[True, name in ("one", "two", "diamond")] for name, _ in heyting]
            + [[True, True]] * len(boolean) + [[False, False]]
        )
        monkeypatch.setattr(algebra, "MEMO_LIMIT", 1)
        for A in algebras:
            A._memo.clear()
        for A, values in zip(algebras, expected):  # each call drops what the last one stored
            for call, value in zip(self.calls(logics, A), values):
                assert call() == value
                assert len(A._memo) <= 1

    def test_memoised_verdict_keeps_the_argument_checks(self, h3):
        A = FiniteAlgebra.from_json(h3.to_json())
        assert qv_membership("heyting", A)
        with pytest.raises(ValueError, match="unknown class"):
            qv_membership("lattice", A)


class TestSerialization:
    def test_load_bundled_h3(self, h3):
        assert load_algebra("data/H3.json") == h3

    def test_row_major_first_index_is_left(self, h3):
        # 1 -> 0 is 0 on the three-element chain, 0 -> 1 is top
        assert h3.op("imp", 1, 0) == 0
        assert h3.op("imp", 0, 1) == 2

    def test_json_roundtrip(self, b4):
        data = b4.to_json()
        assert FiniteAlgebra.from_json(data) == b4
        assert data["tables"]["neg"] == [3, 2, 1, 0]

    def test_table_nested_deeper_than_the_call_stack_rejected(self):
        data = corpus.b2().to_json()
        for _ in range(5000):
            data["tables"]["neg"] = [data["tables"]["neg"]]
        with pytest.raises(ValueError, match="^table for neg is neither flat nor nested one level per argument$"):
            FiniteAlgebra.from_json(data)

    def test_bad_table_rejected(self, sig):
        with pytest.raises(ValueError):
            FiniteAlgebra(sig, 2, {name: [0] for name, _ in sig.connectives})


# ---------------------------------------------------------------------------
# the valuation-space kernel against the per-valuation evaluate loop
# ---------------------------------------------------------------------------

def oracle_valuations(A, vars_):
    """Every valuation of the variables, in itertools.product order."""
    return [dict(zip(vars_, values)) for values in itertools.product(A.elements(), repeat=len(vars_))]


def oracle_violation(M, gamma, phi):
    A, F = M.algebra, M.filter
    for v in oracle_valuations(A, sorted_variables(gamma + (phi,))):
        if all(evaluate(A, g, v) in F for g in gamma) and evaluate(A, phi, v) not in F:
            return v
    return None


def oracle_equational_consequence(K, gamma, eq):
    vars_ = sorted_variables(side for e in gamma + (eq,) for side in (e.lhs, e.rhs))
    for A in K:
        for v in oracle_valuations(A, vars_):
            if all(evaluate(A, e.lhs, v) == evaluate(A, e.rhs, v) for e in gamma):
                if evaluate(A, eq.lhs, v) != evaluate(A, eq.rhs, v):
                    return False
    return True


@pytest.fixture(scope="module")
def kernel_algebras():
    return {
        "B2": corpus.b2(),
        "H3": corpus.h3(),
        "B4": corpus.b4(),
        "chain4": corpus.heyting_chain(4),
        "L3": corpus.lukasiewicz3(),
    }


def draw(rng, depth=4):
    return random_formula(rng, BUILTIN_SIGNATURE, 3, depth)


class TestEvaluationKernel:
    def test_vectors_match_the_evaluate_loop(self, kernel_algebras):
        rng = random.Random(401)
        for A in kernel_algebras.values():
            for _ in range(150):
                phi = draw(rng)
                frame = phi.vmask | rng.randrange(8)  # extra variables of x0..x2 do not matter
                vars_ = [i for i in range(3) if frame >> i & 1]
                expected = tuple(evaluate(A, phi, v) for v in oracle_valuations(A, vars_))
                assert value_vector(A, phi, frame) == expected
                for row in (0, len(expected) - 1, rng.randrange(len(expected))):
                    assert frame_valuation(A, frame, row) == oracle_valuations(A, vars_)[row]

    def test_witness_is_the_first_violating_valuation(self, kernel_algebras):
        rng = random.Random(402)
        found = 0
        for A in kernel_algebras.values():
            filters = [frozenset({A.size - 1}), frozenset(range(1, A.size)), frozenset({0})]
            for _ in range(120):
                M = Matrix(A, rng.choice(filters))
                gamma = tuple(draw(rng, 3) for _ in range(rng.randrange(3)))
                phi = draw(rng, 3)
                expected = oracle_violation(M, gamma, phi)
                witness = matrix_violation(M, gamma, phi)
                assert witness == expected
                if expected is not None:
                    found += 1
                    assert list(witness.items()) == list(expected.items())
        assert found > 100

    def test_equational_consequence_over_one_and_two_algebras(self, kernel_algebras, F):
        rng = random.Random(403)
        algebras = list(kernel_algebras.values())
        boolean = (kernel_algebras["B2"], kernel_algebras["B4"])
        # x0 = neg(x0) holds in no row of B2 or B4, so its stored mask is 0
        nowhere = Equation(F("x0"), F("neg(x0)"))
        verdicts, zero_masks_read = set(), 0
        for i in range(400):
            A, B = rng.choice(algebras), rng.choice(algebras)
            gamma = tuple(Equation(draw(rng, 2), draw(rng, 2)) for _ in range(rng.randrange(3)))
            gamma += (nowhere,) * (i % 4 == 0)
            eq = Equation(draw(rng, 3), draw(rng, 3))
            frame = 0
            for e in gamma + (eq,):
                frame |= e.lhs.vmask | e.rhs.vmask
            for K in ([A], [A, B]):
                expected = oracle_equational_consequence(K, gamma, eq)
                for again in (False, True):  # the second time every mask comes from the memo
                    entries = [len(C._memo) for C in K]
                    assert equational_consequence(K, gamma, eq) == expected
                    for C in K:
                        assert quasiidentity_holds(C, gamma, eq) == oracle_equational_consequence([C], gamma, eq)
                    if again:
                        assert [len(C._memo) for C in K] == entries
                verdicts.add(expected)
            if nowhere in gamma and A in boolean:
                assert A._memo[frame, nowhere.lhs, nowhere.rhs] == 0
                assert equational_consequence([A], gamma, eq)
                zero_masks_read += 1
        assert verdicts == {True, False}
        assert zero_masks_read > 10

    def test_reduct_tables(self, kernel_algebras):
        rng = random.Random(404)
        for A in kernel_algebras.values():
            for _ in range(20):
                h = FlexibleMorphism(BUILTIN_SIGNATURE, BUILTIN_SIGNATURE, {
                    name: random_formula(rng, BUILTIN_SIGNATURE, arity, 3)
                    for name, arity in BUILTIN_SIGNATURE.connectives
                })
                R = reduct(h, A)
                for name, arity in BUILTIN_SIGNATURE.connectives:
                    assert R.tables[name] == tuple(
                        evaluate(A, h(name), dict(enumerate(args)))
                        for args in itertools.product(A.elements(), repeat=arity)
                    )

    def test_satisfies_iff_no_violation(self, kernel_algebras):
        rng = random.Random(406)
        verdicts = set()
        for name in ("B2", "H3", "L3"):
            A = kernel_algebras[name]
            filters = [frozenset({A.size - 1}), frozenset(range(1, A.size))]
            for _ in range(200):
                M = Matrix(A, rng.choice(filters))
                gamma = tuple(draw(rng, 3) for _ in range(rng.randrange(3)))
                phi = draw(rng, 3)
                verdict = matrix_satisfies(M, gamma, phi)
                assert verdict == (matrix_violation(M, gamma, phi) is None)
                verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_memo_is_dropped_at_its_bound(self, monkeypatch, kernel_algebras):
        monkeypatch.setattr(algebra, "MEMO_LIMIT", 50)
        A = FiniteAlgebra.from_json(kernel_algebras["H3"].to_json())
        rng = random.Random(405)
        for _ in range(100):
            phi = draw(rng)
            vars_ = sorted_variables((phi,))
            assert value_vector(A, phi, phi.vmask) == tuple(
                evaluate(A, phi, v) for v in oracle_valuations(A, vars_)
            )
            assert len(A._memo) <= 50

    def test_errors(self, b2, F):
        with pytest.raises(ValueError, match="no binding for x1"):
            value_vector(b2, F("imp(x0,x1)"), 0b1)
        neg_only = FiniteAlgebra(Signature([("neg", 1)]), 2, {"neg": [1, 0]})
        with pytest.raises(ValueError, match="connective imp not interpreted"):
            value_vector(neg_only, F("imp(x0,x0)"), 0b1)


# ---------------------------------------------------------------------------
# generated congruences against the brute-force congruence list
# ---------------------------------------------------------------------------

GENERATOR_SIGNATURES = [
    Signature([("c", 0), ("u", 1), ("b", 2)]),
    Signature([("b", 2)]),
    Signature([("u", 1), ("v", 1)]),
    Signature([("c", 0), ("u", 1)]),
    Signature([("c", 0)]),
]


def random_algebra(rng, signature, size):
    return FiniteAlgebra(signature, size, {
        name: [rng.randrange(size) for _ in range(size ** arity)] for name, arity in signature.connectives
    })


def assert_least_congruence_holding(A, congs, pairs):
    gen = congruence_generated(A, pairs)
    assert gen in congs
    assert all(gen.related(a, b) for a, b in pairs)
    for theta in congs:
        if all(theta.related(a, b) for a, b in pairs):
            assert theta.contains(gen)


class TestCongruenceGeneratedAgainstAllCongruences:
    """``congruence_generated`` reads the unary-polynomial clone; the oracle
    is ``all_congruences``, which checks every partition operation by
    operation and shares no code with the clone."""

    def generating_sets(self, rng, A):
        singles = [[(a, b)] for a in A.elements() for b in range(a, A.size)]
        pairs = [(a, b) for a in A.elements() for b in A.elements()]
        return [[]] + singles + [rng.sample(pairs, min(len(pairs), rng.randrange(1, 4))) for _ in range(3)]

    def test_bundled_algebras(self):
        rng = random.Random(41)
        algebras = [A for _, A in corpus.heyting_corpus()] + [corpus.lukasiewicz3()]
        for A in algebras:
            congs = all_congruences(A)
            for pairs in self.generating_sets(rng, A):
                assert_least_congruence_holding(A, congs, pairs)

    def test_random_algebras(self):
        rng = random.Random(43)
        for i in range(300):
            A = random_algebra(rng, GENERATOR_SIGNATURES[i % len(GENERATOR_SIGNATURES)], rng.randint(1, 4))
            congs = all_congruences(A)
            for pairs in self.generating_sets(rng, A):
                assert_least_congruence_holding(A, congs, pairs)

    def test_the_clone_is_memoised_and_shared_with_leibniz(self, h3):
        A = FiniteAlgebra.from_json(h3.to_json())
        congruence_generated(A, [(1, 2)])
        polys = A._memo[("unary_polynomials",)]
        assert polys == tuple(sorted(unary_polynomials(A)))
        leibniz(A, {2})
        assert A._memo[("unary_polynomials",)] is polys


# ---------------------------------------------------------------------------
# the algebras built at representatives and the detachment closure, against
# the hand-written loops they replaced, kept here verbatim as oracles
# ---------------------------------------------------------------------------

def ref_is_congruence(A: FiniteAlgebra, theta: Congruence) -> bool:
    for name, arity in A.signature.connectives:
        if arity == 0:
            continue
        for args in itertools.product(A.elements(), repeat=arity):
            for pos in range(arity):
                a = args[pos]
                for b in range(a + 1, A.size):
                    if theta.related(a, b):
                        other = args[:pos] + (b,) + args[pos + 1 :]
                        if not theta.related(A.op(name, *args), A.op(name, *other)):
                            return False
    return True


def ref_quotient(A: FiniteAlgebra, theta: Congruence) -> tuple[FiniteAlgebra, tuple[int, ...]]:
    if theta.size != A.size:
        raise ValueError("partition size mismatch")
    if not ref_is_congruence(A, theta):
        raise ValueError("partition is not compatible with the operations")
    reps = sorted(set(theta.rep))
    block_index = {r: i for i, r in enumerate(reps)}
    proj = tuple(block_index[theta.rep[a]] for a in range(A.size))
    tables = {}
    for name, arity in A.signature.connectives:
        table = []
        for args in itertools.product(reps, repeat=arity):
            table.append(proj[A.op(name, *args)])
        tables[name] = table
    return FiniteAlgebra(A.signature, len(reps), tables), proj


def ref_regular_elements(H: FiniteAlgebra) -> tuple[FiniteAlgebra, tuple[int, ...]]:
    from aalogic.glivenko import _NEGNEG

    if not qv_membership("heyting", H):
        raise ValueError("not a Heyting algebra")
    negneg = value_vector(H, _NEGNEG, 1)
    regs = [a for a in H.elements() if negneg[a] == a]
    index = {a: i for i, a in enumerate(regs)}
    size = len(regs)
    tables: dict[str, list[int]] = {}
    for name, arity in H.signature.connectives:
        table = []
        for args in itertools.product(regs, repeat=arity):
            value = H.op(name, *args)
            if name == "or":
                value = negneg[value]
            if value not in index:
                raise ValueError(f"operation {name} does not preserve the regular elements")
            table.append(index[value])
        tables[name] = table
    B = FiniteAlgebra(H.signature, size, tables)
    if not qv_membership("boolean", B):
        raise ValueError("regular elements did not form a Boolean algebra; encoding is broken")
    return B, tuple(regs)


def ref_unit_map(H: FiniteAlgebra) -> tuple[int, ...]:
    from aalogic.glivenko import _NEGNEG

    B, emb = ref_regular_elements(H)
    index = {a: i for i, a in enumerate(emb)}
    unit = tuple(index[b] for b in value_vector(H, _NEGNEG, 1))
    if not algebra.is_homomorphism(H, B, unit):
        raise ValueError("double negation is not a homomorphism; encoding is broken")
    if set(unit) != set(range(B.size)):
        raise ValueError("unit map is not surjective; encoding is broken")
    return unit


def ref_is_filter(logic, A: FiniteAlgebra, F) -> bool:
    imp = algebra._require_implicative(logic, A)
    F = algebra._carrier_subset(A, F)
    if not theorem_values(logic, A) <= F:
        return False
    if not algebra._spot_values(logic, A) <= F:
        return False
    table = A.tables[imp]
    for a in F:
        row = a * A.size
        for b in A.elements():
            if table[row + b] in F and b not in F:
                return False
    return True


def outcome(f, *args):
    """f's result, or the type and message of what it raised."""
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def bundled_pool() -> list[FiniteAlgebra]:
    """Every Heyting and Boolean corpus algebra, and L3."""
    return [A for _, A in corpus.heyting_corpus() + corpus.boolean_corpus()] + [corpus.lukasiewicz3()]


def one_cell_changed(bundled: list[FiniteAlgebra], seed: int) -> FiniteAlgebra:
    """A bundled algebra of two or more elements with one table cell set to
    another value."""
    rng = random.Random(seed)
    A = rng.choice([A for A in bundled if A.size > 1])
    name = rng.choice(sorted(A.tables))
    tables = {n: list(t) for n, t in A.tables.items()}
    cell = rng.randrange(len(tables[name]))
    tables[name][cell] = rng.choice([v for v in A.elements() if v != tables[name][cell]])
    return FiniteAlgebra(A.signature, A.size, tables)


def representative_pool() -> list[FiniteAlgebra]:
    """The bundled algebras and 20 seeded copies with one table cell changed."""
    bundled = bundled_pool()
    return bundled + [one_cell_changed(bundled, seed) for seed in range(20)]


def partitions(n: int) -> list[Congruence]:
    return [Congruence(n, rep) for rep in itertools.product(range(n), repeat=n)
            if all(r <= i and rep[r] == r for i, r in enumerate(rep))]


class TestRepresentativeAlgebrasAgainstReference:
    def test_is_congruence_and_quotient(self):
        verdicts = set()
        for A in representative_pool():
            for theta in partitions(A.size):
                verdict = is_congruence(A, theta)
                assert verdict == ref_is_congruence(A, theta), (A, theta)
                verdicts.add(verdict)
                assert outcome(quotient, A, theta) == outcome(ref_quotient, A, theta), (A, theta)
        assert verdicts == {True, False}

    def test_all_congruences_walks_the_partitions_in_order(self):
        for A in representative_pool():
            assert all_congruences(A) == [t for t in partitions(A.size) if ref_is_congruence(A, t)], A

    def test_every_partition_is_a_congruence_of_the_identity_map(self):
        # the Bell numbers
        sig = Signature([("id", 1)])
        counts = [len(all_congruences(FiniteAlgebra(sig, n, {"id": range(n)}))) for n in range(1, 7)]
        assert counts == [1, 2, 5, 15, 52, 203]

    def test_regular_elements_and_unit_map(self):
        outcomes = []
        for A in representative_pool():
            regular = outcome(glivenko.regular_elements, A)
            assert regular == outcome(ref_regular_elements, A)
            assert outcome(glivenko.unit_map, A) == outcome(ref_unit_map, A)
            outcomes.append(regular)
        assert any(isinstance(r[0], FiniteAlgebra) for r in outcomes)
        assert any(r[0] is ValueError for r in outcomes)

    @pytest.mark.parametrize("logic", ["cpc", "ipc", "l3"])
    def test_is_filter_on_every_subset(self, logic, request):
        logic = request.getfixturevalue(logic)
        for A in representative_pool():
            for k in range(A.size + 1):
                for F in itertools.combinations(A.elements(), k):
                    assert is_filter(logic, A, F) == ref_is_filter(logic, A, F), (A, F)

    def test_size_mismatch(self, b2):
        for theta in (Congruence(3, (0, 0, 2)), Congruence(1, (0,))):
            for check in (is_congruence, quotient):
                with pytest.raises(ValueError, match="^partition size mismatch$"):
                    check(b2, theta)


def ref_equivalence_closure(n: int, pairs) -> list[list[bool]]:
    """The least equivalence relation holding the pairs, as a matrix: the
    reflexive and symmetric relation closed by Warshall's algorithm."""
    R = [[a == b for b in range(n)] for a in range(n)]
    for a, b in pairs:
        R[a][b] = R[b][a] = True
    for k in range(n):
        for i in range(n):
            if R[i][k]:
                R[i] = [x or y for x, y in zip(R[i], R[k])]
    return R


class TestCongruenceFromPairs:
    def test_against_warshall(self):
        rng = random.Random(4003)
        total = set()  # whether the pairs relate everything
        for trial in range(2000):
            n = trial % 8 + 1
            pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(2 * n))]
            if pairs:
                a, b = rng.choice(pairs)
                pairs += [(a, b), (b, a), (a, a)]  # a repeat, both orders and a self-pair
            rng.shuffle(pairs)
            R = ref_equivalence_closure(n, pairs)
            theta = Congruence.from_pairs(n, pairs)
            assert [[theta.related(a, b) for b in range(n)] for a in range(n)] == R, (n, pairs)
            assert theta.rep == tuple(row.index(True) for row in R), (n, pairs)
            total.add(theta.num_blocks() == 1)
        assert total == {True, False}

    def test_repr_and_hash(self):
        theta = Congruence.from_pairs(4, [(3, 1)])
        assert repr(theta) == "Congruence(0|1,3|2)"
        same = Congruence.from_pairs(4, [(1, 3), (3, 3), (3, 1)])
        assert same == theta and hash(same) == hash(theta) == hash(Congruence(4, (0, 1, 2, 1)))
        assert len({theta, same, Congruence.identity(4)}) == 2

    # -1 once read the last element (merging 0 with 2), and size raised IndexError
    @pytest.mark.parametrize("element", [-1, 3])
    def test_an_element_outside_the_carrier_is_refused(self, element):
        with pytest.raises(ValueError, match=r"^element out of range: "):
            Congruence.from_pairs(3, [(element, 0)])
        with pytest.raises(ValueError, match=r"^element out of range: "):
            Congruence.from_pairs(3, [(1, 1), (0, element)])
        with pytest.raises(ValueError, match=rf"^element out of range: {element}$"):
            compatible(Congruence.identity(3), {0, element})
        assert compatible(Congruence.identity(3), {0, 2}) and not compatible(Congruence(3, (0, 1, 0)), {0})


class TestExhaustiveBounds:
    """``all_filters`` and ``all_congruences`` (with ``leibniz_bruteforce``,
    which reads it) enumerate at most 8 elements."""

    def test_eight_elements_are_enumerated(self, ipc):
        A = corpus.heyting_chain(8)
        assert len(all_filters(ipc, A)) == 8
        # a Heyting algebra's congruences correspond to its filters
        assert len(all_congruences(A)) == 8
        assert leibniz_bruteforce(A, {7}).is_identity()

    def test_nine_elements_are_refused(self, ipc):
        A = corpus.heyting_chain(9)
        with pytest.raises(ValueError, match=r"^carrier too large for exhaustive filter enumeration \(> 8\)$"):
            all_filters(ipc, A)
        for enumerate_congruences in (all_congruences, lambda A: leibniz_bruteforce(A, {8})):
            with pytest.raises(ValueError,
                               match=r"^carrier too large for exhaustive congruence enumeration \(> 8\)$"):
                enumerate_congruences(A)
        assert leibniz(A, {8}).is_identity()
