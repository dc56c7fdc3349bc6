import hashlib
import itertools
import json
import random
from pathlib import Path
from typing import Optional

import pytest

from aalogic import (
    AlgebraizingPair,
    Equation,
    FiniteAlgebra,
    LogicSpec,
    Matrix,
    Signature,
    Var,
    check_bp_conditions,
    check_interpretation,
    check_inverse_condition,
    delta_translate,
    detachment_check,
    is_lindenbaum,
    qv_axioms,
    qv_membership,
    quasiidentity_holds,
    tau_translate,
)
from aalogic.algebraization import (
    HEYTING_IDENTITIES,
    BPReport,
    ConditionResult,
    QuasiIdentity,
    _delta_tau,
    _interderivability_classes,
)
from aalogic.corpus import load_pair, resolve_logic
from aalogic.semantics import BUILTIN_SIGNATURE
from aalogic.syntax import App, Formula, enumerate_formulas, print_formula, random_formula, substitute
from aalogic import corpus


class TestTranslations:
    def test_tau_on_variable(self, pair, F):
        eqs = tau_translate(pair, F("x1"))
        assert eqs == (Equation(F("imp(x1,x1)"), F("x1")),)

    def test_tau_on_top(self, pair, F):
        top = F("imp(x0,x0)")
        eqs = tau_translate(pair, top)
        assert eqs == (Equation(F("imp(imp(x0,x0),imp(x0,x0))"), top),)

    def test_tau_substitutes(self, pair, F):
        eqs = tau_translate(pair, F("neg(x0)"))
        assert eqs == (Equation(F("imp(neg(x0),neg(x0))"), F("neg(x0)")),)

    def test_delta(self, pair, F):
        assert delta_translate(pair, Equation(F("x0"), F("x1"))) == (F("iff(x0,x1)"),)
        phi = F("and(x0,x1)")
        assert delta_translate(pair, Equation(phi, phi)) == (F("iff(and(x0,x1),and(x0,x1))"),)

    def test_delta_two_formulas(self, F):
        two = AlgebraizingPair(
            [F("imp(x0,x1)"), F("imp(x1,x0)")], [(F("imp(x0,x0)"), F("x0"))]
        )
        assert len(delta_translate(two, Equation(F("x0"), F("x1")))) == 2

    def test_variable_bounds_enforced(self, F):
        with pytest.raises(ValueError):
            AlgebraizingPair([F("iff(x0,x2)")], [(F("x0"), F("x0"))])
        with pytest.raises(ValueError):
            AlgebraizingPair([F("iff(x0,x1)")], [(F("x1"), F("x0"))])

    def test_pair_file_roundtrip(self, pair):
        loaded = load_pair("data/cpc_pair.json", BUILTIN_SIGNATURE)
        assert loaded == pair


class TestConditions:
    def test_cpc_passes(self, cpc, pair):
        report = check_bp_conditions(cpc, pair, 2, 2)
        assert report.passed
        assert all(r.passed for r in report.conditions.values())

    def test_ipc_passes_small(self, ipc, pair):
        report = check_bp_conditions(ipc, pair, 1, 2)
        assert report.passed

    def test_perturbed_pair_fails_symmetry(self, cpc):
        report = check_bp_conditions(cpc, corpus.perturbed_pair(), 2, 2)
        assert not report.passed
        assert not report.conditions["b"].passed
        assert report.conditions["b"].witness is not None
        assert report.conditions["a"].passed

    def test_neg_only_logic_fails_reflexivity_first(self):
        sig = Signature([("neg", 1)])
        neg_table = {"neg": [1, 0]}
        from aalogic.algebra import FiniteAlgebra

        logic = LogicSpec.from_matrices(
            sig, [Matrix(FiniteAlgebra(sig, 2, neg_table), frozenset({1}))]
        )
        degenerate = AlgebraizingPair([Var(0)], [(Var(0), Var(0))])
        report = check_bp_conditions(logic, degenerate, 1, 2)
        assert not report.conditions["a"].passed

    def test_bounds_validated(self, cpc, pair):
        with pytest.raises(ValueError):
            check_bp_conditions(cpc, pair, 0, 2)

    def test_monotonicity_under_strengthening(self, sig, pair, b2, h3):
        weaker = LogicSpec.from_matrices(
            sig,
            [Matrix(b2, frozenset({1})), Matrix(h3, frozenset({2}))],
            implication="imp",
        )
        stronger = LogicSpec.from_matrices(sig, [Matrix(b2, frozenset({1}))], implication="imp")
        weak_report = check_bp_conditions(weaker, pair, 1, 2)
        strong_report = check_bp_conditions(stronger, pair, 1, 2)
        assert weak_report.passed
        assert strong_report.passed

    def test_equivalent_delta_gives_same_verdicts(self, cpc, F):
        split = AlgebraizingPair(
            [F("imp(x0,x1)"), F("imp(x1,x0)")], [(F("imp(x0,x0)"), F("x0"))]
        )
        a = check_bp_conditions(cpc, corpus.classical_pair(), 2, 2)
        b = check_bp_conditions(cpc, split, 2, 2)
        assert {k: v.passed for k, v in a.conditions.items()} == {
            k: v.passed for k, v in b.conditions.items()
        }


# The instance-by-instance check as it was before the conditions were decided
# on their generic instances, kept verbatim as the oracle of the schematic one.
def ref_check_bp_conditions(l: LogicSpec, pair: AlgebraizingPair, num_vars: int, depth: int,
                            congruential: Optional[bool] = None) -> BPReport:
    """Check the five algebraizability conditions on every formula tuple within
    the bounds. For congruential logics the tuple conditions are checked on
    interderivability-class representatives, which decides them for the whole
    universe; ``congruential=False`` checks them on the whole universe."""
    if num_vars < 1 or depth < 1:
        raise ValueError("bounds must be >= 1")
    if congruential is None:
        congruential = l.kind in ("cpc", "ipc")
    universe = enumerate_formulas(l.signature, num_vars, depth)
    reps = _interderivability_classes(l, universe) if congruential else list(universe)
    report = BPReport(
        logic=l.name,
        bounds={"vars": num_vars, "depth": depth, "congruential_dedup": congruential},
        universe_size=len(universe),
        class_count=len(reps),
    )

    def witness(*formulas: Formula) -> str:
        return ", ".join(print_formula(f) for f in formulas)

    # (a) every formula is delta-related to itself
    result = ConditionResult(True, 0)
    for phi in universe:
        result.instances += 1
        if not all(l.proves((), d) for d in delta_translate(pair, Equation(phi, phi))):
            result.passed, result.witness = False, witness(phi)
            break
    report.conditions["a"] = result

    # (b) symmetry
    result = ConditionResult(True, 0)
    for phi, psi in itertools.product(reps, repeat=2):
        result.instances += 1
        prem = delta_translate(pair, Equation(phi, psi))
        if not all(l.proves(prem, d) for d in delta_translate(pair, Equation(psi, phi))):
            result.passed, result.witness = False, witness(phi, psi)
            break
    report.conditions["b"] = result

    # (c) transitivity
    result = ConditionResult(True, 0)
    for phi, psi, chi in itertools.product(reps, repeat=3):
        result.instances += 1
        prem = delta_translate(pair, Equation(phi, psi)) + delta_translate(pair, Equation(psi, chi))
        if not all(l.proves(prem, d) for d in delta_translate(pair, Equation(phi, chi))):
            result.passed, result.witness = False, witness(phi, psi, chi)
            break
    report.conditions["c"] = result

    # (d) congruence, per connective
    result = ConditionResult(True, 0)
    for name, arity in l.signature.connectives:
        if not result.passed:
            break
        for combo in itertools.product(reps, repeat=2 * arity):
            result.instances += 1
            phis, psis = combo[:arity], combo[arity:]
            prem = tuple(
                d for p, q in zip(phis, psis) for d in delta_translate(pair, Equation(p, q))
            )
            if not all(
                l.proves(prem, d) for d in delta_translate(pair, Equation(App(name, phis), App(name, psis)))
            ):
                result.passed = False
                result.witness = f"{name}: " + witness(*combo)
                break
    report.conditions["d"] = result

    # (e) every formula is interderivable with delta of its defining equations
    result = ConditionResult(True, 0)
    for phi in universe:
        result.instances += 1
        image = _delta_tau(pair, phi)
        if not (all(l.proves((phi,), d) for d in image) and l.proves(image, phi)):
            result.passed, result.witness = False, witness(phi)
            break
    report.conditions["e"] = result

    return report


def _pair_from_file(path):
    return load_pair(path, BUILTIN_SIGNATURE)


BUNDLED_LOGICS = {
    "cpc": corpus.cpc_logic,
    "ipc": corpus.ipc_logic,
    "l3": corpus.l3_logic,
    "h3": lambda: resolve_logic("data/h3_logic.json"),
}
BUNDLED_PAIRS = {
    "classical": corpus.classical_pair,
    "perturbed": corpus.perturbed_pair,
    "cpc_pair": lambda: _pair_from_file("data/cpc_pair.json"),
    "imp_pair": lambda: _pair_from_file("data/imp_pair.json"),
}


def _same_report(l, pair, num_vars, depth):
    fast = check_bp_conditions(l, pair, num_vars, depth)
    slow = ref_check_bp_conditions(l, pair, num_vars, depth)
    assert json.dumps(fast.to_json()) == json.dumps(slow.to_json())
    assert fast.to_text() == slow.to_text()
    return fast


def _mutated_pair(rng):
    """A pair with one or two delta entries, each a random formula of depth
    at most 2 over x0, x1, and one defining equation whose sides are random
    formulas of depth at most 2 over x0."""
    two = enumerate_formulas(BUILTIN_SIGNATURE, 2, 2)
    one = enumerate_formulas(BUILTIN_SIGNATURE, 1, 2)
    delta = [rng.choice(two) for _ in range(rng.choice((1, 2)))]
    return AlgebraizingPair(delta, [(rng.choice(one), rng.choice(one))])


class TestSchematicDecision:
    @pytest.mark.parametrize("pair_name", sorted(BUNDLED_PAIRS))
    @pytest.mark.parametrize("logic_name", sorted(BUNDLED_LOGICS))
    def test_bundled_reports_match_the_bounded_check(self, logic_name, pair_name):
        l, pair = BUNDLED_LOGICS[logic_name](), BUNDLED_PAIRS[pair_name]()
        for num_vars, depth in [(1, 1), (2, 1), (1, 2)]:
            _same_report(l, pair, num_vars, depth)

    @pytest.mark.parametrize("pair_name", sorted(BUNDLED_PAIRS))
    @pytest.mark.parametrize("logic_name", ["cpc", "ipc"])
    def test_class_representatives_decide_the_whole_universe(self, logic_name, pair_name):
        # cpc and ipc check the tuple conditions on class representatives
        # only; each verdict must be the one every tuple of the universe gives
        l, pair = BUNDLED_LOGICS[logic_name](), BUNDLED_PAIRS[pair_name]()
        for num_vars, depth in [(1, 1), (2, 1), (1, 2)]:
            deduplicated = check_bp_conditions(l, pair, num_vars, depth)
            whole = ref_check_bp_conditions(l, pair, num_vars, depth, congruential=False)
            assert deduplicated.bounds["congruential_dedup"] and not whole.bounds["congruential_dedup"]
            assert deduplicated.universe_size == whole.universe_size == whole.class_count
            assert {k: c.passed for k, c in deduplicated.conditions.items()} == {
                k: c.passed for k, c in whole.conditions.items()
            }
        assert deduplicated.class_count < deduplicated.universe_size  # at (1, 2): 3 classes of 6

    @pytest.mark.parametrize("pair_name", sorted(BUNDLED_PAIRS))
    def test_classical_reports_match_at_two_two(self, pair_name):
        _same_report(corpus.cpc_logic(), BUNDLED_PAIRS[pair_name](), 2, 2)

    def test_ipc_report_matches_at_two_two(self, ipc, pair):
        _same_report(ipc, pair, 2, 2)

    @pytest.mark.parametrize("seed", range(36))
    def test_mutated_pairs_match_the_bounded_check(self, seed):
        rng = random.Random(seed)
        pair = _mutated_pair(rng)
        name = ("cpc", "ipc", "l3", "h3")[seed % 4]
        # at (2, 2) only cpc keeps the oracle within a second
        bounds = [(1, 2), (2, 1)] + [(2, 2)] * (name == "cpc")
        _same_report(BUNDLED_LOGICS[name](), pair, *rng.choice(bounds))

    def test_bounded_universe_without_counterexample_passes(self, cpc, F):
        # implication is not symmetric, but no universe over x0 alone shows it
        pair = _pair_from_file("data/imp_pair.json")
        assert not cpc.proves((F("imp(x0,x1)"),), F("imp(x1,x0)"))
        report = _same_report(cpc, pair, 1, 1)
        assert report.passed
        assert report.conditions["b"].instances == 1 and report.conditions["b"].witness is None
        assert report.conditions["d"].instances == 1 + 4 * 1

    def test_l3_passes_at_two_two(self, l3):
        report = check_bp_conditions(l3, _pair_from_file("data/cpc_pair.json"), 2, 2)
        assert report.passed
        assert report.class_count == report.universe_size == 20
        assert {k: c.instances for k, c in report.conditions.items()} == {
            "a": 20, "b": 400, "c": 8000, "d": 20 ** 2 + 4 * 20 ** 4, "e": 20,
        }


class TestInterpretation:
    def test_trivial(self, cpc, pair, b2, F):
        assert check_interpretation(cpc, pair, [b2], (F("x0"),), F("x0")) == (True, True)

    def test_peirce(self, cpc, pair, b2, peirce):
        assert check_interpretation(cpc, pair, [b2], (), peirce) == (True, True)

    def test_wrong_semantics_mismatch(self, ipc, pair, b2, peirce):
        assert check_interpretation(ipc, pair, [b2], (), peirce) == (False, True)

    def test_cpc_agrees_on_bounded_instances(self, cpc, pair, b2, sig):
        for phi in enumerate_formulas(sig, 2, 2):
            left, right = check_interpretation(cpc, pair, [b2], (), phi)
            assert left == right

    def test_ipc_sound_direction(self, ipc, pair, h3, b2, sig):
        # finite families can over-approve; the prover side must stay below
        for phi in enumerate_formulas(sig, 2, 2):
            left, right = check_interpretation(ipc, pair, [h3, b2], (), phi)
            if left:
                assert right


class TestInverseAndDetachment:
    def test_inverse_on_b2(self, cpc, pair, b2, F):
        assert check_inverse_condition(cpc, pair, [b2], Equation(F("x0"), F("x1"))) == (True, True)

    def test_inverse_trivial(self, cpc, pair, b2, F):
        phi = F("and(x0,x1)")
        assert check_inverse_condition(cpc, pair, [b2], Equation(phi, phi)) == (True, True)

    def test_inverse_on_chain(self, ipc, pair, h3, F):
        assert check_inverse_condition(ipc, pair, [h3], Equation(F("x0"), F("x1"))) == (True, True)

    def test_detachment(self, cpc, ipc, pair, F):
        assert detachment_check(cpc, pair, F("x0"), F("x1"))
        assert detachment_check(cpc, pair, F("x0"), F("x0"))
        assert detachment_check(ipc, pair, F("x0"), F("x1"))


@pytest.fixture(scope="module")
def axioms(cpc, pair):
    return qv_axioms(cpc, pair, depth=2, num_vars=2)


class TestQuasivarietyAxioms:
    def test_kind_i_shape(self, axioms, F):
        first = [q for q in axioms if q.kind == "i"]
        assert len(first) == 1
        eq = first[0].conclusion
        assert eq == Equation(F("imp(iff(x0,x0),iff(x0,x0))"), F("iff(x0,x0)"))

    def test_kind_ii_shape(self, axioms, F):
        second = [q for q in axioms if q.kind == "ii"]
        assert len(second) == 1
        qi = second[0]
        assert qi.conclusion == Equation(Var(0), Var(1))
        assert qi.premises == (
            Equation(F("imp(iff(x0,x1),iff(x0,x1))"), F("iff(x0,x1)")),
        )

    def test_kind_iii_contains_modus_ponens(self, axioms, F, pair):
        mp_premises = tau_translate(pair, F("x0")) + tau_translate(pair, F("imp(x0,x1)"))
        mp_conclusion = tau_translate(pair, F("x1"))[0]
        assert any(
            q.kind == "iii" and set(q.premises) == set(mp_premises) and q.conclusion == mp_conclusion
            for q in axioms
        )

    def test_all_hold_in_b2(self, axioms, b2):
        for q in axioms:
            assert quasiidentity_holds(b2, q.premises, q.conclusion)

    def test_some_kind_iii_fails_on_chain(self, cpc, pair, h3):
        # the separating entailments (excluded middle and friends) are depth 3
        deeper = qv_axioms(cpc, pair, depth=3, num_vars=2, max_premises=0)
        assert any(
            q.kind == "iii" and not quasiidentity_holds(h3, q.premises, q.conclusion)
            for q in deeper
        )

    def test_kind_ii_holds_in_every_heyting_algebra(self, axioms):
        # delta-faithfulness is a Heyting fact, not a Boolean one: a<->b = top
        # forces a = b in any Heyting algebra, so kind (ii) cannot separate
        kind2 = next(q for q in axioms if q.kind == "ii")
        for _, A in corpus.heyting_corpus():
            assert quasiidentity_holds(A, kind2.premises, kind2.conclusion)


# The generation loop as it was before entailment was decided per premise set,
# kept verbatim as the oracle of the batched one.
def ref_qv_axioms(l: LogicSpec, pair: AlgebraizingPair, depth: int, num_vars: int,
                  max_premises: int = 2) -> list[QuasiIdentity]:
    x0, x1 = Var(0), Var(1)
    axioms: list[QuasiIdentity] = []
    for d in pair.delta:
        refl = substitute(d, {0: x0, 1: x0})
        for eq in tau_translate(pair, refl):
            axioms.append(QuasiIdentity("i", (), eq))
    premises = tuple(
        eq
        for d in pair.delta
        for eq in tau_translate(pair, substitute(d, {0: x0, 1: x1}))
    )
    axioms.append(QuasiIdentity("ii", premises, Equation(x0, x1)))

    conclusions = enumerate_formulas(l.signature, num_vars, depth)
    premise_pool = enumerate_formulas(l.signature, num_vars, min(depth, 2))
    seen: set[QuasiIdentity] = set()
    for size in range(0, max_premises + 1):
        for gamma in itertools.combinations(premise_pool, size):
            prem = tuple(eq for g in gamma for eq in tau_translate(pair, g))
            for phi in conclusions:
                if l.proves(gamma, phi):
                    for eq in tau_translate(pair, phi):
                        qi = QuasiIdentity("iii", prem, eq)
                        if qi not in seen:
                            seen.add(qi)
                            axioms.append(qi)
    return axioms


def _shared_equation_pair():
    # tau(neg(x0)) starts with the equation that ends tau(x0)
    x0 = Var(0)
    neg = lambda a: App("neg", (a,))
    return AlgebraizingPair([App("iff", (x0, Var(1)))], [(x0, neg(x0)), (neg(x0), neg(neg(x0)))])


QV_PAIRS = dict(BUNDLED_PAIRS, shared_equation=_shared_equation_pair)


def _constant_tau_logic():
    """A matrix logic over a signature with a nullary top, and a pair whose
    defining equation top = top has no variable: every premise set of one
    size translates to the same premise tuple."""
    sig = Signature([("top", 0), ("neg", 1), ("imp", 2)])
    A = FiniteAlgebra(sig, 2, {"top": [1], "neg": [1, 0], "imp": [1, 1, 0, 1]})
    top = App("top", ())
    pair = AlgebraizingPair([App("imp", (Var(0), Var(1)))], [(top, top)])
    return LogicSpec.from_matrices(sig, [Matrix(A, frozenset({1}))], implication="imp"), pair


# sha256 of the newline-joined reprs of qv_axioms(cpc, classical_pair, 3, 2)
# as the per-formula loop emitted them
CPC_AXIOMS_SHA256 = "a375f1292823b0b1d55b7e9d89ce452ac28db1968e73ed1b97483dd67a2bca43"


class TestBatchedAxioms:
    @pytest.mark.parametrize("pair_name", sorted(QV_PAIRS))
    @pytest.mark.parametrize("logic_name", ["cpc", "ipc", "l3"])
    def test_matches_the_per_formula_loop(self, logic_name, pair_name):
        l, pair = BUNDLED_LOGICS[logic_name](), QV_PAIRS[pair_name]()
        for max_premises in range(3):
            assert qv_axioms(l, pair, 2, 2, max_premises) == ref_qv_axioms(l, pair, 2, 2, max_premises)

    def test_shared_equation_is_emitted_once(self, cpc):
        pair = _shared_equation_pair()
        x0 = Var(0)
        prem = tau_translate(pair, x0) + tau_translate(pair, App("neg", (x0,)))
        conclusions = enumerate_formulas(BUILTIN_SIGNATURE, 2, 2)
        # x0, neg(x0) entail every conclusion, and tau(neg(phi)) repeats an equation of tau(phi)
        emitted = [q.conclusion for q in qv_axioms(cpc, pair, 2, 2) if q.premises == prem]
        assert emitted == list(dict.fromkeys(eq for phi in conclusions for eq in tau_translate(pair, phi)))
        assert len(emitted) < 2 * len(conclusions)

    def test_repeated_premise_tuples_match(self):
        l, pair = _constant_tau_logic()
        assert enumerate_formulas(l.signature, 2, 2)[2] == App("top", ())
        for max_premises in range(3):
            axioms = qv_axioms(l, pair, 2, 2, max_premises)
            assert axioms == ref_qv_axioms(l, pair, 2, 2, max_premises)
            assert len(axioms) == len(set(axioms))
        # a premise tuple per size, one conclusion top = top under each
        assert [q.premises for q in axioms if q.kind == "iii"] == [
            tau_translate(pair, App("top", ())) * size for size in range(3)
        ]

    def test_cpc_axioms_keep_their_digest(self, cpc, pair):
        axioms = qv_axioms(cpc, pair, 3, 2)
        assert len(axioms) == 212168
        # printing 212,168 axioms takes seconds, so each distinct equation is
        # printed once and the lines are joined as QuasiIdentity.__repr__ joins
        # them; the stride sample checks that the two agree
        printed: dict[Equation, str] = {}

        def text(eq):
            out = printed.get(eq)
            if out is None:
                out = printed[eq] = repr(eq)
            return out

        lines = [
            f"[{q.kind}] {' & '.join(map(text, q.premises)) or 'true'} -> {text(q.conclusion)}"
            for q in axioms
        ]
        for i in list(range(0, len(axioms), 997)) + [len(axioms) - 1]:
            assert lines[i] == repr(axioms[i])
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == CPC_AXIOMS_SHA256

    def test_quasi_identities_compare_by_value(self, pair, F):
        eq = tau_translate(pair, F("x0"))[0]
        a, b = QuasiIdentity("iii", (eq,), eq), QuasiIdentity("iii", (eq,), eq)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != QuasiIdentity("i", (eq,), eq)
        assert hash(a) == hash(("iii", (eq,), eq))
        # by value, but never equal to the plain tuple of its fields
        fields = ("iii", (eq,), eq)
        assert a != fields and fields != a and a != object()
        assert a.__eq__(fields) is NotImplemented
        assert {a: 1}[b] == 1 and b in {a} and fields not in {a}

    def test_cpc_decides_one_representative_per_truth_table(self, cpc, ipc, pair, monkeypatch):
        sizes: list[int] = []
        entailed = LogicSpec.entailed

        def spy(self, gamma, phis):
            sizes.append(len(phis))
            return entailed(self, gamma, phis)

        monkeypatch.setattr(LogicSpec, "entailed", spy)
        assert len(qv_axioms(cpc, pair, 3, 2)) == 212168
        # 1 + 20 + 190 premise sets over the 20 formulas up to depth 2
        assert len(sizes) == 211 and max(sizes) <= 16
        # ipc is not decided by truth tables: every conclusion is asked for
        sizes.clear()
        qv_axioms(ipc, pair, 2, 2)
        assert len(sizes) == 211
        assert set(sizes) == {len(enumerate_formulas(ipc.signature, 2, 2))}


def _proves_loop(l, gamma, phis):
    return tuple(i for i, phi in enumerate(phis) if l.proves(gamma, phi))


class TestEntailed:
    @pytest.mark.parametrize("logic_name", ["cpc", "ipc", "l3"])
    def test_matches_the_proves_loop(self, logic_name):
        l = BUNDLED_LOGICS[logic_name]()
        phis = enumerate_formulas(BUILTIN_SIGNATURE, 2, 2)
        gammas = [()] + [(g,) for g in phis] + list(itertools.combinations(phis[:8], 2))
        for gamma in gammas:
            assert l.entailed(gamma, phis) == _proves_loop(l, gamma, phis)
        assert l.entailed(phis[:2], []) == ()

    def test_cpc_beyond_the_frame(self, cpc):
        # x4 and up are outside the 16-row frame, so these take the compact path
        rng = random.Random(9)
        phis = [random_formula(rng, BUILTIN_SIGNATURE, 6, 3) for _ in range(60)]
        inside = [phi for phi in phis if not phi.vmask >> 4]
        assert inside and len(inside) < len(phis)
        hits = 0
        for size in range(3):
            for _ in range(30):
                gamma = tuple(rng.sample(inside if size == 2 else phis, size))
                got = cpc.entailed(gamma, phis)
                assert got == _proves_loop(cpc, gamma, phis)
                hits += len(got)
                assert cpc.entailed(gamma, inside) == _proves_loop(cpc, gamma, inside)
        assert 0 < hits < 90 * len(phis)


class TestEntailmentKey:
    def test_cpc_keys_are_the_truth_tables_over_two_variables(self, cpc):
        phis = enumerate_formulas(BUILTIN_SIGNATURE, 2, 3)
        assert len(phis) == 1622
        assert len({cpc.entailment_key(phi) for phi in phis}) == 16

    def test_cpc_groups_share_their_verdicts(self, cpc):
        rng = random.Random(17)
        beyond = [phi for phi in (random_formula(rng, BUILTIN_SIGNATURE, 6, 3) for _ in range(80))
                  if phi.vmask >> 4]
        assert beyond
        for phi in beyond:
            assert cpc.entailment_key(phi) is phi
        phis = list(enumerate_formulas(BUILTIN_SIGNATURE, 2, 3)) + beyond
        groups: dict[object, list[int]] = {}
        for i, phi in enumerate(phis):
            groups.setdefault(cpc.entailment_key(phi), []).append(i)
        assert len(groups) == 16 + len(set(beyond))
        premise_pool = phis[:40] + beyond[:10]
        split = 0
        for size in (0, 1, 1, 2, 2, 2, 3, 3):
            gamma = tuple(rng.sample(premise_pool, size))
            hits = set(cpc.entailed(gamma, phis))
            verdicts = [{i in hits for i in members} for members in groups.values()]
            assert all(len(v) == 1 for v in verdicts)
            split += {True} in verdicts and {False} in verdicts
        assert split

    @pytest.mark.parametrize("logic_name", ["ipc", "l3"])
    def test_other_kinds_key_each_formula_to_itself(self, logic_name):
        l = BUNDLED_LOGICS[logic_name]()
        rng = random.Random(5)
        phis = list(enumerate_formulas(BUILTIN_SIGNATURE, 2, 2))
        phis += [random_formula(rng, BUILTIN_SIGNATURE, 6, 3) for _ in range(20)]
        assert all(l.entailment_key(phi) is phi for phi in phis)


class TestLindenbaum:
    def test_cpc(self, cpc, pair):
        report = is_lindenbaum(cpc, pair, 2, 2)
        assert report.passed and report.witness is None

    def test_ipc(self, ipc, pair):
        report = is_lindenbaum(ipc, pair, 2, 2)
        assert report.passed

    def test_lukasiewicz_is_not_lindenbaum(self, l3, pair):
        report = is_lindenbaum(l3, pair, 2, 3)
        assert not report.passed
        assert report.witness is not None


class TestQvMembership:
    def test_b2_boolean(self, b2):
        assert qv_membership("boolean", b2)
        assert qv_membership("heyting", b2)

    def test_h3_heyting_not_boolean(self, h3):
        assert qv_membership("heyting", h3)
        assert not qv_membership("boolean", h3)

    def test_diamond_boolean(self, b4):
        assert qv_membership("boolean", b4)

    def test_lukasiewicz_is_neither(self):
        A = corpus.lukasiewicz3()
        assert not qv_membership("heyting", A)
        assert not qv_membership("boolean", A)

    def test_corpus_classification(self):
        for _, A in corpus.heyting_corpus():
            assert qv_membership("heyting", A)
        for _, A in corpus.boolean_corpus():
            assert qv_membership("boolean", A)

    def test_signature_requirement(self):
        sig = Signature([("neg", 1)])
        from aalogic.algebra import FiniteAlgebra

        A = FiniteAlgebra(sig, 2, {"neg": [1, 0]})
        with pytest.raises(ValueError):
            qv_membership("boolean", A)

    def test_unknown_class(self, b2):
        with pytest.raises(ValueError):
            qv_membership("modal", b2)


# ---------------------------------------------------------------------------
# membership against the direct law loops it replaced
# ---------------------------------------------------------------------------

def ref_find_unit(A: FiniteAlgebra, opname: str) -> Optional[int]:
    for u in A.elements():
        if all(A.op(opname, a, u) == a and A.op(opname, u, a) == a for a in A.elements()):
            return u
    return None


def ref_satisfies_laws(cls_name: str, A: FiniteAlgebra) -> bool:
    meet = lambda a, b: A.op("and", a, b)
    join = lambda a, b: A.op("or", a, b)
    els = list(A.elements())

    for a in els:
        if meet(a, a) != a or join(a, a) != a:
            return False
        for b in els:
            if meet(a, b) != meet(b, a) or join(a, b) != join(b, a):
                return False
            if meet(a, join(a, b)) != a or join(a, meet(a, b)) != a:
                return False
            for c in els:
                if meet(a, meet(b, c)) != meet(meet(a, b), c):
                    return False
                if join(a, join(b, c)) != join(join(a, b), c):
                    return False
                if meet(a, join(b, c)) != join(meet(a, b), meet(a, c)):
                    return False
    top = ref_find_unit(A, "and")
    bottom = ref_find_unit(A, "or")
    if top is None or bottom is None:
        return False

    leq = lambda a, b: meet(a, b) == a
    for a in els:
        for b in els:
            for c in els:
                if leq(meet(a, b), c) != leq(a, A.op("imp", b, c)):
                    return False
    for a in els:
        if A.op("neg", a) != A.op("imp", a, bottom):
            return False
    if "iff" in A.tables:
        for a in els:
            for b in els:
                if A.op("iff", a, b) != meet(A.op("imp", a, b), A.op("imp", b, a)):
                    return False
    if cls_name == "boolean":
        return all(join(a, A.op("neg", a)) == top for a in els)
    return True


SIG4 = Signature([("neg", 1), ("imp", 2), ("and", 2), ("or", 2)])
DATA = Path(__file__).resolve().parent.parent / "data"


def _verdicts(algebras) -> dict[str, int]:
    """Assert the identities and the law loops agree on each algebra for both
    classes; the number of members of each class."""
    members = {"heyting": 0, "boolean": 0}
    for A in algebras:
        for cls_name in members:
            verdict = qv_membership(cls_name, A)
            assert verdict == ref_satisfies_laws(cls_name, A), (cls_name, A.size, A.tables)
            members[cls_name] += verdict
    return members


def _random_algebra(rng, sig, size):
    return FiniteAlgebra(sig, size, {
        name: [rng.randrange(size) for _ in range(size ** arity)] for name, arity in sig.connectives
    })


def _order(n, covers):
    """The order on 0..n-1 generated by the pairs (a, b), a below b."""
    leq = [[a == b or (a, b) in covers for b in range(n)] for a in range(n)]
    for k, a, b in itertools.product(range(n), repeat=3):
        leq[a][b] = leq[a][b] or (leq[a][k] and leq[k][b])
    return leq


def _lattice(leq, rng):
    """The lattice of the order ``leq`` over the builtin signature, with
    random tables for neg, imp and iff."""
    n = len(leq)

    pairs = list(itertools.product(range(n), repeat=2))
    lower = [[c for c in range(n) if leq[c][a] and leq[c][b]] for a, b in pairs]
    upper = [[c for c in range(n) if leq[a][c] and leq[b][c]] for a, b in pairs]
    tables = {
        "and": [next(c for c in cs if all(leq[d][c] for d in cs)) for cs in lower],
        "or": [next(c for c in cs if all(leq[c][d] for d in cs)) for cs in upper],
    }
    for name, arity in BUILTIN_SIGNATURE.connectives:
        tables.setdefault(name, [rng.randrange(n) for _ in range(n ** arity)])
    return FiniteAlgebra(BUILTIN_SIGNATURE, n, tables)


def _tamperings(A):
    """Every algebra that differs from A in one table cell."""
    for name in A.tables:
        for cell, old in enumerate(A.tables[name]):
            for value in A.elements():
                if value != old:
                    tables = {n: list(t) for n, t in A.tables.items()}
                    tables[name][cell] = value
                    yield FiniteAlgebra(A.signature, A.size, tables)


class TestMembershipAgainstLawLoops:
    def test_corpus_and_files(self):
        c = corpus.classical_corpus()
        algebras = [A for _, A in corpus.heyting_corpus() + corpus.boolean_corpus()]
        algebras += [corpus.lukasiewicz3()] + [A for As in c.algebras.values() for A in As]
        algebras += [M.algebra for Ms in (*c.matrices.values(), *c.reduced_matrices.values()) for M in Ms]
        algebras += [corpus.load_algebra(str(DATA / f"{name}.json")) for name in ("B2", "B4", "H3", "L3", "chain4")]
        members = _verdicts(algebras)
        assert members["heyting"] > members["boolean"] > 0

    def test_single_cell_tamperings(self):
        for _, A in corpus.heyting_corpus(4) + corpus.boolean_corpus(4):
            # every change of one cell leaves both classes
            assert _verdicts(_tamperings(A)) == {"heyting": 0, "boolean": 0}

    @pytest.mark.parametrize("sig", [BUILTIN_SIGNATURE, SIG4], ids=["builtin", "sig4"])
    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_random_algebras(self, sig, size):
        rng = random.Random(1000 * size + len(sig.connectives))
        # 3,000 seeded draws; each distinct algebra is checked once
        members = _verdicts(dict.fromkeys(_random_algebra(rng, sig, size) for _ in range(3000)))
        if size == 1:  # one algebra per signature: the trivial one, in both classes
            assert members == {"heyting": 1, "boolean": 1}

    def test_every_two_element_algebra(self):
        members = _verdicts(
            FiniteAlgebra(SIG4, 2, {"neg": neg, "imp": imp, "and": meet, "or": join})
            for neg in itertools.product(range(2), repeat=2)
            for imp, meet, join in itertools.product(itertools.product(range(2), repeat=4), repeat=3)
        )
        # the two-element Boolean algebra, once for each order
        assert members == {"heyting": 2, "boolean": 2}

    @pytest.mark.parametrize("covers", [
        [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)],  # M3
        [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)],          # N5
    ], ids=["M3", "N5"])
    def test_non_distributive_lattices(self, covers):
        rng = random.Random(len(covers))
        algebras = [_lattice(_order(5, covers), rng) for _ in range(300)]
        # and/or make a lattice, which is not distributive
        assert all(quasiidentity_holds(algebras[0], (), law) for law in HEYTING_IDENTITIES[:6])
        assert _verdicts(algebras) == {"heyting": 0, "boolean": 0}
