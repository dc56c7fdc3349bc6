"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``. Criterion 6's second
clause is kept verbatim and expected to fail (strict xfail): the kind-(ii)
quasi-identity ((x0<->x1 = top) -> x0 = x1) holds in every Heyting algebra,
since a<->b = top forces a = b there, so it cannot fail in the three-element
chain. The quasivariety separation that clause aims at is real but carried
by kind-(iii) axioms (e.g. the one from excluded middle), checked as 6c.
"""

import itertools
import time

import pytest

from aalogic import (
    Signature,
    check_bp_conditions,
    compose_contexts,
    glivenko_sweep,
    homomorphisms,
    institution_report,
    is_lindenbaum,
    left_adjoint_quotient,
    leibniz,
    leibniz_bruteforce,
    qv_axioms,
    quasiidentity_holds,
    regular_elements,
    unit_map,
)
from aalogic.algebra import find_isomorphism
from aalogic.glivenko import GlivenkoContext
from aalogic.semantics import LogicSpec
from aalogic.syntax import App, FlexibleMorphism, Var
from aalogic import corpus

SEED = 20260809


def report(line):
    print(line)


def small_corpus(max_size):
    seen = {}
    for name, A in corpus.heyting_corpus(max_size) + corpus.boolean_corpus(min(max_size, 4)):
        seen.setdefault(A, name)
    if max_size >= 3:
        seen.setdefault(corpus.lukasiewicz3(), "l3")
    return [(name, A) for A, name in seen.items()]


def test_criterion_1_classical_glivenko_reproduction():
    # the double-negation context from ipc into cpc over {neg, imp, and, or};
    # the sweep enumerates the target's formulas
    sig4 = Signature([("neg", 1), ("imp", 2), ("and", 2), ("or", 2)])
    ctx = GlivenkoContext(LogicSpec.ipc(sig4), LogicSpec.cpc(sig4), FlexibleMorphism.identity(sig4),
                          App("neg", (App("neg", (Var(0),)),)), name="classical")
    started = time.monotonic()
    sweep = glivenko_sweep(ctx, num_vars=2, depth=3, gamma_size=2, seed=SEED, samples=10000)
    elapsed = time.monotonic() - started
    agreement = sweep.checked - len(sweep.disagreements)
    report(
        f"ACCEPTANCE 1: {'PASS' if sweep.passed else 'FAIL'} — classical translation "
        f"equivalence {agreement}/{sweep.checked} over {sweep.universe_size} formulas "
        f"(vars<=2, depth<=3, |gamma|<=2, seed={SEED}) in {elapsed:.1f}s"
    )
    assert sweep.passed
    assert sweep.sampled_checked == 10000
    assert elapsed <= 120.0


def test_criterion_2_leibniz_oracle_equivalence():
    total = 0
    for name, A in small_corpus(4):
        for k in range(A.size + 1):
            for F in itertools.combinations(range(A.size), k):
                total += 1
                assert leibniz(A, F) == leibniz_bruteforce(A, F), (name, F)
    report(
        f"ACCEPTANCE 2: PASS — polynomial-fixpoint Leibniz congruence equals the "
        f"brute-force maximum compatible congruence on all {total} (algebra, subset) pairs"
    )


def test_criterion_3_adjunction():
    heyting = [(n, H) for n, H in corpus.heyting_corpus(5)]
    booleans = corpus.boolean_corpus(4)
    bijections = 0
    for _, H in heyting:
        B, _ = regular_elements(H)
        unit = unit_map(H)
        for _, C in booleans:
            from_regulars = homomorphisms(B, C)
            from_algebra = homomorphisms(H, C)
            precomposed = [tuple(f[unit[a]] for a in H.elements()) for f in from_regulars]
            assert len(set(precomposed)) == len(from_regulars)
            assert sorted(precomposed) == sorted(from_algebra)
            bijections += 1
    isos = 0
    for _, H in corpus.heyting_corpus():
        B, _ = regular_elements(H)
        Q, _ = left_adjoint_quotient(H)
        assert find_isomorphism(Q, B) is not None
        isos += 1
    report(
        f"ACCEPTANCE 3: PASS — unit precomposition is a hom-set bijection for "
        f"{bijections} (Heyting<=5, Boolean<=4) pairs; regular elements are isomorphic "
        f"to the generated-filter quotient for all {isos} corpus Heyting algebras"
    )


def test_criterion_4_bp_conditions():
    pair = corpus.classical_pair()
    cpc_report = check_bp_conditions(corpus.cpc_logic(), pair, 2, 2)
    ipc_report = check_bp_conditions(corpus.ipc_logic(), pair, 2, 2)
    perturbed = check_bp_conditions(corpus.cpc_logic(), corpus.perturbed_pair(), 2, 2)
    ok = (
        cpc_report.passed
        and ipc_report.passed
        and not perturbed.conditions["b"].passed
        and perturbed.conditions["b"].witness is not None
    )
    report(
        f"ACCEPTANCE 4: {'PASS' if ok else 'FAIL'} — classical and intuitionistic "
        f"logic pass (a)-(e) at vars=2 depth=2; implication-only equivalence "
        f"formulas fail (b) with witness [{perturbed.conditions['b'].witness}]"
    )
    assert cpc_report.passed, cpc_report.to_text()
    assert ipc_report.passed, ipc_report.to_text()
    assert not perturbed.conditions["b"].passed
    assert perturbed.conditions["b"].witness is not None


def test_criterion_5_institution_satisfaction():
    clean = corpus.classical_corpus()
    reports = [
        institution_report("If", clean, samples=4000, seed=SEED),
        institution_report("InsAL", clean, samples=3000, seed=SEED),
        institution_report("InsLAL", clean, samples=3000, seed=SEED),
    ]
    total = sum(r.checked for r in reports)
    clean_ok = all(r.passed for r in reports) and total >= 10000
    faults = [
        institution_report("If", corpus.corrupted_reduct_corpus(), samples=2000, seed=SEED),
        institution_report("InsAL", corpus.corrupted_adjoint_filter_corpus(), samples=2000, seed=SEED),
        institution_report("InsLAL", corpus.corrupted_adjoint_algebra_corpus(), samples=2000, seed=SEED),
    ]
    fault_ok = all(len(r.violations) >= 1 for r in faults)
    report(
        f"ACCEPTANCE 5: {'PASS' if clean_ok and fault_ok else 'FAIL'} — "
        f"0 violations in {total} seeded satisfaction-condition samples; fault-injected "
        f"corpora yield {[len(r.violations) for r in faults]} violations with witnesses"
    )
    for r in reports:
        assert r.passed, r.to_text()
    assert total >= 10000
    for r in faults:
        assert r.violations and all("phi" in v or "conclusion" in v for v in r.violations)


@pytest.fixture(scope="module")
def cpc_axioms():
    return qv_axioms(corpus.cpc_logic(), corpus.classical_pair(), depth=3, num_vars=2)


def failing_axioms(A, axioms):
    """The quasi-identities of the sequence that fail in A, in order."""
    return [q for q in axioms if not quasiidentity_holds(A, q.premises, q.conclusion)]


def test_criterion_6a_all_axioms_hold_in_b2(cpc_axioms):
    assert failing_axioms(corpus.b2(), cpc_axioms) == []
    counts = {k: sum(1 for q in cpc_axioms if q.kind == k) for k in ("i", "ii", "iii")}
    report(
        f"ACCEPTANCE 6a: PASS — all {len(cpc_axioms)} emitted quasi-identities "
        f"(kinds {counts}) hold in the two-element Boolean algebra"
    )


@pytest.mark.xfail(
    strict=True,
    reason="the kind-(ii) quasi-identity ((x0<->x1 = top) -> x0 = x1) holds in every "
    "Heyting algebra (a<->b = top forces a = b), hence in the three-element chain; "
    "the separation lives in the kind-(iii) axioms, see criterion 6c",
)
def test_criterion_6b_kind_ii_fails_in_h3_as_stated(cpc_axioms):
    h3 = corpus.h3()
    kind2 = next(q for q in cpc_axioms if q.kind == "ii")
    failed = not quasiidentity_holds(h3, kind2.premises, kind2.conclusion)
    report(
        f"ACCEPTANCE 6b: {'PASS' if failed else 'FAIL'} — the criterion expects the "
        f"kind-(ii) quasi-identity to fail in the three-element chain; it holds there "
        f"(as it does in every Heyting algebra), so this clause stays an expected failure"
    )
    assert failed


def test_criterion_6c_separation_via_kind_iii(cpc_axioms):
    failing = [q for q in failing_axioms(corpus.h3(), cpc_axioms) if q.kind == "iii"]
    report(
        f"ACCEPTANCE 6c (supplementary): PASS — {len(failing)} emitted kind-(iii) "
        f"quasi-identities fail in the three-element chain, e.g. {failing[0]!r}; "
        f"the quasivarieties are separated"
    )
    assert failing


def test_criterion_7_category_laws():
    ctx = corpus.classical_context()
    id_src = corpus.identity_context()
    id_tgt = corpus.identity_context(corpus.cpc_logic())
    algebras = [A for _, A in corpus.heyting_corpus()]

    def adjoint_state(c):
        return [(c.adjoint(A).algebra, c.adjoint(A).unit, c.adjoint(A).section) for A in algebras]

    left_unit = compose_contexts(id_tgt, ctx)
    right_unit = compose_contexts(ctx, id_src)
    for composed in (left_unit, right_unit):
        assert composed.h == ctx.h and composed.theta == ctx.theta
        assert adjoint_state(composed) == adjoint_state(ctx)
    g = corpus.cpc_negneg_context()
    k = corpus.cpc_negneg_context()
    one = compose_contexts(k, compose_contexts(g, ctx))
    other = compose_contexts(compose_contexts(k, g), ctx)
    assert one.h == other.h and one.theta == other.theta
    assert adjoint_state(one) == adjoint_state(other)
    report(
        f"ACCEPTANCE 7: PASS — context composition satisfies the unit and "
        f"associativity laws pointwise on all {len(algebras)} corpus algebras"
    )


def test_criterion_8_lindenbaum_property():
    pair = corpus.classical_pair()
    cpc_report = is_lindenbaum(corpus.cpc_logic(), pair, 2, 2)
    ipc_report = is_lindenbaum(corpus.ipc_logic(), pair, 2, 2)
    ok = cpc_report.passed and ipc_report.passed
    report(
        f"ACCEPTANCE 8: {'PASS' if ok else 'FAIL'} — interderivability coincides with "
        f"provable equivalence at vars=2 depth=2 for classical "
        f"({cpc_report.instances} instances) and intuitionistic ({ipc_report.instances}) logic"
    )
    assert cpc_report.passed and ipc_report.passed
