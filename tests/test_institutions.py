import itertools
import random

import pytest

from aalogic import (
    BUILTIN_SIGNATURE,
    AlgebraizingPair,
    FiniteAlgebra,
    FlexibleMorphism,
    GlivenkoContext,
    InsALSentence,
    InsLALSentence,
    LogicSpec,
    Matrix,
    Signature,
    Var,
    class_equal,
    comorphism_plus_check,
    insal_satisfies,
    inslal_satisfies,
    institution_report,
    reduce_matrix,
    reduct,
)
from aalogic.algebraization import qv_membership, tau_consequence
from aalogic.glivenko import adjoint_image, rho_translate, rho_translate_all
from aalogic.institutions import Corpus, InstitutionReport, _pool, _random_sentence
from aalogic.semantics import matrix_satisfies, mod_translate
from aalogic.syntax import enumerate_formulas, print_formula
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


# ---------------------------------------------------------------------------
# the per-kind sampling loops, kept as the oracle of the one pool loop
# ---------------------------------------------------------------------------

def ref_matrix_compatibility_check(ctx: GlivenkoContext, M: Matrix,
                                   gamma_prime, phi_prime,
                                   filter_override: frozenset[int] | None = None,
                                   algebra_override: FiniteAlgebra | None = None) -> bool:
    if ctx.theta != Var(0) and not qv_membership("heyting", M.algebra):
        raise ValueError("the adjoint requires a Heyting algebra")
    gamma_prime = tuple(gamma_prime)
    data = ctx.adjoint(M.algebra)
    image_algebra = algebra_override if algebra_override is not None else data.algebra
    image_filter = (
        filter_override
        if filter_override is not None
        else frozenset(data.unit[a] for a in M.filter)
    )
    left = matrix_satisfies(Matrix(image_algebra, image_filter), gamma_prime, phi_prime)
    right = matrix_satisfies(M, rho_translate_all(ctx, gamma_prime), rho_translate(ctx, phi_prime))
    return left == right


def ref_lind_compatibility_check(ctx: GlivenkoContext, M: FiniteAlgebra, q,
                                 algebra_override: FiniteAlgebra | None = None) -> bool:
    if ctx.source_pair is None or ctx.target_pair is None:
        raise ValueError("context carries no algebraizing pairs")
    data = ctx.adjoint(M)
    image = algebra_override if algebra_override is not None else data.algebra
    left = tau_consequence(
        [M], ctx.source_pair, rho_translate_all(ctx, q.premises), rho_translate(ctx, q.conclusion)
    )
    right = tau_consequence([image], ctx.target_pair, q.premises, q.conclusion)
    return left == right


def ref_institution_report(kind: str, corpus: Corpus, samples: int = 10000, seed: int = 0,
                           num_vars: int = 2, depth: int = 2, gamma_size: int = 2) -> InstitutionReport:
    """Run the satisfaction-condition suite named by ``kind`` over the corpus
    with seeded random sentences; every violation is reported with a witness."""
    if kind not in ("If", "InsAL", "InsLAL"):
        raise ValueError(f"unknown institution kind {kind!r}")
    rng = random.Random(seed)
    config = {"seed": seed, "vars": num_vars, "depth": depth, "gamma_size": gamma_size}
    violations: list[dict] = []
    checked = 0

    if kind == "If":
        # one reduct model (or override) per entry, so its evaluation memo serves every sample
        pool = []
        for mname, h in corpus.morphisms:
            for idx, M in enumerate(corpus.matrices.get(h.target.name, [])):
                override = corpus.reduct_overrides.get((mname, idx))
                model = mod_translate(h, M, check=False) if override is None else Matrix(override, M.filter)
                pool.append((mname, h, idx, M, model))
        if not pool:
            raise ValueError("corpus has no morphism/matrix pairs")
        for i in range(samples):
            mname, h, idx, M, model = pool[i % len(pool)]
            gamma, phi = _random_sentence(rng, h.source.signature, num_vars, depth, gamma_size)
            left = matrix_satisfies(M, tuple(h.translate(g) for g in gamma), h.translate(phi))
            right = matrix_satisfies(model, gamma, phi)
            checked += 1
            if left != right:
                violations.append({
                    "kind": "If",
                    "morphism": mname,
                    "matrix": idx,
                    "gamma": [print_formula(g) for g in gamma],
                    "phi": print_formula(phi),
                    "model_side": left,
                    "translated_side": right,
                })

    elif kind == "InsAL":
        pool = [
            (cname, ctx, idx, M)
            for cname, ctx in corpus.contexts
            for idx, M in enumerate(corpus.reduced_matrices.get(ctx.source.name, []))
        ]
        if not pool:
            raise ValueError("corpus has no context/matrix pairs")
        for i in range(samples):
            cname, ctx, idx, M = pool[i % len(pool)]
            gamma, phi = _random_sentence(rng, ctx.target.signature, num_vars, depth, gamma_size)
            agree = ref_matrix_compatibility_check(
                ctx, M, gamma, phi,
                filter_override=corpus.adjoint_filter_overrides.get((cname, idx)),
                algebra_override=corpus.adjoint_algebra_overrides.get((cname, idx)),
            )
            checked += 1
            if not agree:
                violations.append({
                    "kind": "InsAL",
                    "context": cname,
                    "matrix": idx,
                    "gamma": [print_formula(g) for g in gamma],
                    "phi": print_formula(phi),
                })

    else:
        pool = [
            (cname, ctx, idx, A)
            for cname, ctx in corpus.contexts
            for idx, A in enumerate(corpus.algebras.get(ctx.source.name, []))
        ]
        if not pool:
            raise ValueError("corpus has no context/algebra pairs")
        for i in range(samples):
            cname, ctx, idx, A = pool[i % len(pool)]
            gamma, phi = _random_sentence(rng, ctx.target.signature, num_vars, depth, gamma_size)
            q = InsLALSentence(gamma, phi)
            agree = ref_lind_compatibility_check(
                ctx, A, q,
                algebra_override=corpus.adjoint_algebra_overrides.get((cname, idx)),
            )
            checked += 1
            if not agree:
                violations.append({
                    "kind": "InsLAL",
                    "context": cname,
                    "algebra": idx,
                    "premises": [print_formula(g) for g in gamma],
                    "conclusion": print_formula(phi),
                })

    return InstitutionReport(kind, samples, checked, violations, config)


def outcome(report_fn, kind, c, **kw):
    """The report's JSON and text, or the type and message of what it raised."""
    try:
        report = report_fn(kind, c, **kw)
    except Exception as exc:
        return type(exc), str(exc)
    return report.to_json(), report.to_text()


def assert_same_as_reference(make_corpus, kind, **kw):
    """Both loops on separately built copies of one corpus, so no memo is shared."""
    new = outcome(institution_report, kind, make_corpus(), **kw)
    assert new == outcome(ref_institution_report, kind, make_corpus(), **kw)
    return new


# the benchmark's suites: (kind, samples) on the clean corpus and on the faults
CLEAN_SUITES = (("If", 1000), ("InsAL", 1000), ("InsLAL", 1000))
FAULT_SUITES = (("If", 3000), ("InsAL", 500), ("InsLAL", 500))
CORRUPTED = {
    "If": corpus.corrupted_reduct_corpus,
    "InsAL": corpus.corrupted_adjoint_filter_corpus,
    "InsLAL": corpus.corrupted_adjoint_algebra_corpus,
}


def tamper_algebra(rng, A):
    """A copy of A with one table cell changed."""
    name, _ = rng.choice(A.signature.connectives)
    tables = {n: list(t) for n, t in A.tables.items()}
    cell = rng.randrange(len(tables[name]))
    # a one-element algebra has no other value to write
    tables[name][cell] = rng.choice([v for v in A.elements() if v != tables[name][cell]] or [0])
    return FiniteAlgebra(A.signature, A.size, tables)


def tamper_filter(rng, A, F):
    """F with one element of A added or removed."""
    return frozenset(F) ^ {rng.randrange(A.size)}


def tampered_corpus(seed):
    """The classical corpus with one table cell or one filter element changed:
    in a model, or in a fault override of a derived reduct, image filter or
    image algebra."""
    rng = random.Random(seed)
    c = corpus.classical_corpus()
    ctx = c.contexts[0][1]
    where = rng.choice(["matrices", "reduced_matrices", "algebras", "reduct", "image_filter", "image_algebra"])
    if where in ("matrices", "reduced_matrices"):
        Ms = getattr(c, where)[rng.choice(sorted(getattr(c, where)))]
        idx = rng.randrange(len(Ms))
        A, F = Ms[idx].algebra, Ms[idx].filter
        if rng.random() < 0.5:
            Ms[idx] = Matrix(tamper_algebra(rng, A), F)
        else:
            Ms[idx] = Matrix(A, tamper_filter(rng, A, F))
    elif where == "algebras":
        As = c.algebras["ipc"]
        idx = rng.randrange(len(As))
        As[idx] = tamper_algebra(rng, As[idx])
    elif where == "reduct":
        mname, h = rng.choice(c.morphisms)
        idx = rng.randrange(len(c.matrices[h.target.name]))
        c.reduct_overrides[(mname, idx)] = tamper_algebra(rng, reduct(h.morphism, c.matrices[h.target.name][idx].algebra))
    else:
        idx = rng.randrange(len(c.reduced_matrices["ipc"]))
        image = adjoint_image(ctx, c.reduced_matrices["ipc"][idx])
        if where == "image_filter":
            c.adjoint_filter_overrides[("classical", idx)] = tamper_filter(rng, image.algebra, image.filter)
        else:
            c.adjoint_algebra_overrides[("classical", idx)] = tamper_algebra(rng, image.algebra)
    return c


def with_non_heyting_reduced_matrix():
    c = corpus.classical_corpus()
    c.reduced_matrices["ipc"].append(Matrix(corpus.lukasiewicz3(), frozenset({2})))
    return c


def with_non_heyting_algebra():
    c = corpus.classical_corpus()
    c.algebras["ipc"].append(corpus.lukasiewicz3())
    return c


def with_context_without_pairs():
    c = corpus.classical_corpus()
    ctx = c.contexts[0][1]
    c.contexts.append(("bare", GlivenkoContext(ctx.source, ctx.target, ctx.h, ctx.theta, name="bare")))
    return c


def with_matrix_off_the_signature():
    c = corpus.classical_corpus()
    c.matrices["cpc"].append(Matrix(FiniteAlgebra(Signature([("neg", 1)]), 2, {"neg": [1, 0]}), {1}))
    return c


class TestPoolLoopAgainstReference:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_benchmark_suites(self, seed):
        for kind, samples in CLEAN_SUITES:
            report, _ = assert_same_as_reference(corpus.classical_corpus, kind, samples=samples, seed=seed)
            assert report["passed"] and report["checked"] == samples
            # every kind on every corrupted corpus; InsAL on the collapsed
            # image algebra raises (its image filter is out of range)
            for make_corpus in CORRUPTED.values():
                assert_same_as_reference(make_corpus, kind, samples=samples, seed=seed)
        for kind, samples in FAULT_SUITES:
            report, _ = assert_same_as_reference(CORRUPTED[kind], kind, samples=samples, seed=seed)
            assert report["violations"]

    def test_tampered_corpora(self):
        # If meets a tampered reduct cell rarely, hence its larger sample
        samples = {"If": 1500, "InsAL": 300, "InsLAL": 300}
        shows = dict.fromkeys(samples, 0)
        for seed in range(24):
            for kind, n in samples.items():
                result = assert_same_as_reference(lambda: tampered_corpus(seed), kind, samples=n, seed=seed)
                shows[kind] += not isinstance(result[0], dict) or not result[0]["passed"]
        # the tampering is seen by every kind: a violation or an error
        assert all(shows.values()), shows

    @pytest.mark.parametrize("make_corpus, kind, first_bad, message", [
        # the bad entry is the pool's last: reduced matrix 4, or context "bare"
        # after the eight algebras of "classical"
        (with_non_heyting_reduced_matrix, "InsAL", 4, "the adjoint requires a Heyting algebra"),
        (with_context_without_pairs, "InsLAL", 8, "context carries no algebraizing pairs"),
        # the ninth algebra, L3, has no double-negation adjoint
        (with_non_heyting_algebra, "InsLAL", 8, "the adjoint requires a Heyting algebra"),
        # a reduct is built with the pool, so it raises before any sample
        (with_matrix_off_the_signature, "If", 0, "algebra is not over the morphism's target signature"),
        # the collapsed image algebra of classical/1 keeps the unit's image of
        # the filter, which is out of its range; raised where beta(M) is built
        (corpus.corrupted_adjoint_algebra_corpus, "InsAL", 1, "filter element out of range"),
    ])
    def test_error_corpora(self, make_corpus, kind, first_bad, message):
        for samples in sorted({-3, 0, first_bad, first_bad + 1, 200}):
            result = assert_same_as_reference(make_corpus, kind, samples=samples, seed=5)
            if samples > first_bad or first_bad == 0:
                assert result == (ValueError, message)
            else:
                assert result[0]["passed"]

    def test_translated_side_raises_first(self, sig2):
        # the one deliberate difference: a sentence that makes both sides
        # raise reports the translated side's error, as If and InsLAL did,
        # where the InsAL loop evaluated the image side first
        h = FlexibleMorphism(sig2, BUILTIN_SIGNATURE, {"neg": Var(0), "imp": Var(1)})
        ctx = GlivenkoContext(LogicSpec.ipc(sig2), LogicSpec.cpc(), h, Var(0), name="wide")
        A = FiniteAlgebra(sig2, 2, {"neg": [1, 0], "imp": [1, 1, 0, 1]})
        c = Corpus(contexts=[("wide", ctx)], reduced_matrices={"ipc": [Matrix(A, {1})]})
        assert outcome(institution_report, "InsAL", c, samples=50) == (
            ValueError, "formula is not over the shared signature")
        assert outcome(ref_institution_report, "InsAL", c, samples=50) == (
            ValueError, "connective or not interpreted in this algebra")

    def test_empty_pools(self):
        for kind in ("If", "InsAL", "InsLAL"):
            result = assert_same_as_reference(Corpus, kind, samples=10)
            assert result[0] is ValueError and result[1].startswith("corpus has no")

    def test_unknown_kind(self):
        assert assert_same_as_reference(corpus.classical_corpus, "bogus")[0] is ValueError


# ---------------------------------------------------------------------------
# the per-entry certificates that decide which entries are evaluated
# ---------------------------------------------------------------------------

def certificates(kind, c):
    """Each pool entry's labels, evaluation sides and certificate; beta(M)
    and its certificate are None where building beta(M) raises."""
    out = []
    for labels, signature, model, translate, build_image in _pool(kind, c):
        try:
            image_satisfies, certified = build_image()
        except ValueError:
            image_satisfies = certified = None
        out.append((labels, signature, model, translate, image_satisfies, certified))
    return out


def failed_certificates(kind, c):
    return [labels for labels, *_, certified in certificates(kind, c) if not certified]


def disagreements(signature, model, translate, image_satisfies):
    """Every sentence over x0, x1 of depth at most 2 with at most one
    premise, decided on both sides by direct evaluation, with no sampling."""
    universe = enumerate_formulas(signature, 2, 2)
    return [
        (gamma, phi)
        for phi in universe
        for gamma in [()] + [(g,) for g in universe]
        if model(tuple(map(translate, gamma)), translate(phi)) != image_satisfies(gamma, phi)
    ]


class TestCertificates:
    @pytest.mark.parametrize("kind", ["If", "InsAL", "InsLAL"])
    def test_clean_entries_are_certified_and_agree_on_every_sentence(self, kind):
        entries = certificates(kind, corpus.classical_corpus())
        assert len(entries) == {"If": 15, "InsAL": 4, "InsLAL": 8}[kind]
        for labels, signature, model, translate, image_satisfies, certified in entries:
            assert certified is True, labels
            assert disagreements(signature, model, translate, image_satisfies) == [], labels

    def test_certificates_fail_exactly_on_the_tampered_entries(self):
        assert failed_certificates("If", corpus.corrupted_reduct_corpus()) == [
            {"kind": "If", "morphism": "inclusion", "matrix": 0}]
        assert failed_certificates("InsAL", corpus.corrupted_adjoint_filter_corpus()) == [
            {"kind": "InsAL", "context": "classical", "matrix": 1}]
        assert failed_certificates("InsLAL", corpus.corrupted_adjoint_algebra_corpus()) == [
            {"kind": "InsLAL", "context": "classical", "algebra": 1}]

    def test_every_violating_entry_has_a_failed_certificate(self):
        samples = {"If": 1500, "InsAL": 300, "InsLAL": 300}
        caught = 0
        for seed in range(24):
            for kind, n in samples.items():
                try:
                    report = ref_institution_report(kind, tampered_corpus(seed), samples=n, seed=seed)
                except ValueError:
                    continue
                failed = failed_certificates(kind, tampered_corpus(seed))
                for v in report.violations:
                    assert any(labels.items() <= v.items() for labels in failed), (seed, v)
                caught += bool(report.violations)
        assert caught

    def test_certified_tampered_entries_agree_on_every_sentence(self):
        # a tampered model or override that is still certified satisfies the
        # condition at every sentence; entries equal to the clean corpus's
        # are covered by the test on the clean corpus
        checked = 0
        for seed in range(24):
            for kind in ("If", "InsAL", "InsLAL"):
                clean = certificates(kind, corpus.classical_corpus())
                for entry, clean_entry in zip(certificates(kind, tampered_corpus(seed)), clean):
                    labels, signature, model, translate, image_satisfies, certified = entry
                    if certified and (model.args, image_satisfies.args) != (clean_entry[2].args, clean_entry[4].args):
                        assert disagreements(signature, model, translate, image_satisfies) == [], (seed, labels)
                        checked += 1
        assert checked
