import itertools
import json
import os
import random
import subprocess
import sys
from collections import namedtuple

import pytest

from aalogic import (
    BUILTIN_SIGNATURE,
    AlgebraizingPair,
    FiniteAlgebra,
    FlexibleMorphism,
    GlivenkoContext,
    LogicSpec,
    Matrix,
    Signature,
    Var,
    class_equal,
    institution_report,
    is_reduced,
    matrix_compatibility_check,
    reduce_matrix,
    reduct,
)
from aalogic.algebraization import qv_membership, tau_consequence
from aalogic.glivenko import _tau_holds, adjoint_image, rho_translate, rho_translate_all
from aalogic.institutions import Corpus, InstitutionReport, _pool, _random_sentence
from aalogic.semantics import identity_morphism, if_condition, matrix_satisfies
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
    """InsAL's relation on a reduced matrix is matrix satisfaction."""

    def test_trivial(self, b2, F):
        M = Matrix(b2, frozenset({1}))
        assert matrix_satisfies(M, (F("x0"),), F("x0"))

    def test_peirce_on_boolean(self, b2, peirce):
        M = Matrix(b2, frozenset({1}))
        assert matrix_satisfies(M, (), peirce)

    def test_peirce_fails_on_chain(self, h3, peirce):
        M = Matrix(h3, frozenset({2}))
        assert not matrix_satisfies(M, (), peirce)

    def test_rejects_non_reduced(self, h3, F):
        M = Matrix(h3, frozenset({1, 2}))
        with pytest.raises(ValueError, match="^matrix is not reduced$"):
            matrix_compatibility_check(corpus.classical_context(), M, (), F("x0"))

    def test_representative_independence(self, cpc, pair, b2, sig):
        # swapping any representative for a class-equal one leaves satisfaction
        # unchanged (exhaustive at two variables, depth two)
        M = Matrix(b2, frozenset({1}))
        universe = enumerate_formulas(sig, 2, 2)
        for phi, psi in itertools.combinations(universe, 2):
            if class_equal(cpc, pair, phi, psi):
                for gamma in ((), (universe[0],)):
                    assert matrix_satisfies(M, gamma, phi) == matrix_satisfies(M, gamma, psi)
                assert matrix_satisfies(M, (phi,), universe[1]) == matrix_satisfies(M, (psi,), universe[1])


class TestInsLAL:
    """InsLAL's relation is the quasi-equation consequence of the defining
    equations."""

    def test_theorem_class(self, b2, pair, F):
        assert tau_consequence([b2], pair, (), F("iff(x0,x0)"))

    def test_peirce_fails_on_chain(self, h3, pair, peirce):
        assert not tau_consequence([h3], pair, (), peirce)

    def test_double_negation_from_premise(self, b2, pair, F):
        assert tau_consequence([b2], pair, (F("x0"),), F("neg(neg(x0))"))

    def test_pair_swap_invariance(self, b2, h3, pair, sig, F):
        split = AlgebraizingPair(
            [F("imp(x0,x1)"), F("imp(x1,x0)")], [(F("imp(x0,x0)"), F("x0"))]
        )
        universe = enumerate_formulas(sig, 2, 2)
        for A in (b2, h3):
            for phi in universe:
                assert tau_consequence([A], pair, (), phi) == tau_consequence([A], split, (), phi)
            for gamma, phi in itertools.islice(itertools.product(universe, universe), 0, 400, 11):
                assert tau_consequence([A], pair, (gamma,), phi) == tau_consequence([A], split, (gamma,), phi)

    def test_representative_independence(self, cpc, pair, b2, sig):
        universe = enumerate_formulas(sig, 2, 2)
        for phi, psi in itertools.combinations(universe, 2):
            if class_equal(cpc, pair, phi, psi):
                assert tau_consequence([b2], pair, (), phi) == tau_consequence([b2], pair, (), psi)


class TestComorphismPlus:
    """Filter membership agrees with the defining equations exactly on
    reduced matrices: the elements where the equations hold are the filter."""

    def test_true_valuation(self, b2, pair):
        assert 1 in _tau_holds(pair, b2)

    def test_false_valuation(self, b2, pair):
        assert 0 not in _tau_holds(pair, b2)

    def test_reduced_matrices_always_agree(self, pair, h3, chain4, b4):
        for A, F_ in [(h3, {1, 2}), (chain4, {2, 3}), (b4, {1, 3})]:
            B, image = reduce_matrix(A, F_)
            assert _tau_holds(pair, B) == image

    def test_non_reduced_violation_found(self, h3, pair):
        # 1 is in the filter {1, 2}, but the equations hold only at the top
        assert not is_reduced(h3, {1, 2})
        assert _tau_holds(pair, h3) == {2}


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

    def test_fault_reports_do_not_depend_on_the_hash_seed(self):
        # the benchmark's fault suites at seed 0, each in a fresh process:
        # the entries' string-seeded streams are the same under any hash seed
        suites = [(kind, CORRUPTED[kind].__name__, samples) for kind, samples in FAULT_SUITES]
        probe = ("import json\nfrom aalogic import corpus, institution_report\n"
                 "print(json.dumps([institution_report(kind, getattr(corpus, make)(), samples=n, seed=0).to_json()"
                 f" for kind, make, n in {suites!r}]))")
        outputs = [
            subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                           env=dict(os.environ, PYTHONHASHSEED=seed)).stdout
            for seed in ("0", "1")
        ]
        assert outputs[0] == outputs[1]
        reports = json.loads(outputs[0])
        assert [r["kind"] for r in reports] == ["If", "InsAL", "InsLAL"]
        assert all(r["violations"] for r in reports)

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


class CountingRandom(random.Random):
    """A Random that counts the calls of its drawing methods. Defining both
    random() and getrandbits() keeps randrange on the base class's draws."""

    calls = 0

    def random(self):
        self.calls += 1
        return super().random()

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)

    def randrange(self, *args):
        self.calls += 1
        return super().randrange(*args)


class TestDrawsOnlyWhatIsEvaluated:
    def counted(self, monkeypatch, kind, c, **kw):
        """The report, and the seed and RNG calls of each stream the suite built."""
        made = []
        monkeypatch.setattr(random, "Random", lambda seed: made.append((seed, CountingRandom(seed))) or made[-1][1])
        report = institution_report(kind, c, **kw)
        monkeypatch.undo()
        return report, {seed: rng.calls for seed, rng in made}

    @pytest.mark.parametrize("kind", ["If", "InsAL", "InsLAL"])
    def test_an_all_certified_suite_builds_no_stream(self, monkeypatch, kind):
        report, streams = self.counted(monkeypatch, kind, corpus.classical_corpus(), samples=1000, seed=4)
        assert report.passed and report.checked == 1000
        assert streams == {}

    @pytest.mark.parametrize("kind", ["If", "InsAL", "InsLAL"])
    def test_only_a_failed_entry_that_a_sample_reaches_builds_a_stream(self, monkeypatch, kind):
        # the patch reaches the suite's generators, which count their draws
        # and leave the report as it is
        entries = certificates(kind, CORRUPTED[kind]())
        [failed] = [j for j, (*_, certified) in enumerate(entries) if not certified]
        for samples in (failed, failed + 1, 300):
            report, streams = self.counted(monkeypatch, kind, CORRUPTED[kind](), samples=samples, seed=4)
            expected = institution_report(kind, CORRUPTED[kind](), samples=samples, seed=4)
            assert report.to_json() == expected.to_json()
            # one stream, seeded by the entry's index; at least gamma's size
            # and phi's variable per sample of the entry
            reached = len(range(failed, samples, len(entries)))
            assert streams.keys() == ({f"4:{failed}"} if reached else set())
            assert all(calls >= 2 * reached for calls in streams.values())

    @pytest.mark.parametrize("bounds", [{"num_vars": 0}, {"num_vars": -2}, {"gamma_size": -1},
                                        {"num_vars": 2.5}, {"num_vars": 2.0}, {"gamma_size": 1.5}])
    @pytest.mark.parametrize("kind", ["If", "InsAL", "InsLAL"])
    def test_bounds_the_draw_refuses_are_refused_up_front(self, kind, bounds):
        # the clean corpus would pass without a draw, a fault corpus would
        # raise at its first draw and an empty corpus when its pool is
        # built: the bounds are refused before any of these
        for make_corpus in (corpus.classical_corpus, CORRUPTED[kind], Corpus):
            for samples in (0, 10):
                with pytest.raises(ValueError, match="^sentences need integers num_vars >= 1 and gamma_size >= 0"):
                    institution_report(kind, make_corpus(), samples=samples, **bounds)


# ---------------------------------------------------------------------------
# the per-kind sampling loops, kept as the oracle of the one pool loop
# ---------------------------------------------------------------------------

InsLALSentence = namedtuple("InsLALSentence", "premises conclusion")


def ref_matrix_compatibility_check(ctx: GlivenkoContext, M: Matrix,
                                   gamma_prime, phi_prime,
                                   filter_override: frozenset[int] | None = None,
                                   algebra_override: FiniteAlgebra | None = None) -> bool:
    if not is_reduced(M.algebra, M.filter):
        raise ValueError("matrix is not reduced")
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
    with seeded random sentences, each pool entry drawing from its own
    stream, and evaluate every entry at every sample; every violation is
    reported with a witness."""
    if kind not in ("If", "InsAL", "InsLAL"):
        raise ValueError(f"unknown institution kind {kind!r}")
    config = {"seed": seed, "vars": num_vars, "depth": depth, "gamma_size": gamma_size}
    violations: list[dict] = []
    checked = 0
    streams = {}

    def draw(i, signature):
        """Sample i's sentence, from the stream of pool entry i mod the pool size."""
        j = i % len(pool)
        if j not in streams:
            streams[j] = random.Random(f"{seed}:{j}")
        return _random_sentence(streams[j], signature, num_vars, depth, gamma_size)

    if kind == "If":
        # one reduct model (or override) per entry, so its evaluation memo serves every sample
        pool = []
        for mname, h in corpus.morphisms:
            for idx, M in enumerate(corpus.matrices.get(h.target.name, [])):
                override = corpus.overrides.get(("If", mname, idx))
                model = Matrix(reduct(h.morphism, M.algebra), M.filter) if override is None else override
                pool.append((mname, h, idx, M, model))
        if not pool:
            raise ValueError("corpus has no morphism/matrix pairs")
        for i in range(samples):
            mname, h, idx, M, model = pool[i % len(pool)]
            gamma, phi = draw(i, h.source.signature)
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
            gamma, phi = draw(i, ctx.target.signature)
            override = corpus.overrides.get(("InsAL", cname, idx))
            agree = ref_matrix_compatibility_check(
                ctx, M, gamma, phi,
                filter_override=None if override is None else override.filter,
                algebra_override=None if override is None else override.algebra,
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
            gamma, phi = draw(i, ctx.target.signature)
            q = InsLALSentence(gamma, phi)
            agree = ref_lind_compatibility_check(
                ctx, A, q,
                algebra_override=corpus.overrides.get(("InsLAL", cname, idx)),
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
    in a model, or in a fault override of an If reduct, an InsAL image
    matrix (its algebra or its filter) or an InsLAL image algebra."""
    rng = random.Random(seed)
    c = corpus.classical_corpus()
    ctx = c.contexts[0][1]
    where = rng.choice(["matrices", "reduced_matrices", "algebras", "reduct", "image_matrix", "image_algebra"])
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
        M = c.matrices[h.target.name][idx]
        c.overrides[("If", mname, idx)] = Matrix(tamper_algebra(rng, reduct(h.morphism, M.algebra)), M.filter)
    elif where == "image_matrix":
        idx = rng.randrange(len(c.reduced_matrices["ipc"]))
        image = adjoint_image(ctx, c.reduced_matrices["ipc"][idx])
        if rng.random() < 0.5:
            c.overrides[("InsAL", "classical", idx)] = Matrix(tamper_algebra(rng, image.algebra), image.filter)
        else:
            c.overrides[("InsAL", "classical", idx)] = Matrix(image.algebra, tamper_filter(rng, image.algebra, image.filter))
    else:
        idx = rng.randrange(len(c.algebras["ipc"]))
        c.overrides[("InsLAL", "classical", idx)] = tamper_algebra(rng, ctx.adjoint(c.algebras["ipc"][idx]).algebra)
    return c


def with_non_heyting_reduced_matrix():
    c = corpus.classical_corpus()
    c.reduced_matrices["ipc"].append(Matrix(corpus.lukasiewicz3(), frozenset({2})))
    return c


def with_non_reduced_matrix():
    # B4 with the filter of one atom: the Leibniz congruence identifies that
    # atom with the top
    c = corpus.classical_corpus()
    c.reduced_matrices["ipc"].append(Matrix(corpus.b4(), frozenset({1, 3})))
    return c


def with_non_heyting_algebra():
    c = corpus.classical_corpus()
    c.algebras["ipc"].append(corpus.lukasiewicz3())
    return c


def with_overridden_non_heyting_models():
    """L3 as the last reduced matrix and the last algebra, each with an
    override of its image: the adjoint is built all the same, and refuses L3."""
    c = with_non_heyting_algebra()
    c.reduced_matrices["ipc"].append(Matrix(corpus.lukasiewicz3(), frozenset({2})))
    image = adjoint_image(c.contexts[0][1], c.reduced_matrices["ipc"][0])
    c.overrides[("InsAL", "classical", 4)] = image
    c.overrides[("InsLAL", "classical", 8)] = image.algebra
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
            # every kind on every corrupted corpus
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
        # a matrix that is not reduced is refused before its adjoint is built
        (with_non_reduced_matrix, "InsAL", 4, "matrix is not reduced"),
        (with_context_without_pairs, "InsLAL", 8, "context carries no algebraizing pairs"),
        # the ninth algebra, L3, has no double-negation adjoint
        (with_non_heyting_algebra, "InsLAL", 8, "the adjoint requires a Heyting algebra"),
        # an override of the image does not spare the adjoint's refusal
        (with_overridden_non_heyting_models, "InsAL", 4, "the adjoint requires a Heyting algebra"),
        (with_overridden_non_heyting_models, "InsLAL", 8, "the adjoint requires a Heyting algebra"),
        # a reduct is built with the pool, so it raises before any sample
        (with_matrix_off_the_signature, "If", 0, "algebra is not over the morphism's target signature"),
    ])
    def test_error_corpora(self, make_corpus, kind, first_bad, message):
        for samples in sorted({-3, 0, first_bad, first_bad + 1, 200}):
            result = assert_same_as_reference(make_corpus, kind, samples=samples, seed=5)
            if samples > first_bad or first_bad == 0:
                assert result == (ValueError, message)
            else:
                assert result[0]["passed"]

    def test_non_reduced_matrix_is_refused_by_insal_only(self, F):
        M = with_non_reduced_matrix().reduced_matrices["ipc"][4]
        with pytest.raises(ValueError, match="^matrix is not reduced$"):
            matrix_compatibility_check(corpus.classical_context(), M, (), F("x0"))
        # InsLAL's models are the corpus's algebras, which the matrix is not
        result = assert_same_as_reference(with_non_reduced_matrix, "InsLAL", samples=200, seed=5)
        assert result[0]["passed"]

    def test_an_override_replaces_only_its_own_entry(self):
        # the InsLAL override of classical/1 collapses the adjoint algebra of
        # algebras[1]; InsAL's entry 1 is reduced_matrices[1], another model,
        # and keeps its own image
        result = assert_same_as_reference(corpus.corrupted_adjoint_algebra_corpus, "InsAL", samples=200, seed=5)
        assert result[0]["passed"]
        entries = certificates("InsAL", corpus.corrupted_adjoint_algebra_corpus())
        assert len(entries) == 4 and all(certified for *_, certified in entries)

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
            ValueError, "connective iff not interpreted in this algebra")

    def test_narrow_source_is_evaluated_in_full(self, sig2, F):
        # entries over the built-in signature, in a context whose source is
        # ipc over {neg, imp}: the unit is a surjective homomorphism onto each
        # image, but a target sentence with and/or/iff is no source sentence,
        # so the certificate fails and the translation raises as in full
        # evaluation, at the same sample (the second at seed 18)
        def narrow_corpus():
            clean = corpus.classical_corpus()
            h = FlexibleMorphism(sig2, BUILTIN_SIGNATURE, {"neg": F("neg(x0)"), "imp": F("imp(x0,x1)")})
            ctx = GlivenkoContext(LogicSpec.ipc(sig2), LogicSpec.cpc(), h, F("neg(neg(x0))"),
                                  source_pair=corpus.classical_pair(), target_pair=corpus.classical_pair(),
                                  name="narrow")
            return Corpus(contexts=[("narrow", ctx)], reduced_matrices=clean.reduced_matrices,
                          algebras=clean.algebras)

        for kind in ("InsAL", "InsLAL"):
            assert not any(certified for *_, certified in certificates(kind, narrow_corpus()))
            results = [assert_same_as_reference(narrow_corpus, kind, samples=n, seed=18) for n in range(8)]
            assert all(report["passed"] for report, _ in results[:2])
            assert results[2:] == [(ValueError, "formula is not over the shared signature")] * 6

    def test_a_certificate_that_raises_fails_its_entry(self, b2):
        # the identity on cpc at B2 with its connectives listed in reverse:
        # the reduct refuses an algebra over another signature, so the
        # override's certificate raises, the entry has failed, and its samples
        # evaluate both sides, by connective name
        reverse = Signature(reversed(BUILTIN_SIGNATURE.connectives))
        M = Matrix(FiniteAlgebra(reverse, 2, b2.tables), {1})

        def make_corpus():
            return Corpus(morphisms=[("id", identity_morphism(corpus.cpc_logic()))], matrices={"cpc": [M]},
                          overrides={("If", "id", 0): Matrix(b2, {1})})

        _relation, certificate = if_condition(identity_morphism(corpus.cpc_logic()), M, Matrix(b2, {1}))[2]()
        with pytest.raises(ValueError, match="^algebra is not over the morphism's target signature$"):
            certificate()
        assert failed_certificates("If", make_corpus()) == [{"kind": "If", "morphism": "id", "matrix": 0}]
        result = assert_same_as_reference(make_corpus, "If", samples=30, seed=1)
        assert result[0]["passed"] and result[0]["checked"] == 30

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
