import itertools
from pathlib import Path

import pytest

from aalogic import (
    App,
    GlivenkoContext,
    LogicSpec,
    Matrix,
    Signature,
    Var,
    compose_contexts,
    glivenko_equivalence,
    glivenko_sweep,
    homomorphisms,
    left_adjoint_quotient,
    lind_compatibility_check,
    matrix_compatibility_check,
    qv_membership,
    regular_elements,
    rho_translate,
    section_check,
    unit_map,
    validate_context,
)
from aalogic.algebra import (
    Congruence,
    FiniteAlgebra,
    all_congruences,
    filter_closure,
    find_isomorphism,
    quotient,
    value_vector,
)
from aalogic.corpus import load_algebra, resolve_context
from aalogic.glivenko import AdjointData, adjoint_image, find_adjoint_report
from aalogic.syntax import BUILTIN_SIGNATURE, FlexibleMorphism
from aalogic import corpus, glivenko


@pytest.fixture(scope="module")
def ctx():
    return corpus.classical_context()


@pytest.fixture(scope="module")
def heyting_algebras():
    return corpus.heyting_corpus()


def neg(phi):
    return App("neg", (phi,))


class TestRho:
    def test_double_negation(self, ctx):
        assert rho_translate(ctx, Var(0)) == neg(neg(Var(0)))

    def test_identity_context(self, F):
        ide = corpus.identity_context()
        for text in ("x0", "imp(x0,neg(x1))"):
            assert rho_translate(ide, F(text)) == F(text)

    def test_elementwise(self, ctx, F):
        from aalogic.glivenko import rho_translate_all

        gamma = (F("x0"), F("imp(x0,x1)"))
        assert rho_translate_all(ctx, gamma) == (
            neg(neg(F("x0"))),
            neg(neg(F("imp(x0,x1)"))),
        )

    def test_signature_checked(self, ctx):
        with pytest.raises(ValueError):
            rho_translate(ctx, App("box", (Var(0),)))

    def test_signature_checked_on_every_call(self, F):
        ctx = corpus.classical_context()
        off = App("box", (Var(0),))
        for _ in range(3):
            with pytest.raises(ValueError):
                rho_translate(ctx, off)
            assert rho_translate(ctx, F("imp(x0,x1)")) == neg(neg(F("imp(x0,x1)")))


class TestRegularElements:
    def test_boolean_fixed(self, b2):
        B, emb = regular_elements(b2)
        assert emb == (0, 1)
        assert B == b2

    def test_three_chain(self, h3, b2):
        B, emb = regular_elements(h3)
        assert emb == (0, 2)
        assert find_isomorphism(B, b2) is not None

    def test_four_chain(self, chain4, b2):
        B, emb = regular_elements(chain4)
        assert emb == (0, 3)
        assert find_isomorphism(B, b2) is not None

    def test_rejects_non_heyting(self):
        with pytest.raises(ValueError):
            regular_elements(corpus.lukasiewicz3())

    def test_every_boolean_is_all_regular(self):
        for _, B in corpus.boolean_corpus():
            R, emb = regular_elements(B)
            assert emb == tuple(range(B.size))
            assert R == B


    def test_built_once_per_algebra(self, monkeypatch):
        # separately built algebras, so no other test has filled their memos
        built = []
        algebra_on = glivenko._algebra_on
        monkeypatch.setattr(glivenko, "_algebra_on", lambda A, *args: built.append(A) or algebra_on(A, *args))
        H = corpus.heyting_chain(5)
        assert find_adjoint_report(H).passed
        assert [id(A) for A in built] == [id(H)]
        built.clear()
        algebras = [A for _, A in corpus.heyting_corpus(4)]
        assert section_check(H, algebras) and section_check(algebras[3], algebras)
        assert sorted(id(A) for A in built) == sorted(id(A) for A in algebras)


class TestUnitMap:
    def test_identity_on_boolean(self, b2):
        assert unit_map(b2) == (0, 1)

    def test_three_chain(self, h3):
        assert unit_map(h3) == (0, 1, 1)

    def test_surjective_on_four_chain(self, chain4):
        unit = unit_map(chain4)
        assert set(unit) == {0, 1}

    def test_homomorphism_everywhere(self, heyting_algebras):
        for _, H in heyting_algebras:
            unit_map(H)  # raises if not a surjective homomorphism


def generic_left_adjoint(A: FiniteAlgebra, class_name: str) -> tuple[FiniteAlgebra, tuple[int, ...]]:
    """Reference oracle for the left adjoint: the reflection into a
    quasivariety by congruence-lattice search, the least congruence whose
    quotient lands in the class. Refuses algebras of more than 5 elements."""
    if A.size > 5:
        raise ValueError("generic adjoint search is bounded to size 5")
    candidates = []
    for theta in all_congruences(A):
        Q, proj = quotient(A, theta)
        if qv_membership(class_name, Q):
            candidates.append((theta, Q, proj))
    if not candidates:
        raise ValueError(f"no quotient of the algebra lies in {class_name}")
    least = min(candidates, key=lambda t: A.size - t[0].num_blocks())
    theta, Q, proj = least
    if not all(other.contains(theta) for other, _, _ in candidates):
        raise ValueError("no least congruence with quotient in the class")
    return Q, proj


class TestLeftAdjointQuotient:
    def test_boolean_quotient_is_identity(self, b2):
        Q, proj = left_adjoint_quotient(b2)
        assert Q.size == 2 and proj == (0, 1)

    def test_three_chain(self, h3, b2):
        Q, proj = left_adjoint_quotient(h3)
        assert proj == (0, 1, 1)
        assert find_isomorphism(Q, b2) is not None

    def test_agrees_with_regular_elements_on_corpus(self, heyting_algebras):
        for _, H in heyting_algebras:
            B, _ = regular_elements(H)
            Q, _ = left_adjoint_quotient(H)
            assert find_isomorphism(Q, B) is not None

    def test_rejects_non_heyting(self):
        with pytest.raises(ValueError, match="^the adjoint requires a Heyting algebra$"):
            left_adjoint_quotient(corpus.lukasiewicz3())

    @pytest.mark.parametrize("make_context", [corpus.classical_context, corpus.cpc_negneg_context],
                             ids=["ipc-source", "cpc-source"])
    def test_builtin_source_rejects_non_heyting(self, make_context):
        # checked before the filter closure, which would exhaust its bound on L3
        with pytest.raises(ValueError, match="^the adjoint requires a Heyting algebra$"):
            make_context().adjoint(corpus.lukasiewicz3())

    def test_generic_search_agrees(self, heyting_algebras):
        for _, H in heyting_algebras:
            if H.size > 5:
                continue
            Q, _ = generic_left_adjoint(H, "boolean")
            B, _ = regular_elements(H)
            assert find_isomorphism(Q, B) is not None

    def test_generic_search_bound(self):
        with pytest.raises(ValueError):
            generic_left_adjoint(corpus.heyting_chain(6), "boolean")


class TestAdjunction:
    def test_hom_set_bijection(self, heyting_algebras):
        # precomposition with the unit is a bijection between the hom-sets
        for _, H in heyting_algebras:
            if H.size > 5:
                continue
            B, _ = regular_elements(H)
            unit = unit_map(H)
            for _, C in corpus.boolean_corpus():
                from_regulars = homomorphisms(B, C)
                from_algebra = homomorphisms(H, C)
                precomposed = [tuple(f[unit[a]] for a in H.elements()) for f in from_regulars]
                assert len(set(precomposed)) == len(from_regulars)
                assert sorted(precomposed) == sorted(from_algebra)

    def test_section(self, heyting_algebras, ctx):
        small = [H for _, H in heyting_algebras if H.size <= 4]
        for H in small:
            assert section_check(H, small)


class TestEquivalence:
    def test_peirce(self, ctx, peirce):
        assert glivenko_equivalence(ctx, (), peirce) == (True, True)

    def test_variable(self, ctx, F):
        assert glivenko_equivalence(ctx, (), F("x0")) == (False, False)

    def test_with_premises(self, ctx, F):
        assert glivenko_equivalence(ctx, (F("x0"),), F("neg(neg(x0))")) == (True, True)

    def test_identity_context_trivial(self, F):
        ide = corpus.identity_context()
        left, right = glivenko_equivalence(ide, (F("x0"),), F("x0"))
        assert left and right

    def test_small_sweep(self, ctx):
        report = glivenko_sweep(ctx, 2, 2, 2, seed=5, samples=300)
        assert report.passed
        assert report.exhaustive_checked == 20


class TestFailingSweep:
    """The identity morphism from ipc to cpc with theta = x0 is no Glivenko
    context: cpc proves excluded middle and ipc does not. Over two variables
    the sweep needs depth 3 to see it."""

    @pytest.fixture(scope="class")
    def naive(self):
        return resolve_context("data/naive_context.json")

    def test_depth_2_sees_no_disagreement(self, naive):
        report = glivenko_sweep(naive, 2, 2, 2, seed=7, samples=300)
        assert report.passed and report.checked == 320

    @pytest.mark.parametrize("gamma_size", [0, -1])
    def test_refuses_a_gamma_size_below_one(self, naive, gamma_size):
        with pytest.raises(ValueError, match=f"^a sweep needs gamma_size >= 1, got {gamma_size}$"):
            glivenko_sweep(naive, 2, 2, gamma_size, seed=7, samples=0)

    def test_exhaustive_disagreements(self, naive):
        report = glivenko_sweep(naive, 2, 3, 2, seed=0, samples=0)
        assert (report.universe_size, report.exhaustive_checked, report.sampled_checked) == (1622, 1622, 0)
        assert len(report.disagreements) == 54
        assert report.disagreements[0] == {"gamma": [], "phi": "or(x0,neg(x0))", "left": False, "right": True}
        assert all(d["gamma"] == [] for d in report.disagreements)
        assert report.to_json()["agreement"] == "1568/1622"

    def test_sampled_disagreements_follow_the_exhaustive_ones(self, naive):
        exhaustive = glivenko_sweep(naive, 2, 3, 2, seed=0, samples=0).disagreements
        report = glivenko_sweep(naive, 2, 3, 2, seed=0, samples=2000)
        assert report.disagreements[:54] == exhaustive
        sampled = report.disagreements[54:]
        assert len(sampled) == 53
        # a draw has 1 to gamma_size premises: the exhaustive part is the
        # only one with an empty "gamma"
        assert all(d["gamma"] for d in sampled)
        assert sum(d["gamma"] == [] for d in report.disagreements) == 54
        assert sampled[1] == {"gamma": ["iff(x0,iff(x0,x1))"],
                              "phi": "or(iff(x0,x1),or(x0,x1))", "left": False, "right": True}
        # cpc proves whatever ipc proves, never the other way round
        assert all(not d["left"] and d["right"] for d in report.disagreements)
        assert report.to_json()["agreement"] == "3515/3622"
        assert not report.passed and report.to_json()["passed"] is False

    def test_another_seed_draws_other_samples(self, naive):
        report = glivenko_sweep(naive, 2, 3, 2, seed=7, samples=300)
        assert len(report.disagreements) == 65
        assert all(d["gamma"] for d in report.disagreements[54:])
        assert report.disagreements[54] == {
            "gamma": ["imp(imp(x0,x1),or(x1,x0))"],
            "phi": "or(or(x0,x1),and(x1,x1))", "left": False, "right": True}
        assert report.to_json()["agreement"] == "1857/1922"

    def test_text_lists_the_first_ten_disagreements(self, naive):
        report = glivenko_sweep(naive, 2, 3, 2, seed=0, samples=2000)
        lines = report.to_text().splitlines()
        assert lines[4] == "  agreement: 3515/3622"
        assert lines[5:15] == [f"  disagreement: {d}" for d in report.disagreements[:10]]
        assert lines[15:] == ["overall: FAIL"]


class TestMatrixCompatibility:
    def test_boolean_matrix(self, ctx, b2, peirce):
        assert matrix_compatibility_check(ctx, Matrix(b2, frozenset({1})), (), peirce)

    def test_chain_matrix(self, ctx, h3, peirce):
        assert matrix_compatibility_check(ctx, Matrix(h3, frozenset({2})), (), peirce)

    def test_identity_context(self, h3, F):
        ide = corpus.identity_context()
        M = Matrix(h3, frozenset({2}))
        for text in ("x0", "or(x0,neg(x0))", "imp(x0,x1)"):
            assert matrix_compatibility_check(ide, M, (), F(text))

    def test_rejects_non_heyting(self, ctx, F):
        M = Matrix(corpus.lukasiewicz3(), frozenset({2}))
        with pytest.raises(ValueError, match="^the adjoint requires a Heyting algebra$"):
            matrix_compatibility_check(ctx, M, (), F("x0"))

    @pytest.mark.parametrize("make_context", [corpus.classical_context, corpus.cpc_negneg_context],
                             ids=["ipc-source", "cpc-source"])
    def test_adjoint_image_has_the_adjoint_domain(self, make_context):
        # the adjoint's own Heyting check is the only one on this path, and
        # the identity theta takes any algebra
        M = Matrix(corpus.lukasiewicz3(), frozenset({2}))
        with pytest.raises(ValueError, match="^the adjoint requires a Heyting algebra$"):
            adjoint_image(make_context(), M)
        assert adjoint_image(corpus.identity_context(), M) == M

    def test_exhaustive_small(self, ctx, sig, h3, chain4):
        from aalogic.syntax import enumerate_formulas

        for A in (h3, chain4):
            M = Matrix(A, frozenset({A.size - 1}))
            for phi in enumerate_formulas(sig, 2, 2):
                assert matrix_compatibility_check(ctx, M, (), phi)


class TestLindCompatibility:
    def test_theorem_class(self, ctx, b2, F):
        assert lind_compatibility_check(ctx, b2, (), F("iff(x0,x0)"))

    def test_peirce_class(self, ctx, h3, peirce):
        assert lind_compatibility_check(ctx, h3, (), peirce)

    def test_with_premises(self, ctx, h3, F):
        assert lind_compatibility_check(ctx, h3, (F("x0"),), F("neg(neg(x0))"))

    def test_exhaustive_small(self, ctx, sig, h3):
        from aalogic.syntax import enumerate_formulas

        universe = enumerate_formulas(sig, 2, 2)
        for phi in universe:
            assert lind_compatibility_check(ctx, h3, (), phi)
        for gamma, phi in itertools.islice(itertools.product(universe, universe), 0, 400, 7):
            assert lind_compatibility_check(ctx, h3, (gamma,), phi)

    def test_rejects_non_heyting(self, ctx, F):
        # the adjoint's domain is checked, not left to the filter closure
        with pytest.raises(ValueError, match="^the adjoint requires a Heyting algebra$"):
            lind_compatibility_check(ctx, corpus.lukasiewicz3(), (), F("x0"))

    def test_identity_context_takes_any_algebra(self, F):
        L3 = corpus.lukasiewicz3()
        assert lind_compatibility_check(corpus.identity_context(), L3, (), F("or(x0,neg(x0))"))
        data = corpus.identity_context().adjoint(L3)
        assert data.algebra is L3 and data.unit == data.section == (0, 1, 2)


# ---------------------------------------------------------------------------
# the adjoint computed element by element, as before it ran on value vectors
# ---------------------------------------------------------------------------

def ref_iff_value(A, a, b):
    if "iff" in A.tables:
        return A.op("iff", a, b)
    return A.op("and", A.op("imp", a, b), A.op("imp", b, a))


def ref_negneg(A, a):
    return A.op("neg", A.op("neg", a))


def ref_filter_quotient(H, F):
    pairs = [
        (a, b)
        for a in H.elements()
        for b in range(a + 1, H.size)
        if ref_iff_value(H, a, b) in F
    ]
    theta = Congruence.from_pairs(H.size, pairs)
    for a in H.elements():
        for b in H.elements():
            if theta.related(a, b) != (ref_iff_value(H, a, b) in F):
                raise ValueError("filter does not induce a congruence; algebra is not Heyting enough")
    return quotient(H, theta)


def ref_adjoint_data(ctx, M):
    theta_hat = value_vector(M, ctx.theta, 1)  # theta at x0 = a, for each a
    if ctx.theta == Var(0):
        ident = tuple(M.elements())
        return AdjointData(M, ident, ident)
    seeds = {ref_iff_value(M, a, theta_hat[a]) for a in M.elements()}
    F = filter_closure(ctx.source, M, seeds)
    Q, proj = ref_filter_quotient(M, F)
    section = [None] * Q.size
    for a in M.elements():
        expected = theta_hat[a]
        j = proj[a]
        if section[j] is None:
            section[j] = expected
        elif section[j] != expected:
            raise ValueError("theta does not induce a well-defined section on the quotient")
    for j, s in enumerate(section):
        if proj[s] != j:
            raise ValueError("theta does not induce a section of the unit")
    return AdjointData(Q, proj, tuple(section))


DATA = Path(__file__).resolve().parent.parent / "data"


def _l3_negneg_context():
    l3 = corpus.l3_logic()
    return GlivenkoContext(l3, l3, FlexibleMorphism.identity(BUILTIN_SIGNATURE),
                           App("neg", (App("neg", (Var(0),)),)), name="l3-negneg")


def _iff_tamperings(A):
    """A, then every algebra with one cell of A's iff table changed."""
    out = [A]
    for i, old in enumerate(A.tables["iff"]):
        for v in A.elements():
            if v != old:
                tables = {name: list(t) for name, t in A.tables.items()}
                tables["iff"][i] = v
                out.append(FiniteAlgebra(A.signature, A.size, tables))
    return out


def _outcome(adjoint, M):
    try:
        return adjoint(M)
    except (ValueError, RuntimeError) as e:
        return type(e), str(e)


def _adjoint_domains():
    """Fresh copies of the corpus Heyting algebras and the bundled algebra files."""
    files = [load_algebra(str(DATA / f"{name}.json")) for name in ("B2", "H3", "B4", "chain4")]
    return [A for _, A in corpus.heyting_corpus()] + files


class TestAdjointAgainstReference:
    @pytest.mark.parametrize("make_context", [
        corpus.classical_context,
        corpus.cpc_negneg_context,
        lambda: compose_contexts(corpus.cpc_negneg_context(), corpus.classical_context()),
    ], ids=["classical", "cpc-negneg", "composite"])
    def test_adjoint_data(self, make_context):
        # separately built algebras and contexts, so no memo is shared
        ctx, ref_ctx = make_context(), make_context()
        for A, B in zip(_adjoint_domains(), _adjoint_domains(), strict=True):
            assert ctx.adjoint(A) == ref_adjoint_data(ref_ctx, B)

    def test_matrix_source(self):
        # no Heyting check, and <-> read from the algebra's own iff table
        ctx, ref_ctx = _l3_negneg_context(), _l3_negneg_context()
        outcomes = [
            (_outcome(ctx.adjoint, A), _outcome(lambda M: ref_adjoint_data(ref_ctx, M), B))
            for A, B in zip(_iff_tamperings(corpus.lukasiewicz3()),
                            _iff_tamperings(corpus.lukasiewicz3()), strict=True)
        ]
        assert all(mine == ref for mine, ref in outcomes)
        # L3 itself, an l3 model though not Heyting: the identity quotient
        assert outcomes[0][0] == AdjointData(corpus.lukasiewicz3(), (0, 1, 2), (0, 1, 2))
        kinds = [ref if isinstance(ref, tuple) else ref.algebra.size for _, ref in outcomes]
        assert len(kinds) == 19 and kinds.count(3) == 7
        assert kinds.count((ValueError, "filter does not induce a congruence; algebra is not Heyting enough")) == 6
        assert kinds.count((ValueError, "theta does not induce a well-defined section on the quotient")) == 6

    def test_regular_elements_and_unit(self):
        for A, B in zip(_adjoint_domains(), _adjoint_domains(), strict=True):
            _, emb = regular_elements(A)
            assert emb == tuple(a for a in B.elements() if ref_negneg(B, a) == a)
            assert unit_map(A) == tuple(emb.index(ref_negneg(B, a)) for a in B.elements())


class TestAdjointWithoutIff:
    def test_double_negation_context_over_neg_imp_and_or(self, ctx):
        # with no iff table, x0 <-> x1 is read as the meet of both
        # implications, which is iff on every Heyting algebra
        sig = Signature([("neg", 1), ("imp", 2), ("and", 2), ("or", 2)])
        narrow = GlivenkoContext(LogicSpec.ipc(sig), LogicSpec.cpc(sig), FlexibleMorphism.identity(sig),
                                 glivenko._NEGNEG)
        algebras = corpus.heyting_corpus()
        assert len(algebras) == 10
        for name, A in algebras:
            data = narrow.adjoint(FiniteAlgebra(sig, A.size, {c: A.tables[c] for c in sig.names}))
            full = ctx.adjoint(A)
            assert (data.unit, data.section) == (full.unit, full.section), name
            assert data.algebra.tables == {c: full.algebra.tables[c] for c in sig.names}, name


def _adjoint_equal(c1, c2, algebras):
    for A in algebras:
        d1, d2 = c1.adjoint(A), c2.adjoint(A)
        if (d1.algebra, d1.unit, d1.section) != (d2.algebra, d2.unit, d2.section):
            return False
    return True


class TestComposition:
    def test_unit_laws(self, ctx, heyting_algebras):
        algebras = [H for _, H in heyting_algebras if H.size <= 5]
        left = compose_contexts(corpus.identity_context(corpus.cpc_logic()), ctx)
        right = compose_contexts(ctx, corpus.identity_context())
        for composed in (left, right):
            assert composed.h == ctx.h
            assert composed.theta == ctx.theta
            assert _adjoint_equal(composed, ctx, algebras)

    def test_associativity(self, ctx, heyting_algebras):
        algebras = [H for _, H in heyting_algebras if H.size <= 5]
        g = corpus.cpc_negneg_context()
        k = corpus.cpc_negneg_context()
        one = compose_contexts(k, compose_contexts(g, ctx))
        other = compose_contexts(compose_contexts(k, g), ctx)
        assert one.h == other.h
        assert one.theta == other.theta
        assert _adjoint_equal(one, other, algebras)

    def test_mismatch_rejected(self, ctx):
        with pytest.raises(ValueError):
            compose_contexts(ctx, corpus.cpc_negneg_context())

    def test_section_composition_law(self, ctx, h3, chain4):
        # the composite's section factors through the component sections
        g = corpus.cpc_negneg_context()
        gf = compose_contexts(g, ctx)
        for M in (h3, chain4):
            df = ctx.adjoint(M)
            dg = g.adjoint(df.algebra)
            dgf = gf.adjoint(M)
            for x in M.elements():
                block = dgf.unit[x]
                composite = df.section[dg.section[dg.unit[df.unit[x]]]]
                assert dgf.section[block] == composite

    def test_composed_theta(self, ctx):
        g = corpus.cpc_negneg_context()
        composed = compose_contexts(g, ctx)
        assert composed.theta == neg(neg(neg(neg(Var(0)))))


class TestValidation:
    def test_classical_context_valid(self, ctx):
        report = validate_context(ctx)
        assert report.passed
        assert report.section_equation and report.consequence_preserved

    def test_broken_theta_detected(self):
        pair = corpus.classical_pair()
        from aalogic.syntax import FlexibleMorphism

        cpc = corpus.cpc_logic()
        broken = GlivenkoContext(
            corpus.ipc_logic(), cpc, FlexibleMorphism.identity(cpc.signature),
            neg(Var(0)), source_pair=pair, target_pair=pair, name="broken",
        )
        report = validate_context(broken)
        assert not report.section_equation
        assert not report.passed

    def test_classical_context_report_json(self, ctx):
        assert list(validate_context(ctx).to_json().items()) == [
            ("context", "classical"),
            ("bounds", {"vars": 2, "depth": 3, "limit": 400}),
            ("section_equation", True),
            ("pair_preserved", True),
            ("consequence_preserved", True),
            ("witness", None),
            ("passed", True),
        ]

    def test_identity_from_cpc_to_ipc_does_not_preserve_consequence(self):
        # cpc proves neg(neg(x0)) |- x0 and ipc does not; over x0, x1 no
        # sequent of depth 2 tells the two apart
        pair = corpus.classical_pair()
        cpc = corpus.cpc_logic()
        naive = GlivenkoContext(cpc, corpus.ipc_logic(), FlexibleMorphism.identity(cpc.signature), Var(0),
                                source_pair=pair, target_pair=pair, name="cpc->ipc")
        report = validate_context(naive)
        assert not report.consequence_preserved and not report.passed
        assert report.witness == "consequence not preserved at ['neg(neg(x0))'] |- x0"
        assert report.to_json()["passed"] is False

    def test_a_broken_connective_is_caught_at_its_own_conclusion(self):
        # the identity on cpc except or |-> x0: cpc proves x1 |- or(x0,x1),
        # whose image x1 |- x0 it does not, so the probe has to reach a
        # conclusion other than x0
        pair = corpus.classical_pair()
        cpc = corpus.cpc_logic()
        assignment = FlexibleMorphism.identity(cpc.signature).assignment
        assignment["or"] = Var(0)
        h = FlexibleMorphism(cpc.signature, cpc.signature, assignment)
        report = validate_context(GlivenkoContext(cpc, cpc, h, Var(0), source_pair=pair, target_pair=pair,
                                                  name="or->x0"))
        assert report.section_equation and not report.consequence_preserved and not report.passed
        assert report.witness == "consequence not preserved at ['x1'] |- or(x0,x1)"

    def test_context_file(self, ctx, F):
        loaded = resolve_context("data/classical_context.json")
        assert loaded.theta == ctx.theta
        assert loaded.source.name == "ipc" and loaded.target.name == "cpc"
        assert glivenko_equivalence(loaded, (), F("or(x0,neg(x0))")) == (True, True)
