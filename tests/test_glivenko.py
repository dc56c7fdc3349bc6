import itertools
from pathlib import Path

import pytest

from aalogic import (
    App,
    GlivenkoContext,
    InsLALSentence,
    Matrix,
    Var,
    compose_contexts,
    glivenko_equivalence,
    glivenko_sweep,
    homomorphisms,
    left_adjoint_quotient,
    lind_compatibility_check,
    matrix_compatibility_check,
    regular_elements,
    rho_translate,
    section_check,
    unit_map,
    validate_context,
)
from aalogic.algebra import Congruence, FiniteAlgebra, filter_closure, find_isomorphism, quotient, value_vector
from aalogic.corpus import load_algebra, resolve_context
from aalogic.glivenko import AdjointData, adjoint_image, density_check, generic_left_adjoint
from aalogic.syntax import BUILTIN_SIGNATURE, FlexibleMorphism
from aalogic import corpus


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
        assert off not in ctx._rho_memo


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

    def test_small_sweep(self, ctx, sig4):
        report = glivenko_sweep(ctx, 2, 2, 2, seed=5, samples=300, signature=sig4)
        assert report.passed
        assert report.exhaustive_checked == 16


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
        q = InsLALSentence((), F("iff(x0,x0)"))
        assert lind_compatibility_check(ctx, b2, q)

    def test_peirce_class(self, ctx, h3, peirce):
        q = InsLALSentence((), peirce)
        assert lind_compatibility_check(ctx, h3, q)

    def test_with_premises(self, ctx, h3, F):
        q = InsLALSentence((F("x0"),), F("neg(neg(x0))"))
        assert lind_compatibility_check(ctx, h3, q)

    def test_exhaustive_small(self, ctx, sig, h3):
        from aalogic.syntax import enumerate_formulas

        universe = enumerate_formulas(sig, 2, 2)
        for phi in universe:
            assert lind_compatibility_check(ctx, h3, InsLALSentence((), phi))
        for gamma, phi in itertools.islice(itertools.product(universe, universe), 0, 400, 7):
            assert lind_compatibility_check(ctx, h3, InsLALSentence((gamma,), phi))

    def test_rejects_non_heyting(self, ctx, F):
        # the adjoint's domain is checked, not left to the filter closure
        q = InsLALSentence((), F("x0"))
        with pytest.raises(ValueError, match="^the adjoint requires a Heyting algebra$"):
            lind_compatibility_check(ctx, corpus.lukasiewicz3(), q)

    def test_identity_context_takes_any_algebra(self, F):
        L3 = corpus.lukasiewicz3()
        q = InsLALSentence((), F("or(x0,neg(x0))"))
        assert lind_compatibility_check(corpus.identity_context(), L3, q)
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
            ("bounds", {"vars": 2, "depth": 2, "limit": 400}),
            ("section_equation", True),
            ("pair_preserved", True),
            ("consequence_preserved", True),
            ("witness", None),
            ("passed", True),
        ]

    def test_density(self, ctx):
        found = density_check(ctx, depth=2)
        assert all(phi is not None for phi in found.values())

    def test_context_file(self, ctx, F):
        loaded = resolve_context("data/classical_context.json")
        assert loaded.theta == ctx.theta
        assert loaded.source.name == "ipc" and loaded.target.name == "cpc"
        assert glivenko_equivalence(loaded, (), F("or(x0,neg(x0))")) == (True, True)
