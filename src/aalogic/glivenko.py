"""Double-negation style translation contexts between logics: the fixed
formula inducing the syntactic translation, the per-algebra left adjoint
(regular elements / generated-filter quotient), sections, the translation
equivalence, the satisfaction conditions of InsAL and InsLAL with their
per-sentence compatibility checks, and context composition."""

from __future__ import annotations

import itertools
import random
from functools import partial
from typing import Iterable, Optional, Sequence

from .algebra import (
    Congruence,
    FiniteAlgebra,
    _algebra_on,
    _invariant,
    filter_closure,
    filter_rows,
    find_isomorphism,
    homomorphisms,
    is_homomorphism,
    is_reduced,
    quotient,
    value_vector,
)
from .algebraization import (
    AlgebraizingPair,
    class_equal,
    qv_membership,
    tau_consequence,
)
from .semantics import LogicMorphism, LogicSpec, Matrix, _agrees, consequence, matrix_satisfies
from .syntax import (
    App,
    FlexibleMorphism,
    Formula,
    Var,
    _frozen,
    _value_eq,
    _value_hash,
    compose_morphisms,
    enumerate_formulas,
    extend_morphism,
    formula_over,
    print_formula,
    substitute,
    variables,
)

_NEGNEG = App("neg", (App("neg", (Var(0),)),))


def _iff(A: FiniteAlgebra, phi: Formula, psi: Formula) -> Formula:
    """phi <-> psi: iff when A interprets it, else the meet of both implications.
    The two agree on Heyting algebras, but an adjoint over a matrix source
    may see an algebra (say L3 with a changed iff cell) where they differ."""
    if "iff" in A.tables:
        return App("iff", (phi, psi))
    return App("and", (App("imp", (phi, psi)), App("imp", (psi, phi))))


class GlivenkoContext:
    """A translation morphism h between two logics together with a fixed
    one-variable formula theta; theta induces the syntactic section
    phi' |-> theta[phi'] and, per algebra, the unit/section data of the
    induced adjoint."""

    def __init__(self, source: LogicSpec, target: LogicSpec, h: FlexibleMorphism,
                 theta: Formula, source_pair: AlgebraizingPair | None = None,
                 target_pair: AlgebraizingPair | None = None, name: str | None = None):
        if h.source != source.signature or h.target != target.signature:
            raise ValueError("morphism signatures do not match the logics")
        if not variables(theta) <= {0}:
            raise ValueError("theta must be a formula in at most x0")
        if not formula_over(source.signature, theta):
            raise ValueError("theta must be over the source signature")
        self.source = source
        self.target = target
        self.h = h
        self.theta = theta
        self.source_pair = source_pair
        self.target_pair = target_pair
        self.name = name or f"{source.name}->{target.name}"

    @classmethod
    def identity(cls, logic: LogicSpec, pair: AlgebraizingPair | None = None) -> "GlivenkoContext":
        return cls(
            logic, logic, FlexibleMorphism.identity(logic.signature), Var(0),
            source_pair=pair, target_pair=pair, name=f"id_{logic.name}",
        )

    def adjoint(self, M: FiniteAlgebra) -> "AdjointData":
        return _adjoint_data(self.source, self.theta, M)

    def __repr__(self):
        return f"GlivenkoContext({self.name}, theta={print_formula(self.theta)})"


def rho_translate(ctx: GlivenkoContext, phi_prime: Formula) -> Formula:
    """Substitute the sentence into the context's fixed formula, which must
    be a formula over the source signature. Nothing is kept on the context:
    the result is an interned node, built afresh on every call."""
    if not formula_over(ctx.source.signature, phi_prime):
        raise ValueError("formula is not over the shared signature")
    return substitute(ctx.theta, {0: phi_prime})


def rho_translate_all(ctx: GlivenkoContext, gamma: Iterable[Formula]) -> tuple[Formula, ...]:
    return tuple(rho_translate(ctx, g) for g in gamma)


# ---------------------------------------------------------------------------
# the concrete left adjoint on Heyting algebras
# ---------------------------------------------------------------------------

def _regular_adjoint(H: FiniteAlgebra) -> AdjointData:
    """The regular-element algebra, the unit onto it and the embedding, kept in H's memo."""
    def compute(H: FiniteAlgebra) -> AdjointData:
        if not qv_membership("heyting", H):
            raise ValueError("not a Heyting algebra")
        negneg = value_vector(H, _NEGNEG, 1)
        regs = tuple(a for a in H.elements() if negneg[a] == a)
        index = {a: i for i, a in enumerate(regs)}
        unit = tuple(index[b] for b in negneg)
        B = _algebra_on(H, regs, unit)
        if not qv_membership("boolean", B):
            raise ValueError("regular elements did not form a Boolean algebra; encoding is broken")
        if not is_homomorphism(H, B, unit):
            raise ValueError("double negation is not a homomorphism; encoding is broken")
        return AdjointData(B, unit, regs)
    return _invariant(H, ("regular_elements",), compute)


def regular_elements(H: FiniteAlgebra) -> tuple[FiniteAlgebra, tuple[int, ...]]:
    """The double-negation fixed points, as a Boolean algebra: the algebra
    built at the regular elements with the projection a |-> not not a, so each
    operation is the inherited one followed by double negation. On a Heyting
    algebra this changes only join: meet, implication and negation keep the
    regular elements. Also returns the embedding (new index -> element)."""
    data = _regular_adjoint(H)
    return data.algebra, data.section


def unit_map(H: FiniteAlgebra) -> tuple[int, ...]:
    """a |-> not not a, as a homomorphism onto the regular-element algebra
    (indices of that algebra). It is onto by construction: each regular
    element is its own double negation."""
    return _regular_adjoint(H).unit


def left_adjoint_quotient(H: FiniteAlgebra) -> tuple[FiniteAlgebra, tuple[int, ...]]:
    """The double-negation context's adjoint at H: the quotient of H by the
    filter generated by all a <-> not not a, with the quotient map.
    Isomorphic to the regular-element algebra."""
    data = _adjoint_data(LogicSpec.ipc(), _NEGNEG, H)
    return data.algebra, data.unit


def _filter_quotient(H: FiniteAlgebra, F: frozenset[int]) -> tuple[FiniteAlgebra, tuple[int, ...]]:
    """The quotient by {(a, b) : a <-> b in F}, read off the rows (a, b) of
    the frame x0, x1."""
    rows = filter_rows(H, F, _iff(H, Var(0), Var(1)), 0b11)
    pairs = [divmod(r, H.size) for r in range(H.size ** 2)]
    theta = Congruence.from_pairs(H.size, [p for r, p in enumerate(pairs) if rows >> r & 1])
    if any(theta.related(a, b) != bool(rows >> r & 1) for r, (a, b) in enumerate(pairs)):
        raise ValueError("filter does not induce a congruence; algebra is not Heyting enough")
    return quotient(H, theta)


class AdjointData:
    """Per-algebra data of the adjoint induced by a context: the value algebra,
    the unit a -> [a], and a section of the unit."""

    __slots__ = ("algebra", "unit", "section")
    __setattr__ = __delattr__ = _frozen
    __eq__, __hash__ = _value_eq, _value_hash

    def __init__(self, algebra: FiniteAlgebra, unit: tuple[int, ...], section: tuple[int, ...]):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "section", section)

    def __reduce__(self):
        return AdjointData, (self.algebra, self.unit, self.section)


def _adjoint_data(source: LogicSpec, theta: Formula, M: FiniteAlgebra) -> AdjointData:
    """The quotient of M by the source-logic filter generated by the values of
    x0 <-> theta, kept in M's memo per (source, theta); theta = x0 gives M
    itself, kept nowhere. Otherwise a built-in (cpc or ipc) source needs M
    Heyting: its theorems close no filter on other algebras."""
    if theta == Var(0):
        ident = tuple(M.elements())
        return AdjointData(M, ident, ident)

    def compute(M: FiniteAlgebra) -> AdjointData:
        theta_hat = value_vector(M, theta, 1)  # theta at x0 = a, for each a
        if source.kind in ("cpc", "ipc") and not qv_membership("heyting", M):
            raise ValueError("the adjoint requires a Heyting algebra")
        F = filter_closure(source, M, value_vector(M, _iff(M, Var(0), theta), 1))
        Q, proj = _filter_quotient(M, F)
        section: dict[int, int] = {}  # block -> theta at each of its elements
        for a in M.elements():
            if section.setdefault(proj[a], theta_hat[a]) != theta_hat[a]:
                raise ValueError("theta does not induce a well-defined section on the quotient")
        if any(proj[s] != j for j, s in section.items()):
            raise ValueError("theta does not induce a section of the unit")
        return AdjointData(Q, proj, tuple(section[j] for j in range(Q.size)))
    return _invariant(M, ("adjoint", source, theta), compute)


def section_check(H: FiniteAlgebra, corpus: Sequence[FiniteAlgebra] = ()) -> bool:
    """The inclusion of regular elements is a section of the unit, and the
    section squares with every homomorphism into a corpus algebra."""
    B, emb = regular_elements(H)
    unit = unit_map(H)
    if any(unit[emb[j]] != j for j in range(B.size)):
        return False
    for H2 in corpus:
        _B2, emb2 = regular_elements(H2)
        unit2 = unit_map(H2)
        if any(f[a] != emb2[unit2[f[a]]] for f in homomorphisms(H, H2) for a in emb):
            return False
    return True


# ---------------------------------------------------------------------------
# the translation equivalence and the induced compatibility checks
# ---------------------------------------------------------------------------

def glivenko_equivalence(ctx: GlivenkoContext, gamma_prime: Iterable[Formula],
                         phi_prime: Formula) -> tuple[bool, bool]:
    """(source proves translated sentence, target proves sentence); the two
    agree for a valid context."""
    gamma_prime = tuple(gamma_prime)
    left = consequence(ctx.source, rho_translate_all(ctx, gamma_prime), rho_translate(ctx, phi_prime))
    right = consequence(ctx.target, gamma_prime, phi_prime)
    return left, right


def adjoint_image(ctx: GlivenkoContext, M: Matrix) -> Matrix:
    """The adjoint image matrix: the adjoint's value algebra of M's algebra,
    with the unit's image of M's filter. Raises ``ValueError`` where
    ``ctx.adjoint`` refuses M's algebra."""
    data = ctx.adjoint(M.algebra)
    return Matrix(data.algebra, frozenset(data.unit[a] for a in M.filter))


def _unit_certificate(ctx: GlivenkoContext, A: FiniteAlgebra, designated: frozenset,
                      image: FiniteAlgebra, image_designated: frozenset) -> bool:
    """The paper's lemma for a context: the adjoint's unit u is a surjective
    homomorphism from A onto the image over the target signature, and
    theta^A(a) is designated in A exactly when u(a) is designated in the
    image. Then for every sentence and valuation v into A, theta(phi) is
    designated at v exactly when phi is designated at u.v, and the u.v are
    every valuation into the image. The lemma also needs theta(phi) to be a
    source sentence for every target sentence phi, so the source signature
    must extend the target's; where it does not, a translation may raise."""
    sig = ctx.target.signature
    unit = ctx.adjoint(A).unit
    theta = value_vector(A, ctx.theta, 1)
    return (
        ctx.source.signature.extends(sig)
        and A.signature.extends(sig) and image.signature.extends(sig)
        and set(unit) == set(image.elements())
        and is_homomorphism(A, image, unit, sig)
        and all((theta[a] in designated) == (unit[a] in image_designated) for a in A.elements())
    )


def _tau_holds(pair: AlgebraizingPair, A: FiniteAlgebra) -> frozenset[int]:
    """The elements at which every defining equation of the pair holds; the
    equations are in x0 alone."""
    sides = [(value_vector(A, lhs, 1), value_vector(A, rhs, 1)) for lhs, rhs in pair.tau]
    return frozenset(a for a in A.elements() if all(l[a] == r[a] for l, r in sides))


def insal_condition(ctx: GlivenkoContext, M: Matrix, beta: Matrix | None = None) -> tuple:
    """The satisfaction condition of InsAL at the reduced matrix M, as
    (model, translate, image): model(gamma, phi) decides M |= gamma |- phi,
    translate is ``rho_translate``, and image() gives beta(M)'s relation and
    its certificate, a thunk. image() refuses M unless it is reduced, then
    builds the adjoint, which refuses an algebra outside its domain, also
    where beta(M) is given; beta(M) is the given matrix, or else the adjoint
    image matrix. The certificate is ``_unit_certificate`` on the filters."""
    def image():
        if not is_reduced(M.algebra, M.filter):
            raise ValueError("matrix is not reduced")
        paper = adjoint_image(ctx, M)
        beta_M = paper if beta is None else beta
        return (partial(matrix_satisfies, beta_M),
                lambda: _unit_certificate(ctx, M.algebra, M.filter, beta_M.algebra, beta_M.filter))
    return partial(matrix_satisfies, M), partial(rho_translate, ctx), image


def inslal_condition(ctx: GlivenkoContext, A: FiniteAlgebra, beta: FiniteAlgebra | None = None) -> tuple:
    """The satisfaction condition of InsLAL at the algebra A, as
    (model, translate, image): model(gamma, phi) decides the quasi-equation
    tau(gamma) => tau(phi) in A under the source pair, translate is
    ``rho_translate``, and image() gives beta(M)'s relation, the same under
    the target pair, and its certificate, a thunk. image() refuses a context
    without algebraizing pairs, then builds the adjoint, also where beta(M)
    is given; beta(M) is the given algebra, or else the adjoint's value
    algebra. The certificate is ``_unit_certificate`` on the elements where
    each pair's defining equations hold."""
    def image():
        if ctx.source_pair is None or ctx.target_pair is None:
            raise ValueError("context carries no algebraizing pairs")
        paper = ctx.adjoint(A).algebra
        beta_A = paper if beta is None else beta
        return (partial(tau_consequence, [beta_A], ctx.target_pair),
                lambda: _unit_certificate(ctx, A, _tau_holds(ctx.source_pair, A),
                                          beta_A, _tau_holds(ctx.target_pair, beta_A)))
    return partial(tau_consequence, [A], ctx.source_pair), partial(rho_translate, ctx), image


def matrix_compatibility_check(ctx: GlivenkoContext, M: Matrix,
                               gamma_prime: Iterable[Formula], phi_prime: Formula) -> bool:
    """Whether the adjoint image matrix satisfies the sentence exactly when the
    original matrix, which must be reduced, satisfies the translated
    sentence."""
    return _agrees(insal_condition(ctx, M), gamma_prime, phi_prime)


def lind_compatibility_check(ctx: GlivenkoContext, A: FiniteAlgebra,
                             gamma_prime: Iterable[Formula], phi_prime: Formula) -> bool:
    """Whether A satisfies the translated quasi-equation sentence exactly when
    the adjoint image satisfies the original one."""
    return _agrees(inslal_condition(ctx, A), gamma_prime, phi_prime)


def compose_contexts(g: GlivenkoContext, f: GlivenkoContext) -> GlivenkoContext:
    """Composite context along f then g; the fixed formula composes by
    substitution and the morphisms by extension."""
    if f.target != g.source:
        raise ValueError("target/source mismatch")
    return GlivenkoContext(
        f.source,
        g.target,
        compose_morphisms(g.h, f.h),
        substitute(f.theta, {0: g.theta}),
        source_pair=f.source_pair,
        target_pair=g.target_pair,
        name=f"{g.name}.{f.name}",
    )


# ---------------------------------------------------------------------------
# bounded validity reporting
# ---------------------------------------------------------------------------

class ContextReport:
    __slots__ = ("context", "bounds", "section_equation", "pair_preserved", "consequence_preserved", "witness")

    def __init__(self, context: str, bounds: dict, section_equation: bool, pair_preserved: Optional[bool],
                 consequence_preserved: bool, witness: Optional[str] = None):
        self.context, self.bounds, self.section_equation = context, bounds, section_equation
        self.pair_preserved, self.consequence_preserved, self.witness = pair_preserved, consequence_preserved, witness

    @property
    def passed(self) -> bool:
        return self.section_equation and self.consequence_preserved and self.pair_preserved is not False

    def to_json(self) -> dict:
        return {**{name: getattr(self, name) for name in self.__slots__}, "passed": self.passed}


def validate_context(ctx: GlivenkoContext) -> ContextReport:
    """Necessary conditions only: the section equation x0 ~ h(theta) in the
    target, preservation of the equivalence formulas, and consequence
    preservation on bounded entailments, at the fixed bounds of
    ``LogicMorphism.preserves_consequence``: 2 variables, depth 3, the first
    400 sequents."""
    report = ContextReport(ctx.name, {"vars": 2, "depth": 3, "limit": 400}, True, None, True)
    if ctx.target_pair is not None:
        image = extend_morphism(ctx.h, ctx.theta)
        report.section_equation = class_equal(ctx.target, ctx.target_pair, Var(0), image)
        if not report.section_equation:
            report.witness = f"x0 not equivalent to {print_formula(image)} in {ctx.target.name}"
    if ctx.source_pair is not None and ctx.target_pair is not None:
        image_delta = tuple(extend_morphism(ctx.h, d) for d in ctx.source_pair.delta)
        target_delta = ctx.target_pair.delta
        report.pair_preserved = all(
            ctx.target.proves(target_delta, d) for d in image_delta
        ) and all(ctx.target.proves(image_delta, d) for d in target_delta)
    morphism = LogicMorphism(ctx.source, ctx.target, ctx.h)
    violation = morphism.preserves_consequence()
    report.consequence_preserved = violation is None
    if violation is not None:
        gamma, phi = violation
        report.witness = f"consequence not preserved at {[print_formula(g) for g in gamma]} |- {print_formula(phi)}"
    return report


class AdjointReport:
    __slots__ = ("algebra_size", "regular_elements", "quotient_size", "isomorphic", "section_ok", "hom_counts")

    def __init__(self, algebra_size: int, regular_elements: int, quotient_size: int, isomorphic: bool,
                 section_ok: bool, hom_counts: list[dict]):
        self.algebra_size, self.regular_elements, self.quotient_size = algebra_size, regular_elements, quotient_size
        self.isomorphic, self.section_ok, self.hom_counts = isomorphic, section_ok, hom_counts

    @property
    def passed(self) -> bool:
        return self.isomorphic and self.section_ok and all(h["equal"] for h in self.hom_counts)

    def to_json(self) -> dict:
        return {**{name: getattr(self, name) for name in self.__slots__}, "passed": self.passed}

    def to_text(self) -> str:
        lines = [
            f"adjoint report for a Heyting algebra of size {self.algebra_size}",
            f"  regular elements: {self.regular_elements}",
            f"  generated-filter quotient: {self.quotient_size} "
            f"({'isomorphic to the regular elements' if self.isomorphic else 'NOT isomorphic'})",
            f"  unit/section check: {'pass' if self.section_ok else 'FAIL'}",
        ]
        for h in self.hom_counts:
            lines.append(
                f"  homs into Boolean '{h['boolean']}': from regulars {h['from_regulars']}, "
                f"from the algebra {h['from_algebra']} "
                f"({'bijective via the unit' if h['equal'] else 'MISMATCH'})"
            )
        lines.append("overall: " + ("pass" if self.passed else "FAIL"))
        return "\n".join(lines)


def find_adjoint_report(H: FiniteAlgebra) -> AdjointReport:
    """Regular elements vs generated-filter quotient, the section law, and the
    hom-set bijection against the bundled Boolean algebras."""
    from .corpus import boolean_corpus  # corpus imports this module

    B, _emb = regular_elements(H)
    Q, _proj = left_adjoint_quotient(H)
    iso = find_isomorphism(Q, B) is not None
    unit = unit_map(H)
    hom_counts = []
    for name, C in boolean_corpus():
        from_reg = homomorphisms(B, C)
        from_alg = homomorphisms(H, C)
        precomposed = {tuple(f[unit[a]] for a in H.elements()) for f in from_reg}
        hom_counts.append({
            "boolean": name,
            "from_regulars": len(from_reg),
            "from_algebra": len(from_alg),
            "equal": len(from_reg) == len(from_alg) and precomposed == set(map(tuple, from_alg)),
        })
    return AdjointReport(H.size, B.size, Q.size, iso, section_check(H), hom_counts)


class SweepReport:
    __slots__ = ("context", "bounds", "universe_size", "exhaustive_checked", "sampled_checked", "disagreements")

    def __init__(self, context: str, bounds: dict, universe_size: int, exhaustive_checked: int,
                 sampled_checked: int, disagreements: list[dict]):
        self.context, self.bounds, self.universe_size = context, bounds, universe_size
        self.exhaustive_checked, self.sampled_checked = exhaustive_checked, sampled_checked
        self.disagreements = disagreements

    @property
    def passed(self) -> bool:
        return not self.disagreements

    @property
    def checked(self) -> int:
        return self.exhaustive_checked + self.sampled_checked

    def to_json(self) -> dict:
        return {
            "context": self.context,
            "bounds": self.bounds,
            "universe_size": self.universe_size,
            "exhaustive_checked": self.exhaustive_checked,
            "sampled_checked": self.sampled_checked,
            "agreement": f"{self.checked - len(self.disagreements)}/{self.checked}",
            "disagreements": self.disagreements,
            "passed": self.passed,
        }

    def to_text(self) -> str:
        lines = [
            f"translation equivalence sweep for context {self.context}",
            f"  bounds: vars={self.bounds['vars']} depth={self.bounds['depth']} "
            f"gamma_size={self.bounds['gamma_size']} seed={self.bounds['seed']} "
            f"samples={self.bounds['samples']}",
            f"  universe: {self.universe_size} formulas",
            f"  checked: {self.exhaustive_checked} exhaustive (empty premises) "
            f"+ {self.sampled_checked} sampled instances",
            f"  agreement: {self.checked - len(self.disagreements)}/{self.checked}",
        ]
        for d in self.disagreements[:10]:
            lines.append(f"  disagreement: {d}")
        lines.append("overall: " + ("pass" if self.passed else "FAIL"))
        return "\n".join(lines)


def glivenko_sweep(ctx: GlivenkoContext, num_vars: int, depth: int, gamma_size: int,
                   seed: int, samples: int) -> SweepReport:
    """Exhaustive empty-premise sweep over the bounded formula universe of
    the target signature plus seeded sampled premise sets of 1 to
    ``gamma_size`` formulas (the exhaustive part already covers the empty
    one); records every left/right disagreement."""
    if gamma_size < 1:
        raise ValueError(f"a sweep needs gamma_size >= 1, got {gamma_size!r}")
    universe = enumerate_formulas(ctx.target.signature, num_vars, depth)
    rng = random.Random(seed)
    # each draw: gamma's size, then gamma, then phi
    draws = ((tuple(rng.choice(universe) for _ in range(rng.randrange(gamma_size) + 1)), rng.choice(universe))
             for _ in range(samples))
    disagreements: list[dict] = []
    for gamma, phi in itertools.chain((((), phi) for phi in universe), draws):
        left, right = glivenko_equivalence(ctx, gamma, phi)
        if left != right:
            disagreements.append({
                "gamma": [print_formula(g) for g in gamma],
                "phi": print_formula(phi),
                "left": left,
                "right": right,
            })
    return SweepReport(
        ctx.name,
        {"vars": num_vars, "depth": depth, "gamma_size": gamma_size, "seed": seed, "samples": samples},
        len(universe),
        len(universe),
        max(samples, 0),
        disagreements,
    )
