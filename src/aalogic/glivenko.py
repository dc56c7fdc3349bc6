"""Double-negation style translation contexts between logics: the fixed
formula inducing the syntactic translation, the per-algebra left adjoint
(regular elements / generated-filter quotient), sections, the translation
equivalence, matrix- and class-level compatibility checks and context
composition."""

from __future__ import annotations

import itertools
import random
from dataclasses import asdict, dataclass
from typing import Iterable, Optional, Sequence

from .algebra import (
    Congruence,
    FiniteAlgebra,
    _remember,
    all_congruences,
    filter_closure,
    filter_rows,
    find_isomorphism,
    homomorphisms,
    is_homomorphism,
    quotient,
    value_vector,
)
from .algebraization import (
    AlgebraizingPair,
    class_equal,
    qv_membership,
    tau_consequence,
)
from .semantics import LogicMorphism, LogicSpec, Matrix, consequence, matrix_satisfies
from .syntax import (
    App,
    FlexibleMorphism,
    Formula,
    Var,
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
        self._adjoint_cache: dict[FiniteAlgebra, AdjointData] = {}
        self._rho_memo: dict[Formula, Formula] = {}  # rho_translate's, per interned node

    @classmethod
    def identity(cls, logic: LogicSpec, pair: AlgebraizingPair | None = None) -> "GlivenkoContext":
        return cls(
            logic, logic, FlexibleMorphism.identity(logic.signature), Var(0),
            source_pair=pair, target_pair=pair, name=f"id_{logic.name}",
        )

    def translate_formula(self, phi: Formula) -> Formula:
        return extend_morphism(self.h, phi)

    def adjoint(self, M: FiniteAlgebra) -> "AdjointData":
        data = self._adjoint_cache.get(M)
        if data is None:
            data = _remember(self._adjoint_cache, M, _adjoint_data(self, M))
        return data

    def __repr__(self):
        return f"GlivenkoContext({self.name}, theta={print_formula(self.theta)})"


def rho_translate(ctx: GlivenkoContext, phi_prime: Formula) -> Formula:
    """Substitute the sentence into the context's fixed formula, memoised on
    the context; only formulas over the source signature are remembered."""
    out = ctx._rho_memo.get(phi_prime)
    if out is None:
        if not formula_over(ctx.source.signature, phi_prime):
            raise ValueError("formula is not over the shared signature")
        out = _remember(ctx._rho_memo, phi_prime, substitute(ctx.theta, {0: phi_prime}))
    return out


def rho_translate_all(ctx: GlivenkoContext, gamma: Iterable[Formula]) -> tuple[Formula, ...]:
    return tuple(rho_translate(ctx, g) for g in gamma)


# ---------------------------------------------------------------------------
# the concrete left adjoint on Heyting algebras
# ---------------------------------------------------------------------------

def regular_elements(H: FiniteAlgebra) -> tuple[FiniteAlgebra, tuple[int, ...]]:
    """The double-negation fixed points, as a Boolean algebra: meet,
    implication and negation are inherited, join(a,b) is the double negation
    of the inherited join. Also returns the embedding (new index -> element)."""
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


def unit_map(H: FiniteAlgebra) -> tuple[int, ...]:
    """a |-> not not a, as a surjective homomorphism onto the regular-element
    algebra (indices of that algebra)."""
    B, emb = regular_elements(H)
    index = {a: i for i, a in enumerate(emb)}
    unit = tuple(index[b] for b in value_vector(H, _NEGNEG, 1))
    if not is_homomorphism(H, B, unit):
        raise ValueError("double negation is not a homomorphism; encoding is broken")
    if set(unit) != set(range(B.size)):
        raise ValueError("unit map is not surjective; encoding is broken")
    return unit


def left_adjoint_quotient(H: FiniteAlgebra) -> tuple[FiniteAlgebra, tuple[int, ...]]:
    """The double-negation context's adjoint at H: the quotient of H by the
    filter generated by all a <-> not not a, with the quotient map.
    Isomorphic to the regular-element algebra."""
    from .corpus import classical_context  # corpus imports this module

    data = classical_context().adjoint(H)
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


@dataclass(frozen=True)
class AdjointData:
    """Per-algebra data of the adjoint induced by a context: the value algebra,
    the unit a -> [a], and a section of the unit."""

    algebra: FiniteAlgebra
    unit: tuple[int, ...]
    section: tuple[int, ...]


def _adjoint_data(ctx: GlivenkoContext, M: FiniteAlgebra) -> AdjointData:
    """The quotient of M by the source-logic filter generated by the values of
    x0 <-> theta. Unless theta is x0, a built-in (cpc or ipc) source needs M
    Heyting: its theorems close no filter on other algebras."""
    theta_hat = value_vector(M, ctx.theta, 1)  # theta at x0 = a, for each a
    if ctx.theta == Var(0):
        ident = tuple(M.elements())
        return AdjointData(M, ident, ident)
    if ctx.source.kind in ("cpc", "ipc") and not qv_membership("heyting", M):
        raise ValueError("the adjoint requires a Heyting algebra")
    F = filter_closure(ctx.source, M, value_vector(M, _iff(M, Var(0), ctx.theta), 1))
    Q, proj = _filter_quotient(M, F)
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


def section_check(H: FiniteAlgebra, corpus: Sequence[FiniteAlgebra] = ()) -> bool:
    """The inclusion of regular elements is a section of the unit, and the
    section squares with every homomorphism into a corpus algebra."""
    B, emb = regular_elements(H)
    unit = unit_map(H)
    if any(unit[emb[j]] != j for j in range(B.size)):
        return False
    for H2 in corpus:
        B2, emb2 = regular_elements(H2)
        unit2 = unit_map(H2)
        for f in homomorphisms(H, H2):
            for j in range(B.size):
                if f[emb[j]] != emb2[unit2[f[emb[j]]]]:
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


def matrix_compatibility_check(ctx: GlivenkoContext, M: Matrix,
                               gamma_prime: Iterable[Formula], phi_prime: Formula) -> bool:
    """Whether the adjoint image matrix satisfies the sentence exactly when the
    original matrix satisfies the translated sentence."""
    gamma_prime = tuple(gamma_prime)
    left = matrix_satisfies(adjoint_image(ctx, M), gamma_prime, phi_prime)
    right = matrix_satisfies(M, rho_translate_all(ctx, gamma_prime), rho_translate(ctx, phi_prime))
    return left == right


def lind_compatibility_check(ctx: GlivenkoContext, M: FiniteAlgebra, q) -> bool:
    """Whether M satisfies the translated quasi-equation sentence exactly when
    the adjoint image satisfies the original one. ``q`` must expose .premises
    and .conclusion formulas over the shared signature."""
    if ctx.source_pair is None or ctx.target_pair is None:
        raise ValueError("context carries no algebraizing pairs")
    image = ctx.adjoint(M).algebra
    left = tau_consequence(
        [M], ctx.source_pair, rho_translate_all(ctx, q.premises), rho_translate(ctx, q.conclusion)
    )
    right = tau_consequence([image], ctx.target_pair, q.premises, q.conclusion)
    return left == right


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

@dataclass
class ContextReport:
    context: str
    bounds: dict
    section_equation: bool
    pair_preserved: Optional[bool]
    consequence_preserved: bool
    witness: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.section_equation and self.consequence_preserved and self.pair_preserved is not False

    def to_json(self) -> dict:
        return {**asdict(self), "passed": self.passed}

    def to_text(self) -> str:
        lines = [f"context {self.context} (bounded checks, bounds={self.bounds})"]
        lines.append(f"  section equation: {'pass' if self.section_equation else 'FAIL'}")
        if self.pair_preserved is not None:
            lines.append(f"  pair preservation: {'pass' if self.pair_preserved else 'FAIL'}")
        lines.append(f"  consequence preservation: {'pass' if self.consequence_preserved else 'FAIL'}")
        if self.witness:
            lines.append(f"  witness: {self.witness}")
        lines.append("overall: " + ("pass" if self.passed else "FAIL"))
        return "\n".join(lines)


def validate_context(ctx: GlivenkoContext, num_vars: int = 2, depth: int = 2,
                     limit: int = 400) -> ContextReport:
    """Necessary conditions only, at the stated bounds: the section equation
    x0 ~ h(theta) in the target, preservation of the equivalence formulas, and
    consequence preservation on bounded entailments."""
    report = ContextReport(ctx.name, {"vars": num_vars, "depth": depth, "limit": limit}, True, None, True)
    if ctx.target_pair is not None:
        image = ctx.translate_formula(ctx.theta)
        report.section_equation = class_equal(ctx.target, ctx.target_pair, Var(0), image)
        if not report.section_equation:
            report.witness = f"x0 not equivalent to {print_formula(image)} in {ctx.target.name}"
    if ctx.source_pair is not None and ctx.target_pair is not None:
        x0, x1 = Var(0), Var(1)
        image_delta = tuple(
            ctx.translate_formula(substitute(d, {0: x0, 1: x1})) for d in ctx.source_pair.delta
        )
        target_delta = tuple(substitute(d, {0: x0, 1: x1}) for d in ctx.target_pair.delta)
        report.pair_preserved = all(
            ctx.target.proves(target_delta, d) for d in image_delta
        ) and all(ctx.target.proves(image_delta, d) for d in target_delta)
    morphism = LogicMorphism(ctx.source, ctx.target, ctx.h)
    violation = morphism.preserves_consequence(num_vars, depth, limit=limit)
    report.consequence_preserved = violation is None
    if violation is not None:
        gamma, phi = violation
        report.witness = f"consequence not preserved at {[print_formula(g) for g in gamma]} |- {print_formula(phi)}"
    return report


def density_check(ctx: GlivenkoContext, depth: int = 3, limit: int = 4000) -> dict[str, Optional[Formula]]:
    """Bounded search: for each target connective, a source formula whose
    translation is target-equivalent to it. Incomplete by nature; a None value
    means nothing was found within the bounds, not that nothing exists."""
    if ctx.target_pair is None:
        raise ValueError("density check needs the target's equivalence formulas")
    out: dict[str, Optional[Formula]] = {}
    for name, arity in ctx.target.signature.connectives:
        goal = App(name, tuple(Var(i) for i in range(arity)))
        found = None
        count = 0
        for phi in enumerate_formulas(ctx.source.signature, max(arity, 1), depth):
            count += 1
            if count > limit:
                break
            image = ctx.translate_formula(phi)
            if class_equal(ctx.target, ctx.target_pair, goal, image):
                found = phi
                break
        out[name] = found
    return out


@dataclass
class AdjointReport:
    algebra_size: int
    regular_size: int
    quotient_size: int
    isomorphic: bool
    section_ok: bool
    hom_counts: list[dict]

    @property
    def passed(self) -> bool:
        return self.isomorphic and self.section_ok and all(h["equal"] for h in self.hom_counts)

    def to_json(self) -> dict:
        return {
            "algebra_size": self.algebra_size,
            "regular_elements": self.regular_size,
            "quotient_size": self.quotient_size,
            "isomorphic": self.isomorphic,
            "section_ok": self.section_ok,
            "hom_counts": self.hom_counts,
            "passed": self.passed,
        }

    def to_text(self) -> str:
        lines = [
            f"adjoint report for a Heyting algebra of size {self.algebra_size}",
            f"  regular elements: {self.regular_size}",
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

    B, emb = regular_elements(H)
    Q, _proj = left_adjoint_quotient(H)
    iso = find_isomorphism(Q, B) is not None
    unit = unit_map(H)
    section_ok = all(unit[emb[j]] == j for j in range(B.size))
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
    return AdjointReport(H.size, B.size, Q.size, iso, section_ok, hom_counts)


@dataclass
class SweepReport:
    context: str
    bounds: dict
    universe_size: int
    exhaustive_checked: int
    sampled_checked: int
    disagreements: list[dict]

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
                   seed: int, samples: int, signature=None) -> SweepReport:
    """Exhaustive empty-premise sweep over the bounded formula universe plus
    seeded sampled premise sets; records every left/right disagreement."""
    sig = signature or ctx.target.signature
    universe = enumerate_formulas(sig, num_vars, depth)
    disagreements: list[dict] = []
    exhaustive = 0
    for phi in universe:
        left, right = glivenko_equivalence(ctx, (), phi)
        exhaustive += 1
        if left != right:
            disagreements.append({"gamma": [], "phi": print_formula(phi), "left": left, "right": right})
    rng = random.Random(seed)
    sampled = 0
    for _ in range(samples):
        gamma = tuple(rng.choice(universe) for _ in range(rng.randrange(gamma_size + 1)))
        phi = rng.choice(universe)
        left, right = glivenko_equivalence(ctx, gamma, phi)
        sampled += 1
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
        exhaustive,
        sampled,
        disagreements,
    )


def generic_left_adjoint(A: FiniteAlgebra, class_name: str, bound: int = 5) -> tuple[FiniteAlgebra, tuple[int, ...]]:
    """Experimental reflection into a quasivariety by congruence-lattice
    search: the least congruence whose quotient lands in the class."""
    if A.size > bound:
        raise ValueError(f"generic adjoint search is bounded to size {bound}")
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
