"""Finite-sample satisfaction-condition checkers for the three institution
flavours: plain matrix semantics over flexible morphisms, reduced-matrix
semantics over translation contexts, and quasi-equation semantics over
translation contexts. Reports are seeded and deterministic. Every sample
draws its sentence, but only entries whose certificate failed translate
and evaluate it; a certified entry satisfies the condition at every
sentence, and its translation cannot raise."""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from functools import partial

from .algebra import FiniteAlgebra, evaluate, is_homomorphism, is_reduced, value_vector
from .algebraization import AlgebraizingPair, qv_membership, tau_consequence, tau_translate
from .glivenko import GlivenkoContext, adjoint_image, rho_translate
from .semantics import (
    LogicMorphism,
    LogicSpec,
    Matrix,
    matrix_satisfies,
    mod_translate,
)
from .syntax import Formula, print_formula, random_formula


@dataclass(frozen=True)
class InsALSentence:
    """A finite premise set and a conclusion, read up to provable equivalence."""

    gamma: frozenset[Formula]
    phi: Formula


@dataclass(frozen=True)
class InsLALSentence:
    """A quasi-equation sentence stored by its generating sequence of
    formula-class representatives."""

    premises: tuple[Formula, ...]
    conclusion: Formula


def insal_satisfies(M: Matrix, s: InsALSentence, logic: LogicSpec | None = None) -> bool:
    """Matrix satisfaction computed on representatives; only lawful on reduced
    matrices over the logic's quasivariety (checked for the builtins)."""
    if not is_reduced(M.algebra, M.filter):
        raise ValueError("matrix is not reduced")
    if logic is not None and logic.kind in ("cpc", "ipc"):
        cls = "boolean" if logic.kind == "cpc" else "heyting"
        if not qv_membership(cls, M.algebra):
            raise ValueError(f"algebra is not in the {cls} quasivariety")
    return matrix_satisfies(M, tuple(s.gamma), s.phi)


def inslal_satisfies(M: FiniteAlgebra, q: InsLALSentence, pair: AlgebraizingPair) -> bool:
    """Every valuation equating the defining equations of all premises equates
    those of the conclusion."""
    return tau_consequence([M], pair, q.premises, q.conclusion)


def comorphism_plus_check(M: Matrix, pair: AlgebraizingPair, phi: Formula,
                          v: dict[int, int]) -> bool:
    """Agreement of filter membership with the defining equations at one
    valuation; holds on every reduced matrix."""
    left = evaluate(M.algebra, phi, v) in M.filter
    right = all(
        evaluate(M.algebra, eq.lhs, v) == evaluate(M.algebra, eq.rhs, v)
        for eq in tau_translate(pair, phi)
    )
    return left == right


# ---------------------------------------------------------------------------
# corpora and reports
# ---------------------------------------------------------------------------

@dataclass
class Corpus:
    """Explicit finite data standing in for the proper classes the theory
    quantifies over. ``overrides`` is for fault injection: keyed by a pool
    entry's labels (kind, morphism or context name, model index), a value
    replaces that entry's whole beta(M) in ``institution_report`` (a
    ``Matrix`` for If and InsAL, a ``FiniteAlgebra`` for InsLAL) where it
    would be built (an InsAL or InsLAL entry still builds its adjoint, so a
    model the adjoint refuses raises either way). The entry's certificate
    reads beta(M) with the override applied, so a tampered entry fails its
    certificate unless the tampering keeps the paper's lemma true, and only
    failed entries are evaluated."""

    logics: dict[str, LogicSpec] = field(default_factory=dict)
    pairs: dict[str, AlgebraizingPair] = field(default_factory=dict)
    morphisms: list[tuple[str, LogicMorphism]] = field(default_factory=list)
    matrices: dict[str, list[Matrix]] = field(default_factory=dict)
    reduced_matrices: dict[str, list[Matrix]] = field(default_factory=dict)
    algebras: dict[str, list[FiniteAlgebra]] = field(default_factory=dict)
    contexts: list[tuple[str, GlivenkoContext]] = field(default_factory=list)
    overrides: dict[tuple[str, str, int], Matrix | FiniteAlgebra] = field(default_factory=dict)


@dataclass
class InstitutionReport:
    kind: str
    samples: int
    checked: int
    violations: list[dict]
    config: dict

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {**asdict(self), "passed": self.passed}

    def to_text(self) -> str:
        lines = [
            f"institution check [{self.kind}]: {self.checked} checks, "
            f"{len(self.violations)} violation(s) "
            f"(seed={self.config['seed']}, vars={self.config['vars']}, "
            f"depth={self.config['depth']}, gamma_size={self.config['gamma_size']})"
        ]
        for v in self.violations[:10]:
            lines.append(f"  violation: {v}")
        if len(self.violations) > 10:
            lines.append(f"  ... and {len(self.violations) - 10} more")
        lines.append("overall: " + ("pass" if self.passed else "FAIL"))
        return "\n".join(lines)


def _random_sentence(rng, sig, num_vars, depth, gamma_size):
    gamma = tuple(
        random_formula(rng, sig, num_vars, depth) for _ in range(rng.randrange(gamma_size + 1))
    )
    phi = random_formula(rng, sig, num_vars, depth)
    return gamma, phi


def _certified(certificate) -> bool:
    """Run a certificate; one that cannot be built (say, an adjoint or a
    reduct refusing an overridden entry's algebra) has failed."""
    try:
        return certificate()
    except ValueError:
        return False


def _unit_certificate(ctx: GlivenkoContext, A: FiniteAlgebra, designated: frozenset,
                      image: FiniteAlgebra, image_designated: frozenset) -> bool:
    """The paper's lemma for a context: the adjoint's unit u is a surjective
    homomorphism from A onto the image over the target signature, and
    theta^A(a) is designated in A exactly when u(a) is designated in the
    image. Then for every sentence and valuation v into A, theta(phi) is
    designated at v exactly when phi is designated at u.v, and the u.v are
    every valuation into the image. The lemma also needs theta(phi) to be a
    source sentence for every target sentence phi, so the source signature
    must extend the target's; where it does not, a translation may raise,
    and the entry is evaluated in full."""
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


def _image(relation, beta, certificate):
    """An entry's image side: beta(M)'s relation, of the same shape as the
    model's, and whether beta(M) is certified."""
    return partial(relation, beta), _certified(lambda: certificate(beta))


def _pool(kind: str, corpus: Corpus) -> list[tuple]:
    """The suite's entries, in the order the samples visit them. An entry is
    (labels, signature, model, translate, image) for one model M: labels
    open its violations, sentences are drawn over the signature,
    model(gamma, phi) decides M |= gamma |- phi, translate is the sentence
    translation Phi, and image() is ``_image`` of beta(M), beta(M)'s
    relation and its certificate. beta(M) is the override keyed by
    (kind, morphism or context name, model index), if any, or:
    - If: M's reduct along the morphism, with M's filter; the certificate is
      that beta(M) equals it;
    - InsAL: the adjoint image matrix; the certificate is that the adjoint's
      unit is a surjective homomorphism from M onto beta(M)'s algebra over
      the target signature, and theta^M(a) is in M's filter exactly when
      u(a) is in beta(M)'s;
    - InsLAL: the adjoint's value algebra, related by the target's
      quasi-equation consequence; the certificate is the same homomorphism,
      and the source's defining equations hold at theta^A(a) exactly when
      the target's hold at u(a).
    A certified entry satisfies the condition at every sentence, and its
    translation cannot raise: If's morphism has an image for every source
    connective, and the InsAL and InsLAL certificates require the source
    signature to extend the target's. The If reducts are built here, unless
    overridden, and the InsAL and InsLAL adjoints on an entry's first
    sample, also where an override replaces their image, as the per-kind
    loops built them, so every error is raised at the same point."""
    overrides = corpus.overrides

    def if_entry(mname, h, idx, M):
        key = (kind, mname, idx)
        reduct = partial(mod_translate, h, M, check=False)
        beta = overrides[key] if key in overrides else reduct()
        return ({"kind": kind, "morphism": mname, "matrix": idx}, h.source.signature,
                partial(matrix_satisfies, M), h.translate,
                partial(_image, matrix_satisfies, beta, lambda image: image == reduct()))

    def insal_entry(cname, ctx, idx, M):
        def image():
            beta = overrides.get((kind, cname, idx), adjoint_image(ctx, M))
            return _image(matrix_satisfies, beta, lambda image: _unit_certificate(
                ctx, M.algebra, M.filter, image.algebra, image.filter))
        return ({"kind": kind, "context": cname, "matrix": idx}, ctx.target.signature,
                partial(matrix_satisfies, M), partial(rho_translate, ctx), image)

    def inslal_entry(cname, ctx, idx, A):
        def image():
            if ctx.source_pair is None or ctx.target_pair is None:
                raise ValueError("context carries no algebraizing pairs")
            beta = overrides.get((kind, cname, idx), ctx.adjoint(A).algebra)
            return _image(lambda image, gamma, phi: tau_consequence([image], ctx.target_pair, gamma, phi),
                          beta, lambda image: _unit_certificate(ctx, A, _tau_holds(ctx.source_pair, A),
                                                                image, _tau_holds(ctx.target_pair, image)))
        return ({"kind": kind, "context": cname, "algebra": idx}, ctx.target.signature,
                partial(tau_consequence, [A], ctx.source_pair), partial(rho_translate, ctx), image)

    if kind == "If":
        pool = [if_entry(mname, h, idx, M) for mname, h in corpus.morphisms
                for idx, M in enumerate(corpus.matrices.get(h.target.name, []))]
        what = "morphism/matrix"
    elif kind == "InsAL":
        pool = [insal_entry(cname, ctx, idx, M) for cname, ctx in corpus.contexts
                for idx, M in enumerate(corpus.reduced_matrices.get(ctx.source.name, []))]
        what = "context/matrix"
    else:
        pool = [inslal_entry(cname, ctx, idx, A) for cname, ctx in corpus.contexts
                for idx, A in enumerate(corpus.algebras.get(ctx.source.name, []))]
        what = "context/algebra"
    if not pool:
        raise ValueError(f"corpus has no {what} pairs")
    return pool


def institution_report(kind: str, corpus: Corpus, samples: int = 10000, seed: int = 0,
                       num_vars: int = 2, depth: int = 2, gamma_size: int = 2) -> InstitutionReport:
    """Run the satisfaction-condition suite named by ``kind`` over the corpus
    with seeded random sentences: sample i checks M |= Phi(gamma) |- Phi(phi)
    against beta(M) |= gamma |- phi on pool entry i mod the pool size, and
    every disagreement is reported with its sentence as the witness. Every
    sentence is drawn, so the samples stay in step, but it is translated
    and the two sides are evaluated only on entries whose certificate (see
    ``_pool``) failed: a certified entry agrees at every sentence and its
    translation cannot raise, so the report, errors included, is the one
    full evaluation would give."""
    witness_keys = {
        "If": ("gamma", "phi", "model_side", "translated_side"),
        "InsAL": ("gamma", "phi"),
        "InsLAL": ("premises", "conclusion"),
    }
    if kind not in witness_keys:
        raise ValueError(f"unknown institution kind {kind!r}")
    rng = random.Random(seed)
    config = {"seed": seed, "vars": num_vars, "depth": depth, "gamma_size": gamma_size}
    violations: list[dict] = []
    pool = _pool(kind, corpus)
    images = [None] * len(pool)
    for i in range(samples):
        j = i % len(pool)
        labels, signature, model, translate, build_image = pool[j]
        gamma, phi = _random_sentence(rng, signature, num_vars, depth, gamma_size)
        if images[j] is None:
            images[j] = build_image()
        image_satisfies, certified = images[j]
        if certified:
            continue
        translated = model(tuple(map(translate, gamma)), translate(phi))
        image = image_satisfies(gamma, phi)
        if translated != image:
            sides = ([print_formula(g) for g in gamma], print_formula(phi), translated, image)
            violations.append({**labels, **dict(zip(witness_keys[kind], sides))})
    return InstitutionReport(kind, samples, max(samples, 0), violations, config)
