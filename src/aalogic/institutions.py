"""Finite-sample satisfaction-condition checkers for the three institution
flavours: plain matrix semantics over flexible morphisms, reduced-matrix
semantics over translation contexts, and quasi-equation semantics over
translation contexts. Reports are seeded and deterministic."""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from functools import partial

from .algebra import FiniteAlgebra, evaluate, is_reduced
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
    quantifies over. The override tables are for fault injection: keyed by
    (morphism or context name, model index), they replace derived data (a
    reduct algebra, an image filter, an adjoint value algebra) with tampered
    copies, once per pool entry of ``institution_report``, where that entry's
    beta(M) is built."""

    logics: dict[str, LogicSpec] = field(default_factory=dict)
    pairs: dict[str, AlgebraizingPair] = field(default_factory=dict)
    morphisms: list[tuple[str, LogicMorphism]] = field(default_factory=list)
    matrices: dict[str, list[Matrix]] = field(default_factory=dict)
    reduced_matrices: dict[str, list[Matrix]] = field(default_factory=dict)
    algebras: dict[str, list[FiniteAlgebra]] = field(default_factory=dict)
    contexts: list[tuple[str, GlivenkoContext]] = field(default_factory=list)
    reduct_overrides: dict[tuple[str, int], FiniteAlgebra] = field(default_factory=dict)
    adjoint_filter_overrides: dict[tuple[str, int], frozenset] = field(default_factory=dict)
    adjoint_algebra_overrides: dict[tuple[str, int], FiniteAlgebra] = field(default_factory=dict)


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


def _reduced_image(corpus: Corpus, key, ctx: GlivenkoContext, M: Matrix):
    """InsAL's beta(M): the adjoint image matrix, or the overrides' parts."""
    image = adjoint_image(ctx, M)
    return partial(matrix_satisfies, Matrix(
        corpus.adjoint_algebra_overrides.get(key, image.algebra),
        corpus.adjoint_filter_overrides.get(key, image.filter),
    ))


def _quasi_equation_image(corpus: Corpus, key, ctx: GlivenkoContext, A: FiniteAlgebra):
    """InsLAL's beta(A): the adjoint's value algebra, or its override."""
    if ctx.source_pair is None or ctx.target_pair is None:
        raise ValueError("context carries no algebraizing pairs")
    image = corpus.adjoint_algebra_overrides.get(key, ctx.adjoint(A).algebra)
    return partial(tau_consequence, [image], ctx.target_pair)


def _pool(kind: str, corpus: Corpus) -> list[tuple]:
    """The suite's entries, in the order the samples visit them. An entry is
    (labels, signature, model, translate, image) for one model M: labels
    open its violations, sentences are drawn over the signature,
    model(gamma, phi) decides M |= gamma |- phi, translate is the sentence
    translation Phi, and image() builds beta(M), with the corpus's override
    applied, and returns its relation of the same shape. The If reducts are
    built here and the InsAL and InsLAL images on an entry's first sample,
    where the per-kind loops built them, so every error is raised at the
    same point."""
    if kind == "If":
        pool = []
        for mname, h in corpus.morphisms:
            for idx, M in enumerate(corpus.matrices.get(h.target.name, [])):
                override = corpus.reduct_overrides.get((mname, idx))
                reduct = mod_translate(h, M, check=False) if override is None else Matrix(override, M.filter)
                pool.append(({"kind": kind, "morphism": mname, "matrix": idx}, h.source.signature,
                             partial(matrix_satisfies, M), h.translate, partial(partial, matrix_satisfies, reduct)))
        what = "morphism/matrix"
    elif kind == "InsAL":
        pool = [
            ({"kind": kind, "context": cname, "matrix": idx}, ctx.target.signature,
             partial(matrix_satisfies, M), partial(rho_translate, ctx),
             partial(_reduced_image, corpus, (cname, idx), ctx, M))
            for cname, ctx in corpus.contexts
            for idx, M in enumerate(corpus.reduced_matrices.get(ctx.source.name, []))
        ]
        what = "context/matrix"
    else:
        pool = [
            ({"kind": kind, "context": cname, "algebra": idx}, ctx.target.signature,
             partial(tau_consequence, [A], ctx.source_pair), partial(rho_translate, ctx),
             partial(_quasi_equation_image, corpus, (cname, idx), ctx, A))
            for cname, ctx in corpus.contexts
            for idx, A in enumerate(corpus.algebras.get(ctx.source.name, []))
        ]
        what = "context/algebra"
    if not pool:
        raise ValueError(f"corpus has no {what} pairs")
    return pool


def institution_report(kind: str, corpus: Corpus, samples: int = 10000, seed: int = 0,
                       num_vars: int = 2, depth: int = 2, gamma_size: int = 2) -> InstitutionReport:
    """Run the satisfaction-condition suite named by ``kind`` over the corpus
    with seeded random sentences: sample i checks M |= Phi(gamma) |- Phi(phi)
    against beta(M) |= gamma |- phi on pool entry i mod the pool size, and
    every disagreement is reported with its sentence as the witness."""
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
        translated = model(tuple(map(translate, gamma)), translate(phi))
        image = images[j](gamma, phi)
        if translated != image:
            sides = ([print_formula(g) for g in gamma], print_formula(phi), translated, image)
            violations.append({**labels, **dict(zip(witness_keys[kind], sides))})
    return InstitutionReport(kind, samples, max(samples, 0), violations, config)
