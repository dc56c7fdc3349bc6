"""Finite-sample satisfaction-condition checkers for the three institution
flavours: plain matrix semantics over flexible morphisms, reduced-matrix
semantics over translation contexts, and quasi-equation semantics over
translation contexts. Reports are seeded and deterministic."""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

from .algebra import FiniteAlgebra, evaluate, is_reduced, load_algebra
from .algebraization import AlgebraizingPair, delta_translate, qv_membership, tau_consequence, tau_translate
from .glivenko import (
    GlivenkoContext,
    lind_compatibility_check,
    matrix_compatibility_check,
)
from .provers import Equation
from .semantics import (
    LogicMorphism,
    LogicSpec,
    Matrix,
    matrix_satisfies,
    mod_translate,
    resolve_logic,
)
from .syntax import FlexibleMorphism, Formula, parse_formula, print_formula, random_formula


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


def class_equal(l: LogicSpec, pair: AlgebraizingPair, phi: Formula, psi: Formula) -> bool:
    """Same formula class: the equivalence formulas at (phi, psi) are theorems."""
    return all(l.proves((), d) for d in delta_translate(pair, Equation(phi, psi)))


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
    quantifies over. The override tables are for fault injection: they replace
    derived data (a reduct table, an image filter, an adjoint value algebra)
    with tampered copies."""

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
        return {
            "kind": self.kind,
            "samples": self.samples,
            "checked": self.checked,
            "violations": self.violations,
            "config": self.config,
            "passed": self.passed,
        }

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


def load_corpus(path: str) -> Corpus:
    """Corpus file: named logics (builtin names or logic-spec paths), pairs,
    morphisms, matrices, quasivariety members and contexts; algebra paths are
    relative to the corpus file."""
    base = os.path.dirname(path)
    with open(path) as fh:
        data = json.load(fh)

    logics = {name: resolve_logic(entry, base) for name, entry in data.get("logics", {}).items()}

    pairs = {
        name: AlgebraizingPair.from_json(entry, logics[name].signature)
        for name, entry in data.get("pairs", {}).items()
    }

    def morphism_of(entry, source, target):
        if entry == "identity":
            return FlexibleMorphism.identity(source.signature)
        assignment = {
            name: parse_formula(target.signature, text) for name, text in entry.items()
        }
        return FlexibleMorphism(source.signature, target.signature, assignment)

    morphisms = []
    for entry in data.get("morphisms", []):
        source, target = logics[entry["source"]], logics[entry["target"]]
        morphisms.append(
            (entry["name"], LogicMorphism(source, target, morphism_of(entry.get("h", "identity"), source, target)))
        )

    def matrix_of(entry):
        return Matrix(load_algebra(os.path.join(base, entry["algebra"])), frozenset(entry["filter"]))

    matrices = {
        name: [matrix_of(e) for e in entries]
        for name, entries in data.get("matrices", {}).items()
    }
    reduced = {
        name: [matrix_of(e) for e in entries]
        for name, entries in data.get("reduced_matrices", {}).items()
    }
    algebras = {
        name: [load_algebra(os.path.join(base, e)) for e in entries]
        for name, entries in data.get("algebras", {}).items()
    }

    contexts = []
    for entry in data.get("contexts", []):
        source, target = logics[entry["source"]], logics[entry["target"]]
        contexts.append((
            entry["name"],
            GlivenkoContext(
                source, target, morphism_of(entry.get("h", "identity"), source, target),
                parse_formula(source.signature, entry["theta"]),
                source_pair=pairs.get(entry["source"]),
                target_pair=pairs.get(entry["target"]),
                name=entry["name"],
            ),
        ))

    return Corpus(
        logics=logics,
        pairs=pairs,
        morphisms=morphisms,
        matrices=matrices,
        reduced_matrices=reduced,
        algebras=algebras,
        contexts=contexts,
    )


def _random_sentence(rng, sig, num_vars, depth, gamma_size):
    gamma = tuple(
        random_formula(rng, sig, num_vars, depth) for _ in range(rng.randrange(gamma_size + 1))
    )
    phi = random_formula(rng, sig, num_vars, depth)
    return gamma, phi


def institution_report(kind: str, corpus: Corpus, samples: int = 10000, seed: int = 0,
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
            agree = matrix_compatibility_check(
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
            agree = lind_compatibility_check(
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
