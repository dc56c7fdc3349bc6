"""Finite-sample satisfaction-condition checkers for the three institution
flavours: plain matrix semantics over flexible morphisms, reduced-matrix
semantics over translation contexts, and quasi-equation semantics over
translation contexts. Each kind's satisfaction condition is defined once,
beside its per-sentence check (``semantics.if_condition``,
``glivenko.insal_condition`` and ``glivenko.inslal_condition``); this module
labels its entries, applies the corpus's overrides and runs the sampling
loop. Reports are seeded and deterministic. A certified entry satisfies the
condition at every sentence, so only failed entries draw, translate and
evaluate sentences: each entry draws from its own seeded stream, and a
certified entry draws nothing."""

from __future__ import annotations

import random
from functools import partial

from .algebra import FiniteAlgebra
from .algebraization import AlgebraizingPair
from .glivenko import GlivenkoContext, insal_condition, inslal_condition
from .semantics import LogicMorphism, LogicSpec, Matrix, if_condition
from .syntax import print_formula, random_formula


class Corpus:
    """Explicit finite data standing in for the proper classes the theory
    quantifies over. ``overrides`` is for fault injection: keyed by a pool
    entry's labels (kind, morphism or context name, model index), a value
    replaces that entry's whole beta(M) in ``institution_report`` (a
    ``Matrix`` for If and InsAL, a ``FiniteAlgebra`` for InsLAL) where it
    would be built (an InsAL or InsLAL entry still admits its model and
    builds its adjoint, so a model that either of them refuses raises
    whether or not the entry is overridden). The entry's certificate reads
    beta(M) with the override applied, so a tampered entry fails its
    certificate unless the tampering keeps the paper's lemma true, and only
    failed entries are evaluated."""

    __slots__ = ("logics", "pairs", "morphisms", "matrices", "reduced_matrices", "algebras", "contexts",
                 "overrides")

    def __init__(self, logics: dict[str, LogicSpec] | None = None,
                 pairs: dict[str, AlgebraizingPair] | None = None,
                 morphisms: list[tuple[str, LogicMorphism]] | None = None,
                 matrices: dict[str, list[Matrix]] | None = None,
                 reduced_matrices: dict[str, list[Matrix]] | None = None,
                 algebras: dict[str, list[FiniteAlgebra]] | None = None,
                 contexts: list[tuple[str, GlivenkoContext]] | None = None,
                 overrides: dict[tuple[str, str, int], Matrix | FiniteAlgebra] | None = None):
        self.logics = {} if logics is None else logics
        self.pairs = {} if pairs is None else pairs
        self.morphisms = [] if morphisms is None else morphisms
        self.matrices = {} if matrices is None else matrices
        self.reduced_matrices = {} if reduced_matrices is None else reduced_matrices
        self.algebras = {} if algebras is None else algebras
        self.contexts = [] if contexts is None else contexts
        self.overrides = {} if overrides is None else overrides


class InstitutionReport:
    __slots__ = ("kind", "samples", "checked", "violations", "config")

    def __init__(self, kind: str, samples: int, checked: int, violations: list[dict], config: dict):
        self.kind, self.samples, self.checked = kind, samples, checked
        self.violations, self.config = violations, config

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {**{name: getattr(self, name) for name in self.__slots__}, "passed": self.passed}

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
    """A seeded sentence: gamma's size, then gamma's formulas, then phi."""
    *gamma, phi = (random_formula(rng, sig, num_vars, depth) for _ in range(rng.randrange(gamma_size + 1) + 1))
    return tuple(gamma), phi


def _image(image) -> tuple:
    """An entry's image side: beta(M)'s relation, and whether beta(M) is
    certified. A certificate that cannot be built (say, a reduct refusing
    an overridden entry's algebra) has failed."""
    relation, certificate = image()
    try:
        return relation, certificate()
    except ValueError:
        return relation, False


def _pool(kind: str, corpus: Corpus) -> list[tuple]:
    """The suite's entries, in the order the samples visit them. An entry is
    (labels, signature, model, translate, image) for one model M: labels
    open its violations, sentences are drawn over the signature, and the
    rest is the kind's satisfaction condition (``semantics.if_condition``,
    ``glivenko.insal_condition`` or ``glivenko.inslal_condition``) with
    image() wrapped by ``_image``. beta(M) is the override keyed by (kind,
    morphism or context name, model index), if any, or the paper's.
    A certified entry satisfies the condition at every sentence, and its
    translation cannot raise: If's morphism has an image for every source
    connective, and the InsAL and InsLAL certificates require the source
    signature to extend the target's. The If conditions, and with them the
    reducts that are not overridden, are built here; image() runs in pool
    order before an entry's first sample (see ``institution_report``), so
    the InsAL and InsLAL refusals are raised there."""
    if kind == "If":
        cases = [({"kind": kind, "morphism": mname, "matrix": idx}, h.source.signature,
                  partial(if_condition, h, M))
                 for mname, h in corpus.morphisms
                 for idx, M in enumerate(corpus.matrices.get(h.target.name, []))]
        what = "morphism/matrix"
    elif kind == "InsAL":
        cases = [({"kind": kind, "context": cname, "matrix": idx}, ctx.target.signature,
                  partial(insal_condition, ctx, M))
                 for cname, ctx in corpus.contexts
                 for idx, M in enumerate(corpus.reduced_matrices.get(ctx.source.name, []))]
        what = "context/matrix"
    else:
        cases = [({"kind": kind, "context": cname, "algebra": idx}, ctx.target.signature,
                  partial(inslal_condition, ctx, A))
                 for cname, ctx in corpus.contexts
                 for idx, A in enumerate(corpus.algebras.get(ctx.source.name, []))]
        what = "context/algebra"
    if not cases:
        raise ValueError(f"corpus has no {what} pairs")
    pool = []
    for labels, signature, condition in cases:
        # the override key is the labels' values: kind, name, model index
        model, translate, image = condition(corpus.overrides.get(tuple(labels.values())))
        pool.append((labels, signature, model, translate, partial(_image, image)))
    return pool


def institution_report(kind: str, corpus: Corpus, samples: int = 10000, seed: int = 0,
                       num_vars: int = 2, depth: int = 2, gamma_size: int = 2) -> InstitutionReport:
    """Run the satisfaction-condition suite named by ``kind`` over the corpus
    with seeded random sentences: sample i checks M |= Phi(gamma) |- Phi(phi)
    against beta(M) |= gamma |- phi on pool entry i mod the pool size, and
    every disagreement is reported with its sentence as the witness. Entry
    j draws its sentences from its own stream, ``random.Random(f"{seed}:{j}")``
    (a string seed is hashed with SHA-512, so the stream is the same in every
    process), built the first time a sample needs it. Only entries whose
    certificate (see ``_pool``) failed draw, translate and evaluate
    sentences: a certified entry agrees at every sentence and its
    translation cannot raise, so its sample draws nothing. The images of
    the entries the samples reach are built in pool order, and if every
    entry up to the last one reached is certified, the report passes at
    once. So the report, errors included, is the one full evaluation over
    the same streams gives. Bounds that the draw refuses (``num_vars`` not
    an integer >= 1, ``gamma_size`` not one >= 0) are refused first, so a
    suite that draws nothing does too."""
    witness_keys = {
        "If": ("gamma", "phi", "model_side", "translated_side"),
        "InsAL": ("gamma", "phi"),
        "InsLAL": ("premises", "conclusion"),
    }
    if kind not in witness_keys:
        raise ValueError(f"unknown institution kind {kind!r}")
    if not (type(num_vars) is type(gamma_size) is int and num_vars >= 1 and gamma_size >= 0):
        raise ValueError(f"sentences need integers num_vars >= 1 and gamma_size >= 0, "
                         f"got {num_vars!r} and {gamma_size!r}")
    config = {"seed": seed, "vars": num_vars, "depth": depth, "gamma_size": gamma_size}
    violations: list[dict] = []
    pool = _pool(kind, corpus)
    images, streams = [], {}
    for *_, build_image in pool[:max(samples, 0)]:
        images.append(build_image())
        if not images[-1][1]:
            break
    else:
        return InstitutionReport(kind, samples, max(samples, 0), violations, config)
    for i in range(samples):
        j = i % len(pool)
        labels, signature, model, translate, build_image = pool[j]
        if j == len(images):
            images.append(build_image())
        image_satisfies, certified = images[j]
        if certified:
            continue
        if j not in streams:
            streams[j] = random.Random(f"{seed}:{j}")
        gamma, phi = _random_sentence(streams[j], signature, num_vars, depth, gamma_size)
        translated = model(tuple(map(translate, gamma)), translate(phi))
        image = image_satisfies(gamma, phi)
        if translated != image:
            sides = ([print_formula(g) for g in gamma], print_formula(phi), translated, image)
            violations.append({**labels, **dict(zip(witness_keys[kind], sides))})
    return InstitutionReport(kind, samples, max(samples, 0), violations, config)
