"""Matrix models, matrix consequence, reducts along flexible morphisms, and
the model-translation half of the satisfaction condition."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from . import provers
from .algebra import FiniteAlgebra, all_rows, filter_rows, frame_valuation, value_vector
from .syntax import (
    BUILTIN_SIGNATURE,
    FlexibleMorphism,
    Formula,
    Signature,
    enumerate_formulas,
    extend_morphism,
    formula_over,
)

@dataclass(frozen=True)
class Matrix:
    """An algebra with a designated subset of truth values."""

    algebra: FiniteAlgebra
    filter: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "filter", frozenset(self.filter))
        if any(not 0 <= a < self.algebra.size for a in self.filter):
            raise ValueError("filter element out of range")

    def __repr__(self):
        return f"Matrix(size={self.algebra.size}, filter={sorted(self.filter)})"


def matrix_satisfies(M: Matrix, gamma: Iterable[Formula], phi: Formula) -> bool:
    """Every valuation sending all of gamma into the filter sends phi there too.
    Valuations range over the variables occurring in the query."""
    return not _violating_rows(M, gamma, phi)[1]


def matrix_violation(M: Matrix, gamma: Iterable[Formula], phi: Formula) -> Optional[dict[int, int]]:
    """The first valuation in product order sending gamma into the filter and phi out."""
    frame, bad = _violating_rows(M, gamma, phi)
    return frame_valuation(M.algebra, frame, (bad & -bad).bit_length() - 1) if bad else None


def _violating_rows(M: Matrix, gamma: Iterable[Formula], phi: Formula) -> tuple[int, int]:
    """The query's variable frame and the mask of its rows sending gamma into
    the filter and phi out."""
    gamma = tuple(gamma)
    A, F = M.algebra, M.filter
    frame = phi.vmask
    for g in gamma:
        frame |= g.vmask
    ok = all_rows(A, frame)
    for g in gamma:
        ok &= filter_rows(A, F, g, frame)
    return frame, ok & ~filter_rows(A, F, phi, frame)


class LogicSpec:
    """A decidable consequence engine over a signature: either a finite family
    of matrices or one of the built-in provers."""

    def __init__(self, kind: str, signature: Signature, matrices: Sequence[Matrix] = (),
                 implication: str | None = None, name: str | None = None):
        if kind not in ("cpc", "ipc", "matrix"):
            raise ValueError(f"unknown engine kind: {kind}")
        if kind == "matrix" and not matrices:
            raise ValueError("a matrix family must be nonempty")
        if kind in ("cpc", "ipc"):
            if not BUILTIN_SIGNATURE.extends(signature):
                raise ValueError("built-in engines only support sublanguages of neg/imp/and/or/iff")
            implication = implication or ("imp" if "imp" in signature else None)
        for M in matrices:
            if M.algebra.signature != signature:
                raise ValueError("matrix signature mismatch")
        if implication is not None and (implication not in signature or signature.arity(implication) != 2):
            raise ValueError(f"implication connective {implication!r} must be binary in the signature")
        self.kind = kind
        self.signature = signature
        self.matrices = tuple(matrices)
        self.implication = implication
        self.name = name or kind

    @classmethod
    def cpc(cls, signature: Signature | None = None) -> "LogicSpec":
        return cls("cpc", signature or BUILTIN_SIGNATURE, name="cpc")

    @classmethod
    def ipc(cls, signature: Signature | None = None) -> "LogicSpec":
        return cls("ipc", signature or BUILTIN_SIGNATURE, name="ipc")

    @classmethod
    def from_matrices(cls, signature: Signature, matrices: Sequence[Matrix],
                      implication: str | None = None, name: str | None = None) -> "LogicSpec":
        return cls("matrix", signature, matrices, implication, name or "matrix-logic")

    def proves(self, gamma: Iterable[Formula], phi: Formula) -> bool:
        gamma = tuple(gamma)
        if self.kind == "cpc":
            return provers.cpc_decide(gamma, phi)
        if self.kind == "ipc":
            return provers.ipc_decide(gamma, phi)
        return all(matrix_satisfies(M, gamma, phi) for M in self.matrices)

    def entailed(self, gamma: Iterable[Formula], phis: Sequence[Formula]) -> tuple[int, ...]:
        """The indices, ascending, of the phis that gamma entails."""
        gamma = tuple(gamma)
        if self.kind == "cpc":
            return provers.cpc_entailed(gamma, phis)
        return tuple(i for i, phi in enumerate(phis) if self.proves(gamma, phi))

    def entailment_key(self, phi: Formula):
        """A key such that formulas with equal keys are entailed by exactly the
        same premise sets. For cpc it is phi's truth table over the x0..x3
        frame when phi fits that frame, since classically equivalent formulas
        have the same consequences; otherwise, and for every other kind, it
        is phi itself."""
        if self.kind == "cpc" and not phi.vmask >> provers._FRAME_VARS:
            return provers._frame_bits(phi)
        return phi

    def interderivable(self, phi: Formula, psi: Formula) -> bool:
        return self.proves((phi,), psi) and self.proves((psi,), phi)

    def _key(self):
        return (self.kind, self.signature, self.matrices, self.implication)

    def __eq__(self, other):
        return isinstance(other, LogicSpec) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"LogicSpec({self.name})"


def consequence(l: LogicSpec, gamma: Iterable[Formula], phi: Formula) -> bool:
    """Decide gamma |- phi in the given logic."""
    gamma = tuple(gamma)
    for f in gamma + (phi,):
        if not formula_over(l.signature, f):
            raise ValueError(f"formula {f!r} is not over the logic's signature")
    return l.proves(gamma, phi)


def reduct(h: FlexibleMorphism, M: FiniteAlgebra) -> FiniteAlgebra:
    """Interpret each source connective c as the M-evaluation of h(c); the
    carrier is unchanged."""
    if M.signature != h.target:
        raise ValueError("algebra is not over the morphism's target signature")
    tables = {
        name: value_vector(M, h(name), (1 << arity) - 1) for name, arity in h.source.connectives
    }
    return FiniteAlgebra(h.source, M.size, tables)


@dataclass(frozen=True)
class LogicMorphism:
    """A flexible morphism between the signatures of two logics, intended to
    preserve consequence (checked only on bounded instances)."""

    source: LogicSpec
    target: LogicSpec
    morphism: FlexibleMorphism

    def __post_init__(self):
        if self.morphism.source != self.source.signature or self.morphism.target != self.target.signature:
            raise ValueError("morphism signatures do not match the logics")

    def translate(self, phi: Formula) -> Formula:
        return extend_morphism(self.morphism, phi)

    def preserves_consequence(self, num_vars: int = 2, depth: int = 2,
                              limit: int = 2000) -> Optional[tuple]:
        """Bounded check over the formulas within the bounds and premise sets
        of at most one of them; returns a violating (gamma, phi) or None."""
        universe = enumerate_formulas(self.source.signature, num_vars, depth)
        gammas = [()] + [(g,) for g in universe]
        count = 0
        for phi in universe:
            for gamma in gammas:
                if count >= limit:
                    return None
                count += 1
                if self.source.proves(gamma, phi):
                    image_gamma = tuple(self.translate(g) for g in gamma)
                    if not self.target.proves(image_gamma, self.translate(phi)):
                        return (gamma, phi)
        return None


def identity_morphism(l: LogicSpec) -> LogicMorphism:
    return LogicMorphism(l, l, FlexibleMorphism.identity(l.signature))


def mod_translate(h: LogicMorphism, M: Matrix, check: bool = True,
                  num_vars: int = 2, depth: int = 2, samples: int = 60) -> Matrix:
    """Translate a matrix model of the target logic along h: take the reduct
    of the algebra and keep the filter. With ``check`` on, spot-check that the
    filter is still closed under bounded source-logic consequences."""
    translated = Matrix(reduct(h.morphism, M.algebra), M.filter)
    if check:
        witness = _filter_check(h.source, translated, num_vars, depth, samples)
        if witness is not None:
            gamma, phi, v = witness
            raise ValueError(
                f"filter is not closed under source consequences: {list(gamma)} |- {phi!r} "
                f"fails at valuation {v}"
            )
    return translated


def _filter_check(logic: LogicSpec, M: Matrix, num_vars: int, depth: int, samples: int):
    universe = enumerate_formulas(logic.signature, num_vars, depth)
    count = 0
    for phi in universe:
        for gamma in itertools.chain([()], ((g,) for g in universe)):
            if count >= samples:
                return None
            if logic.proves(gamma, phi):
                count += 1
                v = matrix_violation(M, gamma, phi)
                if v is not None:
                    return gamma, phi, v
    return None


def satisfaction_condition_check(h: LogicMorphism, M: Matrix, gamma: Iterable[Formula],
                                 phi: Formula) -> bool:
    """Whether [M |= translated sentence] equals [translated model |= sentence];
    expected always true."""
    gamma = tuple(gamma)
    image_gamma = tuple(h.translate(g) for g in gamma)
    left = matrix_satisfies(M, image_gamma, h.translate(phi))
    right = matrix_satisfies(mod_translate(h, M, check=False), gamma, phi)
    return left == right

