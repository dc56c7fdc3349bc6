"""Matrix models, matrix consequence, reducts along flexible morphisms, and
the satisfaction condition of If with its per-sentence check."""

from __future__ import annotations

import itertools
from functools import partial
from typing import Iterable, Iterator, Optional, Sequence

from . import provers
from .algebra import FiniteAlgebra, _carrier_subset, all_rows, filter_rows, frame_valuation, value_vector
from .syntax import (
    BUILTIN_SIGNATURE,
    FlexibleMorphism,
    Formula,
    Signature,
    _frozen,
    _value_eq,
    _value_hash,
    enumerate_formulas,
    extend_morphism,
    formula_over,
)

class Matrix:
    """An algebra with a designated subset of truth values."""

    __slots__ = ("algebra", "filter")
    __setattr__ = __delattr__ = _frozen
    __eq__, __hash__ = _value_eq, _value_hash

    def __init__(self, algebra: FiniteAlgebra, filter: Iterable[int]):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "filter", frozenset(_carrier_subset(algebra, filter)))

    def __reduce__(self):
        return Matrix, (self.algebra, self.filter)

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


class LogicMorphism:
    """A flexible morphism between the signatures of two logics, intended to
    preserve consequence (checked only on bounded instances)."""

    __slots__ = ("source", "target", "morphism")
    __setattr__ = __delattr__ = _frozen
    __eq__, __hash__ = _value_eq, _value_hash

    def __init__(self, source: LogicSpec, target: LogicSpec, morphism: FlexibleMorphism):
        if morphism.source != source.signature or morphism.target != target.signature:
            raise ValueError("morphism signatures do not match the logics")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "morphism", morphism)

    def __reduce__(self):
        return LogicMorphism, (self.source, self.target, self.morphism)

    def translate(self, phi: Formula) -> Formula:
        return extend_morphism(self.morphism, phi)

    def preserves_consequence(self) -> Optional[tuple]:
        """Bounded check over the first 400 sequents of ``_bounded_sequents``
        (formulas over x0, x1 up to depth 3, premise sets of at most one of
        them, by the sum of the premise's and the conclusion's positions:
        27 conclusions, and 27 premises besides none); returns a violating
        (gamma, phi) or None. Among them is neg(neg(x0)) |- x0, which tells
        cpc from ipc."""
        for gamma, phi in itertools.islice(_bounded_sequents(self.source.signature, 3), 400):
            if self.source.proves(gamma, phi):
                image_gamma = tuple(self.translate(g) for g in gamma)
                if not self.target.proves(image_gamma, self.translate(phi)):
                    return (gamma, phi)
        return None


def _bounded_sequents(sig: Signature, depth: int) -> Iterator[tuple[tuple[Formula, ...], Formula]]:
    """The sequents gamma |- phi over formulas in x0, x1 up to the depth, with
    gamma empty or one such formula. They come by the sum of two positions,
    the premise's (0 for none, i + 1 for formula i) and the conclusion's,
    with the conclusion ascending within each sum, so a prefix mixes early
    premises with early conclusions."""
    universe = enumerate_formulas(sig, 2, depth)
    premises = [()] + [(g,) for g in universe]
    for total in range(2 * len(universe)):
        for c in range(max(0, total - len(universe)), min(total, len(universe) - 1) + 1):
            yield premises[total - c], universe[c]


def identity_morphism(l: LogicSpec) -> LogicMorphism:
    return LogicMorphism(l, l, FlexibleMorphism.identity(l.signature))


def mod_translate(h: LogicMorphism, M: Matrix) -> Matrix:
    """Translate a matrix model of the target logic along h: take the reduct
    of the algebra and keep the filter. Spot-check that the filter is still
    closed under the first 60 sequents of ``_bounded_sequents`` that the
    source logic proves (formulas over x0, x1 up to depth 2, by the sum of
    the premise's and the conclusion's positions)."""
    translated = Matrix(reduct(h.morphism, M.algebra), M.filter)
    proved = (s for s in _bounded_sequents(h.source.signature, 2) if h.source.proves(*s))
    for gamma, phi in itertools.islice(proved, 60):
        v = matrix_violation(translated, gamma, phi)
        if v is not None:
            raise ValueError(
                f"filter is not closed under source consequences: {list(gamma)} |- {phi!r} "
                f"fails at valuation {v}"
            )
    return translated


def if_condition(h: LogicMorphism, M: Matrix, beta: Matrix | None = None) -> tuple:
    """The satisfaction condition of If at the matrix M, as
    (model, translate, image): model(gamma, phi) decides M |= gamma |- phi,
    translate is the sentence translation along h, and image() gives
    beta(M)'s relation and its certificate, a thunk. beta(M) is the given
    matrix, or else M's reduct along h with M's filter, built here; the
    certificate is that beta(M) equals that reduct."""
    translated = lambda: Matrix(reduct(h.morphism, M.algebra), M.filter)
    if beta is None:
        beta = translated()
    return (partial(matrix_satisfies, M), h.translate,
            lambda: (partial(matrix_satisfies, beta), lambda: beta == translated()))


def _agrees(condition: tuple, gamma: Iterable[Formula], phi: Formula) -> bool:
    """Whether a satisfaction condition's two sides agree at one sentence: M
    satisfies its translation exactly when beta(M) satisfies the sentence."""
    model, translate, image = condition
    gamma = tuple(gamma)
    relation, _ = image()
    return model(tuple(map(translate, gamma)), translate(phi)) == relation(gamma, phi)


def satisfaction_condition_check(h: LogicMorphism, M: Matrix, gamma: Iterable[Formula],
                                 phi: Formula) -> bool:
    """Whether [M |= translated sentence] equals [translated model |= sentence];
    expected always true."""
    return _agrees(if_condition(h, M), gamma, phi)
