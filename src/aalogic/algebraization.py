"""Algebraizing pairs: the equation/formula translations, condition checks
for algebraizability, quasivariety axiom generation, the Lindenbaum property
and Boolean/Heyting membership by the classes' defining identities."""

from __future__ import annotations

import bisect
import itertools
import operator
from collections.abc import Sequence
from functools import partial
from typing import Iterable

from .algebra import FiniteAlgebra, _invariant
from .provers import Equation, equational_consequence, quasiidentity_holds
from .semantics import LogicSpec, consequence
from .syntax import (
    BUILTIN_SIGNATURE,
    App,
    Formula,
    FrozenRecord,
    Record,
    Report,
    Signature,
    Var,
    enumerate_formulas,
    parse_formula,
    print_formula,
    substitute,
    variables,
)


class AlgebraizingPair(FrozenRecord):
    """Equivalence formulas (two variables) plus defining equations (one
    variable, stored as (lhs, rhs) formula pairs)."""

    __slots__ = ("delta", "tau")

    def __init__(self, delta: Sequence[Formula], tau: Sequence[tuple[Formula, Formula]]):
        delta, tau = tuple(delta), tuple((l, r) for l, r in tau)
        if not delta or not tau:
            raise ValueError("delta and tau must be nonempty")
        for d in delta:
            if not variables(d) <= {0, 1}:
                raise ValueError(f"equivalence formula {d!r} must use only x0, x1")
        for l, r in tau:
            if not variables(l) <= {0} or not variables(r) <= {0}:
                raise ValueError("defining equations must use only x0")
        super().__init__(delta, tau)

    def __repr__(self):
        ds = ",".join(map(print_formula, self.delta))
        ts = ",".join(f"({print_formula(l)},{print_formula(r)})" for l, r in self.tau)
        return f"AlgebraizingPair(delta=[{ds}], tau=[{ts}])"

    @classmethod
    def from_json(cls, data: dict, sig: Signature) -> "AlgebraizingPair":
        delta = [parse_formula(sig, t) for t in data["delta"]]
        tau = [(parse_formula(sig, l), parse_formula(sig, r)) for l, r in data["tau"]]
        return cls(delta, tau)


def tau_translate(pair: AlgebraizingPair, phi: Formula) -> tuple[Equation, ...]:
    """The defining equations instantiated at phi."""
    return tuple(Equation(substitute(l, {0: phi}), substitute(r, {0: phi})) for l, r in pair.tau)


def delta_translate(pair: AlgebraizingPair, eq: Equation) -> tuple[Formula, ...]:
    """The equivalence formulas instantiated at an equation's two sides."""
    return tuple(substitute(d, {0: eq.lhs, 1: eq.rhs}) for d in pair.delta)


def class_equal(l: LogicSpec, pair: AlgebraizingPair, phi: Formula, psi: Formula) -> bool:
    """Same formula class: the equivalence formulas at (phi, psi) are theorems."""
    return all(l.proves((), d) for d in delta_translate(pair, Equation(phi, psi)))


def _delta_tau(pair: AlgebraizingPair, phi: Formula) -> tuple[Formula, ...]:
    out = []
    for eq in tau_translate(pair, phi):
        out.extend(delta_translate(pair, eq))
    return tuple(out)


class ConditionResult(Record):
    __slots__ = ("passed", "instances", "witness")
    _defaults = (None,)


class BPReport(Record):
    __slots__ = ("logic", "bounds", "universe_size", "class_count", "conditions")
    _defaults = (dict,)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions.values())

    def to_json(self) -> dict:
        return {
            "logic": self.logic,
            "bounds": self.bounds,
            "universe_size": self.universe_size,
            "interderivability_classes": self.class_count,
            "conditions": {
                k: {"passed": c.passed, "instances": c.instances, "witness": c.witness}
                for k, c in self.conditions.items()
            },
            "passed": self.passed,
        }

    def to_text(self) -> str:
        lines = [
            f"algebraizability conditions for {self.logic} "
            f"(vars={self.bounds['vars']}, depth={self.bounds['depth']}, "
            f"universe={self.universe_size}, classes={self.class_count})"
        ]
        for k, c in self.conditions.items():
            status = "pass" if c.passed else "FAIL"
            extra = f" witness: {c.witness}" if c.witness else ""
            lines.append(f"  ({k}) {status} [{c.instances} instances]{extra}")
        lines.append("overall: " + ("pass" if self.passed else "FAIL"))
        return "\n".join(lines)


def _interderivability_classes(l: LogicSpec, universe: Sequence[Formula]) -> list[Formula]:
    """One representative per interderivability class, in universe order."""
    reps: list[Formula] = []
    for phi in universe:
        if not any(l.interderivable(phi, r) for r in reps):
            reps.append(phi)
    return reps


def _condition(l: LogicSpec, sequents, domain: Sequence[Formula], arity: int,
               prefix: str = "") -> ConditionResult:
    """One schematic condition: ``sequents(*xs)`` lists the (premises,
    conclusion) pairs that must hold for the instance ``xs``. The generic
    instance over x0..x(arity-1) is tried first; only when it fails are the
    ``arity``-tuples over ``domain`` enumerated, in product order, for the
    first witness."""
    def holds(xs: Sequence[Formula]) -> bool:
        return all(l.proves(prem, c) for prem, c in sequents(*xs))

    if not holds(tuple(Var(i) for i in range(arity))):
        for count, xs in enumerate(itertools.product(domain, repeat=arity), 1):
            if not holds(xs):
                return ConditionResult(False, count, prefix + ", ".join(map(print_formula, xs)))
    return ConditionResult(True, len(domain) ** arity)


def check_bp_conditions(l: LogicSpec, pair: AlgebraizingPair, num_vars: int, depth: int) -> BPReport:
    """Decide the five algebraizability conditions of Blok and Pigozzi on the
    formulas within the bounds: (a) |- D(x,x), (b) D(x,y) |- D(y,x),
    (c) D(x,y), D(y,z) |- D(x,z), (d) D(x1,y1), ..., D(xn,yn) |- D(*x, *y) for
    each connective * of arity n, and (e) x -||- D(tau(x)).

    Each condition is decided first on its one generic instance over fresh
    variables. Every logic a ``LogicSpec`` can describe (cpc, ipc and matrix
    consequence) is structural, so when the generic instance holds, every
    substitution instance holds, the bounded ones included. Only when it fails
    are the bounded instances enumerated, to find the first witness; the
    condition passes if the bounded universe has none. Instance counts and
    witnesses are therefore those of the bounded universe: (a) and (e) range
    over the universe, (b)-(d) over tuples of formulas. For the congruential
    logics cpc and ipc the tuples are drawn from interderivability-class
    representatives, which decides them for the whole universe; for matrix
    logics from the whole universe. (d) stops after the first failing
    connective."""
    congruential = l.kind in ("cpc", "ipc")
    universe = enumerate_formulas(l.signature, num_vars, depth)
    reps = _interderivability_classes(l, universe) if congruential else list(universe)
    report = BPReport(
        logic=l.name,
        bounds={"vars": num_vars, "depth": depth, "congruential_dedup": congruential},
        universe_size=len(universe),
        class_count=len(reps),
    )
    conditions = report.conditions

    def delta(x: Formula, y: Formula) -> tuple[Formula, ...]:
        return delta_translate(pair, Equation(x, y))

    conditions["a"] = _condition(l, lambda x: [((), d) for d in delta(x, x)], universe, 1)
    conditions["b"] = _condition(l, lambda x, y: [(delta(x, y), d) for d in delta(y, x)], reps, 2)
    conditions["c"] = _condition(
        l, lambda x, y, z: [(delta(x, y) + delta(y, z), d) for d in delta(x, z)], reps, 3)

    def congruence(name: str, arity: int):
        def sequents(*args: Formula):
            xs, ys = args[:arity], args[arity:]
            prem = tuple(d for p, q in zip(xs, ys) for d in delta(p, q))
            return [(prem, d) for d in delta(App(name, xs), App(name, ys))]
        return sequents

    cong = conditions["d"] = ConditionResult(True, 0)
    for name, arity in l.signature.connectives:
        part = _condition(l, congruence(name, arity), reps, 2 * arity, f"{name}: ")
        cong.passed, cong.witness = part.passed, part.witness
        cong.instances += part.instances
        if not cong.passed:
            break

    def equivalence(x: Formula):
        image = _delta_tau(pair, x)
        return [((x,), d) for d in image] + [(image, x)]

    conditions["e"] = _condition(l, equivalence, universe, 1)
    return report


def tau_consequence(K: Sequence[FiniteAlgebra], pair: AlgebraizingPair,
                    gamma: Iterable[Formula], phi: Formula) -> bool:
    """Every valuation in K equating all of tau(gamma) equates tau(phi)."""
    premises = tuple(eq for g in gamma for eq in tau_translate(pair, g))
    return all(equational_consequence(K, premises, eq) for eq in tau_translate(pair, phi))


def check_interpretation(l: LogicSpec, pair: AlgebraizingPair, K: Sequence[FiniteAlgebra],
                         gamma: Iterable[Formula], phi: Formula) -> tuple[bool, bool]:
    """Both sides of the faithful-interpretation equivalence: the logic's
    consequence and the equational consequence of the translated sentence."""
    gamma = tuple(gamma)
    return consequence(l, gamma, phi), tau_consequence(K, pair, gamma, phi)


def check_inverse_condition(l: LogicSpec, pair: AlgebraizingPair, K: Sequence[FiniteAlgebra],
                            eq: Equation) -> tuple[bool, bool]:
    """Both directions of eq =||= tau(delta(eq)) over K."""
    image = tuple(
        e for d in delta_translate(pair, eq) for e in tau_translate(pair, d)
    )
    forward = all(equational_consequence(K, (eq,), e) for e in image)
    backward = equational_consequence(K, image, eq)
    return forward, backward


def detachment_check(l: LogicSpec, pair: AlgebraizingPair, phi: Formula, psi: Formula) -> bool:
    """phi together with phi-delta-psi entails psi."""
    return consequence(l, (phi,) + delta_translate(pair, Equation(phi, psi)), psi)


class QuasiIdentity:
    """The quasi-identity ``premises -> conclusion`` of kind "i", "ii" or
    "iii". It compares and hashes by value, like the tuple of its fields but
    unequal to it. It is immutable by convention, as formula nodes are, and
    unlike the frozen records (``Equation``) it does not refuse assignment:
    a record that does sets each slot through a call of
    ``object.__setattr__``, and iterating ``qv_axioms``' sequence builds one
    quasi-identity per axiom, hundreds of thousands at the bench's bounds."""

    __slots__ = ("kind", "premises", "conclusion")

    def __init__(self, kind: str, premises: tuple[Equation, ...], conclusion: Equation):
        self.kind = kind
        self.premises = premises
        self.conclusion = conclusion

    def __eq__(self, other):
        if not isinstance(other, QuasiIdentity):
            return NotImplemented
        return (self.kind, self.premises, self.conclusion) == (
            other.kind, other.premises, other.conclusion)

    def __hash__(self):
        return hash((self.kind, self.premises, self.conclusion))

    def __repr__(self):
        prem = " & ".join(map(repr, self.premises)) or "true"
        return f"[{self.kind}] {prem} -> {self.conclusion!r}"


class QuasiIdentities(Sequence):
    """A read-only sequence of quasi-identities kept as premise groups.

    Each group ``(kind, premises, conclusions)`` in ``groups`` stands for
    ``QuasiIdentity(kind, premises, c)`` for each c in its conclusions, in
    order; empty groups are dropped. Indexing (negative indices too),
    slicing (into a list) and iteration build each quasi-identity on demand
    and keep none. The sequence compares equal to a list, or another such
    sequence, holding the same quasi-identities in the same order."""

    __slots__ = ("groups", "_ends")

    def __init__(self, groups: Iterable[tuple[str, tuple[Equation, ...], tuple[Equation, ...]]]):
        self.groups = tuple(g for g in groups if g[2])
        # _ends[g] is the index one past group g's last quasi-identity
        self._ends = list(itertools.accumulate(len(g[2]) for g in self.groups))

    def __len__(self):
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        i = operator.index(i)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("quasi-identity index out of range")
        g = bisect.bisect_right(self._ends, i)
        kind, premises, conclusions = self.groups[g]
        # i - _ends[g] counts back from the group's end
        return QuasiIdentity(kind, premises, conclusions[i - self._ends[g]])

    def __iter__(self):
        return itertools.chain.from_iterable(
            map(partial(QuasiIdentity, kind, premises), conclusions)
            for kind, premises, conclusions in self.groups
        )

    def __eq__(self, other):
        if not isinstance(other, (list, QuasiIdentities)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))


def qv_axioms(l: LogicSpec, pair: AlgebraizingPair, depth: int, num_vars: int,
              max_premises: int = 2) -> QuasiIdentities:
    """The three kinds of quasi-identities presenting the quasivariety: the
    reflexivity equations, the faithfulness quasi-identity, and one
    quasi-identity per bounded entailment of the logic (conclusions up to
    ``depth``, premise sets of at most ``max_premises`` formulas up to depth
    min(depth, 2)).

    They come as a ``QuasiIdentities`` sequence of premise groups: one group
    of kind (i) with no premises, one of kind (ii), and one of kind (iii) per
    premise set that entails a conclusion not yet emitted under its premise
    tuple. No ``QuasiIdentity`` is built here.

    The conclusions are sorted once into classes by
    ``LogicSpec.entailment_key``, in order of first occurrence; the members of
    a class are entailed by the same premise sets. Each premise set is decided
    once through ``LogicSpec.entailed``, against one representative per
    class: for cpc at most 16 truth tables over x0..x3, for ipc and matrix
    logics every conclusion. The equations of each distinct set of entailed
    classes are computed once, from its members in ascending conclusion
    order, and shared by every premise group with that set. A kind-(iii)
    axiom is emitted once per premise tuple and conclusion equation, in order
    of first occurrence."""
    x0, x1 = Var(0), Var(1)
    reflexive = tuple(eq for d in pair.delta for eq in tau_translate(pair, substitute(d, {1: x0})))
    premises = tuple(eq for d in pair.delta for eq in tau_translate(pair, d))
    groups = [("i", (), reflexive), ("ii", premises, (Equation(x0, x1),))]

    conclusions = enumerate_formulas(l.signature, num_vars, depth)
    images = [tau_translate(pair, phi) for phi in conclusions]
    classes: dict[object, list[int]] = {}
    for i, phi in enumerate(conclusions):
        classes.setdefault(l.entailment_key(phi), []).append(i)
    members = list(classes.values())
    representatives = [conclusions[m[0]] for m in members]
    premise_pool = enumerate_formulas(l.signature, num_vars, min(depth, 2))
    # the distinct equations of each set of entailed classes, in order
    equations: dict[tuple[int, ...], tuple[Equation, ...]] = {}
    # the kind-(iii) conclusions emitted so far under each premise tuple
    emitted: dict[tuple[Equation, ...], tuple[Equation, ...]] = {}
    for size in range(0, max_premises + 1):
        for gamma in itertools.combinations(premise_pool, size):
            prem = tuple(eq for g in gamma for eq in tau_translate(pair, g))
            hits = l.entailed(gamma, representatives)
            eqs = equations.get(hits)
            if eqs is None:
                entailed = sorted(i for g in hits for i in members[g])
                eqs = equations[hits] = tuple(dict.fromkeys(eq for i in entailed for eq in images[i]))
            if prem in emitted:
                # only a tau with variable-free sides gives two premise sets one tuple
                done = set(emitted[prem])
                eqs = tuple(eq for eq in eqs if eq not in done)
                emitted[prem] += eqs
            else:
                emitted[prem] = eqs
            groups.append(("iii", prem, eqs))
    return QuasiIdentities(groups)


class LindReport(Report):
    __slots__ = ("logic", "bounds", "passed", "instances", "witness")
    _defaults = (None,)

    def to_text(self) -> str:
        status = "pass" if self.passed else "FAIL"
        extra = f" witness: {self.witness}" if self.witness else ""
        return (
            f"lindenbaum property for {self.logic} "
            f"(vars={self.bounds['vars']}, depth={self.bounds['depth']}): "
            f"{status} [{self.instances} instances]{extra}"
        )


def is_lindenbaum(l: LogicSpec, pair: AlgebraizingPair, num_vars: int, depth: int) -> LindReport:
    """Bounded check that interderivability coincides with provable
    delta-equivalence."""
    universe = enumerate_formulas(l.signature, num_vars, depth)
    report = LindReport(l.name, {"vars": num_vars, "depth": depth}, True, 0)
    for phi, psi in itertools.combinations_with_replacement(universe, 2):
        report.instances += 1
        inter = l.interderivable(phi, psi)
        provable = class_equal(l, pair, phi, psi)
        if inter != provable:
            report.passed = False
            report.witness = (
                f"{print_formula(phi)}, {print_formula(psi)}: "
                f"interderivable={inter}, delta-provable={provable}"
            )
            break
    return report


# ---------------------------------------------------------------------------
# Boolean / Heyting membership by the classes' defining identities
# ---------------------------------------------------------------------------

def _identities(*texts: str) -> tuple[Equation, ...]:
    return tuple(
        Equation(*(parse_formula(BUILTIN_SIGNATURE, side) for side in text.split(" = ")))
        for text in texts
    )


HEYTING_IDENTITIES = _identities(
    "and(x0,x1) = and(x1,x0)",
    "or(x0,x1) = or(x1,x0)",
    "and(x0,and(x1,x2)) = and(and(x0,x1),x2)",
    "or(x0,or(x1,x2)) = or(or(x0,x1),x2)",
    "and(x0,or(x0,x1)) = x0",
    "or(x0,and(x0,x1)) = x0",
    "imp(x0,x0) = imp(x1,x1)",
    "and(x0,imp(x1,x1)) = x0",
    "or(x0,neg(imp(x1,x1))) = x0",
    "and(x0,imp(x0,x1)) = and(x0,x1)",
    "and(x1,imp(x0,x1)) = x1",
    "imp(x0,and(x1,x2)) = and(imp(x0,x1),imp(x0,x2))",
    "neg(x0) = imp(x0,neg(imp(x1,x1)))",
)
IFF_IDENTITY, = _identities("iff(x0,x1) = and(imp(x0,x1),imp(x1,x0))")
EXCLUDED_MIDDLE, = _identities("or(x0,neg(x0)) = imp(x0,x0)")


def qv_membership(cls_name: str, A: FiniteAlgebra) -> bool:
    """Whether A satisfies the defining identities of the class, each decided
    as an equational consequence on the evaluation kernel; the verdict is
    memoised on A per class.

    Heyting algebras form a variety (Burris and Sankappanavar, *A Course in
    Universal Algebra*, ch. II), and ``HEYTING_IDENTITIES`` is its standard
    basis: and/or make a lattice (commutativity, associativity, absorption;
    idempotence follows); x -> x is one constant, the top, which is the unit
    of meet; the negation of the top is the bottom, the unit of join; the
    three implication identities make x -> y the relative pseudo-complement
    of x and y, which forces distributivity; and negation is implication into
    the bottom. When A interprets iff, it must be the meet of both
    implications. Boolean algebras are the Heyting algebras with excluded
    middle."""
    if cls_name not in ("boolean", "heyting"):
        raise ValueError(f"unknown class {cls_name!r} (use 'boolean' or 'heyting')")
    for req in ("neg", "imp", "and", "or"):
        if req not in A.tables:
            raise ValueError(f"algebra does not interpret {req}")
    laws = HEYTING_IDENTITIES + (IFF_IDENTITY,) * ("iff" in A.tables)
    laws += (EXCLUDED_MIDDLE,) * (cls_name == "boolean")
    return _invariant(A, ("qv_membership", cls_name),
                      lambda A: all(quasiidentity_holds(A, (), law) for law in laws))
