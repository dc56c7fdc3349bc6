"""Finite algebras over a signature: evaluation, homomorphisms, congruences,
quotients, the Leibniz operator and logic filters.

Carriers are always {0, ..., n-1}. Operation tables are stored flat in
row-major order (first index = leftmost argument).

All checks over every valuation go through one kernel, ``value_vector``:
matrix and equational consequence, theorem values and filter checks,
Boolean and Heyting membership (each defining identity is an equational
consequence), reducts along morphisms, a Glivenko context's adjoint and the
regular elements, and the Kripke countermodel search, which evaluates in the
Heyting algebra of each frame's upsets (on one world it also decides the
classical queries that mention a variable beyond x3). A frame is a variable
bitmask (bit i for x_i, as in ``Formula.vmask``); its rows are the
valuations of its variables in ``itertools.product(A.elements(), repeat=k)``
order, the lowest variable the most significant digit. A value vector holds
a formula's value in every row and is built bottom-up, one table lookup per
row per node. Row sets are int masks (bit r for row r), so a consequence
check is an AND and a mask test whose lowest set bit is the first violating
valuation.

Everything that depends on one algebra alone is memoised on that algebra
instance, in ``A._memo`` (formulas in its keys hash and compare by identity):

- value vectors, keyed ``(frame, phi)``, and equation masks, keyed
  ``(frame, lhs, rhs)``, also read directly by ``provers.quasiidentity_holds``;
- the basic translations, read through ``_translations`` by ``leibniz`` and
  ``congruence_generated``, and the congruence list (for ``leibniz_bruteforce``);
- theorem values and spot-theorem values per logic, both read through
  ``_proved_values``, for ``filter_closure``, which ``is_filter`` reads;
- membership verdicts of ``algebraization.qv_membership`` per class;
- a Glivenko context's adjoint per (source logic, theta), and the
  regular-element adjoint.

The invariants go through ``_invariant`` under keys that begin with a
string, so they cannot collide with the kernel's frame keys. No module or
context holds a caller's algebra (``provers._frame_cache`` keeps only the
frame algebras it builds), so an algebra and its memo are freed with its
last reference; ``_remember`` drops a full memo at ``MEMO_LIMIT``. The
syntactic translations (a morphism's extension, a pair's tau and Delta, a
context's theta[phi']) keep no memo: each is a substitution that builds
interned nodes afresh on every call.

Homomorphisms come from one backtracking search over table rows
(``_homomorphism_search``), which ``homomorphisms`` lists and
``find_isomorphism`` stops at its first bijection; ``is_homomorphism``
checks one given map (quotients, the unit, the certificates). ``leibniz``
and ``congruence_generated`` are fixpoints over the basic translations
x -> c(a1, .., x, .., ak), which generate the unary polynomials.

A partition has one form, its least-representative map: ``from_pairs``
merges two blocks by relabelling the larger representative to the smaller,
and the oracle ``all_congruences`` walks the maps in lexicographic order. It
refuses carriers of more than 8 elements, as ``all_filters`` does.

``evaluate`` handles one valuation.
"""

from __future__ import annotations

import itertools
from operator import add, eq, mul
from typing import Iterable, Sequence

from .syntax import (
    BUILTIN_SIGNATURE,
    MAX_UNIVERSE,
    Formula,
    Signature,
    Var,
    _integer,
    enumerate_formulas,
    formula_over,
    parse_formula,
)


class FiniteAlgebra:
    def __init__(self, signature: Signature, size: int, tables: dict[str, Sequence[int]]):
        if _integer(size, "carrier size") < 1:
            raise ValueError("carrier must be nonempty")
        self.signature = signature
        self.size = size
        flat: dict[str, tuple[int, ...]] = {}
        for name, arity in signature.connectives:
            if name not in tables:
                raise ValueError(f"missing table for {name}")
            table = tuple(tables[name])
            # here size**arity >= 2**arity exceeds the length; it is not built, as a
            # signature file's arity may be huge
            if size > 1 and arity > len(table).bit_length():
                raise ValueError(f"table for {name} has {len(table)} entries, expected {size}**{arity}")
            if len(table) != size**arity:
                raise ValueError(f"table for {name} has {len(table)} entries, expected {size**arity}")
            cell = f"table cell of {name}"
            if any(not (0 <= _integer(v, cell) < size) for v in table):
                raise ValueError(f"table for {name} has out-of-range entries")
            flat[name] = table
        extra = set(tables) - set(signature.names)
        if extra:
            raise ValueError(f"tables for unknown connectives: {sorted(extra)}")
        self.tables = flat
        self._hash = hash((signature, size, tuple(sorted(flat.items()))))
        self._memo: dict[tuple, object] = {}  # see value_vector and leibniz

    def op(self, name: str, *args: int) -> int:
        index = 0
        for a in args:
            index = index * self.size + a
        return self.tables[name][index]

    def elements(self) -> range:
        return range(self.size)

    def __eq__(self, other):
        return (
            isinstance(other, FiniteAlgebra)
            and self.signature == other.signature
            and self.size == other.size
            and self.tables == other.tables
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FiniteAlgebra(size={self.size}, ops={list(self.tables)})"

    def to_json(self) -> dict:
        return {
            "signature": self.signature.to_json(),
            "size": self.size,
            "tables": {name: _nest(self.tables[name], self.size, self.signature.arity(name)) for name in self.tables},
        }

    @classmethod
    def from_json(cls, data: dict, signature: Signature | None = None) -> "FiniteAlgebra":
        """Each table is flat in row-major order or nested as ``to_json`` writes it."""
        sig = signature if signature is not None else Signature.from_json(data["signature"])
        A = cls(sig, data["size"], {name: _flatten(table) for name, table in data["tables"].items()})
        for name, table in data["tables"].items():
            if table != list(A.tables[name]) and table != _nest(A.tables[name], A.size, sig.arity(name)):
                raise ValueError(f"table for {name} is neither flat nor nested one level per argument")
        return A


def _nest(flat: tuple[int, ...], size: int, arity: int):
    if arity == 0:
        return flat[0]
    if arity == 1:
        return list(flat)
    step = size ** (arity - 1)
    return [_nest(flat[i * step : (i + 1) * step], size, arity - 1) for i in range(size)]


def _flatten(table) -> list:
    """A table's cells in order: anything but a list is one cell. It walks a
    stack, not the call stack, so no nesting depth overflows it."""
    cells, stack = [], [table]
    while stack:
        entry = stack.pop()
        if isinstance(entry, list):
            stack.extend(reversed(entry))
        else:
            cells.append(entry)
    return cells


def evaluate(A: FiniteAlgebra, phi: Formula, v: dict[int, int]) -> int:
    """Homomorphic extension of the valuation ``v`` applied to ``phi``."""
    if isinstance(phi, Var):
        try:
            return v[phi.index]
        except KeyError:
            raise ValueError(f"no binding for x{phi.index}") from None
    if phi.name not in A.tables:
        raise ValueError(f"connective {phi.name} not interpreted in this algebra")
    index = 0
    for arg in phi.args:
        index = index * A.size + evaluate(A, arg, v)
    return A.tables[phi.name][index]


MEMO_LIMIT = 100_000


def _remember(memo: dict, key, value):
    """Store ``value`` under ``key``, first dropping the whole memo if it is full."""
    if len(memo) >= MEMO_LIMIT:
        memo.clear()
    memo[key] = value
    return value


def value_vector(A: FiniteAlgebra, phi: Formula, frame: int) -> tuple[int, ...]:
    """phi's value in every row of the frame, which must cover phi's variables."""
    vec = A._memo.get((frame, phi))
    if vec is not None:
        return vec
    n, rows = A.size, A.size ** frame.bit_count()
    if isinstance(phi, Var):
        if not frame >> phi.index & 1:
            raise ValueError(f"no binding for x{phi.index}")
        step = n ** (frame >> phi.index + 1).bit_count()  # n ** (frame variables above x_i)
        vec = tuple(r // step % n for r in range(rows))
    elif phi.name not in A.tables:
        raise ValueError(f"connective {phi.name} not interpreted in this algebra")
    else:
        index = itertools.repeat(0, rows)  # row-major table index, one argument at a time
        for arg in phi.args:
            index = map(add, map(mul, index, itertools.repeat(n)), value_vector(A, arg, frame))
        vec = tuple(map(A.tables[phi.name].__getitem__, index))
    return _remember(A._memo, (frame, phi), vec)


_BINARY_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _rows(flags: Iterable[bool]) -> int:
    """The mask with bit r set for each set flag r."""
    return int(bytes(flags).translate(_BINARY_DIGITS)[::-1], 2)


def all_rows(A: FiniteAlgebra, frame: int) -> int:
    return (1 << A.size ** frame.bit_count()) - 1


def filter_rows(A: FiniteAlgebra, F: frozenset[int], phi: Formula, frame: int) -> int:
    """The rows of the frame where phi takes a value in F."""
    return _rows(map(F.__contains__, value_vector(A, phi, frame)))


def equation_rows(A: FiniteAlgebra, lhs: Formula, rhs: Formula, frame: int) -> int:
    """The rows of the frame where lhs and rhs agree, memoised."""
    rows = A._memo.get((frame, lhs, rhs))
    if rows is None:
        rows = _rows(map(eq, value_vector(A, lhs, frame), value_vector(A, rhs, frame)))
        _remember(A._memo, (frame, lhs, rhs), rows)
    return rows


def frame_valuation(A: FiniteAlgebra, frame: int, row: int) -> dict[int, int]:
    """The valuation in row ``row`` of the frame, variables in ascending order."""
    vars_ = [i for i in range(frame.bit_length()) if frame >> i & 1]
    return {i: row // A.size ** (len(vars_) - 1 - j) % A.size for j, i in enumerate(vars_)}


def is_homomorphism(A: FiniteAlgebra, B: FiniteAlgebra, f: Sequence[int],
                    signature: Signature | None = None) -> bool:
    """Whether f(c(a..)) = c(f(a)..) for every connective c of the signature,
    A's by default, which A and B must interpret; f maps A's elements to B's."""
    for name, arity in (signature or A.signature).connectives:
        index = [0]  # B's table index of (f(a1), .., f(ak)), rows in A's table order
        for _ in range(arity):
            index = [i * B.size + f[a] for i in index for a in A.elements()]
        if list(map(f.__getitem__, A.tables[name])) != list(map(B.tables[name].__getitem__, index)):
            return False
    return True


def _homomorphism_search(A: FiniteAlgebra, B: FiniteAlgebra):
    """Every homomorphism from A to B, in lexicographic order. h is fixed on
    A's elements in ascending order, each trying B's elements in ascending
    order, and a table row c(a1..ak) = r is checked as soon as h is fixed on
    its largest element max(a1..ak, r). The search keeps its own stack."""
    if A.signature != B.signature:
        raise ValueError("signature mismatch")
    n, m = A.size, B.size
    rows: list[list] = [[] for _ in A.elements()]  # rows[k]: the rows whose largest element is k
    for name, arity in A.signature.connectives:
        for args, r in zip(itertools.product(A.elements(), repeat=arity), A.tables[name]):
            rows[max(args + (r,))].append((args, r, B.tables[name]))
    h = [-1] * n  # h[k] == -1: not yet fixed
    k = 0  # the element whose image is being tried
    while k >= 0:
        h[k] += 1
        if h[k] == m:
            h[k] = -1
            k -= 1
            continue
        for args, r, table in rows[k]:
            index = 0
            for a in args:
                index = index * m + h[a]
            if table[index] != h[r]:
                break
        else:
            if k == n - 1:
                yield tuple(h)
            else:
                k += 1


def homomorphisms(A: FiniteAlgebra, B: FiniteAlgebra) -> list[tuple[int, ...]]:
    """All maps h with h(c(a..)) = c(h(a)..), in lexicographic table order."""
    return list(_homomorphism_search(A, B))


def find_isomorphism(A: FiniteAlgebra, B: FiniteAlgebra) -> tuple[int, ...] | None:
    """The first bijective homomorphism of the search, or None."""
    if A.size != B.size or A.signature != B.signature:
        return None
    return next((h for h in _homomorphism_search(A, B) if len(set(h)) == A.size), None)


class Congruence:
    """Partition of {0..n-1} in canonical form: element -> least representative."""

    __slots__ = ("size", "rep")

    def __init__(self, size: int, rep: Sequence[int]):
        rep = tuple(rep)
        if len(rep) != size or any(not 0 <= r <= i for i, r in enumerate(rep)) or any(rep[r] != r for r in rep):
            raise ValueError("not a least-representative map")
        self.size = size
        self.rep = rep

    @classmethod
    def from_pairs(cls, size: int, pairs: Iterable[tuple[int, int]]) -> "Congruence":
        rep = list(range(size))
        for a, b in pairs:
            if not (0 <= a < size and 0 <= b < size):
                raise ValueError(f"element out of range: {(a, b)}")
            lo, hi = sorted((rep[a], rep[b]))
            if lo != hi:
                rep = [lo if r == hi else r for r in rep]
        return cls(size, rep)

    @classmethod
    def identity(cls, size: int) -> "Congruence":
        return cls(size, range(size))

    def related(self, a: int, b: int) -> bool:
        return self.rep[a] == self.rep[b]

    def blocks(self) -> list[list[int]]:
        by_rep: dict[int, list[int]] = {}
        for i, r in enumerate(self.rep):
            by_rep.setdefault(r, []).append(i)
        return [by_rep[r] for r in sorted(by_rep)]

    def is_identity(self) -> bool:
        return all(r == i for i, r in enumerate(self.rep))

    def num_blocks(self) -> int:
        return len(set(self.rep))

    def contains(self, other: "Congruence") -> bool:
        return all(self.related(i, other.rep[i]) for i in range(self.size))

    def __eq__(self, other):
        return isinstance(other, Congruence) and self.rep == other.rep

    def __hash__(self):
        return hash(self.rep)

    def __repr__(self):
        return "Congruence(%s)" % "|".join(",".join(map(str, b)) for b in self.blocks())


def _representatives(A: FiniteAlgebra, theta: Congruence) -> tuple[list[int], tuple[int, ...]]:
    """theta's least representatives, ascending, and its projection sending
    each element to the index of its block's representative."""
    if theta.size != A.size:
        raise ValueError("partition size mismatch")
    reps = sorted(set(theta.rep))
    index = {r: i for i, r in enumerate(reps)}
    return reps, tuple(index[r] for r in theta.rep)


def _algebra_on(A: FiniteAlgebra, reps: Sequence[int], proj: Sequence[int]) -> FiniteAlgebra:
    """The algebra on the indices of ``reps`` whose operation c sends
    (i1, .., ik) to proj[c(reps[i1], .., reps[ik])] in A."""
    return FiniteAlgebra(A.signature, len(reps), {
        name: [proj[A.op(name, *args)] for args in itertools.product(reps, repeat=arity)]
        for name, arity in A.signature.connectives
    })


def is_congruence(A: FiniteAlgebra, theta: Congruence) -> bool:
    """Whether theta is compatible with every operation. theta is the kernel
    of its projection onto the algebra built at its least representatives,
    so it is a congruence exactly when that projection is a homomorphism
    (the first isomorphism theorem)."""
    reps, proj = _representatives(A, theta)
    return is_homomorphism(A, _algebra_on(A, reps, proj), proj)


def congruence_generated(A: FiniteAlgebra, pairs: Iterable[tuple[int, int]]) -> Congruence:
    """Least congruence containing ``pairs``: the least equivalence holding
    them that each basic translation t preserves (Mal'cev's lemma, Burris and
    Sankappanavar, *A Course in Universal Algebra*, ch. II). Each round merges
    t(a) with t(rep(a)) for every element a and translation t, which covers
    every related pair by transitivity, until a round merges nothing."""
    theta = Congruence.from_pairs(A.size, pairs)
    while True:
        rep = theta.rep
        theta = Congruence.from_pairs(A.size, [
            *enumerate(rep), *((t[a], t[r]) for a, r in enumerate(rep) if a != r for t in _translations(A))])
        if theta.rep == rep:
            return theta


def all_congruences(A: FiniteAlgebra) -> list[Congruence]:
    """Every congruence of A, by brute force over all partitions in the
    lexicographic order of their maps: element i joins an earlier block, in
    ascending order of representatives, or starts its own. At most 8 elements."""
    n = A.size
    if n > 8:
        raise ValueError("carrier too large for exhaustive congruence enumeration (> 8)")
    out = []
    stack = [(0,)]
    while stack:
        rep = stack.pop()
        i = len(rep)
        if i == n:
            theta = Congruence(n, rep)
            if is_congruence(A, theta):
                out.append(theta)
        else:
            # pushed in reverse, so the lowest representative is popped first
            stack.extend(rep + (r,) for r in range(i, -1, -1) if r == i or rep[r] == r)
    return out


def quotient(A: FiniteAlgebra, theta: Congruence) -> tuple[FiniteAlgebra, tuple[int, ...]]:
    """Quotient algebra (blocks indexed by ascending least representatives)
    together with the projection map element -> block index. The quotient is
    the algebra built at the representatives, and theta, the projection's
    kernel, is a congruence exactly when the projection is a homomorphism
    onto it."""
    reps, proj = _representatives(A, theta)
    Q = _algebra_on(A, reps, proj)
    if not is_homomorphism(A, Q, proj):
        raise ValueError("partition is not compatible with the operations")
    return Q, proj


def compatible(theta: Congruence, F: Iterable[int]) -> bool:
    """Whether F is a union of blocks: each element is in F exactly when its representative is."""
    F = set(F)
    if not F.issubset(range(theta.size)):
        raise ValueError(f"element out of range: {min(F.difference(range(theta.size)))}")
    return all((b in F) == (r in F) for b, r in enumerate(theta.rep))


def _invariant(A: FiniteAlgebra, key: tuple, compute):
    """A value that depends only on A, computed once and kept in A's memo."""
    value = A._memo.get(key)
    if value is None:
        value = _remember(A._memo, key, compute(A))
    return value


def _translations(A: FiniteAlgebra) -> tuple[tuple[int, ...], ...]:
    """A's basic translations x -> c(a1, .., x, .., ak), sorted and kept in A's memo."""
    def compute(A):
        n = A.size
        found = set()
        for name, arity in A.signature.connectives:
            table = A.tables[name]
            for pos in range(arity):
                step = n ** (arity - 1 - pos)  # the table index step of the argument at pos
                found.update(table[i : i + n * step : step] for i in range(n**arity) if i // step % n == 0)
        return tuple(sorted(found))

    return _invariant(A, ("translations",), compute)


def _carrier_subset(A: FiniteAlgebra, F: Iterable[int]) -> set[int]:
    """F as a set of A's elements, each entry checked first: a set merges True into 1."""
    F = [_integer(a, "filter element") for a in F]
    if any(not 0 <= a < A.size for a in F):
        raise ValueError("filter element out of range")
    return set(F)


def leibniz(A: FiniteAlgebra, F: Iterable[int]) -> Congruence:
    """Largest congruence compatible with F: a ~ b iff p(a) and p(b) agree on
    F-membership for every unary polynomial p. Each round refines the
    partition by F-membership, sending every element to the least element
    with the same block and the same blocks of its basic translates, until a
    round adds no block; one block or all singletons cannot split."""
    F = _carrier_subset(A, F)
    first: dict = {}  # a block's profile -> its least element
    rep = [first.setdefault(a in F, a) for a in A.elements()]
    while 1 < len(first) < A.size:
        blocks, first = len(first), {}
        profiles = zip(rep, *(map(rep.__getitem__, t) for t in _translations(A)))
        rep = [first.setdefault(profile, a) for a, profile in enumerate(profiles)]
        if len(first) == blocks:
            break
    return Congruence(A.size, rep)


def leibniz_bruteforce(A: FiniteAlgebra, F: Iterable[int]) -> Congruence:
    """Oracle: the maximum compatible congruence, by full enumeration."""
    F = _carrier_subset(A, F)
    thetas = _invariant(A, ("all_congruences",), lambda A: tuple(all_congruences(A)))
    compat = [theta for theta in thetas if compatible(theta, F)]
    best = min(compat, key=Congruence.num_blocks)
    if not all(best.contains(theta) for theta in compat):
        raise RuntimeError("no greatest compatible congruence found; algebra encoding is broken")
    return best


def is_reduced(A: FiniteAlgebra, F: Iterable[int]) -> bool:
    return leibniz(A, F).is_identity()


def reduce_matrix(A: FiniteAlgebra, F: Iterable[int]) -> tuple[FiniteAlgebra, frozenset[int]]:
    """Quotient by the Leibniz congruence, with the image filter."""
    F = set(F)
    theta = leibniz(A, F)
    B, proj = quotient(A, theta)
    return B, frozenset(proj[a] for a in F)


def _proved_values(logic, A: FiniteAlgebra, formulas: Iterable[Formula]) -> frozenset[int]:
    """Values taken in A, under every valuation, by the formulas that
    ``logic`` proves."""
    return frozenset(a for phi in formulas if logic.proves((), phi) for a in value_vector(A, phi, phi.vmask))


def theorem_values(logic, A: FiniteAlgebra) -> frozenset[int]:
    """Values taken in A, under every valuation, by the theorems of ``logic``
    over min(|A|, 3) variables up to depth 2. Raises ValueError when A's
    signature makes that universe pass MAX_UNIVERSE."""
    def compute(A):
        try:
            formulas = enumerate_formulas(A.signature, min(A.size, 3), 2)
        except ValueError:
            # the bounds are this function's, not the caller's: name the algebra instead
            raise ValueError(f"enumerating the theorem values of a {A.size}-element algebra exceeds"
                             f" the limit of {MAX_UNIVERSE:,} formulas") from None
        return _proved_values(logic, A, formulas)

    return _invariant(A, ("theorem_values", logic), compute)


def _require_implicative(logic, A: FiniteAlgebra) -> str:
    """The logic's implication connective, which A must interpret."""
    imp = getattr(logic, "implication", None)
    if imp is None:
        raise ValueError("logic is not implicative: no designated implication connective")
    if imp not in A.tables:
        raise ValueError(f"algebra does not interpret {imp}")
    return imp


# deeper theorems than the default enumeration bound reaches; used to notice
# when the bounded closure misses theorem values on an algebra
_SPOT_THEOREMS = tuple(parse_formula(BUILTIN_SIGNATURE, text) for text in (
    "neg(neg(or(x0,neg(x0))))",
    "neg(neg(imp(neg(neg(x0)),x0)))",
    "neg(and(x0,neg(x0)))",
    "imp(neg(x0),imp(x0,x1))",
    "imp(and(x0,x1),or(x1,x0))",
))


def _spot_values(logic, A: FiniteAlgebra) -> frozenset[int]:
    """Values taken in A by the spot theorems that ``logic`` proves and A's
    signature can express, kept in A's memo."""
    return _invariant(A, ("spot_values", logic), lambda A: _proved_values(
        logic, A, (phi for phi in _SPOT_THEOREMS if formula_over(A.signature, phi))))


def filter_closure(logic, A: FiniteAlgebra, S: Iterable[int]) -> frozenset[int]:
    """Least superset of S containing all bounded-theorem values and closed
    under modus ponens for the logic's implication: b is in it whenever some
    a and a -> b are. A spot-check with a few deeper theorems raises
    (reported, not silent) when the enumeration bound was too small for this
    algebra."""
    table = A.tables[_require_implicative(logic, A)]
    F = _carrier_subset(A, S) | theorem_values(logic, A)
    while grown := {b for a in F for b in A.elements() if table[a * A.size + b] in F} - F:
        F |= grown
    # theorem values and detachment hold by construction; only the deeper
    # spot theorems can fall outside the closure
    if not _spot_values(logic, A) <= F:
        raise RuntimeError(
            "closure bound exhausted: a theorem takes a value outside the closure, or "
            "detachment escapes it"
        )
    return frozenset(F)


def is_filter(logic, A: FiniteAlgebra, F: Iterable[int]) -> bool:
    """Bounded l-filter check for implicative logics: F holds the values of
    the spot theorems and is its own ``filter_closure`` (so it holds every
    bounded theorem value and is closed under modus ponens)."""
    _require_implicative(logic, A)
    F = _carrier_subset(A, F)
    return _spot_values(logic, A) <= F and filter_closure(logic, A, F) == F


def all_filters(logic, A: FiniteAlgebra) -> list[frozenset[int]]:
    """Every subset passing the filter check, smallest first (the order is
    compatible with inclusion). Refuses carriers of more than 8 elements."""
    if A.size > 8:
        raise ValueError("carrier too large for exhaustive filter enumeration (> 8)")
    out = []
    for k in range(A.size + 1):
        for subset in itertools.combinations(A.elements(), k):
            F = frozenset(subset)
            if is_filter(logic, A, F):
                out.append(F)
    return out

