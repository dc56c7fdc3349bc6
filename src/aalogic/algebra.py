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
instance, in ``A._memo``:

- value vectors, keyed ``(frame, phi)``, and equation masks, keyed
  ``(frame, lhs, rhs)``, with interned formulas;
- the sorted unary-polynomial clone, read through ``_polynomials`` by
  ``leibniz`` and ``congruence_generated``, and the congruence list (for
  ``leibniz_bruteforce``, which must not share the clone);
- theorem values per (logic, bounds) and spot-theorem values per logic (for
  ``filter_closure`` and ``is_filter``);
- membership verdicts of ``algebraization.qv_membership`` per class.

The invariants go through ``_invariant`` under keys that begin with a
string, so they cannot collide with the kernel's frame keys. No
module-level cache holds a caller's algebra (``provers._frame_cache`` keeps
only the frame algebras it builds), so an algebra and its memo are freed
with its last reference. This memo, the translation memos of
``FlexibleMorphism``, ``AlgebraizingPair`` and ``GlivenkoContext`` and the
context's adjoint cache all go through ``_remember``, which drops a memo
wholesale at ``MEMO_LIMIT`` entries.

``evaluate`` handles one valuation.
"""

from __future__ import annotations

import itertools
from operator import add, eq, mul
from typing import Iterable, Sequence

from .syntax import Formula, Signature, Var, enumerate_formulas, parse_formula


class FiniteAlgebra:
    def __init__(self, signature: Signature, size: int, tables: dict[str, Sequence[int]]):
        if size < 1:
            raise ValueError("carrier must be nonempty")
        self.signature = signature
        self.size = size
        flat: dict[str, tuple[int, ...]] = {}
        for name, arity in signature.connectives:
            if name not in tables:
                raise ValueError(f"missing table for {name}")
            table = tuple(tables[name])
            if len(table) != size**arity:
                raise ValueError(f"table for {name} has {len(table)} entries, expected {size**arity}")
            if any(not (0 <= v < size) for v in table):
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
        sig = signature if signature is not None else Signature.from_json(data["signature"])
        size = data["size"]
        tables = {name: _flatten(table) for name, table in data["tables"].items()}
        return cls(sig, size, tables)


def _nest(flat: tuple[int, ...], size: int, arity: int):
    if arity == 0:
        return flat[0]
    if arity == 1:
        return list(flat)
    step = size ** (arity - 1)
    return [_nest(flat[i * step : (i + 1) * step], size, arity - 1) for i in range(size)]


def _flatten(table) -> list[int]:
    if isinstance(table, int):
        return [table]
    out: list[int] = []
    for entry in table:
        if isinstance(entry, int):
            out.append(entry)
        else:
            out.extend(_flatten(entry))
    return out


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


def homomorphisms(A: FiniteAlgebra, B: FiniteAlgebra) -> list[tuple[int, ...]]:
    """All maps h with h(c(a..)) = c(h(a)..), in lexicographic table order."""
    if A.signature != B.signature:
        raise ValueError("signature mismatch")
    return [h for h in itertools.product(B.elements(), repeat=A.size) if is_homomorphism(A, B, h)]


def find_isomorphism(A: FiniteAlgebra, B: FiniteAlgebra) -> tuple[int, ...] | None:
    if A.size != B.size or A.signature != B.signature:
        return None
    for h in homomorphisms(A, B):
        if len(set(h)) == A.size:
            return h
    return None


class Congruence:
    """Partition of {0..n-1} in canonical form: element -> least representative."""

    __slots__ = ("size", "rep")

    def __init__(self, size: int, rep: Sequence[int]):
        rep = tuple(rep)
        if len(rep) != size or any(rep[r] != r for r in rep) or any(not 0 <= r <= i for i, r in enumerate(rep)):
            raise ValueError("not a least-representative map")
        self.size = size
        self.rep = rep

    @classmethod
    def from_pairs(cls, size: int, pairs: Iterable[tuple[int, int]]) -> "Congruence":
        parent = list(range(size))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in pairs:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        return cls(size, tuple(find(i) for i in range(size)))

    @classmethod
    def identity(cls, size: int) -> "Congruence":
        return cls(size, range(size))

    @classmethod
    def from_blocks(cls, size: int, blocks: Iterable[Iterable[int]]) -> "Congruence":
        return cls.from_pairs(size, [(block[0], b) for block in map(list, blocks) for b in block])

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


def is_congruence(A: FiniteAlgebra, theta: Congruence) -> bool:
    for name, arity in A.signature.connectives:
        if arity == 0:
            continue
        for args in itertools.product(A.elements(), repeat=arity):
            for pos in range(arity):
                a = args[pos]
                for b in range(a + 1, A.size):
                    if theta.related(a, b):
                        other = args[:pos] + (b,) + args[pos + 1 :]
                        if not theta.related(A.op(name, *args), A.op(name, *other)):
                            return False
    return True


def congruence_generated(A: FiniteAlgebra, pairs: Iterable[tuple[int, int]]) -> Congruence:
    """Least congruence containing ``pairs``. By Mal'cev's lemma (Burris and
    Sankappanavar, *A Course in Universal Algebra*, ch. II) it is the
    equivalence closure of (p(a), p(b)) for every pair (a, b) and every unary
    polynomial p of A."""
    pairs = list(pairs)
    for a, b in pairs:
        if not (0 <= a < A.size and 0 <= b < A.size):
            raise ValueError(f"element out of range: {(a, b)}")
    return Congruence.from_pairs(A.size, [(p[a], p[b]) for p in _polynomials(A) for a, b in pairs])


def all_congruences(A: FiniteAlgebra) -> list[Congruence]:
    """Every congruence of A, by brute force over all partitions."""
    out = []
    for rgs in _restricted_growth_strings(A.size):
        first_of: dict[int, int] = {}
        rep = []
        for i, label in enumerate(rgs):
            rep.append(first_of.setdefault(label, i))
        theta = Congruence(A.size, rep)
        if is_congruence(A, theta):
            out.append(theta)
    return out


def _restricted_growth_strings(n: int):
    string = [0] * n

    def rec(i: int, max_label: int):
        if i == n:
            yield tuple(string)
            return
        for label in range(max_label + 2):
            string[i] = label
            yield from rec(i + 1, max(max_label, label))

    yield from rec(1, 0) if n > 0 else iter(())


def quotient(A: FiniteAlgebra, theta: Congruence) -> tuple[FiniteAlgebra, tuple[int, ...]]:
    """Quotient algebra (blocks indexed by ascending least representatives)
    together with the projection map element -> block index."""
    if theta.size != A.size:
        raise ValueError("partition size mismatch")
    if not is_congruence(A, theta):
        raise ValueError("partition is not compatible with the operations")
    reps = sorted(set(theta.rep))
    block_index = {r: i for i, r in enumerate(reps)}
    proj = tuple(block_index[theta.rep[a]] for a in range(A.size))
    tables = {}
    for name, arity in A.signature.connectives:
        table = []
        for args in itertools.product(reps, repeat=arity):
            table.append(proj[A.op(name, *args)])
        tables[name] = table
    return FiniteAlgebra(A.signature, len(reps), tables), proj


def compatible(theta: Congruence, F: Iterable[int]) -> bool:
    F = set(F)
    return all(b in F for a in F for b in range(theta.size) if theta.related(a, b))


def unary_polynomials(A: FiniteAlgebra) -> set[tuple[int, ...]]:
    """All unary polynomial functions, generated breadth-first from the tables
    with constants until the set of induced functions stabilizes."""
    identity = tuple(range(A.size))
    funcs = {identity}
    frontier = [identity]
    while frontier:
        new: list[tuple[int, ...]] = []
        for f in frontier:
            for name, arity in A.signature.connectives:
                if arity == 0:
                    continue
                for pos in range(arity):
                    for consts in itertools.product(A.elements(), repeat=arity - 1):
                        g = tuple(
                            A.op(name, *(consts[:pos] + (f[x],) + consts[pos:]))
                            for x in A.elements()
                        )
                        if g not in funcs:
                            funcs.add(g)
                            new.append(g)
        frontier = new
    return funcs


def _invariant(A: FiniteAlgebra, key: tuple, compute):
    """A value that depends only on A, computed once and kept in A's memo."""
    value = A._memo.get(key)
    if value is None:
        value = _remember(A._memo, key, compute(A))
    return value


def _polynomials(A: FiniteAlgebra) -> tuple[tuple[int, ...], ...]:
    """A's unary-polynomial clone, sorted and kept in A's memo."""
    return _invariant(A, ("unary_polynomials",), lambda A: tuple(sorted(unary_polynomials(A))))


def _carrier_subset(A: FiniteAlgebra, F: Iterable[int]) -> set[int]:
    F = set(F)
    if any(not 0 <= a < A.size for a in F):
        raise ValueError("filter element out of range")
    return F


def leibniz(A: FiniteAlgebra, F: Iterable[int]) -> Congruence:
    """Largest congruence compatible with F, via the unary-polynomial
    characterization: a ~ b iff p(a) and p(b) agree on F-membership for
    every unary polynomial p."""
    F = _carrier_subset(A, F)
    polys = _polynomials(A)
    profile = {a: tuple(p[a] in F for p in polys) for a in A.elements()}
    pairs = [
        (a, b)
        for a in A.elements()
        for b in range(a + 1, A.size)
        if profile[a] == profile[b]
    ]
    return Congruence.from_pairs(A.size, pairs)


def leibniz_bruteforce(A: FiniteAlgebra, F: Iterable[int]) -> Congruence:
    """Oracle: the maximum compatible congruence, by full enumeration."""
    F = _carrier_subset(A, F)
    thetas = _invariant(A, ("all_congruences",), lambda A: tuple(all_congruences(A)))
    compat = [theta for theta in thetas if compatible(theta, F)]
    best = max(compat, key=lambda t: sum(1 for a in range(t.size) for b in range(t.size) if t.related(a, b)))
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


def theorem_values(logic, A: FiniteAlgebra) -> frozenset[int]:
    """Values taken in A, under every valuation, by the theorems of ``logic``
    over min(|A|, 3) variables up to depth 2."""
    return _invariant(A, ("theorem_values", logic), lambda A: frozenset(
        a
        for phi in enumerate_formulas(A.signature, min(A.size, 3), 2)
        if logic.proves((), phi)
        for a in value_vector(A, phi, phi.vmask)
    ))


def _require_implicative(logic, A: FiniteAlgebra) -> str:
    """The logic's implication connective, which A must interpret."""
    imp = getattr(logic, "implication", None)
    if imp is None:
        raise ValueError("logic is not implicative: no designated implication connective")
    if imp not in A.tables:
        raise ValueError(f"algebra does not interpret {imp}")
    return imp


_SPOT_THEOREM_TEXTS = (
    # deeper theorems than the default enumeration bound reaches; used to
    # notice when the bounded closure misses theorem values on an algebra
    "neg(neg(or(x0,neg(x0))))",
    "neg(neg(imp(neg(neg(x0)),x0)))",
    "neg(and(x0,neg(x0)))",
    "imp(neg(x0),imp(x0,x1))",
    "imp(and(x0,x1),or(x1,x0))",
)


def _spot_values(logic, A: FiniteAlgebra) -> frozenset[int]:
    """Values taken in A by the spot theorems that ``logic`` proves and A's
    signature can express, kept in A's memo."""
    def compute(A: FiniteAlgebra) -> frozenset[int]:
        out: set[int] = set()
        for text in _SPOT_THEOREM_TEXTS:
            try:
                phi = parse_formula(A.signature, text)
            except ValueError:
                continue
            if logic.proves((), phi):
                out.update(value_vector(A, phi, phi.vmask))
        return frozenset(out)
    return _invariant(A, ("spot_values", logic), compute)


def filter_closure(logic, A: FiniteAlgebra, S: Iterable[int]) -> frozenset[int]:
    """Least superset of S containing all bounded-theorem values and closed
    under modus ponens for the logic's implication. A spot-check with a few
    deeper theorems raises (reported, not silent) when the enumeration bound
    was too small for this algebra."""
    imp = _require_implicative(logic, A)
    F = _carrier_subset(A, S)
    F |= theorem_values(logic, A)
    table = A.tables[imp]
    changed = True
    while changed:
        changed = False
        for a in list(F):
            row = a * A.size
            for b in A.elements():
                if b not in F and table[row + b] in F:
                    F.add(b)
                    changed = True
    # theorem values and detachment hold by construction; only the deeper
    # spot theorems can fall outside the closure
    result = frozenset(F)
    if not _spot_values(logic, A) <= result:
        raise RuntimeError(
            "closure bound exhausted: a theorem takes a value outside the closure, or "
            "detachment escapes it"
        )
    return result


def is_filter(logic, A: FiniteAlgebra, F: Iterable[int]) -> bool:
    """Bounded l-filter check for implicative logics: contains every bounded
    theorem value (plus a handful of deeper spot theorems) and is closed under
    modus ponens."""
    imp = _require_implicative(logic, A)
    F = _carrier_subset(A, F)
    if not theorem_values(logic, A) <= F:
        return False
    if not _spot_values(logic, A) <= F:
        return False
    table = A.tables[imp]
    for a in F:
        row = a * A.size
        for b in A.elements():
            if table[row + b] in F and b not in F:
                return False
    return True


def all_filters(logic, A: FiniteAlgebra, max_size: int = 8) -> list[frozenset[int]]:
    """Every subset passing the filter check, smallest first (the order is
    compatible with inclusion)."""
    if A.size > max_size:
        raise ValueError(f"carrier too large for exhaustive filter enumeration (> {max_size})")
    out = []
    for k in range(A.size + 1):
        for subset in itertools.combinations(A.elements(), k):
            F = frozenset(subset)
            if is_filter(logic, A, F):
                out.append(F)
    return out

