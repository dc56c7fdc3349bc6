"""Exact decision procedures: classical and intuitionistic provability over
{neg, imp, and, or, iff}, a Kripke countermodel search usable as an
independent refutation oracle, and equational consequence over finite
algebra classes, decided one algebra at a time by ``quasiidentity_holds``.
The first three refuse every other connective in one guard.

Classical consequence over x0..x3 is a bit-parallel truth table over one
fixed frame of 16 rows, memoised on each node. A query that mentions a
variable beyond x3 is decided on the evaluation kernel, as the search for a
one-world Kripke countermodel: that frame's upset algebra is the two-element
Boolean algebra.

The Kripke search shares no code with the sequent prover. It runs on the
evaluation kernel (``algebra.value_vector``): the sets of worlds where a
formula is forced on a frame are the elements of the Heyting algebra of the
frame's upsets, built once per frame by ``heyting_of_upsets``, which also
builds the corpus's Heyting algebras. Its frames are the first rooted
partial order, in the enumeration order of the preorders, of each
isomorphism class: 1, 1, 2 and 5 frames on 1 to 4 worlds, out of 1 + 4 +
29 + 355 preorders. The countermodel it returns is the first one over every
preorder, by size and then in enumeration order. That one's frame is
generated by the refuting world, or the subframe above that world would be
a smaller countermodel; it has no cluster, since upsets are unions of
clusters and collapsing them would give a smaller frame with the same
forcing; and no isomorphic copy of it comes earlier. The tests check the
search against that walk, and model for model against a direct forcing
interpreter.

Intuitionistic provability is Dyckhoff's contraction-free sequent calculus
G4ip, searched on integer-coded formulas. Each query gets its own search
(``_Search``), which codes the query's formulas into the ids of their
desugared forms (over imp/and/or and falsum), hash-conses the implications
the left rules build, and memoises the sequents it visits, each a
``(frozenset[int], int)`` pair; nothing of it outlives the query. Falsum is
the private id ``_FALSE``, which no formula names, so both provers and the
Kripke search accept exactly the built-in connectives. Ids are assigned in
order of first use within the query and the non-invertible rules are tried
in ascending id order, so the sequents a query visits, and its verdict,
depend neither on ``PYTHONHASHSEED`` nor on the queries before it.

``ipc_decide`` refutes before it proves. Every intuitionistic consequence is
a classical one, so a query with at most four distinct variables that
``cpc_decide`` refutes is answered no without a sequent search. A search
that spends its step budget, or overflows the recursion limit, on such a
query hands it to the Kripke search over at most three worlds, which
answers no when it finds a model. The gate counts variables, not their
indices, so renaming a query's variables changes neither its verdict nor
the path it takes. Only the sequent search answers yes, so the Glivenko
check stays non-circular: that cpc |- phi implies ipc |- neg neg phi is
still proved by G4ip.
"""

from __future__ import annotations

import itertools
from operator import and_
from typing import Iterable, Optional, Sequence

from .algebra import FiniteAlgebra, all_rows, equation_rows, frame_valuation, value_vector
from .syntax import BUILTIN_SIGNATURE, Formula, FrozenRecord, Var, formula_over


class Equation(FrozenRecord):
    """A frozen record. ``qv_axioms`` drops repeated equations by hash, so its
    ``__eq__`` and ``__hash__`` read the two fields directly."""

    __slots__ = ("lhs", "rhs")

    def __eq__(self, other):
        return self.lhs == other.lhs and self.rhs == other.rhs if other.__class__ is Equation else NotImplemented

    def __hash__(self):
        return hash((self.lhs, self.rhs))

    def __repr__(self):
        return f"{self.lhs!r} == {self.rhs!r}"


# ---------------------------------------------------------------------------
# classical provability: bit-parallel truth tables
# ---------------------------------------------------------------------------

# Truth tables of queries over x0..x3 are computed over one fixed frame of
# 2**4 rows and memoised on each node (``Formula._bits``); a query that
# mentions a variable outside the frame is decided on the kernel instead.
_FRAME_VARS = 4
_FRAME_FULL = (1 << (1 << _FRAME_VARS)) - 1
# row R sets x_j to bit j of R
_FRAME_COLUMNS = tuple(
    sum(1 << row for row in range(1 << _FRAME_VARS) if row >> j & 1) for j in range(_FRAME_VARS)
)


def _query_frame(formulas: Iterable[Formula], logic: str) -> int:
    """The query's variable frame, the OR of its formulas' masks; the first
    formula with a connective outside the built-in signature is refused."""
    frame = 0
    for f in formulas:
        if not formula_over(BUILTIN_SIGNATURE, f):
            name = min(f.conns - frozenset(BUILTIN_SIGNATURE.connectives))[0]
            raise ValueError(f"connective {name} is not {logic} connective")
        frame |= f.vmask
    return frame


def _frame_bits(phi: Formula) -> int:
    """Bitmask of the frame rows where phi is true, memoised on the node."""
    bits = phi._bits
    if bits is None:
        if isinstance(phi, Var):
            bits = _FRAME_COLUMNS[phi.index]
        else:
            args = [_frame_bits(a) for a in phi.args]
            name = phi.name
            if name == "neg":
                bits = _FRAME_FULL ^ args[0]
            elif name == "imp":
                bits = (_FRAME_FULL ^ args[0]) | args[1]
            elif name == "and":
                bits = args[0] & args[1]
            elif name == "or":
                bits = args[0] | args[1]
            elif name == "iff":
                bits = _FRAME_FULL ^ (args[0] ^ args[1])
            else:
                raise ValueError(f"connective {name} is not a classical connective")
        phi._bits = bits
    return bits


def cpc_decide(gamma: Iterable[Formula], phi: Formula) -> bool:
    """Gamma entails phi classically: every two-valued valuation making all of
    Gamma true makes phi true."""
    return cpc_entailed(gamma, (phi,)) == (0,)


def cpc_entailed(gamma: Iterable[Formula], phis: Sequence[Formula]) -> tuple[int, ...]:
    """The indices, ascending, of the phis that Gamma entails classically.
    When every formula fits the frame, Gamma's rows are AND-ed once and each
    conclusion costs one subset test. Otherwise each conclusion is decided on
    the kernel: the upset algebra of a one-world Kripke frame is the
    two-element Boolean algebra, so Gamma entails phi classically exactly
    when no one-world model refutes it."""
    gamma = tuple(gamma)
    if _query_frame(itertools.chain(gamma, phis), "a classical") >> _FRAME_VARS:
        return tuple(i for i, phi in enumerate(phis) if kripke_countermodel(gamma, phi, 1) is None)
    ok = _FRAME_FULL
    for g in gamma:
        ok &= _frame_bits(g)
    return tuple([i for i, phi in enumerate(phis) if ok & ~_frame_bits(phi) == 0])


# ---------------------------------------------------------------------------
# intuitionistic provability: contraction-free sequent search
# ---------------------------------------------------------------------------

_ATOM, _FALSUM, _AND, _OR, _IMP = range(5)
_TAGS = {"and": _AND, "or": _OR, "imp": _IMP}
_FALSE = 0

# ipc_decide lets G4ip take this many steps (memo misses) on a query with at
# most four distinct variables before it looks for a Kripke countermodel with
# up to _FALLBACK_WORLDS worlds. On 40 seeds of the consequence benchmark's
# stream, 1 of 53,275 ipc calls spent the budget (a Kripke model refuted it),
# and a provable query took up to 1,917 steps: a smaller budget would run a
# fruitless Kripke search before proving such queries.
_STEP_BUDGET = 2000
_FALLBACK_WORLDS = 3


class _BudgetSpent(Exception):
    pass


class _Search:
    """The G4ip search of one query. Node i of its desugared language has the
    constructor tag[i] and the children left[i], right[i] (an atom keeps its
    variable index in left); ids hash-conses (tag, left, right) to its id, so
    the implications the left rules build are found, not re-created. codes
    maps each formula coded so far to its id, memo each sequent searched so
    far to its verdict, and steps counts down to a spent budget (from 0 it
    counts through the negatives and never reaches 0 again)."""

    __slots__ = ("tag", "left", "right", "ids", "codes", "memo", "steps")

    def __init__(self):
        self.tag, self.left, self.right = [_FALSUM], [0], [0]
        self.ids = {(_FALSUM, 0, 0): _FALSE}
        self.codes = {}
        self.memo = {}
        self.steps = 0

    def node(self, tag: int, left: int, right: int) -> int:
        key = (tag, left, right)
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.tag)
            self.tag.append(tag)
            self.left.append(left)
            self.right.append(right)
        return i

    def code(self, phi: Formula) -> int:
        """The id of phi with neg a read as imp(a, falsum) and iff(a, b) as
        and(imp(a, b), imp(b, a))."""
        i = self.codes.get(phi)
        if i is None:
            node, code = self.node, self.code
            if isinstance(phi, Var):
                i = node(_ATOM, phi.index, 0)
            elif phi.name == "neg":
                i = node(_IMP, code(phi.args[0]), _FALSE)
            elif phi.name == "iff":
                a, b = map(code, phi.args)
                i = node(_AND, node(_IMP, a, b), node(_IMP, b, a))
            else:
                i = node(_TAGS[phi.name], *map(code, phi.args))
            self.codes[phi] = i
        return i

    def prove(self, ctx: frozenset, goal: int) -> bool:
        key = (ctx, goal)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        self.steps -= 1
        if not self.steps:
            raise _BudgetSpent
        result = self.memo[key] = self._step(ctx, goal)
        return result

    def _step(self, ctx: frozenset, goal: int) -> bool:
        tag, left, right, node, prove = self.tag, self.left, self.right, self.node, self.prove
        if goal in ctx:
            return True
        work = list(ctx)
        while tag[goal] == _IMP:
            work.append(left[goal])
            goal = right[goal]
        # invertible left rules, one pass over a worklist: every formula put on
        # it follows from the sequent's antecedent, and the antecedent is
        # rebuilt as ``out`` from the formulas no invertible rule rewrites
        out = set()
        waiting: dict[int, list[int]] = {}  # atom -> imp(atom, B) still in out
        ors = []
        nested = []  # imp(imp(C, D), B)
        while work:
            phi = work.pop()
            if phi == goal:
                return True
            if phi in out:
                continue
            t = tag[phi]
            if t == _ATOM:
                out.add(phi)
                for imp in waiting.pop(phi, ()):
                    out.discard(imp)
                    work.append(right[imp])
            elif t == _IMP:
                a = left[phi]
                ta = tag[a]
                if ta == _ATOM:
                    if a in out:
                        work.append(right[phi])
                    else:
                        out.add(phi)
                        waiting.setdefault(a, []).append(phi)
                elif ta == _IMP:
                    out.add(phi)
                    nested.append(phi)
                elif ta == _AND:
                    work.append(node(_IMP, left[a], node(_IMP, right[a], right[phi])))
                elif ta == _OR:
                    work.append(node(_IMP, left[a], right[phi]))
                    work.append(node(_IMP, right[a], right[phi]))
                # imp(falsum, B) holds anyway and is dropped
            elif t == _AND:
                work.append(left[phi])
                work.append(right[phi])
            elif t == _OR:
                out.add(phi)
                ors.append(phi)
            else:
                return True  # falsum
        frozen = frozenset(out)
        t = tag[goal]
        if t == _AND:
            return prove(frozen, left[goal]) and prove(frozen, right[goal])
        if ors:
            phi = min(ors)
            rest = frozen - {phi}
            return prove(rest | {left[phi]}, goal) and prove(rest | {right[phi]}, goal)
        # branching: disjunction on the right, then nested implications on the
        # left in ascending id order
        if t == _OR and (prove(frozen, left[goal]) or prove(frozen, right[goal])):
            return True
        nested.sort()
        for phi in nested:
            a = left[phi]
            b = right[phi]
            rest = frozen - {phi}
            if prove(rest | {node(_IMP, right[a], b)}, a) and prove(rest | {b}, goal):
                return True
        return False


def ipc_decide(gamma: Iterable[Formula], phi: Formula) -> bool:
    """Gamma entails phi intuitionistically, decided by terminating
    contraction-free sequent search with Gamma as the antecedent.

    Refute first: every intuitionistic consequence is a classical one, so on
    a query with at most four distinct variables a classical refutation
    answers no. A search that spends ``_STEP_BUDGET`` steps, or overflows
    the recursion limit, on such a query then asks for a Kripke countermodel
    with up to ``_FALLBACK_WORLDS`` worlds; when there is none, the search
    goes on unbounded with its memo, or the ``RecursionError`` propagates.
    Only the sequent search answers yes."""
    gamma = tuple(gamma)
    refute = _query_frame(gamma + (phi,), "an intuitionistic").bit_count() <= _FRAME_VARS
    if refute and not cpc_decide(gamma, phi):
        return False
    search = _Search()
    ctx = frozenset(map(search.code, gamma))
    goal = search.code(phi)
    search.steps = _STEP_BUDGET if refute else 0
    try:
        return search.prove(ctx, goal)
    except (_BudgetSpent, RecursionError) as exc:
        if refute and kripke_countermodel(gamma, phi, _FALLBACK_WORLDS) is not None:
            return False
        if isinstance(exc, RecursionError):
            raise
    search.steps = 0
    return search.prove(ctx, goal)


# ---------------------------------------------------------------------------
# Kripke countermodel search (sound refuter, exhaustive up to a world bound)
# ---------------------------------------------------------------------------

class KripkeModel(FrozenRecord):
    """A frozen record; its dict valuation leaves it unhashable. ``up[w]`` is
    the bitmask of w's successors (reflexive, transitive), ``valuation`` maps
    a variable's index to the bitmask of the worlds where it holds (an
    upset), and ``world`` is where the premises hold and the goal fails."""

    __slots__ = ("worlds", "up", "valuation", "world")

    def __repr__(self):
        return (f"KripkeModel(worlds={self.worlds!r}, up={self.up!r}, "
                f"valuation={self.valuation!r}, world={self.world!r})")


def _rooted_partial_orders(n: int):
    """Rooted partial orders on n worlds as successor bitmasks, in the order
    in which ``itertools.product`` walks the bits of their off-diagonal pairs
    (0, 1), (0, 2), .., (n-1, n-2): the enumeration order of the preorders.
    A relation without a world that sees every world, or with a pair of
    worlds that see each other, is dropped before transitivity is checked."""
    full = (1 << n) - 1
    rows = [
        [(1 << i) | sum(b << j for j, b in zip([j for j in range(n) if j != i], bits))
         for bits in itertools.product((0, 1), repeat=n - 1)]
        for i in range(n)
    ]
    pairs = list(itertools.combinations(range(n), 2))
    for up in itertools.product(*rows):
        if (full in up and not any(up[i] >> j & up[j] >> i & 1 for i, j in pairs)
                and all(up[v] & ~up[w] == 0 for w in range(n) for v in range(n) if up[w] >> v & 1)):
            yield up


def _relabel(up: Sequence[int], perm: Sequence[int]) -> tuple[int, ...]:
    """The frame ``up`` with world w renamed perm[w]."""
    out = [0] * len(up)
    for w, succ in enumerate(up):
        out[perm[w]] = sum(1 << perm[v] for v in range(len(up)) if succ >> v & 1)
    return tuple(out)


def heyting_of_upsets(up: Sequence[int], key=None) -> tuple[FiniteAlgebra, list[int]]:
    """The Heyting algebra of the upsets of the preorder ``up`` (up[w] =
    bitmask of the worlds above w) over the built-in signature, with its
    elements as world bitmasks: ascending, or sorted by ``key``."""
    n = len(up)
    upsets = sorted(
        (s for s in range(1 << n) if all(up[w] & ~s == 0 for w in range(n) if s >> w & 1)), key=key
    )
    index = {s: i for i, s in enumerate(upsets)}

    def imp(u, v):
        return sum(1 << w for w in range(n) if up[w] & u & ~v == 0)

    tables = {"neg": [], "imp": [], "and": [], "or": [], "iff": []}
    for u in upsets:
        tables["neg"].append(index[imp(u, 0)])
        for v in upsets:
            i_uv, i_vu = imp(u, v), imp(v, u)
            tables["imp"].append(index[i_uv])
            tables["and"].append(index[u & v])
            tables["or"].append(index[u | v])
            tables["iff"].append(index[i_uv & i_vu])
    return FiniteAlgebra(BUILTIN_SIGNATURE, len(upsets), tables), upsets


_frame_cache: dict[int, tuple] = {}


def _frames(n: int) -> tuple:
    """(up, algebra of its upsets, the upsets) for the first rooted partial
    order on n worlds, in enumeration order, of each isomorphism class."""
    if n not in _frame_cache:
        perms = list(itertools.permutations(range(n)))
        seen, firsts = set(), []
        for up in _rooted_partial_orders(n):
            if up not in seen:
                firsts.append(up)
                seen.update(_relabel(up, perm) for perm in perms)
        _frame_cache[n] = tuple((up, *heyting_of_upsets(up)) for up in firsts)
    return _frame_cache[n]


def kripke_countermodel(gamma: Iterable[Formula], phi: Formula, max_worlds: int = 4) -> Optional[KripkeModel]:
    """Search all Kripke models with at most ``max_worlds`` worlds for one
    refuting Gamma |- phi. Returns None when no countermodel that small exists.

    The sets of worlds forcing a formula on a frame are the elements of the
    Heyting algebra of its upsets, so the valuations on a frame are the rows
    of that algebra's value vectors. Frames go by size, then in enumeration
    order, one rooted partial order per isomorphism class (``_frames``); on
    each, the first row where the premises' upsets meet outside the
    conclusion's is returned, with the lowest world there. That is the model
    a walk over every preorder returns: its frame is the first to refute the
    query, so it is rooted at the refuting world, has no cluster and is the
    first of its class (see the module docstring)."""
    gamma = tuple(gamma)
    frame = _query_frame(gamma + (phi,), "an intuitionistic")
    for n in range(1, max_worlds + 1):
        top = (1 << n) - 1
        for up, A, upsets in _frames(n):
            outside = [top ^ s for s in upsets]
            diff = map(outside.__getitem__, value_vector(A, phi, frame))
            for g in gamma:
                diff = map(and_, diff, map(upsets.__getitem__, value_vector(A, g, frame)))
            diff = tuple(diff)
            A._memo.clear()  # a query's vectors would otherwise stay for good
            row = next(itertools.compress(itertools.count(), diff), None)
            if row is not None:
                val = {i: upsets[a] for i, a in frame_valuation(A, frame, row).items()}
                return KripkeModel(n, up, val, (diff[row] & -diff[row]).bit_length() - 1)
    return None


# ---------------------------------------------------------------------------
# equational consequence over finite algebra classes
# ---------------------------------------------------------------------------

def equational_consequence(
    K: Sequence[FiniteAlgebra], gamma: Iterable[Equation], eq: Equation
) -> bool:
    """For every algebra in K and every valuation satisfying all premise
    equations, the conclusion equation holds."""
    gamma = tuple(gamma)
    return all(quasiidentity_holds(A, gamma, eq) for A in K)


def quasiidentity_holds(
    A: FiniteAlgebra, premises: Iterable[Equation], conclusion: Equation
) -> bool:
    """Equational consequence in one algebra, the kernel of
    ``equational_consequence``. Each equation's row mask is read directly from
    ``A._memo`` under ``equation_rows``' key, which is called only on a miss or
    a stored 0. Every premise is evaluated, in order, then the conclusion, so
    a connective A lacks raises ``ValueError`` wherever it occurs."""
    premises = tuple(premises)
    frame = conclusion.lhs.vmask | conclusion.rhs.vmask
    for e in premises:
        frame |= e.lhs.vmask | e.rhs.vmask
    memo, ok = A._memo, all_rows(A, frame)
    for e in premises:
        ok &= memo.get((frame, e.lhs, e.rhs)) or equation_rows(A, e.lhs, e.rhs, frame)
    lhs, rhs = conclusion.lhs, conclusion.rhs
    return not ok & ~(memo.get((frame, lhs, rhs)) or equation_rows(A, lhs, rhs, frame))
