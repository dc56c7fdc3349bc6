"""Exact decision procedures: classical and intuitionistic provability over
{neg, imp, and, or, iff}, a Kripke countermodel search usable as an
independent refutation oracle, and equational consequence over finite
algebra classes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .algebra import FiniteAlgebra, evaluate
from .syntax import App, Formula, Var, sorted_variables


@dataclass(frozen=True)
class Equation:
    lhs: Formula
    rhs: Formula

    def __post_init__(self):
        # the hash the dataclass would compute, taken once from the interned sides
        object.__setattr__(self, "_hash", hash((self.lhs, self.rhs)))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"{self.lhs!r} == {self.rhs!r}"


BOOLEAN_CONNECTIVES = ("neg", "imp", "and", "or", "iff")


# ---------------------------------------------------------------------------
# classical provability: bit-parallel truth tables
# ---------------------------------------------------------------------------

# Truth tables of queries over x0..x3 are computed over one fixed frame of
# 2**4 rows and memoised on each node (``Formula._bits``); a query that
# mentions a variable outside the frame gets a compact table of its own.
_FRAME_VARS = 4


def _column(j: int, rows: int) -> int:
    """Bitmask of the rows (valuations) where variable number j is true."""
    mask = 0
    for row in range(rows):
        if (row >> j) & 1:
            mask |= 1 << row
    return mask


_FRAME_FULL = (1 << (1 << _FRAME_VARS)) - 1
_FRAME_COLUMNS = tuple(_column(j, 1 << _FRAME_VARS) for j in range(_FRAME_VARS))


def _connective_bits(name: str, args: list[int], full: int) -> int:
    if name == "neg":
        return full ^ args[0]
    if name == "imp":
        return (full ^ args[0]) | args[1]
    if name == "and":
        return args[0] & args[1]
    if name == "or":
        return args[0] | args[1]
    if name == "iff":
        return full ^ (args[0] ^ args[1])
    raise ValueError(f"connective {name} is not a classical connective")


def _frame_bits(phi: Formula) -> int:
    """Bitmask of the frame rows where phi is true, memoised on the node."""
    bits = phi._bits
    if bits is None:
        if isinstance(phi, Var):
            bits = _FRAME_COLUMNS[phi.index]
        else:
            bits = _connective_bits(phi.name, [_frame_bits(a) for a in phi.args], _FRAME_FULL)
        phi._bits = bits
    return bits


def _truth_bits(phi: Formula, columns: dict[int, int], full: int) -> int:
    """Bitmask of rows (valuations) where phi is true."""
    if isinstance(phi, Var):
        return columns[phi.index]
    return _connective_bits(phi.name, [_truth_bits(a, columns, full) for a in phi.args], full)


def cpc_decide(gamma: Iterable[Formula], phi: Formula) -> bool:
    """Gamma entails phi classically: every two-valued valuation making all of
    Gamma true makes phi true."""
    gamma = tuple(gamma)
    vars_ = sorted_variables(gamma + (phi,))
    if not vars_ or vars_[-1] < _FRAME_VARS:
        ok = _FRAME_FULL
        for g in gamma:
            ok &= _frame_bits(g)
        return ok & ~_frame_bits(phi) & _FRAME_FULL == 0
    rows = 1 << len(vars_)
    full = (1 << rows) - 1
    columns = {v: _column(j, rows) for j, v in enumerate(vars_)}
    ok = full
    for g in gamma:
        ok &= _truth_bits(g, columns, full)
    return ok & ~_truth_bits(phi, columns, full) & full == 0


# ---------------------------------------------------------------------------
# intuitionistic provability: contraction-free sequent search
# ---------------------------------------------------------------------------

_BOT = App("_bot", ())


def _desugar(phi: Formula) -> Formula:
    """Rewrite neg/iff in terms of imp/and and an internal falsum, memoised
    on the node."""
    out = phi._desugared
    if out is not None:
        return out
    if isinstance(phi, Var):
        out = phi
    else:
        name = phi.name
        if name == "neg":
            out = App("imp", (_desugar(phi.args[0]), _BOT))
        elif name == "iff":
            a, b = map(_desugar, phi.args)
            out = App("and", (App("imp", (a, b)), App("imp", (b, a))))
        elif name in ("imp", "and", "or"):
            out = App(name, tuple(map(_desugar, phi.args)))
        else:
            raise ValueError(f"connective {name} is not an intuitionistic connective")
    phi._desugared = out
    return out


_sequent_memo: dict[tuple, bool] = {}


def clear_proof_cache():
    _sequent_memo.clear()


def _prove(ctx: frozenset, goal: Formula) -> bool:
    key = (ctx, goal)
    cached = _sequent_memo.get(key)
    if cached is not None:
        return cached
    if len(_sequent_memo) > 4_000_000:
        _sequent_memo.clear()
    result = _prove_inner(set(ctx), goal)
    _sequent_memo[key] = result
    return result


def _prove_inner(ctx: set, goal: Formula) -> bool:
    # invertible phase: rewrite the sequent until only branching rules apply
    while True:
        if _BOT in ctx or goal in ctx:
            return True
        if isinstance(goal, App) and goal.name == "and":
            a, b = goal.args
            return _prove(frozenset(ctx), a) and _prove(frozenset(ctx), b)
        if isinstance(goal, App) and goal.name == "imp":
            ctx = set(ctx)
            ctx.add(goal.args[0])
            goal = goal.args[1]
            continue
        reduced = False
        for phi in list(ctx):
            if not isinstance(phi, App):
                continue
            if phi.name == "and":
                ctx.discard(phi)
                ctx.update(phi.args)
                reduced = True
                break
            if phi.name == "or":
                a, b = phi.args
                rest = frozenset(ctx - {phi})
                return _prove(rest | {a}, goal) and _prove(rest | {b}, goal)
            if phi.name == "imp":
                ant, cons = phi.args
                if ant == _BOT:
                    ctx.discard(phi)
                    reduced = True
                    break
                if isinstance(ant, Var) and ant in ctx:
                    ctx.discard(phi)
                    ctx.add(cons)
                    reduced = True
                    break
                if isinstance(ant, App) and ant.name == "and":
                    c, d = ant.args
                    ctx.discard(phi)
                    ctx.add(App("imp", (c, App("imp", (d, cons)))))
                    reduced = True
                    break
                if isinstance(ant, App) and ant.name == "or":
                    c, d = ant.args
                    ctx.discard(phi)
                    ctx.add(App("imp", (c, cons)))
                    ctx.add(App("imp", (d, cons)))
                    reduced = True
                    break
        if not reduced:
            break
    frozen = frozenset(ctx)
    # branching phase: disjunction on the right, nested implication on the left
    if isinstance(goal, App) and goal.name == "or":
        if _prove(frozen, goal.args[0]) or _prove(frozen, goal.args[1]):
            return True
    for phi in frozen:
        if isinstance(phi, App) and phi.name == "imp":
            ant, cons = phi.args
            if isinstance(ant, App) and ant.name == "imp":
                rest = frozen - {phi}
                if _prove(rest | {App("imp", (ant.args[1], cons))}, ant) and _prove(rest | {cons}, goal):
                    return True
    return False


def ipc_decide(gamma: Iterable[Formula], phi: Formula) -> bool:
    """Gamma entails phi intuitionistically, decided by terminating
    contraction-free sequent search with Gamma as the antecedent."""
    ctx = frozenset(_desugar(g) for g in gamma)
    return _prove(ctx, _desugar(phi))


# ---------------------------------------------------------------------------
# Kripke countermodel search (sound refuter, exhaustive up to a world bound)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KripkeModel:
    worlds: int
    up: tuple[int, ...]          # up[w] = bitmask of successors (reflexive, transitive)
    valuation: dict              # var index -> bitmask of worlds (an upset)
    world: int                   # world where the premises hold and the goal fails


def _preorders(n: int) -> tuple:
    if n not in _preorder_cache:
        _preorder_cache[n] = tuple(_enumerate_preorders(n))
    return _preorder_cache[n]


_preorder_cache: dict[int, tuple] = {}


def _enumerate_preorders(n: int):
    diagonal = 0
    for i in range(n):
        diagonal |= 1 << (i * n + i)
    off_diag = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in itertools.product((0, 1), repeat=len(off_diag)):
        rel = diagonal
        for (i, j), b in zip(off_diag, bits):
            if b:
                rel |= 1 << (i * n + j)
        ok = True
        for i in range(n):
            for j in range(n):
                if rel >> (i * n + j) & 1:
                    for k in range(n):
                        if rel >> (j * n + k) & 1 and not rel >> (i * n + k) & 1:
                            ok = False
                            break
                    if not ok:
                        break
            if not ok:
                break
        if ok:
            yield tuple(
                sum(1 << j for j in range(n) if rel >> (i * n + j) & 1) for i in range(n)
            )


_upset_cache: dict[tuple, list[int]] = {}


def _upsets(n: int, up: tuple[int, ...]) -> list[int]:
    if up not in _upset_cache:
        _upset_cache[up] = [
            s
            for s in range(1 << n)
            if all(up[w] & ~s == 0 for w in range(n) if s >> w & 1)
        ]
    return _upset_cache[up]


def _forces(w: int, phi: Formula, up, val, memo) -> bool:
    key = (w, phi)
    cached = memo.get(key)
    if cached is not None:
        return cached
    if isinstance(phi, Var):
        result = bool(val[phi.index] >> w & 1)
    else:
        name = phi.name
        if name == "and":
            result = all(_forces(w, a, up, val, memo) for a in phi.args)
        elif name == "or":
            result = any(_forces(w, a, up, val, memo) for a in phi.args)
        elif name == "imp":
            a, b = phi.args
            result = all(
                not _forces(u, a, up, val, memo) or _forces(u, b, up, val, memo)
                for u in range(len(up))
                if up[w] >> u & 1
            )
        elif name == "neg":
            a = phi.args[0]
            result = all(not _forces(u, a, up, val, memo) for u in range(len(up)) if up[w] >> u & 1)
        elif name == "iff":
            a, b = phi.args
            result = _forces(w, App("imp", (a, b)), up, val, memo) and _forces(
                w, App("imp", (b, a)), up, val, memo
            )
        elif name == "_bot":
            result = False
        else:
            raise ValueError(f"connective {name} is not an intuitionistic connective")
    memo[key] = result
    return result


def kripke_countermodel(gamma: Iterable[Formula], phi: Formula, max_worlds: int = 4) -> Optional[KripkeModel]:
    """Search all Kripke models with at most ``max_worlds`` worlds for one
    refuting Gamma |- phi. Returns None when no countermodel that small exists."""
    gamma = tuple(gamma)
    vars_ = sorted_variables(gamma + (phi,))
    for n in range(1, max_worlds + 1):
        for up in _preorders(n):
            upsets = _upsets(n, up)
            for assignment in itertools.product(upsets, repeat=len(vars_)):
                val = dict(zip(vars_, assignment))
                memo: dict = {}
                for w in range(n):
                    if all(_forces(w, g, up, val, memo) for g in gamma) and not _forces(
                        w, phi, up, val, memo
                    ):
                        return KripkeModel(n, up, val, w)
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
    vars_ = sorted_variables(side for e in gamma + (eq,) for side in (e.lhs, e.rhs))
    for A in K:
        for assignment in itertools.product(A.elements(), repeat=len(vars_)):
            v = dict(zip(vars_, assignment))
            if all(evaluate(A, e.lhs, v) == evaluate(A, e.rhs, v) for e in gamma):
                if evaluate(A, eq.lhs, v) != evaluate(A, eq.rhs, v):
                    return False
    return True


def quasiidentity_holds(
    A: FiniteAlgebra, premises: Iterable[Equation], conclusion: Equation
) -> bool:
    return equational_consequence([A], premises, conclusion)
