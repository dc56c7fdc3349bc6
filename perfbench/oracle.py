"""Known answers computed without the aalogic package.

The benchmark checks every verdict against these. The oracle has its own
formula reader, its own Heyting algebras (upsets of small posets, the same
shapes as the corpus) and its own Kripke forcing, so a fault in the package
cannot hide itself by also corrupting the answer it is checked against.

Formulas are nested tuples: a variable is its index, an application is
``(name, arg, ...)``. Evaluation is bit-parallel over valuations: for each
point of the poset the value of a formula is a bitmask of the valuations
under which the point lies in the formula's upset.
"""

from __future__ import annotations

import itertools
import re

_TOKEN = re.compile(r"\s*([a-z][a-z0-9_]*|[(),])")


def parse(text: str):
    """Read ``var | name(formula, ...)`` into the tuple form."""
    tokens = _TOKEN.findall(text)
    pos = 0

    def one():
        nonlocal pos
        word = tokens[pos]
        pos += 1
        if re.fullmatch(r"x[0-9]+", word):
            return int(word[1:])
        if tokens[pos] != "(":
            raise ValueError(f"expected '(' after {word!r} in {text!r}")
        pos += 1
        args = [one()]
        while tokens[pos] == ",":
            pos += 1
            args.append(one())
        if tokens[pos] != ")":
            raise ValueError(f"expected ')' in {text!r}")
        pos += 1
        return (word, *args)

    tree = one()
    if pos != len(tokens):
        raise ValueError(f"trailing input in {text!r}")
    return tree


def from_formula(phi, memo: dict):
    """The tuple form of an aalogic formula object (read through its public
    ``index`` / ``name`` and ``args`` fields)."""
    tree = memo.get(phi)
    if tree is None:
        if hasattr(phi, "index"):
            tree = phi.index
        else:
            tree = (phi.name, *(from_formula(a, memo) for a in phi.args))
        memo[phi] = tree
    return tree


class UpsetAlgebra:
    """The Heyting algebra of upsets of a finite poset, evaluated over every
    valuation of the variables ``x0 .. x{num_vars-1}`` at once. A pair
    ``(i, j)`` in ``leq_pairs`` says point i lies below point j."""

    def __init__(self, n_points: int, leq_pairs, num_vars: int):
        up = [1 << i for i in range(n_points)]
        changed = True
        while changed:
            changed = False
            for i, j in leq_pairs:
                for k in range(n_points):
                    if up[k] >> i & 1 and not up[k] >> j & 1:
                        up[k] |= 1 << j
                        changed = True
        self.points = range(n_points)
        self.above = [[q for q in self.points if up[p] >> q & 1] for p in self.points]
        elements = [
            s for s in range(1 << n_points)
            if all(up[w] & ~s == 0 for w in self.points if s >> w & 1)
        ]
        valuations = list(itertools.product(elements, repeat=num_vars))
        self.full = (1 << len(valuations)) - 1
        self.columns = [
            tuple(
                sum(1 << row for row, v in enumerate(valuations) if v[i] >> p & 1)
                for p in self.points
            )
            for i in range(num_vars)
        ]
        self._memo: dict = {}

    def value(self, tree) -> tuple[int, ...]:
        """Per point, the valuations under which the point is in the value."""
        out = self._memo.get(tree)
        if out is not None:
            return out
        if isinstance(tree, int):
            out = self.columns[tree]
        else:
            name, args = tree[0], [self.value(a) for a in tree[1:]]
            if name == "and":
                out = tuple(a & b for a, b in zip(*args))
            elif name == "or":
                out = tuple(a | b for a, b in zip(*args))
            elif name == "neg":
                out = self._imp(args[0], (0,) * len(self.points))
            elif name == "imp":
                out = self._imp(*args)
            elif name == "iff":
                out = tuple(a & b for a, b in zip(self._imp(*args), self._imp(args[1], args[0])))
            else:
                raise ValueError(f"unknown connective {name!r}")
        self._memo[tree] = out
        return out

    def _imp(self, a, b):
        full = self.full
        out = []
        for p in self.points:
            mask = full
            for q in self.above[p]:
                mask &= ~a[q] | b[q]
            out.append(mask & full)
        return tuple(out)

    def true_at(self, tree) -> int:
        """Valuations under which the formula takes the top value."""
        mask = self.full
        for bits in self.value(tree):
            mask &= bits
        return mask

    def equal_at(self, lhs, rhs) -> int:
        """Valuations under which the two formulas take the same value."""
        mask = self.full
        for a, b in zip(self.value(lhs), self.value(rhs)):
            mask &= ~(a ^ b)
        return mask & self.full

    def entails(self, gamma, phi) -> bool:
        """The matrix with the top as its only designated value validates
        gamma |- phi."""
        ok = self.full
        for g in gamma:
            ok &= self.true_at(g)
        return ok & ~self.true_at(phi) == 0

    def quasi_identity_holds(self, premises, conclusion) -> bool:
        """premises and conclusion are (lhs, rhs) pairs of formula trees."""
        ok = self.full
        for lhs, rhs in premises:
            ok &= self.equal_at(lhs, rhs)
        return ok & ~self.equal_at(*conclusion) == 0


def chain(n: int, num_vars: int) -> UpsetAlgebra:
    """The n-element Heyting chain."""
    return UpsetAlgebra(n - 1, [(i + 1, i) for i in range(n - 2)], num_vars)


def heyting_corpus(num_vars: int) -> list[UpsetAlgebra]:
    """The shapes of the package's Heyting corpus, smallest first."""
    return [
        chain(1, num_vars), chain(2, num_vars), chain(3, num_vars), chain(4, num_vars),
        UpsetAlgebra(2, [], num_vars), chain(5, num_vars),
        UpsetAlgebra(3, [(1, 0), (2, 0)], num_vars), UpsetAlgebra(3, [(0, 1), (0, 2)], num_vars),
        chain(6, num_vars), UpsetAlgebra(3, [(0, 1)], num_vars),
    ]


def kripke_refutes(worlds: int, up, valuation: dict, world: int, gamma, phi) -> bool:
    """The model is a Kripke model (``up`` a preorder given as successor
    bitmasks, every variable an upset) in which ``world`` forces all of gamma
    and not phi."""
    if len(up) != worlds or not 0 <= world < worlds:
        return False
    for w in range(worlds):
        if not up[w] >> w & 1:
            return False
        for u in range(worlds):
            if up[w] >> u & 1 and up[u] & ~up[w]:
                return False
    everything = (1 << worlds) - 1

    def upset(s):
        return all(up[w] & ~s == 0 for w in range(worlds) if s >> w & 1)

    if not all(0 <= s <= everything and upset(s) for s in valuation.values()):
        return False

    def imp(a, b):
        return sum(1 << w for w in range(worlds) if up[w] & a & ~b == 0)

    def forced(tree) -> int:
        if isinstance(tree, int):
            return valuation[tree]
        name, args = tree[0], [forced(a) for a in tree[1:]]
        if name == "and":
            return args[0] & args[1]
        if name == "or":
            return args[0] | args[1]
        if name == "neg":
            return imp(args[0], 0)
        if name == "imp":
            return imp(*args)
        if name == "iff":
            return imp(*args) & imp(args[1], args[0])
        raise ValueError(f"unknown connective {name!r}")

    try:
        return all(forced(g) >> world & 1 for g in gamma) and not forced(phi) >> world & 1
    except KeyError:
        return False
