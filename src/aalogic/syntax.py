"""Signatures, formulas, parsing/printing, substitution and flexible morphisms.

Formulas are immutable trees over a fixed enumerable variable set x0, x1, ...
Nodes are interned, so structural equality usually resolves by identity, but
``==`` stays structural for nodes built outside the factories.

Every interned node carries metadata computed once, when it is created, and
never changed afterwards:

- ``vmask``: a bitmask with bit i set when x_i occurs in the node;
- ``depth``: the nodes on its longest root-to-leaf path (a variable has 1);
- ``conns``: the frozenset of ``(name, arity)`` pairs of the connectives
  occurring in it. Equal sets are one shared object, and a variable's set is
  empty.

A node also has two memo slots that start empty and are filled at most once:
``_bits``, the classical truth table over a fixed variable frame
(``provers.cpc_decide``), and ``_desugared``, the integer id under which
``provers.ipc_decide`` codes the node rewritten over imp/and/or and falsum
(ids are handed out in order of first use within the process).

The parser and the printer keep explicit stacks. The parser still rejects
formulas nested deeper than MAX_FORMULA_DEPTH, so that the recursive
substitution and evaluation stay well within the interpreter's recursion
limit on any parsed formula. It rejects variable indices above
MAX_VARIABLE_INDEX as well.
"""

from __future__ import annotations

import itertools
import re
import sys
from typing import Iterable, Iterator


_NAME_RE = re.compile(r"[a-z][a-z0-9_]*\Z")
_VAR_RE = re.compile(r"x[0-9]+\Z")

MAX_FORMULA_DEPTH = 200
# Bit i of a node's vmask stands for x_i, so a variable costs index / 8 bytes
# in every node above it, and frame walks (algebra.frame_valuation) step
# through every bit below the highest variable. Every formula in the
# repository uses indices below 100; 9,999 keeps a mask within 1.25 kB.
MAX_VARIABLE_INDEX = 9999
_INDEX_DIGITS = len(str(MAX_VARIABLE_INDEX))


class FormulaSyntaxError(ValueError):
    """Parse failure; ``offset`` is the byte offset of the offending token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class Formula:
    __slots__ = ("_hash", "vmask", "depth", "conns", "_bits", "_desugared")

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return print_formula(self)


_NO_CONNECTIVES: frozenset = frozenset()


class Var(Formula):
    __slots__ = ("index",)
    _pool: dict[int, "Var"] = {}

    def __new__(cls, index: int):
        node = cls._pool.get(index)
        if node is None:
            if index < 0:
                raise ValueError(f"variable index must be nonnegative: {index}")
            node = object.__new__(cls)
            node.index = index
            node._hash = hash((1, index))
            node.vmask = 1 << index
            node.depth = 1
            node.conns = _NO_CONNECTIVES
            node._bits = node._desugared = None
            cls._pool[index] = node
        return node

    def __eq__(self, other):
        return self is other or (isinstance(other, Var) and other.index == self.index)

    __hash__ = Formula.__hash__


class App(Formula):
    __slots__ = ("name", "args")
    _pool: dict[tuple, "App"] = {}
    # one shared frozenset per distinct set of connectives
    _conn_sets: dict[frozenset, frozenset] = {}

    def __new__(cls, name: str, args: Iterable[Formula] = ()):
        args = tuple(args)
        key = (name, args)
        node = cls._pool.get(key)
        if node is None:
            # an interned name, not the caller's string (a parser's substring)
            name = sys.intern(name)
            key = (name, args)
            node = object.__new__(cls)
            node.name = name
            node.args = args
            node._hash = hash(key)
            mask = depth = 0
            conns = args[0].conns if args else _NO_CONNECTIVES
            for a in args:
                mask |= a.vmask
                if a.depth > depth:
                    depth = a.depth
                if not a.conns <= conns:
                    conns = conns | a.conns
            op = (name, len(args))
            if op not in conns:
                conns = conns | {op}
            node.vmask = mask
            node.depth = depth + 1
            node.conns = cls._conn_sets.setdefault(conns, conns)
            node._bits = node._desugared = None
            cls._pool[key] = node
        return node

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, App)
            and self._hash == other._hash
            and self.name == other.name
            and self.args == other.args
        )

    __hash__ = Formula.__hash__


class Signature:
    """An ordered list of connectives (name, arity); the order is canonical."""

    def __init__(self, connectives: Iterable[tuple[str, int]]):
        conns = tuple((str(n), int(a)) for n, a in connectives)
        seen = set()
        for name, arity in conns:
            if not _NAME_RE.match(name) or _VAR_RE.match(name):
                raise ValueError(f"bad connective name: {name!r}")
            if arity < 0:
                raise ValueError(f"negative arity for {name}")
            if name in seen:
                raise ValueError(f"duplicate connective: {name}")
            seen.add(name)
        self.connectives = conns
        self._arity = dict(conns)
        self._conn_set = frozenset(conns)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.connectives)

    def arity(self, name: str) -> int:
        return self._arity[name]

    def __contains__(self, name: str) -> bool:
        return name in self._arity

    def extends(self, other: "Signature") -> bool:
        """True when every connective of ``other`` appears here with equal arity."""
        return all(n in self._arity and self._arity[n] == a for n, a in other.connectives)

    def __eq__(self, other):
        return isinstance(other, Signature) and self.connectives == other.connectives

    def __hash__(self):
        return hash(self.connectives)

    def __repr__(self):
        return "Signature([%s])" % ", ".join(f"{n}/{a}" for n, a in self.connectives)

    def to_json(self) -> dict:
        return {"connectives": [{"name": n, "arity": a} for n, a in self.connectives]}

    @classmethod
    def from_json(cls, data: dict) -> "Signature":
        return cls([(c["name"], c["arity"]) for c in data["connectives"]])


BUILTIN_SIGNATURE = Signature([("neg", 1), ("imp", 2), ("and", 2), ("or", 2), ("iff", 2)])


def print_formula(phi: Formula) -> str:
    """The text ``parse_formula`` reads back as phi. It keeps an explicit
    stack of the nodes and punctuation still to print, so any depth prints."""
    out = []
    stack: list = [phi]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
        elif isinstance(item, Var):
            out.append(f"x{item.index}")
        else:
            out.append(item.name + "(")
            stack.append(")")
            args = item.args
            for i in range(len(args) - 1, 0, -1):
                stack.append(args[i])
                stack.append(",")
            if args:
                stack.append(args[0])
    return "".join(out)


# groups: 1 a variable (2 its index without leading zeros), 3 a name,
# 4 "(", 5 ",", 6 ")", 7 any other character
_TOKEN_RE = re.compile(r"\s*(?:(x0*([0-9]+))(?![a-z0-9_])|([a-z][a-z0-9_]*)|(\()|(,)|(\))|(\S))")


def parse_formula(sig: Signature, text: str) -> Formula:
    """Parse ``formula := var | name "(" formula ("," formula)* ")" | name "(" ")"``,
    the last form for nullary connectives.

    Raises FormulaSyntaxError (with byte offset) on malformed input, unknown
    connectives, arity mismatches, variable indices above MAX_VARIABLE_INDEX
    and formulas deeper than MAX_FORMULA_DEPTH. Lexical errors (a bad
    character, an index above the bound, a name or variable inside
    MAX_FORMULA_DEPTH open parentheses) come first: the first of them in the
    text is raised even after a grammar error, which is raised only when the
    text has none. One pass over the tokens, with an explicit stack.
    """
    arity = sig._arity
    stack = []  # open applications, innermost last: (name, offset, args)
    node = None  # the formula just completed, if any
    name = None  # a connective still waiting for its "("
    error = None  # the first grammar error
    nesting = 0  # open parentheses minus closed ones
    # ending the scan before trailing whitespace saves a failed search per position
    for m in _TOKEN_RE.finditer(text, 0, len(text.rstrip())):
        kind = m.lastindex
        if kind <= 3:
            # a name or variable inside n open parentheses is a node at depth n + 1
            if nesting >= MAX_FORMULA_DEPTH:
                raise FormulaSyntaxError(f"formula nested deeper than {MAX_FORMULA_DEPTH}", m.start(kind))
            if kind == 1:
                digits = m.group(2)
                if len(digits) > _INDEX_DIGITS or (index := int(digits)) > MAX_VARIABLE_INDEX:
                    raise FormulaSyntaxError(f"variable index above {MAX_VARIABLE_INDEX}", m.start(1))
        elif kind == 4:
            nesting += 1
        elif kind == 6:
            nesting -= 1
        elif kind == 7:
            raise FormulaSyntaxError(f"unexpected character {m.group(7)!r}", m.start(7))
        if error is not None:
            continue
        if node is not None:
            if kind == 5 and stack:
                stack[-1][2].append(node)
                node = None
            elif kind == 6 and stack:
                op, op_off, args = stack.pop()
                args.append(node)
                if len(args) == arity[op]:
                    node = App(op, args)
                else:
                    error = FormulaSyntaxError(
                        f"arity mismatch: {op} expects {arity[op]} argument(s), got {len(args)}", op_off
                    )
            elif stack:
                error = FormulaSyntaxError(f"expected ',' or ')', found {m.group(kind)!r}", m.start(kind))
            else:
                error = FormulaSyntaxError(f"trailing input {m.group(kind)!r}", m.start(kind))
        elif name is not None:
            if kind == 4:
                stack.append((name, name_off, []))
                name = None
            else:
                error = FormulaSyntaxError(f"expected '(' after connective {name!r}", m.start(kind))
        elif kind == 1:
            node = Var(index)
        elif kind == 3:
            name, name_off = m.group(3), m.start(3)
            if name not in arity:
                error = FormulaSyntaxError(f"unknown connective {name!r}", name_off)
        elif kind == 6 and stack and not stack[-1][2] and arity[stack[-1][0]] == 0:
            node = App(stack.pop()[0], ())
        else:
            error = FormulaSyntaxError(f"expected a formula, found {m.group(kind)!r}", m.start(kind))
    if error is None:
        if node is not None and not stack:
            return node
        end = len(text)
        if node is not None:
            error = FormulaSyntaxError("unexpected end of input", end)
        elif name is not None:
            error = FormulaSyntaxError(f"expected '(' after connective {name!r}", end)
        else:
            error = FormulaSyntaxError("expected a formula", end)
    raise error


def sorted_variables(formulas: Iterable[Formula]) -> list[int]:
    """The indices of the variables occurring in any of the formulas, ascending."""
    mask = 0
    for phi in formulas:
        mask |= phi.vmask
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def variables(phi: Formula) -> frozenset[int]:
    return frozenset(sorted_variables((phi,)))


def formula_depth(phi: Formula) -> int:
    """Nodes on the longest root-to-leaf path; a variable has depth 1."""
    return phi.depth


def formula_over(sig: Signature, phi: Formula) -> bool:
    return phi.conns <= sig._conn_set


def substitute(phi: Formula, sigma: dict[int, Formula]) -> Formula:
    """Simultaneous substitution; unmapped variables stay fixed."""
    if isinstance(phi, Var):
        return sigma.get(phi.index, phi)
    return App(phi.name, tuple(substitute(a, sigma) for a in phi.args))


class FlexibleMorphism:
    """Sends each n-ary source connective to a target formula in x0..x_{n-1}."""

    def __init__(self, source: Signature, target: Signature, assignment: dict[str, Formula]):
        self.source = source
        self.target = target
        self.assignment = dict(assignment)
        for name, arity in source.connectives:
            if name not in self.assignment:
                raise ValueError(f"no assignment for connective {name}")
            image = self.assignment[name]
            if not formula_over(target, image):
                raise ValueError(f"image of {name} is not a formula over the target signature")
            if any(v >= arity for v in variables(image)):
                raise ValueError(f"image of {name} uses variables beyond x0..x{arity - 1}")
        extra = set(self.assignment) - set(source.names)
        if extra:
            raise ValueError(f"assignment for unknown connectives: {sorted(extra)}")
        self._memo: dict[Formula, Formula] = {}  # extend_morphism's, per interned node

    @classmethod
    def identity(cls, sig: Signature) -> "FlexibleMorphism":
        assignment = {
            name: App(name, tuple(Var(i) for i in range(arity)))
            for name, arity in sig.connectives
        }
        return cls(sig, sig, assignment)

    def __call__(self, name: str) -> Formula:
        return self.assignment[name]

    def __eq__(self, other):
        return (
            isinstance(other, FlexibleMorphism)
            and self.source == other.source
            and self.target == other.target
            and self.assignment == other.assignment
        )

    def __repr__(self):
        body = ", ".join(f"{n}:{print_formula(f)}" for n, f in sorted(self.assignment.items()))
        return f"FlexibleMorphism({body})"


def extend_morphism(f: FlexibleMorphism, phi: Formula) -> Formula:
    """The unique extension: variables are fixed, c(args) becomes f(c)[xi|args].
    Memoised on f per interned node."""
    if isinstance(phi, Var):
        return phi
    out = f._memo.get(phi)
    if out is None:
        from .algebra import _remember  # algebra imports this module

        mapped = [extend_morphism(f, a) for a in phi.args]
        out = _remember(f._memo, phi, substitute(f(phi.name), dict(enumerate(mapped))))
    return out


def compose_morphisms(g: FlexibleMorphism, f: FlexibleMorphism) -> FlexibleMorphism:
    """(g . f)(c) = extension of g applied to f(c); needs f.target = g.source."""
    if f.target != g.source:
        raise ValueError("signature mismatch: f.target must equal g.source")
    assignment = {name: extend_morphism(g, f(name)) for name in f.source.names}
    return FlexibleMorphism(f.source, g.target, assignment)


def enumerate_formulas(sig: Signature, num_vars: int, max_depth: int) -> list[Formula]:
    """All formulas with variables among x0..x_{num_vars-1} and depth <= max_depth.

    Deterministic order: by depth, then signature order, then argument order.
    """
    if num_vars < 1 or max_depth < 1:
        return []
    atoms = [Var(i) for i in range(num_vars)]
    atoms += [App(name, ()) for name, arity in sig.connectives if arity == 0]
    by_depth: list[list[Formula]] = [atoms]
    everything = list(atoms)
    for _depth in range(2, max_depth + 1):
        shallower = [phi for layer in by_depth for phi in layer]
        deepest = by_depth[-1]
        layer: list[Formula] = []
        for name, arity in sig.connectives:
            if arity == 0:
                continue
            layer.extend(
                App(name, args)
                for args in _tuples_with_max(shallower, deepest, arity)
            )
        by_depth.append(layer)
        everything.extend(layer)
    return everything


def _tuples_with_max(pool: list[Formula], deepest: list[Formula], arity: int) -> Iterator[tuple[Formula, ...]]:
    # tuples over pool with at least one component in the deepest layer,
    # enumerated in plain product order over the pool
    deepest_set = set(map(id, deepest))
    if arity == 1:
        for a in deepest:
            yield (a,)
        return
    for args in itertools.product(pool, repeat=arity):
        if any(id(a) in deepest_set for a in args):
            yield args


def random_formula(rng, sig: Signature, num_vars: int, max_depth: int) -> Formula:
    """Seeded random formula within the depth/variable bounds."""
    if max_depth <= 1 or not sig.connectives:
        return Var(rng.randrange(num_vars))
    if rng.random() < 0.3:
        return Var(rng.randrange(num_vars))
    name, arity = sig.connectives[rng.randrange(len(sig.connectives))]
    return App(name, tuple(random_formula(rng, sig, num_vars, max_depth - 1) for _ in range(arity)))

