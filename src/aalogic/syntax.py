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

Parsing rejects formulas nested deeper than MAX_FORMULA_DEPTH, so that the
recursive parser, printer, substitution and evaluation stay well within the
interpreter's recursion limit on any parsed formula.
"""

from __future__ import annotations

import itertools
import re
import sys
from typing import Iterable, Iterator


_NAME_RE = re.compile(r"[a-z][a-z0-9_]*\Z")
_VAR_RE = re.compile(r"x[0-9]+\Z")

MAX_FORMULA_DEPTH = 200


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
    if isinstance(phi, Var):
        return f"x{phi.index}"
    return "%s(%s)" % (phi.name, ",".join(print_formula(a) for a in phi.args))


_TOKEN_RE = re.compile(r"\s*(?:([a-z][a-z0-9_]*)|([(),])|(\S))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Tokens as (kind, value, offset). Counts open parentheses on the way,
    so that a formula nested deeper than MAX_FORMULA_DEPTH is rejected before
    the recursive parser sees it: a name or variable inside n open
    parentheses is a node at depth n + 1."""
    tokens = []
    pos = 0
    nesting = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            break
        word, punct, bad = m.groups()
        start = m.start(1) if word else m.start(2) if punct else m.start(3)
        if bad:
            raise FormulaSyntaxError(f"unexpected character {bad!r}", start)
        if word:
            if nesting >= MAX_FORMULA_DEPTH:
                raise FormulaSyntaxError(f"formula nested deeper than {MAX_FORMULA_DEPTH}", start)
            kind = "var" if _VAR_RE.match(word) else "name"
            tokens.append((kind, word, start))
        else:
            if punct == "(":
                nesting += 1
            elif punct == ")":
                nesting -= 1
            tokens.append((punct, punct, start))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def parse_formula(sig: Signature, text: str) -> Formula:
    """Parse ``formula := var | name "(" formula ("," formula)* ")" | name "(" ")"``,
    the last form for nullary connectives.

    Raises FormulaSyntaxError (with byte offset) on malformed input, unknown
    connectives, arity mismatches and formulas deeper than MAX_FORMULA_DEPTH.
    """
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos]

    def advance():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_one() -> Formula:
        kind, value, off = advance()
        if kind == "var":
            return Var(int(value[1:]))
        if kind != "name":
            raise FormulaSyntaxError(f"expected a formula, found {value!r}" if value else "expected a formula", off)
        if value not in sig:
            raise FormulaSyntaxError(f"unknown connective {value!r}", off)
        kind2, value2, off2 = advance()
        if kind2 != "(":
            raise FormulaSyntaxError(f"expected '(' after connective {value!r}", off2)
        if sig.arity(value) == 0 and peek()[0] == ")":
            advance()
            return App(value, ())
        args = [parse_one()]
        while True:
            kind3, value3, off3 = advance()
            if kind3 == ",":
                args.append(parse_one())
            elif kind3 == ")":
                break
            else:
                raise FormulaSyntaxError(f"expected ',' or ')', found {value3!r}" if value3 else "unexpected end of input", off3)
        if len(args) != sig.arity(value):
            raise FormulaSyntaxError(
                f"arity mismatch: {value} expects {sig.arity(value)} argument(s), got {len(args)}", off
            )
        return App(value, args)

    phi = parse_one()
    kind, value, off = peek()
    if kind != "end":
        raise FormulaSyntaxError(f"trailing input {value!r}", off)
    return phi


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

