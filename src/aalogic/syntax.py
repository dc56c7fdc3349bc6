"""Signatures, formulas, parsing/printing, substitution and flexible morphisms.

Formulas are immutable trees over a fixed enumerable variable set x0, x1, ...
Nodes are interned: ``Var(i)`` and ``App(name, args)`` return the one live
node of that structure, and no other path builds a node: a copied or
unpickled node is rebuilt through these factories (``__reduce__``), and a
deep copy is the node itself, so either is the interned node. So equality
and hash of nodes are those of ``object``, by identity, and a set of nodes
iterates in an order that follows node addresses: output must never depend
on it. The pools are strong and never emptied; a node built after a drop
would be a second object for a structure that a live node already has, and
would compare unequal.

Every interned node carries metadata computed once, when it is created, and
never changed afterwards:

- ``vmask``: a bitmask with bit i set when x_i occurs in the node;
- ``conns``: the frozenset of ``(name, arity)`` pairs of the connectives
  occurring in it. Equal sets are one shared object, and a variable's set is
  empty.

A node also has one memo slot that starts empty and is filled at most once:
``_bits``, the classical truth table over a fixed variable frame
(``provers.cpc_decide``).

The parser, the printer and the random drawer keep explicit stacks. The
parser still rejects formulas nested deeper than MAX_FORMULA_DEPTH, so that
the recursive substitution and evaluation stay well within the
interpreter's recursion limit on any parsed formula. It rejects variable indices above
MAX_VARIABLE_INDEX as well.

The parser cuts the text once at "(", "," and ")" (``re.split`` with the
marks kept, so a piece's offset is the sum of the lengths before it) and
reads the pieces between the marks in order. A piece that is empty, a
connective of the signature or a variable in ``_VARIABLES`` takes one dict
lookup. Any other piece (whitespace, leading zeros, several tokens, an
unknown name, a bad character) is scanned by ``_TOKEN_RE``, that piece
only. ``_VARIABLES`` maps "x<i>" to ``Var(i)`` for each variable that was a
whole piece, spelled with no leading zero or whitespace, of a text that
parsed, so it holds at most MAX_VARIABLE_INDEX + 1 entries.

``enumerate_formulas`` builds layer d from the tuples over layers 1..d-1 that
meet layer d-1. It counts first, c_d = c_{d-1} + sum over arities a > 0 of
(c_{d-1}^a - c_{d-2}^a), and refuses past MAX_UNIVERSE or MAX_FORMULA_DEPTH.
"""

from __future__ import annotations

import itertools
import re
import sys
from typing import Iterable


_NAME_RE = re.compile(r"[a-z][a-z0-9_]*\Z")
_VAR_RE = re.compile(r"x[0-9]+\Z")

MAX_FORMULA_DEPTH = 200
# the most formulas enumerate_formulas builds: (6,3) over the built-in
# signature, 97,506 of them, takes 0.22 s and 25 MB (2 vCPUs, Python 3.11)
MAX_UNIVERSE = 100_000
# Bit i of a node's vmask stands for x_i, so a variable costs index / 8 bytes
# in every node above it, and frame walks (algebra.frame_valuation) step
# through every bit below the highest variable. Every formula in the
# repository uses indices below 100; 9,999 keeps a mask within 1.25 kB.
MAX_VARIABLE_INDEX = 9999
_INDEX_DIGITS = len(str(MAX_VARIABLE_INDEX))


class FormulaSyntaxError(ValueError):
    """Parse failure; ``offset`` is the index in the text (in characters,
    not bytes) of the offending token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class Formula:
    __slots__ = ("vmask", "conns", "_bits")

    def __repr__(self):
        return print_formula(self)

    def __deepcopy__(self, memo):
        # an interned node is its own deep copy; rebuilding it through
        # __reduce__ would recurse once per level, past the interpreter's
        # limit below MAX_FORMULA_DEPTH
        return self


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
            node.vmask = 1 << index
            node.conns = _NO_CONNECTIVES
            node._bits = None
            cls._pool[index] = node
        return node

    def __reduce__(self):
        return Var, (self.index,)


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
            mask = 0
            conns = args[0].conns if args else _NO_CONNECTIVES
            for a in args:
                mask |= a.vmask
                if not a.conns <= conns:
                    conns = conns | a.conns
            op = (name, len(args))
            if op not in conns:
                conns = conns | {op}
            node.vmask = mask
            node.conns = cls._conn_sets.setdefault(conns, conns)
            node._bits = None
            cls._pool[key] = node
        return node

    def __reduce__(self):
        # pickle rebuilds a node through App(name, args) after its args, so
        # it recurses once per level: a node nested deeper than the
        # interpreter's recursion limit raises RecursionError. Parsed
        # formulas are capped at MAX_FORMULA_DEPTH and round-trip.
        return App, (self.name, self.args)


def _integer(value, what: str) -> int:
    """value if it is a plain int; a bool, a float (2.0 too) or a text is refused."""
    if type(value) is not int:
        raise ValueError(f"{what} is not an integer: {value!r}")
    return value


# Methods of the frozen records (``provers.Equation``, ``semantics.Matrix``,
# ...), which set their slots through ``object.__setattr__``: they refuse
# assignment, and compare and hash by what their ``__reduce__`` rebuilds them from.
def _frozen(self, name, *value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _value_eq(self, other):
    return self.__reduce__() == other.__reduce__() if other.__class__ is self.__class__ else NotImplemented


def _value_hash(self):
    return hash(self.__reduce__())


class Signature:
    """An ordered list of connectives (name, arity); the order is canonical."""

    def __init__(self, connectives: Iterable[tuple[str, int]]):
        conns = tuple((str(n), a) for n, a in connectives)
        seen = set()
        for name, arity in conns:
            if not _NAME_RE.match(name) or _VAR_RE.match(name):
                raise ValueError(f"bad connective name: {name!r}")
            if _integer(arity, f"arity of {name}") < 0:
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


_PUNCTUATION_RE = re.compile(r"([(),])")
# groups: 1 a variable (2 its index without leading zeros), 3 a name, 4 any
# other character. It scans one piece, which holds no punctuation.
_TOKEN_RE = re.compile(r"\s*(?:(x0*([0-9]+))(?![a-z0-9_])|([a-z][a-z0-9_]*)|(\S))")
# "x<i>" -> Var(i) for each variable that was a whole piece, spelled with no
# leading zero or whitespace, of a text that parsed: at most
# MAX_VARIABLE_INDEX + 1 entries
_VARIABLES: dict[str, Var] = {}


def _piece_tokens(piece: str, offset: int, nesting: int, fresh: dict) -> list[tuple]:
    """The names and variables of a piece that starts at ``offset`` inside
    ``nesting`` open parentheses, as (spelling, name or variable index,
    offset). Puts the piece into ``fresh`` when it is a variable spelled as
    _VARIABLES keeps it. Raises the piece's first lexical error."""
    tokens = []
    # ending the scan before trailing whitespace saves a failed search per position
    for m in _TOKEN_RE.finditer(piece, 0, len(piece.rstrip())):
        kind = m.lastindex
        start = offset + m.start(kind)
        if kind == 4:
            raise FormulaSyntaxError(f"unexpected character {m.group(4)!r}", start)
        # a name or variable inside n open parentheses is a node at depth n + 1
        if nesting >= MAX_FORMULA_DEPTH:
            raise FormulaSyntaxError(f"formula nested deeper than {MAX_FORMULA_DEPTH}", start)
        spelling = m.group(kind)
        if kind == 3:
            tokens.append((spelling, spelling, start))
            continue
        digits = m.group(2)
        if len(digits) > _INDEX_DIGITS or (index := int(digits)) > MAX_VARIABLE_INDEX:
            raise FormulaSyntaxError(f"variable index above {MAX_VARIABLE_INDEX}", start)
        if spelling == piece and len(digits) == len(piece) - 1:
            fresh[piece] = index
        tokens.append((spelling, index, start))
    return tokens


def parse_formula(sig: Signature, text: str) -> Formula:
    """Parse ``formula := var | name "(" formula ("," formula)* ")" | name "(" ")"``,
    the last form for nullary connectives.

    Raises FormulaSyntaxError (with the character index of the offending
    token in the text) on malformed input, unknown connectives, arity
    mismatches, variable indices above MAX_VARIABLE_INDEX and formulas deeper
    than MAX_FORMULA_DEPTH. Lexical errors (a bad character, an index above
    the bound, a name or variable inside MAX_FORMULA_DEPTH open parentheses)
    come first: the first of them in the text is raised even after a grammar
    error, which is raised only when the text has none. One pass over the
    pieces between punctuation marks, with an explicit stack.
    """
    arity = sig._arity
    variables = _VARIABLES
    fresh = {}  # the spellings to add to _VARIABLES if the text parses, with their indices
    stack = []  # open applications, innermost last: (name, offset, args)
    node = None  # the formula just completed, if any
    name = None  # a connective still waiting for its "("
    error = None  # the first grammar error
    nesting = 0  # open parentheses minus closed ones
    pos = 0  # the offset of the piece at hand, the lengths of the pieces before it summed
    pieces = _PUNCTUATION_RE.split(text)
    pieces.append("")  # the split alternates text and marks; "" marks the end
    it = iter(pieces)
    for piece, mark in zip(it, it):
        if piece:
            var = variables.get(piece)
            if var is None and piece not in arity:
                tokens = _piece_tokens(piece, pos, nesting, fresh)
            elif nesting >= MAX_FORMULA_DEPTH:
                raise FormulaSyntaxError(f"formula nested deeper than {MAX_FORMULA_DEPTH}", pos)
            elif error is None and node is None and name is None:
                # a variable or connective where a formula may start: the common case
                if var is None:
                    name, name_off = piece, pos
                else:
                    node = var
                tokens = ()
            else:  # where the grammar has no place for it
                tokens = ((piece, piece if var is None else var.index, pos),)
            for spelling, token, off in tokens:
                if error is not None:
                    break
                if node is not None:
                    if stack:
                        error = FormulaSyntaxError(f"expected ',' or ')', found {spelling!r}", off)
                    else:
                        error = FormulaSyntaxError(f"trailing input {spelling!r}", off)
                elif name is not None:
                    error = FormulaSyntaxError(f"expected '(' after connective {name!r}", off)
                elif token.__class__ is int:
                    node = Var(token)
                else:
                    name, name_off = token, off
                    if name not in arity:
                        error = FormulaSyntaxError(f"unknown connective {name!r}", off)
            pos += len(piece)
        if not mark:
            break
        if mark == "(":
            nesting += 1
        elif mark == ")":
            nesting -= 1
        if error is not None:
            pass  # after a grammar error only the lexical checks are left
        elif node is not None:
            if mark == "," and stack:
                stack[-1][2].append(node)
                node = None
            elif mark == ")" and stack:
                op, op_off, args = stack.pop()
                args.append(node)
                if len(args) == arity[op]:
                    node = App(op, args)
                else:
                    error = FormulaSyntaxError(
                        f"arity mismatch: {op} expects {arity[op]} argument(s), got {len(args)}", op_off
                    )
            elif stack:
                error = FormulaSyntaxError(f"expected ',' or ')', found {mark!r}", pos)
            else:
                error = FormulaSyntaxError(f"trailing input {mark!r}", pos)
        elif name is not None:
            if mark == "(":
                stack.append((name, name_off, []))
                name = None
            else:
                error = FormulaSyntaxError(f"expected '(' after connective {name!r}", pos)
        elif mark == ")" and stack and not stack[-1][2] and arity[stack[-1][0]] == 0:
            node = App(stack.pop()[0], ())
        else:
            error = FormulaSyntaxError(f"expected a formula, found {mark!r}", pos)
        pos += 1
    if error is None:
        if node is not None and not stack:
            for spelling, index in fresh.items():
                variables[spelling] = Var(index)
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


def formula_over(sig: Signature, phi: Formula) -> bool:
    return phi.conns <= sig._conn_set


def substitute(phi: Formula, sigma: dict[int, Formula]) -> Formula:
    """Simultaneous substitution; unmapped variables stay fixed."""
    if isinstance(phi, Var):
        return sigma.get(phi.index, phi)
    return App(phi.name, [substitute(a, sigma) for a in phi.args])


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

    def __hash__(self):
        return hash((self.source, self.target, frozenset(self.assignment.items())))

    def __repr__(self):
        body = ", ".join(f"{n}:{print_formula(f)}" for n, f in sorted(self.assignment.items()))
        return f"FlexibleMorphism({body})"


def extend_morphism(f: FlexibleMorphism, phi: Formula) -> Formula:
    """The unique extension: variables are fixed, c(args) becomes f(c)[xi|args].
    Nothing is kept on f: a shared subterm is translated at each occurrence,
    and the result is an interned node."""
    if isinstance(phi, Var):
        return phi
    return substitute(f(phi.name), dict(enumerate([extend_morphism(f, a) for a in phi.args])))


def compose_morphisms(g: FlexibleMorphism, f: FlexibleMorphism) -> FlexibleMorphism:
    """(g . f)(c) = extension of g applied to f(c); needs f.target = g.source."""
    if f.target != g.source:
        raise ValueError("signature mismatch: f.target must equal g.source")
    assignment = {name: extend_morphism(g, f(name)) for name in f.source.names}
    return FlexibleMorphism(f.source, g.target, assignment)


def _universe_size(sig: Signature, num_vars: int, max_depth: int) -> int:
    """len(enumerate_formulas(...)), or some number above MAX_UNIVERSE once the count passes it."""
    arities = [arity for _, arity in sig.connectives if arity]
    # c counts the layers so far, b all but the last. Past the limit's bit
    # length, c^a - b^a exceeds the limit when c >= 2 and is 1 when c = 1 (b = 0),
    # so capping the exponent there changes no verdict
    cap = MAX_UNIVERSE.bit_length() + 1
    depth, b, c = 1, 0, num_vars + len(sig.connectives) - len(arities)
    while depth < max_depth and c <= MAX_UNIVERSE:
        depth, b, c = depth + 1, c, c + sum(c ** min(a, cap) - b ** min(a, cap) for a in arities)
    return c


def enumerate_formulas(sig: Signature, num_vars: int, max_depth: int) -> list[Formula]:
    """All formulas with variables among x0..x_{num_vars-1} and depth <= max_depth.

    Deterministic order: by depth, then signature order, then argument order.
    """
    if num_vars < 1 or max_depth < 1:
        raise ValueError("bounds must be >= 1")
    if max_depth > MAX_FORMULA_DEPTH or _universe_size(sig, num_vars, max_depth) > MAX_UNIVERSE:
        raise ValueError(f"bounds vars={num_vars}, depth={max_depth} exceed the limits of"
                         f" {MAX_UNIVERSE:,} formulas and depth {MAX_FORMULA_DEPTH}")
    layers = [[Var(i) for i in range(num_vars)] + [App(name, ()) for name, arity in sig.connectives if arity == 0]]
    for _depth in range(2, max_depth + 1):
        pool = [phi for layer in layers for phi in layer]
        deepest = set(layers[-1])
        layers.append([App(name, args) for name, arity in sig.connectives if arity
                       for args in itertools.product(pool, repeat=arity) if not deepest.isdisjoint(args)])
    return [phi for layer in layers for phi in layer]


def random_formula(rng, sig: Signature, num_vars: int, max_depth: int) -> Formula:
    """Seeded random formula within the depth/variable bounds. The RNG
    choices are drawn in preorder (a variable index, or a connective before
    its arguments' choices), then the formula is built from them bottom-up;
    neither pass recurses."""
    conns = sig.connectives
    choices = []
    pending = [max_depth]
    while pending:
        depth = pending.pop()
        if depth <= 1 or not conns or rng.random() < 0.3:
            choices.append(rng.randrange(num_vars))
        else:
            conn = conns[rng.randrange(len(conns))]
            choices.append(conn)
            pending += [depth - 1] * conn[1]
    built: list[Formula] = []
    for choice in reversed(choices):
        if type(choice) is int:
            built.append(Var(choice))
        else:
            name, arity = choice
            built.append(App(name, [built.pop() for _ in range(arity)]))
    return built.pop()
