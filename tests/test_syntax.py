import copy
import itertools
import pickle
import random
import re
import subprocess
import sys

import pytest

from aalogic import (
    App,
    FlexibleMorphism,
    FormulaSyntaxError,
    Signature,
    Var,
    compose_morphisms,
    enumerate_formulas,
    extend_morphism,
    parse_formula,
    print_formula,
    substitute,
    variables,
)
from aalogic import corpus
from aalogic.algebraization import is_lindenbaum
from aalogic.glivenko import glivenko_sweep
from aalogic.institutions import _random_sentence
from aalogic.semantics import BUILTIN_SIGNATURE
from aalogic import syntax
from aalogic.syntax import (
    _VAR_RE,
    MAX_FORMULA_DEPTH,
    MAX_UNIVERSE,
    MAX_VARIABLE_INDEX,
    Formula,
    _universe_size,
    formula_over,
    random_formula,
)


def neg(a):
    return App("neg", (a,))


def imp(a, b):
    return App("imp", (a, b))


# a nullary connective that no signature below declares
BOT = App("_bot", ())


class TestParse:
    def test_variable(self, sig):
        assert parse_formula(sig, "x0") == Var(0)
        assert parse_formula(sig, "x12") == Var(12)

    def test_application(self, sig):
        assert parse_formula(sig, "imp(x0,x1)") == imp(Var(0), Var(1))

    def test_whitespace_insignificant(self, sig):
        assert parse_formula(sig, "  imp( x0 ,\tneg( x1 ) ) ") == imp(Var(0), neg(Var(1)))

    def test_arity_mismatch(self, sig):
        with pytest.raises(FormulaSyntaxError):
            parse_formula(sig, "imp(x0)")
        with pytest.raises(FormulaSyntaxError):
            parse_formula(sig, "neg(x0,x1)")

    def test_unknown_connective(self, sig):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula(sig, "imp(x0,box(x1))")
        assert err.value.offset == 7

    def test_syntax_error_offset(self, sig):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula(sig, "imp(x0,)")
        assert err.value.offset == 7

    def test_trailing_garbage(self, sig):
        with pytest.raises(FormulaSyntaxError):
            parse_formula(sig, "x0 x1")

    def test_bad_character(self, sig):
        with pytest.raises(FormulaSyntaxError):
            parse_formula(sig, "imp(x0,X1)")

    def test_roundtrip_exhaustive(self, sig):
        for phi in enumerate_formulas(sig, 2, 3):
            assert parse_formula(sig, print_formula(phi)) == phi

    def test_nullary_connective_roundtrip(self):
        sig = Signature([("truth", 0), ("neg", 1), ("imp", 2)])
        constant = App("truth", ())
        assert print_formula(constant) == "truth()"
        assert parse_formula(sig, " truth ( ) ") == constant
        formulas = enumerate_formulas(sig, 2, 3)
        assert constant in formulas
        for phi in formulas:
            assert parse_formula(sig, print_formula(phi)) == phi

    @pytest.mark.parametrize("text, message, offset", [
        ("truth", "expected '(' after connective 'truth'", 5),
        ("truth(x0)", "arity mismatch: truth expects 0 argument(s), got 1", 0),
        ("truth(,)", "expected a formula, found ','", 6),
        ("truth(", "expected a formula", 6),
        ("neg()", "expected a formula, found ')'", 4),
        ("truth()()", "trailing input '('", 7),
    ])
    def test_nullary_errors(self, text, message, offset):
        sig = Signature([("truth", 0), ("neg", 1)])
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula(sig, text)
        assert str(err.value) == f"{message} (at offset {offset})"
        assert err.value.offset == offset


def ref_print_formula(phi):
    """The recursive printer that the explicit-stack one replaced."""
    if isinstance(phi, Var):
        return f"x{phi.index}"
    return "%s(%s)" % (phi.name, ",".join(ref_print_formula(a) for a in phi.args))


class TestPrinter:
    def test_matches_the_recursive_printer(self):
        rng = random.Random(1901)
        for sig in (BUILTIN_SIGNATURE, ODD_ARITIES):
            sample = enumerate_formulas(sig, 2, 2) + [random_formula(rng, sig, 12, 7) for _ in range(500)]
            for phi in sample:
                assert print_formula(phi) == repr(phi) == ref_print_formula(phi)

    def test_a_chain_deeper_than_the_recursion_limit_prints(self):
        phi = Var(3)
        for _ in range(4999):
            phi = neg(phi)
        assert ref_depth(phi) == 5000 > sys.getrecursionlimit()
        assert print_formula(phi) == "neg(" * 4999 + "x3" + ")" * 4999


class TestSignature:
    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError):
            Signature([("neg", 1), ("neg", 2)])

    def test_variable_shaped_name_rejected(self):
        with pytest.raises(ValueError):
            Signature([("x0", 1)])

    @pytest.mark.parametrize("arity", ["2", True, 1.5, None])
    def test_arity_that_is_no_plain_int_rejected(self, arity):
        # not read as 2 or as 1
        with pytest.raises(ValueError, match=f"^arity of imp is not an integer: {arity!r}$"):
            Signature([("neg", 1), ("imp", arity)])

    def test_json_roundtrip(self, sig):
        assert Signature.from_json(sig.to_json()) == sig

    def test_order_is_canonical(self):
        a = Signature([("neg", 1), ("imp", 2)])
        b = Signature([("imp", 2), ("neg", 1)])
        assert a != b


class TestSubstitute:
    def test_identity(self):
        assert substitute(Var(0), {0: Var(0)}) == Var(0)

    def test_simultaneous(self):
        swapped = substitute(imp(Var(0), Var(1)), {0: Var(1), 1: Var(0)})
        assert swapped == imp(Var(1), Var(0))

    def test_structural_recursion(self):
        assert substitute(neg(Var(0)), {0: neg(Var(0))}) == neg(neg(Var(0)))

    def test_unmapped_variables_fixed(self):
        assert substitute(imp(Var(0), Var(3)), {0: Var(1)}) == imp(Var(1), Var(3))


@pytest.fixture(scope="module")
def double_neg_morphism(sig2):
    assignment = {"neg": neg(neg(Var(0))), "imp": imp(Var(0), Var(1))}
    return FlexibleMorphism(sig2, sig2, assignment)


class TestMorphisms:
    def test_identity_extension_fixes_everything(self, sig):
        j = FlexibleMorphism.identity(sig)
        for phi in enumerate_formulas(sig, 2, 3):
            assert extend_morphism(j, phi) == phi

    def test_extension_on_variables(self, double_neg_morphism):
        assert extend_morphism(double_neg_morphism, Var(3)) == Var(3)

    def test_extension_replaces_connective(self, double_neg_morphism):
        assert extend_morphism(double_neg_morphism, neg(Var(0))) == neg(neg(Var(0)))
        assert extend_morphism(double_neg_morphism, neg(neg(Var(0)))) == neg(neg(neg(neg(Var(0)))))

    def test_bad_assignment_variables(self, sig2):
        with pytest.raises(ValueError):
            FlexibleMorphism(sig2, sig2, {"neg": imp(Var(0), Var(1)), "imp": imp(Var(0), Var(1))})

    def test_compose_identity_is_unit(self, sig2, double_neg_morphism):
        j = FlexibleMorphism.identity(sig2)
        assert compose_morphisms(j, double_neg_morphism) == double_neg_morphism
        assert compose_morphisms(double_neg_morphism, j) == double_neg_morphism

    def test_compose_doubles_twice(self, double_neg_morphism):
        ff = compose_morphisms(double_neg_morphism, double_neg_morphism)
        assert ff("neg") == neg(neg(neg(neg(Var(0)))))

    def test_compose_signature_mismatch(self, sig, sig2, double_neg_morphism):
        j = FlexibleMorphism.identity(sig)
        with pytest.raises(ValueError):
            compose_morphisms(double_neg_morphism, j)

    def test_extension_shrinks_variables(self, sig2, double_neg_morphism):
        for phi in enumerate_formulas(sig2, 3, 3):
            assert variables(extend_morphism(double_neg_morphism, phi)) <= variables(phi)

    def test_functoriality_exhaustive(self, sig2, double_neg_morphism):
        # extend(g . f) agrees with extend(g) . extend(f) on every formula
        # with <= 3 variables and depth <= 4
        f = double_neg_morphism
        g = FlexibleMorphism(sig2, sig2, {"neg": neg(Var(0)), "imp": imp(Var(1), Var(0))})
        gf = compose_morphisms(g, f)
        for phi in enumerate_formulas(sig2, 3, 4):
            assert extend_morphism(gf, phi) == extend_morphism(g, extend_morphism(f, phi))

    def test_extension_matches_a_reference_walk(self):
        def walk(f, phi):
            if isinstance(phi, Var):
                return phi
            return substitute(f(phi.name), dict(enumerate(walk(f, a) for a in phi.args)))

        morphisms = [h.morphism for _, h in corpus.classical_corpus().morphisms]
        morphisms.append(compose_morphisms(morphisms[3], morphisms[4]))
        rng = random.Random(4215)
        queries = [random_formula(rng, BUILTIN_SIGNATURE, 3, 4) for _ in range(200)]
        for f in morphisms:
            assert [extend_morphism(f, phi) for phi in queries] == [walk(f, phi) for phi in queries]

    def test_extension_structurality(self, sig2, double_neg_morphism):
        rng = random.Random(4214)
        f = double_neg_morphism
        for _ in range(300):
            phi = random_formula(rng, sig2, 3, 4)
            sigma = {i: random_formula(rng, sig2, 3, 3) for i in range(3)}
            lhs = extend_morphism(f, substitute(phi, sigma))
            rhs = substitute(
                extend_morphism(f, phi),
                {i: extend_morphism(f, s) for i, s in sigma.items()},
            )
            assert lhs == rhs


# signatures for the enumeration tests: nullary connectives before, between
# and after positive arities, and a ternary one
ENUMERATED = {
    "builtin": BUILTIN_SIGNATURE,
    "neg_imp": Signature([("neg", 1), ("imp", 2)]),
    "top_m": Signature([("top", 0), ("m", 3)]),
    "mixed": Signature([("m", 3), ("bot", 0), ("neg", 1), ("top", 0), ("imp", 2)]),
}


def ref_universe_size(sig, num_vars, max_depth):
    """The number of formulas by the recurrence at full exponents. Past 2**64
    it stops at a shallower depth, whose count is already above every limit
    tested and below the true one."""
    arities = [a for _, a in sig.connectives if a]
    below, count = 0, num_vars + len(sig.connectives) - len(arities)
    for _ in range(2, max_depth + 1):
        if count > 2**64:
            break
        below, count = count, count + sum(count**a - below**a for a in arities)
    return count


def ref_enumeration(sig, num_vars, max_depth):
    """Every formula within the bounds by brute force: each connective over
    every tuple of the formulas one level down, collected as a set. Then
    sorted by depth, then the connective's signature position, then the
    arguments' own keys from left to right; variables come before nullary
    connectives."""
    atoms = [Var(i) for i in range(num_vars)] + [App(n, ()) for n, a in sig.connectives if a == 0]
    formulas = set(atoms)
    for _ in range(2, max_depth + 1):
        below = list(formulas)
        formulas.update(App(n, args) for n, a in sig.connectives for args in itertools.product(below, repeat=a))
    position = {name: i for i, name in enumerate(sig.names)}
    keys = {phi: (1, i) for i, phi in enumerate(atoms)}

    def key(phi):
        if phi not in keys:
            keys[phi] = (ref_depth(phi), position[phi.name], tuple(key(a) for a in phi.args))
        return keys[phi]

    return sorted(formulas, key=key)


class TestEnumeration:
    def test_depth_convention(self):
        assert ref_depth(Var(0)) == 1
        assert ref_depth(neg(Var(0))) == 2
        assert ref_depth(imp(neg(Var(0)), Var(1))) == 3

    def test_counts_small(self, sig2):
        assert len(enumerate_formulas(sig2, 2, 1)) == 2
        assert len(enumerate_formulas(sig2, 2, 2)) == 8
        assert len(enumerate_formulas(sig2, 2, 3)) == 74

    def test_within_bounds(self, sig):
        for phi in enumerate_formulas(sig, 2, 3):
            assert ref_depth(phi) <= 3
            assert variables(phi) <= {0, 1}

    def test_no_duplicates(self, sig):
        formulas = enumerate_formulas(sig, 2, 3)
        assert len(formulas) == len(set(formulas))

    # a sweep once drew from the empty universe (IndexError), and the
    # Lindenbaum check passed on 0 instances
    @pytest.mark.parametrize("bounds", [(0, 2), (2, 0)], ids=["vars", "depth"])
    @pytest.mark.parametrize("check", [
        lambda num_vars, depth: glivenko_sweep(corpus.classical_context(), num_vars, depth, 1, 0, 10),
        lambda num_vars, depth: is_lindenbaum(corpus.ipc_logic(), corpus.classical_pair(), num_vars, depth),
    ], ids=["glivenko_sweep", "is_lindenbaum"])
    def test_a_zero_bound_is_refused(self, check, bounds):
        with pytest.raises(ValueError, match="^bounds must be >= 1$"):
            check(*bounds)

    @pytest.mark.parametrize("name, num_vars, depth", [
        (name, v, d) for name in ENUMERATED for v in (1, 2, 3) for d in (1, 2, 3)
        if ref_universe_size(ENUMERATED[name], v, d) <= 30_000
    ])
    def test_order_against_reference(self, name, num_vars, depth):
        sig = ENUMERATED[name]
        assert enumerate_formulas(sig, num_vars, depth) == ref_enumeration(sig, num_vars, depth)

    @pytest.mark.parametrize("name", ENUMERATED)
    def test_count_against_length(self, name):
        sig = ENUMERATED[name]
        admitted = 0
        for v, d in [(v, d) for v in (1, 2, 3) for d in (1, 2, 3)] + [(3, 4)]:
            size = ref_universe_size(sig, v, d)
            if size <= MAX_UNIVERSE:
                assert _universe_size(sig, v, d) == size == len(enumerate_formulas(sig, v, d))
                admitted += 1
            else:
                assert _universe_size(sig, v, d) > MAX_UNIVERSE
                with pytest.raises(ValueError, match=f"^bounds vars={v}, depth={d} exceed the limits of"
                                                     f" {MAX_UNIVERSE:,} formulas and depth {MAX_FORMULA_DEPTH}$"):
                    enumerate_formulas(sig, v, d)
        assert admitted >= 5

    @pytest.mark.parametrize("limit", [1, 2, 3, 7, 8, 73, 74, 1000, MAX_UNIVERSE])
    def test_capped_exponents_give_the_verdict_of_the_full_count(self, monkeypatch, limit):
        monkeypatch.setattr(syntax, "MAX_UNIVERSE", limit)
        for arities in [(), (1,), (2,), (1, 2), (3,), (2, 2, 2), (10,), (16,), (17,), (18,), (40,), (1, 40)]:
            for nullary in (0, 1):
                sig = Signature([(f"c{i}", a) for i, a in enumerate(arities)] + [("k", 0)] * nullary)
                for v in (1, 2, 3, 9):
                    for d in (1, 2, 3, 4, 8):
                        size, counted = ref_universe_size(sig, v, d), _universe_size(sig, v, d)
                        assert counted == size if size <= limit else counted > limit, (arities, nullary, v, d)

    def test_a_universe_of_exactly_the_limit_is_admitted(self, monkeypatch, sig2):
        monkeypatch.setattr(syntax, "MAX_UNIVERSE", 74)
        assert len(enumerate_formulas(sig2, 2, 3)) == 74
        monkeypatch.setattr(syntax, "MAX_UNIVERSE", 73)
        with pytest.raises(ValueError, match="exceed the limits of 73 formulas"):
            enumerate_formulas(sig2, 2, 3)

    def test_a_wide_connective_is_refused_before_a_formula_is_built(self):
        # two variables under a 40-ary connective at depth 2: 2 + 2**40 formulas
        sig = Signature([("w", 40)])
        nodes = len(App._pool)
        with pytest.raises(ValueError, match=f"^bounds vars=2, depth=2 exceed the limits of {MAX_UNIVERSE:,}"):
            enumerate_formulas(sig, 2, 2)
        assert len(App._pool) == nodes
        assert enumerate_formulas(sig, 1, 2) == [Var(0), App("w", (Var(0),) * 40)]

    def test_depth_past_the_parser_limit_is_refused(self):
        # one unary connective gives one formula per atom (x0, top()) and depth
        sig = Signature([("neg", 1), ("top", 0)])
        formulas = enumerate_formulas(sig, 1, MAX_FORMULA_DEPTH)
        assert len(formulas) == 2 * MAX_FORMULA_DEPTH
        assert parse_formula(sig, print_formula(formulas[-1])) is formulas[-1]
        with pytest.raises(ValueError, match=f"^bounds vars=1, depth={MAX_FORMULA_DEPTH + 1} exceed the limits"):
            enumerate_formulas(sig, 1, MAX_FORMULA_DEPTH + 1)
        with pytest.raises(ValueError, match="exceed the limits"):
            enumerate_formulas(Signature([("top", 0)]), 1, 10**9)

    def test_random_formula_in_bounds(self, sig):
        rng = random.Random(99)
        for _ in range(200):
            phi = random_formula(rng, sig, 2, 3)
            assert ref_depth(phi) <= 3
            assert variables(phi) <= {0, 1}


# ---------------------------------------------------------------------------
# interning-time metadata against reference walks
# ---------------------------------------------------------------------------

def ref_variables(phi):
    if isinstance(phi, Var):
        return {phi.index}
    return set().union(*map(ref_variables, phi.args))


def ref_depth(phi):
    """The nodes on phi's longest root-to-leaf path (a variable has 1). An
    explicit walk, so a chain deeper than the recursion limit has a depth."""
    depth, stack = 0, [(phi, 1)]
    while stack:
        node, d = stack.pop()
        depth = max(depth, d)
        if isinstance(node, App):
            stack.extend((a, d + 1) for a in node.args)
    return depth


def ref_over(sig, phi):
    if isinstance(phi, Var):
        return True
    return (
        phi.name in sig
        and sig.arity(phi.name) == len(phi.args)
        and all(ref_over(sig, a) for a in phi.args)
    )


def metadata_sample():
    formulas = list(enumerate_formulas(BUILTIN_SIGNATURE, 3, 3))
    rng = random.Random(8111)
    formulas += [random_formula(rng, BUILTIN_SIGNATURE, 10, 6) for _ in range(400)]
    # a nullary connective outside every signature, alone and nested
    formulas += [BOT, imp(Var(9), BOT), neg(imp(BOT, Var(4)))]
    return formulas


SUB_SIGNATURES = [
    BUILTIN_SIGNATURE,
    Signature([("neg", 1), ("imp", 2)]),
    Signature([("and", 2), ("or", 2), ("iff", 2)]),
    Signature([("neg", 2), ("imp", 2)]),  # same names, one arity differs
    Signature([("truth", 0)]),
    Signature([]),
]


class TestNodeMetadata:
    def test_variables_match_reference(self):
        sample = metadata_sample()
        assert max(max(variables(phi), default=0) for phi in sample) == 9
        for phi in sample:
            assert variables(phi) == frozenset(ref_variables(phi))

    def test_formula_over_matches_reference(self):
        for phi in metadata_sample():
            for sig in SUB_SIGNATURES:
                assert formula_over(sig, phi) == ref_over(sig, phi), (sig, phi)

    def test_nullary_node_outside_every_signature(self):
        assert variables(BOT) == frozenset()
        assert ref_depth(BOT) == 1
        assert not any(formula_over(sig, BOT) for sig in SUB_SIGNATURES)

    def test_nullary_connective(self):
        truth = App("truth", ())
        assert ref_depth(truth) == 1 and variables(truth) == frozenset()
        assert formula_over(Signature([("truth", 0)]), truth)
        assert not formula_over(Signature([("truth", 1)]), truth)

    def test_equal_connective_sets_are_shared(self):
        sample = metadata_sample()
        assert len({id(phi.conns) for phi in sample}) == len({phi.conns for phi in sample})

    def test_parsed_connective_names_are_interned(self):
        # built at run time, so neither string is interned yet, and the
        # parser's name is a third object: a substring of the text
        name = "".join(["fresh", "_", "connective"])
        canonical = sys.intern(name)
        phi = parse_formula(Signature([(name, 1)]), "".join([name, "(x0)"]))
        assert phi.name is canonical
        assert parse_formula(Signature([(name, 1)]), name + "(x0)") is phi


# ---------------------------------------------------------------------------
# copies and pickles come back as the interned nodes
# ---------------------------------------------------------------------------

# loads (text, node) pairs pickled by another process from stdin; the text
# in argv is parsed before the load, so its node is interned here already
UNPICKLE_PROBE = """
import pickle, sys
from aalogic.syntax import BUILTIN_SIGNATURE, parse_formula
first = parse_formula(BUILTIN_SIGNATURE, sys.argv[1])
pairs = pickle.loads(sys.stdin.buffer.read())
print(first in [phi for _, phi in pairs], all(phi is parse_formula(BUILTIN_SIGNATURE, t) for t, phi in pairs))
"""


class TestCopyAndPickle:
    def sample(self):
        rng = random.Random(2301)
        return enumerate_formulas(BUILTIN_SIGNATURE, 2, 2) + [
            random_formula(rng, BUILTIN_SIGNATURE, 4, 6) for _ in range(50)
        ]

    def test_copies_are_the_interned_nodes(self):
        deepest = parse_formula(BUILTIN_SIGNATURE, nested_neg(MAX_FORMULA_DEPTH))
        for phi in self.sample() + [BOT, imp(Var(9), BOT), deepest]:
            assert copy.copy(phi) is phi
            assert copy.deepcopy(phi) is phi
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(phi, protocol)) is phi

    def test_deepcopy_of_a_corpus(self):
        original = corpus.classical_corpus()
        copied = copy.deepcopy(original)
        assert copied.morphisms == original.morphisms
        assert copied.pairs == original.pairs
        assert copied.matrices == original.matrices

    def test_unpickled_in_a_fresh_interpreter(self):
        pairs = [(print_formula(phi), phi) for phi in self.sample()]
        out = subprocess.run([sys.executable, "-c", UNPICKLE_PROBE, pairs[-1][0]], input=pickle.dumps(pairs),
                             capture_output=True, check=True).stdout
        assert out.split() == [b"True", b"True"]


# ---------------------------------------------------------------------------
# the parse-time depth limit
# ---------------------------------------------------------------------------

def nested_neg(depth):
    return "neg(" * (depth - 1) + "x0" + ")" * (depth - 1)


class TestDepthLimit:
    def test_limit_is_accepted(self, sig):
        assert ref_depth(parse_formula(sig, nested_neg(MAX_FORMULA_DEPTH))) == MAX_FORMULA_DEPTH

    def test_one_deeper_is_rejected_at_the_offending_token(self, sig):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula(sig, nested_neg(MAX_FORMULA_DEPTH + 1))
        # the variable sits at depth MAX + 1, after MAX "neg(" prefixes
        assert err.value.offset == 4 * MAX_FORMULA_DEPTH

    def test_deepest_connective_is_rejected(self, sig):
        # left-nested: the first token at depth MAX + 1 is a connective
        text = "neg(" + "imp(" * MAX_FORMULA_DEPTH + "x0" + ",x1)" * MAX_FORMULA_DEPTH + ")"
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula(sig, text)
        assert err.value.offset == 4 * MAX_FORMULA_DEPTH
        assert text[err.value.offset:].startswith("imp(")

    def test_very_deep_input_raises_a_syntax_error(self, sig):
        with pytest.raises(FormulaSyntaxError):
            parse_formula(sig, nested_neg(3000))
        with pytest.raises(FormulaSyntaxError):
            parse_formula(sig, "neg(" * 3000)


# ---------------------------------------------------------------------------
# the one-pass parser against the tokenizer and recursive parser it replaced
# ---------------------------------------------------------------------------

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


def ref_parse_formula(sig: Signature, text: str) -> Formula:
    """Parse ``formula := var | name "(" formula ("," formula)* ")" | name "(" ")"``,
    the last form for nullary connectives.

    Raises FormulaSyntaxError (with the character offset) on malformed input, unknown
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


ODD_ARITIES = Signature([("top", 0), ("neg", 1), ("imp", 2), ("ite", 3)])
# characters a one-character mutation inserts or writes over: the grammar's,
# names and digits that make other tokens, whitespace and two bad characters
MUTATION_CHARS = "x0123456789aeginopt_(),  \t\n$X"


def outcome(parse, sig, text):
    try:
        return parse(sig, text)
    except FormulaSyntaxError as err:
        return type(err), str(err), err.offset


def mutations(rng, text, count):
    for _ in range(count):
        i = rng.randrange(len(text) + 1)
        edit = rng.choice(("insert", "delete", "replace"))
        if edit == "insert":
            yield text[:i] + rng.choice(MUTATION_CHARS) + text[i:]
        elif edit == "delete":
            yield text[:i] + text[i + 1:]
        else:
            yield text[:i] + rng.choice(MUTATION_CHARS) + text[i + 1:]


def differential_texts():
    """500 printed random formulas, 20 one-character mutations of each
    (10,000 in all), then the edge cases."""
    rng = random.Random(1807)
    printed = [
        print_formula(random_formula(rng, sig, 4, 5))
        for sig in (BUILTIN_SIGNATURE, ODD_ARITIES)
        for _ in range(250)
    ]
    texts = list(printed)
    for text in printed:
        texts.extend(mutations(rng, text, 20))
    deep_ite = "ite(x0,x1," * (MAX_FORMULA_DEPTH - 1) + "x2" + ")" * (MAX_FORMULA_DEPTH - 1)
    texts += [
        nested_neg(MAX_FORMULA_DEPTH),
        nested_neg(MAX_FORMULA_DEPTH + 1),
        deep_ite,
        "ite(x0,x1," + deep_ite + ")",
        "neg(" * (MAX_FORMULA_DEPTH + 1),
        "top()", "top( )", "top(\t\n)", " top ( ) ", "neg (x0)", "top", "top(", "top(x0)", "top(,)", "top()()",
        "ite(x0,x1)", "ite(x0,x1,x2,x3)", "ite(top(),neg(x0),imp(x1,top()))",
        "imp(\tx0,\nneg(x1)\n)", "\n\timp(x0,x1)\t\n", "imp(x0,\n", "  ",
        "", "x", "x0a", "x007", "x00", "x0_", "xx0", "x0x1", "x0 x1", "neg x0", "neg(x0", "neg(x0,",
        "x0)" + "(" * 300 + "x0", "x0)" + "(" * 300, "foo(x0 $", "foo(x0", "neg(x0)$", "$", ")", ",",
        # the pieces between punctuation: Unicode whitespace, non-ASCII
        # digits, runs of spaces and a piece of several tokens
        "neg(\u3000x0)", "imp(x0 ,x1)\u3000", " x0", "x\u0661", "x\u00b2", "neg  (x0)", "imp(x0  x1,x2)",
    ]
    return texts


class TestParserAgainstReference:
    def test_mutations_and_edge_cases_agree(self):
        texts = differential_texts()
        for sig in (BUILTIN_SIGNATURE, ODD_ARITIES):
            for text in texts:
                got = outcome(parse_formula, sig, text)
                want = outcome(ref_parse_formula, sig, text)
                if isinstance(want, tuple):
                    assert got == want, (sig, text)
                else:
                    assert got is want, (sig, text)

    def test_both_outcomes_are_exercised(self):
        # the texts parse often enough and reach every error of the grammar
        kinds = (
            "expected a formula (", "expected a formula, found", "expected '(' after connective",
            "expected ',' or ')', found", "unexpected end of input", "trailing input",
            "unknown connective", "arity mismatch", "unexpected character", "formula nested deeper than",
        )
        reached = set()
        parsed = 0
        for text in differential_texts():
            result = outcome(ref_parse_formula, ODD_ARITIES, text)
            if isinstance(result, tuple):
                reached.update(k for k in kinds if result[1].startswith(k))
            else:
                parsed += 1
        assert parsed > 1000
        assert reached == set(kinds)

    def test_a_lexical_error_wins_over_an_earlier_grammar_error(self, sig):
        for text, message in [
            ("x0)" + "(" * 300 + "x0", "formula nested deeper than 200 (at offset 303)"),
            ("foo(x0 $", "unexpected character '$' (at offset 7)"),
            ("x0 x1 x100000", f"variable index above {MAX_VARIABLE_INDEX} (at offset 6)"),
        ]:
            with pytest.raises(FormulaSyntaxError) as err:
                parse_formula(sig, text)
            assert str(err.value) == message


class TestVariableIndexBound:
    def test_bound_is_accepted(self, sig):
        assert parse_formula(sig, f"x{MAX_VARIABLE_INDEX}") is Var(MAX_VARIABLE_INDEX)

    @pytest.mark.parametrize("digits", [str(MAX_VARIABLE_INDEX + 1), "9" * 20, "1" * 5000])
    def test_above_the_bound_is_rejected_at_the_variable(self, sig, digits):
        text = f"imp(x0,x{digits})"
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula(sig, text)
        assert str(err.value) == f"variable index above {MAX_VARIABLE_INDEX} (at offset 7)"

    def test_leading_zeros_do_not_count(self, sig):
        assert parse_formula(sig, "x" + "0" * 5000 + "7") is Var(7)
        assert parse_formula(sig, f"x000{MAX_VARIABLE_INDEX}") is Var(MAX_VARIABLE_INDEX)


# ---------------------------------------------------------------------------
# the draw order: one iterative drawer against the recursive one it replaced
# ---------------------------------------------------------------------------

def ref_random_formula(rng, sig, num_vars, max_depth):
    """The recursive random_formula, frozen as the oracle of the draw order."""
    if max_depth <= 1 or not sig.connectives:
        return Var(rng.randrange(num_vars))
    if rng.random() < 0.3:
        return Var(rng.randrange(num_vars))
    name, arity = sig.connectives[rng.randrange(len(sig.connectives))]
    return App(name, tuple(ref_random_formula(rng, sig, num_vars, max_depth - 1) for _ in range(arity)))


def ref_random_sentence(rng, sig, num_vars, depth, gamma_size):
    gamma = tuple(ref_random_formula(rng, sig, num_vars, depth) for _ in range(rng.randrange(gamma_size + 1)))
    return gamma, ref_random_formula(rng, sig, num_vars, depth)


def draw_signatures():
    """The built-in signature, one without connectives, one with nullary and
    ternary ones, and every signature an institution suite draws over."""
    c = corpus.classical_corpus()
    sigs = [BUILTIN_SIGNATURE, Signature([]), ODD_ARITIES]
    sigs += [h.source.signature for _, h in c.morphisms]
    sigs += [ctx.target.signature for _, ctx in c.contexts]
    return [sig for i, sig in enumerate(sigs) if sig not in sigs[:i]]


# (num_vars, depth, gamma_size)
DRAW_BOUNDS = list(itertools.product(range(1, 5), range(7), range(4)))


class TestDrawParity:
    @pytest.mark.parametrize("seed", range(3))
    def test_formulas_are_the_recursive_draws(self, seed):
        for sig in draw_signatures():
            for num_vars, depth, _ in DRAW_BOUNDS:
                ref, new = (random.Random(f"{seed}:{num_vars}:{depth}") for _ in range(2))
                for _ in range(6):
                    assert random_formula(new, sig, num_vars, depth) is ref_random_formula(ref, sig, num_vars, depth)
                    assert new.getstate() == ref.getstate()

    @pytest.mark.parametrize("seed", range(3))
    def test_sentences_are_the_recursive_draws(self, seed):
        for sig in draw_signatures():
            for bounds in DRAW_BOUNDS:
                ref, new = (random.Random(f"{seed}:{bounds}") for _ in range(2))
                for _ in range(4):
                    gamma, phi = _random_sentence(new, sig, *bounds)
                    ref_gamma, ref_phi = ref_random_sentence(ref, sig, *bounds)
                    assert len(gamma) == len(ref_gamma) and phi is ref_phi
                    assert all(g is r for g, r in zip(gamma, ref_gamma))
                    assert new.getstate() == ref.getstate()
