import random
import re
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
from aalogic import algebra, corpus
from aalogic.semantics import BUILTIN_SIGNATURE
from aalogic.syntax import (
    _VAR_RE,
    MAX_FORMULA_DEPTH,
    MAX_VARIABLE_INDEX,
    Formula,
    formula_depth,
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
        assert formula_depth(phi) == 5000 > sys.getrecursionlimit()
        assert print_formula(phi) == "neg(" * 4999 + "x3" + ")" * 4999


class TestSignature:
    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError):
            Signature([("neg", 1), ("neg", 2)])

    def test_variable_shaped_name_rejected(self):
        with pytest.raises(ValueError):
            Signature([("x0", 1)])

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

    def test_memoised_extension_matches_a_reference_walk(self, monkeypatch):
        def walk(f, phi):
            if isinstance(phi, Var):
                return phi
            return substitute(f(phi.name), dict(enumerate(walk(f, a) for a in phi.args)))

        morphisms = [h.morphism for _, h in corpus.classical_corpus().morphisms]
        morphisms.append(compose_morphisms(morphisms[3], morphisms[4]))
        rng = random.Random(4215)
        queries = [random_formula(rng, BUILTIN_SIGNATURE, 3, 4) for _ in range(200)]
        for f in morphisms:
            expected = [walk(f, phi) for phi in queries]
            assert [extend_morphism(f, phi) for phi in queries] == expected  # cold
            assert [extend_morphism(f, phi) for phi in queries] == expected  # warm
        monkeypatch.setattr(algebra, "MEMO_LIMIT", 5)
        for f in morphisms:
            f._memo.clear()
            assert [extend_morphism(f, phi) for phi in queries] == [walk(f, phi) for phi in queries]
            assert len(f._memo) <= 5

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


class TestEnumeration:
    def test_depth_convention(self):
        assert formula_depth(Var(0)) == 1
        assert formula_depth(neg(Var(0))) == 2
        assert formula_depth(imp(neg(Var(0)), Var(1))) == 3

    def test_counts_small(self, sig2):
        assert len(enumerate_formulas(sig2, 2, 1)) == 2
        assert len(enumerate_formulas(sig2, 2, 2)) == 8
        assert len(enumerate_formulas(sig2, 2, 3)) == 74

    def test_within_bounds(self, sig):
        for phi in enumerate_formulas(sig, 2, 3):
            assert formula_depth(phi) <= 3
            assert variables(phi) <= {0, 1}

    def test_no_duplicates(self, sig):
        formulas = enumerate_formulas(sig, 2, 3)
        assert len(formulas) == len(set(formulas))

    def test_random_formula_in_bounds(self, sig):
        rng = random.Random(99)
        for _ in range(200):
            phi = random_formula(rng, sig, 2, 3)
            assert formula_depth(phi) <= 3
            assert variables(phi) <= {0, 1}


# ---------------------------------------------------------------------------
# interning-time metadata against reference walks
# ---------------------------------------------------------------------------

def ref_variables(phi):
    if isinstance(phi, Var):
        return {phi.index}
    return set().union(*map(ref_variables, phi.args))


def ref_depth(phi):
    if isinstance(phi, Var) or not phi.args:
        return 1
    return 1 + max(map(ref_depth, phi.args))


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
    def test_variables_and_depth_match_reference(self):
        sample = metadata_sample()
        assert max(max(variables(phi), default=0) for phi in sample) == 9
        for phi in sample:
            assert variables(phi) == frozenset(ref_variables(phi))
            assert formula_depth(phi) == ref_depth(phi)

    def test_formula_over_matches_reference(self):
        for phi in metadata_sample():
            for sig in SUB_SIGNATURES:
                assert formula_over(sig, phi) == ref_over(sig, phi), (sig, phi)

    def test_nullary_node_outside_every_signature(self):
        assert variables(BOT) == frozenset()
        assert formula_depth(BOT) == 1
        assert not any(formula_over(sig, BOT) for sig in SUB_SIGNATURES)

    def test_nullary_connective(self):
        truth = App("truth", ())
        assert formula_depth(truth) == 1 and variables(truth) == frozenset()
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
# the parse-time depth limit
# ---------------------------------------------------------------------------

def nested_neg(depth):
    return "neg(" * (depth - 1) + "x0" + ")" * (depth - 1)


class TestDepthLimit:
    def test_limit_is_accepted(self, sig):
        assert formula_depth(parse_formula(sig, nested_neg(MAX_FORMULA_DEPTH))) == MAX_FORMULA_DEPTH

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
