import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

CLI = [sys.executable, "-m", "aalogic.cli"]


def run(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True)


def iff_chain(leaves, first=0, second=1):
    """The left-nested iff chain over alternating x<first>/x<second> with
    this many leaves."""
    text = f"x{first}"
    for k in range(1, leaves):
        text = f"iff({text},x{second if k % 2 else first})"
    return text


class TestConsequence:
    def test_classical_tautology(self):
        out = run("consequence", "--logic", "cpc", "--phi", "or(x0,neg(x0))")
        assert out.returncode == 0 and out.stdout.strip() == "true"

    def test_intuitionistic_rejects(self):
        out = run("consequence", "--logic", "ipc", "--phi", "or(x0,neg(x0))")
        assert out.returncode == 0 and out.stdout.strip() == "false"

    def test_gamma_flag(self):
        out = run("consequence", "--logic", "ipc", "--gamma", "x0;imp(x0,x1)", "--phi", "x1")
        assert out.returncode == 0 and out.stdout.strip() == "true"

    def test_parse_error_exit_code(self):
        out = run("consequence", "--logic", "cpc", "--phi", "or(x0,")
        assert out.returncode == 2
        assert "error" in out.stderr

    def test_unknown_logic_file(self):
        out = run("consequence", "--logic", "nosuch.json", "--phi", "x0")
        assert out.returncode == 2

    def test_logic_from_file(self):
        out = run("consequence", "--logic", "data/h3_logic.json", "--phi", "or(x0,neg(x0))")
        assert out.returncode == 0 and out.stdout.strip() == "false"

    def test_json_output(self):
        out = run("consequence", "--logic", "cpc", "--phi", "x0", "--json")
        payload = json.loads(out.stdout)
        assert payload["verdict"] is False

    def test_usage_error(self):
        out = run("consequence", "--phi", "x0")
        assert out.returncode == 2

    @pytest.mark.parametrize("logic", ["cpc", "ipc"])
    def test_too_deep_formula_is_a_parse_error(self, logic):
        out = run("consequence", "--logic", logic, "--phi", "neg(" * 3000 + "x0" + ")" * 3000)
        assert out.returncode == 2
        assert "nested deeper than" in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("index", ["10000", "99999999999999999999"])
    def test_variable_index_above_the_bound_is_a_parse_error(self, index):
        out = run("consequence", "--logic", "cpc", "--phi", f"imp(x{index},x0)")
        assert out.returncode == 2
        assert out.stderr == "error: variable index above 9999 (at offset 4)\n"

    def test_search_too_deep_is_an_error_not_a_traceback(self):
        # the double negation of a classically valid iff chain parses and is
        # provable, so no Kripke model refutes it, but the sequent search on
        # it recurses past the interpreter's limit
        out = run("consequence", "--logic", "ipc", "--phi", f"neg(neg({iff_chain(196)}))")
        assert out.returncode == 2
        assert out.stderr.startswith("error:") and len(out.stderr.splitlines()) == 1
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("leaves", [16, 200])
    def test_iff_chain_is_refuted(self, leaves):
        # classically valid (the length is a multiple of 4) but refuted by a
        # two-world Kripke model; the sequent search alone takes seconds at
        # 16 leaves and overflows the recursion limit at 200
        out = run("consequence", "--logic", "ipc", "--phi", iff_chain(leaves))
        assert out.returncode == 0 and out.stdout.strip() == "false"

    def test_iff_chain_over_other_variables_is_refuted(self):
        # the refuters count a query's distinct variables, not their indices
        out = run("consequence", "--logic", "ipc", "--phi", iff_chain(200, 4, 5))
        assert out.returncode == 0 and out.stdout == "false\n"

    def test_formula_at_the_depth_limit_decides(self):
        out = run("consequence", "--logic", "ipc", "--phi", "neg(" * 199 + "x0" + ")" * 199)
        assert out.returncode == 0 and out.stdout.strip() == "false"


class TestGlivenko:
    def test_single_instance(self):
        out = run("glivenko", "--phi", "imp(imp(imp(x0,x1),x0),x0)")
        assert out.returncode == 0
        assert "agree: true" in out.stdout

    def test_context_file(self):
        out = run("glivenko", "--context", "data/classical_context.json", "--phi", "or(x0,neg(x0))")
        assert out.returncode == 0

    def test_exhaustive_small(self):
        out = run("glivenko", "--exhaustive", "--vars", "2", "--depth", "2", "--seed", "1")
        assert out.returncode == 0
        assert "overall: pass" in out.stdout

    def test_missing_phi(self):
        out = run("glivenko")
        assert out.returncode == 2


class TestCheck:
    def test_bp_cpc(self):
        out = run("check", "bp", "--logic", "cpc", "--pair", "data/cpc_pair.json")
        assert out.returncode == 0
        assert "overall: pass" in out.stdout

    def test_bp_perturbed_pair_fails(self):
        out = run("check", "bp", "--logic", "cpc", "--pair", "data/imp_pair.json")
        assert out.returncode == 1
        assert "witness" in out.stdout

    def test_lindenbaum(self):
        out = run("check", "lindenbaum", "--logic", "cpc")
        assert out.returncode == 0

    def test_leibniz(self):
        out = run("check", "leibniz", "--algebra", "data/B2.json", "--filter", "1")
        assert out.returncode == 0
        assert "identity: true" in out.stdout

    def test_leibniz_oracle_refuses_nine_elements(self, tmp_path):
        from aalogic import corpus

        path = tmp_path / "chain9.json"
        path.write_text(json.dumps(corpus.heyting_chain(9).to_json()))
        out = run("check", "leibniz", "--algebra", str(path), "--filter", "8")
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr == "error: carrier too large for exhaustive congruence enumeration (> 8)\n"

    def test_adjoint(self):
        out = run("check", "adjoint", "--algebra", "data/H3.json")
        assert out.returncode == 0
        assert "overall: pass" in out.stdout

    def test_adjoint_requires_algebra(self):
        out = run("check", "adjoint")
        assert out.returncode == 2

    def test_institution(self):
        out = run("check", "institution", "--seed", "3")
        assert out.returncode == 0

    def test_unknown_kind_usage_error(self):
        out = run("check", "bogus")
        assert out.returncode == 2

    def test_context_is_not_a_check_flag(self):
        out = run("check", "institution", "--context", "identity")
        assert out.returncode == 2
        assert "unrecognized arguments" in out.stderr


def wide_logic():
    """A logic with one 40-ary connective on a one-element matrix: depth 2
    over two variables holds 2 + 2**40 formulas."""
    table = 0
    for _ in range(40):
        table = [table]
    return {"signature": {"connectives": [{"name": "w", "arity": 40}]},
            "engine": {"kind": "matrix", "matrices": [{"algebra": {"size": 1, "tables": {"w": table}}, "filter": [0]}]}}


class TestUniverseLimit:
    """Bounds whose formula universe is over syntax.MAX_UNIVERSE are refused
    before a formula is built. They once ran until memory ran out (exit 1
    with a MemoryError), or did not end."""

    @pytest.mark.parametrize("args, bounds", [
        (["check", "lindenbaum", "--vars", "2", "--depth", "4"], "vars=2, depth=4"),
        (["glivenko", "--exhaustive", "--vars", "2", "--depth", "4"], "vars=2, depth=4"),
        (["check", "bp", "--vars", "9", "--depth", "3"], "vars=9, depth=3"),
        (["check", "bp", "--logic", "{wide}"], "vars=2, depth=2"),
    ])
    def test_a_universe_over_the_limit_exits_2_at_once(self, args, bounds, tmp_path, capsys):
        from aalogic.cli import main

        wide = tmp_path / "wide.json"
        wide.write_text(json.dumps(wide_logic()))
        start = time.perf_counter()
        code = main([arg.format(wide=wide) for arg in args])
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == f"error: bounds {bounds} exceed the limits of 100,000 formulas and depth 200\n"
        assert elapsed < 1.0


def irregular_algebra(size: int) -> dict:
    """An algebra with one binary operation whose table is drawn at random,
    seeded by its size: its unary polynomials are close to all size**size maps."""
    rng = random.Random(size)
    return {"signature": {"connectives": [{"name": "b", "arity": 2}]}, "size": size,
            "tables": {"b": [rng.randrange(size) for _ in range(size * size)]}}


class TestLeibnizOnIrregularAlgebras:
    """``check leibniz`` refines a partition over the basic translations.
    It once built the whole unary-polynomial clone first, near size**size
    maps: 13.5 s and 158 MB at 8 elements, and longer still at 9 before the
    oracle's refusal."""

    @pytest.mark.parametrize("size, code, out, err, limit", [
        (8, 0, "leibniz congruence: 0|1|2|3|4|5|6|7\nidentity: true; oracle agrees: true\n", "", 2.0),
        (9, 2, "", "error: carrier too large for exhaustive congruence enumeration (> 8)\n", 1.0),
    ], ids=["8-elements", "9-elements"])
    def test_exit_code_in_time(self, size, code, out, err, limit, tmp_path, capsys):
        from aalogic.cli import main

        path = tmp_path / f"irregular{size}.json"
        path.write_text(json.dumps(irregular_algebra(size)))
        start = time.perf_counter()
        exit_code = main(["check", "leibniz", "--algebra", str(path), "--filter", "0"])
        elapsed = time.perf_counter() - start
        assert (exit_code, *capsys.readouterr()) == (code, out, err)
        assert elapsed < limit


def b2_json():
    from aalogic import corpus

    return corpus.b2().to_json()


def with_table(name, table):
    data = b2_json()
    data["tables"][name] = table
    return data


def with_imp_arity(arity):
    data = b2_json()
    data["signature"]["connectives"][1]["arity"] = arity
    return data


DATA = Path(__file__).resolve().parent.parent / "data"


def bundled(name):
    """A data file's JSON, with the files it names given by absolute path, so
    a copy reads from anywhere."""
    data = json.loads((DATA / name).read_text())
    for holder in (data, *data.get("engine", {}).get("matrices", ())):
        for key in ("signature", "algebra"):
            if isinstance(holder.get(key), str):
                holder[key] = str(DATA / holder[key])
    return data


def h3_with_imp_cell(value):
    data = bundled("H3.json")
    data["tables"]["imp"][2][1] = value  # a 1
    return data


def h3_logic_with_filter(filter_entry):
    data = bundled("h3_logic.json")
    data["engine"]["matrices"][0]["filter"] = filter_entry
    return data


def b2_with_nested_neg(levels):
    """B2's file with its neg table wrapped in this many lists."""
    data = bundled("B2.json")
    for _ in range(levels):
        data["tables"]["neg"] = [data["tables"]["neg"]]
    return data


def classical_context_with_h(drop=(), **extra):
    """The classical context with h the identity written out, less the
    connectives in drop, plus the extra assignments."""
    h = {"neg": "neg(x0)", "imp": "imp(x0,x1)", "and": "and(x0,x1)", "or": "or(x0,x1)", "iff": "iff(x0,x1)"}
    h = {name: text for name, text in h.items() if name not in drop}
    return {**bundled("classical_context.json"), "h": {**h, **extra}}


def matrix_logic(filter_entry):
    algebra = b2_json()
    return {"signature": algebra["signature"], "implication": "imp",
            "engine": {"kind": "matrix", "matrices": [{"algebra": algebra, "filter": filter_entry}]}}


# file contents without their format's shape, the command reading them ("{}"
# is the file's path) and what the one error line must name
MALFORMED = {
    # the algebra refuses a size that is not an int; a float one would get
    # through every reader and fail in the Leibniz check
    "algebra_size_text": (lambda: {**b2_json(), "size": "2"}, ["check", "adjoint", "--algebra", "{}"],
                          "{} does not have its format's shape (ValueError: carrier size is not an integer: '2')"),
    "algebra_size_float": (lambda: {**b2_json(), "size": 2.0}, ["check", "leibniz", "--algebra", "{}", "--filter", "1"],
                           "{} does not have its format's shape (ValueError: carrier size is not an integer: 2.0)"),
    "algebra_tables_list": (lambda: {**b2_json(), "tables": [[1, 0]]}, ["check", "adjoint", "--algebra", "{}"], "{}"),
    "algebra_null_table": (lambda: with_table("neg", None), ["check", "adjoint", "--algebra", "{}"], "{}"),
    "algebra_float_cell": (lambda: with_table("neg", [1.0, 0]), ["check", "adjoint", "--algebra", "{}"], "{}"),
    "algebra_top_level_list": (lambda: [b2_json()], ["check", "adjoint", "--algebra", "{}"], "{}"),
    "pair_delta_number": (lambda: {"delta": [3], "tau": [["imp(x0,x0)", "x0"]]},
                          ["check", "bp", "--logic", "cpc", "--pair", "{}"], "{}"),
    "context_theta_number": (lambda: {"source": "ipc", "target": "cpc", "theta": 5},
                             ["glivenko", "--context", "{}", "--phi", "x0"], "{}"),
    "logic_filter_number": (lambda: matrix_logic(1), ["consequence", "--logic", "{}", "--phi", "x0"], "{}"),
    # a ragged table with B2's number of cells once loaded as B2
    "algebra_ragged_table": (lambda: with_table("imp", [[1, 1, 0], [1]]), ["check", "adjoint", "--algebra", "{}"],
                             "{} does not have its format's shape (ValueError: table for imp"),
    # other values a constructor refuses with a ValueError
    "context_theta_unparsable": (lambda: {"source": "ipc", "target": "cpc", "theta": "neg(x0"},
                                 ["glivenko", "--context", "{}", "--phi", "x0"],
                                 "{} does not have its format's shape (FormulaSyntaxError: "),
    "logic_matrix_without_signature": (lambda: {"engine": matrix_logic([1])["engine"]},
                                       ["consequence", "--logic", "{}", "--phi", "x0"],
                                       "{} does not have its format's shape (ValueError: matrix logic spec needs"),
    "logic_unknown_engine_kind": (lambda: {"engine": {"kind": "modal"}}, ["consequence", "--logic", "{}", "--phi", "x0"],
                                  "{} does not have its format's shape (ValueError: logic spec has no recognizable"),
    # an arity once coerced by int(), and one whose size**arity took seconds
    # to minutes to build, or failed to print
    **{f"signature_arity_{kind}": (lambda arity=arity: with_imp_arity(arity), ["check", "adjoint", "--algebra", "{}"],
                                   f"{{}} does not have its format's shape (ValueError: arity of imp is not an integer: "
                                   f"{arity!r})")
       for kind, arity in (("text", "2"), ("bool", True), ("float", 1.5))},
    "signature_arity_huge": (lambda: with_imp_arity(10**8), ["check", "adjoint", "--algebra", "{}"],
                             "{} does not have its format's shape (ValueError: table for imp has 4 entries, "
                             "expected 2**100000000)"),
    # a text cell, and a file naming itself, once recursed until RecursionError
    "algebra_text_cell": (lambda: with_table("neg", ["1", 0]), ["check", "adjoint", "--algebra", "{}"], "{}"),
    "algebra_file_is_a_path": (lambda: "input.json", ["check", "adjoint", "--algebra", "{}"], "{}"),
    # a true cell and non-integer filter elements, once read as numbers: the
    # adjoint check passed, and imp(x0,x0) was not a consequence
    "algebra_bool_cell": (lambda: h3_with_imp_cell(True), ["check", "adjoint", "--algebra", "{}"],
                          "{} does not have its format's shape (ValueError: table cell of imp is not an integer: True)"),
    **{f"logic_filter_{kind}": (lambda value=value: h3_logic_with_filter([value]),
                                ["consequence", "--logic", "{}", "--phi", "imp(x0,x0)"],
                                f"{{}} does not have its format's shape (ValueError: filter element is not an integer: "
                                f"{value!r})")
       for kind, value in (("bool", True), ("float", 1.5), ("whole_float", 2.0))},
    # a table nested deeper than one level per argument, whatever its cells
    "algebra_table_nested_deep": (lambda: b2_with_nested_neg(50), ["check", "leibniz", "--algebra", "{}"],
                                  "{} does not have its format's shape (ValueError: table for neg is neither flat "
                                  "nor nested one level per argument)"),
    # the other refusals a file can reach, each with its constructor's message
    "algebra_size_zero": (lambda: {**b2_json(), "size": 0}, ["check", "adjoint", "--algebra", "{}"],
                          "{} does not have its format's shape (ValueError: carrier must be nonempty)"),
    "algebra_unknown_connective_table": (lambda: with_table("xor", [[0, 1], [1, 0]]),
                                         ["check", "adjoint", "--algebra", "{}"],
                                         "{} does not have its format's shape (ValueError: tables for unknown "
                                         "connectives: ['xor'])"),
    "signature_arity_negative": (lambda: with_imp_arity(-1), ["check", "adjoint", "--algebra", "{}"],
                                 "{} does not have its format's shape (ValueError: negative arity for imp)"),
    "context_theta_beyond_x0": (lambda: {**bundled("classical_context.json"), "theta": "neg(x1)"},
                                ["glivenko", "--context", "{}", "--phi", "x0"],
                                "{} does not have its format's shape (ValueError: theta must be a formula in at most x0)"),
    "context_h_missing_connective": (lambda: classical_context_with_h(drop=("iff",)),
                                     ["glivenko", "--context", "{}", "--phi", "x0"],
                                     "{} does not have its format's shape (ValueError: no assignment for connective iff)"),
    "context_h_extra_connective": (lambda: classical_context_with_h(xor="x0"),
                                   ["glivenko", "--context", "{}", "--phi", "x0"],
                                   "{} does not have its format's shape (ValueError: assignment for unknown "
                                   "connectives: ['xor'])"),
    "logic_no_matrices": (lambda: {**matrix_logic([1]), "engine": {"kind": "matrix", "matrices": []}},
                          ["consequence", "--logic", "{}", "--phi", "x0"],
                          "{} does not have its format's shape (ValueError: a matrix family must be nonempty)"),
    "logic_builtin_with_nullary": (lambda: {"signature": {"connectives": [*b2_json()["signature"]["connectives"],
                                                                          {"name": "top", "arity": 0}]},
                                            "engine": {"kind": "builtin", "name": "cpc"}},
                                   ["consequence", "--logic", "{}", "--phi", "x0"],
                                   "{} does not have its format's shape (ValueError: built-in engines only support "
                                   "sublanguages of neg/imp/and/or/iff)"),
}


class TestMalformedFiles:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_file_without_its_format_shape_is_a_parse_error(self, case, tmp_path):
        contents, argv, named = MALFORMED[case]
        path = tmp_path / "input.json"
        path.write_text(json.dumps(contents()))
        out = run(*(str(path) if arg == "{}" else arg for arg in argv))
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr.startswith("error:") and len(out.stderr.splitlines()) == 1
        assert named.replace("{}", str(path)) in out.stderr


# a bundled file of each format, with a command reading it through its flag
READERS = {
    "algebra": ("data/B2.json", ["check", "adjoint", "--algebra", "{}"]),
    "pair": ("data/cpc_pair.json", ["check", "bp", "--logic", "cpc", "--pair", "{}"]),
    "logic": ("data/h3_logic.json", ["consequence", "--logic", "{}", "--phi", "x0"]),
    "context": ("data/classical_context.json", ["glivenko", "--context", "{}", "--phi", "x0"]),
}

# text that is no JSON, and JSON nested deeper than the decoder recurses
UNDECODABLE = {
    "truncated": lambda source: Path(source).read_text()[:40],
    "deeply_nested": lambda source: "[" * 100_000 + "]" * 100_000,
}


class TestUndecodableFiles:
    @pytest.mark.parametrize("text", sorted(UNDECODABLE))
    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_undecodable_file_is_an_error_naming_it(self, reader, text, tmp_path):
        source, argv = READERS[reader]
        path = tmp_path / "input.json"
        path.write_text(UNDECODABLE[text](source))
        out = run(*(str(path) if arg == "{}" else arg for arg in argv))
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr.startswith("error:") and len(out.stderr.splitlines()) == 1
        assert str(path) in out.stderr
        assert "Traceback" not in out.stderr


ALGEBRA_READER = ["check", "leibniz", "--algebra"]  # refuses no algebra, as adjoint refuses L3
# each data file and the command line that reads it; a signature file is read
# through an algebra file that names it, and the corpus file by load_corpus
MUTATED_READERS = {
    **{name: [*ALGEBRA_READER, name] for name in ("B2.json", "B4.json", "H3.json", "L3.json", "chain4.json")},
    "sig_builtin.json": [*ALGEBRA_READER, "B2.json"],
    **{name: ["check", "bp", "--logic", "cpc", "--pair", name, "--vars", "1", "--depth", "1"]
       for name in ("cpc_pair.json", "imp_pair.json")},
    **{name: ["consequence", "--logic", name, "--phi", "x0"] for name in ("h3_logic.json", "l3_logic.json")},
    **{name: ["glivenko", "--context", name, "--phi", "x0"]
       for name in ("classical_context.json", "naive_context.json")},
    "classical_corpus.json": None,
}
# the values a swap puts in; the text is no name, path or formula any file uses
SWAPS = ("mutant", None, [], True, 1.5, 10**100)


def mutate(text: str, rng) -> tuple[str, str]:
    """A JSON file's text with one seeded mutation, and what it did: the text
    truncated, a key dropped, or a value swapped or nested 1 or 50 levels
    deeper."""
    kind = rng.choice(("truncate", "drop", "swap", "nest"))
    if kind == "truncate":
        n = rng.randrange(len(text))
        return text[:n], f"truncated to {n} characters"
    holder = [json.loads(text)]
    slots, stack = [(holder, 0)], [holder[0]]  # (container, key) of every value
    while stack:
        node = stack.pop()
        for key in (node if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()):
            slots.append((node, key))
            stack.append(node[key])
    if kind == "drop":
        node, key = rng.choice([(node, key) for node, key in slots if isinstance(node, dict)])
        del node[key]
        return json.dumps(holder[0]), f"dropped {key!r}"
    node, key = rng.choice(slots)
    if kind == "swap":
        node[key] = rng.choice(SWAPS)
        return json.dumps(holder[0]), f"{key!r} swapped for {node[key]!r:.20}"
    levels = rng.choice((1, 50))
    for _ in range(levels):
        node[key] = [node[key]]
    return json.dumps(holder[0]), f"{key!r} nested {levels} levels deeper"


def number_slots(node, field=None):
    """(container, key, field) of every integer in a data file's JSON, with
    the field as a refusal names it: an arity, the carrier size, a table cell
    or a filter element."""
    entries = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in entries:
        if field == "tables":
            here = f"table cell of {key}"
        elif key == "arity":
            here = f"arity of {node['name']}"
        else:
            here = {"size": "carrier size", "tables": "tables", "filter": "filter element"}.get(key, field)
        if type(value) is int:
            yield node, key, here
        else:
            yield from number_slots(value, here)


def read_corpus(path) -> int:
    """load_corpus with the CLI's handling of a refusal: one error line, exit 2."""
    from aalogic.corpus import load_corpus
    from aalogic.syntax import FormulaSyntaxError

    try:
        load_corpus(str(path))
    except (FormulaSyntaxError, ValueError, OSError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def read_through(argv, path) -> tuple[object, str, str]:
    """(exit code, stdout, stderr) of reading a file in this process: ``argv``
    through the CLI, or the corpus by read_corpus when it is None. Any other
    exception, a traceback at the command line, stands in for the code."""
    from aalogic.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = read_corpus(path) if argv is None else main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


class TestMutatedDataFiles:
    def test_every_data_file_has_a_reader(self):
        assert sorted(p.name for p in DATA.glob("*.json")) == sorted(MUTATED_READERS)

    def test_a_mutated_file_passes_fails_or_is_refused_in_one_line_naming_it(self, tmp_path):
        # exit 0 or 1, or exit 2 with one error line naming the mutated file,
        # the file on the command line, or the swapped-in text it could not
        # resolve as a path or bundled name
        texts = {p.name: p.read_text() for p in DATA.glob("*.json")}
        for name, text in texts.items():
            (tmp_path / name).write_text(text)
        rng = random.Random(3501)
        bad = []
        for _ in range(500):
            name = rng.choice(sorted(texts))
            mutated, what = mutate(texts[name], rng)
            path = tmp_path / name
            path.write_text(mutated)
            argv = MUTATED_READERS[name]
            argv = argv and [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
            code, out, err = read_through(argv, path)
            path.write_text(texts[name])
            lines = err.splitlines()
            named = (str(path), *(a for a in argv or () if a.endswith(".json")), "mutant")
            if code in (0, 1):
                continue
            if (code == 2 and out == "" and len(lines) == 1 and lines[0].startswith("error: ")
                    and any(n in lines[0] for n in named)):
                continue
            bad.append(f"{name} {what}: exit {code}: {err!r:.300}")
        assert bad == []

    def test_every_number_that_is_no_int_is_refused_naming_the_file_and_field(self, tmp_path):
        # each integer in turn swapped for a bool or a float, and each filter
        # for one holding True beside an element; every read exits 2 at once
        texts = {p.name: p.read_text() for p in DATA.glob("*.json")}
        for name, text in texts.items():
            (tmp_path / name).write_text(text)
        fields, bad = set(), []
        for name, text in sorted(texts.items()):
            path = tmp_path / name
            argv = MUTATED_READERS[name]
            argv = argv and [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
            for i, (_, _, field) in enumerate(number_slots(json.loads(text))):
                fields.add(field.split(" of ")[0])
                swaps = [(None, value) for value in (True, False, 1.5, 2.0)]
                if field == "filter element":
                    swaps += [(slice(None), [2, True]), (slice(None), [1, True])]
                for key, value in swaps:
                    data = json.loads(text)
                    node, slot, _ = list(number_slots(data))[i]
                    node[slot if key is None else key] = value
                    path.write_text(json.dumps(data))
                    code, out, err = read_through(argv, path)
                    path.write_text(text)
                    refused = True if isinstance(value, list) else value
                    expected = (f"error: {path} does not have its format's shape "
                                f"(ValueError: {field} is not an integer: {refused!r})\n")
                    if (code, out, err) != (2, "", expected):
                        bad.append(f"{name} {field} #{i} swapped for {value!r}: exit {code}: {err!r:.300}")
        assert fields == {"arity", "carrier size", "table cell", "filter element"}
        assert bad == []


class TestFlagsBelongToTheirCommand:
    @pytest.mark.parametrize(
        "args",
        [
            ("check", "adjoint", "--algebra", "data/H3.json", "--seed", "5"),
            ("check", "institution", "--logic", "l3"),
            ("check", "bp", "--algebra", "data/L3.json"),
            ("check", "lindenbaum", "--filter", "1"),
            ("check", "leibniz", "--algebra", "data/B2.json", "--filter", "1", "--depth", "3"),
        ],
    )
    def test_flag_the_kind_does_not_read_is_a_usage_error(self, args):
        out = run(*args)
        assert out.returncode == 2
        assert "unrecognized arguments" in out.stderr

    def test_phi_and_exhaustive_exclude_each_other(self):
        out = run("glivenko", "--phi", "x0", "--exhaustive")
        assert out.returncode == 2
        assert "not allowed with argument" in out.stderr

    def test_gamma_is_not_read_by_the_sweep(self):
        out = run("glivenko", "--exhaustive", "--vars", "1", "--depth", "1", "--gamma", "nonsense((")
        assert out.returncode == 2
        assert out.stdout == ""
        assert "argument --gamma: not allowed with argument --exhaustive" in out.stderr

    @pytest.mark.parametrize("flag, value", [("--vars", "2"), ("--depth", "2"), ("--gamma-size", "2"), ("--seed", "0")])
    def test_sweep_flags_are_not_read_by_the_single_instance(self, flag, value):
        out = run("glivenko", "--phi", "x0", flag, value)
        assert out.returncode == 2
        assert out.stdout == ""
        assert f"argument {flag}: not allowed with argument --phi" in out.stderr

    def test_filter_that_is_not_integers_is_a_usage_error(self):
        out = run("check", "leibniz", "--algebra", "data/B2.json", "--filter", "a")
        assert out.returncode == 2
        assert "argument --filter" in out.stderr and "'a'" in out.stderr
        assert "invalid literal" not in out.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ("check", "bp", "--vars", "0"),
            ("check", "institution", "--gamma-size", "0"),
            ("glivenko", "--exhaustive", "--depth", "0"),
        ],
    )
    def test_bound_below_one_is_a_usage_error(self, args):
        out = run(*args)
        assert out.returncode == 2
        assert ">= 1" in out.stderr


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ("glivenko", "--exhaustive", "--vars", "2", "--depth", "2", "--seed", "42", "--json"),
            ("check", "bp", "--logic", "cpc", "--json"),
            ("check", "bp", "--logic", "cpc", "--pair", "data/imp_pair.json", "--json"),
            ("check", "leibniz", "--algebra", "data/H3.json", "--filter", "2", "--json"),
        ],
    )
    def test_byte_identical_reports(self, args):
        first = run(*args)
        second = run(*args)
        assert first.returncode == second.returncode
        assert first.stdout == second.stdout

    @pytest.mark.parametrize(
        "args",
        [
            ("check", "bp", "--logic", "cpc", "--pair", "data/cpc_pair.json", "--json"),
            ("check", "bp", "--logic", "l3", "--pair", "data/cpc_pair.json", "--json"),
            ("check", "institution", "--seed", "0"),
            ("check", "leibniz", "--algebra", "data/B2.json", "--filter", "1"),
            ("check", "adjoint", "--algebra", "data/H3.json"),
        ],
    )
    def test_reports_do_not_depend_on_the_hash_seed(self, args):
        outputs = [
            subprocess.run(CLI + list(args), capture_output=True, text=True,
                           env=dict(os.environ, PYTHONHASHSEED=seed))
            for seed in ("0", "1")
        ]
        assert outputs[0].returncode == outputs[1].returncode == 0
        assert outputs[0].stdout == outputs[1].stdout

    def test_seed_is_echoed(self):
        out = run("glivenko", "--exhaustive", "--vars", "2", "--depth", "2", "--seed", "42", "--json")
        assert json.loads(out.stdout)["bounds"]["seed"] == 42
