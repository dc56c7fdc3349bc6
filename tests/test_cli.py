import json
import os
import subprocess
import sys
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


def b2_json():
    from aalogic import corpus

    return corpus.b2().to_json()


def with_table(name, table):
    data = b2_json()
    data["tables"][name] = table
    return data


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
                          "{} does not have its format's shape (ValueError: carrier size must be an integer, got '2')"),
    "algebra_size_float": (lambda: {**b2_json(), "size": 2.0}, ["check", "leibniz", "--algebra", "{}", "--filter", "1"],
                           "{} does not have its format's shape (ValueError: carrier size must be an integer"),
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
    # a text cell, and a file naming itself, once recursed until RecursionError
    "algebra_text_cell": (lambda: with_table("neg", ["1", 0]), ["check", "adjoint", "--algebra", "{}"], "{}"),
    "algebra_file_is_a_path": (lambda: "input.json", ["check", "adjoint", "--algebra", "{}"], "{}"),
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
