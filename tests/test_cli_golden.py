"""Golden CLI reports: each case runs ``aalogic.cli.main`` in-process and
compares stdout, stderr and the exit code byte for byte with
``tests/golden/<case>.txt``.

To regenerate goldens from the current code (only when a report is meant to
change), run from the repository root, naming the cases to rewrite, or none
to rewrite them all:

    PYTHONPATH=src python tests/test_cli_golden.py [CASE ...]
"""

import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from test_algebraization import CPC_AXIOMS_SHA256

from aalogic.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

PEIRCE = "imp(imp(imp(x0,x1),x0),x0)"

CASES = {
    # README's CLI section
    "consequence_cpc_lem": ["consequence", "--logic", "cpc", "--phi", "or(x0,neg(x0))"],
    "consequence_ipc_lem": ["consequence", "--logic", "ipc", "--phi", "or(x0,neg(x0))"],
    "consequence_ipc_gamma": ["consequence", "--logic", "ipc", "--gamma", "x0;imp(x0,x1)", "--phi", "x1"],
    "glivenko_peirce": ["glivenko", "--phi", PEIRCE],
    "glivenko_sweep": ["glivenko", "--exhaustive", "--vars", "2", "--depth", "3", "--seed", "0"],
    "bp_cpc_pair": ["check", "bp", "--logic", "cpc", "--pair", "data/cpc_pair.json"],
    "bp_cpc_imp_pair": ["check", "bp", "--logic", "cpc", "--pair", "data/imp_pair.json"],
    "bp_l3_pair": ["check", "bp", "--logic", "l3", "--pair", "data/cpc_pair.json"],
    "lindenbaum_ipc": ["check", "lindenbaum", "--logic", "ipc"],
    "adjoint_h3": ["check", "adjoint", "--algebra", "data/H3.json"],
    "adjoint_chain4": ["check", "adjoint", "--algebra", "data/chain4.json"],
    "leibniz_b2": ["check", "leibniz", "--algebra", "data/B2.json", "--filter", "1"],
    "institution_seed0": ["check", "institution", "--seed", "0"],
    # JSON variants
    "consequence_ipc_gamma_json": ["consequence", "--logic", "ipc", "--gamma", "x0;imp(x0,x1)", "--phi", "x1", "--json"],
    "glivenko_peirce_json": ["glivenko", "--phi", PEIRCE, "--json"],
    "bp_ipc_json": ["check", "bp", "--logic", "ipc", "--json"],
    "adjoint_b4_json": ["check", "adjoint", "--algebra", "data/B4.json", "--json"],
    "leibniz_chain4_json": ["check", "leibniz", "--algebra", "data/chain4.json", "--filter", "2,3", "--json"],
    "lindenbaum_ipc_json": ["check", "lindenbaum", "--logic", "ipc", "--json"],
    "institution_seed0_json": ["check", "institution", "--seed", "0", "--json"],
    # logics by name and by file
    "consequence_l3_lem": ["consequence", "--logic", "l3", "--phi", "or(x0,neg(x0))", "--json"],
    "lindenbaum_l3": ["check", "lindenbaum", "--logic", "l3"],
    "consequence_h3_file": ["consequence", "--logic", "data/h3_logic.json", "--phi", "or(x0,neg(x0))", "--json"],
    "bp_h3_file": ["check", "bp", "--logic", "data/h3_logic.json", "--pair", "data/cpc_pair.json"],
    "consequence_l3_file": ["consequence", "--logic", "data/l3_logic.json", "--phi", "imp(x0,imp(x1,x0))"],
    # contexts by name and by file
    "glivenko_context_file": ["glivenko", "--context", "data/classical_context.json", "--phi", PEIRCE, "--json"],
    "glivenko_classical": ["glivenko", "--context", "classical", "--phi", "neg(neg(x0))"],
    "glivenko_identity_cpc": ["glivenko", "--context", "identity-cpc", "--phi", PEIRCE, "--json"],
    "glivenko_identity": ["glivenko", "--context", "identity", "--phi", PEIRCE, "--json"],
    "glivenko_identity_ipc_sweep": ["glivenko", "--context", "identity-ipc", "--exhaustive", "--vars", "1", "--depth", "2"],
    "glivenko_naive_sweep": ["glivenko", "--context", "data/naive_context.json", "--exhaustive", "--vars", "2", "--depth", "3"],
    # exit-2 paths
    "error_unknown_logic": ["consequence", "--logic", "nosuch", "--phi", "x0"],
    "error_unknown_context": ["glivenko", "--context", "nosuch", "--phi", "x0"],
    "error_missing_pair": ["check", "bp", "--logic", "cpc", "--pair", "data/nosuch_pair.json"],
    "error_signature_as_logic": ["consequence", "--logic", "data/sig_builtin.json", "--phi", "x0"],
    "error_missing_algebra": ["check", "adjoint", "--algebra", "data/nosuch.json"],
    "error_parse": ["consequence", "--logic", "cpc", "--phi", "or(x0,"],
    "error_glivenko_needs_phi": ["glivenko"],
    "error_adjoint_needs_algebra": ["check", "adjoint"],
    "error_adjoint_not_heyting": ["check", "adjoint", "--algebra", "data/L3.json"],
}


def run_case(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps usage lines to COLUMNS, and Python 3.13 wraps them otherwise than
    # earlier versions; pin it wide enough that no usage line wraps on any interpreter
    with mock.patch.dict(os.environ, COLUMNS="200"), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return f"exit: {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_report_matches_golden(case, monkeypatch):
    monkeypatch.chdir(ROOT)
    expected = (GOLDEN / f"{case}.txt").read_text()
    assert run_case(CASES[case]) == expected


# Formulas hash by identity, so a set of them iterates in an order that
# follows node addresses. The probe first shuffles the free memory blocks of a node's size and
# builds seeded random formulas among them, so every node built afterwards
# sits at another address, in another relative order, than in a plain run.
ADDRESS_PROBE = """
import hashlib, json, random, sys
sys.path.insert(0, sys.argv[1])
from aalogic import BUILTIN_SIGNATURE, corpus, qv_axioms
from aalogic.syntax import random_formula
from test_algebraization import axiom_lines
from test_cli_golden import CASES, run_case
rng = random.Random(int(sys.argv[2]))
blocks = [(i, i, i, i, i) for i in range(20000)]
rng.shuffle(blocks)
del blocks[::2]
formulas = [random_formula(rng, BUILTIN_SIGNATURE, 6, 6) for _ in range(4000)]
reports = {case: run_case(CASES[case]) for case in sys.argv[3:]}
axioms = qv_axioms(corpus.cpc_logic(), corpus.classical_pair(), 3, 2)
reports["digest"] = hashlib.sha256("\\n".join(axiom_lines(axioms)).encode()).hexdigest()
print(json.dumps(reports))
"""


@pytest.mark.parametrize("seed", [1, 2])
def test_reports_do_not_depend_on_node_addresses(seed):
    cases = ["institution_seed0", "bp_ipc_json", "glivenko_sweep"]
    out = subprocess.run(
        [sys.executable, "-c", ADDRESS_PROBE, str(GOLDEN.parent), str(seed)] + cases,
        capture_output=True, text=True, check=True, cwd=ROOT,
    )
    reports = json.loads(out.stdout)
    for case in cases:
        assert reports[case] == (GOLDEN / f"{case}.txt").read_text(), case
    assert reports["digest"] == CPC_AXIOMS_SHA256


def test_every_golden_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(CASES)


def readme_commands():
    """The argv of every ``aalogic ...`` line in README's CLI code block."""
    section = (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("aalogic ")]


def test_readme_commands_parse_and_have_goldens():
    commands = readme_commands()
    assert commands
    for argv in commands:
        build_parser().parse_args(argv)
        assert argv in CASES.values(), argv


if __name__ == "__main__":
    names = sys.argv[1:] or list(CASES)
    unknown = [name for name in names if name not in CASES]
    if unknown:
        sys.exit(f"unknown case(s): {', '.join(unknown)}")
    os.chdir(ROOT)
    GOLDEN.mkdir(exist_ok=True)
    for name in names:
        (GOLDEN / f"{name}.txt").write_text(run_case(CASES[name]))
