"""Golden CLI reports: each case runs ``aalogic.cli.main`` in-process and
compares stdout, stderr and the exit code byte for byte with
``tests/golden/<case>.txt``.

To regenerate the goldens from the current code (only when a report is meant
to change), run from the repository root:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from aalogic.cli import main

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
    "leibniz_b2": ["check", "leibniz", "--algebra", "data/B2.json", "--filter", "1"],
    "institution_seed0": ["check", "institution", "--seed", "0"],
    # JSON variants
    "consequence_ipc_gamma_json": ["consequence", "--logic", "ipc", "--gamma", "x0;imp(x0,x1)", "--phi", "x1", "--json"],
    "glivenko_peirce_json": ["glivenko", "--phi", PEIRCE, "--json"],
    "bp_ipc_json": ["check", "bp", "--logic", "ipc", "--json"],
    "adjoint_b4_json": ["check", "adjoint", "--algebra", "data/B4.json", "--json"],
    "leibniz_chain4_json": ["check", "leibniz", "--algebra", "data/chain4.json", "--filter", "2,3", "--json"],
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
    # exit-2 paths
    "error_unknown_logic": ["consequence", "--logic", "nosuch", "--phi", "x0"],
    "error_unknown_context": ["glivenko", "--context", "nosuch", "--phi", "x0"],
    "error_missing_pair": ["check", "bp", "--logic", "cpc", "--pair", "data/nosuch_pair.json"],
    "error_signature_as_logic": ["consequence", "--logic", "data/sig_builtin.json", "--phi", "x0"],
    "error_missing_algebra": ["check", "adjoint", "--algebra", "data/nosuch.json"],
    "error_parse": ["consequence", "--logic", "cpc", "--phi", "or(x0,"],
    "error_glivenko_needs_phi": ["glivenko"],
    "error_adjoint_needs_algebra": ["check", "adjoint"],
}


def run_case(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
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


def test_every_golden_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(CASES)


if __name__ == "__main__":
    os.chdir(ROOT)
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.txt").write_text(run_case(argv))
    sys.exit(0)
