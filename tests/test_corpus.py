"""The one resolver: bundled logic and context names, and every file format,
read through ``aalogic.corpus``."""

import json
import shutil
from pathlib import Path

import pytest

from aalogic import BUILTIN_SIGNATURE, glivenko_equivalence, institution_report
from aalogic import corpus
from aalogic.corpus import (
    CONTEXTS,
    LOGICS,
    load_algebra,
    load_corpus,
    load_pair,
    resolve_context,
    resolve_logic,
)

DATA = Path(__file__).resolve().parent.parent / "data"


def context_key(ctx):
    return (ctx.source, ctx.target, ctx.h, ctx.theta, ctx.source_pair, ctx.target_pair, ctx.name)


def write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


class TestNames:
    def test_logic_names_build_what_their_builders_build(self):
        expected = {"cpc": corpus.cpc_logic(), "ipc": corpus.ipc_logic(), "l3": corpus.l3_logic()}
        assert set(LOGICS) == set(expected)
        for name, logic in expected.items():
            resolved = resolve_logic(name)
            assert resolved == logic and resolved.name == logic.name == name

    def test_context_names_build_what_their_builders_build(self):
        expected = {
            "classical": corpus.classical_context(),
            "identity": corpus.identity_context(),
            "identity-ipc": corpus.identity_context(),
            "identity-cpc": corpus.identity_context(corpus.cpc_logic()),
        }
        assert set(CONTEXTS) == set(expected)
        for name, ctx in expected.items():
            assert context_key(resolve_context(name)) == context_key(ctx)

    def test_names_win_over_the_base_directory(self):
        assert resolve_logic("l3", str(DATA)) == corpus.l3_logic()

    def test_unknown_name_is_read_as_a_path(self):
        with pytest.raises(FileNotFoundError):
            resolve_logic("nosuch")
        with pytest.raises(FileNotFoundError):
            resolve_context("nosuch")

    def test_unknown_name_lists_the_bundled_names(self, tmp_path):
        with pytest.raises(FileNotFoundError, match=r"^unknown logic 'nosuch': not a bundled name \(cpc, ipc, l3\)"):
            resolve_logic("nosuch")
        with pytest.raises(FileNotFoundError, match=r"^unknown context 'nosuch': not a bundled name "
                                                    r"\(classical, identity, identity-ipc, identity-cpc\)"):
            resolve_context("nosuch")
        # a name inside a file is reported as written there
        path = write(tmp_path / "ctx.json", {"source": "ipc", "target": "l4", "theta": "x0"})
        with pytest.raises(FileNotFoundError, match=r"^unknown logic 'l4'"):
            resolve_context(path)


class TestContextFiles:
    def test_l3_context_file(self, tmp_path, F):
        path = write(tmp_path / "l3_negneg.json",
                     {"source": "l3", "target": "l3", "h": "identity", "theta": "neg(neg(x0))"})
        ctx = resolve_context(path)
        assert ctx.source == ctx.target == corpus.l3_logic()
        assert ctx.name == "l3_negneg" and ctx.source_pair is None and ctx.target_pair is None
        # negation is an involution in L3, so the translation changes nothing
        assert glivenko_equivalence(ctx, (), F("or(x0,neg(x0))")) == (False, False)
        assert glivenko_equivalence(ctx, (F("x0"),), F("neg(neg(x0))")) == (True, True)

    def test_paths_are_relative_to_the_file_that_names_them(self, tmp_path, F):
        # context -> logic spec -> algebra -> signature, each one directory down
        (tmp_path / "logics" / "algebras").mkdir(parents=True)
        shutil.copy(DATA / "sig_builtin.json", tmp_path / "logics" / "algebras")
        shutil.copy(DATA / "H3.json", tmp_path / "logics" / "algebras")
        spec = json.loads((DATA / "h3_logic.json").read_text())
        spec["signature"] = "algebras/sig_builtin.json"
        spec["engine"]["matrices"][0]["algebra"] = "algebras/H3.json"
        write(tmp_path / "logics" / "h3.json", spec)
        path = write(tmp_path / "h3_id.json", {"source": "logics/h3.json", "target": "logics/h3.json",
                                                "theta": "x0"})
        ctx = resolve_context(path)
        assert ctx.source == ctx.target == resolve_logic(str(DATA / "h3_logic.json"))
        assert glivenko_equivalence(ctx, (), F("imp(x0,x0)")) == (True, True)

    def test_bundled_context_file(self, F):
        ctx = resolve_context(str(DATA / "classical_context.json"))
        assert context_key(ctx) == context_key(corpus.classical_context())[:-1] + ("classical_context",)

    def test_explicit_morphism(self, tmp_path, F):
        h = {"neg": "neg(x0)", "imp": "imp(x0,x1)", "and": "and(x1,x0)", "or": "or(x0,x1)", "iff": "iff(x0,x1)"}
        path = write(tmp_path / "swap.json", {"source": "cpc", "target": "cpc", "theta": "x0", "h": h})
        ctx = resolve_context(path)
        assert ctx.h.assignment["and"] == F("and(x1,x0)")
        assert ctx.source_pair == ctx.target_pair == corpus.classical_pair()


class TestCorpusFiles:
    def test_corpus_listing_l3(self, tmp_path):
        path = write(tmp_path / "l3_corpus.json", {
            "logics": {"l3": "l3", "cpc": "cpc"},
            "pairs": {"cpc": {"delta": ["iff(x0,x1)"], "tau": [["imp(x0,x0)", "x0"]]}},
            "morphisms": [{"name": "id-l3", "source": "l3", "target": "l3", "h": "identity"}],
            "matrices": {"l3": [{"algebra": str(DATA / "L3.json"), "filter": [2]}]},
            "algebras": {"cpc": [str(DATA / "B2.json")]},
            "contexts": [{"name": "l3-id", "source": "l3", "target": "l3", "theta": "x0"}],
        })
        c = load_corpus(path)
        assert c.logics == {"l3": corpus.l3_logic(), "cpc": corpus.cpc_logic()}
        assert c.matrices["l3"][0].algebra == corpus.lukasiewicz3()
        assert c.algebras["cpc"] == [corpus.b2()]
        assert [name for name, _ in c.contexts] == ["l3-id"]
        assert c.contexts[0][1].source_pair is None
        assert institution_report("If", c, samples=40, seed=1).passed


class TestLogicFiles:
    def test_builtin_engines(self, tmp_path, sig2):
        for name, build in (("cpc", corpus.cpc_logic), ("ipc", corpus.ipc_logic)):
            path = write(tmp_path / f"{name}.json", {"engine": {"kind": "builtin", "name": name}})
            assert resolve_logic(path) == build()
            path = write(tmp_path / f"{name}2.json",
                         {"signature": sig2.to_json(), "engine": {"kind": "builtin", "name": name}})
            logic = resolve_logic(path)
            assert logic.kind == logic.name == name and logic.signature == sig2

    def test_unknown_builtin_engine(self, tmp_path):
        path = write(tmp_path / "bogus.json", {"engine": {"kind": "builtin", "name": "l3"}})
        with pytest.raises(ValueError, match="unknown engine kind: l3"):
            resolve_logic(path)

    def test_inline_algebra_with_a_signature_path(self, tmp_path):
        alg = json.loads((DATA / "H3.json").read_text())
        alg["signature"] = str(DATA / "sig_builtin.json")
        path = write(tmp_path / "inline.json", {
            "signature": BUILTIN_SIGNATURE.to_json(),
            "engine": {"kind": "matrix", "matrices": [{"algebra": alg, "filter": [2]}]},
            "implication": "imp",
        })
        assert resolve_logic(path) == resolve_logic(str(DATA / "h3_logic.json"))

    def test_a_refusal_names_the_file_at_fault_once(self, tmp_path):
        # a text carrier size in an algebra file that a logic file names
        bad = write(tmp_path / "bad.json", {**corpus.b2().to_json(), "size": "2"})
        path = write(tmp_path / "logic.json", {
            "signature": BUILTIN_SIGNATURE.to_json(),
            "engine": {"kind": "matrix", "matrices": [{"algebra": "bad.json", "filter": [1]}]},
        })
        with pytest.raises(ValueError) as err:
            resolve_logic(path)
        assert str(err.value) == (
            f"{bad} does not have its format's shape (ValueError: carrier size is not an integer: '2')")


# every bundled data file, by the reader of its format
BUNDLED_FILES = {
    "B2.json": (load_algebra, corpus.b2),
    "B4.json": (load_algebra, corpus.b4),
    "H3.json": (load_algebra, corpus.h3),
    "L3.json": (load_algebra, corpus.lukasiewicz3),
    "chain4.json": (load_algebra, lambda: corpus.heyting_chain(4)),
    "cpc_pair.json": (lambda p: load_pair(p, BUILTIN_SIGNATURE), corpus.classical_pair),
    "imp_pair.json": (lambda p: load_pair(p, BUILTIN_SIGNATURE), corpus.perturbed_pair),
    "l3_logic.json": (resolve_logic, None),
    "h3_logic.json": (resolve_logic, None),
    "classical_context.json": (resolve_context, None),
    "naive_context.json": (resolve_context, None),
    "classical_corpus.json": (load_corpus, None),
    "sig_builtin.json": (lambda p: corpus._signature_of(p, ""), lambda: BUILTIN_SIGNATURE),
}


def test_every_data_file_is_listed():
    assert sorted(p.name for p in DATA.glob("*.json")) == sorted(BUNDLED_FILES)


@pytest.mark.parametrize("name", sorted(BUNDLED_FILES))
def test_bundled_file_loads(name):
    load, build = BUNDLED_FILES[name]
    loaded = load(str(DATA / name))
    if build is not None:
        assert loaded == build()


def test_matrix_logic_files_match_the_bundled_algebras():
    assert resolve_logic(str(DATA / "l3_logic.json")).matrices == corpus.l3_logic().matrices
    assert resolve_logic(str(DATA / "h3_logic.json")).matrices[0].algebra == corpus.h3()
