"""The contract of the package's records, plain ``__slots__`` classes with
an explicit ``__init__``: each builds from positional or keyword arguments,
in the order and with the defaults below, and a default ``{}`` or ``[]`` is
fresh for each instance. The frozen records refuse assignment, compare and
hash by value (``KripkeModel`` holds a dict and is unhashable), and
round-trip ``pickle`` and ``copy.deepcopy``."""

import copy
import pickle

import pytest

from aalogic import corpus
from aalogic.algebraization import BPReport, ConditionResult, LindReport
from aalogic.glivenko import AdjointData, AdjointReport, ContextReport, SweepReport
from aalogic.institutions import Corpus, InstitutionReport
from aalogic.provers import Equation, KripkeModel
from aalogic.semantics import BUILTIN_SIGNATURE, LogicMorphism, LogicSpec, Matrix
from aalogic.syntax import App, FlexibleMorphism, Signature, Var

X0, X1 = Var(0), Var(1)
NEG_X1 = App("neg", (X1,))
BOUNDS = {"vars": 2, "depth": 1}


def b2():
    return corpus.b2()


def cpc_identity():
    cpc = corpus.cpc_logic()
    return cpc, cpc, FlexibleMorphism.identity(BUILTIN_SIGNATURE)


# record -> its fields in order, each with a value and, if it has one, a default
RECORDS = {
    ConditionResult: [("passed", False), ("instances", 3), ("witness", "x0", None)],
    BPReport: [("logic", "ipc"), ("bounds", BOUNDS), ("universe_size", 9), ("class_count", 4),
               ("conditions", {"a": ConditionResult(True, 9)}, {})],
    LindReport: [("logic", "cpc"), ("bounds", BOUNDS), ("passed", True), ("instances", 12),
                 ("witness", "x1", None)],
    ContextReport: [("context", "classical"), ("bounds", BOUNDS), ("section_equation", True),
                    ("pair_preserved", None), ("consequence_preserved", False), ("witness", "w", None)],
    AdjointReport: [("algebra_size", 3), ("regular_elements", 2), ("quotient_size", 2), ("isomorphic", True),
                    ("section_ok", True), ("hom_counts", [{"boolean": "B2", "equal": True}])],
    SweepReport: [("context", "classical"), ("bounds", BOUNDS), ("universe_size", 6),
                  ("exhaustive_checked", 6), ("sampled_checked", 4), ("disagreements", [{"phi": "x0"}])],
    InstitutionReport: [("kind", "If"), ("samples", 5), ("checked", 5), ("violations", []),
                        ("config", {"seed": 0})],
    Corpus: [("logics", {"cpc": corpus.cpc_logic()}, {}), ("pairs", {"cpc": corpus.classical_pair()}, {}),
             ("morphisms", [("id", LogicMorphism(*cpc_identity()))], []),
             ("matrices", {"cpc": [Matrix(b2(), frozenset({1}))]}, {}),
             ("reduced_matrices", {"cpc": [Matrix(b2(), frozenset({1}))]}, {}),
             ("algebras", {"ipc": [corpus.h3()]}, {}), ("contexts", [("classical", corpus.classical_context())], []),
             ("overrides", {("If", "id", 0): Matrix(b2(), frozenset({1}))}, {})],
    Equation: [("lhs", X0), ("rhs", NEG_X1)],
    KripkeModel: [("worlds", 2), ("up", (3, 2)), ("valuation", {0: 2}), ("world", 0)],
    AdjointData: [("algebra", b2()), ("unit", (0, 1)), ("section", (0, 1))],
    Matrix: [("algebra", b2()), ("filter", frozenset({1}))],
    LogicMorphism: list(zip(("source", "target", "morphism"), cpc_identity())),
}
# frozen record -> a field and a value other than its value in RECORDS
FROZEN = {
    Equation: ("lhs", X1),
    KripkeModel: ("world", 1),
    AdjointData: ("section", (1, 0)),
    Matrix: ("filter", frozenset({0, 1})),
    LogicMorphism: ("source", corpus.ipc_logic()),
}


def name_of(cls) -> str:
    return cls.__name__


def build(cls):
    return cls(*(field[1] for field in RECORDS[cls]))


def fields(record) -> dict:
    return {field[0]: getattr(record, field[0]) for field in RECORDS[type(record)]}


@pytest.mark.parametrize("cls", RECORDS, ids=name_of)
class TestConstruction:
    def test_positional_and_keyword(self, cls):
        given = {field[0]: field[1] for field in RECORDS[cls]}
        for record in (build(cls), cls(**given)):
            assert fields(record) == given
            assert all(getattr(record, name) is value for name, value in given.items() if name != "filter")

    def test_defaults(self, cls):
        required = [field[1] for field in RECORDS[cls] if len(field) == 2]
        defaults = {field[0]: field[2] for field in RECORDS[cls] if len(field) == 3}
        record = cls(*required)
        assert {name: getattr(record, name) for name in defaults} == defaults
        # a default {} or [] is fresh for each instance
        other = cls(*required)
        assert not any(getattr(record, name) is getattr(other, name) for name, value in defaults.items()
                       if value is not None)

    def test_slots_only(self, cls):
        assert not hasattr(build(cls), "__dict__")


@pytest.mark.parametrize("cls", [cls for cls in RECORDS if cls not in FROZEN], ids=name_of)
def test_reports_accept_assignment(cls):
    record = build(cls)
    name = RECORDS[cls][0][0]
    setattr(record, name, "changed")
    assert getattr(record, name) == "changed"


@pytest.mark.parametrize("cls", FROZEN, ids=name_of)
class TestFrozen:
    def test_assignment_refused(self, cls):
        record = build(cls)
        for name, value, *_ in RECORDS[cls]:
            with pytest.raises(AttributeError):
                setattr(record, name, value)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert fields(record) == {field[0]: field[1] for field in RECORDS[cls]}

    def test_compare_by_value(self, cls):
        record, twin = build(cls), build(cls)
        assert record is not twin and record == twin and not record != twin
        assert record != tuple(fields(record).values())
        name, other = FROZEN[cls]
        assert record != cls(**{**fields(record), name: other})

    def test_hash_by_value(self, cls):
        record, twin = build(cls), build(cls)
        if cls is KripkeModel:
            with pytest.raises(TypeError, match="unhashable"):
                hash(record)
        else:
            assert hash(record) == hash(twin)
            assert len({record, twin}) == 1

    def test_pickle_and_deepcopy(self, cls):
        record = build(cls)
        copies = [pickle.loads(pickle.dumps(record, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for other in copies + [copy.deepcopy(record), copy.copy(record)]:
            assert type(other) is cls and other == record
            with pytest.raises(AttributeError):
                setattr(other, RECORDS[cls][0][0], RECORDS[cls][0][1])


class TestFrozenChecks:
    def test_matrix_filter_goes_through_carrier_subset(self):
        assert Matrix(b2(), [1, 1]).filter == frozenset({1})
        assert type(Matrix(b2(), [1]).filter) is frozenset
        with pytest.raises(ValueError, match="filter element out of range"):
            Matrix(b2(), {2})
        with pytest.raises(ValueError, match="filter element is not an integer: True"):
            Matrix(b2(), [True])

    def test_logic_morphism_refuses_mismatched_signatures(self):
        cpc, _, identity = cpc_identity()
        narrow = LogicSpec.cpc(Signature([("neg", 1), ("imp", 2)]))
        for args in ((narrow, cpc, identity), (cpc, narrow, identity)):
            with pytest.raises(ValueError, match="morphism signatures do not match the logics"):
                LogicMorphism(*args)

    def test_reprs(self):
        assert repr(Equation(X0, NEG_X1)) == "x0 == neg(x1)"
        assert repr(Matrix(b2(), {1, 0})) == "Matrix(size=2, filter=[0, 1])"
        assert repr(build(KripkeModel)) == "KripkeModel(worlds=2, up=(3, 2), valuation={0: 2}, world=0)"
