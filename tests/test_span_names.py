"""Every function the benchmark traces (``LAYERS`` in ``perfbench/spans.py``)
is an attribute of its aalogic module, or of the class for a dotted name, so
renaming or removing a traced function fails here and not only in the
benchmark's self-test. The benchmark file is parsed, not imported."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def traced_layers() -> dict[str, tuple[str, ...]]:
    """The literal value of ``LAYERS``: module name -> traced names."""
    tree = ast.parse(SPANS.read_text(), filename=str(SPANS))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} assigns no LAYERS")


def unresolved(layers: dict[str, tuple[str, ...]]) -> list[str]:
    """The names that are no callable attribute of ``aalogic.<layer>``, or
    of the named class there."""
    out = []
    for layer, names in layers.items():
        module = importlib.import_module(f"aalogic.{layer}")
        for name in names:
            owner, _, attr = name.rpartition(".")
            target = getattr(module, owner, None) if owner else module
            if not callable(getattr(target, attr, None)):
                out.append(f"{layer}.{name}")
    return out


def test_every_traced_name_resolves():
    layers = traced_layers()
    assert layers and all(layers.values())
    assert unresolved(layers) == []


def test_the_check_sees_a_missing_name():
    assert unresolved({"institutions": ("institution_report", "no_such_function"),
                       "glivenko": ("GlivenkoContext.adjoint", "GlivenkoContext.reduct")}) == [
        "institutions.no_such_function", "glivenko.GlivenkoContext.reduct"]
