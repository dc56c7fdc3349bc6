"""Every name a package module imports is used in that module, so a removal
leaves no import behind. The package's ``__init__`` re-exports what it
imports, and ``from __future__`` imports are directives, not names. Every
module the package imports from outside itself is in the standard library.
Importing the command line loads none of the slow standard modules that
``dataclasses`` brings in."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import aalogic

INIT = Path(aalogic.__file__)
MODULES = sorted(p for p in INIT.parent.glob("*.py") if p != INIT)


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with the line that binds it."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def absolute_imports(tree: ast.Module) -> dict[str, int]:
    """The top-level package of each absolute import, with its line."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out[node.module.partition(".")[0]] = node.lineno
    return out


def used_names(tree: ast.Module) -> set[str]:
    """Every name read anywhere in the module, annotations included (the
    modules use ``from __future__ import annotations``, so none is quoted)."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert unused == {}, f"{path.name}: imported but unused (name: line)"


def test_the_check_sees_an_unused_import():
    tree = ast.parse("from .algebra import FiniteAlgebra, _remember\nx: FiniteAlgebra\n")
    assert {name for name in imported_names(tree) if name not in used_names(tree)} == {"_remember"}


@pytest.mark.parametrize("path", [*MODULES, INIT], ids=lambda p: p.name)
def test_every_absolute_import_is_in_the_standard_library(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    outside = {name: line for name, line in absolute_imports(tree).items() if name not in sys.stdlib_module_names}
    assert outside == {}, f"{path.name}: imports from outside the standard library (module: line)"


def test_the_check_sees_a_third_party_import():
    tree = ast.parse("import os.path\nfrom numpy import array\nfrom .syntax import Var\n")
    assert absolute_imports(tree) == {"os": 1, "numpy": 2}


# each is imported by dataclasses (inspect, and through it ast, dis and
# tokenize) and would add its own import time to every command
SLOW_MODULES = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
LOADED_PROBE = """
import sys
before = set(sys.modules)
import {module}
print(*sorted(set(sys.modules) - before))
"""


def loaded_by(module: str) -> set[str]:
    """The modules that importing ``module`` adds to a fresh interpreter's
    ``sys.modules``. The interpreter skips the ``site`` module (``-S``), so
    what a site customisation imports at start-up is neither counted nor
    hidden."""
    path = [str(INIT.parent.parent), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run([sys.executable, "-S", "-c", LOADED_PROBE.format(module=module)], env=env,
                         capture_output=True, text=True, check=True).stdout
    return set(out.split())


def test_the_command_line_loads_no_slow_module():
    loaded = loaded_by("aalogic.cli")
    assert "aalogic.cli" in loaded
    assert loaded & SLOW_MODULES == set()


def test_the_check_sees_a_slow_module():
    assert loaded_by("dataclasses") >= SLOW_MODULES
