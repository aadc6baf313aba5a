"""No module of the package imports a name it does not use, or a
module outside the standard library.

A deletion can leave an import behind.  Each module under `src/pemb` is
read with `ast`, and every name that an import binds must be read by
some expression of the module; a name listed in the module's `__all__`
is exported, and counts as used.  The package declares no dependencies,
so every absolute import must name a module of `sys.stdlib_module_names`.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pemb"


def unused_imports(tree):
    """(line, name) of every imported name that `tree` never reads and
    does not list in `__all__`, in line order."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\n"
                     "from .x import a, b as c, d\n"
                     "__all__ = ['d']\n"
                     "c(1)\n")
    assert unused_imports(tree) == [(2, "os"), (3, "a")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def outside_stdlib(tree):
    """(line, top-level name) of every absolute import in `tree` of a
    module outside the standard library, in line order."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, n.split(".")[0]) for n in names
                  if n.split(".")[0] not in sys.stdlib_module_names]
    return sorted(found)


def test_imports_outside_the_standard_library_are_found():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path, yaml\n"
                     "from numpy.linalg import solve\n"
                     "from . import linalg\n"
                     "from .fields import QQ\n")
    assert outside_stdlib(tree) == [(2, "yaml"), (3, "numpy")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_the_package_imports_only_the_standard_library(path):
    assert outside_stdlib(ast.parse(path.read_text())) == []
