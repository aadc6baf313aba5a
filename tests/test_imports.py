"""No module of the package imports a name it does not use, or a
module outside the standard library, and the package defines nothing
that only the tests read.

A deletion can leave an import behind.  Each module under `src/pemb` is
read with `ast`, and every name that an import binds must be read by
some expression of the module; a name listed in the module's `__all__`
is exported, and counts as used.  The package declares no dependencies,
so every absolute import must name a module of `sys.stdlib_module_names`.

What only the tests read lives under `tests/`.  Every function, class
and method defined under `src/pemb` must be named by some module under
`src/pemb` or `bench/`, but for the few in `READ_BY_TESTS_ONLY`, each
with its reason.

`pemb.tables` is the one module that indexes, contracts and transposes
the sparse tables, so that a change to how tables are stored is made in
one file: it imports no module of the package but `pemb.linalg`, and no
other module defines a function under one of its names.

A run that names no shipped example does not import `importlib.resources`:
under `python3 -S -X importtime` it costs about 15 ms, and only
`cli.example_path` reads it.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pemb"
BENCH = Path(__file__).resolve().parents[1] / "bench"


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


# definition -> why the package keeps it though only the tests read it
READ_BY_TESTS_ONLY = {
    "verify_scalar_uniqueness": "the paper's uniqueness claim for the top-degree "
                                "map, which the reports are to print (ROADMAP item 7)",
    "dual_morphism_top_degree": "the top-degree map of the dual morphism, the other "
                                "half of that claim (ROADMAP item 7)",
}


def names_read(tree):
    """Every name that `tree` reads: a name, an attribute, an imported
    name, and each part of the dotted attribute strings that a top-level
    `SPANS` or `COUNTERS` lists as the second entry of its tuples (the
    benchmark's tracer patches those by name)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in ("SPANS", "COUNTERS")
                for t in node.targets):
            for entry in ast.literal_eval(node.value):
                names |= set(entry[1].split("."))
    return names


def unnamed_definitions(tree, readers):
    """(line, name) of every function, class and method that `tree`
    defines and no module of `readers` reads, in line order.  A dunder
    method is called by the language, and is skipped."""
    read = set().union(*(names_read(r) for r in readers))
    return sorted((node.lineno, node.name) for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef))
                  and not (node.name.startswith("__") and node.name.endswith("__"))
                  and node.name not in read)


def test_unnamed_definitions_are_found():
    tree = ast.parse("class A:\n"
                     "    def f(self): pass\n"
                     "    def g(self): pass\n"
                     "    def __repr__(self): return 'A'\n"
                     "class B: pass\n"
                     "def h(): return A().f()\n"
                     "def k(): pass\n"
                     "def m(): pass\n")
    readers = [tree,
               ast.parse("from .x import k as kk\n"),
               ast.parse("SPANS = (('pkg.x', 'A.g', 'x.g'),)\nCOUNTERS = ()\n")]
    assert unnamed_definitions(tree, readers) == [(5, "B"), (6, "h"), (8, "m")]


def test_the_package_defines_only_what_it_or_the_benchmark_reads():
    readers = [ast.parse(p.read_text())
               for p in sorted(SRC.glob("*.py")) + sorted(BENCH.glob("*.py"))]
    found = {name for path in sorted(SRC.glob("*.py"))
             for _, name in unnamed_definitions(ast.parse(path.read_text()), readers)}
    assert found == set(READ_BY_TESTS_ONLY)


def package_imports(tree):
    """The modules of the package that `tree` imports, by their names
    inside it."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pemb."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("pemb.")}
    return found


def defined_functions(tree):
    """The names of the functions and methods that `tree` defines."""
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def test_package_imports_and_definitions_are_found():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os, pemb.fields\n"
                     "from . import graded\n"
                     "from .linalg import axpy\n"
                     "from pemb.checks import Witness\n"
                     "class A:\n"
                     "    def by(self): pass\n"
                     "def f():\n"
                     "    def g(): pass\n")
    assert package_imports(tree) == {"fields", "graded", "linalg", "checks"}
    assert defined_functions(tree) == {"by", "f", "g"}


def test_tables_imports_only_linalg_and_owns_its_names():
    tables = ast.parse((SRC / "tables.py").read_text())
    assert package_imports(tables) <= {"linalg"}
    vocabulary = {node.name for node in tables.body if isinstance(node, ast.FunctionDef)}
    assert {"by", "columns", "through", "substituted", "swapped"} <= vocabulary
    elsewhere = {(path.name, name) for path in sorted(SRC.glob("*.py")) if path.name != "tables.py"
                 for name in defined_functions(ast.parse(path.read_text())) & vocabulary}
    assert elsewhere == set()


def test_importing_the_cli_leaves_importlib_resources_unloaded():
    """A fresh interpreter without site packages imports `pemb.cli` and
    finds no `importlib.resources` among its modules."""
    code = ("import sys; sys.path.insert(0, %r); import pemb.cli; "
            "print('importlib.resources' in sys.modules)" % str(SRC.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out == "False\n"
