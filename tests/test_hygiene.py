"""Source hygiene: no module imports a name it never reads, and none
exports a name it does not bind.

No linter ships with the project, so this walks each module's syntax tree.
A name counts as read when it appears as a loaded ``Name`` anywhere in the
module (``np.zeros`` reads ``np``).  Names listed in ``__all__`` and
``from __future__`` imports are exempt.  A name counts as bound when a
top-level statement defines, assigns or imports it.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src" / "girthlocal").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])


def _exports(tree) -> set:
    """Names listed in the module's top-level ``__all__``."""
    return {elt.value for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)
            for elt in ast.walk(node.value) if isinstance(elt, ast.Constant)}


def unused_imports(source: str) -> list:
    """Names bound by an import statement in ``source`` and never read."""
    tree = ast.parse(source)
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    imported.setdefault(alias.asname or alias.name,
                                        node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    exported = _exports(tree)
    return sorted((line, name) for name, line in imported.items()
                  if name not in read and name not in exported)


def unbound_exports(source: str) -> list:
    """Names listed in ``__all__`` that no top-level statement binds."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((alias.asname or alias.name).split(".")[0]
                         for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            bound.update(elt.id for t in targets for elt in ast.walk(t)
                         if isinstance(elt, ast.Name))
    return sorted(_exports(tree) - bound)


def test_checker_flags_only_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "import numpy as np\n"
              "from json import dumps, loads\n"
              "__all__ = ['loads']\n"
              "print(np.zeros(2), sys.argv)\n")
    assert unused_imports(source) == [(2, "os"), (4, "dumps")]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_export_checker_flags_only_unbound_names():
    source = ("from json import dumps\n"
              "import os.path\n"
              "A, B = 1, 2\n"
              "def f(): pass\n"
              "class C: pass\n"
              "__all__ = ['dumps', 'os', 'A', 'B', 'f', 'C', 'Gone']\n")
    assert unbound_exports(source) == ["Gone"]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_module_binds_every_export(path):
    assert unbound_exports(path.read_text()) == []
