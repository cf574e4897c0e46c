"""Source hygiene: no module imports a name it never reads.

No linter ships with the project, so this walks each module's syntax tree.
A name counts as read when it appears as a loaded ``Name`` anywhere in the
module (``np.zeros`` reads ``np``).  Names listed in ``__all__`` and
``from __future__`` imports are exempt.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src" / "girthlocal").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list:
    """Names bound by an import statement in ``source`` and never read."""
    tree = ast.parse(source)
    imported = {}
    read = set()
    exported = set()
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
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported.update(elt.value for elt in ast.walk(node.value)
                            if isinstance(elt, ast.Constant))
    return sorted((line, name) for name, line in imported.items()
                  if name not in read and name not in exported)


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
