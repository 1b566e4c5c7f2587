"""Every name a lndfilt module imports is read somewhere in that module."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "lndfilt"


def unused_imports(tree):
    """Names bound by the module's imports that no expression reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a; `from m import a as b` binds b
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(nm for nm in bound if nm not in read)


# __init__.py imports names to re-export them
@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_module_reads_every_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert unused_imports(tree) == [], "%s never reads %s" % (
        path.name, unused_imports(tree))


def test_guard_sees_an_unused_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nimport sys\n"
                     "from .poly import Context as C, Polynomial\n"
                     "print(sys.argv, C)\n")
    assert unused_imports(tree) == ["Polynomial", "os"]
