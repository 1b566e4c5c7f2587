"""The lndfilt runtime imports nothing outside the standard library."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "lndfilt"
ALLOWED = set(sys.stdlib_module_names) | {"lndfilt"}


def imported_roots(tree):
    """Top-level module names of every absolute import in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_stdlib(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    outside = sorted(set(imported_roots(tree)) - ALLOWED)
    assert outside == [], "%s imports %s" % (path.name, outside)


def test_guard_sees_a_third_party_import():
    tree = ast.parse("import os\nfrom sympy import Poly\nfrom . import poly\n")
    assert sorted(set(imported_roots(tree)) - ALLOWED) == ["sympy"]
