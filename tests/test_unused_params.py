"""Every defaulted parameter of a lndfilt function is set by some call.

A default that no call in src/ or tests/ overrides is a constant in
disguise: it widens the signature without giving any caller a choice.
Calls are matched to definitions by name, loosely: a call sets a
parameter when it passes it by keyword, reaches its position, or passes
`*args` or `**kwargs`.  `Name(...)` and `cls(...)` inside a classmethod
reach the class's `__init__`.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "lndfilt"


def defaulted_params(tree, where):
    """(callee names, positions the callee fills, param, its position,
    keyword only?, label) per defaulted parameter of every def in the
    tree; a method's callee fills `self`."""
    out = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                skip = 1 if cls and not static else 0
                names = (child.name, cls) if child.name == "__init__" and cls \
                    else (child.name,)
                label = "%s: %s" % (where, ".".join(filter(None, (cls, child.name))))
                a = child.args
                pos = a.posonlyargs + a.args
                for i in range(len(pos) - len(a.defaults), len(pos)):
                    out.append((names, skip, pos[i].arg, i, False, label))
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        out.append((names, skip, arg.arg, None, True, label))
                visit(child, None)
            else:
                visit(child, cls)

    visit(tree, None)
    return out


def calls(tree):
    """(callee name, positional count, keywords, starred?, double-starred?)
    per call; `cls(...)` in a classmethod is named after its class."""
    out = []

    def visit(node, cls, in_classmethod):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, False)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                deco = {d.id for d in child.decorator_list
                        if isinstance(d, ast.Name)}
                visit(child, cls, "classmethod" in deco)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else \
                    f.attr if isinstance(f, ast.Attribute) else None
                if name == "cls" and in_classmethod:
                    name = cls
                starred = any(isinstance(a, ast.Starred) for a in child.args)
                out.append((name,
                            sum(not isinstance(a, ast.Starred)
                                for a in child.args),
                            {k.arg for k in child.keywords if k.arg},
                            starred,
                            any(k.arg is None for k in child.keywords)))
            visit(child, cls, in_classmethod)

    visit(tree, None, False)
    return out


def unset_params(defs, all_calls):
    by_name: dict = {}
    for c in all_calls:
        by_name.setdefault(c[0], []).append(c)
    unset = []
    for names, skip, param, pos, kwonly, label in defs:
        if not any(param in kws or dstarred
                   or (not kwonly and (starred or npos > pos - skip))
                   for nm in names
                   for _, npos, kws, starred, dstarred in by_name.get(nm, [])):
            unset.append("%s(%s=...)" % (label, param))
    return sorted(unset)


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_defaulted_parameter_is_set_by_a_call():
    defs = []
    for path in sorted(SRC.glob("*.py")):
        defs += defaulted_params(_parse(path), path.name)
    all_calls = []
    for path in sorted(SRC.glob("*.py")) + sorted(
            (ROOT / "tests").glob("*.py")):
        all_calls += calls(_parse(path))
    assert unset_params(defs, all_calls) == []


def test_guard_sees_an_unset_parameter():
    tree = ast.parse(
        "def f(a, b=1, c=2, *, d=3):\n    return a\n"
        "class K:\n"
        "    def __init__(self, w, p=None):\n        pass\n"
        "    def m(self, q=0, r=1):\n        pass\n"
        "    @classmethod\n"
        "    def make(cls, w):\n        return cls(w, 5)\n"
        "f(0, 1)\nK(1).m(r=2)\n")
    found = unset_params(defaulted_params(tree, "t.py"), calls(tree))
    assert found == ["t.py: K.m(q=...)", "t.py: f(c=...)", "t.py: f(d=...)"]
    tree = ast.parse("def f(a, b=1):\n    return a\nf(*[0, 1])\n"
                     "def g(a=1):\n    return a\ng(**{})\n")
    assert unset_params(defaulted_params(tree, "t.py"), calls(tree)) == []
