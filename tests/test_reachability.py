"""Every def in src/lndfilt is entered by the golden corpus, or is listed in
LIBRARY_API with the reason it stays.

The corpus (`golden_corpus`: every line as written and with `--json`, run
from golden/) runs in-process under a `sys.setprofile` hook that records
each code object it enters, keyed by file and `co_firstlineno`, which is
the first decorator's line for a decorated def (`co_qualname` and
`sys.monitoring` need Python 3.11 and 3.12).  The defs come from the
module sources, with their dotted names, keyed the same way.

A def that no command enters is dead code, to delete or move into tests/
(tests/oracles.py holds the slow oracles), unless it is on the list below.
An entry that the corpus enters, or one that names no def, fails the test
too, so the list can only shrink.

Run as a script (`PYTHONPATH=src python3 tests/test_reachability.py`) it
needs no pytest: it prints each unreached def, each with its listed reason
or "NOT LISTED", then any stale entry, and exits 1 on a problem.
"""

from __future__ import annotations

import ast
import os
import sys

import lndfilt
from golden_corpus import corpus, run
from lndfilt import cli

SRC = os.path.dirname(os.path.realpath(lndfilt.__file__))

_REPR = "debugging repr"

LIBRARY_API = {
    "cli.entry": "the `lndfilt` console script; test_cli runs it as a "
                 "subprocess",
    "derivations.Derivation.__repr__": _REPR,
    "derivations.RingPresentation.__repr__": _REPR,
    "families.FamilyInstance.__repr__": _REPR,
    "filtration.PropernessResult.__bool__": "truth of a verdict",
    "ideals.BinomialPrimality.__bool__": "truth of a verdict",
    "ideals.Ideal.__repr__": _REPR,
    "ideals.MonomialOrder.__eq__": "orders compare by signature",
    "ideals.MonomialOrder.__hash__": "orders compare by signature",
    "ideals.MonomialOrder.__repr__": _REPR,
    "ideals.MonomialOrder.lex": "the lex order; the elimination oracle in "
                                "tests/oracles.py uses it",
    "morphisms.IsoDecision.__bool__": "truth of a verdict",
    "morphisms.RingMorphism.__repr__": _REPR,
    "poly.Context.__hash__": "contexts compare by their names",
    "poly.Context.__repr__": _REPR,
    "poly.Polynomial.__hash__": "polynomials are values",
    "poly.Polynomial.__repr__": _REPR,
    "poly.Polynomial.__rsub__": "number - polynomial",
    "poly.Polynomial.restrict": "family input given over a larger context; "
                                "the elimination oracle's results",
}


def defs():
    """{dotted name: (file, first line)} for every def under SRC."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                line = child.decorator_list[0].lineno \
                    if child.decorator_list else child.lineno
                out[name] = (path, line)
                visit(child, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for fn in sorted(os.listdir(SRC)):
        if fn.endswith(".py"):
            path = os.path.join(SRC, fn)
            with open(path, encoding="utf-8") as fh:
                visit(ast.parse(fh.read()), path, fn[:-3] + ".")
    return out


def entered():
    """(file, first line) of every code object the corpus enters."""
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_firstlineno))

    cli._parser.cache_clear()  # so that building the parser is seen
    sys.setprofile(hook)
    try:
        for line in corpus():
            run(line)
    finally:
        sys.setprofile(None)
    return {(os.path.realpath(f), n) for f, n in seen}


def problems():
    """(unreached defs with their reasons or None, stale entries)."""
    found = defs()
    hit = entered()
    unreached = {nm: LIBRARY_API.get(nm) for nm, key in sorted(found.items())
                 if key not in hit}
    stale = ["%s: no such def" % nm for nm in LIBRARY_API if nm not in found]
    stale += ["%s: the corpus enters it" % nm for nm in LIBRARY_API
              if nm in found and nm not in unreached]
    return unreached, stale


def test_every_def_is_reached_or_listed():
    assert all(reason and "\n" not in reason
               for reason in LIBRARY_API.values())
    unreached, stale = problems()
    assert [nm for nm, why in unreached.items() if why is None] == []
    assert stale == []


if __name__ == "__main__":
    unreached, stale = problems()
    for nm, why in unreached.items():
        print("%s: %s" % (nm, why or "NOT LISTED"))
    for line in stale:
        print("stale entry %s" % line)
    sys.exit(1 if stale or None in unreached.values() else 0)
