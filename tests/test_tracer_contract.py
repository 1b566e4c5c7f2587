"""The benchmark's tracer still sees the kernels it wraps.

perfbench/tracer.py replaces named functions and methods (`nf_against`,
`Budget.step`, `Polynomial.__mul__`, ...) with timing wrappers.  A kernel
that stops calling through those names would read zero in the traced
benchmark run; this test makes the same mistake fail the test suite.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
from pathlib import Path

import lndfilt.cli as cli

TRACER_PY = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
FAMILY = ["--family=danielewski", "--n=2", "--P=y^2"]
# the Leibniz top term of (y^2 - x*z)^3*z cancels, so deg runs the iteration
OPS = [["search", *FAMILY, "--degree-bound=2", "--nilp-bound=8", "--json"],
       ["deg", "--family=new", "--n=2", "--e=1", "--P=s^2", "--Q=y^2",
        "--of=(y^2 - x*z)^3*z", "--json"]]
NONZERO = ["ideals.nf_against.calls", "ideals.reductions", "poly.mul.calls",
           "families.build.calls"]
# auto conjugates by the translation that removes the y^1 coefficient, so
# it composes; iso builds its witness through the same translations
MORPH_OPS = [["auto", "--family=danielewski", "--n=2", "--P=y^2 + x*y",
              "--lam=2", "--mu=4", "--json"],
             ["iso", "--n=2", "--P1=y^2 + x", "--P2=y^2 + 2*x", "--json"]]
# the morphism layers the traced morph run predicts nonzero
MORPH_NONZERO = ["morphisms.build_auto.s", "morphisms.verify_inverse.calls",
                 "morphisms.compose.calls", "morphisms.apply.calls",
                 "morphisms.iso_decide.s", "poly.subs.calls"]


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced(ops, names):
    """The named metrics over one traced run of the ops, each exiting 0."""
    tr = load_tracer().Tracer()
    tr.install()
    try:
        for argv in ops:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, argv
    finally:
        tr.uninstall()
    return tr.metrics(names)


def test_traced_names_see_search_and_deg():
    for argv in OPS:
        metrics = traced([argv], NONZERO)
        assert all(metrics[name] > 0 for name in NONZERO), (argv[0], metrics)


def test_traced_names_see_auto_and_iso():
    metrics = traced(MORPH_OPS, MORPH_NONZERO)
    assert all(metrics[name] > 0 for name in MORPH_NONZERO), metrics
