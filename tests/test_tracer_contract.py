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
NONZERO = ["ideals.nf_against.calls", "ideals.reductions", "poly.mul.calls"]


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_see_search_and_deg():
    tracing = load_tracer()
    for argv in OPS:
        tr = tracing.Tracer()
        tr.install()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        finally:
            tr.uninstall()
        assert code == 0, argv
        metrics = tr.metrics(NONZERO)
        assert all(metrics[name] > 0 for name in NONZERO), (argv[0], metrics)
