"""The family build's degree certificate against iteration.

`FiltrationSpec._certified_orders` proves each declared generator degree
from the images on the extended generators, without iterating D.  Its
orders and top iterates must equal those that iterating D gives
(`Derivation._deg_reduced` with with_top=True) on every family instance of
the golden corpus and of the four benchmark workloads (seeds 1 to 3), and
on small families that hypothesis draws (test-only; the module is skipped
without it).  Where the certificate does not apply, the build applies and
iterates D as before, and those checks word the error.
"""

from __future__ import annotations

import functools
import json
import shlex
import sys
from pathlib import Path

import pytest

from lndfilt import cli
from lndfilt.derivations import BoundExceeded, Derivation, RingPresentation
from lndfilt.families import (make_danielewski, make_koras_russell2,
                              make_new_family)
from lndfilt.filtration import FiltrationSpec, PreconditionError
from lndfilt.ideals import Ideal
from lndfilt.parser import parse_polynomial
from lndfilt.poly import NEG_INF, Context, Polynomial

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

ROOT = Path(__file__).resolve().parents[1]
XYZ = Context(("x", "y", "z"))


def _iterated(D: Derivation):
    """The oracle: each generator's order and top iterate by iteration."""
    orders, tops = {}, []
    for nm in D.ring.ctx.names:
        got = D._deg_reduced(D.ring.nf(D.ring.ctx.var(nm)), 256, None,
                             with_top=True)
        orders[nm] = 0 if got[0] == NEG_INF else got[0]
        tops.append(got[1])
    return orders, tuple(tops)


def _family_argv(argv):
    """The flags the family of one command line takes, or None when it
    names no family."""
    args = cli._parser().parse_args(argv)
    if getattr(args, "kind", None):  # the `family` subcommand
        args.family = args.kind
    if not getattr(args, "family", None):
        return None
    flags = ["--family=" + args.family]
    for nm, _ in cli.FAMILIES[args.family].flags:
        flags.append("--%s=%s" % (nm, getattr(args, nm)))
    return tuple(flags)


@functools.cache
def _corpus_families():
    """The distinct family flags of the golden corpus and of the
    workloads at seeds 1 to 3.  A corpus line that exits with a usage,
    parse, precondition or budget error (exit 1 to 4 in expected.json)
    may name no instance: its flags may not parse or its family not
    build."""
    golden = ROOT / "tests" / "golden"
    lines = (golden / "commands.txt").read_text().splitlines()
    expected = json.loads((golden / "expected.json").read_text())
    argvs = [shlex.split(ln) for ln in lines
             if ln.strip() and not ln.startswith("#")
             and expected[ln.strip()]["exit"] not in (1, 2, 3, 4)]
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    for name in ("graded", "degree", "search", "morph"):
        for seed in (1, 2, 3):
            argvs += [op["argv"] for op in workloads.generate(name, seed)]
    out = []
    for argv in argvs:
        flags = _family_argv(argv)
        if flags is not None and flags not in out:
            out.append(flags)
    return out


def _build(flags):
    args = cli._parser().parse_args(["gr", *flags])
    return cli._build_instance(args)


def _check(inst):
    """The build's cached orders and tops are the certificate's, and they
    equal iteration's."""
    got = inst.filtration._certified_orders()
    assert got is not None, inst
    assert inst.derivation._nilp[:2] == got
    assert got == _iterated(inst.derivation), inst


def test_corpus_has_every_family():
    names = {flags[0] for flags in _corpus_families()}
    assert names == {"--family=" + nm for nm in cli.FAMILIES}
    assert len(_corpus_families()) >= 20


@pytest.mark.parametrize("flags", _corpus_families(), ids=" ".join)
def test_certificate_agrees_with_iteration(flags):
    _check(_build(flags))


def test_family_builds_do_not_iterate(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a family build iterated D")

    monkeypatch.setattr(Derivation, "_deg_reduced", refuse)
    for flags in _corpus_families():
        _build(flags)


# ------------------------------------------------------------ drawn families

def _poly(names, lead, support, coeffs):
    """lead + sum of c * monomial over the support, zero c dropped."""
    terms = {lead: 1}
    for expo, c in zip(support, coeffs):
        terms[expo] = terms.get(expo, 0) + c
    return Polynomial(Context(names), terms)


@st.composite
def _tail(draw, names, lead, support):
    """A monic polynomial lead + small multiples of the support, which
    holds no constant, so the origin lies on the family's surface."""
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(support),
                           max_size=len(support)))
    return _poly(names, lead, support, coeffs)


SETTINGS = hypothesis.settings(max_examples=10, deadline=None,
                               derandomize=True)


@SETTINGS
@hypothesis.given(st.data())
def test_drawn_danielewski(data):
    n, m = data.draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]))
    support = [(j, k) for j in (1, 2) for k in range(m)]
    _check(make_danielewski(n, data.draw(_tail(("x", "y"), (0, m), support))))


@SETTINGS
@hypothesis.given(st.data())
def test_drawn_koras_russell(data):
    n, e, l = data.draw(st.sampled_from([(2, 2, 2), (2, 3, 2), (3, 2, 2)]))
    m = data.draw(st.sampled_from([2, 3]))
    support = [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1), (0, 0, 1)][:m + 2]
    _check(make_koras_russell2(
        n, e, l, data.draw(_tail(("x", "z", "t"), (0, 0, m), support))))


@SETTINGS
@hypothesis.given(st.data())
def test_drawn_new_family(data):
    n, e = data.draw(st.sampled_from([(2, 1), (2, 2), (3, 1), (3, 2)]))
    d = data.draw(st.sampled_from([2, 3]))
    m = data.draw(st.sampled_from([1, 2]))
    P = data.draw(_tail(("x", "s"), (0, d),
                        [(j, k) for j in (1, 2) for k in range(d)]))
    Q = data.draw(_tail(("x", "y"), (0, m), [(1, k) for k in range(m)]))
    _check(make_new_family(n, e, P, Q))


# ------------------------------------------------------------ fallback

def _dan2():
    """x^2 z = y^2 with D = (0, x^2, 2y): degrees x:0, y:1, z:2."""
    def p(text):
        return parse_polynomial(text, XYZ)
    ring = RingPresentation(XYZ, Ideal(XYZ, [p("x^2*z - y^2")]))
    return Derivation(ring, [XYZ.zero(), p("x^2"), p("2*y")])


def _nilpotent_top():
    """k[x,y,z]/(x^2) with D = (0, x, x*y): D^2(z) = x^2 = 0, so z has
    order 1, while q_z = x*y has the weight 1 that degree 2 asks for."""
    def p(text):
        return parse_polynomial(text, XYZ)
    ring = RingPresentation(XYZ, Ideal(XYZ, [p("x^2")]))
    return Derivation(ring, [XYZ.zero(), p("x"), p("x*y")])


@pytest.mark.parametrize("derivation, kernel, degrees, message", [
    # a declared degree one below: D(z) = 2y has weight 1, not 0
    (_dan2, "x", {"x": 0, "y": 1, "z": 1},
     "declared degree 1 of z disagrees with oracle 2"),
    # a declared degree one above: q_z = 2y has weight 1, below 3 - 1
    (_dan2, "x", {"x": 0, "y": 1, "z": 3},
     "declared degree 3 of z disagrees with oracle 2"),
    # a kernel generator with a nonzero image: D(x*y) = x^3
    (_dan2, "x*y", {"x": 0, "y": 1, "z": 2}, "x*y is not in the kernel"),
    # every weight fits, but the top iterate x^2 of z vanishes in B
    (_nilpotent_top, "x", {"x": 0, "y": 1, "z": 2},
     "declared degree 2 of z disagrees with oracle 1"),
])
def test_certificate_falls_back_to_the_checks_message(
        monkeypatch, derivation, kernel, degrees, message):
    seen = []
    certify = FiltrationSpec._certified_orders
    monkeypatch.setattr(FiltrationSpec, "_certified_orders",
                        lambda self: seen.append(certify(self)) or seen[-1])
    with pytest.raises(PreconditionError) as err:
        FiltrationSpec(derivation(), [parse_polynomial(kernel, XYZ)],
                       [XYZ.var("y")], degrees)
    assert str(err.value) == message
    assert seen == [None]


def test_orders_above_the_default_bound_raise_bound_exceeded():
    # z has order 257 on x^2 z = y^257
    with pytest.raises(BoundExceeded,
                       match="no nilpotency certificate for default bound"):
        make_danielewski(2, parse_polynomial("y^257", Context(("x", "y"))))
