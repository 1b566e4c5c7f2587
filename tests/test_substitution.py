"""The substitution kernel and the power tables it keeps, against oracles.

`poly.subs_terms` substitutes power tables (`poly.power_terms`) into a
term map.  `Polynomial.subs` builds the tables per call, a `RingMorphism`
once for its images, and a `Derivation` once for the factors
D^d_i(x_i)/d_i! of its Leibniz top term (`leibniz_top`).  The oracle is
the per-term substitution the kernel replaced: one `Polynomial` per
partial product and one sum per term.  It must give the same terms in
the same order.  A table kept across many calls must give what a fresh
one gives.  Powers are formed by binary powering, never one factor at a
time.  Test-only dependency: hypothesis (the module is skipped without
it).
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
from fractions import Fraction

import pytest

from lndfilt import poly
from lndfilt.cli import main
from lndfilt.derivations import RingPresentation, leibniz_top, top_table
from lndfilt.families import (bounded_lnd_search, make_danielewski,
                              make_koras_russell2, make_new_family)
from lndfilt.morphisms import (AutomorphismData, RingMorphism,
                               build_auto_danielewski, build_auto_newfamily)
from lndfilt.parser import parse_polynomial
from lndfilt.poly import Context, Polynomial

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

SETTINGS = hypothesis.settings(max_examples=30, deadline=None,
                               derandomize=True)
XY = Context(("x", "y"))
XS = Context(("x", "s"))
XZT = Context(("x", "z", "t"))


def _p(text, ctx):
    return parse_polynomial(text, ctx)


def oracle_subs(p, images, target):
    """The per-term substitution: a `Polynomial` for every partial product,
    the running sum copied once per term."""
    polys = [images.get(nm, target.var(nm) if nm in target else None)
             for nm in p.ctx.names]
    out = target.zero()
    powers = [{} for _ in polys]
    for m, c in p.terms.items():
        term = target.const(c)
        for i, e in enumerate(m):
            if e:
                if e not in powers[i]:
                    powers[i][e] = polys[i] ** e
                term = term * powers[i][e]
        out = out + term
    return out


def _same(got, want):
    """Equal, with the same terms in the same order and stored form."""
    assert got.ctx == want.ctx
    assert list(got.terms.items()) == list(want.terms.items())
    assert all(type(c) is int or c.denominator > 1 for c in got.terms.values())


COEFFS = st.one_of(st.integers(-4, 4),
                   st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def polynomials(draw, ctx, max_degree=3, max_terms=5):
    """A polynomial over ctx, possibly zero or constant, with integral and
    rational coefficients."""
    n = len(ctx)
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        m = tuple(draw(st.lists(st.integers(0, max_degree), min_size=n,
                                max_size=n)))
        terms[m] = terms.get(m, 0) + draw(COEFFS)
    return Polynomial(ctx, terms)


# ------------------------------------------------------------ the kernel

SOURCE = Context(("x", "y", "z"))
# a target with more variables than the source, and names it lacks
TARGETS = [SOURCE, Context(("x", "y", "z", "w")), Context(("a", "b", "c", "d"))]


@SETTINGS
@hypothesis.given(st.data())
def test_subs_matches_the_per_term_oracle(data):
    target = data.draw(st.sampled_from(TARGETS))
    p = data.draw(polynomials(SOURCE, max_degree=4))
    names = SOURCE.names if target.names[0] == "a" else \
        data.draw(st.lists(st.sampled_from(SOURCE.names), unique=True))
    images = {nm: data.draw(polynomials(target, max_degree=2, max_terms=3))
              for nm in names}
    _same(p.subs(images, target), oracle_subs(p, images, target))


def test_a_cancelled_term_comes_back_last():
    # a cancels on the third term and returns on the fourth, after b
    src, tgt = Context(("x", "y", "z", "w")), Context(("a", "b"))
    a, b = tgt.gens()
    images = {"x": a, "y": b, "z": -a, "w": a}
    p = src.var("x") + src.var("y") + src.var("z") + src.var("w")
    got = p.subs(images, tgt)
    _same(got, oracle_subs(p, images, tgt))
    assert list(got.terms) == [(0, 1), (1, 0)]


@SETTINGS
@hypothesis.given(st.data())
def test_kept_tables_match_fresh_ones(data):
    """One set of tables over many term maps, against fresh tables and
    the oracle; constants included."""
    target = data.draw(st.sampled_from(TARGETS[1:]))
    images = [data.draw(polynomials(target, max_degree=2, max_terms=3))
              for _ in SOURCE.names]
    kept = [{1: img.terms} for img in images]
    zero = (0,) * len(target)
    for _ in range(3):
        p = data.draw(polynomials(SOURCE, max_degree=4))
        p = p + data.draw(COEFFS)
        got = Polynomial(target, poly.subs_terms(p.terms, kept, zero))
        fresh = [{1: img.terms} for img in images]
        _same(got, Polynomial(target, poly.subs_terms(p.terms, fresh, zero)))
        _same(got, oracle_subs(p, dict(zip(SOURCE.names, images)), target))


@SETTINGS
@hypothesis.given(st.data())
def test_power_table_matches_repeated_products(data):
    base = data.draw(polynomials(XY, max_degree=2, max_terms=3))
    table = {1: base.terms}
    for e in data.draw(st.lists(st.integers(1, 9), min_size=1, max_size=6)):
        want = XY.one()
        for _ in range(e):
            want = want * base
        assert Polynomial(XY, poly.power_terms(table, e)) == want
        assert table[e] is poly.power_terms(table, e)


def test_powers_are_formed_by_binary_powering(monkeypatch):
    calls = [0]
    mul_terms = poly._mul_terms

    def counted(a, b):
        calls[0] += 1
        return mul_terms(a, b)

    monkeypatch.setattr(poly, "_mul_terms", counted)
    table = {1: (XY.var("x") * 2 + XY.var("y")).terms}
    assert len(poly.power_terms(table, 1000)) == 1001
    assert calls[0] <= 2 * math.ceil(math.log2(1000))
    # powers below 1000 reuse the kept squares
    calls[0] = 0
    poly.power_terms(table, 512 + 8)
    assert calls[0] == 1
    # the huge translation of an automorphism stays a few products per
    # power: one factor at a time it would be 100000 products (seconds)
    calls[0] = 0
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["auto", "--family", "danielewski", "--n", "2", "--P",
                     "y^2", "--lam", "2", "--mu", "4", "--a", "x^100000"]) == 0
    assert 0 < calls[0] < 5000


# ------------------------------------------------------------ morphisms

@functools.cache
def _morphisms():
    """Automorphisms on each family with a formula, their inverses, and a
    map from k[x,y] into a ring with more variables."""
    dan = make_danielewski(2, _p("y^2 + x*y", XY))
    new = make_new_family(2, 1, _p("s^2", XS), _p("y", XY))
    a = build_auto_danielewski(dan, AutomorphismData(2, Fraction(-3, 2),
                                                     _p("x + 1", Context(("x",)))))
    b = build_auto_newfamily(new, AutomorphismData(2, 4, Context(("x",)).one()))
    ctx = dan.ring.ctx
    into = RingMorphism(RingPresentation(XY), dan.ring,
                        {"x": ctx.var("x") * 3, "y": _p("x*z - y + 1", ctx)})
    return [a, a.inverse, b, b.inverse, into]


@SETTINGS
@hypothesis.given(st.data())
def test_apply_on_one_morphism_matches_subs(data):
    for alpha in _morphisms():
        for _ in range(2):
            p = data.draw(polynomials(alpha.source.ctx, max_degree=2))
            want = alpha.target.nf(p.subs(alpha.images, alpha.target.ctx))
            _same(alpha.apply(p), want)
        assert alpha.check()


def test_apply_substitutes_by_name_outside_the_source_context():
    into = _morphisms()[4]
    text = "y^2*x - 3*y + 1"
    assert into.apply(_p(text, Context(("y", "x")))) == into.apply(_p(text, XY))


def test_composition_matches_subs():
    a = _morphisms()[0]
    both = a.compose(a)
    for nm, img in both.images.items():
        assert img == a.target.nf(a.images[nm].subs(a.images, a.target.ctx))
    assert both.verify_inverse()


# ------------------------------------------------------------ top term

@functools.cache
def _derivations():
    """One derivation per family, built once, so their tables fill up."""
    return [inst.derivation for inst in (
        make_danielewski(2, _p("y^3 + x*y", XY)),
        make_koras_russell2(2, 3, 2, _p("t^2 + x + z*t", XZT)),
        make_new_family(2, 1, _p("s^2 + x*s", XS), _p("y^2 + x*y", XY)))]


def _fresh_top(D, q):
    orders, tops, _ = D._nilp
    ords = [orders[nm] for nm in D.ring.ctx.names]
    n = max(sum(map(int.__mul__, m, ords)) for m in q.terms)
    fresh = [top_table(d, t) for d, t in zip(ords, tops)]
    return ords, n, leibniz_top(q, ords, fresh, n)


def _top_oracle(D, q, ords, n):
    """T from `Polynomial` powers of tops_i / ords_i!."""
    _, tops, _ = D._nilp
    t = q.ctx.zero()
    for m, c in q.terms.items():
        if sum(map(int.__mul__, m, ords)) == n:
            term = q.ctx.const(c)
            for e, d, top in zip(m, ords, tops):
                term = term * (top / math.factorial(d)) ** e
            t = t + term
    return t


@SETTINGS
@hypothesis.given(st.data())
def test_kept_top_tables_match_fresh_ones(data):
    for D in _derivations():
        q = D.ring.nf(data.draw(polynomials(D.ring.ctx)))
        if q.is_zero():
            continue
        ords, n, want = _fresh_top(D, q)
        got = leibniz_top(q, ords, D._nilp[2], n)
        _same(got, want)
        assert got == _top_oracle(D, q, ords, n)


def test_rescaled_candidates_keep_their_own_tables():
    """A rational search candidate takes its orders from its cleared
    multiple scale * D; its tables must be those of its own top iterates,
    not the multiple's."""
    res = bounded_lnd_search(make_danielewski(2, _p("y^2", XY)),
                             image_degree_bound=4, nilp_bound=20)
    rational = [c.derivation for c in res.candidates
                if any(isinstance(v, Fraction) for img in c.derivation.images
                       for v in img.terms.values())]
    assert rational
    for D in rational:
        orders, tops, tables = D._nilp
        for nm, top, table in zip(D.ring.ctx.names, tops, tables):
            assert table[1] == top_table(orders[nm], top)[1]
        x, y, z = D.ring.ctx.gens()
        for q in [z ** 2, y * z, x * y ** 2 * z]:
            ords, n, want = _fresh_top(D, q)
            _same(leibniz_top(q, ords, tables, n), want)
