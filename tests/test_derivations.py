"""Derivations on presented rings: well-definedness, nilpotency, degree."""

from __future__ import annotations

import random

import pytest

from lndfilt.derivations import (BoundExceeded, Derivation, NotWellDefined,
                                 RingPresentation)
from lndfilt.ideals import Ideal
from lndfilt.parser import parse_polynomial
from lndfilt.poly import NEG_INF, Context, random_polynomial

XYZ = Context(("x", "y", "z"))


def _p(text, ctx=XYZ):
    return parse_polynomial(text, ctx)


def _surface_ring():
    """k[x,y,z] / (x^2 z - y^2)."""
    return RingPresentation(XYZ, Ideal(XYZ, [_p("x^2*z - y^2")]))


def _surface_derivation():
    ring = _surface_ring()
    return Derivation(ring, [XYZ.zero(), _p("x^2"), _p("2*y")])


def test_well_defined_and_variable_orders():
    d = _surface_derivation()
    assert d.variable_orders() == {"x": 0, "y": 1, "z": 2}
    cert = d.is_locally_nilpotent()
    assert cert is not None
    assert cert.max_order() == 2


def test_not_well_defined():
    ring = _surface_ring()
    with pytest.raises(NotWellDefined):
        Derivation(ring, [XYZ.zero(), XYZ.zero(), XYZ.one()])
    # check=False skips the relation test
    d = Derivation(ring, [XYZ.zero(), XYZ.zero(), XYZ.one()], check=False)
    assert d.image_of("z") == XYZ.one()


def test_apply_satisfies_leibniz():
    d = _surface_derivation()
    rng = random.Random(501)
    for _ in range(40):
        p = random_polynomial(XYZ, rng, max_degree=3, max_terms=3)
        q = random_polynomial(XYZ, rng, max_degree=3, max_terms=3)
        lhs = d.apply(p * q)
        rhs = d.apply(p) * q + p * d.apply(q)
        assert d.ring.eq(lhs, rhs)


def test_iterate_matches_repeated_apply():
    d = _surface_derivation()
    z = XYZ.var("z")
    assert d.iterate(z, 0) == z
    assert d.iterate(z, 1) == d.apply(z)
    assert d.iterate(z, 2) == d.apply(d.apply(z))
    assert d.iterate(z, 3).is_zero()


def test_degree_values():
    d = _surface_derivation()
    assert d.deg(XYZ.zero()) == NEG_INF
    assert d.deg(XYZ.one()) == 0
    assert d.deg(_p("x")) == 0
    assert d.deg(_p("y")) == 1
    assert d.deg(_p("z")) == 2
    assert d.deg(_p("y*z")) == 3
    # a relation representative has the degree of its normal form
    assert d.deg(_p("x^2*z")) == d.deg(_p("y^2")) == 2


def test_default_bound_is_the_leibniz_bound():
    d = _surface_derivation()
    # orders x:0, y:1, z:2, so the bound is max over terms of e_y + 2*e_z
    assert d.default_bound(_p("z^7")) == 14
    assert d.default_bound(_p("y^13 + x^9")) == 13
    assert d.default_bound(XYZ.one()) == 0
    # both exceeded the old 4*(max order + 1)*#terms = 12
    assert d.deg(_p("z^7")) == 14
    assert d.deg(_p("y^13")) == 13
    with pytest.raises(BoundExceeded):
        d.deg(_p("z^7"), 13)


def test_degree_additivity_on_domain():
    d = _surface_derivation()
    rng = random.Random(502)
    checked = 0
    while checked < 30:
        p = random_polynomial(XYZ, rng, max_degree=2, max_terms=2,
                              allow_zero=False)
        q = random_polynomial(XYZ, rng, max_degree=2, max_terms=2,
                              allow_zero=False)
        if d.ring.is_zero(p) or d.ring.is_zero(q):
            continue
        dp, dq = d.deg(p), d.deg(q)
        assert d.deg(p * q) == dp + dq
        s = p + q
        if not d.ring.is_zero(s):
            assert d.deg(s) <= max(dp, dq)
        checked += 1


def test_non_nilpotent_euler_derivation():
    x_only = Context(("x",))
    ring = RingPresentation(x_only)
    euler = Derivation(ring, [x_only.var("x")])
    assert euler.is_locally_nilpotent(bound=16) is None
    with pytest.raises(BoundExceeded):
        euler.deg(x_only.var("x"), bound=16)


def test_kernel_and_local_slice():
    d = _surface_derivation()
    assert d.kernel_member(_p("x"))
    assert d.kernel_member(_p("x^3 + 7"))
    assert not d.kernel_member(_p("y"))
    assert d.is_local_slice(_p("y"))
    assert not d.is_local_slice(_p("z"))
    assert not d.is_local_slice(_p("x"))


def test_free_ring_default_relations():
    ring = RingPresentation(XYZ)
    assert ring.nf(_p("x^2*z - y^2")) == _p("x^2*z - y^2")
    d = Derivation(ring, [XYZ.one(), XYZ.zero(), XYZ.zero()])
    assert d.deg(_p("x^5")) == 5
