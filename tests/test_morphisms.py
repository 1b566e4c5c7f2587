"""Automorphisms, isomorphism decisions, conjugation and composition."""

from __future__ import annotations

from fractions import Fraction

import pytest

from lndfilt.derivations import RingPresentation, conjugate
from lndfilt.families import (make_danielewski, make_koras_russell2,
                              make_new_family)
from lndfilt.filtration import PreconditionError
from lndfilt.ideals import Ideal
from lndfilt.morphisms import (AutomorphismData, CongruenceError,
                               IsoDecision, MorphismError, RingMorphism,
                               build_auto_danielewski, build_auto_newfamily,
                               composition_data, identity_morphism,
                               iso_decide, normalize_subleading,
                               verify_degree_preservation)
from lndfilt.parser import parse_polynomial
from lndfilt.poly import Context

XY = Context(("x", "y"))
XS = Context(("x", "s"))
XONLY = Context(("x",))
XZT = Context(("x", "z", "t"))


def _xy(text):
    return parse_polynomial(text, XY)


def _dan(P_text, n=2):
    return make_danielewski(n, _xy(P_text))


def _toy():
    return make_new_family(2, 1, parse_polynomial("s^2", XS), _xy("y^2"))


def test_automorphism_data_validation():
    with pytest.raises(PreconditionError, match="nonzero"):
        AutomorphismData(0, 1, XONLY.zero())
    with pytest.raises(PreconditionError, match="x alone"):
        AutomorphismData(1, 1, XY.var("y"))


def test_ring_morphism_check():
    inst = _dan("y^2")
    ctx = inst.ring.ctx
    good = {nm: ctx.var(nm) for nm in ctx.names}
    assert identity_morphism(inst.ring).is_identity()
    bad = dict(good)
    bad["z"] = ctx.var("z") + 1
    with pytest.raises(MorphismError, match="not preserved"):
        RingMorphism(inst.ring, inst.ring, bad)


def test_frozen_danielewski_automorphism():
    inst = _dan("y^2")
    alpha = build_auto_danielewski(inst, AutomorphismData(3, 2, XONLY.one()))
    ctx = inst.ring.ctx
    assert alpha.image_of("x") == parse_polynomial("3*x", ctx)
    assert alpha.image_of("y") == parse_polynomial("x^2 + 2*y", ctx)
    assert alpha.image_of("z") == \
        parse_polynomial("1/9*x^2 + 4/9*y + 4/9*z", ctx)
    assert alpha.check()
    assert alpha.verify_inverse()
    assert not alpha.is_identity()
    inv = alpha.inverse
    assert inv.image_of("x") == parse_polynomial("1/3*x", ctx)


def test_congruence_failure_carries_indices():
    inst = _dan("y^2 + x")
    with pytest.raises(CongruenceError) as info:
        build_auto_danielewski(inst, AutomorphismData(3, 1, XONLY.zero()))
    assert info.value.i == 2
    assert info.value.j == 1
    # the congruence lam = mu^2 makes the same shape work
    alpha = build_auto_danielewski(inst, AutomorphismData(4, 2, XONLY.var("x")))
    assert alpha.verify_inverse()


def test_verify_inverse_composes_nothing(monkeypatch):
    inst = _dan("y^2 + 2*y")
    alpha = build_auto_danielewski(inst, AutomorphismData(5, -1, XONLY.zero()))
    pair = alpha.inverse

    def refuse(self, inner):
        raise AssertionError("verify_inverse called compose")

    monkeypatch.setattr(RingMorphism, "compose", refuse)
    alpha.inverse = None
    alpha.inverse = pair    # the same object: still accepted
    assert alpha.verify_inverse()
    fresh = RingMorphism(inst.ring, inst.ring, alpha.images)
    back = RingMorphism(inst.ring, inst.ring, pair.images, inverse=fresh)
    fresh.inverse = back
    assert fresh.verify_inverse() and back.verify_inverse()


def test_wrong_inverse_is_rejected():
    inst = _dan("y^2")
    alpha = build_auto_danielewski(inst, AutomorphismData(3, 2, XONLY.one()))
    other = build_auto_danielewski(inst, AutomorphismData(3, 2, XONLY.zero()))
    wrong = RingMorphism(inst.ring, inst.ring, other.inverse.images)
    fresh = RingMorphism(inst.ring, inst.ring, alpha.images, inverse=wrong)
    assert not fresh.verify_inverse()
    # alpha is not its own inverse: twice it sends x to 9x
    assert not RingMorphism(inst.ring, inst.ring, alpha.images,
                            inverse=alpha).verify_inverse()
    # a left inverse only: k[x,y,z]/(z) -> k[x,y,z] sends z to 0, and the
    # identity images undo that on the quotient but not on k[x,y,z]
    ctx = inst.ring.ctx
    quotient = RingPresentation(ctx, Ideal(ctx, [ctx.var("z")]))
    free = RingPresentation(ctx)
    into = RingMorphism(quotient, free,
                        {"x": ctx.var("x"), "y": ctx.var("y"), "z": ctx.zero()})
    into.inverse = RingMorphism(free, quotient, identity_morphism(free).images,
                                inverse=into)
    assert into.inverse.apply(into.image_of("z")) == quotient.nf(ctx.var("z"))
    assert not into.verify_inverse() and not into.inverse.verify_inverse()


def test_new_inverse_is_verified_again():
    inst = _dan("y^2")
    alpha = build_auto_danielewski(inst, AutomorphismData(3, 2, XONLY.one()))
    good = alpha.inverse
    assert alpha.verify_inverse() and good.verify_inverse()
    alpha.inverse = identity_morphism(inst.ring)
    assert not alpha.verify_inverse()
    alpha.inverse = good
    assert alpha.verify_inverse()


def test_verify_inverse_needs_matching_names():
    inst = _dan("y^2")
    other = make_koras_russell2(2, 2, 2, parse_polynomial("t^2", XZT))
    ident = identity_morphism(inst.ring)
    ident.inverse = identity_morphism(other.ring)
    assert not ident.verify_inverse()


def test_normalize_subleading():
    inst = _dan("y^2 + 2*y")
    assert inst.params["P"] == _xy("y^2 + 2*y")
    norm, fwd, back = normalize_subleading(inst)
    assert norm.params["P"] == _xy("y^2 - 1")
    assert fwd.verify_inverse() and back.verify_inverse()
    assert norm.ring.is_zero(inst.relation().subs(fwd.images, norm.ring.ctx))
    # already normalized: identity maps and the same instance
    same, f2, b2 = normalize_subleading(_dan("y^2"))
    assert f2.is_identity() and b2.is_identity()


def test_automorphism_through_subleading_translation():
    inst = _dan("y^2 + 2*y")
    alpha = build_auto_danielewski(inst, AutomorphismData(5, -1, XONLY.zero()))
    ctx = inst.ring.ctx
    assert alpha.image_of("x") == parse_polynomial("5*x", ctx)
    assert alpha.image_of("y") == parse_polynomial("-y - 2", ctx)
    assert alpha.image_of("z") == parse_polynomial("1/25*z", ctx)
    assert alpha.verify_inverse()


def test_conjugation_rescales_canonical_derivation():
    inst = _dan("y^2")
    lam, mu = Fraction(3), Fraction(2)
    alpha = build_auto_danielewski(inst, AutomorphismData(lam, mu, XONLY.one()))
    D = inst.derivation
    conj = conjugate(D, alpha)
    factor = mu / lam ** inst.params["n"]
    for nm in inst.ring.ctx.names:
        assert inst.ring.eq(conj.image_of(nm), D.image_of(nm) * factor)


def test_composition_closure():
    inst = _dan("y^2")
    d1 = AutomorphismData(3, 2, XONLY.one())
    d2 = AutomorphismData(2, -1, XONLY.var("x"))
    a1 = build_auto_danielewski(inst, d1)
    a2 = build_auto_danielewski(inst, d2)
    composite = a2.compose(a1)
    assert composite.verify_inverse()
    d12 = composition_data(d1, d2, conductor=inst.params["n"])
    assert (d12.lam, d12.mu) == (6, -2)
    assert d12.a == parse_polynomial("2*x + 4", XONLY)
    rebuilt = build_auto_danielewski(inst, d12)
    for nm in ("x", "y", "z"):
        assert inst.ring.eq(composite.images[nm], rebuilt.images[nm])


def test_degree_preservation_report():
    inst = _dan("y^2")
    alpha = build_auto_danielewski(inst, AutomorphismData(3, 2, XONLY.one()))
    report = verify_degree_preservation(alpha, inst.derivation, samples=20)
    assert report["ok"]
    assert report["failures"] == []
    assert report["samples"] >= 20


def test_frozen_newfamily_automorphism():
    toy = _toy()
    ctx = toy.ring.ctx
    # mu^3 = lam^4 with lam = 8, mu = 16: pure scaling
    beta = build_auto_newfamily(toy, AutomorphismData(8, 16, XONLY.zero()))
    assert beta.image_of("x") == parse_polynomial("8*x", ctx)
    assert beta.image_of("y") == parse_polynomial("4*y", ctx)
    assert beta.image_of("z") == parse_polynomial("2*z", ctx)
    assert beta.verify_inverse()
    # slice translation with lam = mu = 1
    gamma = build_auto_newfamily(toy, AutomorphismData(1, 1, XONLY.var("x")))
    assert gamma.image_of("x") == ctx.var("x")
    assert gamma.image_of("y") == \
        parse_polynomial("x^6 - 2*x^3*z + 2*x^2*y^2 + y", ctx)
    assert gamma.verify_inverse()
    # the slice itself moves by x * x^(n+e)
    s = toy.slice_elem
    assert toy.ring.eq(gamma.apply(s), s + parse_polynomial("x^4", ctx))


def test_newfamily_conjugation_rescales_derivation():
    toy = _toy()
    beta = build_auto_newfamily(toy, AutomorphismData(8, 16, XONLY.zero()))
    D = toy.derivation
    conj = conjugate(D, beta)
    factor = Fraction(16, 8 ** 3)
    for nm in toy.ring.ctx.names:
        assert toy.ring.eq(conj.image_of(nm), D.image_of(nm) * factor)


def test_newfamily_scaling_constraint():
    toy = _toy()
    with pytest.raises(MorphismError, match="scaling constraint"):
        build_auto_newfamily(toy, AutomorphismData(2, 3, XONLY.zero()))


def test_newfamily_shape_preconditions():
    bad_q = make_new_family(2, 1, parse_polynomial("s^2", XS),
                            _xy("y^2 + x*y"))
    with pytest.raises(PreconditionError, match="Q = y\\^2 exactly"):
        build_auto_newfamily(bad_q, AutomorphismData(1, 1, XONLY.zero()))
    bad_p = make_new_family(2, 1, parse_polynomial("s^2 + x*s", XS),
                            _xy("y^2"))
    with pytest.raises(PreconditionError, match="s\\^1 coefficient"):
        build_auto_newfamily(bad_p, AutomorphismData(1, 1, XONLY.zero()))


def test_iso_isomorphic_with_witness():
    left = _dan("y^2 + x")
    right = _dan("y^2 + 2*x")
    dec = iso_decide(left, right)
    assert bool(dec)
    assert dec.verdict == "isomorphic"
    assert (dec.lam, dec.mu) == (2, 1)
    assert dec.witness.check() and dec.witness.verify_inverse()
    # symmetry: the reverse direction inverts the scaling
    rev = iso_decide(right, left)
    assert rev.verdict == "isomorphic"
    assert rev.lam == Fraction(1, 2)


def test_iso_self_is_isomorphic():
    inst = _dan("y^2 + x")
    dec = iso_decide(inst, inst)
    assert dec.verdict == "isomorphic"
    assert dec.lam == dec.mu ** 2


def test_iso_not_isomorphic_vanishing_coefficient():
    dec = iso_decide(_dan("y^2 + x"), _dan("y^2"))
    assert dec.verdict == "not-isomorphic"
    assert dec.reason == \
        "coefficient (y^0, x^1) vanishes only on the left side"
    assert not bool(dec)


def test_iso_exponent_mismatch():
    dec = iso_decide(_dan("y^2"), _dan("y^2", n=3))
    assert dec.verdict == "not-isomorphic"
    assert "x-exponent differs" in dec.reason
    dec2 = iso_decide(_dan("y^2"), _dan("y^3"))
    assert dec2.verdict == "not-isomorphic"
    assert "y-degree differs" in dec2.reason


def test_iso_needs_irrational_scaling():
    dec = iso_decide(_dan("y^2 + x^2", n=3), _dan("y^2 + 2*x^2", n=3))
    assert dec.verdict == "not-over-rationals"
    assert dec.conditions == ["t^2 = 2"]
    assert dec.witness is None


def test_iso_through_subleading_translations():
    left = _dan("y^2 + 2*y + x")
    right = _dan("y^2 - 2*y + x")
    dec = iso_decide(left, right)
    assert dec.verdict == "isomorphic"
    assert dec.witness.verify_inverse()
    # the witness maps the left relation into the right ideal
    moved = left.relation().subs(dec.witness.images, right.ring.ctx)
    assert right.ring.is_zero(moved)
