"""Filtration machinery: weights, properness, graded ring, layers."""

from __future__ import annotations

import pytest

from lndfilt.derivations import BoundExceeded, Derivation, RingPresentation
from lndfilt.families import (FAMILIES, FamilyInstance, make_danielewski,
                              make_koras_russell2, make_new_family)
from lndfilt.filtration import FiltrationSpec, PreconditionError
from lndfilt.ideals import Budget, Ideal
from lndfilt.parser import parse_polynomial
from lndfilt.poly import NEG_INF, Context
from oracles import gr, gr_properties_report, layer_equality_check

XY = Context(("x", "y"))
XYZ = Context(("x", "y", "z"))


def _p(text, ctx=XYZ):
    return parse_polynomial(text, ctx)


def _toy():
    """x^2 y = s^2 with s = y^2 - x z; weights (x,y,z,s) = (0,2,4,1)."""
    return make_new_family(2, 1,
                           parse_polynomial("s^2", Context(("x", "s"))),
                           parse_polynomial("y^2", XY))


def test_extended_context_and_weights():
    fs = _toy().filtration
    assert fs.ext_ctx.names == ("x", "y", "z", "s")
    assert fs.omega == (0, 2, 4, 1)
    s_ext = fs.ext_ctx.var("s")
    assert fs.ring_element_of(s_ext) == _p("y^2 - x*z")


def test_omega_b_matches_degree_oracle():
    fs = _toy().filtration
    D = fs.derivation
    for text, want in [("x", 0), ("y", 2), ("z", 4), ("y^2 - x*z", 1),
                       ("y^2", 4), ("y*z", 6), ("x^5 + 3", 0)]:
        p = _p(text)
        assert fs.omega_b(p) == want
        assert D.deg(p) == want
    assert fs.omega_b(XYZ.zero()) == NEG_INF


def test_properness_toy_via_binomial_route():
    fs = _toy().filtration
    res = fs.properness_check()
    assert res.status == "proper"
    assert res.method == "binomial-prime"
    assert bool(res)
    assert res.certificate.divisors == [1, 1]


def test_properness_danielewski():
    fs = make_danielewski(2, parse_polynomial("y^2", XY)).filtration
    res = fs.properness_check()
    assert res.status == "proper"
    assert res.method == "binomial-prime"


def test_properness_koras_russell_empirical():
    inst = make_koras_russell2(2, 2, 2,
                               parse_polynomial("t^2", Context(("x", "z", "t"))))
    res = inst.filtration.properness_check()
    assert res.status == "proper"
    assert res.method == "empirical"
    assert res.samples > 0


def test_improper_detected_by_binomial_route():
    # trivial filtration (everything in weight zero) on a non-domain:
    # the initial ideal is the relation itself, visibly not prime
    ring = RingPresentation(XY, Ideal(XY, [_p("x^2 - y^2", XY)]))
    zero = Derivation(ring, [XY.zero(), XY.zero()])
    fs = FiltrationSpec(zero, kernel_gens=[XY.var("x"), XY.var("y")],
                        slices=[], var_degrees={"x": 0, "y": 0})
    res = fs.properness_check()
    assert res.status == "improper"
    assert res.method == "binomial-prime"
    assert 2 in res.certificate.divisors
    with pytest.raises(PreconditionError):
        fs.graded_presentation()


def test_improper_detected_by_a_monomial_initial_ideal():
    # wrong declared degrees on x^2 z = y^4: deg z is 4, not 2, so Jhat is
    # (y^4), and y * y^3 lies in it while neither factor does
    ring = RingPresentation(XYZ, Ideal(XYZ, [_p("x^2*z - y^4")]))
    D = Derivation(ring, [XYZ.zero(), _p("x^2"), _p("4*y^3")])
    assert D.variable_orders() == {"x": 0, "y": 1, "z": 4}
    fs = FiltrationSpec(D, kernel_gens=[XYZ.var("x")], slices=[XYZ.var("y")],
                        var_degrees={"x": 0, "y": 1, "z": 2}, validate=False)
    res = fs.properness_check()
    assert res.status == "improper"
    assert res.method == "binomial-prime"
    assert res.certificate.status == "not-prime"


def test_improper_detected_empirically():
    # declared degrees twice the true ones on x^2 z = 2 y^4: the top form
    # x^2 z - 2 y^4 is no pure difference, so the empirical route runs, and
    # the probe y (degree 1, weight 2) exposes the mismatch
    ring = RingPresentation(XYZ, Ideal(XYZ, [_p("x^2*z - 2*y^4")]))
    D = Derivation(ring, [XYZ.zero(), _p("x^2"), _p("8*y^3")])
    assert D.variable_orders() == {"x": 0, "y": 1, "z": 4}
    fs = FiltrationSpec(D, kernel_gens=[XYZ.var("x")], slices=[XYZ.var("y")],
                        var_degrees={"x": 0, "y": 2, "z": 8}, validate=False)
    res = fs.properness_check()
    assert res.status == "improper"
    assert res.method == "empirical"
    assert res.witness is not None
    assert "disagrees with oracle" in res.reason


def test_empirical_probe_checks_sampled_products():
    # no positive-weight probes here, so only the sampled pairs can fail:
    # x * y = 0 in k[x,y]/(x*y), while both factors have weight 0
    ring = RingPresentation(XY, Ideal(XY, [_p("x*y", XY)]))
    zero = Derivation(ring, [XY.zero(), XY.zero()])
    fs = FiltrationSpec(zero, kernel_gens=[XY.var("x"), XY.var("y")],
                        slices=[], var_degrees={"x": 0, "y": 0})
    reason, (a, b) = fs._empirical_probe(25, 1)
    assert reason == "product degree -inf != 0 + 0"
    assert ring.is_zero(a * b)


def test_zero_product_ring_is_improper_by_certificate():
    # the sampled products at the default seed contain no zero product
    # here, so only the monomial x*y in Jhat's basis can settle it
    ring = RingPresentation(XY, Ideal(XY, [_p("x*y", XY)]))
    zero = Derivation(ring, [XY.zero(), XY.zero()])
    fs = FiltrationSpec(zero, kernel_gens=[XY.var("x"), XY.var("y")],
                        slices=[], var_degrees={"x": 0, "y": 0})
    assert fs._empirical_probe(25, 1123) is None
    res = fs.properness_check()
    assert (res.status, res.method) == ("improper", "binomial-prime")
    assert res.certificate.status == "not-prime"


def test_properness_undecided_on_tiny_budget():
    fs = _toy().filtration
    with Budget(1):
        res = fs.properness_check()
    assert res.status == "undecided"
    # the undecided verdict is not cached; a real run still succeeds
    assert fs.properness_check().status == "proper"


def test_validation_rejects_bad_specs():
    ring = RingPresentation(XYZ, Ideal(XYZ, [_p("x^2*z - y^2")]))
    D = Derivation(ring, [XYZ.zero(), _p("x^2"), _p("2*y")])
    x, y, z = XYZ.gens()
    with pytest.raises(PreconditionError, match="no declared degree"):
        FiltrationSpec(D, [x], [y], {"x": 0, "y": 1})
    with pytest.raises(PreconditionError, match="disagrees with oracle"):
        FiltrationSpec(D, [x], [y], {"x": 0, "y": 1, "z": 3})
    with pytest.raises(PreconditionError, match="not in the kernel"):
        FiltrationSpec(D, [z], [y], {"x": 0, "y": 1, "z": 2})
    with pytest.raises(PreconditionError, match="not a local slice"):
        FiltrationSpec(D, [x], [z], {"x": 0, "y": 1, "z": 2})
    with pytest.raises(PreconditionError, match="nonzero at origin"):
        FiltrationSpec(D, [x + 1], [y], {"x": 0, "y": 1, "z": 2})
    # z -> z is never nilpotent, so z has no order to check a degree against
    free = RingPresentation(XYZ)
    with pytest.raises(BoundExceeded):
        FiltrationSpec(Derivation(free, [XYZ.zero(), _p("x^2"), z]),
                       [x], [y], {"x": 0, "y": 1, "z": 1})
    with pytest.raises(PreconditionError,
                       match="plinth generator is not the slice image"):
        FamilyInstance(FAMILIES["danielewski"], {}, ring, D, [x], y, _p("x^3"),
                       {"x": 0, "y": 1, "z": 2})


def test_probes_in_enumeration_order():
    # positive coordinates y, z, s in weight order, each times 1 and x
    got = [(str(m), w, str(b)) for m, w, b in _toy().filtration.probes(4, 1)]
    assert got == [
        ("1", 0, "1"), ("x", 0, "x"), ("y", 2, "y"), ("x*y", 2, "x*y"),
        ("y^2", 4, "y^2"), ("x*y^2", 4, "x*y^2"), ("z", 4, "z"),
        ("x*z", 4, "x*z"), ("s", 1, "-x*z + y^2"),
        ("x*s", 1, "-x^2*z + x*y^2"), ("s^2", 2, "x^2*y"),
        ("x*s^2", 2, "x^3*y"), ("s^3", 3, "-x^3*y*z + x^2*y^3"),
        ("x*s^3", 3, "-x^4*y*z + x^3*y^3"), ("s^4", 4, "x^4*y^2"),
        ("x*s^4", 4, "x^5*y^2"), ("y*s", 3, "-x*y*z + y^3"),
        ("x*y*s", 3, "-x^2*y*z + x*y^3"), ("y*s^2", 4, "x^2*y^2"),
        ("x*y*s^2", 4, "x^3*y^2")]


def test_kernel_products_in_enumeration_order():
    inst = make_koras_russell2(2, 2, 2,
                               parse_polynomial("t^2", Context(("x", "z", "t"))))
    got = [(expo, str(p)) for expo, p in inst.filtration.kernel_products(2)]
    assert got == [([], "1"), ([(0, 1)], "x"), ([(0, 2)], "x^2"),
                   ([(1, 1)], "z"), ([(1, 2)], "z^2"),
                   ([(0, 1), (1, 1)], "x*z")]


def test_graded_presentation_of_toy():
    fs = _toy().filtration
    graded = fs.graded_presentation()
    ext = fs.ext_ctx
    for text in ("s^2 - x^2*y", "y^2 - x*z"):
        assert graded.ring.nf(parse_polynomial(text, ext)).is_zero()
    # the slice symbol is homogeneous of weight one
    assert graded.is_homogeneous(ext.var("s"))
    assert graded.ring.nf(ext.var("s")).weighted_degree(graded.degrees) == 1
    assert not graded.is_homogeneous(ext.var("y") + ext.var("s"))


def test_gr_symbols():
    fs = _toy().filtration
    graded = fs.graded_presentation()
    ext = fs.ext_ctx
    g = gr(fs, _p("y^2 - x*z"))
    assert g.degree == 1
    assert graded.ring.eq(g.poly, ext.var("s"))
    g2 = gr(fs, _p("y^2"))
    assert g2.degree == 4
    assert graded.ring.eq(g2.poly, parse_polynomial("x*z", ext))
    # a symbol forgets lower-order terms
    g3 = gr(fs, _p("z + y + x^7"))
    assert g3.degree == 4
    assert graded.ring.eq(g3.poly, ext.var("z"))
    assert gr(fs, XYZ.zero()).degree == NEG_INF


def test_candidate_layers_of_toy():
    fs = _toy().filtration
    layers = fs.candidate_layers(4)
    got = {(g.weight, str(g.monomial)) for g in layers}
    assert got == {(0, "1"), (1, "s"), (2, "y"), (3, "y*s"), (4, "z")}
    # every accepted generator carries a nonzero graded form
    assert all(not g.graded_form.is_zero() for g in layers)


def test_layer_equality_check_clean():
    fs = _toy().filtration
    assert layer_equality_check(fs, max_degree=8) == []


def test_gr_properties_report():
    fs = _toy().filtration
    report = gr_properties_report(fs, pairs=200, seed=7)
    assert report["counterexample"] is None
    assert report["pairs"] == 200
    assert report["P1"] == 200
    assert report["oracle_checks"] == 20
    assert report["P2"] > 0
    assert report["P3"] > 0
    assert report["P4"] > 0


def test_induced_derivation_of_toy():
    fs = _toy().filtration
    gr_d, shift = fs.induced_derivation()
    assert shift == -1
    ext = fs.ext_ctx
    want = {"x": "0", "y": "2*x*s", "z": "4*y*s", "s": "x^3"}
    for nm, img_text in want.items():
        assert gr_d.ring.eq(gr_d.image_of(nm), parse_polynomial(img_text, ext))
    cert = gr_d.is_locally_nilpotent()
    assert cert is not None

