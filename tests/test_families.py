"""Family constructors, bounded derivation search, layer formula checks."""

from __future__ import annotations

from fractions import Fraction

import pytest

from lndfilt.derivations import Derivation
from lndfilt.families import (PreconditionError, _quotient_by_linear_solve,
                              bounded_lnd_search, make_danielewski,
                              make_koras_russell2, make_new_family,
                              ml_evidence, singular_at_origin,
                              verify_layer_formulas)
from lndfilt.parser import parse_polynomial
from lndfilt.poly import Context

XY = Context(("x", "y"))
XS = Context(("x", "s"))
XZT = Context(("x", "z", "t"))


def _xy(text):
    return parse_polynomial(text, XY)


def _dan2():
    return make_danielewski(2, _xy("y^2"))


def _toy():
    return make_new_family(2, 1, parse_polynomial("s^2", XS), _xy("y^2"))


def _kr2():
    return make_koras_russell2(2, 2, 2, parse_polynomial("t^2", XZT))


def test_danielewski_instance_data():
    inst = _dan2()
    ctx = inst.ring.ctx
    assert str(inst.relation()) == "x^2*z - y^2"
    assert inst.derivation.image_of("y") == parse_polynomial("x^2", ctx)
    assert inst.derivation.image_of("z") == parse_polynomial("2*y", ctx)
    assert inst.degrees == {"x": 0, "y": 1, "z": 2}
    assert inst.params["m"] == 2
    desc = inst.describe()
    assert desc["family"] == "danielewski"
    assert desc["slice"] == "y"


def test_danielewski_preconditions():
    with pytest.raises(PreconditionError, match="n >= 2"):
        make_danielewski(1, _xy("y^2"))
    with pytest.raises(PreconditionError, match="monic"):
        make_danielewski(2, _xy("2*y^2"))
    with pytest.raises(PreconditionError, match="deg_y P >= 2"):
        make_danielewski(2, _xy("y + x"))
    with pytest.raises(PreconditionError, match="no rational root"):
        make_danielewski(2, _xy("y^2 + 1"))
    with pytest.raises(PreconditionError, match="may only involve"):
        make_danielewski(2, parse_polynomial("y^2 + t", Context(("y", "t"))))


def test_danielewski_origin_translation():
    shifted = make_danielewski(2, _xy("y^2 - 1"))
    assert shifted.params["P"] == _xy("y^2 - 2*y")
    kept = make_danielewski(2, _xy("y^2 - 1"), translate_origin=False)
    assert kept.params["P"] == _xy("y^2 - 1")


def test_new_family_instance_data():
    inst = _toy()
    assert inst.relation() == parse_polynomial(
        "x^2*y - (y^2 - x*z)^2", inst.ring.ctx)
    assert inst.degrees == {"x": 0, "y": 2, "z": 4}
    assert inst.params["d"] == 2 and inst.params["m"] == 2
    assert inst.slice_elem == parse_polynomial("y^2 - x*z", inst.ring.ctx)
    # the slice maps exactly onto the plinth generator x^(n+e)
    assert inst.derivation.apply(inst.slice_elem) == \
        parse_polynomial("x^3", inst.ring.ctx)


def test_new_family_origin_shift_through_q():
    inst = make_new_family(2, 1, parse_polynomial("s^2", XS), _xy("y^2 - 1"))
    assert inst.params["Q"] == _xy("y^2 - 2*y")
    origin = {nm: Fraction(0) for nm in inst.ring.ctx.names}
    assert inst.relation().eval_rational(origin) == 0


def test_new_family_preconditions():
    with pytest.raises(PreconditionError, match="deg_s P >= 2"):
        make_new_family(2, 1, parse_polynomial("s", XS), _xy("y^2"))
    with pytest.raises(PreconditionError, match="monic"):
        make_new_family(2, 1, parse_polynomial("3*s^2", XS), _xy("y^2"))
    with pytest.raises(PreconditionError, match="n >= 2"):
        make_new_family(1, 1, parse_polynomial("s^2", XS), _xy("y^2"))
    with pytest.raises(PreconditionError, match="no rational root"):
        make_new_family(2, 1, parse_polynomial("s^2", XS), _xy("y^2 + 1"))


def test_koras_russell_instance_data():
    inst = _kr2()
    assert inst.degrees == {"x": 0, "z": 0, "t": 1, "y": 2}
    assert inst.relation() == parse_polynomial(
        "y*(x^2 + z^2)^2 - t^2", inst.ring.ctx)
    assert inst.derivation.image_of("t") == \
        parse_polynomial("(x^2 + z^2)^2", inst.ring.ctx)
    with pytest.raises(PreconditionError, match="n, e, l >= 2"):
        make_koras_russell2(1, 2, 2, parse_polynomial("t^2", XZT))
    with pytest.raises(PreconditionError, match="deg_t Q >= 2"):
        make_koras_russell2(2, 2, 2, parse_polynomial("t + x", XZT))


def test_singular_at_origin():
    assert singular_at_origin(_dan2().relation())
    smooth = parse_polynomial("x - y^2", XY)
    assert not singular_at_origin(smooth)
    with pytest.raises(ValueError, match="origin"):
        singular_at_origin(_xy("x*y - 1"))


def test_expected_graded_relations_vanish():
    for inst in (_dan2(), _toy(), _kr2()):
        graded = inst.filtration.graded_presentation()
        for rel in inst.expected_graded_relations():
            assert graded.nf(rel).is_zero(), (inst.family, str(rel))


def test_bounded_search_danielewski():
    inst = _dan2()
    res = bounded_lnd_search(inst, image_degree_bound=4, nilp_bound=20)
    assert res.solution_dimension == 56
    assert res.rejected == 54
    assert res.trivial == 4
    assert len(res.candidates) == 4
    assert res.all_classified_canonical()
    factors = {str(c.factor) for c in res.candidates}
    assert factors == {"1/2", "1/2*x", "1/2*x^2", "1"}
    sources = [c.source for c in res.candidates]
    assert sources.count("canonical") == 1
    for c in res.candidates:
        assert c.certificate.max_order() == 2


def test_search_candidates_keep_their_orders(monkeypatch):
    # the search certifies a rational candidate on its denominator-cleared
    # multiple; the orders found there must stay with the reported derivation
    res = bounded_lnd_search(_dan2(), image_degree_bound=4, nilp_bound=20)
    assert any(any(isinstance(c, Fraction) for img in cand.derivation.images
                   for c in img.terms.values()) for cand in res.candidates)

    def no_iteration(*args, **kwargs):
        raise AssertionError("nilpotency orders were computed again")

    monkeypatch.setattr(Derivation, "_deg_reduced", no_iteration)
    for cand in res.candidates:
        assert cand.derivation.variable_orders() == cand.certificate.orders


def test_bounded_search_new_family():
    res = bounded_lnd_search(_toy(), image_degree_bound=3, nilp_bound=24)
    assert res.solution_dimension == 21
    # no basis vector is individually nilpotent here; only the canonical
    # derivation (appended when absent) survives
    assert len(res.candidates) == 1
    assert res.candidates[0].source == "canonical"
    assert str(res.candidates[0].factor) == "1"
    with pytest.raises(PreconditionError):
        bounded_lnd_search(_toy(), image_degree_bound=0, nilp_bound=24)


@pytest.mark.parametrize("make, f_text", [
    (_dan2, "3/2 - 2*x + x^2/3"),
    (_kr2, "x*z/2 - 3*z^2 + 2"),
    (_toy, "-x^2 + 5/4"),
])
def test_quotient_by_linear_solve(make, f_text):
    inst = make()
    ring = inst.ring
    plinth = ring.nf(inst.plinth_gen)
    f = parse_polynomial(f_text, ring.ctx)  # in the kernel variables
    target = ring.nf(f * plinth)
    got = _quotient_by_linear_solve(inst, target, plinth, 2)
    assert ring.nf(got * plinth - target).is_zero()
    assert got == f  # the rows nf(monomial * plinth) are independent
    # outside the span: the slice, and a kernel multiple above the bound
    s = ring.nf(inst.slice_elem)
    assert _quotient_by_linear_solve(inst, s, plinth, 2) is None
    x3 = ring.nf(ring.ctx.var("x") ** 3 * plinth)
    assert _quotient_by_linear_solve(inst, x3, plinth, 2) is None


def test_ml_evidence():
    inst = _dan2()
    res = bounded_lnd_search(inst, image_degree_bound=4, nilp_bound=20)
    ev = ml_evidence(inst, res, degree_cap=6)
    assert ev["equal"]
    # joint kernel on degree <= 6 is exactly 1, x, ..., x^6
    assert ev["computed_dimension"] == 7
    assert ev["predicted_dimension"] == 7
    assert ev["extra"] == [] and ev["missing"] == []


def test_verify_layer_formulas():
    # default cap: plinth degree * (max_degree // lowest degree > 1) + 2 + 4
    for inst, deg, cap in ((_dan2(), 12, 18), (_toy(), 12, 24), (_kr2(), 8, 22)):
        rep = verify_layer_formulas(inst, max_degree=deg)
        assert rep["mismatches"] == [], inst.family
        assert rep["probes"] > 100
        assert rep["coefficient_cap"] == cap, inst.family
