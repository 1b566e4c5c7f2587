"""Groebner engine: orders, normal forms, elimination, binomial primality."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from lndfilt.ideals import (Budget, BudgetExhausted, Ideal, MonomialOrder,
                            binomial_prime, buchberger, eliminate,
                            exact_quotient, ideal_equal, initial_ideal,
                            leading_monomial, leading_term, member, monic,
                            nf_against, normal_form, saturate)
from lndfilt.parser import parse_polynomial
from lndfilt.poly import Context, random_polynomial

XYZ = Context(("x", "y", "z"))
XYZS = Context(("x", "y", "z", "s"))


def _p(text, ctx=XYZ):
    return parse_polynomial(text, ctx)


def _toy_ideal():
    """Relation and slice definition for the running quartic example."""
    return Ideal(XYZS, [_p("x^2*y - s^2", XYZS), _p("s - y^2 + x*z", XYZS)])


def _generator_key(order, m):
    """The order key written out field by field: the oracle."""
    tie = tuple(m[i] for i in order.perm)
    if order.kind == "lex":
        return tie
    if order.kind == "grlex":
        return (sum(m),) + tie
    return (sum(e * w for e, w in zip(m, order.weights)),) + tie


def test_precomputed_keys_match_the_field_by_field_key():
    rng = random.Random(5)
    for n in range(4):
        perm = rng.sample(range(n), n)
        for order in (MonomialOrder.lex(n, perm), MonomialOrder.grlex(n, perm),
                      MonomialOrder.weight([rng.randint(0, 3) for _ in range(n)],
                                           perm)):
            for _ in range(20):
                m = tuple(rng.randint(0, 4) for _ in range(n))
                assert order.key(m) == _generator_key(order, m)
                assert type(order.key(m)) is tuple


def test_order_keys():
    lex = MonomialOrder.lex(3)
    grlex = MonomialOrder.grlex(3)
    wt = MonomialOrder.weight([2, 1, 1])
    x, y2 = (1, 0, 0), (0, 2, 0)
    assert lex.key(x) > lex.key(y2)
    assert grlex.key(y2) > grlex.key(x)
    assert wt.key(x) > wt.key((0, 1, 0))
    # permutation changes the tiebreak
    zlast = MonomialOrder.lex(3, perm=[2, 0, 1])
    assert zlast.key((0, 0, 1)) > zlast.key((1, 0, 0))
    with pytest.raises(ValueError):
        MonomialOrder("weird", range(3))
    with pytest.raises(ValueError):
        MonomialOrder("weight", range(3))
    with pytest.raises(ValueError):
        MonomialOrder.weight([1, -1, 0])
    # a tie-break that skips a variable would give two monomials one key
    with pytest.raises(ValueError):
        MonomialOrder.lex(3, perm=[0, 0, 1])


def test_leading_data_and_monic():
    order = MonomialOrder.grlex(3)
    p = _p("3*x*y^2 + x^2 - 5")
    assert leading_monomial(p, order) == (1, 2, 0)
    m, c = leading_term(p, order)
    assert (m, c) == ((1, 2, 0), Fraction(3))
    assert monic(p, order) == _p("x*y^2 + 1/3*x^2 - 5/3")


def test_member_via_cofactor_identity():
    ideal = _toy_ideal()
    rng = random.Random(77)
    for _ in range(20):
        f1 = random_polynomial(XYZS, rng, max_degree=2, max_terms=3)
        f2 = random_polynomial(XYZS, rng, max_degree=2, max_terms=3)
        combo = f1 * ideal.gens[0] + f2 * ideal.gens[1]
        assert member(combo, ideal)
        assert not member(combo + 1, ideal)
    assert member(XYZS.zero(), ideal)
    assert not member(XYZS.one(), ideal)


def test_normal_form_idempotent():
    ideal = _toy_ideal()
    order = MonomialOrder.grlex(4)
    rng = random.Random(78)
    for _ in range(20):
        p = random_polynomial(XYZS, rng, max_degree=3, max_terms=4)
        r = normal_form(p, ideal, order)
        assert normal_form(r, ideal, order) == r
        assert member(p - r, ideal)


def test_normal_form_under_lex_rewrites_main_monomial():
    # under lex (x first) the leading monomial of the relation is x^2*y,
    # so the normal form rewrites it into the square of the slice body
    ideal = Ideal(XYZ, [_p("x^2*y - (y^2 - x*z)^2")])
    lex = MonomialOrder.lex(3)
    assert normal_form(_p("x^2*y"), ideal, lex) == _p("(y^2 - x*z)^2")
    # the graded-degree order leaves x^2*y untouched instead
    grlex = MonomialOrder.grlex(3)
    assert normal_form(_p("x^2*y"), ideal, grlex) == _p("x^2*y")


def test_buchberger_closes_s_polynomials():
    order = MonomialOrder.grlex(3)
    gens = [_p("x^2 - y"), _p("x*y - z")]
    gb = buchberger(gens, order)
    # y^2 - x*z is an S-polynomial consequence
    assert member(_p("y^2 - x*z"), Ideal(XYZ, gens))
    for g in gens:
        assert nf_against(g, gb, order).is_zero()


def test_eliminate():
    ideal = Ideal(XYZ, [_p("y - x^2"), _p("z - y^2")])
    out = eliminate(ideal, ["y"])
    assert set(out.ctx.names) == {"x", "z"}
    xz = out.ctx
    expected = Ideal(xz, [parse_polynomial("z - x^4", xz)])
    assert ideal_equal(out, expected)


def test_saturate():
    xy = Context(("x", "y"))
    ideal = Ideal(xy, [parse_polynomial("x*y", xy)])
    sat = saturate(ideal, xy.var("x"))
    assert ideal_equal(sat, Ideal(xy, [xy.var("y")]))
    # already-saturated ideals are unchanged
    prime = Ideal(xy, [parse_polynomial("y^2 - x", xy)])
    assert ideal_equal(saturate(prime, xy.var("x")), prime)


def test_initial_ideal_of_toy_relations():
    ideal = _toy_ideal()
    hat = initial_ideal(ideal, [0, 2, 4, 1])
    expected = Ideal(XYZS, [_p("s^2 - x^2*y", XYZS), _p("y^2 - x*z", XYZS)])
    assert ideal_equal(hat, expected)


def test_binomial_prime_on_toy_initial_ideal():
    hat = initial_ideal(_toy_ideal(), [0, 2, 4, 1])
    res = binomial_prime(hat)
    assert res.status == "prime"
    assert bool(res)
    assert res.divisors == [1, 1]
    assert res.saturation_certified


def test_binomial_not_prime():
    xy = Context(("x", "y"))
    res = binomial_prime(Ideal(xy, [parse_polynomial("x^2 - y^2", xy)]))
    assert res.status == "not-prime"
    assert not res
    assert 2 in res.divisors


def test_monomial_of_degree_two_is_not_prime():
    xy = Context(("x", "y"))
    res = binomial_prime(Ideal(xy, [parse_polynomial("x*y", xy)]))
    assert res.status == "not-prime"
    assert "monomial" in res.reason
    assert binomial_prime(Ideal(xy, [parse_polynomial("x^2", xy)])).status \
        == "not-prime"
    # a variable alone generates a prime ideal; the test does not apply
    assert binomial_prime(Ideal(xy, [parse_polynomial("x", xy)])).status \
        == "inapplicable"


def test_variablewise_saturation_shifts_the_weight():
    # graded by w = (1, 1, 1); under weight(w) with the lex tie-break the
    # leading monomial would be x*z and z would look like a zero divisor,
    # but w - e_z ranks y^2 first, the term with fewer z
    res = binomial_prime(Ideal(XYZ, [_p("x*z - y^2")]))
    assert res.status == "prime"
    assert res.divisors == [1]
    assert res.saturation_certified


def test_binomial_inapplicable_cases():
    xy = Context(("x", "y"))
    tri = binomial_prime(Ideal(xy, [parse_polynomial("x^2 + x*y + y^2", xy)]))
    assert tri.status == "inapplicable"
    assert "binomial" in tri.reason
    scaled = binomial_prime(Ideal(xy, [parse_polynomial("x^2 - 2*y", xy)]))
    assert scaled.status == "inapplicable"
    assert "pure difference" in scaled.reason
    unsat = binomial_prime(Ideal(xy, [parse_polynomial("x^2 - x*y", xy)]))
    assert unsat.status == "inapplicable"
    assert "saturated" in unsat.reason


def test_budget_exhaustion():
    with pytest.raises(BudgetExhausted), Budget(1):
        _toy_ideal().groebner(MonomialOrder.grlex(4))
    # a fresh generous budget succeeds on the same ideal
    with Budget(100000):
        gb = _toy_ideal().groebner(MonomialOrder.grlex(4))
    assert gb


def test_exact_quotient():
    assert exact_quotient(_p("x^2 - y^2"), _p("x + y")) == _p("x - y")
    assert exact_quotient(_p("x^2 + y"), _p("x")) is None
    assert exact_quotient(XYZ.zero(), _p("x")) == XYZ.zero()
    with pytest.raises(ZeroDivisionError):
        exact_quotient(_p("x"), XYZ.zero())


def test_ideal_equal_different_generators():
    a = Ideal(XYZ, [_p("x + y"), _p("y + z")])
    b = Ideal(XYZ, [_p("x - z"), _p("y + z"), _p("x + 2*y + z")])
    assert ideal_equal(a, b)
    assert not ideal_equal(a, Ideal(XYZ, [_p("x + y")]))
