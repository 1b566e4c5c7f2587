"""Grammar, precedence, error positions and print/parse round trips."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from lndfilt import ideals, poly
from lndfilt.ideals import Budget, BudgetExhausted, _power_overrun
from lndfilt.parser import ParseError, parse_polynomial
from lndfilt.poly import Context, random_polynomial

CTX = Context(["x", "y", "z"])
X, Y, Z = CTX.gens()


def P(text):
    return parse_polynomial(text, CTX)


def test_precedence_and_grouping():
    assert P("x^2*y - (y^2 - x*z)^2") == X ** 2 * Y - (Y ** 2 - X * Z) ** 2
    assert P("x + y * z") == X + Y * Z
    assert P("-x^2") == -(X ** 2)
    assert P("(x + y)^2") == (X + Y) ** 2
    assert P("2*x - -y") == 2 * X + Y
    assert P("x - y + z") == X - Y + Z


def test_rational_literals():
    assert P("3/4") == CTX.const(Fraction(3, 4))
    assert P("3/4*x") == X * Fraction(3, 4)
    assert P("x/2") == X / 2
    assert P("1/3*x^2 - 2/5") == X ** 2 / 3 - CTX.const(Fraction(2, 5))


def test_whitespace_insensitive():
    assert P("x ^ 2 * y") == P("x^2*y") == X ** 2 * Y


def test_error_reports_position():
    with pytest.raises(ParseError) as e:
        P("x + ?")
    assert e.value.pos == 4
    with pytest.raises(ParseError, match="unknown variable"):
        P("x + w")
    with pytest.raises(ParseError, match="trailing"):
        P("x y")
    with pytest.raises(ParseError):
        P("x + ")
    with pytest.raises(ParseError):
        P("(x + y")


def test_divisor_must_be_nonzero_constant():
    with pytest.raises(ParseError, match="divisor"):
        P("x / y")
    with pytest.raises(ParseError, match="divisor"):
        P("x / 0")
    with pytest.raises(ParseError, match="divisor"):
        P("x / (y - y)")


def test_power_of_a_sum_is_bounded_by_the_steps_left():
    # (x + y + z)^2 may have C(4, 2) = 6 terms; the budget is read, not drawn
    with Budget(6) as b:
        assert P("(x + y + z)^2") == (X + Y + Z) ** 2
    assert b.left == 6
    with pytest.raises(BudgetExhausted, match=r"\(x \+ y \+ z\)\^2 may have"), \
            Budget(5):
        P("(x + y + z)^2")
    # one-term bases are never bounded
    with Budget(0):
        assert P("(2*z)^100") == 2 ** 100 * Z ** 100
    # the bound C(10^8 + 300, 300) is never formed in full
    with pytest.raises(BudgetExhausted):
        P("((x + y)^300)^100000000")


def test_power_of_a_sum_is_bounded_by_its_term_products():
    # (x + y)^10000 has 10,001 terms, within the default budget, but its
    # squarings alone form more than 16 million term products
    with pytest.raises(BudgetExhausted,
                       match=r"\(x\+y\)\^10000 may need more than 1000000 "
                             r"term products"):
        P("(x+y)^10000")
    with Budget(10 ** 8):  # a larger budget admits more products
        assert _power_overrun((X + Y).terms, 10000) is None
    # a small budget still admits a small power: the products are compared
    # with DEFAULT_BUDGET where fewer steps are left
    with Budget(0):
        assert _power_overrun((X + Y + Z).terms, 5) is None


@pytest.mark.parametrize("base", ["x + y", "x + y + z", "x*y - 2*z + 1",
                                  "(x + y)^2 + z"])
def test_power_product_count_bounds_binary_powering(monkeypatch, base):
    """The count `_power_overrun` compares is at least the term products
    `Polynomial.__pow__` forms: with a cap one below those, it objects."""
    formed = [0]
    mul_terms = poly._mul_terms

    def counted(a, b):
        formed[0] += len(a) * len(b)
        return mul_terms(a, b)

    b = P(base)
    monkeypatch.setattr(poly, "_mul_terms", counted)
    monkeypatch.setattr(ideals, "DEFAULT_BUDGET", 0)
    for e in range(2, 13):
        formed[0] = 0
        b ** e
        with Budget(formed[0] - 1):
            assert _power_overrun(b.terms, e) is not None, e


def test_fold_case_for_uppercase_input():
    assert parse_polynomial("X^2*Y", CTX, fold_case=True) == X ** 2 * Y
    with pytest.raises(ParseError):
        parse_polynomial("X^2*Y", CTX)


def test_roundtrip_500_random():
    rng = random.Random(909)
    for i in range(500):
        p = random_polynomial(CTX, rng, max_degree=5, max_terms=6)
        if i % 4 == 0:
            p = p / rng.choice([2, 3, 7])
        assert parse_polynomial(str(p), CTX) == p
