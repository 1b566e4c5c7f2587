"""The one-variable saturation test of `binomial_prime` against elimination.

Where the basis rows have a strictly positive grading, `binomial_prime`
decides I : (x_1...x_n)^oo = I one variable at a time; elsewhere it
eliminates t from I + (1 - t*x_1...x_n).  Hypothesis (test-only) draws
small pure-difference binomial ideals, and both routes must agree; the
module is skipped without it.  Elimination is the costly side: over 200
drawn ideals its steps ranged from 1 to over 30,000 (95% under 600), so
each example runs under one budget and an example that exhausts it is
rejected, not failed.
"""

from __future__ import annotations

import pytest

from lndfilt import ideals
from lndfilt.ideals import (Budget, BudgetExhausted, Ideal, binomial_prime,
                            ideal_equal, product_of_variables, saturate)
from lndfilt.poly import Context, Polynomial

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

NAMES = ("x", "y", "z", "w")
STEPS = 3000  # reduction steps per example, both routes and the oracle


@st.composite
def _binomials(draw):
    """(n, [(u, v), ...]): 1 to 3 pairs of distinct exponent vectors in n
    variables, entries 0 to 3, each standing for x^u - x^v.  Half the
    draws take v a permutation of u, so the ideal is graded by (1, ..., 1)
    and the one-variable route runs."""
    n = draw(st.integers(2, 4))
    expo = st.tuples(*[st.integers(0, 3)] * n)
    homogeneous = draw(st.booleans())
    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        u = draw(expo)
        v = tuple(draw(st.permutations(u))) if homogeneous else draw(expo)
        hypothesis.assume(u != v)
        pairs.append((u, v))
    return n, pairs


def _ideal(n, pairs):
    ctx = Context(NAMES[:n])
    return Ideal(ctx, [Polynomial(ctx, {u: 1, v: -1}) for u, v in pairs])


def _by_elimination(ideal):
    """binomial_prime with the positive grading withheld, so it saturates
    through `saturate` and `ideal_equal`."""
    grading = ideals._positive_grading
    ideals._positive_grading = lambda rows, n: None
    try:
        return binomial_prime(ideal)
    finally:
        ideals._positive_grading = grading


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
@hypothesis.given(_binomials())
# x^2 - 1: no positive grading, so both calls take the elimination route
@hypothesis.example((2, [((2, 0), (0, 0))]))
# x^2 - x*y: graded by (1, 1) and not saturated (x - y is in I : x)
@hypothesis.example((2, [((2, 0), (1, 1))]))
# x^2 - y^2: graded by (1, 1), saturated, elementary divisor 2
@hypothesis.example((2, [((2, 0), (0, 2))]))
# x*z - y^2 and x^2*y - w^2: graded by (2, 2, 2, 3)
@hypothesis.example((4, [((1, 0, 1, 0), (0, 2, 0, 0)),
                         ((2, 1, 0, 0), (0, 0, 0, 2))]))
def test_variablewise_saturation_matches_elimination(case):
    ideal = _ideal(*case)
    try:
        with Budget(STEPS):
            got = binomial_prime(ideal)
            sat = saturate(ideal, product_of_variables(ideal.ctx))
            oracle = _by_elimination(ideal)
    except BudgetExhausted:
        hypothesis.reject()
    # a pure-difference ideal vanishes at (1, ..., 1), so its reduced basis
    # holds no monomial: only an unsaturated ideal is inapplicable
    saturated = got.status != "inapplicable"
    assert saturated == ideal_equal(sat, ideal), case
    assert got == oracle, case
