"""The one-variable saturation test of `binomial_prime` against elimination,
and the families that rely on it.

Where the basis rows have a strictly positive grading, `binomial_prime`
decides I : (x_1...x_n)^oo = I one variable at a time; elsewhere it answers
"inapplicable".  Hypothesis (test-only) draws small pure-difference
binomial ideals, and the one-variable route must agree with `saturate`
(tests/oracles.py), which eliminates t from I + (1 - t*x_1...x_n); the
module is skipped without hypothesis.  Elimination is the costly side: over
200 drawn ideals its steps ranged from 1 to over 30,000 (95% under 600), so
each example runs under one budget and an example that exhausts it is
rejected, not failed.

No family reaches the ungraded case: the initial ideal Jhat of a
Danielewski or new-family instance is a prime lattice ideal with a
positive grading, and KR2's is no binomial ideal (see `binomial_prime`).
"""

from __future__ import annotations

import pytest

from lndfilt.families import (make_danielewski, make_koras_russell2,
                              make_new_family)
from lndfilt.ideals import (Budget, BudgetExhausted, Ideal, _positive_grading,
                            binomial_prime, ideal_equal)
from lndfilt.poly import Context, Polynomial
from oracles import saturate
from test_certificate import _tail

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

NAMES = ("x", "y", "z", "w")
STEPS = 3000  # reduction steps per example, both routes and the oracle
NO_GRADING = "no strictly positive grading"


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


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
@hypothesis.given(_binomials())
# x^2 - 1: no positive grading, so the answer is inapplicable
@hypothesis.example((2, [((2, 0), (0, 0))]))
# x^2 - x*y: graded by (1, 1) and not saturated (x - y is in I : x)
@hypothesis.example((2, [((2, 0), (1, 1))]))
# x^2 - y^2: graded by (1, 1), saturated, elementary divisor 2
@hypothesis.example((2, [((2, 0), (0, 2))]))
# x*z - y^2 and x^2*y - w^2: graded by (2, 2, 2, 3)
@hypothesis.example((4, [((1, 0, 1, 0), (0, 2, 0, 0)),
                         ((2, 1, 0, 0), (0, 0, 0, 2))]))
def test_variablewise_saturation_matches_elimination(case):
    n, pairs = case
    ideal = _ideal(n, pairs)
    # the generators' rows span the lattice of the reduced basis's rows,
    # so they have a positive grading exactly when those do
    rows = [[a - b for a, b in zip(u, v)] for u, v in pairs]
    if _positive_grading(rows, n) is None:
        got = binomial_prime(ideal)
        assert got.status == "inapplicable", case
        assert NO_GRADING in got.reason, case
        return
    try:
        with Budget(STEPS):
            got = binomial_prime(ideal)
            sat = saturate(ideal, ideal.ctx.monomial((1,) * n))
            saturated = ideal_equal(sat, ideal)
    except BudgetExhausted:
        hypothesis.reject()
    # a pure-difference ideal vanishes at (1, ..., 1), so its reduced basis
    # holds no monomial: only an unsaturated ideal is inapplicable
    assert (got.status != "inapplicable") == saturated, case
    assert got.saturation_certified == saturated, case


# ------------------------------------------------------------ families

def _draw_family(data):
    kind = data.draw(st.sampled_from(["danielewski", "new", "kr2"]))
    if kind == "danielewski":
        n, m = data.draw(st.integers(2, 4)), data.draw(st.integers(2, 4))
        P = data.draw(_tail(("x", "y"), (0, m),
                            [(j, k) for j in (1, 2) for k in range(m)]))
        return kind, make_danielewski(n, P)
    if kind == "new":
        n, e = data.draw(st.integers(2, 4)), data.draw(st.integers(1, 3))
        d, m = data.draw(st.integers(2, 4)), data.draw(st.integers(1, 3))
        P = data.draw(_tail(("x", "s"), (0, d),
                            [(j, k) for j in (1, 2) for k in range(d)]))
        Q = data.draw(_tail(("x", "y"), (0, m), [(1, k) for k in range(m)]))
        return kind, make_new_family(n, e, P, Q)
    n, e, l = data.draw(st.sampled_from([(2, 2, 2), (2, 3, 2), (3, 2, 2)]))
    m = data.draw(st.integers(2, 3))
    support = [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1), (0, 0, 1)]
    Q = data.draw(_tail(("x", "z", "t"), (0, 0, m), support))
    return kind, make_koras_russell2(n, e, l, Q)


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
@hypothesis.given(st.data())
def test_every_family_jhat_is_graded_or_not_binomial(data):
    """binomial_prime on each family's Jhat never needs the ungraded case:
    Danielewski and the new family are certified prime, KR2 is no
    binomial ideal."""
    kind, inst = _draw_family(data)
    fs = inst.filtration
    got = binomial_prime(fs.initial_ideal_hat(), fs.j_order)
    if kind == "kr2":
        assert got.status == "inapplicable", inst
        assert "is not a binomial" in got.reason, inst
    else:
        assert got.status == "prime", (inst, got.reason)
        assert got.saturation_certified, inst
