"""Differential tests of the sparse eliminator against sympy.

sympy and hypothesis are test-only dependencies: the module is skipped
without them, and the lndfilt package itself never imports either.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from lndfilt.linalg import Echelon, nullspace, solve_combination  # noqa: E402


def _random_rows(rng, m, n, density):
    rows = []
    for _ in range(m):
        row = {}
        for j in range(n):
            if rng.random() < density:
                c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                if c:
                    row[j] = c
        rows.append(row)
    return rows


def _matrix(rows, n):
    return sympy.Matrix(len(rows), n, [sympy.Rational(row.get(j, 0))
                                       for row in rows for j in range(n)])


def _fractions(vec):
    return [Fraction(int(x.p), int(x.q)) for x in vec]


def test_nullspace_matches_sympy():
    rng = random.Random(2024)
    for _ in range(80):
        m, n = rng.randint(1, 7), rng.randint(1, 8)
        rows = _random_rows(rng, m, n, rng.choice([0.2, 0.4, 0.7]))
        want = [_fractions(v) for v in _matrix(rows, n).nullspace()]
        assert nullspace(rows, n) == want


def test_solve_combination_matches_gauss_jordan():
    rng = random.Random(2025)
    outside = 0
    for _ in range(80):
        n = rng.randint(1, 7)
        rows = _random_rows(rng, rng.randint(0, 5), n, 0.5)
        if rng.random() < 0.5:
            # a target inside the span
            coeffs = [Fraction(rng.randint(-3, 3)) for _ in rows]
            target = {}
            for c, row in zip(coeffs, rows):
                for j, v in row.items():
                    target[j] = target.get(j, 0) + c * v
            target = {j: v for j, v in target.items() if v}
        else:
            target = _random_rows(rng, 1, n, 0.5)[0]
        got = solve_combination(rows, target)
        a = _matrix(rows, n).T
        b = _matrix([target], n).T
        independent = a.rank() == len(rows)
        try:
            sol, params = a.gauss_jordan_solve(b)
        except ValueError:
            assert got is None
            outside += 1
            continue
        assert got is not None
        if independent:
            assert params.shape[0] == 0
            assert got == _fractions(sol)
        else:
            # dependent rows: any combination that hits the target
            hit = {}
            for c, row in zip(got, rows):
                for j, v in row.items():
                    hit[j] = hit.get(j, 0) + c * v
            assert {j: v for j, v in hit.items() if v} == target
    assert outside > 5


@st.composite
def _rows_and_probe(draw):
    n = draw(st.integers(1, 6))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    row = st.dictionaries(st.integers(0, n - 1), entry, max_size=n)
    rows = draw(st.lists(row, max_size=6))
    return n, rows, draw(row)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(_rows_and_probe())
def test_echelon_dim_and_contains_match_rank(data):
    n, rows, probe = data
    span = Echelon()
    grew = [span.add(row) for row in rows]
    rank = _matrix(rows, n).rank()
    assert span.dim() == rank == sum(grew)
    with_probe = _matrix(rows + [probe], n).rank()
    assert span.contains(probe) == (with_probe == rank)
