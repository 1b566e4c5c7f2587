"""Exact linear algebra: kernels, spans, Smith form, rational roots.

The Smith normal form is cross-checked against an independent oracle
computing determinantal divisors (gcd of all i x i minors), which pins the
elementary divisors without performing any of the same row operations.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

from lndfilt.linalg import (Echelon, integer_kth_root, nullspace,
                            rational_kth_root, rational_roots,
                            smith_normal_form, smith_with_transforms,
                            solve_combination)


def _minor_gcds(mat):
    """Determinantal divisors D_1, D_2, ... (gcd of all i x i minors)."""
    m, n = len(mat), len(mat[0])
    out = []
    for size in range(1, min(m, n) + 1):
        g = 0
        for rows in itertools.combinations(range(m), size):
            for cols in itertools.combinations(range(n), size):
                sub = [[mat[i][j] for j in cols] for i in rows]
                g = math.gcd(g, _int_det(sub))
        if g == 0:
            break
        out.append(g)
    return out


def _int_det(a):
    """Exact determinant over Q via Gaussian elimination on Fractions."""
    a = [[Fraction(x) for x in row] for row in a]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] * inv
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    assert det.denominator == 1
    return int(det)


def oracle_divisors(mat):
    dd = _minor_gcds(mat)
    out = []
    prev = 1
    for d in dd:
        out.append(d // prev)
        prev = d
    return out


def test_smith_frozen_cases():
    assert smith_normal_form([[2, 1, 0, -2], [-1, 2, -1, 0]]) == [1, 1]
    assert smith_normal_form([[2, -2]]) == [2]
    assert smith_normal_form([[2, 0], [0, 2]]) == [2, 2]
    assert smith_normal_form([[0, 0], [0, 0]]) == []
    assert smith_normal_form([[6, 4], [4, 6]]) == [2, 10]


def test_smith_against_minor_oracle_random():
    rng = random.Random(42)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        mat = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        assert smith_normal_form(mat) == oracle_divisors(mat)


def test_smith_transforms_are_unimodular():
    rng = random.Random(43)
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        mat = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        u, d, v = smith_with_transforms(mat)
        assert abs(_int_det(u)) == 1
        assert abs(_int_det(v)) == 1
        prod = [[sum(u[i][k] * mat[k][j] for k in range(m)) for j in range(n)]
                for i in range(m)]
        prod = [[sum(prod[i][k] * v[k][j] for k in range(n)) for j in range(n)]
                for i in range(m)]
        assert prod == d
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert d[i][j] == 0
        diag = [d[i][i] for i in range(min(m, n)) if d[i][i]]
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0


# Pinned (U, D, V): `iso` reads its scalings off U and V, so a change in the
# order of the row and column operations must show here
SMITH_PINNED = [
    ([[2, 0], [0, 3]],
     ([[-1, 1], [-3, 2]], [[1, 0], [0, 6]], [[1, -3], [1, -2]])),
    ([[6, 4], [4, 6]],
     ([[0, 1], [1, 1]], [[2, 0], [0, 10]], [[-1, 3], [1, -2]])),
    ([[2, 1, 0, -2], [-1, 2, -1, 0]],
     ([[1, 1], [1, 2]], [[1, 0, 0, 0], [0, 1, 0, 0]],
      [[1, 0, -3, -2], [0, 1, -4, -2], [0, 1, -5, -2], [0, 1, -5, -3]])),
    ([[0, 0, 4], [6, 0, 0]],
     ([[-1, 1], [-3, 2]], [[2, 0, 0], [0, 12, 0]],
      [[1, -2, 0], [0, 0, 1], [1, -3, 0]])),
    ([[2, 0, 0], [0, 3, 0], [0, 0, 5]],
     ([[-1, 1, 0], [-3, 2, -1], [15, -10, 6]],
      [[1, 0, 0], [0, 1, 0], [0, 0, 30]],
      [[1, -3, -15], [1, -2, -10], [0, 1, 6]])),
    ([[4, -6, 2], [3, 9, -3], [0, 5, 10]],
     ([[1, -1, 0], [231, -308, 769], [465, -620, 1548]],
      [[1, 0, 0], [0, 1, 0], [0, 0, 630]],
      [[1, -430, 134575], [0, -29, 9076], [0, -1, 313]])),
    ([[-2, 0], [0, -3]],
     ([[1, -1], [3, -2]], [[1, 0], [0, 6]], [[1, -3], [1, -2]])),
    ([[0, -5]], ([[-1]], [[5, 0]], [[0, 1], [1, 0]])),
    ([[3], [-7]], ([[-2, -1], [7, 3]], [[1], [0]], [[1]])),
    ([[-4, 6], [10, -3]],
     ([[-3, -1], [-77, -26]], [[1, 0], [0, 48]], [[8, -15], [1, -2]])),
]


@pytest.mark.parametrize("mat, udv", SMITH_PINNED)
def test_smith_transforms_pinned(mat, udv):
    assert smith_with_transforms(mat) == udv


def test_nullspace_vectors_solve():
    rng = random.Random(44)
    for _ in range(30):
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)]
                for _ in range(m)]
        basis = nullspace([_sparse(row) for row in rows], n)
        for v in basis:
            for row in rows:
                assert sum(c * x for c, x in zip(row, v)) == 0
        # rank-nullity against an independent rank count
        rank = _rank(rows)
        assert len(basis) == n - rank


def _sparse(row):
    return {j: c for j, c in enumerate(row) if c}


def _rank(rows):
    a = [row[:] for row in rows]
    n = len(a[0]) if a else 0
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        a[rank] = [x / a[rank][col] for x in a[rank]]
        for r in range(len(a)):
            if r != rank and a[r][col]:
                a[r] = [x - a[r][col] * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def test_solve_combination():
    rows = [{0: Fraction(1), 2: Fraction(1)}, {1: Fraction(1), 2: Fraction(1)}]
    target = {0: Fraction(2), 1: Fraction(3), 2: Fraction(5)}
    coeffs = solve_combination(rows, target)
    assert coeffs == [2, 3]
    assert solve_combination(rows, {0: Fraction(1), 1: Fraction(1)}) is None
    assert solve_combination([], {}) == []
    assert solve_combination([], {0: Fraction(1)}) is None


def test_sparse_span_membership():
    span = Echelon()
    assert span.dim() == 0
    assert span.add({("a",): Fraction(1), ("b",): Fraction(1)})
    assert span.add({("b",): Fraction(2)})
    assert not span.add({("a",): Fraction(3), ("b",): Fraction(-1)})
    assert span.dim() == 2
    assert span.contains({("a",): Fraction(5)})
    assert not span.contains({("c",): Fraction(1)})
    assert span.contains({})


def test_echelon_is_reduced_and_tracks_tags():
    span = Echelon()
    assert span.add({2: 1, 3: 4}, tag="p")
    assert span.add({0: 2, 2: 1}, tag="q")
    assert span.add({1: 1, 2: 2, 3: 1}, tag="r")
    # pivots are the smallest columns, each cleared from the other rows
    assert span.rows == {0: {0: 1, 3: -2}, 1: {1: 1, 3: -7}, 2: {2: 1, 3: 4}}
    added = {"p": {2: 1, 3: 4}, "q": {0: 2, 2: 1}, "r": {1: 1, 2: 2, 3: 1}}
    for piv, combo in span.combos.items():
        total: dict = {}
        for tag, c in combo.items():
            for k, v in added[tag].items():
                total[k] = total.get(k, 0) + c * v
        assert {k: v for k, v in total.items() if v} == span.rows[piv]
    rest, combo = span.reduce({0: 1, 3: 5})
    assert rest == {3: 7} and combo == {"p": Fraction(-1, 2), "q": Fraction(1, 2)}


def test_integer_and_rational_roots():
    assert integer_kth_root(27, 3) == 3
    assert integer_kth_root(28, 3) is None
    assert integer_kth_root(1, 7) == 1
    assert rational_kth_root(Fraction(8, 27), 3) == Fraction(2, 3)
    assert rational_kth_root(Fraction(-8, 27), 3) == Fraction(-2, 3)
    assert rational_kth_root(Fraction(-4), 2) is None
    assert rational_kth_root(Fraction(2), 2) is None
    assert rational_kth_root(Fraction(0), 5) == 0


def test_rational_roots_of_polynomials():
    # 6 T^2 - 5 T + 1 = (2T - 1)(3T - 1)
    assert sorted(rational_roots([1, -5, 6])) == [Fraction(1, 3), Fraction(1, 2)]
    # T^3 - T
    assert sorted(rational_roots([0, -1, 0, 1])) == [-1, 0, 1]
    # T^2 + 1 has no rational roots
    assert rational_roots([1, 0, 1]) == []
    assert rational_roots([5]) == []
    # rational coefficients are cleared first
    assert rational_roots([Fraction(1, 2), Fraction(3, 2)]) == [Fraction(-1, 3)]
    with pytest.raises(ValueError):
        rational_roots([0, 0])


def test_rational_roots_random_products():
    rng = random.Random(45)
    for _ in range(40):
        roots = sorted({Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                        for _ in range(rng.randint(1, 3))})
        coeffs = [Fraction(1)]
        for r in roots:
            # multiply by (T - r)
            nxt = [Fraction(0)] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i + 1] += c
                nxt[i] -= c * r
            coeffs = nxt
        found = sorted(rational_roots(coeffs))
        assert found == roots
