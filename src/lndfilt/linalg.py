"""Exact linear algebra: one sparse eliminator over Q, integer Smith form.

Every linear step over Q goes through `Echelon`, a sparse Gauss-Jordan
basis.  A row is a dict column -> coefficient with mutually sortable
column keys (ints, or monomial tuples, so a polynomial's `terms` already is
a row).  The pivot of a new row is its smallest column, and each new pivot
is cleared from every stored row, so the stored rows are the unique reduced
row echelon basis of their span.  `nullspace` and `solve_combination` are
thin entry points on it.  The Smith form works on dense integer lists;
matrices there are desk scale, so the cubic algorithm is fine.
"""

from __future__ import annotations

import math
from fractions import Fraction


# ------------------------------------------------------------ over Q

def _axpy(dst: dict, f, src: dict):
    """dst += f * src, dropping entries that cancel."""
    for k, v in src.items():
        nv = dst.get(k, 0) + f * v
        if nv:
            dst[k] = nv
        else:
            dst.pop(k, None)


class Echelon:
    """Reduced row echelon basis of a growing span of sparse rows over Q.

    `rows` maps each pivot column to its stored row, which has 1 there and
    0 in every other pivot column.  A row added with a tag is tracked:
    `combos` maps each pivot to the stored row written as {tag: coefficient}
    over the tagged rows added so far.
    """

    def __init__(self):
        self.rows: dict = {}
        self.combos: dict = {}
        # column -> pivots of the stored rows that are nonzero there, so a
        # new pivot is cleared without scanning every stored row
        self._holders: dict = {}

    def reduce(self, row):
        """(rest, combo): rest is row minus the combination combo of added
        rows that clears every pivot column; row is in the span iff rest is
        empty."""
        rest = {k: Fraction(v) for k, v in row.items() if v}
        combo: dict = {}
        # stored rows are zero in each other's pivots, so one pass suffices
        for piv in [k for k in rest if k in self.rows]:
            f = rest[piv]
            _axpy(rest, -f, self.rows[piv])
            _axpy(combo, f, self.combos[piv])
        return rest, combo

    def contains(self, row) -> bool:
        return not self.reduce(row)[0]

    def add(self, row, tag=None) -> bool:
        """Insert a row; returns True when it enlarged the span."""
        rest, removed = self.reduce(row)
        if not rest:
            return False
        piv = min(rest)
        inv = Fraction(1, rest[piv])
        combo = {} if tag is None else {tag: inv}
        _axpy(combo, -inv, removed)
        rest = {k: v * inv for k, v in rest.items()}
        holders = self._holders
        for p in list(holders.get(piv, ())):
            other = self.rows[p]
            f = other[piv]
            for k, v in rest.items():
                nv = other.get(k, 0) - f * v
                if nv:
                    if k not in other:
                        holders.setdefault(k, set()).add(p)
                    other[k] = nv
                else:
                    del other[k]
                    holders[k].discard(p)
            _axpy(self.combos[p], -f, combo)
        for k in rest:
            holders.setdefault(k, set()).add(piv)
        self.rows[piv] = rest
        self.combos[piv] = combo
        return True

    def dim(self) -> int:
        return len(self.rows)


def nullspace(rows, ncols):
    """Basis of the right nullspace of sparse rows over columns 0..ncols-1.

    One dense Fraction vector per free column, in increasing order: 1 at
    the free column, minus the RREF entry of that column at each pivot.
    """
    ech = Echelon()
    for row in rows:
        ech.add(row)
    basis = []
    for fc in range(ncols):
        if fc in ech.rows:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for pc, row in ech.rows.items():
            if fc in row:
                vec[pc] = -row[fc]
        basis.append(vec)
    return basis


def solve_combination(rows, target):
    """Coefficients c with sum c[i] * rows[i] == target, or None when the
    target is outside the span.  Rows and target are sparse; with
    independent rows the coefficients are unique."""
    ech = Echelon()
    for i, row in enumerate(rows):
        ech.add(row, tag=i)
    rest, combo = ech.reduce(target)
    if rest:
        return None
    return [combo.get(i, Fraction(0)) for i in range(len(rows))]


# ------------------------------------------------------------ over Z

def smith_normal_form(mat):
    """Nonzero elementary divisors of an integer matrix, in chain order."""
    if not mat or not mat[0]:
        return []
    _, d, _ = smith_with_transforms(mat)
    return [abs(d[i][i]) for i in range(min(len(d), len(d[0]))) if d[i][i]]


def smith_with_transforms(mat):
    """(U, D, V) with U*mat*V = D in Smith form, U and V unimodular."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    a = [list(map(int, row)) for row in mat]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_op(i, k, q):  # row i -= q * row k
        a[i] = [x - q * y for x, y in zip(a[i], a[k])]
        u[i] = [x - q * y for x, y in zip(u[i], u[k])]

    def col_op(j, k, q):  # col j -= q * col k
        for row in a:
            row[j] -= q * row[k]
        for row in v:
            row[j] -= q * row[k]

    def row_swap(i, k):
        a[i], a[k] = a[k], a[i]
        u[i], u[k] = u[k], u[i]

    def col_swap(j, k):
        for row in a:
            row[j], row[k] = row[k], row[j]
        for row in v:
            row[j], row[k] = row[k], row[j]

    def clear(r):
        """Clear row and column r off the diagonal; make a[r][r] >= 0."""
        while True:
            done = True
            for i in range(m):
                if i != r and a[i][r]:
                    row_op(i, r, a[i][r] // a[r][r])
                    if a[i][r]:
                        row_swap(r, i)
                        done = False
            for j in range(n):
                if j != r and a[r][j]:
                    col_op(j, r, a[r][j] // a[r][r])
                    if a[r][j]:
                        col_swap(r, j)
                        done = False
            if done:
                break
        fix_sign(r)

    def fix_sign(r):
        if a[r][r] < 0:
            a[r] = [-x for x in a[r]]
            u[r] = [-x for x in u[r]]

    r = 0
    while r < min(m, n):
        found = None
        for i in range(r, m):
            for j in range(r, n):
                if a[i][j]:
                    found = (i, j)
                    break
            if found:
                break
        if not found:
            break
        i, j = found
        if i != r:
            row_swap(r, i)
        if j != r:
            col_swap(r, j)
        clear(r)
        r += 1
    # divisibility chain, keeping transforms in sync
    for _ in range(r):
        for i in range(r - 1):
            x, y = a[i][i], a[i + 1][i + 1]
            if x and y % x:
                # standard 2x2 trick: add col i+1 to col i, then reduce
                col_op(i, i + 1, -1)
                clear(i)
                fix_sign(i + 1)
    return u, a, v


def integer_kth_root(n: int, k: int):
    """Exact k-th root of a nonnegative integer, or None."""
    if n < 0 or k < 1:
        raise ValueError("bad root arguments")
    if n in (0, 1) or k == 1:
        return n
    lo, hi = 0, 1
    while hi ** k <= n:
        hi *= 2
    while lo < hi - 1:
        mid = (lo + hi) // 2
        if mid ** k <= n:
            lo = mid
        else:
            hi = mid
    return lo if lo ** k == n else None


def rational_kth_root(q: Fraction, k: int):
    """Exact k-th root of a rational, or None when it is irrational."""
    if k < 1:
        raise ValueError("bad root order")
    if q == 0:
        return Fraction(0)
    neg = q < 0
    if neg and k % 2 == 0:
        return None
    num = integer_kth_root(abs(q.numerator), k)
    den = integer_kth_root(q.denominator, k)
    if num is None or den is None:
        return None
    root = Fraction(num, den)
    return -root if neg else root


def rational_roots(coeffs):
    """All rational roots of sum coeffs[i] * T^i, coefficients rational.

    Uses the rational root bound on the integer-cleared polynomial; the
    zero polynomial is rejected rather than reporting everything.
    """
    coeffs = [Fraction(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        raise ValueError("zero polynomial has every root")
    if len(coeffs) == 1:
        return []
    scale = 1
    for c in coeffs:
        scale = scale * c.denominator // math.gcd(scale, c.denominator)
    ints = [int(c * scale) for c in coeffs]
    low = 0
    while ints[low] == 0:
        low += 1
    roots = [Fraction(0)] if low > 0 else []
    a0, an = abs(ints[low]), abs(ints[-1])
    for p in _divisors(a0):
        for q in _divisors(an):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand in roots:
                    continue
                if sum(c * cand ** i for i, c in enumerate(coeffs)) == 0:
                    roots.append(cand)
    return roots


def _divisors(n: int):
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)
