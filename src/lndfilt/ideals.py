"""Groebner bases over Q and the ideal operations built on them.

Buchberger with the normal selection strategy (no sugar), full reduction and
final autoreduction.  A step budget bounds the number of single-term
reductions; hitting it raises BudgetExhausted, so a too-small budget can only
ever produce an explicit failure, never a wrong basis.

The budget is ambient: inside `with Budget(n):` (a `contextvars` slot) every
reduction, in `nf_against`, `buchberger` or the derivation iteration, draws
from that one budget; outside any scope each `nf_against` and `buchberger`
call gets a fresh `Budget()`.  No function takes a budget argument.

Reduction is heap-ordered (Monagan and Pearce, "Sparse polynomial division
using a heap", JSC 46, 2011): `nf_against` computes a monomial's order key
once, when the monomial enters the work set, keeps the live terms in a heap
of negated keys with lazy deletion of cancelled terms, and pops the largest
term at each step.  Buchberger keeps each basis element's leading monomial
in a list parallel to the basis, filled once when the element joins, and
each pair carries the key of its lcm; pair selection, the redundancy test
of the autoreduction and every reduction read those instead of rescanning
the terms.  An `Ideal` keeps the leading monomials of each cached basis
next to it, so `normal_form` hands them to `nf_against` as well.

`binomial_prime` decides pure-difference binomial ideals whose exponent
lattice has a strictly positive grading, and calls any other inapplicable.

Monomial orders: lex, graded lex, and weight-refined (weight first, lex on a
declared variable permutation as tie-break; zero weights are allowed).  An
order is described by data, so cached bases can be keyed by it.  `Packing`
maps the monomials of an order to ints whose integer order is the monomial
order; the derivation iteration runs on those, while `nf_against` stays on
exponent tuples and serves as its oracle.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import comb, lcm
from operator import add, itemgetter, mul
from typing import Sequence

from .linalg import nullspace, smith_normal_form
from .poly import Context, Polynomial, mono_div, mono_lcm, mono_mul

DEFAULT_BUDGET = 10 ** 6


class BudgetExhausted(RuntimeError):
    """The reduction-step budget ran out before the computation finished."""


class Budget:
    """Reduction steps left; `with Budget(n):` makes it the active scope."""

    __slots__ = ("left", "_tokens")

    def __init__(self, steps: int = DEFAULT_BUDGET):
        self.left = int(steps)
        self._tokens = []  # one per open `with`, so scopes may nest

    def step(self):
        self.left -= 1
        if self.left < 0:
            raise BudgetExhausted("reduction budget exhausted")

    def __enter__(self):
        self._tokens.append(_SCOPE.set(self))
        return self

    def __exit__(self, *exc):
        _SCOPE.reset(self._tokens.pop())


_SCOPE: ContextVar[Budget | None] = ContextVar("lndfilt_budget", default=None)


def _budget() -> Budget:
    """The active scope's budget, or a fresh one outside any scope."""
    return _SCOPE.get() or Budget()


def _steps_left(calls: int) -> int:
    """Reductions the active scope still allows; outside any scope, those
    of `calls` fresh budgets, one per normal form."""
    b = _SCOPE.get()
    return calls * DEFAULT_BUDGET if b is None else b.left


def _power_overrun(monos, e: int) -> str | None:
    """Why the power e of a polynomial with the monomials monos may take
    more work than the budget allows, or None.

    The work is the term products that binary powering
    (`Polynomial.__pow__`) forms; they may not exceed the steps the active
    scope has left, or DEFAULT_BUDGET where fewer are left, so that a
    small budget, which counts reductions, still admits the small powers a
    command forms besides them.  They are counted first with C(k + t - 1,
    t - 1) terms for each k-th power of the t monomials, which is exact
    when no two products of k of them coincide.  Only where that count
    passes the cap are they counted again on the supports of the powers
    (sets of sums of monomials, which contain each power's terms), at a
    set addition per counted product: ((x^2 + z^3)^2)^100, whose 201
    terms C(102, 2) overstates, is admitted, and (x + y)^10000 is not.
    Reads the budget and draws no step; a one-term base and a power e < 2
    expand nothing."""
    t = len(monos)
    if t < 2 or e < 2:
        return None
    cap = max(_steps_left(1), DEFAULT_BUDGET)
    if _powering_products(1, e, add, lambda k: comb(k + t - 1, t - 1),
                          cap) <= cap:
        return None
    # monomials packed one field per variable, wide enough for the power
    width = (max(map(max, monos)) * e).bit_length() + 1
    support = {sum(x << width * i for i, x in enumerate(m)) for m in monos}
    if _powering_products(support, e, _sumset, len, cap) <= cap:
        return None
    return "may need more than %d term products" % cap


def _sumset(a, b):
    return {u + v for u in a for v in b}


def _powering_products(base, e: int, mul, size, cap: int) -> int:
    """The term products binary powering forms for the power e, on
    stand-ins for the powers that mul multiplies and size measures;
    counting stops once it passes cap, before the multiplication that
    would pass it."""
    products, res = 0, None  # res None: the power 0, the constant 1
    while e:
        if e & 1:
            products += (1 if res is None else size(res)) * size(base)
            if products > cap:
                break
            if e > 1:
                res = base if res is None else mul(res, base)
        if e > 1:
            products += size(base) ** 2
            if products > cap:
                break
            base = mul(base, base)
        e >>= 1
    return products


class MonomialOrder:
    """Total order on monomials, given by kind + permutation (+ weights)."""

    # key(m): the sort key of monomial m, larger for a larger monomial;
    # built once per order, since the reduction loops call it per term
    __slots__ = ("kind", "perm", "weights", "key")

    def __init__(self, kind: str, perm: Sequence[int], weights=None):
        if kind not in ("lex", "grlex", "weight"):
            raise ValueError("unknown order kind %r" % kind)
        self.kind = kind
        self.perm = tuple(perm)
        self.weights = None if weights is None else tuple(weights)
        # the tie-break reads every variable, so distinct monomials get
        # distinct keys and nf_against's heap never compares monomials
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError("tie-break %r is not a permutation" % (self.perm,))
        if kind == "weight":
            if self.weights is None:
                raise ValueError("weight order needs a weight vector")
            if any(w < 0 for w in self.weights):
                raise ValueError("weights must be non-negative")
        self.key = _key_function(kind, self.perm, self.weights)

    @classmethod
    def lex(cls, n: int, perm=None):
        return cls("lex", perm if perm is not None else range(n))

    @classmethod
    def grlex(cls, n: int, perm=None):
        return cls("grlex", perm if perm is not None else range(n))

    @classmethod
    def weight(cls, w: Sequence[int], perm=None):
        return cls("weight", perm if perm is not None else range(len(w)), w)

    def signature(self):
        return (self.kind, self.perm, self.weights)

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and self.signature() == other.signature()

    def __hash__(self):
        return hash(self.signature())

    def __repr__(self):
        return "MonomialOrder%r" % (self.signature(),)

    def field_max(self, monos) -> int:
        """The largest field of the order keys of monos (0 when empty)."""
        key = self.key
        return max((max(key(m), default=0) for m in monos), default=0)


def _key_function(kind: str, perm, weights):
    """The sort key of an order: the weighted degree, if any, then the
    exponents in tie-break order."""
    if len(perm) > 1:
        tie = itemgetter(*perm)
    else:  # itemgetter of one index returns the item, not a tuple
        def tie(m):
            return tuple([m[i] for i in perm])
    if kind == "lex":
        return tie
    if kind == "grlex":
        return lambda m: (sum(m),) + tie(m)
    return lambda m: (sum(map(mul, m, weights)),) + tie(m)


class Packing:
    """Monomials of one order packed into one int each.

    Every field of `MonomialOrder.key` (the weighted degree, if any, then
    the tie-break exponents) is linear in the exponents, so each field gets
    `width` bits, the first field the most significant: the ints compare
    as the monomials do, a product of monomials is a sum of ints and a
    quotient a difference.  The top bit of each field is a guard bit.  While
    every field stays below 2^(width-1), b divides a exactly when
    ((a + guard) - b) & guard == guard, because no field of the difference
    borrows.  `top` must bound every field the caller ever forms; nothing
    checks that later.
    """

    __slots__ = ("key", "width", "mask", "guard", "shifts")

    def __init__(self, order: MonomialOrder, top: int):
        n = len(order.perm)
        nfields = len(order.key((0,) * n))
        w = max(top, 0).bit_length() + 1
        self.key = order.key
        self.width = w
        self.mask = (1 << w) - 1
        self.guard = sum(1 << (w * j + w - 1) for j in range(nfields))
        # the tie-break fields come last, variable perm[j] in field j of
        # them; (pm >> shifts[i]) & mask is the exponent of variable i
        pos = {v: j for j, v in enumerate(order.perm)}
        self.shifts = tuple(w * (n - 1 - pos[i]) for i in range(n))

    def pack(self, m) -> int:
        w = self.width
        v = 0
        for f in self.key(m):
            v = (v << w) | f
        return v


def leading_monomial(p: Polynomial, order: MonomialOrder):
    if p.is_zero():
        raise ValueError("zero polynomial has no leading monomial")
    return max(p.terms, key=order.key)


def leading_term(p: Polynomial, order: MonomialOrder):
    m = leading_monomial(p, order)
    return m, p.terms[m]


def monic(p: Polynomial, order: MonomialOrder) -> Polynomial:
    m, c = leading_term(p, order)
    return p if c == 1 else p * Fraction(1, c)


def exact_quotient(p: Polynomial, d: Polynomial):
    """p / d when d divides p exactly in the polynomial ring, else None."""
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return p
    order = MonomialOrder.grlex(len(p.ctx))
    lm, lc = leading_term(d, order)
    q = p.ctx.zero()
    r = p
    while not r.is_zero():
        m, c = leading_term(r, order)
        mm = mono_div(m, lm)
        if mm is None:
            return None
        t = Polynomial(p.ctx, {mm: Fraction(c, lc)})
        q = q + t
        r = r - t * d
    return q


class Ideal:
    """Finitely generated ideal with per-order cached reduced Groebner bases."""

    __slots__ = ("ctx", "gens", "_gb", "_lms")

    def __init__(self, ctx: Context, gens: Sequence[Polynomial]):
        for g in gens:
            if g.ctx != ctx:
                raise ValueError("generator in wrong context")
        self.ctx = ctx
        self.gens = tuple(g for g in gens if not g.is_zero())
        self._gb: dict = {}
        self._lms: dict = {}  # leading monomials, parallel to each basis

    def __repr__(self):
        return "Ideal(%s)" % "; ".join(str(g) for g in self.gens)

    def groebner(self, order: MonomialOrder):
        sig = order.signature()
        if sig not in self._gb:
            self.cache_groebner(order, buchberger(self.gens, order))
        return self._gb[sig]

    def leading_monomials(self, order: MonomialOrder):
        """Leading monomials of the cached basis for order, parallel to it."""
        return self._lms[order.signature()]

    def cache_groebner(self, order: MonomialOrder, basis):
        sig = order.signature()
        self._gb[sig] = list(basis)
        self._lms[sig] = [leading_monomial(g, order) for g in basis]


def nf_against(p: Polynomial, basis, order: MonomialOrder,
               lms=None) -> Polynomial:
    """Full normal form of p against a list of polynomials.

    Terms are taken largest first from a heap of negated order keys; each
    term reduces by the first basis element whose leading monomial divides
    it, and `rem` receives the irreducible ones in descending order.  `lms`
    are the basis elements' leading monomials when the caller has them.
    """
    step = _budget().step
    if lms is None:
        lms = [leading_monomial(g, order) for g in basis]
    lead = list(zip(lms, basis))
    key = order.key
    work = dict(p.terms)
    heap = [(_neg(key(m)), m) for m in work]
    heapify(heap)
    rem: dict = {}
    while heap:
        m = heappop(heap)[1]
        c = work.pop(m, 0)
        if c == 0:
            continue  # cancelled after it was pushed
        hit = None
        for lm, g in lead:
            q = mono_div(m, lm)
            if q is not None:
                hit = (q, lm, g)
                break
        if hit is None:
            rem[m] = c
            continue
        step()
        q, lm, g = hit
        lc = g.terms[lm]
        fac = c if lc == 1 else Fraction(c, lc)
        for gm, gc in g.terms.items():
            if gm == lm:
                continue
            t = mono_mul(gm, q)
            old = work.get(t)
            if old is None:
                work[t] = -fac * gc
                heappush(heap, (_neg(key(t)), t))
            else:
                nv = old - fac * gc
                if nv:
                    work[t] = nv
                else:
                    del work[t]
    return Polynomial(p.ctx, rem)


def _neg(k):
    return tuple([-e for e in k])


def _spoly(f: Polynomial, mf, g: Polynomial, mg) -> Polynomial:
    l = mono_lcm(mf, mg)
    tf = Polynomial(f.ctx, {mono_div(l, mf): Fraction(1, f.terms[mf])})
    tg = Polynomial(g.ctx, {mono_div(l, mg): Fraction(1, g.terms[mg])})
    return tf * f - tg * g


def buchberger(gens, order: MonomialOrder):
    """Reduced Groebner basis (monic, autoreduced, deterministically sorted).

    Outside any scope one fresh budget covers the whole computation."""
    with _budget():
        basis = [monic(g, order) for g in gens if not g.is_zero()]
        if not basis:
            return []
        lms = [leading_monomial(g, order) for g in basis]  # parallel to basis

        def pair(i, j):
            return order.key(mono_lcm(lms[i], lms[j])), i, j

        pairs = [pair(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
        while pairs:
            # normal strategy: smallest lcm first, the earliest pair among equals
            best = min(range(len(pairs)), key=lambda k: pairs[k][0])
            _, i, j = pairs.pop(best)
            mi, mj = lms[i], lms[j]
            if mono_lcm(mi, mj) == mono_mul(mi, mj):
                continue  # coprime leading terms, S-poly reduces to zero
            r = nf_against(_spoly(basis[i], mi, basis[j], mj), basis, order, lms)
            if not r.is_zero():
                r = monic(r, order)
                basis.append(r)
                lms.append(leading_monomial(r, order))
                pairs.extend(pair(k, len(basis) - 1) for k in range(len(basis) - 1))
        return _autoreduce(basis, order)


def _autoreduce(basis, order):
    # drop redundant leading terms first, smallest leading monomial first
    leads = sorted(((leading_monomial(g, order), g) for g in basis),
                   key=lambda mg: order.key(mg[0]))
    kept = []
    kept_lms = []
    for lm, g in leads:
        if not any(mono_div(lm, h) is not None for h in kept_lms):
            kept.append(g)
            kept_lms.append(lm)
    # No leading monomial left divides another, so reduction keeps each
    # element's leading term and `kept` stays sorted by leading monomial.
    changed = True
    while changed:
        changed = False
        for i in range(len(kept)):
            others = kept[:i] + kept[i + 1:]
            r = (nf_against(kept[i], others, order, kept_lms[:i] + kept_lms[i + 1:])
                 if others else kept[i])
            if r.is_zero():
                kept.pop(i)
                kept_lms.pop(i)
                changed = True
                break
            r = monic(r, order)
            if r != kept[i]:
                kept[i] = r
                changed = True
    return kept


def normal_form(p: Polynomial, ideal: Ideal, order: MonomialOrder) -> Polynomial:
    """Canonical representative of p modulo the ideal, for the given order."""
    gb = ideal.groebner(order)
    if not gb:
        return p
    return nf_against(p, gb, order, ideal.leading_monomials(order))


def member(p: Polynomial, ideal: Ideal, order: MonomialOrder | None = None) -> bool:
    if order is None:
        order = MonomialOrder.grlex(len(ideal.ctx))
    return normal_form(p, ideal, order).is_zero()


def ideal_equal(a: Ideal, b: Ideal) -> bool:
    """Mutual membership of generators."""
    if a.ctx != b.ctx:
        return False
    order = MonomialOrder.grlex(len(a.ctx))
    return (all(member(g, b, order) for g in a.gens)
            and all(member(g, a, order) for g in b.gens))


def initial_ideal(ideal: Ideal, w: Sequence[int], perm=None) -> Ideal:
    """Ideal of w-top forms, computed from a Groebner basis for a
    w-refined order.  The top forms of that basis are again a reduced
    Groebner basis (same leading terms), so it is cached on the result."""
    order = MonomialOrder.weight(w, perm)
    gb = ideal.groebner(order)
    tops = [g.top_form(w) for g in gb]
    out = Ideal(ideal.ctx, tops)
    out.cache_groebner(order, tops)
    return out


@dataclass
class BinomialPrimality:
    """Outcome of the lattice-ideal primality test."""
    status: str  # "prime" | "not-prime" | "inapplicable"
    reason: str = ""
    lattice_rows: list = field(default_factory=list)
    divisors: list = field(default_factory=list)
    saturation_certified: bool = False

    def __bool__(self):
        return self.status == "prime"


def binomial_prime(ideal: Ideal, order: MonomialOrder | None = None) -> BinomialPrimality:
    """Decide primality for pure-difference binomial ideals.

    Route: reduced basis must consist of differences of two monomials with
    coefficients +1/-1; the ideal must equal its saturation with respect to
    the product of all variables (lattice-ideal certificate); then the ideal
    is prime exactly when all elementary divisors of the exponent-difference
    lattice are 1.  A monomial of degree >= 2 in the reduced basis is
    reported not-prime: it is a product x_i * m' with x_i and m' outside
    the ideal, since either one in it would have a leading monomial dividing
    that element's own, which a reduced basis rules out.  Anything else
    outside that shape is reported inapplicable, never guessed.

    The saturation is tested one variable at a time (Bayer and Stillman,
    Invent. Math. 87, 1987) when the rows u - v of the basis binomials
    x^u - x^v have a strictly positive integer grading w, w . (u - v) = 0
    (`_positive_grading`); the ideal is then w-homogeneous.  Under the
    order of weight w - e_i, which is >= 0 because w_i >= 1, the terms of a
    w-homogeneous g rank by fewest x_i first, so x_i dividing lm(g) means
    x_i divides g.  Hence in(I : x_i^oo) = in(I) : x_i^oo, and I : x_i^oo = I
    exactly when no leading monomial of the reduced basis for that order
    contains x_i; I : (x_1...x_n)^oo = I exactly when that holds for every
    i (`_saturated_by_variables`).  Without such a grading the ideal is
    inapplicable, and no family's Jhat is: Danielewski's (x^n z - y^m) is
    graded by (m - 1, n, n), the new family's (x^n y - s^d, y^m - x^e z) by
    (dm - 1, n + de, nm + e, nm + e) on (x, y, z, s); KR2's is no binomial.
    """
    if order is None:
        order = MonomialOrder.grlex(len(ideal.ctx))
    gb = ideal.groebner(order)
    if not gb:
        return BinomialPrimality("prime", "zero ideal", saturation_certified=True)
    for g in gb:
        if len(g.terms) == 1 and g.degree() >= 2:
            return BinomialPrimality(
                "not-prime", "basis element %s is a monomial of degree >= 2" % g)
    rows = []
    for g in gb:
        if len(g.terms) != 2:
            return BinomialPrimality(
                "inapplicable", "generator %s is not a binomial" % g)
        (m1, c1), (m2, c2) = sorted(g.terms.items(), key=lambda mc: order.key(mc[0]), reverse=True)
        if c1 != 1 or c2 != -1:
            return BinomialPrimality(
                "inapplicable", "generator %s is not a pure difference" % g)
        rows.append([a - b for a, b in zip(m1, m2)])
    w = _positive_grading(rows, len(ideal.ctx))
    if w is None:
        return BinomialPrimality(
            "inapplicable", "the lattice rows have no strictly positive "
            "grading, which the saturation test needs", lattice_rows=rows)
    if not _saturated_by_variables(gb, w):
        return BinomialPrimality(
            "inapplicable", "not saturated with respect to the variables",
            lattice_rows=rows)
    divisors = smith_normal_form(rows)
    if all(d == 1 for d in divisors):
        return BinomialPrimality("prime", "lattice is saturated",
                                 lattice_rows=rows, divisors=divisors,
                                 saturation_certified=True)
    return BinomialPrimality("not-prime",
                             "elementary divisors %r" % (divisors,),
                             lattice_rows=rows, divisors=divisors,
                             saturation_certified=True)


def _positive_grading(rows, n: int):
    """A strictly positive integer w with w . r = 0 for every row, or None:
    the sum of the nullspace basis, denominators cleared."""
    basis = nullspace([{j: a for j, a in enumerate(r) if a} for r in rows], n)
    w = [sum(col) for col in zip(*basis)]
    if not w or min(w) <= 0:
        return None
    den = lcm(*(q.denominator for q in w))
    return [int(q * den) for q in w]


def _saturated_by_variables(basis, w) -> bool:
    """Whether the w-homogeneous ideal of basis equals its saturation by
    every variable: no leading monomial of its reduced basis under the
    weight w - e_i contains x_i, for each i in turn."""
    for i in range(len(w)):
        order = MonomialOrder.weight([wj - (j == i) for j, wj in enumerate(w)])
        if any(leading_monomial(g, order)[i] for g in buchberger(basis, order)):
            return False
    return True
