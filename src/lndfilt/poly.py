"""Sparse multivariate polynomials over the rationals.

A stored coefficient is a plain `int` when it is integral and a
`fractions.Fraction` with denominator > 1 otherwise; zero is never stored.
The constructor brings every value into that form and rejects anything that
is neither an `int` nor a `Fraction` with TypeError.  Arithmetic on
integral coefficients thus runs on Python ints and creates no Fraction at
all, while a rational coefficient costs what it always did.  Two rules
keep this exact: a quotient of two coefficients is built as
`Fraction(a, b)` (`/` on two ints would give a float), and
`constant_value` hands out a `Fraction`.

A monomial is a plain tuple of non-negative exponents, one slot per variable
of the owning `Context`.  All operations are exact; nothing here ever
touches floating point except the -infinity sentinel used for the degree of
the zero polynomial.

Polynomials are value objects: no method mutates `self` after construction.
That makes them safe to share between cached Groebner bases and callers.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Mapping, Sequence

NEG_INF = float("-inf")

Mono = tuple  # exponent tuple, len == number of context variables


def _coeff(c):
    """c in stored form: an int when integral, else a Fraction."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):  # bool and other int subclasses
        return int(c)
    raise TypeError("coefficient must be an int or a Fraction, not %s"
                    % type(c).__name__)


class ContextMismatch(ValueError):
    """Raised when two polynomials from different variable contexts meet."""


class Context:
    """An ordered tuple of variable names."""

    __slots__ = ("names", "_pos")

    def __init__(self, names: Sequence[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names: %r" % (names,))
        for nm in names:
            if not nm or not (nm[0].isalpha() or nm[0] == "_"):
                raise ValueError("bad variable name %r" % nm)
        self.names = names
        self._pos = {nm: i for i, nm in enumerate(names)}

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        return isinstance(other, Context) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return "Context(%s)" % ", ".join(self.names)

    def index(self, name: str) -> int:
        try:
            return self._pos[name]
        except KeyError:
            raise KeyError("unknown variable %r in %r" % (name, self)) from None

    def __contains__(self, name):
        return name in self._pos

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, c) -> "Polynomial":
        return Polynomial(self, {(0,) * len(self.names): c})

    def var(self, name: str) -> "Polynomial":
        i = self.index(name)
        expo = [0] * len(self.names)
        expo[i] = 1
        return Polynomial(self, {tuple(expo): 1})

    def gens(self) -> tuple:
        return tuple(self.var(nm) for nm in self.names)

    def monomial(self, expo: Sequence[int], coeff=1) -> "Polynomial":
        expo = tuple(int(e) for e in expo)
        if len(expo) != len(self.names):
            raise ValueError("exponent tuple length mismatch")
        return Polynomial(self, {expo: coeff})


# ---------------------------------------------------------------- monomials

def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(map(add, a, b))


def mono_div(a: Mono, b: Mono):
    """a / b as an exponent tuple, or None if b does not divide a."""
    out = []
    for x, y in zip(a, b):
        if x < y:
            return None
        out.append(x - y)
    return tuple(out)


def mono_lcm(a: Mono, b: Mono) -> Mono:
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_deg(a: Mono) -> int:
    return sum(a)


def mono_wdeg(a: Mono, w: Sequence[int]) -> int:
    return sum(e * wi for e, wi in zip(a, w))


def _mul_terms(a: Mapping[Mono, object], b: Mapping[Mono, object]) -> dict:
    """Product of two term maps, with whatever coefficient type they hold,
    looping over the smaller one."""
    if len(a) > len(b):
        a, b = b, a
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(map(add, ma, mb))
            nc = out.get(m, 0) + ca * cb
            if nc:
                out[m] = nc
            else:
                out.pop(m, None)
    return out


def power_terms(table: dict, e: int) -> dict:
    """The power e >= 1 of the term map table[1], from its power table, a
    dict exponent -> term map of the powers formed so far, whose entries
    callers share and must not mutate.  A missing power is formed by
    binary powering and kept in the table with the squares it formed."""
    got = table.get(e)
    if got is None:
        k, sq = 1, table[1]
        while True:
            if e & k:
                got = sq if got is None else _mul_terms(got, sq)
            if e < 2 * k:
                break
            k *= 2
            sq = table.get(k) or table.setdefault(k, _mul_terms(sq, sq))
        table[e] = got
    return got


def subs_terms(terms: Mapping[Mono, object], tables, zero: Mono) -> dict:
    """The term map of sum c * prod power_terms(tables[i], m_i) over the
    terms c x^m of terms, with zero the target's constant monomial: the
    substitution kernel.  Products and sums are formed in the order of
    the per-term `Polynomial` products it replaces, so the terms come out
    in the same order."""
    out: dict = {}
    get = out.get
    for m, c in terms.items():
        acc = None
        for table, e in zip(tables, m):
            if e:
                p = power_terms(table, e)
                acc = p if acc is None else _mul_terms(acc, p)
        for u, v in ({zero: 1} if acc is None else acc).items():
            nc = get(u, 0) + c * v
            if nc:
                out[u] = nc
            else:
                del out[u]
    return out


def _print_key(m: Mono):
    return (mono_deg(m), m)


class Polynomial:
    """Immutable sparse polynomial attached to a Context."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms: Mapping[Mono, object]):
        self.ctx = ctx
        self.terms = {m: v for m, c in terms.items()
                      if (v := c if type(c) is int else _coeff(c))}

    # -------------------------------------------------- basic predicates

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(mono_deg(m) == 0 for m in self.terms)

    def constant_value(self) -> Fraction:
        """The coefficient of the constant term (the value at the origin)."""
        zero = (0,) * len(self.ctx)
        return Fraction(self.terms.get(zero, 0))

    def num_terms(self) -> int:
        return len(self.terms)

    def key(self):
        """Hashable canonical key, for caches and dedup."""
        return (self.ctx.names, tuple(sorted(self.terms.items())))

    # -------------------------------------------------- arithmetic

    def _check(self, other: "Polynomial"):
        if self.ctx != other.ctx:
            raise ContextMismatch(
                "context mismatch: %r vs %r" % (self.ctx, other.ctx))

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ctx.const(other)
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            nc = terms.get(m, 0) + c
            if nc:
                terms[m] = nc
            else:
                terms.pop(m, None)
        return Polynomial(self.ctx, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ctx, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ctx.const(other)
        return self.__add__(other.__neg__())

    def __rsub__(self, other):
        return self.ctx.const(other).__sub__(self)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = _coeff(other)
            if c == 0:
                return self.ctx.zero()
            return Polynomial(self.ctx, {m: co * c for m, co in self.terms.items()})
        self._check(other)
        return Polynomial(self.ctx, _mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        c = _coeff(scalar)
        if c == 0:
            raise ZeroDivisionError("polynomial divided by zero scalar")
        return self * Fraction(1, c)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if n == 0:
            return self.ctx.one()
        return Polynomial(self.ctx, power_terms({1: self.terms}, n))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.const(other)
        return (isinstance(other, Polynomial)
                and self.ctx == other.ctx and self.terms == other.terms)

    def __hash__(self):
        return hash(self.key())

    # -------------------------------------------------- degrees

    def degree(self):
        """Total degree; NEG_INF for the zero polynomial."""
        if not self.terms:
            return NEG_INF
        return max(mono_deg(m) for m in self.terms)

    def weighted_degree(self, w: Sequence[int]):
        """Max of w-weighted monomial degrees; NEG_INF for zero."""
        if len(w) != len(self.ctx):
            raise ValueError("weight vector length != number of variables")
        if not self.terms:
            return NEG_INF
        return max(mono_wdeg(m, w) for m in self.terms)

    def top_form(self, w: Sequence[int]) -> "Polynomial":
        """The sum of terms of maximal w-weighted degree (0 for zero input)."""
        if not self.terms:
            return self
        d = self.weighted_degree(w)
        return Polynomial(
            self.ctx, {m: c for m, c in self.terms.items() if mono_wdeg(m, w) == d})

    def degree_in(self, name: str) -> int:
        """Highest exponent of one variable; -1 would be odd, zero poly gives NEG_INF."""
        if not self.terms:
            return NEG_INF
        i = self.ctx.index(name)
        return max(m[i] for m in self.terms)

    # -------------------------------------------------- calculus / maps

    def partial(self, name: str) -> "Polynomial":
        """Formal partial derivative with respect to one variable."""
        i = self.ctx.index(name)
        out: dict = {}
        for m, c in self.terms.items():
            e = m[i]
            if e == 0:
                continue
            mm = list(m)
            mm[i] = e - 1
            out[tuple(mm)] = c * e
        return Polynomial(self.ctx, out)

    def subs(self, images: Mapping[str, "Polynomial"], target: Context | None = None) -> "Polynomial":
        """Substitute polynomials for variables.

        Unmapped variables must exist in the target context under the same
        name.  `target` defaults to the context of any provided image, else
        to self.ctx.
        """
        if target is None:
            for p in images.values():
                target = p.ctx
                break
            else:
                target = self.ctx
        tables = []
        for nm in self.ctx.names:
            p = images[nm] if nm in images else target.var(nm)
            if p.ctx != target:
                raise ContextMismatch("image of %s not in target context" % nm)
            tables.append({1: p.terms})
        return Polynomial(target, subs_terms(self.terms, tables,
                                             (0,) * len(target)))

    def lift(self, target: Context) -> "Polynomial":
        """Reinterpret in a context containing all our variables (by name)."""
        pos = [target.index(nm) for nm in self.ctx.names]
        n = len(target)
        out: dict = {}
        for m, c in self.terms.items():
            expo = [0] * n
            for i, e in enumerate(m):
                expo[pos[i]] = e
            out[tuple(expo)] = c
        return Polynomial(target, out)

    def restrict(self, target: Context) -> "Polynomial":
        """Project onto a smaller context; fails if a dropped variable occurs."""
        keep = []
        for i, nm in enumerate(self.ctx.names):
            if nm in target:
                keep.append((i, target.index(nm)))
            else:
                for m in self.terms:
                    if m[i]:
                        raise ValueError(
                            "variable %s still occurs, cannot restrict" % nm)
        n = len(target)
        out: dict = {}
        for m, c in self.terms.items():
            expo = [0] * n
            for i, j in keep:
                expo[j] = m[i]
            out[tuple(expo)] = out.get(tuple(expo), 0) + c
        return Polynomial(target, out)

    def coeffs_in(self, name: str) -> dict:
        """Coefficients as a dict  exponent -> Polynomial  (variable zeroed out)."""
        i = self.ctx.index(name)
        out: dict = {}
        for m, c in self.terms.items():
            e = m[i]
            mm = list(m)
            mm[i] = 0
            bucket = out.setdefault(e, {})
            bucket[tuple(mm)] = bucket.get(tuple(mm), 0) + c
        return {e: Polynomial(self.ctx, t) for e, t in out.items()}

    def div_exact_var(self, name: str, k: int) -> "Polynomial":
        """Exact division by name**k; raises ValueError when not divisible."""
        i = self.ctx.index(name)
        out: dict = {}
        for m, c in self.terms.items():
            if m[i] < k:
                raise ValueError(
                    "%s^%d does not divide %s" % (name, k, self))
            mm = list(m)
            mm[i] -= k
            out[tuple(mm)] = c
        return Polynomial(self.ctx, out)

    def eval_rational(self, point: Mapping[str, Fraction]) -> Fraction:
        """Evaluate at a rational point (all variables must be given)."""
        total = Fraction(0)
        vals = [Fraction(point[nm]) for nm in self.ctx.names]
        for m, c in self.terms.items():
            v = c
            for x, e in zip(vals, m):
                if e:
                    v *= x ** e
            total += v
        return total

    # -------------------------------------------------- printing

    def sorted_terms(self):
        """Terms in canonical (graded-lex descending) order."""
        return sorted(self.terms.items(), key=lambda mc: _print_key(mc[0]), reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            mono = "*".join(
                nm if e == 1 else "%s^%d" % (nm, e)
                for nm, e in zip(self.ctx.names, m) if e)
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = "%s*%s" % (abs(c), mono)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return "<poly %s>" % self


def random_polynomial(ctx: Context, rng, max_degree=3, max_terms=4,
                      allow_zero=True) -> Polynomial:
    """Random sparse polynomial, used by the empirical checks and the tests."""
    nterms = rng.randint(0 if allow_zero else 1, max_terms)
    terms: dict = {}
    for _ in range(nterms):
        left = rng.randint(0, max_degree)
        expo = [0] * len(ctx)
        for i in range(len(ctx)):
            e = rng.randint(0, left)
            expo[i] = e
            left -= e
        c = 0
        while c == 0:
            c = rng.randint(-5, 5)
        m = tuple(expo)
        terms[m] = terms.get(m, 0) + c
    return Polynomial(ctx, terms)
