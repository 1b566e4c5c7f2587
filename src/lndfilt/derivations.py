"""Derivations on finitely presented algebras and nilpotency bookkeeping.

A ring is presented as polynomials modulo an ideal of relations together
with a designated monomial order, so every element has a canonical normal
form.  A derivation is stored by its images on the generators; it is
well-defined on the quotient iff it maps every relation generator into the
relation ideal, which the constructor checks via normal forms.

Local nilpotency is certified on generators: if some power of the derivation
kills every generator, Leibniz makes the whole algebra locally nilpotent.
Degree of an element = number of applications before it vanishes; the zero
element gets NEG_INF.  All iteration is bounded and a missed bound is an
explicit verdict (BoundExceeded / None), never a silent wrong answer.

Every nilpotency order, and every degree the top-term certificate below
leaves open, comes from one loop, `Derivation._deg_reduced`, which runs on
monomials packed into one int each (`ideals.Packing`): the order key's
fields side by side, so that integer order is the ring's monomial order, a
product is `+` and a divisibility test is one mask.  The loop packs the
iterate, the images (pre-shifted by -e_i, so D(c x^m) adds
m_i * c * (x^m + image term - e_i)) and the ring's reduced basis once per
call, applies D straight into one dict and reduces with `nf_against`'s heap
algorithm: the same pops, the same first divisor and one `Budget.step` per
reduction.  It unpacks nothing but the last nonzero iterate, and that only
when `variable_orders` asks for it.  The field width comes from an a priori
bound, not from a check in the inner loop: one Leibniz step raises a field
by at most the largest image field and one reduction by at most the largest
basis field, so no field exceeds the largest input field plus (bound + 1)
times the largest image field plus R times the largest basis field, where R
is the number of reductions the active budget scope still allows (outside
any scope each application reduces under a fresh budget, so R is bound + 1
fresh budgets).

`deg` answers without that loop whenever the generators' orders d_i are
cached.  A `default_bound` call fills them by iterating; every family
build fills them without iterating, from the images on the extended
generators (`FiltrationSpec._certified_orders`, which proves the declared
degrees with the same Leibniz top term, `leibniz_top`).  Let N be the
largest L(m) = sum m_i * d_i over the terms c_m x^m of q = nf(p).  By
Leibniz, D^k(x^m) is a sum over ways to share k applications among the
factors, with multinomial weights, and a factor x_i that takes more than
d_i of them vanishes.  So D^(N+1)(q) = 0, and in D^N(q) only the terms
with L(m) = N survive, each with every factor taking exactly d_i:

    D^N(q) = N! * T,  T = sum_{L(m) = N} c_m * prod (D^d_i(x_i) / d_i!)^m_i.

Over Q, N! is a unit, so deg_D(p) = N exactly when nf(T) != 0: one product
of the cached top iterates D^d_i(x_i) (kernel elements, from the family
build's certificate or unpacked once from the order computation) and one
normal form.  When the top terms cancel, as for s = y^2 - x*z on the new
family (N = 4, degree 1), `deg` falls back to the loop; so it does when N
exceeds an explicit bound, since bound + 1 applications can cost far less
than T (z^3000000000).  A power in T that binary powering may not afford
raises `BudgetExhausted` before it is formed (`ideals._power_overrun`).

A "no" needs no iteration when an exact certificate gives it.
`NonNilpotencyCertifier` holds two, built once per ring and run on each
derivation before `is_locally_nilpotent`:

* tangent map: when every relation and every image D(x_i) vanishes at the
  origin, D maps m = (x_1..x_n) into itself and induces a linear map on
  m/m^2 = k^n / (span of the relations' linear parts), sending x_i to the
  linear part of D(x_i).  For an LND each class is killed by some power of
  that map, so a map that is not nilpotent certifies "not LND";
* divisibility: on a domain, f | D(f) forces D(f) = 0 for an LND
  (Freudenburg, Algebraic Theory of Locally Nilpotent Derivations, ch. 1),
  so a generator x_i with D(x_i) != 0 and D(x_i) in (x_i) + I certifies
  "not LND".  It runs only where `certified_domain` accepts the
  presentation.

`bounded_lnd_search` runs both a second time, on the associated graded
ring gr(B) against the homogenization gr(D) of a candidate
(`FiltrationSpec.homogenization`), which is locally nilpotent whenever D
is; there `certified_domain` gates the whole step.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import factorial
from operator import mul

from .ideals import (BudgetExhausted, Ideal, MonomialOrder, Packing, _budget,
                     _power_overrun, _steps_left, normal_form)
from .linalg import Echelon
from .poly import NEG_INF, Context, Polynomial


class NotWellDefined(ValueError):
    """Derivation images do not preserve the relation ideal."""


class BoundExceeded(RuntimeError):
    """Iteration bound hit before the iterate vanished."""


class RingPresentation:
    """k[x1..xn]/I together with a designated order for normal forms."""

    __slots__ = ("ctx", "relations", "order")

    def __init__(self, ctx: Context, relations: Ideal | None = None,
                 order: MonomialOrder | None = None):
        self.ctx = ctx
        self.relations = relations if relations is not None else Ideal(ctx, [])
        if self.relations.ctx != ctx:
            raise ValueError("relations in wrong context")
        self.order = order if order is not None else MonomialOrder.grlex(len(ctx))

    def nf(self, p: Polynomial) -> Polynomial:
        if not self.relations.gens:
            return p
        return normal_form(p, self.relations, self.order)

    def eq(self, p: Polynomial, q: Polynomial) -> bool:
        return self.nf(p - q).is_zero()

    def is_zero(self, p: Polynomial) -> bool:
        return self.nf(p).is_zero()

    def __repr__(self):
        return "RingPresentation(%r mod %d relations)" % (self.ctx, len(self.relations.gens))


@dataclass
class NilpotencyCertificate:
    """Per-generator nilpotency orders: name -> smallest i with D^(i+1) = 0."""
    orders: dict
    bound: int

    def max_order(self) -> int:
        return max(self.orders.values(), default=0)


class Derivation:
    """A k-derivation of a presented ring, given by generator images."""

    # _nilp: None, or (orders, tops) with each generator's nilpotency order
    # d_i and its top iterate D^d_i(x_i) in normal form, in ctx order
    __slots__ = ("ring", "images", "_nilp")

    def __init__(self, ring: RingPresentation, images, check: bool = True):
        """check=False: the images are already normal forms of a
        well-defined derivation, so neither is computed again."""
        if len(images) != len(ring.ctx):
            raise ValueError("need one image per generator")
        self.ring = ring
        self.images = tuple(ring.nf(p) for p in images) if check else tuple(images)
        self._nilp = None
        if check:
            for g in ring.relations.gens:
                v = ring.nf(self._apply_free(g))
                if not v.is_zero():
                    raise NotWellDefined(
                        "derivation does not preserve the relation %s "
                        "(image %s)" % (g, v))

    def _apply_free(self, p: Polynomial) -> Polynomial:
        out = self.ring.ctx.zero()
        for nm, img in zip(self.ring.ctx.names, self.images):
            if img.is_zero():
                continue
            d = p.partial(nm)
            if not d.is_zero():
                out = out + d * img
        return out

    def apply(self, p: Polynomial) -> Polynomial:
        """Leibniz extension then reduction to normal form."""
        return self.ring.nf(self._apply_free(p))

    def iterate(self, p: Polynomial, k: int) -> Polynomial:
        q = self.ring.nf(p)
        for _ in range(k):
            if q.is_zero():
                return q
            q = self.apply(q)
        return q

    def image_of(self, name: str) -> Polynomial:
        return self.images[self.ring.ctx.index(name)]

    # ------------------------------------------------ nilpotency and degree

    def variable_orders(self, bound: int = 256, term_guard: int | None = None):
        """Nilpotency order per generator, or None when the bound misses."""
        if self._nilp is not None:  # exact, so they answer any bound
            orders = self._nilp[0]
            return orders if max(orders.values(), default=0) <= bound else None
        orders, tops = {}, []
        for nm in self.ring.ctx.names:
            got = self._deg_reduced(self.ring.nf(self.ring.ctx.var(nm)), bound,
                                    term_guard, with_top=True)
            if got is None:
                return None
            orders[nm] = 0 if got[0] == NEG_INF else got[0]
            tops.append(got[1])
        self._nilp = (orders, tuple(tops))
        return orders

    def _take_orders(self, multiple: "Derivation", scale) -> None:
        """Cache the orders and top iterates of multiple = scale * self, whose
        own are cached: (scale*D)^k = scale^k * D^k, so the orders agree and
        each top iterate is divided by scale^d_i."""
        orders, tops = multiple._nilp
        self._nilp = (orders, tuple(t / scale ** orders[nm] for nm, t
                                    in zip(self.ring.ctx.names, tops)))

    def is_locally_nilpotent(self, bound: int = 256, term_guard: int | None = None):
        """NilpotencyCertificate, or None as the no-within-bound verdict."""
        orders = self.variable_orders(bound, term_guard)
        if orders is None:
            return None
        return NilpotencyCertificate(orders, bound)

    def _deg_reduced(self, q: Polynomial, bound: int, term_guard: int | None,
                     with_top: bool = False):
        """deg_D(q) for q in normal form, or None when the iterate survives
        the bound or outgrows term_guard; see the module docstring.  With
        with_top, (deg_D(q), D^deg(q)) instead, the last nonzero iterate
        unpacked into a Polynomial."""
        if q.is_zero():
            return (NEG_INF, q) if with_top else NEG_INF
        if bound < 0:
            return None
        ring = self.ring
        order = ring.order
        rels = ring.relations
        basis = rels.groebner(order) if rels.gens else []
        lms = rels.leading_monomials(order) if basis else []
        steps = _steps_left(bound + 1)  # one normal form per application
        fmax = order.field_max
        top = (fmax(q.terms)
               + (bound + 1) * max((fmax(im.terms) for im in self.images),
                                   default=0)
               + max(steps, 1) * max((fmax(g.terms) for g in basis),
                                     default=0))
        pk = Packing(order, top)
        pack, mask, guard = pk.pack, pk.mask, pk.guard
        n = len(ring.ctx)
        leibniz = []  # (shift of x_i's field, [(term of D(x_i) - e_i, c)])
        for i, img in enumerate(self.images):
            if img.terms:
                ei = pack(tuple(int(j == i) for j in range(n)))
                leibniz.append((pk.shifts[i], [(pack(m) - ei, c)
                                                for m, c in img.terms.items()]))
        red = []  # (lm, [(tail monomial - lm, -coefficient / lc)]), packed
        for lm, g in zip(lms, basis):
            plm = pack(lm)
            lc = g.terms[lm]
            red.append((plm, [(pack(m) - plm, -c if lc == 1 else Fraction(-c, lc))
                              for m, c in g.terms.items() if m != lm]))
        cur = {pack(m): c for m, c in q.terms.items()}
        for k in range(bound + 1):
            out: dict = {}
            get = out.get
            for pm, c in cur.items():
                for shift, terms in leibniz:
                    e = (pm >> shift) & mask
                    if e:
                        ce = c * e
                        for t, tc in terms:
                            u = pm + t
                            out[u] = get(u, 0) + ce * tc
            out = {u: c for u, c in out.items() if c}  # drop cancelled terms
            if red and out:
                out = _reduce_packed(out, red, guard, _budget().step)
            if not out:
                if not with_top:
                    return k
                shifts = pk.shifts
                return k, Polynomial(ring.ctx, {
                    tuple((pm >> sh) & mask for sh in shifts): c
                    for pm, c in cur.items()})
            if term_guard is not None and len(out) > term_guard:
                return None
            cur = out
        return None

    def default_bound(self, p: Polynomial) -> int:
        """A priori bound on deg_D(p) from the generators' nilpotency orders.

        By Leibniz, D^k of a monomial prod x_i^e_i is a sum of products of
        D^j_i(x_i) with sum j_i = k, and one factor vanishes once
        k > sum e_i * ord(x_i); in a commutative ring this holds for every
        monomial of any representative of p, so deg_D(p) is at most the
        largest such sum over p's terms.
        """
        orders = self.variable_orders()
        if orders is None:
            raise BoundExceeded("no nilpotency certificate for default bound")
        ords = [orders[nm] for nm in self.ring.ctx.names]
        return max((sum(e * o for e, o in zip(m, ords)) for m in p.terms),
                   default=0)

    def deg(self, p: Polynomial, bound: int | None = None):
        """deg_D(p): number of applications before extinction; NEG_INF at 0.

        With the generators' orders cached and the Leibniz bound N of nf(p)
        within the bound, the answer is N whenever the top term T (module
        docstring) has a nonzero normal form: D^(N+1) kills nf(p) and
        D^N(nf(p)) = N! * T, so the degree is exactly N.  Otherwise D is
        iterated, at most bound + 1 times.

        Raises BoundExceeded when the iterate survives the bound, which
        signals either non-nilpotency or a bound chosen too small.
        """
        q = self.ring.nf(p)
        if q.is_zero():
            return NEG_INF
        if bound is None:
            bound = self.default_bound(q)
        d = None if self._nilp is None else self._top_degree(q, bound)
        if d is None:
            d = self._deg_reduced(q, bound, None)
            if d is None:
                raise BoundExceeded("degree iteration exceeded bound %d" % bound)
        return d

    def _top_degree(self, q: Polynomial, bound: int):
        """The Leibniz bound N of a nonzero normal form q when N <= bound
        and its top term T survives in the ring, so that deg_D(q) = N; None
        when N > bound (T could be huge, and the loop stops at the bound)
        or when nf(T) = 0."""
        orders, tops = self._nilp
        ords = [orders[nm] for nm in self.ring.ctx.names]
        n = max(sum(map(mul, m, ords)) for m in q.terms)
        if n > bound:
            return None
        if n == 0:  # D kills every generator in q
            return 0
        t = leibniz_top(q, ords, tops, n)
        return n if not self.ring.nf(t).is_zero() else None

    def kernel_member(self, p: Polynomial) -> bool:
        return self.apply(p).is_zero()

    def is_local_slice(self, s: Polynomial) -> bool:
        """D(s) nonzero and D(D(s)) zero, i.e. deg_D(s) = 1."""
        ds = self.apply(s)
        return (not ds.is_zero()) and self.apply(ds).is_zero()

    def __repr__(self):
        ims = ", ".join("%s->%s" % (nm, im)
                        for nm, im in zip(self.ring.ctx.names, self.images))
        return "Derivation(%s)" % ims


def leibniz_top(q: Polynomial, ords, tops, n: int) -> Polynomial:
    """T = sum of c_m * prod (tops_i / ords_i!)^m_i over the terms c_m x^m
    of q with sum m_i * ords_i = n.  When each generator x_i has order
    ords_i under a derivation D, with top iterate tops_i, and n is the
    largest such sum over q's terms, D^n(q) = n! * T (module docstring).
    Each power passes `ideals._power_overrun` first, and raises
    `BudgetExhausted` where it would outrun the budget."""
    names = q.ctx.names
    t = q.ctx.zero()
    for m, c in q.terms.items():
        if sum(map(mul, m, ords)) != n:
            continue
        term = None
        for i, (e, d, x) in enumerate(zip(m, ords, tops)):
            if e:
                # divide before the power: d!^e can be huge (z^100000000)
                f = x if d < 2 else x / factorial(d)
                why = _power_overrun(f.terms, e)
                if why:
                    raise BudgetExhausted("the top term's power (D^%d(%s)/%d!)^%d %s"
                                          % (d, names[i], d, e, why))
                f = f ** e
                term = f if term is None else term * f
        t = t + (q.ctx.const(c) if term is None else term * c)
    return t


# ------------------------------------------------ non-nilpotency certificates

def certified_domain(ring: RingPresentation) -> bool:
    """True when the presentation is certified to be a domain.

    The one rule: no relations, or one relation f = a*v + b where the
    variable v occurs in neither a nor b, a is a nonzero monomial (a
    constant counts) and no variable of a divides b.  Then f is linear in v
    and primitive over the other variables (a monomial and b share a factor
    only through a variable of a that divides b), so f is irreducible by
    Gauss's lemma and (f) is prime in the factorial ring k[x].
    """
    gens = ring.relations.gens
    if not gens:
        return True
    if len(gens) > 1:
        return False
    f = gens[0]
    for nm in ring.ctx.names:
        if f.degree_in(nm) != 1:
            continue
        coeffs = f.coeffs_in(nm)
        a = coeffs[1]
        b = coeffs[0].terms if 0 in coeffs else {}
        if a.num_terms() != 1:
            continue
        (ma,) = a.terms
        if not any(all(m[j] for m in b) for j, e in enumerate(ma) if e):
            return True
    return False


def _linear_part(p: Polynomial) -> Polynomial:
    return Polynomial(p.ctx, {m: c for m, c in p.terms.items() if sum(m) == 1})


@dataclass
class NonNilpotencyCertificate:
    """An exact reason why a derivation is not locally nilpotent: `data` for
    JSON output, naming the kind and the generator or linear map, and `text`
    for a reader."""
    data: dict
    text: str


class NonNilpotencyCertifier:
    """The certificates of the module docstring for derivations of one ring.

    Built once per ring: the span of the relations' linear parts, and on a
    certified domain one ideal (x_i) + I per generator, whose Groebner basis
    is computed on first use and cached on it.  Reductions draw from the
    active budget."""

    __slots__ = ("ring", "_at_origin", "_linear_rels", "_divisors")

    def __init__(self, ring: RingPresentation):
        self.ring = ring
        ctx = ring.ctx
        rels = ring.relations.gens
        self._at_origin = all((0,) * len(ctx) not in g.terms for g in rels)
        self._linear_rels = Echelon()
        for g in rels:
            self._linear_rels.add(_linear_part(g).terms)
        self._divisors = ([Ideal(ctx, [x, *rels]) for x in ctx.gens()]
                          if certified_domain(ring) else None)

    def certify(self, D: Derivation) -> NonNilpotencyCertificate | None:
        """A certificate that D is not locally nilpotent, or None."""
        return self._tangent(D) or self._divisibility(D)

    def _tangent(self, D: Derivation):
        ctx = self.ring.ctx
        zero = (0,) * len(ctx)
        if not self._at_origin or any(zero in img.terms for img in D.images):
            return None
        # rows are keyed by the monomials x_i, as polynomial terms are
        lin = {next(iter(x.terms)): _linear_part(img)
               for x, img in zip(ctx.gens(), D.images)}
        rels = self._linear_rels
        # the map is nilpotent iff its dim(m/m^2)-th power sends every x_i
        # into the relations' span; the x_i and each power are reduced
        # modulo that span, so an m/m^2 of dimension 0 certifies nothing
        vecs = [r for e in lin if (r := rels.reduce({e: 1})[0])]
        for _ in range(len(lin) - rels.dim()):
            nxt = []
            for v in vecs:
                out: dict = {}
                for e, c in v.items():
                    for f, a in lin[e].terms.items():
                        out[f] = out.get(f, 0) + c * a
                rest = rels.reduce(out)[0]
                if rest:
                    nxt.append(rest)
            vecs = nxt
        if not vecs:
            return None
        pairs = dict(zip(ctx.names, map(str, lin.values())))
        return NonNilpotencyCertificate(
            {"kind": "tangent", "linear_map": pairs},
            "the tangent map %s at the origin is not nilpotent"
            % ", ".join("%s -> %s" % kv for kv in pairs.items()))

    def _divisibility(self, D: Derivation):
        if self._divisors is None:
            return None
        order = self.ring.order
        for nm, img, ideal in zip(self.ring.ctx.names, D.images, self._divisors):
            # images are normal forms, so a nonzero one is nonzero in B
            if not img.is_zero() and normal_form(img, ideal, order).is_zero():
                return NonNilpotencyCertificate(
                    {"kind": "divisibility", "generator": nm,
                     "image": str(img)},
                    "%s divides its nonzero image %s in a domain" % (nm, img))
        return None


def _reduce_packed(work: dict, red, guard: int, step) -> dict:
    """`nf_against` on packed monomials: work maps packed monomials to
    coefficients and is consumed; returns the remainder."""
    heap = [-u for u in work]
    heapify(heap)
    rem = {}
    while heap:
        m = -heappop(heap)
        c = work.pop(m, 0)
        if c == 0:
            continue  # cancelled after it was pushed
        for lm, tail in red:
            if (m + guard - lm) & guard == guard:
                break
        else:
            rem[m] = c
            continue
        step()
        for t, tc in tail:
            u = m + t
            old = work.get(u)
            if old is None:
                work[u] = c * tc
                heappush(heap, -u)
            else:
                nv = old + c * tc
                if nv:
                    work[u] = nv
                else:
                    del work[u]
    return rem


def conjugate(d: Derivation, alpha) -> Derivation:
    """alpha^-1 o d o alpha for an automorphism alpha with a known inverse."""
    if alpha.inverse is None:
        raise ValueError("conjugation needs an automorphism with inverse")
    imgs = []
    for nm in d.ring.ctx.names:
        v = alpha.apply(d.ring.ctx.var(nm))
        v = d.apply(v)
        imgs.append(alpha.inverse.apply(v))
    return Derivation(d.ring, imgs)
