"""Candidate filtrations from derivation data and their associated graded rings.

Given a presented domain B, a locally nilpotent derivation D, generators of
its kernel and a list of local slices with declared generator degrees, we
form the extended polynomial ring (ring generators, plus fresh names for any
kernel generator or slice that is not itself a generator), the ideal J of all
defining relations, and the weight vector
    kernel generators -> 0,  slices -> 1,  ring generator x_i -> declared d_i.
The candidate filtration puts an element in layer r when it has a J-preimage
of weight <= r; the normal form under a weight-refined order realizes the
minimal such weight, so layer membership is computable.  The ideal of top
forms Jhat presents the associated graded ring, on which any derivation of
B induces a homogeneous one, its homogenization gr(D).

The declared data is certified from the images on the extended generators,
without iterating D: each image needs a representative modulo J of weight
one below its generator's, and the Leibniz top terms then give each d_i
exactly as the order of x_i, with its top iterate (`_certified_orders`,
the `homogenization` argument with k = -1).  Where that certificate does
not apply, D is applied and iterated as before, and those checks word any
error.

Properness is decided along two routes: the binomial lattice-ideal primality
certificate for Jhat when it applies, otherwise an empirical route that
compares the induced weight degree with the iteration oracle on sampled
elements and random products.  Only an exhausted budget yields "undecided";
a failed probe always carries an explicit witness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import factorial

from .derivations import (BoundExceeded, Derivation, RingPresentation,
                          leibniz_top, top_table)
from .ideals import (BudgetExhausted, Ideal, MonomialOrder, binomial_prime,
                     initial_ideal, nf_against, normal_form)
from .poly import (NEG_INF, Context, Polynomial, mono_wdeg,
                   random_polynomial)


class PreconditionError(ValueError):
    """Input violates a documented precondition."""


@dataclass
class LayerGenerator:
    weight: int
    monomial: Polynomial       # in the extended context, positive variables only
    graded_form: Polynomial    # canonical normal form of its symbol mod Jhat


@dataclass
class PropernessResult:
    status: str                # "proper" | "improper" | "undecided"
    method: str                # "binomial-prime" | "empirical"
    reason: str = ""
    certificate: object = None
    witness: object = None     # offending element or pair, when improper
    samples: int = 0

    def __bool__(self):
        return self.status == "proper"


class GradedPresentation:
    """The associated graded ring: extended variables modulo top forms."""

    def __init__(self, ring: RingPresentation, degrees):
        self.ring = ring
        self.degrees = tuple(degrees)

    @property
    def ctx(self):
        return self.ring.ctx

    def is_homogeneous(self, p: Polynomial) -> bool:
        q = self.ring.nf(p)
        if q.is_zero():
            return True
        d = q.weighted_degree(self.degrees)
        return all(mono_wdeg(m, self.degrees) == d for m in q.terms)

    def describe(self):
        return {
            "variables": [
                {"name": nm, "degree": d}
                for nm, d in zip(self.ctx.names, self.degrees)],
            "relations": [str(g) for g in self.ring.relations.gens],
        }


class FiltrationSpec:
    """Derivation, kernel generators, slices and degrees, wired together."""

    def __init__(self, derivation: Derivation, kernel_gens, slices,
                 var_degrees: dict, validate: bool = True):
        self.derivation = derivation
        self.ring = derivation.ring
        ctx = self.ring.ctx
        self.kernel_gens = [self.ring.nf(z) for z in kernel_gens]
        self.slices = [self.ring.nf(s) for s in slices]
        self.var_degrees = dict(var_degrees)
        for nm in ctx.names:
            if nm not in self.var_degrees:
                raise PreconditionError("no declared degree for %s" % nm)

        # fresh names for non-variable kernel generators and slices
        taken = set(ctx.names)

        def fresh(nm):
            while nm in taken:
                nm += "_"
            taken.add(nm)
            return nm

        # (name, defining element) per adjoined variable, kernel generators
        # (weight 0) before slices (weight 1)
        self.adjoined = [(fresh("z%d" % (i + 1)), z)
                         for i, z in enumerate(self.kernel_gens)
                         if not _is_variable(z)]
        omega = [self.var_degrees[nm] for nm in ctx.names] \
            + [0] * len(self.adjoined)
        for j, s in enumerate(self.slices):
            if not _is_variable(s):
                if len(self.slices) == 1 and "s" not in taken:
                    want = "s"
                else:
                    want = "s%d" % (j + 1)
                self.adjoined.append((fresh(want), s))
                omega.append(1)
        self.omega = tuple(omega)
        self.ext_ctx = Context(list(ctx.names) + [nm for nm, _ in self.adjoined])
        self.extended_ideal = Ideal(
            self.ext_ctx, [g.lift(self.ext_ctx) for g in self.ring.relations.gens]
            + [self.ext_ctx.var(nm) - p.lift(self.ext_ctx)
               for nm, p in self.adjoined])
        if validate:
            self._validate()
        self.j_order = MonomialOrder.weight(self.omega, self._tiebreak_perm())

        self._jhat_ring = None
        self._properness = None
        self._graded = None

    # ------------------------------------------------------------ plumbing

    def _validate(self):
        """Check the kernel generators, the slices and the declared degrees,
        and cache the generators' orders and top iterates on D.  The
        certificate `_certified_orders` settles all of it at once; where it
        does not apply, D is applied to each kernel generator and slice and
        iterated on each generator, and these checks word any error."""
        got = self._certified_orders()
        if got is not None:
            self.derivation._cache_orders(*got)
            return
        D = self.derivation
        for z in self.kernel_gens:
            if z.constant_value() != 0:
                raise PreconditionError("kernel generator %s nonzero at origin" % z)
            if not D.kernel_member(z):
                raise PreconditionError("%s is not in the kernel" % z)
        for s in self.slices:
            if s.constant_value() != 0:
                raise PreconditionError("slice %s nonzero at origin" % s)
            if not D.is_local_slice(s):
                raise PreconditionError("%s is not a local slice" % s)
        # a generator's degree is its nilpotency order
        orders = D.variable_orders()
        if orders is None:
            raise BoundExceeded(
                "no nilpotency certificate for default bound 256; declared "
                "degrees %s" % ", ".join(
                    "%s:%d" % kv for kv in self.var_degrees.items()))
        for nm in self.ring.ctx.names:
            if orders[nm] != self.var_degrees[nm]:
                raise PreconditionError(
                    "declared degree %d of %s disagrees with oracle %s"
                    % (self.var_degrees[nm], nm, orders[nm]))

    def _certified_orders(self):
        """(orders, top iterates) of the ring generators, as
        `Derivation.variable_orders` caches them, from the images on the
        extended generators v of weight w_v; None where the certificate
        does not apply.

        1. q_v: a representative of D(v) modulo J, the stored image (D(p)
           before reduction for an adjoined v = p) when its weight is
           already below w_v, else its `nf_against` by J's generators as
           given.  It must have weight w_v - 1, and be 0 where w_v = 0.
        2. By increasing weight, top_v = (w_v - 1)! * T(q_v), with T the
           Leibniz top term (`leibniz_top`) over the weights and the tops
           already found, and top_v = v where w_v = 0.
        3. Each ring generator and each adjoined slice needs
           nf(pi(top_v)) != 0, where pi substitutes the adjoined
           definitions; for a ring generator it is the top iterate.

        Proof.  Let E be the derivation of the polynomial ring in the v
        with E(v) = q_v.  The maps p -> D(pi(p)) and p -> pi(E(p)) are
        derivations into B that agree on every v, so D^j(pi(p)) =
        pi(E^j(p)).  E lowers weights by at least 1 and kills the weight-0
        generators, so E^(w_v + 1)(v) = 0, and by Leibniz, as in the
        `derivations` module docstring, E^(w_v)(v) = (w_v - 1)! * T(q_v) =
        top_v.  Hence D^(d_i + 1)(x_i) = 0 and D^(d_i)(x_i) = pi(top) != 0:
        x_i has order d_i = w_(x_i), the `homogenization` argument with
        k = -1.  Likewise D kills each kernel generator (q_v = 0), and
        each slice has D(s) = pi(q_s) != 0 and D^2(s) = 0.

        A variable that is a kernel generator or a slice must carry weight
        0 or 1, every weight must be >= 0 and the orders at most 256, the
        bound `variable_orders` iterates to by default."""
        ctx, omega, D = self.ring.ctx, self.omega, self.derivation
        n = len(ctx)
        if min(omega, default=0) < 0 or max(omega[:n], default=0) > 256:
            return None
        for elems, w in ((self.kernel_gens, 0), (self.slices, 1)):
            for p in elems:
                if p.constant_value() != 0 or (
                        _is_variable(p) and omega[_var_index(p)] != w):
                    return None
        ext, gens = self.ext_ctx, self.extended_ideal.gens
        order = MonomialOrder.weight(omega, self._tiebreak_perm())
        qs = []
        for img, w in zip([*D.images, *(D._apply_free(p) for _, p in self.adjoined)],
                          omega):
            q = img.lift(ext)
            if q.weighted_degree(omega) >= w:
                q = nf_against(q, gens, order)
            if q.weighted_degree(omega) != (w - 1 if w else NEG_INF):
                return None
            qs.append(q)
        tops = list(ext.gens())
        tables = [top_table(0, v) for v in tops]
        for i in sorted(range(len(omega)), key=omega.__getitem__):
            w = omega[i]
            if w:
                tops[i] = factorial(w - 1) * leibniz_top(qs[i], omega, tables, w - 1)
                tables[i] = top_table(w, tops[i])
        nilp = []  # ring generators first, then adjoined slices
        for i, top in enumerate(tops):
            if i < n or omega[i]:
                b = self.ring.nf(self.ring_element_of(top))
                if b.is_zero():
                    return None
                nilp.append(b)
        return dict(zip(ctx.names, omega)), tuple(nilp[:n])

    def _tiebreak_perm(self):
        """Slices first, then positive ring variables, then weight zero,
        then adjoined kernel names: normal forms then prefer rewriting into
        kernel variables, which is what the layer dedup wants."""
        ctx = self.ring.ctx
        n_ring = len(ctx)
        adjoined = range(n_ring, len(self.omega))
        first = [i for i in adjoined if self.omega[i] == 1] \
            + [ctx.index(s.ctx.names[_var_index(s)])
               for s in self.slices if _is_variable(s)]
        rest = [i for i in range(n_ring) if i not in first]
        return (first + [i for i in rest if self.omega[i] > 0]
                + [i for i in rest if self.omega[i] == 0]
                + [i for i in adjoined if self.omega[i] == 0])

    def min_weight_nf(self, p: Polynomial) -> Polynomial:
        """The omega-minimal J-preimage of p, as a normal form."""
        return normal_form(p.lift(self.ext_ctx), self.extended_ideal, self.j_order)

    def omega_b(self, p: Polynomial):
        """Induced filtration degree: weight of the minimal preimage."""
        return self.min_weight_nf(p).weighted_degree(self.omega)

    def initial_ideal_hat(self) -> Ideal:
        return self._graded_ring().relations

    def _graded_ring(self) -> RingPresentation:
        """The extended variables modulo Jhat, built once."""
        if self._jhat_ring is None:
            jhat = initial_ideal(self.extended_ideal, self.omega, self.j_order.perm)
            self._jhat_ring = RingPresentation(self.ext_ctx, jhat, self.j_order)
        return self._jhat_ring

    def _symbol(self, q: Polynomial) -> Polynomial:
        """The top form of a minimal-weight normal form q, reduced mod Jhat."""
        if q.is_zero():
            return q
        return self._graded_ring().nf(q.top_form(self.omega))

    # ------------------------------------------------------------ properness

    def properness_check(self) -> PropernessResult:
        if self._properness is not None:
            return self._properness
        try:
            jhat = self.initial_ideal_hat()
            cert = binomial_prime(jhat, self.j_order)
        except BudgetExhausted as e:
            return PropernessResult("undecided", "binomial-prime", reason=str(e))
        if cert.status == "prime":
            res = PropernessResult("proper", "binomial-prime",
                                   reason="initial ideal is prime",
                                   certificate=cert)
        elif cert.status == "not-prime":
            probe = self._empirical_probe(25, 1123)
            res = PropernessResult("improper", "binomial-prime",
                                   reason="initial ideal is not prime",
                                   certificate=cert, witness=probe and probe[1])
        else:
            try:
                probe = self._empirical_probe(25, 1123)
            except BudgetExhausted as e:
                return PropernessResult("undecided", "empirical", reason=str(e))
            if probe is None:
                res = PropernessResult(
                    "proper", "empirical", samples=25,
                    reason="degree multiplicativity held on all samples")
            else:
                res = PropernessResult("improper", "empirical", reason=probe[0],
                                       witness=probe[1], samples=25)
        self._properness = res
        return res

    def probes(self, max_weight: int, zero_cap: int):
        """Yield (monomial, weight, nf(b)) for the monomials in the
        positive-weight coordinates of weight <= max_weight, each times the
        weight-zero coordinate monomials of total degree <= zero_cap, with b
        the monomial's element of B; monomials whose b is 0 are skipped."""
        zero_vars = [(i, 1) for i, w in enumerate(self.omega) if w == 0]
        positive = [(i, w) for i, w in enumerate(self.omega) if w > 0]
        for expo, w in _bounded_exponents(positive, max_weight):
            for zexpo, _ in _bounded_exponents(zero_vars, zero_cap):
                mono = self._monomial_from(expo + zexpo)
                b = self.ring.nf(self.ring_element_of(mono))
                if not b.is_zero():
                    yield mono, w, b

    def _monomial_from(self, expo_pairs) -> Polynomial:
        expo = [0] * len(self.ext_ctx)
        for i, e in expo_pairs:
            expo[i] = e
        return self.ext_ctx.monomial(expo)

    def ring_element_of(self, ext_poly: Polynomial) -> Polynomial:
        """Substitute defining polynomials for adjoined variables."""
        n = len(self.ring.ctx)  # the ring's variables come first
        if not any(any(m[n:]) for m in ext_poly.terms):
            return Polynomial(self.ring.ctx,
                              {m[:n]: c for m, c in ext_poly.terms.items()})
        return ext_poly.subs(dict(self.adjoined), self.ring.ctx)

    def _empirical_probe(self, samples, seed):
        """Return (reason, witness) on failure, None when all probes pass."""
        D = self.derivation
        for mono, w, b in self.probes(6, 0):
            if w == 0:
                continue
            d_oracle = D.deg(b)
            d_ind = self.omega_b(b)
            if d_oracle != d_ind:
                return ("induced degree %s of %s disagrees with oracle %s"
                        % (d_ind, mono, d_oracle), mono)
        rng = random.Random(seed)
        checked = 0
        while checked < samples:
            a = random_polynomial(self.ring.ctx, rng, max_degree=2, max_terms=3)
            b = random_polynomial(self.ring.ctx, rng, max_degree=2, max_terms=3)
            if self.ring.nf(a).is_zero() or self.ring.nf(b).is_zero():
                continue
            checked += 1
            da, db = self.omega_b(a), self.omega_b(b)
            dab = self.omega_b(a * b)
            if dab != da + db:
                return ("product degree %s != %s + %s" % (dab, da, db), (a, b))
            if checked % 10 == 1:
                if D.deg(a) != da:
                    return ("induced degree %s of %s disagrees with oracle %s"
                            % (da, a, D.deg(a)), a)
        return None

    # ------------------------------------------------------------ graded ring

    def graded_presentation(self) -> GradedPresentation:
        if self._graded is not None:
            return self._graded
        check = self.properness_check()
        if check.status != "proper":
            raise PreconditionError(
                "graded presentation requires a proper filtration (%s: %s)"
                % (check.status, check.reason))
        self._graded = GradedPresentation(self._graded_ring(), self.omega)
        return self._graded

    # ------------------------------------------------------------ layers

    def candidate_layers(self, r: int):
        """Deduplicated monomial generators of the layers up to weight r.

        Generators are monomials in the positive-weight variables; a
        monomial is dropped when its graded symbol visibly lies in the
        module generated (over the weight-zero variables) by an already
        accepted generator of the same weight.
        """
        cands = []
        positive = [(i, w) for i, w in enumerate(self.omega) if w > 0]
        for expo, w in _bounded_exponents(positive, r):
            mono = self._monomial_from(expo)
            cands.append((w, mono, self._symbol(self.min_weight_nf(mono))))
        zero_idx = [i for i, wt in enumerate(self.omega) if wt == 0]
        zero_set = set(zero_idx)

        def w0deg(p):
            if p.is_zero():
                return 0
            return max(sum(m[i] for i in zero_idx) for m in p.terms)

        def split_term(p):
            """(positive part, weight-zero exponents) of a one-term form."""
            if p.num_terms() != 1:
                return None
            (m, _), = p.terms.items()
            pos = tuple(0 if i in zero_set else e for i, e in enumerate(m))
            return pos, tuple(m[i] for i in zero_idx)

        cands.sort(key=lambda t: (t[0], w0deg(t[2]), str(t[1])))
        accepted = []
        seen: dict = {}
        for w, mono, canon in cands:
            st = split_term(canon)
            if st is not None:
                pos, zer = st
                reps = seen.setdefault((w, pos), [])
                # drop only when the symbol is a weight-zero monomial times
                # an accepted one, i.e. visibly redundant over layer zero
                if any(all(a <= b for a, b in zip(rep, zer)) for rep in reps):
                    continue
                reps.append(zer)
            accepted.append(LayerGenerator(w, mono, canon))
        return accepted

    # ------------------------------------------------------------ induced derivation

    def homogenization(self, D: Derivation):
        """(gr(D), k) on `_graded_ring()` for a nonzero derivation D of the
        ring, or None for D = 0.

        Each extended generator v of weight w_v gets q_v, the minimal-weight
        preimage of D(v), and the gap w(q_v) - w_v; k is the largest gap,
        and gr(D) sends v to the symbol of q_v where the gap is k, else 0.

        Proof that gr(D) is a derivation of gr(B), homogeneous of degree k,
        and locally nilpotent when D is.  Let F_r be the image in B of the
        polynomials in v of weight <= r, and let E be the derivation of the
        polynomial ring with E(v) = q_v.  The maps p -> D(p(v)) and
        p -> E(p)(v) are derivations into B that agree on every v, so they
        agree, and E raises weights by at most k: D(F_r) is in F_(r+k).  So
        [b]_r -> [D(b)]_(r+k) is well defined on gr(B) = sum of F_r/F_(r-1),
        a derivation of degree k, and gr(D)^j [b]_r = [D^j(b)]_(r+jk).  The
        class [D(v)] in degree w_v + k is the symbol of q_v when its gap is
        k and 0 otherwise, since q_v has minimal weight.  If D^j kills b,
        gr(D)^j kills [b]; the classes [v] generate gr(B), so gr(D) is
        locally nilpotent.  No domain hypothesis is used.
        """
        omega = self.omega
        qs = [self.min_weight_nf(dv) for dv in
              [*D.images, *(D.apply(p) for _, p in self.adjoined)]]
        gaps = [None if q.is_zero() else q.weighted_degree(omega) - w
                for q, w in zip(qs, omega)]
        live = [gap for gap in gaps if gap is not None]
        if not live:
            return None
        k = max(live)
        # symbols are normal forms mod Jhat, and gr(D) is well defined
        return Derivation(self._graded_ring(), [
            self._symbol(q) if gap == k else self.ext_ctx.zero()
            for q, gap in zip(qs, gaps)], check=False), k

    def induced_derivation(self, nilp_bound: int = 64):
        """The homogeneous derivation gr(D) on the graded presentation, from
        `homogenization`.  Verified: relations preserved, images homogeneous
        of the generators' degree plus k, locally nilpotent within the
        bound.
        """
        graded = self.graded_presentation()
        hom = self.homogenization(self.derivation)
        if hom is None:
            raise PreconditionError("zero derivation induces nothing")
        # the checked constructor verifies that Jhat is preserved
        gr_d, d = Derivation(graded.ring, hom[0].images), hom[1]
        gens = [(nm, self.ring.ctx.var(nm)) for nm in self.ring.ctx.names] \
            + self.adjoined
        for (nm, g), img in zip(gens, gr_d.images):
            if img.is_zero():
                continue
            if not graded.is_homogeneous(img):
                raise PreconditionError("induced image of %s not homogeneous" % nm)
            if img.weighted_degree(self.omega) != self.omega_b(g) + d:
                raise PreconditionError("induced image of %s has wrong degree" % nm)
        if gr_d.is_locally_nilpotent(nilp_bound) is None:
            raise PreconditionError(
                "induced derivation not visibly nilpotent within %d" % nilp_bound)
        return gr_d, d

    # ------------------------------------------------------------ kernel products

    def kernel_products(self, bound: int):
        """Yield (exponents, product) for the products of the kernel
        generators of total degree <= bound; exponents are (generator
        index, exponent > 0) pairs."""
        kg = self.kernel_gens
        for expo, _ in _bounded_exponents([(j, 1) for j in range(len(kg))], bound):
            a = self.ring.ctx.one()
            for j, e in expo:
                a = a * kg[j] ** e
            yield expo, a


def _is_variable(p: Polynomial) -> bool:
    if len(p.terms) != 1:
        return False
    (m, c), = p.terms.items()
    return c == 1 and sum(m) == 1


def _var_index(p: Polynomial) -> int:
    (m, _), = p.terms.items()
    return m.index(1)


def _bounded_exponents(var_weights, bound: int):
    """Yield (list of (var index, exponent>0), total weight) with weight <= bound."""
    out = [([], 0)]
    yield ([], 0)
    for i, w in var_weights:
        new = []
        for expo, total in out:
            e = 1
            while total + e * w <= bound and (w > 0 or e <= bound):
                item = (expo + [(i, e)], total + e * w)
                yield item
                new.append(item)
                e += 1
                if w == 0 and e > bound:
                    break
        out.extend(new)
