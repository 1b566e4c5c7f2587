"""Hypersurface families with canonical locally nilpotent derivations.

Three constructors, each returning a fully verified instance:

* make_danielewski(n, P):  k[x,y,z] / (x^n z - P(x,y)) with P monic in y of
  degree m >= 2, derivation x^n d/dy + (dP/dy) d/dz, degrees (0, 1, m).
* make_koras_russell2(n, e, l, Q):  k[x,z,t,y] / (y (x^n+z^e)^l - Q(x,z,t))
  with Q monic in t of degree m >= 2, derivation (dQ/dt) d/dy +
  (x^n+z^e)^l d/dt, degrees (0, 0, 1, m).
* make_new_family(n, e, P, Q):  k[x,y,z] / (x^n y - P(x, s)) where
  s = Q(x,y) - x^e z, derivation x^e P_s d/dy + (Q_y P_s - x^n) d/dz,
  degrees (0, d, m d) and deg s = 1.

Verification means: declared generator degrees match the nilpotency orders,
the slice really is a local slice, and the plinth generator equals the
image of the slice, so lies in the kernel.  Constructors translate the main
variable by a rational root to put the origin on the hypersurface, and
reject inputs where no rational translation exists.

`FAMILIES` holds one `FamilySpec` row per family: everything the command
line, the triangular morphisms and the closed-form checks read about it.

The module also houses the bounded derivation search (desk-scale evidence
that every locally nilpotent derivation is a kernel multiple of the
canonical one).  The search refutes a candidate by an exact certificate
where one applies (the tangent map and divisibility on B, then both on
gr(B) against its homogenization gr(D)) and iterates only the rest; it
counts the rejections by kind.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .derivations import (Derivation, NilpotencyCertificate,
                          NonNilpotencyCertifier, RingPresentation,
                          certified_domain)
from .filtration import FiltrationSpec, PreconditionError
from .ideals import BudgetExhausted, Ideal, _budget, exact_quotient
from .linalg import nullspace, rational_roots, solve_combination
from .poly import Context, Polynomial


@dataclass
class FamilySpec:
    """One family's row.  Functions are named, not held, and looked up in
    their module at call time, so that a wrapper installed there is seen."""
    name: str                 # on the command line
    label: str                # as printed
    flags: tuple              # (flag, its polynomial's variables or None
                              # for an int) in constructor argument order
    build: str                # constructor in this module
    auto: str | None          # automorphism builder in lndfilt.morphisms
    triangular: tuple | None  # (slice, v) of the map x^n v = P(x, slice)
    graded: object            # (var, params) -> closed forms of gr's relations


FAMILIES = {spec.name: spec for spec in (
    FamilySpec("danielewski", "danielewski", (("n", None), ("P", ("x", "y"))),
               "make_danielewski", "build_auto_danielewski", ("y", "z"),
               lambda v, p: [v("x") ** p["n"] * v("z") - v("y") ** p["m"]]),
    FamilySpec("kr2", "koras-russell-2",
               (("n", None), ("e", None), ("l", None), ("Q", ("x", "z", "t"))),
               "make_koras_russell2", None, None,
               lambda v, p: [v("y") * (v("x") ** p["n"] + v("z") ** p["e"])
                             ** p["l"] - v("t") ** p["m"]]),
    FamilySpec("new", "new-family",
               (("n", None), ("e", None), ("P", ("x", "s")), ("Q", ("x", "y"))),
               "make_new_family", "build_auto_newfamily", ("s", "y"),
               lambda v, p: [v("x") ** p["n"] * v("y") - v("s") ** p["d"],
                             v("y") ** p["m"] - v("x") ** p["e"] * v("z")]),
)}


class FamilyInstance:
    """A presented ring, its canonical derivation and the declared data."""

    def __init__(self, spec: FamilySpec, params: dict, ring: RingPresentation,
                 derivation: Derivation, kernel_gens, slice_elem,
                 plinth_gen, degrees: dict):
        self.spec = spec
        self.family = spec.label
        self.params = params
        self.ring = ring
        self.derivation = derivation
        self.kernel_gens = list(kernel_gens)
        self.slice_elem = slice_elem
        self.plinth_gen = plinth_gen
        self.degrees = dict(degrees)
        if not ring.eq(derivation.apply(slice_elem), plinth_gen):
            raise PreconditionError("plinth generator is not the slice image")
        # validates kernel membership, the slice (so D(plinth) = D(D(slice))
        # = 0) and all declared degrees
        self.filtration = FiltrationSpec(
            derivation, kernel_gens, [slice_elem], degrees)

    def __repr__(self):
        ps = ", ".join("%s=%s" % (k, v) for k, v in sorted(self.params.items())
                       if isinstance(v, int))
        return "FamilyInstance(%s, %s)" % (self.family, ps)

    def relation(self) -> Polynomial:
        return self.ring.relations.gens[0]

    def expected_graded_relations(self):
        """Closed forms the graded presentation must kill."""
        return self.spec.graded(self.filtration.ext_ctx.var, self.params)

    def describe(self) -> dict:
        return {
            "family": self.family,
            "parameters": {k: (str(v) if isinstance(v, Polynomial) else v)
                           for k, v in self.params.items()},
            "relation": str(self.relation()),
            "derivation": {nm: str(self.derivation.image_of(nm))
                           for nm in self.ring.ctx.names},
            "degrees": self.degrees,
            "kernel_generators": [str(g) for g in self.kernel_gens],
            "slice": str(self.slice_elem),
            "plinth_generator": str(self.plinth_gen),
        }


def _as_poly(p, ctx: Context, what: str) -> Polynomial:
    if not isinstance(p, Polynomial):
        raise TypeError("%s must be a Polynomial" % what)
    for nm in p.ctx.names:
        if nm not in ctx and p.degree_in(nm) > 0:
            raise PreconditionError(
                "%s may only involve %s" % (what, ", ".join(ctx.names)))
    return p.restrict(ctx) if p.ctx != ctx else p


def _monic_in(p: Polynomial, name: str, what: str) -> int:
    d = p.degree_in(name)
    lead = p.coeffs_in(name).get(d)
    if lead is None or not (lead.is_constant() and lead.constant_value() == 1):
        raise PreconditionError("%s must be monic in %s" % (what, name))
    return d


def _translate_to_root(p: Polynomial, name: str, what: str) -> tuple:
    """Shift `name` by a rational root so p vanishes when all vars are 0."""
    origin = {nm: Fraction(0) for nm in p.ctx.names}
    if p.eval_rational(origin) == 0:
        return p, Fraction(0)
    coeffs = p.coeffs_in(name)
    origin_row = {nm: Fraction(0) for nm in p.ctx.names}
    uni = [coeffs.get(j, p.ctx.zero()).eval_rational(origin_row)
           for j in range(max(coeffs) + 1)]
    try:
        roots = rational_roots(uni, _budget().step)
    except BudgetExhausted as e:
        raise BudgetExhausted(
            "rational-root search of %s = %s in %s (to move the origin onto "
            "the hypersurface): %s" % (what, p, name, e)) from None
    if not roots:
        raise PreconditionError(
            "%s has no rational root in %s; cannot move the origin onto "
            "the hypersurface" % (what, name))
    c = sorted(roots, key=lambda r: (abs(r), r))[0]
    shifted = p.subs({name: p.ctx.var(name) + c}, p.ctx)
    return shifted, c


def make_danielewski(n: int, P: Polynomial,
                     translate_origin: bool = True) -> FamilyInstance:
    """x^n z = P(x,y) with the triangular derivation (0, x^n, dP/dy).

    translate_origin=False skips the y-translation that puts the origin on
    the hypersurface; callers use it when a different normalization of P
    (such as a vanishing subleading coefficient) must be kept.
    """
    if n < 2:
        raise PreconditionError("need n >= 2")
    ctx_p = Context(["x", "y"])
    P = _as_poly(P, ctx_p, "P")
    m = _monic_in(P, "y", "P")
    if m < 2:
        raise PreconditionError("need deg_y P >= 2")
    if translate_origin:
        P, _ = _translate_to_root(P, "y", "P")
    ctx = Context(["x", "y", "z"])
    x, y, z = ctx.gens()
    rel = x ** n * z - P.lift(ctx)
    ring = RingPresentation(ctx, Ideal(ctx, [rel]))
    D = Derivation(ring, [ctx.zero(), x ** n, P.partial("y").lift(ctx)])
    return FamilyInstance(
        FAMILIES["danielewski"], {"n": n, "m": m, "P": P}, ring, D,
        kernel_gens=[x], slice_elem=y, plinth_gen=x ** n,
        degrees={"x": 0, "y": 1, "z": m})


def make_koras_russell2(n: int, e: int, l: int, Q: Polynomial) -> FamilyInstance:
    """y (x^n+z^e)^l = Q(x,z,t) with derivation (dQ/dt) d/dy + (x^n+z^e)^l d/dt."""
    if min(n, e, l) < 2:
        raise PreconditionError("need n, e, l >= 2")
    ctx_q = Context(["x", "z", "t"])
    Q = _as_poly(Q, ctx_q, "Q")
    m = _monic_in(Q, "t", "Q")
    if m < 2:
        raise PreconditionError("need deg_t Q >= 2")
    Q, _ = _translate_to_root(Q, "t", "Q")
    ctx = Context(["x", "z", "t", "y"])
    x, z, t, y = ctx.gens()
    core = (x ** n + z ** e) ** l
    rel = y * core - Q.lift(ctx)
    ring = RingPresentation(ctx, Ideal(ctx, [rel]))
    D = Derivation(ring, [ctx.zero(), ctx.zero(), core,
                          Q.partial("t").lift(ctx)])
    return FamilyInstance(
        FAMILIES["kr2"], {"n": n, "e": e, "l": l, "m": m, "Q": Q}, ring, D,
        kernel_gens=[x, z], slice_elem=t, plinth_gen=core,
        degrees={"x": 0, "z": 0, "t": 1, "y": m})


def make_new_family(n: int, e: int, P: Polynomial, Q: Polynomial) -> FamilyInstance:
    """x^n y = P(x, s) for s = Q(x,y) - x^e z, with deg s = 1.

    The derivation sends y to x^e P_s(x,s) and z to Q_y(x,y) P_s(x,s) - x^n,
    so s maps to x^(n+e) exactly.
    """
    if n < 2 or e < 1:
        raise PreconditionError("need n >= 2 and e >= 1")
    ctx_p = Context(["x", "s"])
    ctx_q = Context(["x", "y"])
    P = _as_poly(P, ctx_p, "P")
    Q = _as_poly(Q, ctx_q, "Q")
    d = _monic_in(P, "s", "P")
    m = _monic_in(Q, "y", "Q")
    if d < 2 or m < 1:
        raise PreconditionError("need deg_s P >= 2 and deg_y Q >= 1")
    # move the origin onto the hypersurface: root-shift y inside Q, then
    # shift the constant of Q over into P so the slice vanishes at 0
    composed = P.subs({"x": ctx_q.zero(), "s": Q.subs({"x": ctx_q.zero()})},
                      ctx_q)
    _, y0 = _translate_to_root(composed, "y", "P(0, Q(0, y))")
    if y0 != 0:
        Q = Q.subs({"y": ctx_q.var("y") + y0}, ctx_q)
    c = Q.eval_rational({"x": Fraction(0), "y": Fraction(0)})
    if c != 0:
        Q = Q - ctx_q.const(c)
        P = P.subs({"s": ctx_p.var("s") + c}, ctx_p)
    ctx = Context(["x", "y", "z"])
    x, y, z = ctx.gens()
    s_elem = Q.lift(ctx) - x ** e * z
    P_s = P.partial("s").subs({"s": s_elem}, ctx)
    rel = x ** n * y - P.subs({"s": s_elem}, ctx)
    ring = RingPresentation(ctx, Ideal(ctx, [rel]))
    D = Derivation(ring, [ctx.zero(), x ** e * P_s,
                          Q.partial("y").lift(ctx) * P_s - x ** n])
    if D._apply_free(s_elem) != x ** (n + e):
        raise PreconditionError("slice image is not x^(n+e); bad input")
    return FamilyInstance(
        FAMILIES["new"], {"n": n, "e": e, "d": d, "m": m, "P": P, "Q": Q},
        ring, D, kernel_gens=[x], slice_elem=s_elem,
        plinth_gen=x ** (n + e), degrees={"x": 0, "y": d, "z": m * d})


# ------------------------------------------------------------ bounded search

@dataclass
class LndCandidate:
    derivation: Derivation
    certificate: NilpotencyCertificate
    classification: str        # "multiple-of-canonical" | "other"
    factor: Polynomial | None
    source: str                # "basis" | "sample" | "canonical"


@dataclass
class LndSearchResult:
    solution_dimension: int
    candidates: list = field(default_factory=list)
    # rejections by the exact certificate that refuted the candidate, or
    # by iteration when none did
    rejections: dict = field(default_factory=lambda: dict.fromkeys(
        ("tangent", "divisibility", "graded", "iteration"), 0))
    trivial: int = 0           # vectors whose images reduce to 0 mod relations
    notes: list = field(default_factory=list)

    @property
    def rejected(self) -> int:
        return sum(self.rejections.values())


def _monomials_up_to(ctx: Context, degree: int):
    n = len(ctx)
    out = []
    for total in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(n), total):
            expo = [0] * n
            for i in combo:
                expo[i] += 1
            out.append(tuple(expo))
    return out


def bounded_lnd_search(inst: FamilyInstance, image_degree_bound: int,
                       nilp_bound: int) -> LndSearchResult:
    """Solve for all derivations with images of bounded degree, then filter
    by bounded nilpotency and classify against the canonical derivation.

    The well-definedness condition D(rel) = h * rel is linear in the image
    coefficients once the cofactor h (degree <= bound - 1) joins the
    unknowns.  Nilpotency is tested on each nullspace basis vector and on a
    few random combinations; nilpotent derivations do not form a linear
    space, so this is evidence, not a classification of the whole space.
    Each test runs on the multiple of the candidate that clears the
    denominators of its image coefficients, which has the same nilpotency
    orders and iterates of the same sizes, so the iteration stays in
    integers as far as the relations allow.  A candidate that an exact
    non-nilpotency certificate (`NonNilpotencyCertifier`) rejects is never
    iterated; it counts as rejected all the same.  The certificates run on
    the candidate D, then, where gr(B) is a certified domain, on its
    homogenization gr(D) (`FiltrationSpec.homogenization`), which is
    locally nilpotent whenever D is.
    """
    if image_degree_bound < 1 or nilp_bound < 1:
        raise PreconditionError("bounds must be at least 1")
    ring = inst.ring
    ctx = ring.ctx
    rel = inst.relation()
    img_monos = _monomials_up_to(ctx, image_degree_bound)
    cof_monos = _monomials_up_to(ctx, image_degree_bound - 1)
    partials = [rel.partial(nm) for nm in ctx.names]

    columns = []
    for vi in range(len(ctx)):
        for mono in img_monos:
            columns.append(partials[vi] * ctx.monomial(mono))
    for mono in cof_monos:
        columns.append(-(rel * ctx.monomial(mono)))

    # one equation per monomial: its coefficient in sum_j u_j * columns[j]
    rows: dict = {}
    for j, p in enumerate(columns):
        for mm, c in p.terms.items():
            rows.setdefault(mm, {})[j] = c
    basis = nullspace(rows.values(), len(columns))

    nimg = len(img_monos)
    nimg_all = len(ctx) * nimg  # the cofactor unknowns follow the images

    def vector_to_derivation(vec):
        images = []
        for vi in range(len(ctx)):
            terms: dict = {}
            for k, mono in enumerate(img_monos):
                c = vec[vi * nimg + k]
                if c:
                    terms[mono] = c
            images.append(Polynomial(ctx, terms))
        return Derivation(ring, images, check=True)

    result = LndSearchResult(solution_dimension=len(basis))
    seen_keys = set()
    refuter = NonNilpotencyCertifier(ring)
    fs = inst.filtration
    # certified_domain takes one relation at most, so a J with more
    # generators is skipped before Jhat is built
    graded = (NonNilpotencyCertifier(fs._graded_ring())
              if len(fs.extended_ideal.gens) == 1
              and certified_domain(fs._graded_ring()) else None)

    def refutation(D):
        """The kind of the first certificate that refutes D, or None."""
        cert = refuter.certify(D)
        if cert is not None:
            return cert.data["kind"]
        if graded is not None and graded.certify(fs.homogenization(D)[0]):
            return "graded"
        return None

    def consider(vec, source):
        D = vector_to_derivation(vec)
        if all(img.is_zero() for img in D.images):
            result.trivial += 1
            return None
        key = tuple(img.key() for img in D.images)
        if key in seen_keys:
            return None
        scale = math.lcm(*(c.denominator for c in vec[:nimg_all]))
        cleared = D
        if scale != 1:
            cleared = Derivation(ring, [img * scale for img in D.images],
                                 check=False)
        kind = refutation(cleared)
        cert = None if kind else cleared.is_locally_nilpotent(nilp_bound, 300)
        if cert is None:
            result.rejections[kind or "iteration"] += 1
            return None
        if scale != 1:
            D._take_orders(cleared, scale)
        seen_keys.add(key)
        cls, factor = _classify_against_canonical(inst, D, image_degree_bound)
        result.candidates.append(LndCandidate(D, cert, cls, factor, source))
        return D

    for vec in basis:
        consider(vec, "basis")
    rng = random.Random(3)
    for _ in range(5):
        if not basis:
            break
        coeffs = [rng.randint(-2, 2) for _ in basis]
        if not any(coeffs):
            coeffs[rng.randrange(len(basis))] = 1
        # the basis vectors are mostly zero, so add only the nonzero products
        vec = [0] * len(basis[0])
        for c, b in zip(coeffs, basis):
            if c:
                for i, v in enumerate(b):
                    if v:
                        vec[i] += c * v
        consider(vec, "sample")

    canonical_images = [ring.nf(inst.derivation.image_of(nm)) for nm in ctx.names]
    if all(img.degree() <= image_degree_bound or img.is_zero()
           for img in canonical_images):
        have = any(
            all(ring.eq(c.derivation.image_of(nm), inst.derivation.image_of(nm))
                for nm in ctx.names)
            for c in result.candidates)
        if not have:
            cert = inst.derivation.is_locally_nilpotent(nilp_bound, 300)
            if cert is not None:
                cls, factor = _classify_against_canonical(
                    inst, inst.derivation, image_degree_bound)
                result.candidates.append(LndCandidate(
                    inst.derivation, cert, cls, factor, "canonical"))
    else:
        result.notes.append(
            "canonical derivation exceeds the image degree bound")
    return result


def _classify_against_canonical(inst: FamilyInstance, D: Derivation,
                                degree_bound: int):
    """multiple-of-canonical when D = f * canonical for one f in the kernel
    variables; returns (classification, f or None)."""
    ring = inst.ring
    ctx = ring.ctx
    for z in inst.kernel_gens:
        if not ring.is_zero(D.apply(z)):
            return "other", None
    target = ring.nf(D.apply(inst.slice_elem))
    plinth = ring.nf(inst.plinth_gen)
    f = exact_quotient(target, plinth)
    if f is None:
        f = _quotient_by_linear_solve(inst, target, plinth, degree_bound)
        if f is None:
            return "other", None
    kernel_names = {nm for g in inst.kernel_gens for nm in ctx.names
                    if g.degree_in(nm) > 0}
    for nm in ctx.names:
        if nm not in kernel_names and f.degree_in(nm) > 0:
            return "other", None
    for nm in ctx.names:
        if not ring.is_zero(D.image_of(nm) - f * inst.derivation.image_of(nm)):
            return "other", None
    return "multiple-of-canonical", f


def _quotient_by_linear_solve(inst, target, plinth, degree_bound):
    """f in the span of the kernel monomials of degree <= degree_bound with
    nf(f * plinth) = target, or None when there is none."""
    cand = [p for _, p in inst.filtration.kernel_products(degree_bound)]
    sol = solve_combination([inst.ring.nf(c * plinth).terms
                             for c in cand], target.terms)
    if sol is None:
        return None
    f = inst.ring.ctx.zero()
    for c, mono in zip(sol, cand):
        if c:
            f = f + mono * c
    return f

