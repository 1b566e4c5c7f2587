"""Slow, independent oracles for the paper's claims, kept out of the package.

No command needs these; the acceptance battery and the unit tests do.
Each checks a result of the paper by a route of its own:

* `iterate`: D^k(p) by k applications, against the cached top iterates;
* `conjugate`, `composition_data`, `is_identity`: conjugation of a
  derivation by an automorphism, the data of a composite automorphism,
  and the identity test of a ring map;
* `gr`, `layer_equality_check`, `gr_properties_report`: symbols in the
  associated graded ring, the layers against the iteration oracle, and the
  properties P1-P4 of gr on random pairs;
* `verify_layer_formulas`, `ml_evidence`: the closed-form layer
  descriptions and the joint kernel of the searched derivations;
* `eliminate`, `saturate`: elimination by a lex order and saturation by
  the 1 - t*f trick, against which `binomial_prime`'s one-variable
  saturation test is checked.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from lndfilt.derivations import Derivation
from lndfilt.families import FamilyInstance, LndSearchResult, _monomials_up_to
from lndfilt.filtration import FiltrationSpec, PreconditionError
from lndfilt.ideals import Ideal, MonomialOrder
from lndfilt.linalg import Echelon, nullspace
from lndfilt.morphisms import AutomorphismData, RingMorphism, _scaled_x
from lndfilt.poly import Context, Polynomial, random_polynomial


# ------------------------------------------------------------ derivations

def iterate(D: Derivation, p: Polynomial, k: int) -> Polynomial:
    """D^k(p) in normal form, by k applications of D."""
    q = D.ring.nf(p)
    for _ in range(k):
        if q.is_zero():
            return q
        q = D.apply(q)
    return q


def conjugate(d: Derivation, alpha: RingMorphism) -> Derivation:
    """alpha^-1 o d o alpha for an automorphism alpha with a known inverse."""
    if alpha.inverse is None:
        raise ValueError("conjugation needs an automorphism with inverse")
    imgs = []
    for nm in d.ring.ctx.names:
        v = alpha.apply(d.ring.ctx.var(nm))
        v = d.apply(v)
        imgs.append(alpha.inverse.apply(v))
    return Derivation(d.ring, imgs)


# ------------------------------------------------------------ ideals

def eliminate(ideal: Ideal, drop) -> Ideal:
    """Generators of (ideal intersect subring without the dropped variables).

    Uses a lex order with the dropped block in front, which has the
    elimination property.  The result lives in the restricted context.
    """
    drop = list(drop)
    if not drop:
        return ideal
    ctx = ideal.ctx
    drop_idx = [ctx.index(nm) for nm in drop]
    rest_idx = [i for i in range(len(ctx)) if i not in set(drop_idx)]
    order = MonomialOrder.lex(len(ctx), perm=drop_idx + rest_idx)
    gb = ideal.groebner(order)
    small = Context([nm for nm in ctx.names if nm not in drop])
    kept = []
    for g in gb:
        if all(all(m[i] == 0 for i in drop_idx) for m in g.terms):
            kept.append(g.restrict(small))
    return Ideal(small, kept)


def saturate(ideal: Ideal, f: Polynomial) -> Ideal:
    """ideal : f^infinity, via the usual 1 - t*f trick and elimination."""
    ctx = ideal.ctx
    tname = "_t"
    while tname in ctx:
        tname += "_"
    ext = Context((tname,) + ctx.names)
    gens = [g.lift(ext) for g in ideal.gens]
    gens.append(ext.one() - ext.var(tname) * f.lift(ext))
    out = eliminate(Ideal(ext, gens), [tname])
    return Ideal(ctx, [g.restrict(ctx) for g in out.gens])


# ------------------------------------------------------------ morphisms

def is_identity(alpha: RingMorphism) -> bool:
    if alpha.source.ctx.names != alpha.target.ctx.names:
        return False
    return all(alpha.target.eq(img, alpha.target.ctx.var(nm))
               for nm, img in alpha.images.items())


def composition_data(d1: AutomorphismData, d2: AutomorphismData,
                     conductor: int) -> AutomorphismData:
    """Data of the composite (apply d1 first, then d2); conductor is the
    x-power in the y-translation term."""
    ctx = d1.a.ctx
    a = _scaled_x(d1.a, d2.lam, ctx) * d2.lam ** conductor + d2.a * d1.mu
    return AutomorphismData(d1.lam * d2.lam, d1.mu * d2.mu, a)


# ------------------------------------------------------------ graded ring

@dataclass
class GradedElement:
    poly: Polynomial
    degree: object             # int or NEG_INF


def gr(fs: FiltrationSpec, p: Polynomial) -> GradedElement:
    """Symbol of a ring element in the associated graded ring."""
    fs.graded_presentation()
    q = fs.min_weight_nf(p)
    return GradedElement(fs._symbol(q), q.weighted_degree(fs.omega))


def layer_equality_check(fs: FiltrationSpec, max_degree: int = 12):
    """Compare formal weight, minimal-preimage weight and the iteration
    oracle on the probes (see `FiltrationSpec.probes`; the weight-zero
    directions are unbounded, so their degree is capped at 2).  Returns
    the mismatches."""
    D = fs.derivation
    mismatches = []
    for mono, w, b in fs.probes(max_degree, 2):
        d_oracle = D.deg(b)
        d_ind = fs.omega_b(b)
        if not (d_oracle == w == d_ind):
            mismatches.append((mono, w, d_oracle, d_ind))
    return mismatches


def gr_properties_report(fs: FiltrationSpec, pairs: int = 200, seed: int = 7):
    """P1 multiplicativity, P2 domination, P3 additivity, P4 cancellation
    on random pairs; returns a dict report with any counterexample."""
    graded = fs.graded_presentation()
    rng = random.Random(seed)
    report = {"pairs": pairs, "P1": 0, "P2": 0, "P3": 0, "P4": 0,
              "oracle_checks": 0, "counterexample": None}

    def rand_nonzero():
        while True:
            a = random_polynomial(fs.ring.ctx, rng, 2, 3)
            if not fs.ring.nf(a).is_zero():
                return a

    def fail(tag, data):
        report["counterexample"] = (tag, data)
        return report

    for k in range(pairs):
        a, b = rand_nonzero(), rand_nonzero()
        ga, gb = gr(fs, a), gr(fs, b)
        if k % 10 == 0:
            if fs.derivation.deg(a) != ga.degree:
                return fail("degree-oracle", a)
            report["oracle_checks"] += 1
        # P1
        gab = gr(fs, a * b)
        if gab.degree != ga.degree + gb.degree:
            return fail("P1-degree", (a, b))
        if graded.ring.nf(gab.poly - ga.poly * gb.poly).is_zero():
            report["P1"] += 1
        else:
            return fail("P1", (a, b))
        # P2: force deg a > deg b by swapping / resampling
        hi, lo, ghi, glo = a, b, ga, gb
        if ghi.degree < glo.degree:
            hi, lo, ghi, glo = b, a, gb, ga
        if ghi.degree > glo.degree:
            gsum = gr(fs, hi + lo)
            if gsum.degree == ghi.degree and \
                    graded.ring.nf(gsum.poly - ghi.poly).is_zero():
                report["P2"] += 1
            else:
                return fail("P2", (hi, lo))
        # P3/P4 on a same-degree pair built from a
        lam = Fraction(rng.choice([-1, 1, 2, 3, -2]))
        low = random_polynomial(fs.ring.ctx, rng, max_degree=1, max_terms=2)
        if fs.omega_b(low) >= ga.degree:
            low = fs.ring.ctx.zero()
        b2 = lam * a + low
        gb2 = gr(fs, b2)
        if gb2.degree == ga.degree:
            s = gr(fs, a + b2)
            if s.degree == ga.degree:
                if graded.ring.nf(s.poly - ga.poly - gb2.poly).is_zero():
                    report["P3"] += 1
                else:
                    return fail("P3", (a, b2))
            else:
                if graded.ring.nf(ga.poly + gb2.poly).is_zero():
                    report["P4"] += 1
                else:
                    return fail("P4", (a, b2))
    return report


# ------------------------------------------------------------ families

def ml_evidence(inst: FamilyInstance, result: LndSearchResult,
                degree_cap: int = 6) -> dict:
    """Intersect the kernels of all found derivations on polynomials of
    bounded degree and compare with the kernel-variable algebra."""
    if not result.candidates:
        raise PreconditionError("empty search result")
    ring = inst.ring
    ctx = ring.ctx
    monos = [ctx.monomial(m) for m in _monomials_up_to(ctx, degree_cap)]
    # one equation per candidate and monomial of sum_j u_j * D(monos[j])
    rows = []
    for cand in result.candidates:
        eqs: dict = {}
        for j, m in enumerate(monos):
            for mm, c in ring.nf(cand.derivation.apply(m)).terms.items():
                eqs.setdefault(mm, {})[j] = c
        rows.extend(eqs.values())
    kernel_vecs = nullspace(rows, len(monos))

    computed = Echelon()
    computed_polys = []
    for vec in kernel_vecs:
        p = ctx.zero()
        for c, m in zip(vec, monos):
            if c:
                p = p + m * c
        q = ring.nf(p)
        if computed.add(q.terms):
            computed_polys.append(q)

    predicted = Echelon()
    predicted_polys = []
    for _, mono in inst.filtration.kernel_products(degree_cap):
        q = ring.nf(mono)
        if predicted.add(q.terms):
            predicted_polys.append(q)

    missing = [str(p) for p in predicted_polys if computed.reduce(p.terms)[0]]
    extra = [str(p) for p in computed_polys if predicted.reduce(p.terms)[0]]
    return {
        "degree_cap": degree_cap,
        "derivations_used": len(result.candidates),
        "computed_dimension": computed.dim(),
        "predicted_dimension": predicted.dim(),
        "extra": extra,
        "missing": missing,
        "equal": not missing and not extra,
    }


def _stated_layer_generators(inst: FamilyInstance, weight: int):
    """The closed-form module generators of the layer at a given weight.

    They are the products of the slice and the generators of declared
    degree > 1, taken in rising degree, where each factor's power stays
    below the next factor's degree divided by its own and the last
    factor's power is free.
    """
    ctx = inst.ring.ctx
    chain = [(1, inst.slice_elem)] + [
        (d, ctx.var(nm)) for d, nm in sorted(
            (d, nm) for nm, d in inst.degrees.items() if d > 1)]
    partial = [(ctx.one(), weight)]
    for (d, g), (d_next, _) in zip(chain, chain[1:]):
        partial = [(p * g ** k, rest - d * k) for p, rest in partial
                   for k in range(min(d_next // d - 1, rest // d) + 1)]
    d, g = chain[-1]
    return [p * g ** (rest // d) for p, rest in partial if rest % d == 0]


def verify_layer_formulas(inst: FamilyInstance, max_degree: int = 12) -> dict:
    """Check each filtration-coordinate monomial against the closed-form
    layer description: in the stated span of its weight, not in the span
    one lower.  The probes carry weight-zero decorations of degree <= 2.

    Module coefficients over the kernel variables are enumerated up to a
    cap derived from the degrees; when a probe misses its stated layer, the
    check runs once more with twice the cap before reporting mismatches.
    """
    fs = inst.filtration
    ring = inst.ring
    # enough kernel-variable degree to express the rewriting chains of the
    # main variable's power reductions, plus the probe decorations' 2 and 4
    lowest = min(d for d in inst.degrees.values() if d > 1)
    cap = inst.plinth_gen.degree() * (max_degree // lowest) + 2 + 4

    probes: dict = {}
    for mono, w, b in fs.probes(max_degree, 2):
        probes.setdefault(w, []).append((mono, b))

    for coeff_cap in (cap, 2 * cap):
        coeff_monos = [p for _, p in fs.kernel_products(coeff_cap)]
        span = Echelon()
        mismatches = []
        for w in range(max_degree + 1):
            for mono, b in probes.get(w, []):
                if not span.reduce(b.terms)[0]:
                    mismatches.append((str(mono), w, "already in the layer below"))
            for gen in _stated_layer_generators(inst, w):
                for cm in coeff_monos:
                    span.add(ring.nf(cm * gen).terms)
            for mono, b in probes.get(w, []):
                if span.reduce(b.terms)[0]:
                    mismatches.append((str(mono), w, "not in the stated layer"))
        if all(kind != "not in the stated layer" for _, _, kind in mismatches):
            break
    return {
        "max_degree": max_degree,
        "coefficient_cap": coeff_cap,
        "probes": sum(len(v) for v in probes.values()),
        "mismatches": mismatches,
    }
