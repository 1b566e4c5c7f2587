"""Morphisms of presented rings, hypersurface automorphisms, isomorphism.

The automorphism families implemented here scale x by a unit, translate the
degree-one generator by a kernel multiple, and correct the remaining
generator by an exactly divisible polynomial so the defining relation maps
to a unit multiple of itself.  Validity reduces to congruences between the
coefficient polynomials of P at the powers of x below the conductor
exponent; those are checked coefficient by coefficient and failures are
reported with the indices involved.

The isomorphism decision for the x^n z = P(x,y) family turns the same
congruences into the multiplicative system lambda^j f_j = mu^i g_j over the
nonzero coefficient pairs.  Its solvability over Q is decided exactly with
a Smith normal form of the exponent lattice; when a solution needs a root
that Q lacks, the verdict reports the algebraic conditions instead of
pretending k is closed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .derivations import RingPresentation
from .families import FamilyInstance, make_danielewski
from .filtration import PreconditionError
from .linalg import rational_kth_root, smith_with_transforms
from .poly import Context, Polynomial, random_polynomial


class MorphismError(ValueError):
    """The requested map does not exist or failed verification."""


class CongruenceError(MorphismError):
    """A coefficient congruence fails; carries the offending indices."""

    def __init__(self, i: int, j: int, detail: str):
        super().__init__(
            "congruence fails at coefficient index i=%d, x-power j=%d: %s"
            % (i, j, detail))
        self.i = i
        self.j = j


class RingMorphism:
    """Map between presented rings given by images of the source variables."""

    def __init__(self, source: RingPresentation, target: RingPresentation,
                 images: dict, inverse: "RingMorphism | None" = None,
                 check: bool = True):
        self.source = source
        self.target = target
        self.images = {nm: target.nf(images[nm]) for nm in source.ctx.names}
        self.inverse = inverse
        if check and not self.check():
            raise MorphismError("a defining relation is not preserved")

    def image_of(self, name: str) -> Polynomial:
        return self.images[name]

    def apply(self, p: Polynomial) -> Polynomial:
        return self.target.nf(p.subs(self.images, self.target.ctx))

    def check(self) -> bool:
        return all(self.target.is_zero(g.subs(self.images, self.target.ctx))
                   for g in self.source.relations.gens)

    def compose(self, inner: "RingMorphism") -> "RingMorphism":
        """self after inner; inverses chain when both are present."""
        if inner.target is not self.source and \
                inner.target.ctx.names != self.source.ctx.names:
            raise MorphismError("composition contexts do not line up")
        images = {nm: self.apply(inner.images[nm]) for nm in inner.source.ctx.names}
        out = RingMorphism(inner.source, self.target, images, check=False)
        if self.inverse is not None and inner.inverse is not None:
            inv_images = {nm: inner.inverse.apply(self.inverse.images[nm])
                          for nm in self.target.ctx.names}
            inv = RingMorphism(self.target, inner.source, inv_images, check=False)
            out.inverse = inv
            inv.inverse = out
        return out

    def is_identity(self) -> bool:
        if self.source.ctx.names != self.target.ctx.names:
            return False
        return all(self.target.eq(img, self.target.ctx.var(nm))
                   for nm, img in self.images.items())

    def verify_inverse(self) -> bool:
        if self.inverse is None:
            return False
        back = self.inverse.compose(self)
        forth = self.compose(self.inverse)
        return back.is_identity() and forth.is_identity()

    def __repr__(self):
        body = ", ".join("%s -> %s" % (nm, img)
                         for nm, img in self.images.items())
        return "RingMorphism(%s)" % body


def identity_morphism(ring: RingPresentation) -> RingMorphism:
    images = {nm: ring.ctx.var(nm) for nm in ring.ctx.names}
    out = RingMorphism(ring, ring, images, check=False)
    out.inverse = out
    return out


@dataclass
class AutomorphismData:
    lam: Fraction
    mu: Fraction
    a: Polynomial    # polynomial in x alone

    def __post_init__(self):
        self.lam = Fraction(self.lam)
        self.mu = Fraction(self.mu)
        if self.lam == 0 or self.mu == 0:
            raise PreconditionError("lambda and mu must be nonzero")
        for nm in self.a.ctx.names:
            if nm != "x" and self.a.degree_in(nm) > 0:
                raise PreconditionError("a must be a polynomial in x alone")


def _scaled_x(p: Polynomial, lam: Fraction, ctx: Context) -> Polynomial:
    """p with x replaced by lam * x, in the given context."""
    return p.subs({"x": ctx.var("x") * lam}, ctx)


def _coefficient_congruences(P: Polynomial, main: str, top: int,
                             modulus_power: int, lam: Fraction, mu: Fraction):
    """Check f_(top-i)(lam x) = mu^i f_(top-i)(x) mod x^modulus_power for
    i = 2..top; raise CongruenceError at the first failure."""
    coeffs = P.coeffs_in(main)
    ctx = P.ctx
    for i in range(2, top + 1):
        f = coeffs.get(top - i)
        if f is None or f.is_zero():
            continue
        h = _scaled_x(f, lam, ctx) - f * (mu ** i)
        for mono, c in h.terms.items():
            j = mono[ctx.index("x")]
            if j < modulus_power and c != 0:
                raise CongruenceError(
                    i, j, "%s vs %s" % (_scaled_x(f, lam, ctx), f * (mu ** i)))


def _subleading_coefficient(P: Polynomial, main: str, top: int) -> Polynomial:
    return P.coeffs_in(main).get(top - 1, P.ctx.zero())


def normalize_subleading(inst: FamilyInstance):
    """Translate y so the coefficient of y^(m-1) in P vanishes.

    Returns (instance, forward, backward); forward maps the given instance
    onto the normalized one.  When already normalized all three are the
    originals with identity maps.
    """
    if inst.family != "danielewski":
        raise PreconditionError("subleading normalization is for x^n z = P(x,y)")
    P, n, m = inst.params["P"], inst.params["n"], inst.params["m"]
    f_sub = _subleading_coefficient(P, "y", m)
    if f_sub.is_zero():
        ident = identity_morphism(inst.ring)
        return inst, ident, ident
    ctx_p = P.ctx
    shift = f_sub * Fraction(-1, m)
    P2 = P.subs({"y": ctx_p.var("y") + shift}, ctx_p)
    inst2 = make_danielewski(n, P2, translate_origin=False)
    ctx = inst.ring.ctx
    y = ctx.var("y")
    fwd = RingMorphism(inst.ring, inst2.ring,
                       {"x": ctx.var("x"), "y": y + shift.lift(ctx),
                        "z": ctx.var("z")})
    back = RingMorphism(inst2.ring, inst.ring,
                        {"x": ctx.var("x"), "y": y - shift.lift(ctx),
                         "z": ctx.var("z")})
    fwd.inverse = back
    back.inverse = fwd
    if not fwd.verify_inverse():
        raise MorphismError("internal: translation maps fail to invert")
    return inst2, fwd, back


# ------------------------------------------------------------ x^n z = P(x,y)

def build_auto_danielewski(inst: FamilyInstance,
                           data: AutomorphismData) -> RingMorphism:
    """Automorphism (x, y, z) -> (lam x, mu y + x^n a(x), ...) when the
    coefficient congruences allow it; the z-image is produced by exact
    division, and the inverse is built from (1/lam, 1/mu, -a(x/lam)/(mu lam^n))
    and verified by composition."""
    if inst.family != "danielewski":
        raise PreconditionError("expects an x^n z = P(x,y) instance")
    norm, fwd, back = normalize_subleading(inst)
    if norm is not inst:
        alpha = _auto_danielewski_normalized(norm, data)
        out = back.compose(alpha.compose(fwd))
        if not out.verify_inverse():
            raise MorphismError("internal: conjugated automorphism broke")
        return out
    return _auto_danielewski_normalized(inst, data)


def _auto_danielewski_normalized(inst, data, with_inverse: bool = True):
    P, n, m = inst.params["P"], inst.params["n"], inst.params["m"]
    lam, mu, a = data.lam, data.mu, data.a
    _coefficient_congruences(P, "y", m, n, lam, mu)
    ctx = inst.ring.ctx
    x, y, z = ctx.var("x"), ctx.var("y"), ctx.var("z")
    a_x = a.lift(ctx)
    y_img = y * mu + x ** n * a_x
    P_ring = P.lift(ctx)
    numer = P.subs({"x": x * lam, "y": y_img}, ctx) - P_ring * mu ** m
    try:
        quot = numer.div_exact_var("x", n)
    except ValueError as e:
        raise MorphismError("internal: z-image numerator not divisible: %s" % e)
    z_img = z * (mu ** m / lam ** n) + quot * (1 / lam ** n)
    images = {"x": x * lam, "y": y_img, "z": z_img}
    rel = inst.relation()
    if rel.subs(images, ctx) != rel * mu ** m:
        raise MorphismError("internal: relation is not scaled exactly")
    alpha = RingMorphism(inst.ring, inst.ring, images)
    if with_inverse:
        inv_a = _scaled_x(a, 1 / lam, a.ctx) * (Fraction(-1) / (mu * lam ** n))
        inv = _auto_danielewski_normalized(
            inst, AutomorphismData(1 / lam, 1 / mu, inv_a), with_inverse=False)
        alpha.inverse = inv
        inv.inverse = alpha
        if not alpha.verify_inverse():
            raise MorphismError("internal: inverse fails to compose to id")
    return alpha


# ------------------------------------------------------ x^n y = P(x, s) rings

def build_auto_newfamily(inst: FamilyInstance,
                         data: AutomorphismData) -> RingMorphism:
    """Automorphism scaling x by lam and the slice by mu, for instances with
    Q = y^m and no s^(d-1) term in P; needs mu^(dm) = mu lam^(nm)."""
    if inst.family != "new-family":
        raise PreconditionError("expects an x^n y = P(x,s) instance")
    _check_newfamily_shape(inst)
    return _auto_newfamily(inst, data)


def _check_newfamily_shape(inst):
    d, m = inst.params["d"], inst.params["m"]
    Q = inst.params["Q"]
    if Q != Q.ctx.var("y") ** m:
        raise PreconditionError(
            "automorphism formula needs Q = y^%d exactly" % m)
    if not _subleading_coefficient(inst.params["P"], "s", d).is_zero():
        raise PreconditionError(
            "automorphism formula needs the s^%d coefficient of P to vanish "
            "(no slice translation is available to arrange it)" % (d - 1))


def _auto_newfamily(inst, data, with_inverse: bool = True):
    P = inst.params["P"]
    n, e = inst.params["n"], inst.params["e"]
    d, m = inst.params["d"], inst.params["m"]
    lam, mu, a = data.lam, data.mu, data.a
    if mu ** (d * m) != mu * lam ** (n * m):
        raise MorphismError(
            "scaling constraint mu^(dm) = mu*lam^(nm) fails: %s vs %s"
            % (mu ** (d * m), mu * lam ** (n * m)))
    _coefficient_congruences(P, "s", d, n + e, lam, mu)
    ctx = inst.ring.ctx
    x, y, z = ctx.var("x"), ctx.var("y"), ctx.var("z")
    a_x = a.lift(ctx)
    s = inst.slice_elem
    s_img = s * mu + x ** (n + e) * a_x
    numer = P.subs({"x": x * lam, "s": s_img}, ctx) \
        - P.subs({"s": s}, ctx) * mu ** d
    try:
        quot = numer.div_exact_var("x", n)
    except ValueError as err:
        raise MorphismError("internal: y-image numerator not divisible: %s" % err)
    y_img = y * (mu ** d / lam ** n) + quot * (1 / lam ** n)
    z_numer = y_img ** m - s_img
    try:
        z_quot = z_numer.div_exact_var("x", e)
    except ValueError as err:
        raise MorphismError("internal: z-image numerator not divisible: %s" % err)
    z_img = z_quot * (1 / lam ** e)
    images = {"x": x * lam, "y": y_img, "z": z_img}
    rel = inst.relation()
    if rel.subs(images, ctx) != rel * mu ** d:
        raise MorphismError("internal: relation is not scaled exactly")
    alpha = RingMorphism(inst.ring, inst.ring, images)
    if with_inverse:
        inv_a = _scaled_x(a, 1 / lam, a.ctx) \
            * (Fraction(-1) / (mu * lam ** (n + e)))
        inv = _auto_newfamily(
            inst, AutomorphismData(1 / lam, 1 / mu, inv_a), with_inverse=False)
        alpha.inverse = inv
        inv.inverse = alpha
        if not alpha.verify_inverse():
            raise MorphismError("internal: inverse fails to compose to id")
    return alpha


# ------------------------------------------------------------ iso decision

@dataclass
class IsoDecision:
    verdict: str                      # isomorphic | not-isomorphic | not-over-rationals
    witness: RingMorphism | None = None
    reason: str = ""
    conditions: list = field(default_factory=list)
    lam: Fraction | None = None
    mu: Fraction | None = None

    def __bool__(self):
        return self.verdict == "isomorphic"


def iso_decide(inst1: FamilyInstance, inst2: FamilyInstance) -> IsoDecision:
    """Decide whether two x^n z = P(x,y) rings are isomorphic over Q.

    Matches the exponent pair (n, m), then solves the multiplicative system
    lam^j f_j = mu^i g_j over the nonzero coefficient pairs via the Smith
    form of the exponent lattice.  A produced witness is always verified by
    composition; solvability only over an extension is reported as
    conditions like "t^2 = 2" rather than decided.
    """
    for inst in (inst1, inst2):
        if inst.family != "danielewski":
            raise PreconditionError("isomorphism decision expects x^n z = P(x,y)")
    n1, m1 = inst1.params["n"], inst1.params["m"]
    n2, m2 = inst2.params["n"], inst2.params["m"]
    if n1 != n2:
        return IsoDecision("not-isomorphic",
                           reason="x-exponent differs: %d vs %d" % (n1, n2))
    if m1 != m2:
        return IsoDecision("not-isomorphic",
                           reason="y-degree differs: %d vs %d" % (m1, m2))
    norm1, fwd1, _ = normalize_subleading(inst1)
    norm2, _, back2 = normalize_subleading(inst2)
    n, m = n1, m1
    P1, P2 = norm1.params["P"], norm2.params["P"]
    c1, c2 = P1.coeffs_in("y"), P2.coeffs_in("y")

    exponent_rows = []
    targets = []
    tags = []
    for i in range(2, m + 1):
        f = c1.get(m - i, P1.ctx.zero())
        g = c2.get(m - i, P2.ctx.zero())
        for j in range(n):
            fj = _x_coefficient(f, j)
            gj = _x_coefficient(g, j)
            if fj == 0 and gj == 0:
                continue
            if fj == 0 or gj == 0:
                side = "left" if gj == 0 else "right"
                return IsoDecision(
                    "not-isomorphic",
                    reason="coefficient (y^%d, x^%d) vanishes only on the "
                           "%s side" % (m - i, j, side))
            exponent_rows.append([j, -i])
            targets.append(gj / fj)
            tags.append((i, j))

    sol = _solve_multiplicative(exponent_rows, targets)
    if sol is None:
        return IsoDecision(
            "not-isomorphic",
            reason="the coefficient ratio system has no solution in any field")
    if isinstance(sol, list):
        return IsoDecision("not-over-rationals", conditions=sol,
                           reason="solvable only after adjoining the listed roots")
    lam, mu = sol
    for (i, j), q in zip(tags, targets):
        assert lam ** j * mu ** (-i) == q
    witness_core = _iso_witness(norm1, norm2, lam, mu)
    witness = back2.compose(witness_core.compose(fwd1))
    if not (witness.check() and witness.verify_inverse()):
        raise MorphismError("internal: verified conditions produced a bad witness")
    return IsoDecision("isomorphic", witness=witness, lam=lam, mu=mu)


def _x_coefficient(f: Polynomial, j: int) -> Fraction:
    i = f.ctx.index("x")
    for mono, c in f.terms.items():
        if mono[i] == j and sum(mono) == j:
            return Fraction(c)
    return Fraction(0)


def _solve_multiplicative(rows, targets):
    """Solve lam^rows[k][0] * mu^rows[k][1] = targets[k] over Q*.

    Returns (lam, mu), or None when infeasible over every field, or a list
    of residual root conditions when solvable only over an extension.
    """
    if not rows:
        return Fraction(1), Fraction(1)
    u, dmat, v = smith_with_transforms(rows)
    k = len(rows)
    rank = sum(1 for i in range(min(k, 2)) if dmat[i][i])
    transformed = []
    for r in range(k):
        q = Fraction(1)
        for l in range(k):
            if u[r][l]:
                q *= targets[l] ** u[r][l]
        transformed.append(q)
    for r in range(rank, k):
        if transformed[r] != 1:
            return None
    nu = []
    conditions = []
    for r in range(rank):
        dr = dmat[r][r]
        root = rational_kth_root(transformed[r], dr)
        if root is None:
            conditions.append("t^%d = %s" % (dr, transformed[r]))
            nu.append(None)
        else:
            nu.append(root)
    if conditions:
        return conditions
    nu += [Fraction(1)] * (2 - rank)
    lam = Fraction(1)
    mu = Fraction(1)
    for idx, val in enumerate(nu):
        if v[0][idx]:
            lam *= val ** v[0][idx]
        if v[1][idx]:
            mu *= val ** v[1][idx]
    return lam, mu


def _iso_witness(norm1, norm2, lam, mu) -> RingMorphism:
    """The map (x,y,z) -> (lam x, mu y, scaled z + correction), verified."""
    n, m = norm1.params["n"], norm1.params["m"]
    P1, P2 = norm1.params["P"], norm2.params["P"]
    ctx = norm2.ring.ctx
    x, y, z = ctx.var("x"), ctx.var("y"), ctx.var("z")
    numer = P1.subs({"x": x * lam, "y": y * mu}, ctx) - P2.lift(ctx) * mu ** m
    quot = numer.div_exact_var("x", n)
    images = {"x": x * lam, "y": y * mu,
              "z": z * (mu ** m / lam ** n) + quot * (1 / lam ** n)}
    fwd = RingMorphism(norm1.ring, norm2.ring, images)
    ctx1 = norm1.ring.ctx
    x1, y1, z1 = ctx1.var("x"), ctx1.var("y"), ctx1.var("z")
    numer_b = P2.subs({"x": x1 / lam, "y": y1 / mu}, ctx1) \
        - P1.lift(ctx1) * mu ** -m
    quot_b = numer_b.div_exact_var("x", n)
    back = RingMorphism(
        norm2.ring, norm1.ring,
        {"x": x1 / lam, "y": y1 / mu,
         "z": z1 * (lam ** n / mu ** m) + quot_b * lam ** n})
    fwd.inverse = back
    back.inverse = fwd
    return fwd


# ------------------------------------------------------------ degree checks

def verify_degree_preservation(alpha: RingMorphism, derivation,
                               samples: int = 20, seed: int = 11,
                               max_degree: int = 3, max_terms: int = 3) -> dict:
    """deg(alpha(b)) = deg(b) on random b, plus the ring generators."""
    import random as _random
    ring = alpha.source
    rng = _random.Random(seed)
    failures = []
    probes = [ring.ctx.var(nm) for nm in ring.ctx.names]
    while len(probes) < samples + len(ring.ctx.names):
        b = random_polynomial(ring.ctx, rng, max_degree, max_terms)
        if not ring.is_zero(b):
            probes.append(b)
    for b in probes:
        d1 = derivation.deg(b)
        d2 = derivation.deg(alpha.apply(b))
        if d1 != d2:
            failures.append((str(b), d1, d2))
    return {"samples": len(probes), "failures": failures,
            "ok": not failures}


def composition_data(d1: AutomorphismData, d2: AutomorphismData,
                     conductor: int) -> AutomorphismData:
    """Data of the composite (apply d1 first, then d2); conductor is the
    x-power in the y-translation term."""
    ctx = d1.a.ctx
    a = _scaled_x(d1.a, d2.lam, ctx) * d2.lam ** conductor + d2.a * d1.mu
    return AutomorphismData(d1.lam * d2.lam, d1.mu * d2.mu, a)
