"""Morphisms of presented rings, hypersurface automorphisms, isomorphism.

The automorphism families implemented here scale x by a unit, translate the
degree-one generator by a kernel multiple, and correct the remaining
generator by an exactly divisible polynomial so the defining relation maps
to a unit multiple of itself.  Validity reduces to congruences between the
coefficient polynomials of P at the powers of x below the conductor
exponent; those are checked coefficient by coefficient and failures are
reported with the indices involved.

Every automorphism and every isomorphism witness is one triangular map
(`_triangular`): x -> lam x, slice -> mu slice + x^c a(x), and the variable
v solved by x^n v = P(x, slice) goes to

    v mu^k / lam^n + (P_src(lam x, image of slice) - mu^k P_tgt(x, slice)) / (lam x)^n.

An automorphism's inverse is the same map for (1/lam, 1/mu,
-a(x/lam)/(mu lam^c)); a witness's inverse swaps the rings and takes
(1/lam, 1/mu).  The exact identity rel_src(images) = mu^k rel_tgt stands in
for the relation check, and each pair is verified once, on the variables:
`verify_inverse` remembers the inverse it accepted.

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
        self._verified = None    # the inverse verify_inverse last accepted
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
        # RingMorphism takes the one normal form of each image
        images = {nm: inner.images[nm].subs(self.images, self.target.ctx)
                  for nm in inner.source.ctx.names}
        out = RingMorphism(inner.source, self.target, images, check=False)
        if self.inverse is not None and inner.inverse is not None:
            inv_images = {nm: self.inverse.images[nm].subs(
                              inner.inverse.images, inner.source.ctx)
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
        """Whether inverse after self and self after inverse fix every variable.

        Checked on the variables directly, once per inverse object: both
        maps remember the pair, and assigning a new inverse checks again.
        """
        inv = self.inverse
        if inv is None:
            return False
        if self._verified is inv:
            return True
        if self.source.ctx.names != inv.target.ctx.names or \
                self.target.ctx.names != inv.source.ctx.names:
            return False
        if not (all(inv.target.eq(inv.apply(img), inv.target.ctx.var(nm))
                    for nm, img in self.images.items())
                and all(self.target.eq(self.apply(img), self.target.ctx.var(nm))
                        for nm, img in inv.images.items())):
            return False
        self._verified, inv._verified = inv, self
        return True

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
    return inst2, _verified(_paired(fwd, back)), back


# ------------------------------------------------- the one triangular map

def _triangular(src: FamilyInstance, tgt: FamilyInstance,
                data: AutomorphismData) -> RingMorphism:
    """The map src -> tgt between rings x^n v = P(x, s) with slice s:

        x -> lam x,   s -> mu s + x^c a(x),
        v -> v mu^k / lam^n + (P_src(lam x, image of s) - mu^k P_tgt(x, s)) / (lam x)^n

    where x^c is the plinth generator and k = deg_s P.  The family's row
    names the slice variable and v: on x^n z = P(x,y) the slice is y and
    v = z; on x^n y = P(x,s) with s = y^m - x^e z, v = y and z follows from
    z = (y^m - s) / x^e.  The images send the source relation to exactly
    mu^k times the target relation, which is checked here, so the map
    needs no second relation check.
    """
    lam, mu = data.lam, data.mu
    n, (main, v) = src.params["n"], src.spec.triangular
    k = src.params["P"].degree_in(main)
    ctx = tgt.ring.ctx
    x, s = ctx.var("x"), tgt.slice_elem
    rel = tgt.relation()
    s_img = s * mu + x ** src.plinth_gen.degree() * data.a.lift(ctx)
    # P_tgt(x, s) read off the target relation x^n v - P_tgt(x, s)
    numer = src.params["P"].subs({"x": x * lam, main: s_img}, ctx) \
        - (x ** n * ctx.var(v) - rel) * mu ** k
    images = {"x": x * lam, v: ctx.var(v) * (mu ** k / lam ** n)
              + _div_x(numer, n, v) * (1 / lam ** n)}
    if main in ctx:
        images[main] = s_img
    else:
        e = src.params["e"]
        images["z"] = _div_x(images["y"] ** src.params["m"] - s_img, e, "z") \
            * (1 / lam ** e)
    if src.relation().subs(images, ctx) != rel * mu ** k:
        raise MorphismError("internal: relation is not scaled exactly")
    return RingMorphism(src.ring, tgt.ring, images, check=False)


def _div_x(numer: Polynomial, k: int, name: str) -> Polynomial:
    try:
        return numer.div_exact_var("x", k)
    except ValueError as err:
        raise MorphismError("internal: %s-image numerator not divisible: %s"
                            % (name, err))


def _paired(fwd: RingMorphism, back: RingMorphism) -> RingMorphism:
    fwd.inverse = back
    back.inverse = fwd
    return fwd


def _auto_pair(inst: FamilyInstance, data: AutomorphismData) -> RingMorphism:
    """The automorphism of data, paired with the same map for the inverse
    data (1/lam, 1/mu, -a(x/lam)/(mu lam^c)), x^c the plinth generator."""
    lam, mu = data.lam, data.mu
    inv_a = _scaled_x(data.a, 1 / lam, data.a.ctx) \
        * (Fraction(-1) / (mu * lam ** inst.plinth_gen.degree()))
    return _paired(_triangular(inst, inst, data),
                   _triangular(inst, inst, AutomorphismData(1 / lam, 1 / mu, inv_a)))


def _verified(alpha: RingMorphism) -> RingMorphism:
    if not alpha.verify_inverse():
        raise MorphismError("internal: inverse fails to compose to id")
    return alpha


# ------------------------------------------------------------ x^n z = P(x,y)

def build_auto_danielewski(inst: FamilyInstance,
                           data: AutomorphismData) -> RingMorphism:
    """Automorphism (x, y, z) -> (lam x, mu y + x^n a(x), ...) when the
    coefficient congruences allow it; the z-image is produced by exact
    division, and the inverse is the same map for the data
    (1/lam, 1/mu, -a(x/lam)/(mu lam^n)), checked once on the variables.
    A nonzero y^(m-1) coefficient is first translated away, and the map is
    conjugated back."""
    if inst.family != "danielewski":
        raise PreconditionError("expects an x^n z = P(x,y) instance")
    norm, fwd, back = normalize_subleading(inst)
    _coefficient_congruences(norm.params["P"], "y", norm.params["m"],
                             norm.params["n"], data.lam, data.mu)
    alpha = _auto_pair(norm, data)
    if norm is not inst:
        alpha = back.compose(alpha.compose(fwd))
    return _verified(alpha)


# ------------------------------------------------------ x^n y = P(x, s) rings

def build_auto_newfamily(inst: FamilyInstance,
                         data: AutomorphismData) -> RingMorphism:
    """Automorphism scaling x by lam and the slice by mu, for instances with
    Q = y^m and no s^(d-1) term in P; needs mu^(dm) = mu lam^(nm)."""
    if inst.family != "new-family":
        raise PreconditionError("expects an x^n y = P(x,s) instance")
    _check_newfamily_shape(inst)
    n, e = inst.params["n"], inst.params["e"]
    d, m = inst.params["d"], inst.params["m"]
    lam, mu = data.lam, data.mu
    if mu ** (d * m) != mu * lam ** (n * m):
        raise MorphismError(
            "scaling constraint mu^(dm) = mu*lam^(nm) fails: %s vs %s"
            % (mu ** (d * m), mu * lam ** (n * m)))
    _coefficient_congruences(inst.params["P"], "s", d, n + e, lam, mu)
    return _verified(_auto_pair(inst, data))


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
    form of the exponent lattice.  A produced witness is always verified:
    it preserves the relation and its inverse undoes it on every variable.
    Solvability only over an extension is reported as conditions like
    "t^2 = 2" rather than decided.
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
    zero = Context(["x"]).zero()
    core = _paired(
        _triangular(norm1, norm2, AutomorphismData(lam, mu, zero)),
        _triangular(norm2, norm1, AutomorphismData(1 / lam, 1 / mu, zero)))
    witness = back2.compose(core.compose(fwd1))
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


# ------------------------------------------------------------ degree checks

def verify_degree_preservation(alpha: RingMorphism, derivation, samples: int = 20,
                               bound: int | None = None) -> dict:
    """deg(alpha(b)) = deg(b) on random b, plus the ring generators; each
    degree iterates at most bound times (None: the a priori Leibniz bound)."""
    import random as _random
    ring = alpha.source
    rng = _random.Random(11)
    failures = []
    probes = [ring.ctx.var(nm) for nm in ring.ctx.names]
    while len(probes) < samples + len(ring.ctx.names):
        b = random_polynomial(ring.ctx, rng, 3, 3)
        if not ring.is_zero(b):
            probes.append(b)
    for b in probes:
        d1 = derivation.deg(b, bound)
        d2 = derivation.deg(alpha.apply(b), bound)
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
