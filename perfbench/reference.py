"""Independent polynomial arithmetic and the answer checks of the benchmark.

Nothing here imports lndfilt.  Every expected answer is derived from the
closed forms of the three hypersurface families and evaluated with this
module's own sparse polynomial type, so a defect in lndfilt cannot hide in
the reference it is checked against.

A check takes the op's reference record (built by workloads.py), the exit
code and the parsed JSON the command printed, and returns None when the
answer is right or a one-line reason when it is wrong.
"""

from __future__ import annotations

from fractions import Fraction


class Poly:
    """Sparse polynomial over Q in a fixed tuple of variable names."""

    __slots__ = ("names", "terms")

    def __init__(self, names, terms=None):
        self.names = tuple(names)
        self.terms = {m: Fraction(c) for m, c in (terms or {}).items() if c}

    @classmethod
    def const(cls, names, c):
        return cls(names, {(0,) * len(names): c})

    @classmethod
    def var(cls, names, name):
        expo = [0] * len(names)
        expo[names.index(name)] = 1
        return cls(names, {tuple(expo): 1})

    @classmethod
    def parse(cls, names, text):
        """Read the printer's format: `-3/4*x^2*y + z - 5`."""
        names = tuple(names)
        text = text.strip()
        terms: dict = {}
        if text == "0":
            return cls(names)
        for piece in text.replace(" - ", " + -").split(" + "):
            coeff = Fraction(1)
            if piece.startswith("-"):
                coeff, piece = Fraction(-1), piece[1:]
            expo = [0] * len(names)
            for factor in piece.split("*"):
                if factor[0].isdigit():
                    coeff *= Fraction(factor)
                    continue
                nm, _, e = factor.partition("^")
                if nm not in names:
                    raise ValueError("unknown variable %r in %r" % (nm, text))
                expo[names.index(nm)] += int(e) if e else 1
            m = tuple(expo)
            terms[m] = terms.get(m, 0) + coeff
        return cls(names, terms)

    def _like(self, terms):
        return Poly(self.names, terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.names == other.names
                and self.terms == other.terms)

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return self._like(out)

    def __neg__(self):
        return self._like({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self._like({m: c * other for m, c in self.terms.items()})
        out: dict = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = tuple(a + b for a, b in zip(ma, mb))
                out[m] = out.get(m, 0) + ca * cb
        return self._like(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        out = Poly.const(self.names, 1)
        for _ in range(k):
            out = out * self
        return out

    def degree(self):
        return max((sum(m) for m in self.terms), default=-1)

    def degree_in(self, name):
        i = self.names.index(name)
        return max((m[i] for m in self.terms), default=-1)

    def partial(self, name):
        i = self.names.index(name)
        out = {}
        for m, c in self.terms.items():
            if m[i]:
                mm = list(m)
                mm[i] -= 1
                out[tuple(mm)] = c * m[i]
        return self._like(out)

    def uses_only(self, allowed):
        idx = [i for i, nm in enumerate(self.names) if nm not in allowed]
        return all(m[i] == 0 for m in self.terms for i in idx)

    def subs(self, images, names=None):
        """Substitute polynomials (in `names`) for some variables."""
        names = tuple(names or self.names)
        gens = [images[nm] if nm in images else Poly.var(names, nm)
                for nm in self.names]
        out = Poly(names)
        for m, c in self.terms.items():
            term = Poly.const(names, c)
            for g, e in zip(gens, m):
                if e:
                    term = term * g ** e
            out = out + term
        return out

    def quotient(self, divisor):
        """self / divisor when the division is exact, else None (lex order)."""
        lead = max(divisor.terms)
        lc = divisor.terms[lead]
        rem, quo = self, Poly(self.names)
        while not rem.is_zero():
            m = max(rem.terms)
            q = tuple(a - b for a, b in zip(m, lead))
            if min(q) < 0:
                return None
            t = self._like({q: rem.terms[m] / lc})
            quo = quo + t
            rem = rem - t * divisor
        return quo

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in sorted(self.terms.items(), key=lambda mc: (sum(mc[0]), mc[0]),
                           reverse=True):
            mono = "*".join(nm if e == 1 else "%s^%d" % (nm, e)
                            for nm, e in zip(self.names, m) if e)
            body = mono if mono and abs(c) == 1 else (
                "%s*%s" % (abs(c), mono) if mono else str(abs(c)))
            if parts:
                parts.append(("+ " if c > 0 else "- ") + body)
            else:
                parts.append(body if c > 0 else "-" + body)
        return " ".join(parts)

    __repr__ = __str__


def proportional(p, q):
    """p = c * q for a nonzero rational c."""
    if p.is_zero() or q.is_zero() or set(p.terms) != set(q.terms):
        return False
    m = next(iter(q.terms))
    c = p.terms[m] / q.terms[m]
    return all(p.terms[k] == c * q.terms[k] for k in q.terms)


# ------------------------------------------------------------ closed forms

XYZ = ("x", "y", "z")
KR2 = ("x", "z", "t", "y")
NEW_EXT = ("x", "y", "z", "s")


def family_data(fam):
    """Closed-form ring data of one family instance.

    `fam` holds the family name and its parameters as built by
    workloads.py (P, Q as Poly; every instance already has the origin on
    the hypersurface, so the constructors translate nothing).
    Returns names, relation, derivation images, generator degrees,
    graded relations, induced derivation and the slice as a ring element.
    """
    kind = fam["family"]
    if kind == "danielewski":
        n, P = fam["n"], fam["P"]
        m = P.degree_in("y")
        N = XYZ
        x, y, z = (Poly.var(N, v) for v in N)
        P3 = P.subs({}, N)
        return {
            "names": N, "ext": N,
            "relation": x ** n * z - P3,
            "images": {"x": Poly(N), "y": x ** n, "z": P3.partial("y")},
            "degrees": {"x": 0, "y": 1, "z": m},
            "graded_relations": [x ** n * z - y ** m],
            "induced": {"x": Poly(N), "y": x ** n, "z": y ** (m - 1) * m},
            "slice": y,
        }
    if kind == "kr2":
        n, e, l, Q = fam["n"], fam["e"], fam["l"], fam["Q"]
        m = Q.degree_in("t")
        N = KR2
        x, z, t, y = (Poly.var(N, v) for v in N)
        core = (x ** n + z ** e) ** l
        Q4 = Q.subs({}, N)
        return {
            "names": N, "ext": N,
            "relation": y * core - Q4,
            "images": {"x": Poly(N), "z": Poly(N), "t": core,
                       "y": Q4.partial("t")},
            "degrees": {"x": 0, "z": 0, "t": 1, "y": m},
            "graded_relations": [y * core - t ** m],
            "induced": {"x": Poly(N), "z": Poly(N), "t": core,
                        "y": t ** (m - 1) * m},
            "slice": t,
        }
    n, e, P, Q = fam["n"], fam["e"], fam["P"], fam["Q"]
    d, m = P.degree_in("s"), Q.degree_in("y")
    N, X = XYZ, NEW_EXT
    x, y, z = (Poly.var(N, v) for v in N)
    s_elem = Q.subs({}, N) - x ** e * z
    P_of_s = P.subs({"s": s_elem}, N)
    P_s = P.partial("s").subs({"s": s_elem}, N)
    xe, ye, ze, se = (Poly.var(X, v) for v in X)
    return {
        "names": N, "ext": X,
        "relation": x ** n * y - P_of_s,
        "images": {"x": Poly(N), "y": x ** e * P_s,
                   "z": Q.partial("y").subs({}, N) * P_s - x ** n},
        "degrees": {"x": 0, "y": d, "z": m * d, "s": 1},
        "graded_relations": [xe ** n * ye - se ** d, ye ** m - xe ** e * ze],
        "induced": {"x": Poly(X), "s": xe ** (n + e),
                    "y": xe ** e * se ** (d - 1) * d,
                    "z": ye ** (m - 1) * se ** (d - 1) * (m * d)},
        "slice": s_elem,
    }


def layer_generators(fam, data, r):
    """Closed-form layer generators up to weight r, as ring elements.

    Danielewski: y^j z^k with j < m.  Koras-Russell: every t^j y^k (the
    symbol of t^m is not a monomial, so no power of t is redundant).  New
    family: s^a y^b z^c with a < d and b < m, s the slice.
    """
    N = data["names"]
    deg = data["degrees"]
    out = {}
    if fam["family"] == "danielewski":
        m = deg["z"]
        y, z = Poly.var(N, "y"), Poly.var(N, "z")
        for w in range(r + 1):
            out[w] = [y ** (w % m) * z ** (w // m)]
    elif fam["family"] == "kr2":
        m = deg["y"]
        t, y = Poly.var(N, "t"), Poly.var(N, "y")
        for w in range(r + 1):
            out[w] = [t ** (w - m * k) * y ** k for k in range(w // m + 1)]
    else:
        d, dm = deg["y"], deg["z"]
        m = dm // d
        y, z = Poly.var(N, "y"), Poly.var(N, "z")
        for w in range(r + 1):
            out[w] = [data["slice"] ** (w % d) * y ** ((w // d) % m)
                      * z ** (w // dm)]
    return out


def leibniz_degree(data, expo):
    return sum(e * data["degrees"][nm] for nm, e in expo.items())


# ------------------------------------------------------------ checks

def _poly_map(names, mapping):
    return {k: Poly.parse(names, v) for k, v in mapping.items()}


def check_gr(ref, code, out):
    data = ref["data"]
    if code != 0 or out.get("status") != "proper":
        return "expected a proper filtration, got exit %s status %r" % (
            code, out.get("status"))
    if not out.get("method"):
        return "proper verdict without a method"
    degs = {v["name"]: v["degree"] for v in out["variables"]}
    if degs != data["degrees"]:
        return "graded degrees %r, closed form %r" % (degs, data["degrees"])
    ext = data["ext"]
    got = [Poly.parse(ext, r) for r in out["relations"]]
    want = data["graded_relations"]
    if len(got) != len(want) or not all(
            any(proportional(g, w) for g in got) for w in want):
        return "graded relations %r, closed form %r" % (out["relations"], want)
    if out.get("induced_degree") != -1:
        return "induced degree %r, expected -1" % out.get("induced_degree")
    induced = _poly_map(ext, out["induced_derivation"])
    if induced != data["induced"]:
        return "induced derivation %r, closed form %r" % (
            out["induced_derivation"], data["induced"])
    return None


def check_filtration(ref, code, out):
    if code != 0:
        return "exit %s" % code
    names = ref["data"]["names"]
    want = ref["layers"]
    got_w = {int(w): sorted(str(Poly.parse(names, g)) for g in gens)
             for w, gens in out["layers"].items()}
    want_w = {w: sorted(str(g) for g in gens) for w, gens in want.items()}
    if got_w != want_w:
        bad = sorted(w for w in set(got_w) | set(want_w)
                     if got_w.get(w) != want_w.get(w))
        return "layers differ from the closed form at weights %r" % bad
    if out["cross_checked"] != sum(len(v) for v in want.values()):
        return "cross-checked %r generators" % out["cross_checked"]
    return None


def check_deg(ref, code, out):
    if code != 0:
        return "exit %s" % code
    if out.get("deg") != ref["deg"]:
        return "deg %r, Leibniz sum %r" % (out.get("deg"), ref["deg"])
    return None


def check_search(ref, code, out):
    if code != 0:
        return "exit %s" % code
    data = ref["data"]
    names, rel = data["names"], data["relation"]
    canon = data["images"]
    have_canonical = False
    for cand in out["candidates"]:
        if cand["classification"] != "multiple-of-canonical":
            return "candidate classified %r" % cand["classification"]
        f = Poly.parse(names, cand["factor"])
        if not f.uses_only({"x"}):
            return "factor %s is not in k[x]" % f
        images = _poly_map(names, cand["images"])
        for nm in names:
            if (images[nm] - f * canon[nm]).quotient(rel) is None:
                return "candidate image of %s is not %s times the canonical" % (nm, f)
        if f == Poly.const(names, 1):
            have_canonical = True
    if ref["canonical_in_bound"] and not have_canonical:
        return "canonical derivation missing although within the bound"
    return None


def check_auto(ref, code, out):
    if code != 0:
        return "exit %s" % code
    if not (out.get("valid") and out.get("inverse_verified")
            and out.get("degree_preserved")):
        return "flags valid=%r inverse=%r degree=%r" % (
            out.get("valid"), out.get("inverse_verified"),
            out.get("degree_preserved"))
    data = ref["data"]
    names, rel = data["names"], data["relation"]
    images = _poly_map(names, out["images"])
    if images["x"] != Poly.var(names, "x") * ref["lam"]:
        return "x -> %s, expected %s*x" % (images["x"], ref["lam"])
    if "y_image" in ref and images["y"] != ref["y_image"]:
        return "y -> %s, expected %s" % (images["y"], ref["y_image"])
    # the relation must map into the ideal it generates
    if rel.subs(images).quotient(rel) is None:
        return "relation is not preserved"
    return None


def check_iso(ref, code, out):
    if not ref["isomorphic"]:
        if code != 5 or out.get("verdict") != "not-isomorphic":
            return "expected not-isomorphic with exit 5, got %r exit %s" % (
                out.get("verdict"), code)
        return None
    if code != 0 or out.get("verdict") != "isomorphic":
        return "expected isomorphic, got %r exit %s" % (out.get("verdict"), code)
    if (Fraction(out["lambda"]), Fraction(out["mu"])) != (ref["lam"], ref["mu"]):
        return "(lambda, mu) = (%s, %s), built with (%s, %s)" % (
            out["lambda"], out["mu"], ref["lam"], ref["mu"])
    names = XYZ
    images = _poly_map(names, out["witness"])
    x, y = Poly.var(names, "x"), Poly.var(names, "y")
    if images["x"] != x * ref["lam"] or images["y"] != y * ref["mu"]:
        return "witness does not scale x and y by (lambda, mu)"
    # the first relation must map into the ideal of the second
    if ref["relation1"].subs(images).quotient(ref["relation2"]) is None:
        return "witness does not preserve the relation"
    return None


CHECKS = {"gr": check_gr, "filtration": check_filtration, "deg": check_deg,
          "search": check_search, "auto": check_auto, "iso": check_iso}


def check(ref, code, out):
    """None when the answer is right, else a one-line reason."""
    return CHECKS[ref["kind"]](ref, code, out)
