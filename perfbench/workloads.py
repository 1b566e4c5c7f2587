"""Seeded command lines for the four workloads, with their closed-form answers.

Each workload is a fixed list of slots.  A slot fixes the shape of an
instance (family, exponents, which monomials the polynomials carry, the
subcommand and its bounds); the seed draws the coefficients, the scalings
and the query monomials.  Shapes are fixed because op cost depends mostly
on them: runs with different seeds then measure the same mix of work,
while no seed repeats another's inputs.

Every instance is drawn with the origin already on the hypersurface, so
the family constructors accept it without a translation and the closed
forms in reference.py apply verbatim.  lndfilt only ever sees the
generated command lines.
"""

from __future__ import annotations

import hashlib
import random
import shlex
from fractions import Fraction

from reference import XYZ, Poly, family_data, layer_generators, leibniz_degree

XY = ("x", "y")
XS = ("x", "s")
XZT = ("x", "z", "t")
UNITS = [Fraction(v) for v in (2, -1, 3, -2, Fraction(1, 2), Fraction(-1, 3))]


def _coeff(rng):
    return rng.choice([-3, -2, -1, 1, 2, 3])


def _poly(names, lead, support, rng):
    """lead + sum of c * monomial over the support, c drawn nonzero."""
    terms = {lead: 1}
    for expo in support:
        terms[expo] = terms.get(expo, 0) + _coeff(rng)
    return Poly(names, terms)


def danielewski(n, m, support, rng):
    """x^n z = P(x, y), P = y^m + terms x^j y^k (j >= 1, k < m)."""
    return {"family": "danielewski", "n": n,
            "P": _poly(XY, (0, m), support, rng)}


def kr2(n, e, l, m, support, rng):
    """y (x^n + z^e)^l = Q(x, z, t), Q = t^m + terms without a constant."""
    return {"family": "kr2", "n": n, "e": e, "l": l,
            "Q": _poly(XZT, (0, 0, m), support, rng)}


def new_family(n, e, d, m, p_support, q_support, rng):
    """x^n y = P(x, s), s = Q(x, y) - x^e z, P(0, 0) = Q(0, 0) = 0."""
    return {"family": "new", "n": n, "e": e,
            "P": _poly(XS, (0, d), p_support, rng),
            "Q": _poly(XY, (0, m), q_support, rng)}


def family_argv(fam):
    kind = fam["family"]
    # --flag=value, so that a value with a leading minus is not a flag
    argv = ["--family=" + kind, "--n=%d" % fam["n"]]
    if kind == "danielewski":
        return argv + ["--P=%s" % fam["P"]]
    if kind == "kr2":
        return argv + ["--e=%d" % fam["e"], "--l=%d" % fam["l"],
                       "--Q=%s" % fam["Q"]]
    return argv + ["--e=%d" % fam["e"], "--P=%s" % fam["P"],
                   "--Q=%s" % fam["Q"]]


# ------------------------------------------------------------ graded

def graded(rng):
    """gr and filtration --r R on each family: Buchberger builds bases.

    The first instance gets no filtration op, so a pass holds an odd
    number of ops and the median op time falls inside one op's spread
    rather than on the gap between two.
    """
    instances = [
        (danielewski(2, 2, [(1, 1)], rng), None),
        (danielewski(3, 4, [(1, 2), (2, 1)], rng), 8),
        (kr2(2, 3, 2, 2, [(1, 0, 0), (0, 1, 1)], rng), 5),
        (kr2(3, 2, 2, 3, [(1, 0, 1), (0, 1, 0)], rng), 5),
        (new_family(2, 1, 2, 2, [(1, 1)], [], rng), 6),
        (new_family(3, 2, 3, 2, [(1, 1), (2, 2)], [(1, 1)], rng), 6),
        (new_family(4, 3, 5, 3, [(1, 3)], [], rng), 6),
        (new_family(3, 2, 4, 3, [(1, 2), (0, 1)], [(1, 1)], rng), 6),
    ]
    ops = []
    for fam, r in instances:
        data = family_data(fam)
        ops.append({"kind": "gr", "argv": ["gr", *family_argv(fam)],
                    "data": data})
        if r is not None:
            ops.append({"kind": "filtration",
                        "argv": ["filtration", *family_argv(fam), "--r=%d" % r],
                        "data": data, "layers": layer_generators(fam, data, r)})
    return ops


# ------------------------------------------------------------ degree

def _deg_op(fam, data, expo):
    mono = "*".join(nm if e == 1 else "%s^%d" % (nm, e)
                    for nm, e in expo.items() if e)
    target = leibniz_degree(data, expo)
    # the a priori bound: the Leibniz sum itself, plus one
    return {"kind": "deg", "data": data, "deg": target,
            "argv": ["deg", *family_argv(fam), "--of=" + mono,
                     "--nilp-bound=%d" % (target + 1)]}


def degree(rng):
    """deg --of <monomial>, target degrees 10 to 60.

    The query monomials are fixed per slot, because the iteration count
    (the degree) sets the cost; the seed draws the rings' coefficients.
    """
    slots = [
        (danielewski(3, 3, [(1, 1), (2, 0)], rng),
         [{"y": 1, "z": 4}, {"x": 1, "y": 2, "z": 8}, {"z": 20}]),
        (kr2(2, 3, 2, 3, [(1, 0, 1), (0, 1, 0)], rng),
         [{"t": 1, "y": 3}, {"t": 2, "y": 5}]),
        (new_family(4, 3, 5, 3, [(1, 3)], [], rng),
         [{"y": 1, "z": 1}, {"y": 2, "z": 2}]),
        (new_family(2, 1, 3, 2, [(1, 1)], [], rng),
         [{"y": 1, "z": 2}, {"y": 2, "z": 3}]),
    ]
    ops = []
    for fam, monomials in slots:
        data = family_data(fam)
        ops += [_deg_op(fam, data, expo) for expo in monomials]
    return ops


# ------------------------------------------------------------ search

def search(rng):
    """search --degree-bound 2..4 --nilp-bound 12 on Danielewski surfaces."""
    slots = [(2, 3, [(1, 1)], 2), (3, 2, [(1, 1)], 2), (3, 3, [(2, 0)], 2),
             (3, 2, [(1, 1)], 3), (4, 2, [(3, 1)], 4)]
    ops = []
    for n, m, support, bound in slots:
        fam = danielewski(n, m, support, rng)
        data = family_data(fam)
        canon_deg = max(img.degree() for img in data["images"].values())
        ops.append({"kind": "search", "data": data,
                    "canonical_in_bound": canon_deg <= bound,
                    "argv": ["search", *family_argv(fam),
                             "--degree-bound=%d" % bound, "--nilp-bound=12"]})
    return ops


# ------------------------------------------------------------ morph

def _auto_danielewski(rng, n, m, support, lam, mu):
    fam = danielewski(n, m, support, rng)
    data = family_data(fam)
    a = Poly.const(("x",), rng.choice([1, 2, -1, 3]))
    x, y = Poly.var(data["names"], "x"), Poly.var(data["names"], "y")
    return {"kind": "auto", "data": data, "lam": lam,
            "y_image": y * mu + x ** n * a.subs({}, data["names"]),
            "argv": ["auto", *family_argv(fam), "--lam=%s" % lam,
                     "--mu=%s" % mu, "--a=%s" % a]}


def _auto_new(rng, n, e, lam):
    # d = 2, Q = y: the scaling constraint mu^(dm) = mu lam^(nm) gives
    # mu = lam^n, and the congruence mod x^(n+e) leaves x^(n+e) free
    fam = new_family(n, e, 2, 1, [(n + e, 0)], [], rng)
    data = family_data(fam)
    a = rng.choice([1, 2, -1])
    return {"kind": "auto", "data": data, "lam": lam,
            "argv": ["auto", *family_argv(fam), "--lam=%s" % lam,
                     "--mu=%s" % lam ** n, "--a=%s" % a]}


def _iso_pair(rng, n):
    """P2 = mu^-3 P1(lam x, mu y); the x y and x terms make (lam, mu) unique."""
    P1 = _poly(XY, (0, 3), [(1, 1), (1, 0)], rng)
    lam, mu = rng.choice(UNITS), rng.choice(UNITS)
    x, y = Poly.var(XY, "x"), Poly.var(XY, "y")
    P2 = P1.subs({"x": x * lam, "y": y * mu}) * (1 / mu ** 3)
    rel = [Poly.var(XYZ, "x") ** n * Poly.var(XYZ, "z") - P.subs({}, XYZ)
           for P in (P1, P2)]
    return {"kind": "iso", "isomorphic": True, "lam": lam, "mu": mu,
            "relation1": rel[0], "relation2": rel[1],
            "argv": ["iso", "--n=%d" % n, "--P1=%s" % P1, "--P2=%s" % P2]}


def _non_iso(rng, n, n2, m2):
    P1 = _poly(XY, (0, 3), [(1, 1), (1, 0)], rng)
    P2 = _poly(XY, (0, m2), [(1, 1)], rng)
    return {"kind": "iso", "isomorphic": False,
            "argv": ["iso", "--n=%d" % n, "--n2=%d" % n2,
                     "--P1=%s" % P1, "--P2=%s" % P2]}


def morph(rng):
    """auto on both automorphism families, plus iso pairs of both verdicts."""
    lam = rng.choice(UNITS)
    sign = rng.choice([1, -1])
    return [
        _auto_danielewski(rng, 2, 2, [(2, 0)], rng.choice(UNITS),
                          rng.choice(UNITS)),
        # lam^2 = mu^2 lets x^2 sit below the conductor x^3
        _auto_danielewski(rng, 3, 2, [(2, 0), (3, 0)], lam, lam * sign),
        _auto_new(rng, 2, 1, rng.choice([Fraction(2), Fraction(-1)])),
        _iso_pair(rng, 2),
        _iso_pair(rng, 3),
        _non_iso(rng, 2, 3, 3),
        _non_iso(rng, 3, 3, 2),
    ]


WORKLOADS = {"graded": graded, "degree": degree, "search": search,
             "morph": morph}


def generate(name, seed):
    """The workload's op list for a seed; the same seed gives the same ops."""
    ops = WORKLOADS[name](random.Random("%s:%d" % (name, seed)))
    for op in ops:
        op["argv"] = op["argv"] + ["--json"]
    return ops


def digest(ops):
    """sha256 of the generated command lines, one per line."""
    text = "\n".join(shlex.join(op["argv"]) for op in ops)
    return hashlib.sha256(text.encode()).hexdigest()
