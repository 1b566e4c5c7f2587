"""Derivations on presented rings: well-definedness, nilpotency, degree."""

from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction

import pytest

from lndfilt import cli
from lndfilt.derivations import (BoundExceeded, Derivation,
                                 NonNilpotencyCertifier, NotWellDefined,
                                 RingPresentation, certified_domain)
from lndfilt.families import (bounded_lnd_search, make_danielewski,
                              make_koras_russell2, make_new_family)
from lndfilt.filtration import FiltrationSpec
from lndfilt.ideals import Ideal
from lndfilt.parser import parse_polynomial
from lndfilt.poly import NEG_INF, Context, Polynomial, random_polynomial
from oracles import iterate

XYZ = Context(("x", "y", "z"))
X = Context(("x",))


def _p(text, ctx=XYZ):
    return parse_polynomial(text, ctx)


def _surface_ring():
    """k[x,y,z] / (x^2 z - y^2)."""
    return RingPresentation(XYZ, Ideal(XYZ, [_p("x^2*z - y^2")]))


def _surface_derivation():
    ring = _surface_ring()
    return Derivation(ring, [XYZ.zero(), _p("x^2"), _p("2*y")])


def test_well_defined_and_variable_orders():
    d = _surface_derivation()
    assert d.variable_orders() == {"x": 0, "y": 1, "z": 2}
    cert = d.is_locally_nilpotent()
    assert cert is not None
    assert max(cert.orders.values()) == 2


def test_not_well_defined():
    ring = _surface_ring()
    with pytest.raises(NotWellDefined):
        Derivation(ring, [XYZ.zero(), XYZ.zero(), XYZ.one()])
    # check=False skips the relation test
    d = Derivation(ring, [XYZ.zero(), XYZ.zero(), XYZ.one()], check=False)
    assert d.image_of("z") == XYZ.one()


def test_apply_satisfies_leibniz():
    d = _surface_derivation()
    rng = random.Random(501)
    for _ in range(40):
        p = random_polynomial(XYZ, rng, max_degree=3, max_terms=3)
        q = random_polynomial(XYZ, rng, max_degree=3, max_terms=3)
        lhs = d.apply(p * q)
        rhs = d.apply(p) * q + p * d.apply(q)
        assert d.ring.eq(lhs, rhs)


def test_iterate_matches_repeated_apply():
    d = _surface_derivation()
    z = XYZ.var("z")
    assert iterate(d, z, 0) == z
    assert iterate(d, z, 1) == d.apply(z)
    assert iterate(d, z, 2) == d.apply(d.apply(z))
    assert iterate(d, z, 3).is_zero()


def test_degree_values():
    d = _surface_derivation()
    assert d.deg(XYZ.zero()) == NEG_INF
    assert d.deg(XYZ.one()) == 0
    assert d.deg(_p("x")) == 0
    assert d.deg(_p("y")) == 1
    assert d.deg(_p("z")) == 2
    assert d.deg(_p("y*z")) == 3
    # a relation representative has the degree of its normal form
    assert d.deg(_p("x^2*z")) == d.deg(_p("y^2")) == 2


def test_default_bound_is_the_leibniz_bound():
    d = _surface_derivation()
    # orders x:0, y:1, z:2, so the bound is max over terms of e_y + 2*e_z
    assert d.default_bound(_p("z^7")) == 14
    assert d.default_bound(_p("y^13 + x^9")) == 13
    assert d.default_bound(XYZ.one()) == 0
    # both exceeded the old 4*(max order + 1)*#terms = 12
    assert d.deg(_p("z^7")) == 14
    assert d.deg(_p("y^13")) == 13
    with pytest.raises(BoundExceeded):
        d.deg(_p("z^7"), 13)


def test_degree_additivity_on_domain():
    d = _surface_derivation()
    rng = random.Random(502)
    checked = 0
    while checked < 30:
        p = random_polynomial(XYZ, rng, max_degree=2, max_terms=2,
                              allow_zero=False)
        q = random_polynomial(XYZ, rng, max_degree=2, max_terms=2,
                              allow_zero=False)
        if d.ring.is_zero(p) or d.ring.is_zero(q):
            continue
        dp, dq = d.deg(p), d.deg(q)
        assert d.deg(p * q) == dp + dq
        s = p + q
        if not d.ring.is_zero(s):
            assert d.deg(s) <= max(dp, dq)
        checked += 1


def test_non_nilpotent_euler_derivation():
    x_only = Context(("x",))
    ring = RingPresentation(x_only)
    euler = Derivation(ring, [x_only.var("x")])
    assert euler.is_locally_nilpotent(bound=16) is None
    with pytest.raises(BoundExceeded):
        euler.deg(x_only.var("x"), bound=16)


def test_kernel_and_local_slice():
    d = _surface_derivation()
    assert d.kernel_member(_p("x"))
    assert d.kernel_member(_p("x^3 + 7"))
    assert not d.kernel_member(_p("y"))
    assert d.is_local_slice(_p("y"))
    assert not d.is_local_slice(_p("z"))
    assert not d.is_local_slice(_p("x"))


def test_free_ring_default_relations():
    ring = RingPresentation(XYZ)
    assert ring.nf(_p("x^2*z - y^2")) == _p("x^2*z - y^2")
    d = Derivation(ring, [XYZ.one(), XYZ.zero(), XYZ.zero()])
    assert d.deg(_p("x^5")) == 5


# ------------------------------------------- the Leibniz top-term certificate
#
# `deg` answers N, the Leibniz bound of nf(p), when the top term T of nf(p)
# survives in the ring, and iterates otherwise.  The oracle is the iteration
# itself, `_deg_reduced` run up to the Leibniz bound.

XY = Context(("x", "y"))
XS = Context(("x", "s"))
XZT = Context(("x", "z", "t"))


def _families():
    return [
        make_danielewski(2, _p("y^3 + x*y", XY)),
        make_danielewski(3, _p("y^2 + 1/2*x*y", XY)),
        make_koras_russell2(2, 3, 2, _p("t^2 + x + z*t", XZT)),
        make_new_family(2, 1, _p("s^2", XS), _p("y^2", XY)),
        make_new_family(2, 1, _p("s^2 + x*s", XS), _p("y^2 + x*y", XY)),
    ]


def _oracle(D, q):
    """deg_D(q) by iteration up to the Leibniz bound, for q in normal form."""
    return D._deg_reduced(q, D.default_bound(q), None)


def _check_certificate(D, p):
    """deg agrees with the oracle, with and without an explicit bound, and
    so does the certificate whenever it answers; returns whether it did."""
    q = D.ring.nf(p)
    want = _oracle(D, q)
    assert D.deg(p) == want, p
    if q.is_zero():
        return False
    got = D._top_degree(q, D.default_bound(q))
    assert got in (None, want), (p, got, want)
    assert D.deg(p, want) == want
    if want > 0:
        assert D._deg_reduced(q, want - 1, None) is None
        with pytest.raises(BoundExceeded):
            D.deg(p, want - 1)
    return got is not None


def _rational(p, rng):
    return Polynomial(p.ctx, {m: Fraction(c, rng.randint(1, 4))
                              for m, c in p.terms.items()})


def _monomials_to_leibniz_degree(D, top, kernel_exponent=1):
    """Every monomial with Leibniz degree <= top whose order-0 variables
    have exponent <= kernel_exponent."""
    ords = [D.variable_orders()[nm] for nm in D.ring.ctx.names]

    def grow(i, left):
        if i == len(ords):
            yield ()
            return
        cap = kernel_exponent if ords[i] == 0 else left // ords[i]
        for e in range(cap + 1):
            for rest in grow(i + 1, left - e * ords[i]):
                yield (e,) + rest

    return [D.ring.ctx.monomial(m) for m in grow(0, top)]


# the last family's iterates carry fractions, so its monomials stop at 8
@pytest.mark.parametrize("index,top", [(0, 12), (1, 12), (2, 12), (3, 12),
                                       (4, 8)])
def test_top_term_certificate_matches_iteration(index, top):
    inst = _families()[index]
    D, ctx = inst.derivation, inst.ring.ctx
    rng = random.Random(1300 + index)
    elements = _monomials_to_leibniz_degree(D, top)
    for _ in range(15):
        p = random_polynomial(ctx, rng, max_degree=3, max_terms=4)
        elements += [p, _rational(p, rng)]
    s = inst.slice_elem
    for k in range(1, 5):
        elements += [s ** k] + [s ** k * v for v in ctx.gens()]
        elements.append(s ** k + _rational(
            random_polynomial(ctx, rng, max_degree=2, max_terms=2), rng))
    answered = sum(_check_certificate(D, p) for p in elements)
    assert answered >= len(elements) // 2


def test_top_term_cancels_on_multiples_of_the_new_family_slice():
    inst = _families()[3]
    D, ring = inst.derivation, inst.ring
    x, y, z = ring.ctx.gens()
    s = y ** 2 - x * z
    # s has Leibniz bound 4 (orders y:2, z:4) but degree 1: its top terms
    # y^2 and x*z weigh 1/(2!)^2 and 1/4!, and T = x^8/4 - 24*x^8/24 + ...
    # cancels; every multiple below keeps a cancelling top term
    for p in [s, s * y, s * z, s * y * z, s * z ** 2, s ** 3, s ** 3 * z]:
        q = ring.nf(p)
        want = _oracle(D, q)
        assert want < D.default_bound(q)
        assert D._top_degree(q, D.default_bound(q)) is None
        assert D.deg(p) == want


def test_top_iterates_are_the_derivations_own():
    for inst in _families():
        D = inst.derivation
        orders, tops, _ = D._nilp
        for nm, top in zip(D.ring.ctx.names, tops):
            assert top == iterate(D, D.ring.ctx.var(nm), orders[nm])
            assert D.kernel_member(top)


def test_top_term_of_a_huge_power_stays_small():
    # orders x:0, y:1, z:2 and D^2(z) = 2 x^2, so T = (D^2(z)/2!)^e = x^(2e);
    # 2!^e and (2 x^2)^e would each hold a number of 10^8 bits
    D = make_danielewski(2, parse_polynomial("y^2", Context(("x", "y")))).derivation
    q = D.ring.ctx.var("z") ** 100000000
    tracemalloc.start()
    try:
        assert D.deg(q) == 200000000
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20


def test_certificate_with_a_generator_that_normalises_to_zero():
    # z lies in the relation ideal, so nf(z) = 0, its order is 0 and its
    # top iterate is the zero polynomial
    ring = RingPresentation(XYZ, Ideal(XYZ, [_p("z")]))
    D = Derivation(ring, [XYZ.zero(), _p("x^2 + z"), _p("y*z")])
    assert D.variable_orders() == {"x": 0, "y": 1, "z": 0}
    assert D._nilp[1][2].is_zero()
    rng = random.Random(1310)
    for _ in range(40):
        p = random_polynomial(XYZ, rng, max_degree=5, max_terms=4)
        _check_certificate(D, p)
        _check_certificate(D, _rational(p, rng))


def test_certificate_on_search_candidates_with_cleared_orders():
    # a rational candidate is certified on its denominator-cleared multiple
    # c*D; its top iterates are divided back by c^d_i to stay D's own
    res = bounded_lnd_search(make_danielewski(2, _p("y^2", XY)),
                             image_degree_bound=4, nilp_bound=20)
    rational = [c.derivation for c in res.candidates
                if any(isinstance(v, Fraction) for img in c.derivation.images
                       for v in img.terms.values())]
    assert rational
    rng = random.Random(1320)
    for D in rational:
        orders, tops, _ = D._nilp
        for nm, top in zip(D.ring.ctx.names, tops):
            assert top == iterate(D, D.ring.ctx.var(nm), orders[nm])
        for p in _monomials_to_leibniz_degree(D, 8):
            _check_certificate(D, p)
        for _ in range(10):
            _check_certificate(D, _rational(
                random_polynomial(D.ring.ctx, rng, max_degree=3), rng))


# ------------------------------------------------ non-nilpotency certificates

@pytest.mark.parametrize("relations, domain", [
    ([], True),
    (["x^2*z - y^2"], True),         # v = z, a = x^2, b = -y^2
    (["z - y^2"], True),             # a constant a counts
    (["2*y"], True),                 # b = 0 with a constant a
    (["x*y"], False),                # y | b = 0, and x | b = 0
    (["x*z - x*y"], False),          # x divides b = -x*y
    (["x^2"], False),                # no variable of degree one
    (["x^2*z - y^2", "x - y"], False),
    (["y*(x + z)^2 - x"], False),    # a = (x + z)^2 is no monomial
])
def test_certified_domain_rule(relations, domain):
    ring = RingPresentation(XYZ, Ideal(XYZ, [_p(r) for r in relations]))
    assert certified_domain(ring) is domain


def test_tangent_and_divisibility_certificates():
    xy = Context(("x", "y"))
    swap = Derivation(RingPresentation(xy), [xy.var("y"), xy.var("x")])
    cert = NonNilpotencyCertifier(swap.ring).certify(swap)
    assert cert.data == {"kind": "tangent",
                         "linear_map": {"x": "y", "y": "x"}}
    assert cert.text == ("the tangent map x -> y, y -> x at the origin is "
                         "not nilpotent")
    # B = k[x] as k[x,y]/(y - x^2), D = x^2 d/dx: the tangent map x -> y
    # is zero modulo the relation's linear part y, but x divides D(x) = y
    ring = RingPresentation(xy, Ideal(xy, [_p("y - x^2", xy)]))
    D = Derivation(ring, [_p("y", xy), _p("2*x*y", xy)])
    cert = NonNilpotencyCertifier(ring).certify(D)
    assert cert.data == {"kind": "divisibility", "generator": "x",
                         "image": "y"}
    assert D.is_locally_nilpotent(16) is None
    # an LND passes both; so does a non-LND that moves the origin
    assert NonNilpotencyCertifier(_surface_ring()).certify(
        _surface_derivation()) is None
    shift = Derivation(RingPresentation(xy), [_p("1 + x", xy), xy.zero()])
    assert NonNilpotencyCertifier(shift.ring).certify(shift) is None


def test_divisibility_needs_a_domain():
    # k[x,y]/(x^2) is no domain: y divides D(y) = x*y != 0, yet D is an LND
    # (D^2(y) = x^2*y = 0); the certificate must not fire there
    argv = ["lnd-check", "--ring=x,y", "--relations=x^2", "--images=0;x*y"]
    assert cli.main(argv) == 0


@pytest.mark.parametrize("relations", ["x", "x - x^2"])
def test_tangent_map_on_a_zero_cotangent_space(relations):
    # the relation's linear part x spans k^1, so m/m^2 = 0 and the zero
    # derivation (an LND) has nothing to certify
    argv = ["lnd-check", "--ring=x", "--relations=" + relations, "--images=0"]
    assert cli.main(argv) == 0
    ring = RingPresentation(X, Ideal(X, [_p(relations, X)]))
    assert NonNilpotencyCertifier(ring).certify(
        Derivation(ring, [X.zero()])) is None


# every search instance of the benchmark's search workload at seeds 1 and
# 2, then the search lines of the golden corpus
SEARCHES = [
    ["--family=danielewski", "--n=2", "--P=y^3 - 3*x*y",
     "--degree-bound=2", "--nilp-bound=12"],
    ["--family=danielewski", "--n=3", "--P=-3*x*y + y^2",
     "--degree-bound=2", "--nilp-bound=12"],
    ["--family=danielewski", "--n=3", "--P=y^3 - x^2",
     "--degree-bound=2", "--nilp-bound=12"],
    ["--family=danielewski", "--n=3", "--P=2*x*y + y^2",
     "--degree-bound=3", "--nilp-bound=12"],
    ["--family=danielewski", "--n=4", "--P=2*x^3*y + y^2",
     "--degree-bound=4", "--nilp-bound=12"],
    ["--family=danielewski", "--n=2", "--P=y^3 + x*y",
     "--degree-bound=2", "--nilp-bound=12"],
    ["--family=danielewski", "--n=3", "--P=-x*y + y^2",
     "--degree-bound=2", "--nilp-bound=12"],
    ["--family=danielewski", "--n=3", "--P=y^3 + x^2",
     "--degree-bound=2", "--nilp-bound=12"],
    ["--family=danielewski", "--n=3", "--P=-3*x*y + y^2",
     "--degree-bound=3", "--nilp-bound=12"],
    ["--family=danielewski", "--n=4", "--P=-3*x^3*y + y^2",
     "--degree-bound=4", "--nilp-bound=12"],
    ["--family=danielewski", "--n=2", "--P=y^2", "--degree-bound=2",
     "--nilp-bound=8"],
    ["--family=kr2", "--n=2", "--e=3", "--l=2", "--Q=t^2 + x + z*t",
     "--degree-bound=2", "--nilp-bound=8"],
    ["--family=new", "--n=2", "--e=1", "--P=s^2", "--Q=y^2",
     "--degree-bound=2", "--nilp-bound=8"],
]


def _recorded_search(argv, monkeypatch):
    """Run one search, recording each certificate verdict with the
    candidate it judged: for a verdict on gr(D), the candidate D whose
    homogenization it was."""
    args = cli._parser().parse_args(["search", *argv])
    inst = cli._build_instance(args)
    verdicts = []
    origin = {}
    certify = NonNilpotencyCertifier.certify
    homogenization = FiltrationSpec.homogenization

    def recorded_hom(self, D):
        hom = homogenization(self, D)
        origin[id(hom[0])] = D
        return hom

    def recorded(self, D):
        cert = certify(self, D)
        graded = D.ring is not inst.ring
        verdicts.append((origin[id(D)] if graded else D, graded, cert))
        return cert

    monkeypatch.setattr(FiltrationSpec, "homogenization", recorded_hom)
    monkeypatch.setattr(NonNilpotencyCertifier, "certify", recorded)
    res = bounded_lnd_search(inst, args.degree_bound, args.nilp_bound)
    monkeypatch.undo()
    return inst, res, verdicts


@pytest.mark.parametrize("argv", SEARCHES)
def test_certified_rejections_fail_iteration(argv, monkeypatch):
    """Differential check of the certificates against iteration: each
    candidate they reject, on B or through its homogenization gr(D) on
    gr(B), also fails `is_locally_nilpotent` at bound 64, and each
    accepted candidate passes both, gr(D) included.  The iteration keeps
    the search's term guard of 300: without it, bound 64 takes more than
    100 s on the first instance alone."""
    inst, res, verdicts = _recorded_search(argv, monkeypatch)
    refuted = [D for D, _, cert in verdicts if cert is not None]
    assert refuted
    for D in refuted:
        assert D.is_locally_nilpotent(64, term_guard=300) is None, D
    # the gate: gr(B) is a certified domain only on Danielewski surfaces,
    # and elsewhere no homogenization is built
    fs = inst.filtration
    gated = inst.family == "danielewski"
    assert certified_domain(fs._graded_ring()) == gated
    assert gated or not any(graded for _, graded, _ in verdicts)
    certifier = NonNilpotencyCertifier(inst.ring)
    graded = NonNilpotencyCertifier(fs._graded_ring())
    for cand in res.candidates:
        assert cand.derivation.is_locally_nilpotent(64, term_guard=300)
        assert certifier.certify(cand.derivation) is None, cand.derivation
        assert graded.certify(fs.homogenization(cand.derivation)[0]) is None


def test_rejections_by_kind_on_the_seed_1_searches():
    """The five searches of the benchmark's seed-1 search pass reject 97
    candidates: 19 by the tangent map, 68 by divisibility, 8 through
    gr(D) and 2 by iteration."""
    total = dict.fromkeys(("tangent", "divisibility", "graded",
                           "iteration"), 0)
    for argv in SEARCHES[:5]:
        args = cli._parser().parse_args(["search", *argv])
        res = bounded_lnd_search(cli._build_instance(args), args.degree_bound,
                                 args.nilp_bound)
        assert res.rejected == sum(res.rejections.values())
        for kind, count in res.rejections.items():
            total[kind] += count
    assert total == {"tangent": 19, "divisibility": 68, "graded": 8,
                     "iteration": 2}


def test_unchecked_images_are_normal_forms(monkeypatch):
    """A search builds its cleared multiples and each gr(D) with
    check=False, which takes the images as given: each must already be its
    normal form, and the derivation well defined."""
    init = Derivation.__init__
    unchecked = []

    def recorded(self, ring, images, check=True):
        init(self, ring, images, check)
        if not check:
            unchecked.append(self)

    monkeypatch.setattr(Derivation, "__init__", recorded)
    for argv in SEARCHES[:5]:
        args = cli._parser().parse_args(["search", *argv])
        bounded_lnd_search(cli._build_instance(args), args.degree_bound,
                           args.nilp_bound)
    monkeypatch.undo()
    # B's order is grlex, gr(B)'s the weight order of the filtration
    assert {D.ring.order.kind for D in unchecked} == {"grlex", "weight"}
    for D in unchecked:
        assert Derivation(D.ring, D.images).images == D.images, D


@pytest.mark.parametrize("make", [
    lambda: make_danielewski(2, _p("y^2 + x*y", XY)),
    lambda: make_danielewski(3, _p("y^3 - 3*x*y", XY)),
    lambda: make_koras_russell2(2, 3, 2, _p("t^2 + x + z*t", XZT)),
    lambda: make_new_family(2, 1, _p("s^2", XS), _p("y^2", XY)),
    lambda: make_new_family(2, 1, _p("s^2 + x*s", XS), _p("y^2 + x*y", XY))])
def test_kernel_multiples_are_never_refuted(make):
    """f*D is locally nilpotent for f in ker D, so no certificate may
    refute it, on B nor through gr(f*D) on gr(B), whether or not gr(B) is
    a certified domain (the tangent map needs none)."""
    inst = make()
    fs = inst.filtration
    D = inst.derivation
    ctx = inst.ring.ctx
    on_b = NonNilpotencyCertifier(inst.ring)
    on_gr = NonNilpotencyCertifier(fs._graded_ring())
    for f in ("1", "x", "1 + x", "x^2"):
        fD = Derivation(inst.ring, [_p(f, ctx) * im for im in D.images])
        assert on_b.certify(fD) is None, f
        gr_d, k = fs.homogenization(fD)
        assert on_gr.certify(gr_d) is None, f
        assert gr_d.is_locally_nilpotent(64) is not None, f
