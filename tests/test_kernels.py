"""The reduction and coefficient kernels against slow reference versions.

`rescan_nf_against` is the earlier normal form, which rescans every live
term's order key at each step.  The heap kernel must agree with it on the
remainder, on the order of the remainder's terms and on the number of
budget steps.  The `oracle_*` functions run the polynomial operations on
term dicts whose coefficients are all `Fraction`; the operations on stored
coefficients (`int` when integral, `Fraction` otherwise) must give the same
terms in the same order, and store every coefficient in that form.
`apply_oracle` is the earlier derivation iteration, one `Derivation.apply`
(Leibniz on tuples, then `nf_against`) per step; the packed-monomial loop
must agree with it on the degree or None verdict, on the nilpotency orders
and on the number of budget steps, and raise where it raises.
"""

from __future__ import annotations

import contextlib
import random
from fractions import Fraction

import pytest

from lndfilt.cli import main
from lndfilt.derivations import Derivation, RingPresentation
from lndfilt.families import (make_danielewski, make_koras_russell2,
                              make_new_family)
from lndfilt.ideals import (Budget, BudgetExhausted, Ideal, MonomialOrder,
                            Packing, buchberger, leading_monomial, nf_against)
from lndfilt.parser import parse_polynomial
from lndfilt.poly import (NEG_INF, Context, Polynomial, mono_div, mono_mul,
                          random_polynomial)

CTX = Context(("x", "y", "z", "w"))


def rescan_nf_against(p, basis, order, budget):
    """Reference normal form: next term by max over all live keys."""
    lead = [(leading_monomial(g, order), g) for g in basis]
    work = dict(p.terms)
    rem: dict = {}
    while work:
        m = max(work, key=order.key)
        c = work.pop(m)
        if c == 0:
            continue
        hit = None
        for lm, g in lead:
            q = mono_div(m, lm)
            if q is not None:
                hit = (q, lm, g)
                break
        if hit is None:
            rem[m] = rem.get(m, 0) + c
            continue
        budget.step()
        q, lm, g = hit
        fac = Fraction(c) / g.terms[lm]
        for gm, gc in g.terms.items():
            if gm == lm:
                continue
            t = mono_mul(gm, q)
            nv = work.get(t, 0) - fac * gc
            if nv:
                work[t] = nv
            else:
                work.pop(t, None)
    return Polynomial(p.ctx, rem)


def stored_form(p):
    """Every coefficient is an int, or a Fraction with denominator > 1."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for c in p.terms.values())


def rational_product(x, y):
    """Reference product: the term loop on Fraction coefficients."""
    if len(x) > len(y):
        x, y = y, x
    out: dict = {}
    for ma, ca in x.items():
        for mb, cb in y.items():
            m = mono_mul(ma, mb)
            nc = out.get(m, 0) + Fraction(ca) * Fraction(cb)
            if nc:
                out[m] = nc
            else:
                out.pop(m, None)
    return out


def random_order(rng):
    perm = list(range(len(CTX)))
    rng.shuffle(perm)
    kind = rng.choice(["lex", "grlex", "weight"])
    if kind == "lex":
        return MonomialOrder.lex(len(CTX), perm)
    if kind == "grlex":
        return MonomialOrder.grlex(len(CTX), perm)
    # zero weights leave only the tie-break to order those variables
    return MonomialOrder.weight([rng.choice([0, 0, 1, 2, 3]) for _ in range(len(CTX))], perm)


def random_scaled(rng, **kw):
    """Random polynomial, sometimes scaled by a non-integral rational."""
    p = random_polynomial(CTX, rng, **kw)
    if rng.random() < 0.5:
        p = p * Fraction(rng.choice([1, 2, 3, -5]), rng.choice([2, 3, 7]))
    return p


def test_heap_kernel_matches_rescan_oracle():
    rng = random.Random(2011)
    kinds = set()
    steps_seen = 0
    for _ in range(300):
        order = random_order(rng)
        kinds.add(order.kind)
        basis = [random_scaled(rng, max_degree=3, max_terms=4, allow_zero=False)
                 for _ in range(rng.randint(1, 3))]
        basis = [g for g in basis if not g.is_zero()]  # drawn terms may cancel
        p = random_scaled(rng, max_degree=6, max_terms=10)
        big = 10 ** 6
        b_ref = Budget(big)
        with Budget(big) as b_heap:
            got = nf_against(p, basis, order)
        want = rescan_nf_against(p, basis, order, b_ref)
        assert list(got.terms.items()) == list(want.terms.items())
        steps = big - b_ref.left
        assert big - b_heap.left == steps
        steps_seen += steps
        if steps:
            # one step short of what the reduction needs must fail
            with pytest.raises(BudgetExhausted), Budget(steps - 1):
                nf_against(p, basis, order)
            with pytest.raises(BudgetExhausted):
                rescan_nf_against(p, basis, order, Budget(steps - 1))
    assert kinds == {"lex", "grlex", "weight"}
    assert steps_seen > 1000


@pytest.mark.parametrize("gens, steps, size", [
    (["x^2*y - s^2", "s - y^2 + x*z"], 10, 4),
    (["x*y - z^2", "y*z - x^2", "x*z - y^2 + s"], 18, 7),
    (["x^3 - 2*x*y", "x^2*y - 2*y^2 + x", "z*s - 1"], 7, 4),
])
def test_buchberger_reduction_steps_are_pinned(gens, steps, size):
    """The reduced basis is unique whatever the pair order; the number of
    reduction steps is not, so it pins the smallest-lcm-first selection."""
    ctx = Context(("x", "y", "z", "s"))
    with Budget(10 ** 6) as budget:
        gb = buchberger([parse_polynomial(g, ctx) for g in gens],
                        MonomialOrder.grlex(4))
    assert (10 ** 6 - budget.left, len(gb)) == (steps, size)


def test_integer_product_matches_rational_product():
    rng = random.Random(2024)
    paths = set()
    for _ in range(400):
        shape = rng.choice(["integral", "rational", "mixed"])
        a = random_polynomial(CTX, rng, max_degree=4, max_terms=6)
        b = random_polynomial(CTX, rng, max_degree=4, max_terms=6)
        if shape != "integral":
            a = a * Fraction(1, rng.choice([2, 3, 5]))
        if shape == "rational":
            b = b * Fraction(rng.choice([-1, 3, 7]), rng.choice([2, 9]))
        paths.add(shape)
        for f, g in ((a, b), (b, a)):
            got = f * g
            want = rational_product(f.terms, g.terms)
            assert list(got.terms.items()) == list(want.items())
            assert stored_form(got)
    assert paths == {"integral", "rational", "mixed"}
    # a product whose terms cancel completely
    x, y = CTX.var("x"), CTX.var("y")
    assert ((x + y) * (x - y) - x * x + y * y).is_zero()
    assert (x * 2 + y) * CTX.zero() == CTX.zero()


def random_rational(rng, max_degree=3, max_terms=5):
    """Random polynomial whose coefficients mix integers and fractions."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        expo = tuple(rng.randint(0, max_degree) for _ in CTX.names)
        if sum(expo) <= max_degree:
            terms[expo] = Fraction(rng.choice([-6, -3, -2, -1, 1, 2, 4]),
                                   rng.choice([1, 1, 2, 3, 4]))
    return Polynomial(CTX, terms)


def as_fractions(p):
    return {m: Fraction(c) for m, c in p.terms.items()}


def oracle_add(a, b):
    out = dict(a)
    for m, c in b.items():
        nc = out.get(m, 0) + c
        if nc:
            out[m] = nc
        else:
            out.pop(m, None)
    return out


def oracle_sub(a, b):
    return oracle_add(a, {m: -c for m, c in b.items()})


def oracle_pow(a, n):
    """Binary powering, squaring the base as `Polynomial.__pow__` does."""
    result = {(0,) * len(CTX): Fraction(1)}
    base = a
    while n:
        if n & 1:
            result = rational_product(result, base)
        base = rational_product(base, base) if n > 1 else base
        n >>= 1
    return result


def oracle_partial(a, i):
    out = {}
    for m, c in a.items():
        if m[i]:
            mm = list(m)
            mm[i] -= 1
            out[tuple(mm)] = c * m[i]
    return out


def oracle_subs(a, images):
    out = {}
    powers = [{} for _ in images]
    for m, c in a.items():
        term = {(0,) * len(CTX): c}
        for i, e in enumerate(m):
            if e:
                if e not in powers[i]:
                    powers[i][e] = oracle_pow(images[i], e)
                term = rational_product(term, powers[i][e])
        out = oracle_add(out, term)
    return out


def test_operations_match_fraction_oracle():
    rng = random.Random(1729)
    kinds = set()
    for _ in range(150):
        a, b = random_rational(rng), random_rational(rng)
        fa, fb = as_fractions(a), as_fractions(b)
        i = rng.randrange(len(CTX))
        images = [random_rational(rng, max_degree=2, max_terms=3)
                  for _ in CTX.names]
        basis = [random_rational(rng, max_degree=2, max_terms=3)
                 for _ in range(rng.randint(1, 3))]
        basis = [g for g in basis if not g.is_zero()]
        order = random_order(rng)
        k = rng.randint(0, 3)
        cases = [
            (a + b, oracle_add(fa, fb)),
            (a - b, oracle_sub(fa, fb)),
            (a * b, rational_product(fa, fb)),
            (a ** k, oracle_pow(fa, k)),
            (a.partial(CTX.names[i]), oracle_partial(fa, i)),
            (a.subs(dict(zip(CTX.names, images)), CTX),
             oracle_subs(fa, [as_fractions(g) for g in images])),
        ]
        if basis:
            want = rescan_nf_against(a, basis, order, Budget(10 ** 6))
            cases.append((nf_against(a, basis, order), as_fractions(want)))
        for got, want in cases:
            assert list(got.terms.items()) == list(want.items())
            assert stored_form(got)
            kinds.update(type(c) for c in got.terms.values())
    assert kinds == {int, Fraction}


def test_coefficient_contract():
    m = (1, 0, 0, 0)
    for bad in (0.5, 0.0, "1", None, 1j):
        with pytest.raises(TypeError):
            Polynomial(CTX, {m: bad})
    x = CTX.var("x")
    for bad in (0.5, 2.0):
        for op in (lambda: x * bad, lambda: x + bad, lambda: x / bad,
                   lambda: CTX.const(bad), lambda: CTX.monomial(m, bad)):
            with pytest.raises(TypeError):
                op()
    p = Polynomial(CTX, {m: Fraction(4, 2), (0, 0, 0, 0): True,
                         (0, 1, 0, 0): Fraction(1, 3)})
    assert [type(c) for c in p.terms.values()] == [int, int, Fraction]
    assert type((x * Fraction(1, 2) * 2).terms[m]) is int
    assert type(p.constant_value()) is Fraction
    assert type(CTX.zero().constant_value()) is Fraction


# ------------------------------------------------ packed derivation iteration

def test_packing_keeps_order_product_and_divisibility():
    rng = random.Random(4646)
    for _ in range(60):
        order = random_order(rng)
        monos = [tuple(rng.randint(0, 5) for _ in CTX.names) for _ in range(12)]
        # products of two monomials must fit as well
        pk = Packing(order, 2 * order.field_max(monos))
        for a in monos:
            for b in monos:
                pa, pb = pk.pack(a), pk.pack(b)
                assert (pa < pb) == (order.key(a) < order.key(b))
                assert pa + pb == pk.pack(mono_mul(a, b))
                divides = ((pa + pk.guard) - pb) & pk.guard == pk.guard
                assert divides == (mono_div(a, b) is not None)
            assert [(pk.pack(a) >> pk.shifts[i]) & pk.mask
                    for i in range(len(a))] == list(a)


def apply_oracle(D, q, bound, term_guard):
    """deg_D(q) by repeated `Derivation.apply`: tuples and `nf_against`."""
    if q.is_zero():
        return NEG_INF
    for k in range(bound + 1):
        q = D.apply(q)
        if q.is_zero():
            return k
        if term_guard is not None and q.num_terms() > term_guard:
            return None
    return None


def counted_steps(monkeypatch):
    calls = [0]
    step = Budget.step

    def counted(budget):
        calls[0] += 1
        step(budget)

    monkeypatch.setattr(Budget, "step", counted)
    return calls


def run_both(D, q, bound, term_guard, make_scope, calls):
    """(outcome, steps) of the packed loop and of the oracle, each inside a
    new `make_scope()`; an outcome is the verdict or the exception type."""
    got = []
    for path in (D._deg_reduced, lambda *a: apply_oracle(D, *a)):
        calls[0] = 0
        try:
            with make_scope():
                out = path(q, bound, term_guard)
        except BudgetExhausted:
            out = BudgetExhausted
        got.append((out, calls[0]))
    return got


def check_agreement(D, q, bound, term_guard, calls):
    """Same verdict and steps outside any scope (a fresh budget per normal
    form) and inside one; one step short of what the iteration needs, both
    paths raise."""
    packed, oracle = run_both(D, q, bound, term_guard,
                              contextlib.nullcontext, calls)
    assert packed == oracle
    big = 10 ** 6
    packed, oracle = run_both(D, q, bound, term_guard, lambda: Budget(big),
                              calls)
    assert packed == oracle
    verdict, steps = packed
    if steps:
        packed, oracle = run_both(D, q, bound, term_guard,
                                  lambda: Budget(steps - 1), calls)
        assert packed[0] is BudgetExhausted and oracle[0] is BudgetExhausted
        assert packed == oracle
    return verdict, steps


XY, XS, XZT = Context(("x", "y")), Context(("x", "s")), Context(("x", "z", "t"))


def family_derivations():
    """The canonical derivations of the three families, plus multiples with
    rational coefficients."""
    insts = [make_danielewski(2, parse_polynomial("y^2", XY)),
             make_danielewski(3, parse_polynomial("y^3 + x*y - 1", XY)),
             make_koras_russell2(2, 2, 2, parse_polynomial("t^2", XZT)),
             make_new_family(2, 1, parse_polynomial("s^2", XS),
                             parse_polynomial("y^2", XY))]
    out = []
    for inst in insts:
        D = inst.derivation
        out.append(D)
        out.append(Derivation(D.ring, [im * Fraction(2, 3) for im in D.images],
                              check=False))
    return out


def reordered(D, order):
    """D on the same relations, with normal forms for another order."""
    ring = RingPresentation(D.ring.ctx, D.ring.relations, order)
    return Derivation(ring, D.images)


def orders_for(ctx, rng):
    """lex, grlex and a weight order with a zero weight, on random
    tie-breaks."""
    n = len(ctx)
    perm = list(range(n))
    rng.shuffle(perm)
    weights = [0] + [rng.randint(0, 3) for _ in range(n - 1)]
    return [MonomialOrder.lex(n, perm), MonomialOrder.grlex(n, perm),
            MonomialOrder.weight(weights, perm)]


def custom_derivations():
    ctx = Context(("x", "y", "z"))

    def build(rels, images):
        ring = RingPresentation(ctx, Ideal(ctx, [parse_polynomial(r, ctx)
                                                 for r in rels]))
        return Derivation(ring, [parse_polynomial(t, ctx) for t in images])

    return [
        build(["z^2"], ["z", "x^2 + x^3", "0"]),
        build(["x*z - 2/3*y^2"], ["0", "x", "4/3*y"]),
        build([], ["0", "x", "y^2 - 1/2*x"]),      # no relations at all
        build([], ["y", "x", "0"]),                  # not nilpotent
        build(["x*y - 1"], ["0", "0", "x + y"]),
        # a two-element basis whose leading monomials x^2, y^2 both divide
        # x^2*y^2; reducing by the first takes one step there, by the
        # second two
        build(["x^2", "y^2 - x"], ["0", "0", "x*y + x + y"]),
    ]


def probes(D, rng):
    ctx = D.ring.ctx
    out = [ctx.var(nm) for nm in ctx.names]
    out.append(ctx.monomial([2] * len(ctx)))
    while len(out) < len(ctx) + 5:
        p = D.ring.nf(random_polynomial(ctx, rng, max_degree=3, max_terms=4))
        if not p.is_zero():
            out.append(p)
    return out


def test_packed_iteration_matches_apply_oracle(monkeypatch):
    rng = random.Random(911)
    calls = counted_steps(monkeypatch)
    derivations = []
    for D in family_derivations() + custom_derivations():
        derivations.append(D)
        derivations += [reordered(D, o) for o in orders_for(D.ring.ctx, rng)]
    kinds = set()
    verdicts = set()
    steps_seen = 0
    for D in derivations:
        kinds.add(D.ring.order.kind)
        for q in probes(D, rng):
            verdict, steps = check_agreement(D, q, 40, None, calls)
            verdicts.add(verdict is None)
            steps_seen += steps
            if verdict is not None and verdict > 0:
                # one short of the degree, the bound trips on both paths
                assert check_agreement(D, q, verdict - 1, None, calls)[0] is None
                # a one-term guard gives the same verdict on both paths
                check_agreement(D, q, 40, 1, calls)
    assert kinds == {"lex", "grlex", "weight"}
    assert verdicts == {True, False}
    assert steps_seen > 300


def test_term_guard_trips_on_both_paths(monkeypatch):
    calls = counted_steps(monkeypatch)
    D = custom_derivations()[3]  # x -> y, y -> x: never dies
    p = parse_polynomial("(x + y + z)^3", D.ring.ctx)
    assert check_agreement(D, p, 40, 3, calls) == (None, 0)
    dan = family_derivations()[2]
    q = parse_polynomial("y^3*z^4 + x*z", dan.ring.ctx)
    verdict, steps = check_agreement(dan, q, 40, 2, calls)
    assert verdict is None and steps > 0


def test_nilpotency_orders_match_apply_oracle(monkeypatch):
    rng = random.Random(77)
    calls = counted_steps(monkeypatch)
    for D in family_derivations() + custom_derivations():
        for order in orders_for(D.ring.ctx, rng):
            E = reordered(D, order)
            ctx = E.ring.ctx
            want = {}
            calls[0] = 0
            for nm in ctx.names:
                d = apply_oracle(E, E.ring.nf(ctx.var(nm)), 30, None)
                if d is None:
                    want = None
                    break
                want[nm] = 0 if d == NEG_INF else d
            oracle_steps = calls[0]
            calls[0] = 0
            fresh = Derivation(E.ring, E.images, check=False)
            assert fresh.variable_orders(30) == want
            assert calls[0] == oracle_steps


def test_huge_exponent_keeps_exit_4(capsys):
    # the field width follows the exponent, so a 32-bit field would overflow
    code = main(["deg", "--family=danielewski", "--n=2", "--P=y^2",
                 "--of=z^3000000000", "--nilp-bound=3"])
    err = capsys.readouterr().err
    assert code == 4
    assert err == "budget exhausted: degree iteration exceeded bound 3\n"
