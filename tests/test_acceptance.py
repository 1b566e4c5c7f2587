"""Acceptance battery: ten criteria, one pass/fail line each.

Each test prints (and records for the terminal summary) a single line
"PASS criterion N: ..." or "FAIL criterion N: ...".  Expected values are
frozen from independent hand computation or cross-checked against oracles
computed by a different route inside the test.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from lndfilt.cli import main as cli_main
from lndfilt.families import (bounded_lnd_search, make_danielewski,
                              make_new_family, make_koras_russell2)
from lndfilt.ideals import Ideal, ideal_equal
from lndfilt.morphisms import (AutomorphismData, build_auto_danielewski,
                               build_auto_newfamily, iso_decide,
                               verify_degree_preservation)
from lndfilt.parser import parse_polynomial
from lndfilt.poly import Context, random_polynomial
from lndfilt.selftest import run_selftest
from oracles import (conjugate, gr_properties_report, iterate, ml_evidence,
                     verify_layer_formulas)

RESULTS: list = []

XY = Context(("x", "y"))
XS = Context(("x", "s"))
XZT = Context(("x", "z", "t"))
XONLY = Context(("x",))


def _report(num: int, desc: str, ok: bool, problems=()):
    if problems:
        desc = "%s [%s]" % (desc, "; ".join(str(p) for p in problems))
    line = "%s criterion %d: %s" % ("PASS" if ok else "FAIL", num, desc)
    RESULTS.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def toy():
    return make_new_family(2, 1, parse_polynomial("s^2", XS),
                           parse_polynomial("y^2", XY))


@pytest.fixture(scope="module")
def dan2():
    return make_danielewski(2, parse_polynomial("y^2", XY))


@pytest.fixture(scope="module")
def kr2():
    return make_koras_russell2(2, 2, 2, parse_polynomial("t^2", XZT))


# ------------------------------------------------ independent Smith oracle

def _det(a):
    a = [[Fraction(x) for x in row] for row in a]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return int(det)


def _smith_divisors_by_minors(mat):
    """Elementary divisors via gcds of all i x i minors; no row operations
    are shared with the library routine."""
    m, n = len(mat), len(mat[0])
    gcds = []
    for size in range(1, min(m, n) + 1):
        g = 0
        for rows in itertools.combinations(range(m), size):
            for cols in itertools.combinations(range(n), size):
                g = math.gcd(g, _det([[mat[i][j] for j in cols] for i in rows]))
        if g == 0:
            break
        gcds.append(g)
    out = []
    prev = 1
    for g in gcds:
        out.append(g // prev)
        prev = g
    return out


# ------------------------------------------------------------ criteria

def test_criterion_01_toy_degrees():
    t0 = time.monotonic()
    inst = make_new_family(2, 1, parse_polynomial("s^2", XS),
                           parse_polynomial("y^2", XY))
    D = inst.derivation
    ctx = inst.ring.ctx
    s = inst.slice_elem
    problems = []
    got = (D.deg(ctx.var("x")), D.deg(ctx.var("y")), D.deg(ctx.var("z")),
           D.deg(s))
    if got != (0, 2, 4, 1):
        problems.append("degrees %s" % (got,))
    if not iterate(D, ctx.var("y"), 3).is_zero():
        problems.append("third iterate of y nonzero")
    if not iterate(D, ctx.var("z"), 5).is_zero():
        problems.append("fifth iterate of z nonzero")
    if iterate(D, ctx.var("z"), 4).is_zero():
        problems.append("fourth iterate of z already zero")
    if D.apply(s) != parse_polynomial("x^3", ctx):
        problems.append("slice image is not x^3")
    elapsed = time.monotonic() - t0
    if elapsed >= 1.0:
        problems.append("took %.2fs" % elapsed)
    _report(1, "toy degrees (0,2,4,1), iterate extinction, slice image x^3 "
            "(%.2fs)" % elapsed, not problems, problems)


def test_criterion_02_initial_ideal_and_primality():
    t0 = time.monotonic()
    inst = make_new_family(2, 1, parse_polynomial("s^2", XS),
                           parse_polynomial("y^2", XY))
    fs = inst.filtration
    jhat = fs.initial_ideal_hat()
    ext = fs.ext_ctx
    expected = Ideal(ext, [parse_polynomial("s^2 - x^2*y", ext),
                           parse_polynomial("y^2 - x*z", ext)])
    problems = []
    if not ideal_equal(jhat, expected):
        problems.append("initial ideal differs from the stated binomials")
    check = fs.properness_check()
    cert = check.certificate
    if check.status != "proper" or check.method != "binomial-prime":
        problems.append("properness %s via %s" % (check.status, check.method))
    if cert is None or cert.divisors != [1, 1]:
        problems.append("library divisors %s"
                        % (None if cert is None else cert.divisors))
    else:
        oracle = _smith_divisors_by_minors(cert.lattice_rows)
        if oracle != cert.divisors:
            problems.append("minor-gcd oracle %s disagrees" % (oracle,))
    elapsed = time.monotonic() - t0
    if elapsed >= 5.0:
        problems.append("took %.2fs" % elapsed)
    _report(2, "toy initial ideal equals the stated binomial pair; prime "
            "with elementary divisors [1, 1] confirmed by an independent "
            "minor-gcd Smith oracle (%.2fs)" % elapsed, not problems, problems)


def test_criterion_03_layer_membership(toy, dan2):
    dan3 = make_danielewski(3, parse_polynomial("y^3 + x*y", XY))
    problems = []
    total = 0
    for inst in (toy, dan2, dan3):
        rep = verify_layer_formulas(inst, max_degree=12)
        total += rep["probes"]
        if rep["mismatches"]:
            problems.append("%s: %d mismatches, first %s"
                            % (inst.family, len(rep["mismatches"]),
                               rep["mismatches"][0]))
    _report(3, "every monomial with oracle degree <= 12 sits in its stated "
            "layer and not the one below (%d probes, 3 instances)" % total,
            not problems, problems)


def test_criterion_04_graded_relations_and_properties(toy, dan2, kr2):
    problems = []
    for inst in (toy, dan2, kr2):
        graded = inst.filtration.graded_presentation()
        for rel in inst.expected_graded_relations():
            if not graded.ring.nf(rel).is_zero():
                problems.append("%s: %s does not vanish" % (inst.family, rel))
        report = gr_properties_report(inst.filtration, pairs=200)
        if report["counterexample"] is not None:
            problems.append("%s: counterexample %s"
                            % (inst.family, report["counterexample"]))
    _report(4, "closed-form graded relations reduce to 0 and gr properties "
            "P1-P4 hold on 200 random pairs per instance", not problems,
            problems)


def test_criterion_05_degree_axioms(toy, dan2, kr2):
    problems = []
    for inst, seed in ((toy, 101), (dan2, 102), (kr2, 103)):
        D = inst.derivation
        ring = inst.ring
        rng = random.Random(seed)
        checked = 0
        while checked < 200:
            a = random_polynomial(ring.ctx, rng, max_degree=2, max_terms=3)
            b = random_polynomial(ring.ctx, rng, max_degree=2, max_terms=3)
            if ring.nf(a).is_zero() or ring.nf(b).is_zero():
                continue
            checked += 1
            da, db = D.deg(a), D.deg(b)
            if D.deg(a * b) != da + db:
                problems.append("%s: deg(ab) != %s + %s for a=%s b=%s"
                                % (inst.family, da, db, a, b))
                break
            s = a + b
            if not ring.nf(s).is_zero() and D.deg(s) > max(da, db):
                problems.append("%s: deg(a+b) exceeds max for a=%s b=%s"
                                % (inst.family, a, b))
                break
    _report(5, "deg is additive on products and subadditive on sums for "
            "200 random pairs per instance", not problems, problems)


def test_criterion_06_bounded_search(dan2):
    t0 = time.monotonic()
    res = bounded_lnd_search(dan2, image_degree_bound=4, nilp_bound=20)
    problems = []
    if not res.candidates:
        problems.append("no locally nilpotent candidate found")
    others = [c for c in res.candidates
              if c.classification != "multiple-of-canonical"]
    if others:
        problems.append("%d survivors not of the form f(x) * canonical"
                        % len(others))
    ev = ml_evidence(dan2, res, degree_cap=6)
    if not ev["equal"]:
        problems.append("joint kernel differs from k[x]: extra %s missing %s"
                        % (ev["extra"], ev["missing"]))
    elapsed = time.monotonic() - t0
    if elapsed >= 60.0:
        problems.append("took %.2fs" % elapsed)
    _report(6, "all bounded-search survivors on x^2 z = y^2 are kernel "
            "multiples of the canonical derivation and their joint kernel "
            "matches k[x] up to degree 6 (%.1fs)" % elapsed, not problems,
            problems)


def _random_unit(rng):
    num = rng.choice([1, -1, 2, -2, 3, 5, -3])
    den = rng.choice([1, 1, 2, 3])
    return Fraction(num, den)


def _random_translation(rng):
    p = XONLY.zero()
    for i in range(3):
        p = p + XONLY.const(Fraction(rng.randint(-3, 3))) * XONLY.var("x") ** i
    return p


def test_criterion_07_automorphism_round_trips(toy, dan2):
    rng = random.Random(2024)
    problems = []
    for k in range(20):
        data = AutomorphismData(_random_unit(rng), _random_unit(rng),
                                _random_translation(rng))
        alpha = build_auto_danielewski(dan2, data)
        if not alpha.verify_inverse():
            problems.append("danielewski #%d inverse failed" % k)
            break
        rep = verify_degree_preservation(alpha, dan2.derivation, samples=20)
        if not rep["ok"]:
            problems.append("danielewski #%d degree drift %s"
                            % (k, rep["failures"][:1]))
            break
    for k in range(20):
        t = _random_unit(rng)
        # mu^(dm) = mu lam^(nm) here reads mu^3 = lam^4: take lam=t^3, mu=t^4
        data = AutomorphismData(t ** 3, t ** 4, _random_translation(rng))
        alpha = build_auto_newfamily(toy, data)
        if not alpha.verify_inverse():
            problems.append("new-family #%d inverse failed" % k)
            break
        rep = verify_degree_preservation(alpha, toy.derivation, samples=20)
        if not rep["ok"]:
            problems.append("new-family #%d degree drift %s"
                            % (k, rep["failures"][:1]))
            break
    _report(7, "20 random automorphisms per family formula verify with "
            "inverses and preserve degrees on 20 elements each",
            not problems, problems)


def test_criterion_08_isomorphism_decision():
    left = make_danielewski(2, parse_polynomial("y^2 + x", XY))
    right = make_danielewski(2, parse_polynomial("y^2 + 2*x", XY))
    plain = make_danielewski(2, parse_polynomial("y^2", XY))
    problems = []
    dec = iso_decide(left, right)
    if dec.verdict != "isomorphic":
        problems.append("expected isomorphic, got %s" % dec.verdict)
    elif not (dec.witness.check() and dec.witness.verify_inverse()):
        problems.append("witness failed composition checks")
    rev = iso_decide(right, left)
    if rev.verdict != "isomorphic" or rev.lam != 1 / dec.lam:
        problems.append("swap broke symmetry: %s lam=%s"
                        % (rev.verdict, rev.lam))
    neg = iso_decide(left, plain)
    if neg.verdict != "not-isomorphic":
        problems.append("expected not-isomorphic, got %s" % neg.verdict)
    neg_rev = iso_decide(plain, left)
    if neg_rev.verdict != "not-isomorphic":
        problems.append("negative verdict not symmetric")
    _report(8, "y^2+x ~ y^2+2x with a composition-verified witness; "
            "y^2+x !~ y^2; both decisions symmetric under swap",
            not problems, problems)


def test_criterion_09_conjugation_identity(dan2):
    alpha = build_auto_danielewski(
        dan2, AutomorphismData(3, 2, XONLY.one()))
    D = dan2.derivation
    conj = conjugate(D, alpha)
    ring = dan2.ring
    rng = random.Random(909)
    problems = []
    checked = 0
    while checked < 20:
        b = random_polynomial(ring.ctx, rng, max_degree=3, max_terms=3)
        if ring.nf(b).is_zero():
            continue
        checked += 1
        if conj.deg(b) != D.deg(alpha.apply(b)):
            problems.append("deg mismatch at b=%s" % b)
            break
    _report(9, "deg under the conjugated derivation equals deg of the "
            "image under the original on 20 random elements",
            not problems, problems)


def test_criterion_10_parser_and_selftest(capsys):
    rng = random.Random(31415)
    problems = []
    for k in range(500):
        p = random_polynomial(Context(("x", "y", "z")), rng,
                              max_degree=4, max_terms=5)
        if k % 3 == 0:
            p = p / Fraction(rng.choice([2, 3, 5, 7]))
        if parse_polynomial(str(p), p.ctx) != p:
            problems.append("round trip broke on %s" % p)
            break
    if not all(r["ok"] for r in run_selftest()):
        problems.append("selftest battery reports a failure")
    code = cli_main(["selftest"])
    capsys.readouterr()
    if code != 0:
        problems.append("selftest exit code %d" % code)
    _report(10, "500 parser round trips and a clean selftest exit",
            not problems, problems)
