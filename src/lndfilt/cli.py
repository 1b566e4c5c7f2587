"""Command line front end.

One-shot use passes a family inline:

    lndfilt deg --family new --n 2 --e 1 --P "s^2" --Q "y^2" --of "y*z"

Script use reads one command per line from a file or stdin, with the
current family persisting between lines:

    lndfilt script demo.txt

Exit codes: 0 success, 1 usage error, 2 parse error, 3 precondition
violation, 4 budget or iteration bound exhausted, 5 negative verdict
(not nilpotent, improper, invalid automorphism data, not isomorphic).
Each command, family construction included, draws every reduction step
from one --gb-budget; each script line gets its own.
Output is plain text, or stable sorted JSON under --json; rationals are
printed as p/q.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shlex
import sys
from fractions import Fraction

from . import families, morphisms
from .derivations import (BoundExceeded, Derivation, NonNilpotencyCertifier,
                          NotWellDefined, RingPresentation)
from .families import FAMILIES, bounded_lnd_search, make_danielewski
from .filtration import PreconditionError
from .ideals import Budget, BudgetExhausted, Ideal
from .morphisms import (AutomorphismData, MorphismError, iso_decide,
                        verify_degree_preservation)
from .parser import ParseError, parse_polynomial
from .poly import NEG_INF, Context, Polynomial
from .selftest import run_selftest

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_BUDGET = 4
EXIT_NEGATIVE = 5


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class Session:
    """State shared across script lines: the family instance in scope."""

    def __init__(self):
        self.instance = None


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, Polynomial):
        return str(obj)
    if isinstance(obj, float) and obj == NEG_INF:
        return "-inf"
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _emit(args, payload: dict, lines):
    if getattr(args, "json", False):
        print(json.dumps(_jsonable(payload), sort_keys=True))
    else:
        for ln in lines:
            print(ln)


def _deg_repr(d):
    return "-inf" if d == NEG_INF else int(d)


def _frac(text: str, what: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError("%s must be a rational like 3 or -4/9, got %r"
                         % (what, text)) from None


def _flags(names):
    return ", ".join("--" + nm for nm in names)


def _build_instance(args):
    spec = FAMILIES[args.family]
    takes = dict(spec.flags)
    missing = [nm for nm in takes if getattr(args, nm) is None]
    if missing:
        raise UsageError("family %r needs %s" % (args.family, _flags(missing)))
    foreign = [nm for nm in _FAMILY_FLAGS
               if nm not in takes and getattr(args, nm) is not None]
    if foreign:
        raise UsageError("family %r takes no %s" % (args.family, _flags(foreign)))
    values = [getattr(args, nm) if names is None else
              parse_polynomial(getattr(args, nm), Context(names), fold_case=True)
              for nm, names in spec.flags]
    return getattr(families, spec.build)(*values)


def _resolve_instance(session: Session, args):
    if getattr(args, "family", None):
        session.instance = _build_instance(args)
        return session.instance
    given = [nm for nm in _FAMILY_FLAGS if getattr(args, nm) is not None]
    if given:
        raise UsageError("%s given without --family" % _flags(given))
    if session.instance is not None:
        return session.instance
    raise UsageError("no family in scope; pass --family ... or run a "
                     "'family' command first")


# ----------------------------------------------------------- subcommands

def cmd_family(session, args):
    args.family = args.kind
    inst = _resolve_instance(session, args)
    desc = inst.describe()
    lines = ["family: %s" % desc["family"],
             "relation: %s = 0" % desc["relation"]]
    lines += ["derivation: %s -> %s" % (nm, im)
              for nm, im in desc["derivation"].items()]
    lines.append("degrees: %s" % ", ".join(
        "%s:%s" % (nm, d) for nm, d in desc["degrees"].items()))
    lines.append("kernel generators: %s" % ", ".join(desc["kernel_generators"]))
    lines.append("slice: %s  (plinth %s)" % (desc["slice"], desc["plinth_generator"]))
    _emit(args, desc, lines)
    return EXIT_OK


def cmd_deg(session, args):
    inst = _resolve_instance(session, args)
    p = parse_polynomial(args.of, inst.ring.ctx, fold_case=True)
    # without --nilp-bound, deg uses the a priori Leibniz bound
    d = inst.derivation.deg(p, args.nilp_bound)
    _emit(args, {"of": args.of, "deg": _deg_repr(d)},
          ["deg(%s) = %s" % (args.of, _deg_repr(d))])
    return EXIT_OK


def _custom_derivation(args):
    names = [nm.strip() for nm in args.ring.split(",") if nm.strip()]
    if not names:
        raise UsageError("--ring needs a comma separated variable list")
    ctx = Context(names)
    rels = []
    if args.relations:
        rels = [parse_polynomial(t, ctx) for t in args.relations.split(";") if t.strip()]
    images_txt = [t for t in args.images.split(";")]
    if len(images_txt) != len(names):
        raise UsageError("--images needs %d entries separated by ';'" % len(names))
    ring = RingPresentation(ctx, Ideal(ctx, rels))
    images = [parse_polynomial(t, ctx) for t in images_txt]
    return Derivation(ring, images, check=True)


def cmd_lnd_check(session, args):
    if args.ring or args.images:
        if not (args.ring and args.images):
            raise UsageError("custom mode needs both --ring and --images")
        given = [nm for nm in ("family", *_FAMILY_FLAGS)
                 if getattr(args, nm) is not None]
        if given:
            raise UsageError("custom mode (--ring, --images) takes no %s"
                             % _flags(given))
        try:
            D = _custom_derivation(args)
        except NotWellDefined as e:
            _emit(args, {"well_defined": False, "reason": str(e)},
                  ["not a derivation of the quotient: %s" % e])
            return EXIT_NEGATIVE
        refuted = NonNilpotencyCertifier(D.ring).certify(D)
        if refuted is not None:
            _emit(args, {"well_defined": True, "locally_nilpotent": False,
                         "certificate": refuted.data},
                  ["not locally nilpotent: %s" % refuted.text])
            return EXIT_NEGATIVE
    else:
        D = _resolve_instance(session, args).derivation
    cert = D.is_locally_nilpotent(bound=args.nilp_bound)
    if cert is None:
        _emit(args, {"well_defined": True, "locally_nilpotent": "unknown",
                     "bound": args.nilp_bound},
              ["no nilpotency certificate within bound %d" % args.nilp_bound])
        return EXIT_BUDGET
    orders = {nm: cert.orders[nm] for nm in sorted(cert.orders)}
    lines = ["well defined on the quotient: yes",
             "locally nilpotent: yes (orders %s)"
             % ", ".join("%s:%d" % kv for kv in orders.items())]
    _emit(args, {"well_defined": True, "locally_nilpotent": True,
                 "orders": orders}, lines)
    return EXIT_OK


def cmd_filtration(session, args):
    inst = _resolve_instance(session, args)
    fs = inst.filtration
    gens = fs.candidate_layers(args.r)
    by_weight: dict = {}
    checked = 0
    for g in gens:
        elem = fs.ring_element_of(g.monomial)
        if inst.derivation.deg(elem, args.nilp_bound) != g.weight:
            print("internal: oracle degree of %s differs from %d"
                  % (elem, g.weight), file=sys.stderr)
            return EXIT_NEGATIVE
        checked += 1
        by_weight.setdefault(g.weight, []).append(str(elem))
    lines = []
    for w in sorted(by_weight):
        lines.append("F_%d adds: %s" % (w, ", ".join(by_weight[w])))
    lines.append("oracle cross-checked %d generators" % checked)
    _emit(args, {"layers": {str(w): v for w, v in by_weight.items()},
                 "cross_checked": checked}, lines)
    return EXIT_OK


def cmd_gr(session, args):
    inst = _resolve_instance(session, args)
    fs = inst.filtration
    pr = fs.properness_check()
    payload = {"status": pr.status, "method": pr.method, "reason": pr.reason}
    if pr.status == "undecided":
        _emit(args, payload, ["properness undecided: %s" % pr.reason])
        return EXIT_BUDGET
    if pr.status == "improper":
        _emit(args, payload,
              ["filtration is not proper (%s): %s" % (pr.method, pr.reason)])
        return EXIT_NEGATIVE
    graded = fs.graded_presentation()
    desc = graded.describe()
    payload.update(desc)
    lines = ["filtration is proper (%s)" % pr.method]
    lines += ["graded variable %s has degree %s" % (v["name"], v["degree"])
              for v in desc["variables"]]
    lines += ["graded relation: %s" % g for g in desc["relations"]]
    try:
        ind, ind_deg = fs.induced_derivation(nilp_bound=args.nilp_bound)
        payload["induced_derivation"] = {
            nm: str(im) for nm, im in zip(fs.ext_ctx.names, ind.images)}
        payload["induced_degree"] = ind_deg
        lines.append("induced derivation (degree %s):" % ind_deg)
        lines += ["  %s -> %s" % (nm, im)
                  for nm, im in payload["induced_derivation"].items()]
    except PreconditionError as e:
        payload["induced_derivation"] = None
        lines.append("no induced derivation: %s" % e)
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_search(session, args):
    inst = _resolve_instance(session, args)
    res = bounded_lnd_search(inst, image_degree_bound=args.degree_bound,
                             nilp_bound=args.nilp_bound)
    cands = [{"images": {nm: str(c.derivation.image_of(nm))
                         for nm in inst.ring.ctx.names},
              "classification": c.classification,
              "factor": None if c.factor is None else str(c.factor),
              "source": c.source}
             for c in res.candidates]
    payload = {"solution_dimension": res.solution_dimension,
               "candidates": cands, "rejected": res.rejected,
               "trivial": res.trivial, "notes": res.notes}
    lines = ["solution space dimension: %d" % res.solution_dimension,
             "locally nilpotent candidates: %d (rejected %d, trivial %d)"
             % (len(cands), res.rejected, res.trivial)]
    for c in cands:
        im = ", ".join("%s->%s" % kv for kv in c["images"].items())
        extra = "" if c["factor"] is None else " with factor %s" % c["factor"]
        lines.append("  [%s%s] %s" % (c["classification"], extra, im))
    lines += ["note: %s" % n for n in res.notes]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_auto(session, args):
    inst = _resolve_instance(session, args)
    a = parse_polynomial(args.a, Context(["x"]), fold_case=True)
    data = AutomorphismData(_frac(args.lam, "--lam"), _frac(args.mu, "--mu"), a)
    if inst.spec.auto is None:
        raise PreconditionError("no automorphism family for %s" % inst.family)
    try:
        alpha = getattr(morphisms, inst.spec.auto)(inst, data)
    except MorphismError as e:
        _emit(args, {"valid": False, "reason": str(e)},
              ["data does not define an automorphism: %s" % e])
        return EXIT_NEGATIVE
    images = {nm: str(alpha.image_of(nm)) for nm in inst.ring.ctx.names}
    rep = verify_degree_preservation(alpha, inst.derivation, samples=10,
                                     bound=args.nilp_bound)
    payload = {"valid": True, "images": images,
               "inverse_verified": alpha.verify_inverse(),
               "degree_preserved": rep["ok"]}
    lines = ["automorphism verified; inverse composes to the identity"]
    lines += ["  %s -> %s" % (nm, im) for nm, im in images.items()]
    lines.append("degree preserved on %d samples" % rep["samples"])
    _emit(args, payload, lines)
    return EXIT_OK if rep["ok"] else EXIT_NEGATIVE


def cmd_iso(session, args):
    n2 = args.n2 if args.n2 is not None else args.n
    ctx = Context(["x", "y"])
    b1 = make_danielewski(args.n, parse_polynomial(args.P1, ctx, fold_case=True))
    b2 = make_danielewski(n2, parse_polynomial(args.P2, ctx, fold_case=True))
    dec = iso_decide(b1, b2)
    payload = {"verdict": dec.verdict, "reason": dec.reason,
               "conditions": dec.conditions}
    lines = ["verdict: %s" % dec.verdict]
    if dec.verdict == "isomorphic":
        payload["lambda"] = dec.lam
        payload["mu"] = dec.mu
        payload["witness"] = {nm: str(dec.witness.image_of(nm))
                              for nm in b1.ring.ctx.names}
        lines.append("scaling: lambda = %s, mu = %s" % (dec.lam, dec.mu))
        lines += ["  %s -> %s" % (nm, im)
                  for nm, im in payload["witness"].items()]
        lines.append("witness verified (relation preserved, inverse checked)")
    elif dec.verdict == "not-over-rationals":
        lines.append("isomorphic only if the field gains: %s"
                     % "; ".join(dec.conditions))
    else:
        lines.append("reason: %s" % dec.reason)
    _emit(args, payload, lines)
    return EXIT_OK if dec.verdict == "isomorphic" else EXIT_NEGATIVE


def cmd_selftest(session, args):
    results = run_selftest()
    lines = []
    for r in results:
        mark = "ok  " if r["ok"] else "FAIL"
        suffix = "" if r["ok"] else " - %s" % r["detail"]
        lines.append("%s %s%s" % (mark, r["name"], suffix))
    bad = [r for r in results if not r["ok"]]
    lines.append("%d/%d checks passed" % (len(results) - len(bad), len(results)))
    _emit(args, {"results": results, "ok": not bad}, lines)
    return EXIT_OK if not bad else EXIT_NEGATIVE


def cmd_script(session, args, parser):
    if args.path in (None, "-"):
        stream = sys.stdin
        close = False
    else:
        try:
            stream = open(args.path, "r", encoding="utf-8")
        except OSError as e:
            raise UsageError("cannot read script: %s" % e) from None
        close = True
    try:
        for lineno, raw in enumerate(stream, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = shlex.split(line)
            if tokens[0] == "script":
                raise UsageError("line %d: script cannot nest" % lineno)
            sub = parser.parse_args(tokens)
            code = _dispatch(session, sub, parser)
            if code != EXIT_OK:
                print("script stopped at line %d (exit %d)" % (lineno, code),
                      file=sys.stderr)
                return code
        return EXIT_OK
    finally:
        if close:
            stream.close()


# ----------------------------------------------------------- wiring

def _limit(text: str) -> int:
    """A resource limit: a count, so never negative."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0, got %d" % value)
    return value


def _add_common(sub, nilp_bound=64):
    sub.add_argument("--json", action="store_true",
                     help="machine readable output with sorted keys")
    sub.add_argument("--nilp-bound", type=_limit, default=nilp_bound,
                     help="iteration bound for nilpotency and degrees")
    sub.add_argument("--gb-budget", type=_limit, default=1000000,
                     help="reduction steps allowed for the whole command")


# every flag some family takes, in the order --help lists them
_FAMILY_FLAGS = {"n": int, "e": int, "l": int, "P": str, "Q": str}


def _add_family_flags(sub, with_family=True):
    if with_family:
        sub.add_argument("--family", choices=list(FAMILIES))
    for nm, kind in _FAMILY_FLAGS.items():
        sub.add_argument("--" + nm, type=kind)


def build_parser() -> _Parser:
    parser = _Parser(prog="lndfilt",
                     description="filtrations from locally nilpotent derivations")
    subs = parser.add_subparsers(dest="cmd", required=True)

    p = subs.add_parser("family", help="instantiate a hypersurface family")
    p.add_argument("kind", choices=list(FAMILIES))
    _add_family_flags(p, with_family=False)
    _add_common(p)
    p.set_defaults(func=cmd_family)

    p = subs.add_parser("deg", help="degree of an element under the derivation")
    p.add_argument("--of", required=True, help="polynomial in the ring variables")
    _add_family_flags(p)
    _add_common(p, nilp_bound=None)
    p.set_defaults(func=cmd_deg)

    p = subs.add_parser("lnd-check", help="well-definedness and nilpotency")
    p.add_argument("--ring", help="comma separated variables for a custom ring")
    p.add_argument("--relations", default="",
                   help="semicolon separated defining relations")
    p.add_argument("--images", help="semicolon separated images, one per variable")
    _add_family_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_lnd_check)

    p = subs.add_parser("filtration", help="filtration layers with oracle check")
    p.add_argument("--r", type=int, default=4, help="top layer index")
    _add_family_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_filtration)

    p = subs.add_parser("gr", help="properness and the graded presentation")
    _add_family_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_gr)

    p = subs.add_parser("search", help="bounded search for derivations")
    p.add_argument("--degree-bound", type=int, default=12,
                   help="degree bound on the searched images")
    _add_family_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_search)

    p = subs.add_parser("auto", help="build and verify an automorphism")
    p.add_argument("--lam", required=True, help="rational unit scaling x")
    p.add_argument("--mu", required=True, help="rational unit scaling the slice")
    p.add_argument("--a", default="0", help="polynomial in x for the translation")
    _add_family_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_auto)

    p = subs.add_parser("iso", help="decide isomorphism of two x^n z = P rings")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--n2", type=int, help="x-exponent of the second ring if different")
    p.add_argument("--P1", required=True)
    p.add_argument("--P2", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_iso)

    p = subs.add_parser("selftest", help="run the built-in sanity battery")
    _add_common(p)
    p.set_defaults(func=cmd_selftest)

    p = subs.add_parser("script", help="run commands line by line from a file")
    p.add_argument("path", nargs="?", help="script path, or - for stdin")
    _add_common(p)
    p.set_defaults(func=cmd_script)

    return parser


def _dispatch(session: Session, args, parser) -> int:
    try:
        with Budget(args.gb_budget):
            if args.func is cmd_script:
                return cmd_script(session, args, parser)
            return args.func(session, args)
    except UsageError as e:
        print("usage error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    except ParseError as e:
        print("parse error: %s" % e, file=sys.stderr)
        return EXIT_PARSE
    except PreconditionError as e:
        print("precondition violated: %s" % e, file=sys.stderr)
        return EXIT_PRECONDITION
    except (BudgetExhausted, BoundExceeded) as e:
        print("budget exhausted: %s" % e, file=sys.stderr)
        return EXIT_BUDGET
    except NotWellDefined as e:
        print("not well defined: %s" % e, file=sys.stderr)
        return EXIT_NEGATIVE
    except MorphismError as e:
        print("morphism check failed: %s" % e, file=sys.stderr)
        return EXIT_NEGATIVE
    except ValueError as e:
        print("invalid input: %s" % e, file=sys.stderr)
        return EXIT_USAGE


@functools.cache
def _parser() -> _Parser:
    """The parser of this process, built on first use; parsing leaves it
    unchanged, so every `main` call can share it."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print("usage error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    return _dispatch(Session(), args, parser)


def entry():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left (`| head`); send the exit-time flush to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_USAGE
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
