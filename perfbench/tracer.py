"""Outside-in tracer: spans around lndfilt's public functions.

The wrappers are installed by the benchmark, not by lndfilt.  Each listed
function is replaced in its own module and in every lndfilt module that
imported it by name (`families.nullspace` is a binding separate from
`linalg.nullspace`), and each listed method on its class.  A missing name
stops the benchmark: a rename in lndfilt must not silently zero a layer.

One span per wrapped call holds the span name, start, end, parent span and
op id, kept in flat arrays in memory and written out when the run ends.
A span's self time is its duration minus the time its direct child spans
cover.  Inclusive time (`.s`) counts only the outermost span of a name, so
recursion is not counted twice.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter

# span name -> (module, attribute paths); all paths of one name share it
SPANS = {
    "ideals.buchberger": ("lndfilt.ideals", ["buchberger"]),
    "ideals.groebner": ("lndfilt.ideals", ["Ideal.groebner"]),
    "ideals.nf_against": ("lndfilt.ideals", ["nf_against"]),
    # separates autoreduction from S-pair reductions inside buchberger
    "ideals.autoreduce": ("lndfilt.ideals", ["_autoreduce"]),
    "poly.mul": ("lndfilt.poly", ["Polynomial.__mul__", "Polynomial.__rmul__"]),
    "poly.subs": ("lndfilt.poly", ["Polynomial.subs"]),
    "derivations.apply": ("lndfilt.derivations", ["Derivation.apply"]),
    "derivations.ring_nf": ("lndfilt.derivations", ["RingPresentation.nf"]),
    "derivations.deg": ("lndfilt.derivations", ["Derivation.deg"]),
    "derivations.nilpotency": ("lndfilt.derivations",
                               ["Derivation.is_locally_nilpotent"]),
    "families.build": ("lndfilt.families", ["make_danielewski",
                                            "make_koras_russell2",
                                            "make_new_family"]),
    "families.search": ("lndfilt.families", ["bounded_lnd_search"]),
    "filtration.properness": ("lndfilt.filtration",
                              ["FiltrationSpec.properness_check"]),
    "filtration.graded": ("lndfilt.filtration",
                          ["FiltrationSpec.graded_presentation"]),
    "filtration.induced": ("lndfilt.filtration",
                           ["FiltrationSpec.induced_derivation"]),
    "filtration.layers": ("lndfilt.filtration",
                          ["FiltrationSpec.candidate_layers"]),
    "filtration.omega_b": ("lndfilt.filtration", ["FiltrationSpec.omega_b"]),
    "linalg.nullspace": ("lndfilt.linalg", ["nullspace"]),
    # smith_normal_form goes through smith_with_transforms
    "linalg.smith": ("lndfilt.linalg", ["smith_with_transforms"]),
    "linalg.solve_combination": ("lndfilt.linalg", ["solve_combination"]),
    "morphisms.build_auto": ("lndfilt.morphisms", ["build_auto_danielewski",
                                                   "build_auto_newfamily"]),
    "morphisms.verify_inverse": ("lndfilt.morphisms",
                                 ["RingMorphism.verify_inverse"]),
    "morphisms.compose": ("lndfilt.morphisms", ["RingMorphism.compose"]),
    "morphisms.apply": ("lndfilt.morphisms", ["RingMorphism.apply"]),
    "morphisms.degree_check": ("lndfilt.morphisms",
                               ["verify_degree_preservation"]),
    "morphisms.iso_decide": ("lndfilt.morphisms", ["iso_decide"]),
    "parser.parse_polynomial": ("lndfilt.parser", ["parse_polynomial"]),
    "cli": ("lndfilt.cli", ["main"]),
}

# per-span statistics a metric `<span name>.<statistic>` can name
SPAN_STATS = ("calls", "s", "self_s")


class TraceError(RuntimeError):
    """A listed name is missing, or a predicted layer reads zero."""


def _resolve(obj, path):
    for part in path.split("."):
        try:
            obj = obj.__dict__[part] if isinstance(obj, type) else getattr(obj, part)
        except (KeyError, AttributeError):
            raise TraceError("traced name %s is missing" % path) from None
    return obj


class Tracer:
    """Installs the wrappers and records spans while enabled."""

    def __init__(self):
        self.names: list = []
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.nested = array("b")
        self.stack: list = []
        self.depth: list = []
        self.op_id = -1
        self.reductions = 0
        self.terms_peak = 0
        self.spair_calls = 0
        self.spair_zero = 0
        self.search_candidates = 0
        self.search_rejected = 0
        self._undo: list = []

    # ------------------------------------------------ installation

    def install(self):
        """Patch every listed function and method; raise on a missing name."""
        try:
            self._install()
        except TraceError:
            self.uninstall()
            raise

    def _install(self):
        lnd_modules = [m for nm, m in sys.modules.items()
                       if nm == "lndfilt" or nm.startswith("lndfilt.")]
        for span, (modname, paths) in SPANS.items():
            if modname not in sys.modules:
                raise TraceError("module %s is not imported" % modname)
            module = sys.modules[modname]
            nid = len(self.names)
            self.names.append(span)
            self.depth.append(0)
            for path in paths:
                original = _resolve(module, path)
                wrapper = self._wrap(nid, original, _RESULT_HOOKS.get(span))
                if "." in path:
                    owner_path, attr = path.rsplit(".", 1)
                    self._patch(_resolve(module, owner_path), attr, wrapper)
                    continue
                for mod in lnd_modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)
        budget = _resolve(sys.modules["lndfilt.ideals"], "Budget")
        self._patch(budget, "step", self._count_steps(_resolve(budget, "step")))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _count_steps(self, step):
        def counted(budget):
            self.reductions += 1
            return step(budget)
        return counted

    def _wrap(self, nid, fn, hook):
        stack, depth = self.stack, self.depth
        names, start, end = self.span_name, self.start, self.end
        parent, op, nested = self.parent, self.op, self.nested

        def traced(*args, **kwargs):
            idx = len(start)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            nested.append(depth[nid] > 0)
            end.append(0.0)
            stack.append(idx)
            depth[nid] += 1
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                depth[nid] -= 1
                stack.pop()
            if hook is not None:
                hook(self, idx, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------ results

    def metrics(self, names):
        """The named per-layer metrics over every span recorded so far.

        A name is `<span name>.<statistic>` with a statistic of SPAN_STATS,
        or one of the counters below; any other name raises TraceError.
        """
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        stats = {nm: {"calls": 0, "s": 0.0, "self_s": 0.0} for nm in self.names}
        for i in range(n):
            st = stats[self.names[self.span_name[i]]]
            dur = self.end[i] - self.start[i]
            st["calls"] += 1
            st["self_s"] += dur - child[i]
            if not self.nested[i]:
                st["s"] += dur
        groebner = stats["ideals.groebner"]["calls"]
        considered = self.search_candidates + self.search_rejected
        counters = {
            "ideals.spair_zero_ratio": _ratio(self.spair_zero, self.spair_calls),
            "ideals.groebner.cache_hit_ratio": _ratio(
                groebner - stats["ideals.buchberger"]["calls"], groebner),
            "ideals.reductions": self.reductions,
            "poly.terms_peak": self.terms_peak,
            "families.search.rejected": self.search_rejected,
            "families.search.accept_ratio": _ratio(self.search_candidates,
                                                   considered),
        }
        out = {}
        for name in names:
            span, _, stat = name.rpartition(".")
            if name in counters:
                out[name] = counters[name]
            elif span in stats and stat in SPAN_STATS:
                out[name] = stats[span][stat]
            else:
                raise TraceError("no span or counter gives metric %s" % name)
        return out

    def write_spans(self, path):
        """One line per span: op, name, start, end, parent (gzip TSV)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op\tname\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                fh.write("%d\t%s\t%.9f\t%.9f\t%d\n" % (
                    self.op[i], self.names[self.span_name[i]], self.start[i],
                    self.end[i], self.parent[i]))


def _ratio(num, den):
    return num / den if den else 0.0


def _nf_hook(tracer, idx, result):
    p = tracer.parent[idx]
    if p >= 0 and tracer.names[tracer.span_name[p]] == "ideals.buchberger":
        tracer.spair_calls += 1
        if not result.terms:
            tracer.spair_zero += 1


def _terms_hook(tracer, idx, result):
    if len(result.terms) > tracer.terms_peak:
        tracer.terms_peak = len(result.terms)


def _search_hook(tracer, idx, result):
    tracer.search_candidates += len(result.candidates)
    tracer.search_rejected += result.rejected


_RESULT_HOOKS = {
    "ideals.nf_against": _nf_hook,
    "poly.mul": _terms_hook,
    "poly.subs": _terms_hook,
    "families.search": _search_hook,
}


# Layer metrics the predictions say a workload exercises; a zero here means
# the layer was renamed or bypassed, and the traced run fails.
EXPECT_NONZERO = {
    "graded": [
        "ideals.buchberger.calls", "ideals.buchberger.self_s",
        "ideals.spair_zero_ratio", "ideals.groebner.cache_hit_ratio",
        "ideals.nf_against.calls", "ideals.reductions",
        "families.build.calls", "families.build.s",
        "filtration.properness.s", "filtration.graded.s",
        "filtration.induced.s", "filtration.layers.s",
        "filtration.omega_b.calls", "linalg.smith.calls",
        "derivations.deg.calls", "parser.parse_polynomial.calls",
        "cli.self_s",
    ],
    "degree": [
        "ideals.nf_against.calls", "ideals.nf_against.self_s",
        "ideals.reductions", "poly.mul.calls", "poly.terms_peak",
        "derivations.apply.calls", "derivations.apply.self_s",
        "derivations.ring_nf.calls", "derivations.deg.calls",
        "derivations.deg.s", "families.build.calls", "families.build.s",
        "parser.parse_polynomial.calls", "cli.self_s",
    ],
    "search": [
        "ideals.nf_against.calls", "ideals.nf_against.self_s",
        "ideals.reductions", "derivations.apply.calls",
        "derivations.nilpotency.calls", "derivations.nilpotency.s",
        "families.search.s", "families.search.rejected",
        "families.search.accept_ratio", "linalg.nullspace.calls",
        "linalg.nullspace.s", "parser.parse_polynomial.calls",
        "cli.self_s",
    ],
    "morph": [
        "poly.mul.calls", "poly.mul.self_s", "poly.subs.calls",
        "poly.subs.s", "poly.subs.self_s", "poly.terms_peak",
        "morphisms.build_auto.s", "morphisms.verify_inverse.calls",
        "morphisms.verify_inverse.s", "morphisms.compose.calls",
        "morphisms.apply.calls", "morphisms.degree_check.s",
        "morphisms.iso_decide.s", "linalg.smith.calls",
        "parser.parse_polynomial.calls", "cli.self_s",
    ],
}


def check_predictions(workload, metrics):
    zero = [m for m in EXPECT_NONZERO[workload] if not metrics[m]]
    if zero:
        raise TraceError("layers predicted to work on %s read zero: %s"
                         % (workload, ", ".join(zero)))
