"""The benchmark's own checks: wrong answers are caught, names are guarded."""

from __future__ import annotations

import copy
import io
import json
import sys
from contextlib import redirect_stdout

import pytest

import reference
import run
import tracer
import workloads


@pytest.fixture
def keep_modules():
    """run.main re-imports lndfilt; give other tests their modules back."""
    saved = {k: v for k, v in sys.modules.items()
             if k == "lndfilt" or k.startswith("lndfilt.")}
    yield
    for k in [k for k in sys.modules if k == "lndfilt" or k.startswith("lndfilt.")]:
        del sys.modules[k]
    sys.modules.update(saved)


def answer(op):
    from lndfilt.cli import main
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(op["argv"])
    return code, json.loads(buf.getvalue())


def ops_of(kind, workload):
    return [op for op in workloads.generate(workload, 1) if op["kind"] == kind]


def assert_caught(op, code, out, corrupt):
    assert reference.check(op, code, out) is None
    bad = copy.deepcopy(out)
    corrupt(bad)
    assert reference.check(op, code, bad) is not None


def test_inputs_follow_the_seed():
    a, b = workloads.generate("morph", 1), workloads.generate("morph", 1)
    assert workloads.digest(a) == workloads.digest(b)
    assert workloads.digest(a) != workloads.digest(workloads.generate("morph", 2))


def test_corrupted_gr_and_filtration_are_caught():
    gr = ops_of("gr", "graded")[0]
    code, out = answer(gr)
    assert_caught(gr, code, out, lambda o: o["relations"].__setitem__(
        0, o["relations"][0] + " + x"))
    assert_caught(gr, code, out, lambda o: o["variables"][1].__setitem__("degree", 7))
    assert_caught(gr, code, out, lambda o: o.__setitem__("status", "improper"))
    filt = ops_of("filtration", "graded")[0]
    code, out = answer(filt)
    assert_caught(filt, code, out, lambda o: o["layers"]["2"].__setitem__(0, "y"))
    assert_caught(filt, code, out, lambda o: o.__setitem__("cross_checked", 1))


def test_corrupted_deg_is_caught():
    op = ops_of("deg", "degree")[0]
    code, out = answer(op)
    assert_caught(op, code, out, lambda o: o.__setitem__("deg", o["deg"] + 1))


def test_corrupted_morphisms_are_caught():
    auto = ops_of("auto", "morph")[0]
    code, out = answer(auto)
    assert_caught(auto, code, out, lambda o: o["images"].__setitem__(
        "z", o["images"]["z"] + " + y"))
    assert_caught(auto, code, out, lambda o: o.__setitem__("inverse_verified", False))
    iso = [op for op in ops_of("iso", "morph") if op["isomorphic"]][0]
    code, out = answer(iso)
    assert_caught(iso, code, out, lambda o: o.__setitem__("mu", "7"))
    assert_caught(iso, code, out, lambda o: o["witness"].__setitem__(
        "z", o["witness"]["z"] + " + x"))
    non = [op for op in ops_of("iso", "morph") if not op["isomorphic"]][0]
    code, out = answer(non)
    assert reference.check(non, code, out) is None
    assert reference.check(non, 0, dict(out, verdict="isomorphic")) is not None


def test_search_candidate_must_be_a_canonical_multiple():
    data = reference.family_data(
        {"family": "danielewski", "n": 2, "P": reference.Poly.parse(("x", "y"), "y^2")})
    ref = {"kind": "search", "data": data, "canonical_in_bound": True}
    good = {"candidates": [{"classification": "multiple-of-canonical",
                            "factor": "1", "images": {"x": "0", "y": "x^2", "z": "2*y"}}]}
    assert reference.check(ref, 0, good) is None
    wrong = copy.deepcopy(good)
    wrong["candidates"][0]["images"]["z"] = "3*y"
    assert reference.check(ref, 0, wrong) is not None
    assert reference.check(ref, 0, {"candidates": []}) is not None


def test_malformed_output_is_one_failed_op():
    gr = ops_of("gr", "graded")[0]
    code, out = answer(gr)
    empty_factor = dict(out, relations=["x*"] + out["relations"][1:])
    deg = ops_of("deg", "degree")[0]
    iso = [op for op in ops_of("iso", "morph") if op["isomorphic"]][0]
    code_iso, out_iso = answer(iso)
    ops = [gr, deg, iso]
    results = [(0, 0.0, code, json.dumps(empty_factor), ""),  # IndexError
               (1, 0.0, 0, "[1, 2]", ""),                       # AttributeError
               (2, 0.0, code_iso, json.dumps(dict(out_iso, mu="1/0")), ""),
               (0, 0.0, code, json.dumps(out), "")]
    reasons = run.check_results(ops, results)
    assert [why is None for why in reasons] == [False, False, False, True]
    assert "IndexError" in reasons[0] and "ZeroDivisionError" in reasons[2]


def test_every_listed_metric_is_computed(keep_modules):
    run.fresh_import()
    tr = tracer.Tracer()
    tr.install()
    tr.uninstall()
    names = [m for m in run.PER_LAYER if m != run.OVERHEAD]
    assert sorted(tr.metrics(names)) == sorted(names)
    with pytest.raises(tracer.TraceError, match="ideals.renamed.calls"):
        tr.metrics(names + ["ideals.renamed.calls"])
    predicted = {m for ms in tracer.EXPECT_NONZERO.values() for m in ms}
    assert predicted <= set(names)


def test_wrong_answer_fails_the_run(keep_modules, monkeypatch, tmp_path):
    fresh = run.fresh_import

    def corrupted():
        cli = fresh()
        monkeypatch.setattr(cli, "_deg_repr", lambda d: int(d) + 1)
        return cli

    monkeypatch.setattr(run, "fresh_import", corrupted)
    monkeypatch.setattr(run, "OUT", tmp_path)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(["--workload", "degree", "--seed", "1",
                         "--seconds", "0.1", "--trace", "0"])
    result = json.loads(buf.getvalue().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= run.MIN_OPS


def test_missing_traced_name_fails(keep_modules, monkeypatch):
    run.fresh_import()
    monkeypatch.setitem(tracer.SPANS, "ideals.renamed",
                        ("lndfilt.ideals", ["no_such_function"]))
    with pytest.raises(tracer.TraceError, match="no_such_function"):
        tracer.Tracer().install()


def test_zero_predicted_layer_fails():
    metrics = {m: 1 for names in tracer.EXPECT_NONZERO.values() for m in names}
    tracer.check_predictions("search", metrics)
    metrics["derivations.nilpotency.s"] = 0.0
    with pytest.raises(tracer.TraceError, match="nilpotency"):
        tracer.check_predictions("search", metrics)
