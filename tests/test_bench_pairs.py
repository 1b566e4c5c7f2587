"""The summary step of tools/bench_pairs.py, on canned run records."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

BENCH_PAIRS_PY = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
SPEC = {"end_to_end": [
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
    {"name": "op_p50_s", "better": "lower", "bound": 0.25},
], "per_layer": [
    {"name": "ideals.reductions", "unit": "count", "better": "lower"},
    {"name": "derivations.apply.calls", "unit": "count", "better": "lower"},
    {"name": "derivations.apply.self_s", "unit": "s", "better": "lower"},
    {"name": "families.search.accept_ratio", "unit": "ratio",
     "better": "higher"},
]}


def load():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS_PY)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def record(pair, side, ops, p50, failed=0):
    return {"workload": "search", "pair": pair, "side": side, "attempted": 40,
            "failed": failed, "metrics": {"ops_per_s": ops, "op_p50_s": p50}}


def test_summarise_canned_records():
    records = [
        record(0, "parent", 1.0, 0.50), record(0, "change", 3.0, 0.20),
        record(1, "change", 2.0, 0.60), record(1, "parent", 2.0, 0.40),
        record(2, "parent", 1.5, 0.45), record(2, "change", 4.0, 0.10, failed=1),
    ]
    out = load().summarise(records, SPEC)["search"]
    assert out["pairs"] == 3
    assert out["failed_ops"] == {"parent": [0, 0, 0], "change": [0, 0, 1]}
    ops = out["metrics"]["ops_per_s"]
    # quartiles as perfbench/steady.py computes them (exclusive method)
    assert ops["parent"] == {"median": 1.5, "q1": 1.0, "q3": 2.0,
                             "spread": pytest.approx(2 / 3)}
    assert ops["change"] == {"median": 3.0, "q1": 2.0, "q3": 4.0,
                             "spread": pytest.approx(2 / 3)}
    assert ops["ratio"] == 2.0
    assert ops["pairs_won"] == 2  # a tie in pair 1 is not a win
    assert ops["values"]["change"] == [3.0, 2.0, 4.0]
    p50 = out["metrics"]["op_p50_s"]
    assert p50["pairs_won"] == 2  # lower is better here
    assert p50["change"]["median"] == pytest.approx(0.20)
    assert (p50["better"], p50["bound"]) == ("lower", 0.25)


def test_traced_counts_lists_every_count_and_flags_differences():
    metrics = {
        "parent": {"ideals.reductions": 13385, "derivations.apply.calls": 1319,
                   "derivations.apply.self_s": 0.5,
                   "families.search.accept_ratio": 0.2},
        "change": {"ideals.reductions": 13385, "derivations.apply.calls": 37,
                   "derivations.apply.self_s": 0.1,
                   "families.search.accept_ratio": 0.2},
    }
    out = load().traced_counts(metrics, SPEC)
    # only the metrics whose unit is "count"
    assert out["counts"] == {
        "ideals.reductions": {"parent": 13385, "change": 13385},
        "derivations.apply.calls": {"parent": 1319, "change": 37},
    }
    assert out["differ"] == ["derivations.apply.calls"]
