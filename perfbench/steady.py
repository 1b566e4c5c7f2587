"""Steadiness evidence and result comparison for the benchmark.

    python3 perfbench/steady.py sets
    python3 perfbench/steady.py compare A.json B.json

`sets` runs every workload of BENCHMARK.json RUNS times, for its
run_seconds, in each of two independent sets of seeds (1..RUNS and
101..100+RUNS), one process per run, and reports per
end-to-end metric the spread of each set (interquartile range over the
median, as statistics.quantiles gives the quartiles) and how far the
second set's median moved from the first.  It then runs the traced run
twice on one seed per workload and checks that every count metric
repeats exactly.  The summary goes to perfbench/evidence/steadiness.json.

`compare` puts two result records from perfbench/out/ side by side, and
refuses unless both ran the same inputs (same workload, seed and digest
of the command lines).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
RUNS = 10


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit("%s failed (exit %d):\n%s" % (
            " ".join(cmd), proc.returncode, proc.stderr[-2000:]))
    result = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads((HERE / "out" / ("%s-seed%d-trace%d.json" % (
        workload, seed, trace))).read_text())
    return result, record


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def cmd_sets(args):
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    seconds = SPEC["run_seconds"]
    summary = {"runs": RUNS, "seconds": seconds, "workloads": {}}
    for workload in [w["name"] for w in SPEC["workloads"]]:
        sets = []
        for base in (0, 100):
            values = {m: [] for m in END_TO_END}
            for seed in range(base + 1, base + RUNS + 1):
                result, _ = run_once(workload, seed, seconds, 0)
                if not result["correct"]:
                    raise SystemExit("%s seed %d: wrong answers" % (workload, seed))
                for m in END_TO_END:
                    values[m].append(result["metrics"][m]["value"])
                print(workload, seed, {m: round(v[-1], 5) for m, v in values.items()},
                      flush=True)
            sets.append({m: spread(v) | {"values": v} for m, v in values.items()})
        rows = {}
        for m in END_TO_END:
            a, b = sets[0][m]["median"], sets[1][m]["median"]
            rows[m] = {"bound": bounds[m], "set1": sets[0][m], "set2": sets[1][m],
                       "median_shift": (b - a) / a}
        r1, rec1 = run_once(workload, 1, seconds, 1)
        r2, rec2 = run_once(workload, 1, seconds, 1)
        counts = [m for m, v in r1["metrics"].items() if v["unit"] == "count"]
        differ = [m for m in counts
                  if r1["metrics"][m]["value"] != r2["metrics"][m]["value"]]
        if rec1["identity"]["inputs_digest"] != rec2["identity"]["inputs_digest"]:
            raise SystemExit("traced runs of one seed saw different inputs")
        summary["workloads"][workload] = {
            "end_to_end": rows,
            "trace": {"count_metrics": len(counts), "counts_differ": differ,
                      "overhead_ratio": [r["metrics"]["trace.overhead_ratio"]["value"]
                                         for r in (r1, r2)]}}
        print(table(workload, rows), flush=True)
        print("  trace: %d count metrics, differing between two runs: %s"
              % (len(counts), differ or "none"), flush=True)
    out = HERE / "evidence" / "steadiness.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")


def table(workload, rows):
    lines = ["%s: metric, bound, spread set 1, spread set 2, median shift" % workload]
    for m, r in rows.items():
        lines.append("  %-12s %.2f  %.3f  %.3f  %+.3f" % (
            m, r["bound"], r["set1"]["spread"], r["set2"]["spread"], r["median_shift"]))
    return "\n".join(lines)


def cmd_compare(args):
    a, b = (json.loads(Path(p).read_text()) for p in (args.a, args.b))
    keys = ("workload", "seed", "inputs_digest")
    ia, ib = a["identity"], b["identity"]
    if any(ia[k] != ib[k] for k in keys):
        raise SystemExit("different inputs, not comparable: %s vs %s" % (
            [ia[k] for k in keys], [ib[k] for k in keys]))
    for m in sorted(a["metrics"]):
        va, vb = a["metrics"][m], b["metrics"][m]
        ratio = "" if not va else "  x%.3f" % (vb / va)
        print("%-34s %14.6g %14.6g%s" % (m, va, vb, ratio))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("sets")
    p.set_defaults(func=cmd_sets)
    p = sub.add_parser("compare")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_compare)
    args = ap.parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main()
