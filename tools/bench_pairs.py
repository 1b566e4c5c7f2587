"""Alternating parent/change benchmark pairs, summarised into BENCH_<pr>.json.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workloads search graded degree morph --seed 1 --out BENCH_8.json

Each checkout is a directory holding `perfbench/run.py` and its own
`src/`.  For every workload the script runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

once per side and pair (ten pairs unless --pairs says otherwise), in that
side's directory, T being the `run_seconds` of the change checkout's
BENCHMARK.json, and after the pairs one `--trace 1` run per side; a run
that exits nonzero stops the script.  Right before each run a child
process times a fixed calibration loop (`CALIBRATION`: powers and
substitutions with the `Poly` of the change checkout's
`perfbench/reference.py`, no lndfilt), so the host's speed at that moment
is on record beside the run.  The sides alternate and the order
flips every pair (parent first in even pairs, change first in odd ones),
so a host that drifts slowly in speed weighs on both sides alike.  The output holds, per workload and end-to-end metric,
the median and quartiles of each side (as `perfbench/steady.py` computes
them), the change/parent ratio of the medians and the number of pairs the
change won (its value is better in the direction BENCHMARK.json gives);
for the timed metrics (units 1/s and s) a calibrated ratio beside it, of
the medians of each run's value scaled by its calibration seconds (a rate
multiplied, a time divided), which factors out a host that changed speed
between the sides, while the gate stays the raw ratio and pairs; the
calibration seconds and the failed-op counts of every run; every `count`
metric of BENCHMARK.json from each side's traced run, with the names of the counts that differ;
the commits; and the Python version and CPU count of the machine.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from steady import spread  # noqa: E402

SIDES = ("parent", "change")
# the calibration child: fixed `Poly` work from perfbench/reference.py,
# which imports no lndfilt; prints its own seconds
CALIBRATION = """\
import sys, time
sys.path.insert(0, sys.argv[1])
from reference import Poly
names = ("x", "y", "z")
p = Poly.parse(names, "x + 2*y - 3*z + 1")
images = {"x": Poly.parse(names, "x*y - z"), "y": Poly.parse(names, "y + 1/2*z")}
t = time.perf_counter()
for _ in range(12):
    (p ** 7).subs(images)
print(time.perf_counter() - t)
"""
# a calibrated value: a rate times the calibration seconds, a time divided
CALIBRATE = {"1/s": lambda v, cal: v * cal, "s": lambda v, cal: v / cal}


def calibrate(perfbench: Path) -> float:
    """Seconds of one run of the calibration loop, in a new process."""
    proc = subprocess.run([sys.executable, "-c", CALIBRATION, str(perfbench)],
                          capture_output=True, text=True, check=True)
    return float(proc.stdout)


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int = 0) -> dict:
    """One benchmark run; its identity line and its final result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit("%s in %s failed (exit %d):\n%s" % (
            " ".join(cmd), checkout, proc.returncode, proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    ident = next((json.loads(ln[len("identity: "):]) for ln in lines
                  if ln.startswith("identity: ")), {})
    return {"identity": ident,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summarise(records, spec) -> dict:
    """Per-workload summary of run records.

    A record is {"workload", "pair", "side", "attempted", "failed",
    "metrics", "calibration_s"}; `spec` is BENCHMARK.json, whose
    end_to_end entries give each metric's unit, better direction and
    bound.  A pair counts as won for a metric when the change's value is
    strictly better than the parent's.
    """
    out = {}
    for workload in sorted({r["workload"] for r in records}):
        runs = {side: {} for side in SIDES}
        for r in records:
            if r["workload"] == workload:
                runs[r["side"]][r["pair"]] = r
        pairs = sorted(set(runs["parent"]) & set(runs["change"]))
        metrics = {}
        for m in spec["end_to_end"]:
            name = m["name"]
            vals = {side: [runs[side][p]["metrics"][name] for p in pairs]
                    for side in SIDES}
            higher = m["better"] == "higher"
            won = sum(1 for a, b in zip(vals["parent"], vals["change"])
                      if (b > a if higher else b < a))
            entry = {side: spread(vals[side]) for side in SIDES}
            entry.update(
                ratio=entry["change"]["median"] / entry["parent"]["median"],
                pairs_won=won, better=m["better"], bound=m["bound"],
                values=vals)
            scale = CALIBRATE.get(m["unit"])
            if scale:
                cal = [statistics.median(
                    scale(v, runs[side][p]["calibration_s"])
                    for v, p in zip(vals[side], pairs)) for side in SIDES]
                entry["calibrated_ratio"] = cal[1] / cal[0]
            metrics[name] = entry
        out[workload] = {
            "pairs": len(pairs),
            "calibration_s": {side: [runs[side][p]["calibration_s"]
                                     for p in pairs] for side in SIDES},
            "failed_ops": {side: [runs[side][p]["failed"] for p in pairs]
                           for side in SIDES},
            "attempted_ops": {side: [runs[side][p]["attempted"] for p in pairs]
                              for side in SIDES},
            "metrics": metrics,
        }
    return out


def traced_counts(metrics, spec) -> dict:
    """Every count metric of `spec` per side, from the sides' traced run
    metrics ({side: {name: value}}), and the names whose counts differ."""
    names = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    counts = {nm: {side: metrics[side][nm] for side in SIDES} for nm in names}
    return {"counts": counts,
            "differ": [nm for nm in names
                       if counts[nm]["parent"] != counts[nm]["change"]]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--change", required=True, type=Path)
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("quartiles need at least 2 pairs")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    records, commits, traced = [], {}, {}
    for workload in args.workloads:
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                cal = calibrate(checkouts["change"] / "perfbench")
                rec = run_once(checkouts[side], workload, args.seed, seconds)
                commits[side] = rec["identity"].get("commit")
                rec.update(workload=workload, pair=pair, side=side,
                           calibration_s=cal)
                records.append(rec)
                print("%s pair %d %s: ops_per_s %.4g, failed %d, "
                      "calibration %.3f s" % (
                          workload, pair, side, rec["metrics"]["ops_per_s"],
                          rec["failed"], cal), file=sys.stderr)
        traced[workload] = traced_counts(
            {side: run_once(checkouts[side], workload, args.seed, seconds,
                            trace=1)["metrics"] for side in SIDES}, spec)
        print("%s traced counts differ: %s" % (
            workload, ", ".join(traced[workload]["differ"]) or "none"),
            file=sys.stderr)

    report = {
        "command": "python3 perfbench/run.py --workload W --seed %d "
                   "--seconds %g --trace 0, then once per side with "
                   "--trace 1" % (args.seed, seconds),
        "calibration": CALIBRATION,
        "seed": args.seed,
        "commits": commits,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "order": "parent first in even pairs, change first in odd pairs",
        "workloads": summarise(records, spec),
    }
    for workload, counts in traced.items():
        report["workloads"][workload]["traced"] = counts
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print("wrote %s" % args.out, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
