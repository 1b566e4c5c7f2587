"""Benchmark of the lndfilt command line, run in-process.

    python3 perfbench/run.py --workload graded --seed 1 --seconds 25 --trace 0

Each op is one README command, passed to `lndfilt.cli.main([..., "--json"])`
with stdout captured in memory.  Load model: a closed loop with one client,
one op at a time, as a researcher or a `script` file issues commands.  Ops
are one-shot: every op builds its family afresh, so Groebner-basis and
derivation caches fill only inside the op, as they do for a CLI user.

--trace 0 runs whole passes over the op list until --seconds have passed
and prints the end-to-end metrics.  --trace 1 runs a fixed number of passes over the op list, first
untraced and then with the tracer's wrappers installed, and prints the
per-layer metrics; the ratio of the two pass times is the tracing
overhead.  Every answer is checked against the closed forms in
reference.py after timing; any wrong answer makes the exit code non-zero.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A fuller record with the input identity
(seed, digest of the command lines, Python version, nproc, commit and a
digest of the sources) goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path[:0] = [str(HERE), str(SRC)]

import reference  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# BENCHMARK.json is the one list of metric names and units
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
OVERHEAD = "trace.overhead_ratio"

SETUP_REPEATS = 15
MIN_OPS = 11          # op_tail_s needs at least ten ops above a percentile
# passes over the op list in a traced run, so each pass takes a few seconds
TRACE_PASSES = {"graded": 2, "degree": 4, "search": 1, "morph": 30}

# A new interpreter imports lndfilt, generates the inputs and prints the
# clock; perf_counter is CLOCK_MONOTONIC, shared by all processes on Linux.
SETUP_CHILD = """\
import sys, time
sys.path[:0] = sys.argv[1:3]
import lndfilt.cli, workloads
workloads.generate(sys.argv[3], int(sys.argv[4]))
print(time.perf_counter())
"""


def fresh_import():
    """Import lndfilt from this checkout as a new process would."""
    for name in [m for m in sys.modules if m == "lndfilt" or m.startswith("lndfilt.")]:
        del sys.modules[name]
    cli = importlib.import_module("lndfilt.cli")
    if Path(cli.__file__).resolve().parent != SRC / "lndfilt":
        raise SystemExit("lndfilt imported from %s, not from %s"
                         % (cli.__file__, SRC))
    return cli


def setup(workload, seed):
    """Import lndfilt and generate the inputs here, and time set-up.

    setup_s is the median, over SETUP_REPEATS new processes, of the time
    from starting the interpreter to the point where the first op could
    run: interpreter start, every import lndfilt pulls in, and input
    generation.  The in-process import comes first so that the children
    find the bytecode caches it writes, as a user's second command would.
    """
    cli = fresh_import()
    ops = workloads.generate(workload, seed)
    cmd = [sys.executable, "-c", SETUP_CHILD, str(HERE), str(SRC),
           workload, str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        child = subprocess.run(cmd, check=True, capture_output=True, text=True,
                               timeout=60)
        times.append(float(child.stdout) - t0)
    return cli, ops, statistics.median(times)


def run_op(cli, op):
    """One command; returns (seconds, exit code, stdout, error text)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op["argv"])
        error = err.getvalue()
    except Exception:  # an op that raises is a failed op, not a crash
        code, error = None, traceback.format_exc()
    return time.perf_counter() - t0, code, out.getvalue(), error


def check_results(ops, results):
    """Check every (op, output) once; returns the failure reasons per result."""
    verdicts: dict = {}
    reasons = []
    for i, _, code, stdout, error in results:
        key = (i, code, stdout)
        if key not in verdicts:
            if code is None:
                verdicts[key] = "exception: " + error.strip().splitlines()[-1]
            else:
                try:
                    verdicts[key] = reference.check(ops[i], code, json.loads(stdout))
                except Exception as e:  # malformed output is one failed op
                    verdicts[key] = "unreadable output %r: %s: %s" % (
                        stdout[:80], type(e).__name__, e)
        reasons.append(verdicts[key])
    return reasons


def tail(durations):
    """(value, percentile) of the highest percentile with ten ops above it."""
    ordered = sorted(durations)
    k = len(ordered) - 10
    if k < 1:
        return ordered[-1], 100.0
    return ordered[k - 1], 100.0 * k / len(ordered)


def timed_run(cli, ops, seconds):
    """Whole passes over the op list until --seconds have passed.

    Whole passes keep the mix of ops the same in every run, whatever the
    machine's speed; MIN_OPS keeps op_tail_s defined on slow workloads.
    """
    results = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(results) < MIN_OPS:
        for k, op in enumerate(ops):
            results.append((k, *run_op(cli, op)))
    elapsed = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reasons = check_results(ops, results)
    durations = [r[1] for r in results]
    correct = sum(1 for why in reasons if why is None)
    tail_s, tail_pct = tail(durations)
    metrics = {
        "ops_per_s": correct / elapsed,
        "op_p50_s": statistics.median(durations),
        "op_tail_s": tail_s,
        "peak_rss_mb": peak_rss_mb,
    }
    by_op: dict = {}
    for k, dt, *_ in results:
        by_op.setdefault(k, []).append(dt)
    extra = {"op_tail_percentile": tail_pct, "ops": len(results),
             "loop_s": elapsed, "failed_ratio": (len(results) - correct) / len(results),
             "op_median_s": {k: statistics.median(v) for k, v in sorted(by_op.items())}}
    return results, reasons, metrics, extra


def traced_run(cli, ops, workload, passes):
    """Untraced then traced passes over the same ops; per-layer metrics."""
    plain = []
    t0 = time.perf_counter()
    for _ in range(passes):
        for k, op in enumerate(ops):
            plain.append((k, *run_op(cli, op)))
    plain_s = time.perf_counter() - t0
    tr = tracing.Tracer()
    tr.install()
    traced = []
    t0 = time.perf_counter()
    try:
        for p in range(passes):
            for k, op in enumerate(ops):
                tr.op_id = p * len(ops) + k
                traced.append((k, *run_op(cli, op)))
    finally:
        tr.uninstall()
    traced_s = time.perf_counter() - t0
    results = plain + traced
    reasons = check_results(ops, results)
    metrics = tr.metrics([m for m in PER_LAYER if m != OVERHEAD])
    metrics[OVERHEAD] = traced_s / plain_s - 1
    tracing.check_predictions(workload, metrics)
    extra = {"passes": passes, "untraced_s": plain_s, "traced_s": traced_s,
             "spans": len(tr.start)}
    return results, reasons, metrics, extra, tr


def identity(workload, seed, ops):
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    sources = hashlib.sha256()
    for path in sorted((SRC / "lndfilt").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": workload, "seed": seed,
            "inputs_digest": workloads.digest(ops), "ops_in_list": len(ops),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit, "sources_digest": sources.hexdigest()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (SRC / "lndfilt" / "cli.py").is_file():
        print("no lndfilt sources under %s" % SRC, file=sys.stderr)
        return 2

    cli, ops, setup_s = setup(args.workload, args.seed)
    ident = identity(args.workload, args.seed, ops)
    if args.trace:
        results, reasons, metrics, extra, tr = traced_run(
            cli, ops, args.workload, TRACE_PASSES[args.workload])
    else:
        results, reasons, metrics, extra = timed_run(cli, ops, args.seconds)
        metrics["setup_s"] = setup_s
    listed = PER_LAYER if args.trace else END_TO_END
    if set(metrics) != set(listed):
        raise SystemExit("metrics %s differ from BENCHMARK.json's %s" % (
            sorted(metrics), sorted(listed)))
    failed = sum(1 for why in reasons if why is not None)

    OUT.mkdir(exist_ok=True)
    stem = OUT / ("%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    failures = sorted({(results[j][0], why) for j, why in enumerate(reasons)
                       if why is not None})
    record = {"identity": ident, "setup_s": setup_s, "metrics": metrics,
              "attempted": len(results), "failed": failed,
              "failures": [{"op": k, "argv": ops[k]["argv"], "reason": why}
                           for k, why in failures], **extra}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if args.trace:
        tr.write_spans(str(stem) + ".spans.tsv.gz")

    print("identity: %s" % json.dumps(ident, sort_keys=True))
    print("details: %s" % json.dumps(
        {k: v for k, v in extra.items() if k != "op_median_s"}, sort_keys=True))
    for k, why in failures:
        print("FAILED op %d (%s): %s" % (k, " ".join(ops[k]["argv"]), why),
              file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0, "attempted": len(results), "failed": failed,
        "metrics": {m: {"value": v, "unit": UNITS[m]} for m, v in metrics.items()},
    }, sort_keys=True))
    return 1 if failed else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except tracing.TraceError as e:
        print("trace error: %s" % e, file=sys.stderr)
        sys.exit(3)
