"""hopfsmith benchmark: time to a verified verdict per CLI query.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --write-digests

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer ones;
the last line of stdout is one JSON object.  See README.md in this directory
for the workloads, the metrics and the estimators.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DIGESTS = BENCH / "digests.json"
sys.path.insert(0, str(BENCH))

from layers import exact_counts  # noqa: E402
from queries import WORKLOADS  # noqa: E402

SETUP_LAUNCHES = 9
RUN_CAP_S = 140.0     # a timed child starts no query after this
TRACED_CAP_S = 50.0   # each of the three children of a traced run
RUN_LIMIT_S = 170.0   # a child still running this long after the start is killed


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def run_child(workload: str, seed: int, mode: str, seconds: float, cap: float,
              deadline: float) -> dict:
    """Run one workload child; it is killed if still running at ``deadline``."""
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", str(seconds), "--cap", str(cap)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1))
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_seconds() -> float:
    """Median time from a fresh interpreter to a ready CLI parser, at reference speed."""
    times = []
    for _ in range(SETUP_LAUNCHES):
        proc = subprocess.run([sys.executable, str(BENCH / "setup_time.py")], cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


def tally(result: dict) -> tuple:
    """(attempted, failed) query executions; a query never started counts as failed."""
    runs = [s for qs in result["samples"] for s in qs]
    missed = len(result["missed"])
    return len(runs) + missed, sum(not s["ok"] for s in runs) + missed


def report_changed(result: dict) -> int:
    stored = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    return sum(bool(qs) and stored.get(q) != qs[0]["digest"]
               for q, qs in zip(result["queries"], result["samples"]))


def failures(result: dict) -> list:
    return [f"{q}: got {s['rc']!r}" for q, qs in zip(result["queries"], result["samples"])
            for s in qs if not s["ok"]] + [f"{result['queries'][i]}: not started"
                                           for i in result["missed"]]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> tuple:
    setup = setup_seconds()
    res = run_child(workload, seed, "timed", seconds, RUN_CAP_S, deadline)
    # Per query: the median over its runs of its time at reference speed.
    per_query = [statistics.median(s["t_ref"] for s in qs)
                 for qs in res["samples"] if qs]
    attempted, failed = tally(res)
    p90 = statistics.quantiles(per_query, n=10, method="inclusive")[8]
    metrics = {
        "wall_s": metric(sum(per_query), "s"),
        "query_p50_ms": metric(statistics.median(per_query) * 1000, "ms"),
        "query_p90_ms": metric(p90 * 1000, "ms"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
        "ok_share": metric(1 - failed / attempted, "share"),
        "setup_s": metric(setup, "s"),
    }
    runs = [len(qs) for qs in res["samples"]]
    print(f"# {workload}: {len(per_query)} queries, {min(runs)}-{max(runs)} timed runs each "
          f"({sum(runs)} in all), {res['passes']} complete passes")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_share {failed / attempted:.6g} share")
    print(f"report_changed {report_changed(res)} count (informational)")
    for line in failures(res):
        print(f"FAILED {line}")
    return failed == 0, attempted, failed, metrics


def per_layer(workload: str, seed: int, deadline: float) -> tuple:
    plain = run_child(workload, seed, "plain", 0, TRACED_CAP_S, deadline)
    traced = [run_child(workload, seed + k, "traced", 0, TRACED_CAP_S, deadline)
              for k in (0, 1)]
    counts = [exact_counts(t["layers"]) for t in traced]
    repeat = counts[0] == counts[1]
    attempted = failed = 0
    for res in [plain] + traced:
        a, f = tally(res)
        attempted, failed = attempted + a, failed + f
        for line in failures(res):
            print(f"FAILED {line}")
    if not repeat:
        for key in counts[0]:
            if counts[0][key] != counts[1].get(key):
                print(f"COUNT MISMATCH {key}: {counts[0][key]} != {counts[1].get(key)}")

    def wall(res, key):
        return sum(s[key] for qs in res["samples"] for s in qs)

    # Layer times are raw; each traced pass is scaled to reference speed by its
    # overall ratio, and the two passes are averaged.
    scale = [wall(t, "t_ref") / wall(t, "t") for t in traced]
    metrics = {}
    for name, value in traced[0]["layers"].items():
        if name.endswith("_s"):
            value = sum(factor * t["layers"][name] for factor, t in zip(scale, traced)) / 2
            metrics[name] = metric(value, "s")
        else:
            metrics[name] = metric(value, "count")
    metrics["trace_overhead_s"] = metric(
        (wall(traced[0], "t_ref") + wall(traced[1], "t_ref")) / 2 - wall(plain, "t_ref"), "s")
    metrics["report_changed"] = metric(report_changed(plain), "count")
    print(f"# {workload}: traced counts repeat exactly across two passes: {repeat}")
    return failed == 0 and repeat, attempted, failed, metrics


def write_digests() -> int:
    digests = {}
    for workload in WORKLOADS:
        res = run_child(workload, 0, "plain", 0, RUN_CAP_S, time.monotonic() + RUN_LIMIT_S)
        if res["missed"] or failures(res):
            return fail(f"{workload} has failed queries; digests not written")
        digests.update({q: qs[0]["digest"] for q, qs in zip(res["queries"], res["samples"])})
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS.relative_to(ROOT)}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-digests", action="store_true",
                    help="record the sha256 of every query's report and exit")
    args = ap.parse_args()
    if not (ROOT / "src" / "hopfsmith" / "cli.py").is_file():
        return fail(f"no hopfsmith sources under {ROOT / 'src'}")
    if args.write_digests:
        return write_digests()
    if args.workload is None:
        return fail("--workload is required")
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            correct, attempted, failed, metrics = per_layer(args.workload, args.seed, deadline)
        else:
            correct, attempted, failed, metrics = end_to_end(args.workload, args.seed,
                                                             args.seconds, deadline)
    except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        return fail(str(exc))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
