"""One workload child: runs a workload's CLI queries in-process and reports.

Started by ``run.py`` in a fresh interpreter with the checkout root as its
working directory.  It caps its own address space, imports ``hopfsmith``
from the checkout's ``src/``, runs passes over the query list (each pass in a
seed-permuted order) and prints one JSON object on stdout.

Modes:
  timed   passes until ``--seconds`` have gone by.  The first pass runs every
          query and always completes; later passes rerun only the queries
          whose first run took under ``RERUN_BELOW_S`` at reference speed,
          since a short query's time is the noisiest and the cheapest to
          measure again;
  plain   one pass;
  traced  one pass through the layer wrappers of ``layers.py``.

Speed probe.  On a shared machine the CPU speed a process gets swings by up
to 2x within seconds.  The child therefore times a fixed reference workload
between queries and every ``PROBE_EVERY`` seconds during a query
(from the interval-timer signal, so the child stays single-threaded), and
reports each query's time at reference speed: its time multiplied by
``REFERENCE_PROBE_S`` times the mean of 1/probe time over the probes around
and inside it.  That is the time the query would take on a machine that
runs the probe in ``REFERENCE_PROBE_S``.  The probe's own time is taken out
of the query time, and in a traced pass out of every open span too.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import signal
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path
from time import perf_counter

from queries import WORKLOADS

MEMORY_CAP_BYTES = 2 * 1024**3  # RLIMIT_AS of the workload child
QUERY_TIMEOUT_S = 60.0
PROBE_EVERY = 0.05
RERUN_BELOW_S = 0.3
REFERENCE_PROBE_S = 1e-4  # just above the probe's best time, 0.09 ms on a 2-vCPU x86-64 VM


class QueryTimeout(BaseException):
    """Raised from the timer signal; a BaseException so no handler catches it."""


def reference_work():
    """A fixed slice of the program's typical work: row operations over F_p and Q."""
    p = 7
    row = list(range(48))
    pivot = [(j, (3 * j + 1) % p) for j in range(0, 48, 3)]
    for factor in range(1, 7):
        for j, pv in pivot:
            row[j] = (row[j] - factor * pv) % p
    q = [Fraction(j, 5) for j in range(12)]
    for factor in (Fraction(1, 3), Fraction(2, 7)):
        for j in range(12):
            q[j] -= factor * q[(j + 1) % 12]
    return row, q


def probe() -> float:
    start = perf_counter()
    reference_work()
    return perf_counter() - start


class Runner:
    def __init__(self, main, tracer=None):
        self.main = main
        self.tracer = tracer
        self.window = [probe() for _ in range(20)]
        self.deadline = float("inf")
        self.paused = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        start = perf_counter()
        self.window.append(probe())
        if start > self.deadline:
            self.deadline = float("inf")
            raise QueryTimeout
        spent = perf_counter() - start
        self.paused += spent
        if self.tracer is not None and self.tracer.stack:
            self.tracer.stack[-1][1] += spent  # keep the probe out of the layer's self time

    def run(self, argv: str, timeout: float) -> dict:
        out, err = StringIO(), StringIO()
        gc.collect()  # every query starts from the same collector state, as in a fresh CLI
        self.window = self.window[-1:]
        self.paused = 0.0
        self.deadline = perf_counter() + timeout
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY, PROBE_EVERY)
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = self.main(argv.split())
        except QueryTimeout:
            rc = "timeout"
        except MemoryError:
            rc = "memory cap"
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a raising query is a failed query
            rc = f"{type(exc).__name__}: {exc}"
        finally:
            elapsed = perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.deadline = float("inf")
        self.window.append(probe())
        rate = sum(1 / d for d in self.window) / len(self.window)
        t = elapsed - self.paused
        text = out.getvalue() + "\0" + err.getvalue()
        return {"rc": rc, "t": t, "t_ref": t * rate * REFERENCE_PROBE_S,
                "digest": hashlib.sha256(text.encode()).hexdigest()}


def order(n: int, seed: int, pass_index: int) -> list:
    idx = list(range(n))
    random.Random(f"{seed}:{pass_index}").shuffle(idx)
    return idx


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=["timed", "plain", "traced"])
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--cap", type=float, required=True,
                    help="start no query after this many seconds")
    args = ap.parse_args()

    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))
    began = perf_counter()
    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    import hopfsmith.cli
    if not Path(hopfsmith.cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"imported hopfsmith from outside {src}")

    tracer = None
    cli_main = hopfsmith.cli.main
    if args.mode == "traced":
        import layers
        tracer = layers.Tracer()
        cli_main = layers.install(tracer)
    runner = Runner(cli_main, tracer)

    queries = WORKLOADS[args.workload]
    samples = [[] for _ in queries]
    missed = []
    pass_index = 0
    while True:
        for qi in order(len(queries), args.seed, pass_index):
            if pass_index and samples[qi][0]["t_ref"] >= RERUN_BELOW_S:
                continue
            now = perf_counter() - began
            if pass_index and now >= args.seconds:
                break
            if now >= args.cap:
                missed.append(qi)
                continue
            argv, expected, _ = queries[qi]
            sample = runner.run(argv, min(QUERY_TIMEOUT_S, args.cap - now + 1))
            sample["ok"] = sample["rc"] == expected
            samples[qi].append(sample)
        else:
            pass_index += 1
            if args.mode == "timed" and not missed and any(
                    qs[0]["t_ref"] < RERUN_BELOW_S for qs in samples):
                continue
        break

    result = {
        "queries": [q[0] for q in queries],
        "samples": samples,
        "missed": missed,
        "passes": pass_index,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
