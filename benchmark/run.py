"""Benchmark of rotdist: one workload, one seed, one JSON line of results.

    python3 benchmark/run.py --workload chain --seed 1 --seconds 30 --trace 0

Run from the root of a source tree; rotdist is imported from its `src`.
Set-up builds every input from the seed, with exact answers made apart
from the program (`checker.py`), SETUP_REPEATS times.  The timed phase
then repeats the run's fixed round of operations in whole rounds, at
least MIN_ROUNDS and more while another still fits in `--seconds`, and
checks each answer outside the timer.  A cheap operation may come
several times in a round.  Each operation counts with its best time over
all its calls: on a shared machine single timings of the same call
differ by a quarter, their minimum over many calls spread across the run
by a few percent.  The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (`--trace 0`) or the per-layer ones
(`--trace 1`).  A traced run measures half its time untraced and half
traced, reports the difference as `trace.overhead_pct`, and also writes
its figures to `.benchrun/trace-<workload>-<seed>.json`.  `--quick` runs
tiny inputs for one round, for `smoke.py`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".benchrun")
SETUP_REPEATS = 9
MIN_ROUNDS = 3


def import_rotdist():
    """rotdist from this source tree, and no other copy."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import rotdist
    except ImportError as exc:
        sys.exit(f"benchmark: cannot import rotdist from {src}: {exc}")
    if not os.path.abspath(rotdist.__file__).startswith(src + os.sep):
        sys.exit(f"benchmark: rotdist came from {rotdist.__file__}, not {src}")


def timed_rounds(slots, ops, seconds: float, min_rounds: int, tracer, stats: dict):
    """Whole rounds of slots, at least min_rounds and more while one fits.

    `slots` is one round, in which an operation of `ops` may come more
    than once.  Returns each operation's best wall time over all its
    slots, and whether it is a NO that came from the search.  Every
    answer is checked after its timer stops; failures are counted and
    the first few reported on stderr.
    """
    index = {op: i for i, op in enumerate(ops)}
    best = [float("inf")] * len(ops)
    searched_no = [False] * len(ops)
    rounds = 0
    start = time.perf_counter()
    while True:
        for op in slots:
            i = index[op]
            if tracer:
                tracer.begin()
            result = None   # so that two results never live at once
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception:
                err = f"{op.family} {op.verdict}: raised\n{traceback.format_exc()}"
            else:
                best[i] = min(best[i], time.perf_counter() - t0)
                err = op.check(result)
                stats["wrong"] += err is not None
            stats["attempted"] += 1
            if err:
                stats["failed"] += 1
                if stats["failed"] <= 5:
                    print(f"benchmark: FAILED {err}", file=sys.stderr)
            searched_no[i] = not err and op.verdict == "NO" and op.searched(result)
            if tracer:
                tracer.end("failed" if err else
                           "early" if op.verdict == "NO" and not searched_no[i] else
                           op.verdict.lower())
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
            return best, searched_no


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny inputs, one set-up, one round")
    args = ap.parse_args(argv)
    import_rotdist()
    import workloads
    from tracing import Tracer
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}, choose from {sorted(workloads.WORKLOADS)}")

    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setup_s = []
        seconds = 0 if args.quick else args.seconds
        for _ in range(1 if args.quick else SETUP_REPEATS):
            slots = None    # so that two set-ups never live at once
            t0 = time.perf_counter()
            slots = workloads.build(args.workload, args.seed, args.quick, workdir)
            setup_s.append(time.perf_counter() - t0)
        ops = list(dict.fromkeys(slots))
        # The inputs and exact answers of every instance stay alive for the
        # whole run; frozen, they are left out of the collections that the
        # program's own allocations set off, as they would be in a process
        # that holds one instance.
        gc.collect()
        gc.freeze()
        stats = {"attempted": 0, "failed": 0, "wrong": 0}
        if args.trace:
            base, _ = timed_rounds(slots, ops, seconds / 2, 1, None, stats)
            tracer = Tracer()
            tracer.install()
            try:
                traced, _ = timed_rounds(slots, ops, seconds / 2, 1, tracer, stats)
            finally:
                tracer.uninstall()
            figures = tracer.metrics((sum(traced) / sum(base) - 1.0) * 100.0)
        else:
            best, searched_no = timed_rounds(slots, ops, seconds,
                                             1 if args.quick else MIN_ROUNDS, None, stats)
            done = [t for t in best if t < float("inf")]
            yes = [t * 1e3 for t, op in zip(best, ops) if op.verdict == "YES" and t < float("inf")]
            no = [t * 1e3 for t, s in zip(best, searched_no) if s]
            figures = {
                "ops_per_s": (len(done) / sum(done), "1/s"),
                "yes_ms_p50": (statistics.median(yes), "ms"),
                "no_ms_p50": (statistics.median(no), "ms"),
                "setup_s": (statistics.median(setup_s), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": stats["wrong"] == 0,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in figures.items()},
    }
    if args.trace:
        with open(os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json"),
                  "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
