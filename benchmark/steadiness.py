"""Run each workload with many seeds and report how steady each metric is.

    python3 benchmark/steadiness.py [--runs 10] [--seed0 1] [--workloads chain,wide]

Each run is `run.py --workload W --seed S --seconds <run_seconds>` in its
own process, one at a time, seeds seed0 .. seed0+runs-1.  For every
end-to-end metric the script prints the median, the quartiles (Python's
statistics.quantiles, n=4), the spread (q3 - q1) / median, the largest
run-to-run difference (max - min) / median, and the bound from
BENCHMARK.json; a metric passes when its spread is below a third of its
bound (setup_s is exempt).  The share of failed operations is printed per
workload and must be identical across runs.  All values go to
.benchrun/steadiness-<seed0>.json as well.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(ROOT, "benchmark", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report: dict = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            t0 = time.time()
            runs.append(run_once(workload, args.seed0 + i, args.seconds))
            print(f"{workload} seed {args.seed0 + i}: {time.time() - t0:.0f} s "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items()),
                  flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        correct = all(r["correct"] for r in runs)
        print(f"{workload}: failed share {shares}, correct {correct}")
        ok &= len(shares) == 1 and correct
        report[workload] = {"runs": runs, "metrics": {}}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            largest = (max(values) - min(values)) / med
            steady = name == "setup_s" or spread < bounds[name] / 3
            ok &= steady
            report[workload]["metrics"][name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "largest_difference": largest, "bound": bounds[name]}
            print(f"  {name:12s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"spread {spread:6.3f}  largest {largest:6.3f}  bound {bounds[name]}"
                  f"{'' if steady else '  NOT STEADY'}", flush=True)
    out = os.path.join(ROOT, ".benchrun", f"steadiness-{args.seed0}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(f"written to {out}; {'steady' if ok else 'NOT steady'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
