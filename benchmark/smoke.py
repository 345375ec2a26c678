"""Smoke test of the benchmark: quick mode on every workload, both modes.

    python3 benchmark/smoke.py

Checks that each run exits 0 and ends with a result line whose metrics
are exactly the ones BENCHMARK.json names, with their units, and that
every answer was right.  Then copies BENCHMARK.json and benchmark/ into
a temporary directory without the program, where the benchmark must fail
without printing a result.  Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# chain runs by hand but is not in BENCHMARK.json (see README.md).
WORKLOADS = ("chain", "wide", "oracle")


def run(cwd: str, workload: str, trace: int, quick: bool = True):
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace)] + (["--quick"] if quick else [])
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} "
                                f"failed={result['failed']} attempted={result['attempted']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(want[trace]))}")
            print(f"ok {label}: {result['attempted']} operations")
    os.makedirs(os.path.join(ROOT, ".benchrun"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".benchrun"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "benchmark"), os.path.join(bare, "benchmark"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, WORKLOADS[0], 0, quick=False)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"without the program: exit {proc.returncode}, "
                            f"stdout {proc.stdout!r}")
        else:
            print(f"ok without the program: exit {proc.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
