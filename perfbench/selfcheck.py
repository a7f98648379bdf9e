"""Self-check of the benchmark: run each workload twice on one seed.

    python3 perfbench/selfcheck.py [--seed N]

Every workload of BENCHMARK.json, at its run_seconds.  Traced twice: every count of the per-layer table must repeat exactly.
Timed twice: every end-to-end metric of the second run must lie within the
bound BENCHMARK.json fixes for it, relative to the first.  Exits 1 on any disagreement.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], capture_output=True, text=True, cwd=ROOT, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} exited with "
                         f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    seconds = spec["run_seconds"]

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        traced = [run(workload, args.seed, seconds, 1) for _ in range(2)]
        for name in counts:
            a, b = (r["metrics"][name]["value"] for r in traced)
            if a != b:
                problems.append(f"{workload}: {name} {a} then {b}")

        timed = [run(workload, args.seed, seconds, 0) for _ in range(2)]
        for result in traced + timed:
            if not result["correct"]:
                problems.append(f"{workload}: {result['failed']} of "
                                f"{result['attempted']} operations failed")
        if list(timed[0]["metrics"]) != list(bounds):
            problems.append(f"{workload}: end-to-end names differ from "
                            "BENCHMARK.json")
        for name, entry in bounds.items():
            a, b = (r["metrics"][name]["value"] for r in timed)
            change = (b - a) / a
            print(f"{workload:12s} {name:18s} {a:12.6g} {b:12.6g} "
                  f"{change:+8.2%} (bound {entry['bound']:.0%})")
            if abs(change) > entry["bound"]:
                problems.append(f"{workload}: {name} moved {change:+.2%}")
    for problem in problems:
        print("MISMATCH", problem)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
