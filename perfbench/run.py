"""Benchmark entry point for the qheis package.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from ``src``
there.  Each workload is a single client in a closed loop, in one worker
process (see worker.py and the workload modules).  With ``--trace 0`` the
result holds the end-to-end metrics: the worker's timed run, plus setup
time as the median of several fresh worker start-ups.  With ``--trace 1``
it holds the per-layer table of a traced pass over round 0.  The last line
of standard output is the result object; lines before it are for people.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from common import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("symbolic", "restrictions", "invariants", "cli")
SETUP_SAMPLES = 5          # fresh start-ups per run, the timed worker's included
DEADLINE_S = 170.0         # every run ends well inside 180 s
SLOWDOWN_WINDOW = 2        # slowdown samples on each side of an operation
# One BLAS thread: the single client then runs on one CPU, which the
# reference loop measures; a second BLAS thread would run on the other CPU,
# whose share of the shared machine swings on its own.
WORKER_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1")


def start_worker(args, mode: str, deadline: float) -> tuple[dict, float]:
    """Run one worker to completion; (its result, its set-up seconds at
    reference speed)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--mode", mode, "--root", str(ROOT)]
    started = monotonic()
    # its own session, so that a timeout also ends the commands it started
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=ROOT,
                            env=WORKER_ENV, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(
            timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise SystemExit(f"worker ({mode}) exited with {proc.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    setup_s = result["ready"] - started
    return result, setup_s / result["setup_slowdown"]


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between order statistics."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def at_reference_speed(latencies: list[float],
                       slowdown: list[float]) -> list[float]:
    """Each latency divided by the median slowdown measured around it (see
    worker.loop_slowdown), so that runs on a slowed-down machine read the
    same as runs on a quiet one."""
    out = []
    for i, latency in enumerate(latencies):
        near = slowdown[max(0, i - SLOWDOWN_WINDOW):i + SLOWDOWN_WINDOW + 1]
        out.append(latency / statistics.median(near))
    return out


def end_to_end(run: dict, setup_s: list[float]) -> dict:
    latencies = at_reference_speed(run["latencies_ms"], run["slowdown"])
    ok = run["attempted"] - run["failed"]
    metrics = {
        "throughput_ops_s": (ok / sum(latencies) * 1e3, "ops/s"),
        "latency_p50_ms": (statistics.median(latencies), "ms"),
        "latency_tail_ms": (percentile(latencies, run["tail_percentile"]),
                            "ms"),
        "success_rate": (ok / run["attempted"], "ratio"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "qheis" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'qheis'}",
              file=sys.stderr)
        return 2

    deadline = monotonic() + DEADLINE_S
    try:
        if args.trace:
            result, _ = start_worker(args, "trace", deadline)
            metrics = result["per_layer"]
        else:
            setup_s = [start_worker(args, "setup", deadline)[1]
                       for _ in range(SETUP_SAMPLES - 1)]
            result, own_setup = start_worker(args, "run", deadline)
            setup_s.append(own_setup)
            metrics = end_to_end(result, setup_s)
    except subprocess.TimeoutExpired:
        print("error: run exceeded its deadline", file=sys.stderr)
        return 1

    env = result["env"]
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"python {env['python']}, numpy {env['numpy']}, scipy "
          f"{env['scipy']}, BLAS threads {env['blas_threads']}, "
          f"cpus {env['cpus']}")
    if not args.trace:
        raw = result["latencies_ms"]
        n = len(raw)
        pct = result["tail_percentile"]
        beyond = int(n * (1 - pct / 100))
        print(f"# {n} operations in {result['rounds']} rounds; tail is "
              f"p{pct} with {beyond} samples beyond it")
        print(f"# unscaled: throughput {n / result['timed_s']:.6g} ops/s, "
              f"p50 {statistics.median(raw):.6g} ms, p{pct} "
              f"{percentile(raw, pct):.6g} ms; median slowdown "
              f"{statistics.median(result['slowdown']):.4g}")
    for name, value in result.get("probe", {}).items():
        print(f"# probe {name} = {value}")
    for note in result["failures"]:
        print(f"# FAILED {note}")
    for name, entry in metrics.items():
        print(f"# {name:40s} {entry['value']:14.6g} {entry['unit']}")
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
