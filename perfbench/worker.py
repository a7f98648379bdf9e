"""One workload in one fresh process; ``run.py`` starts it.

Modes:
  setup  import the package, generate the first round of inputs, report
         the moment that finished, exit;
  run    then time closed-loop rounds of operations until their summed
         latency reaches --seconds, checking every output and timing the
         reference work between them;
  trace  run round 0 once to warm up, then again without spans and once
         more with the span wrappers installed, and report the per-layer
         table.

The last line of standard output is one JSON object for ``run.py``.
"""
from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import Context, monotonic

WORKLOAD_MODULES = {
    "symbolic": "symbolic",
    "restrictions": "restrictions",
    "invariants": "invariants",
    "cli": "clicommands",
}
# workloads whose operations run in child processes: peak memory is theirs,
# and interpreter starts measure their speed
CHILD_PROCESS_WORKLOADS = {"cli"}
MAX_FAILURE_NOTES = 5
# Times are reported at the machine speed at which the reference work takes
# this long: the pure-Python loop of loop_slowdown, and the bare interpreter
# start of spawn_slowdown.
LOOP_REFERENCE_MS = 1.25
SPAWN_REFERENCE_MS = 60.0


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it is one."""
    with open("/proc/self/maps", encoding="utf-8") as handle:
        paths = {line.split()[-1] for line in handle
                 if "openblas" in line.lower() and "/" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": blas_threads(),
            "cpus": len(os.sched_getaffinity(0))}


def import_package(root: Path) -> None:
    sys.path.insert(0, str(root / "src"))
    import qheis
    where = Path(qheis.__file__).resolve()
    if root / "src" not in where.parents:
        raise SystemExit(f"qheis imported from {where}, not from {root}/src")


def loop_slowdown() -> float:
    """How much slower than at reference speed a fixed piece of pure-Python
    work runs now.  The machine's speed swings by up to 2x within seconds,
    as the load of other tenants changes; this loop, timed next to every
    in-process operation, measures the speed at hand."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(10000):
        acc += i * i % 7
        table[i & 255] = acc
    return (time.perf_counter() - start) * 1e3 / LOOP_REFERENCE_MS


def spawn_slowdown() -> float:
    """The same for operations that start a Python process, measured by one
    bare interpreter start: that tracks their speed, the loop above in this
    process does not."""
    return spawn_ms("pass", dict(os.environ)) / SPAWN_REFERENCE_MS


class Loop:
    """Closed loop over operations: time ``run``, then ``check`` untimed,
    then, if ``slowdown`` is given, time the reference work with it."""

    def __init__(self, tracer=None, slowdown=None):
        self.latencies: list[float] = []
        self.measure_slowdown = slowdown
        self.slowdown: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.tracer = tracer

    def run_ops(self, ops) -> float:
        timed = 0.0
        clock = time.perf_counter
        for op in ops:
            if self.tracer is not None:
                self.tracer.op_id = self.attempted
                self.tracer.enabled = True
            start = clock()
            try:
                result = op.run()
                error = None
            except Exception as err:  # a failed operation is counted
                error = err
            elapsed = clock() - start
            if self.tracer is not None:
                self.tracer.enabled = False
            timed += elapsed
            self.latencies.append(elapsed)
            self.attempted += 1
            if error is None:
                try:
                    op.check(result)
                    if self.tracer is not None and op.counts is not None:
                        self.tracer.counts.update(op.counts(result))
                except Exception as err:
                    error = err
            if error is not None:
                self.failed += 1
                if len(self.failures) < MAX_FAILURE_NOTES:
                    self.failures.append(
                        f"{op.name}: {type(error).__name__}: {error}")
            if self.measure_slowdown is not None:
                self.slowdown.append(self.measure_slowdown())
        return timed


def spawn_ms(code: str, env: dict) -> float:
    # no timeout: waiting with one polls in sleeps of up to 50 ms, which
    # would round every start up to the next poll; run.py's deadline ends
    # this process's whole session instead
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return (time.perf_counter() - start) * 1e3


def startup_costs(root: Path, samples: int = 3) -> dict:
    """Median cold start of a bare interpreter, and what a fresh
    ``import qheis.cli`` adds to it."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    bare = statistics.median(spawn_ms("pass", env) for _ in range(samples))
    full = statistics.median(spawn_ms("import qheis.cli", env)
                             for _ in range(samples))
    return {"cli.interpreter_ms": bare, "cli.import_ms": full - bare}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOAD_MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"),
                        required=True)
    parser.add_argument("--root", required=True)
    args = parser.parse_args()

    root = Path(args.root).resolve()
    import_package(root)
    workload = importlib.import_module(WORKLOAD_MODULES[args.workload])
    workdir = (root / ".perfbench_work"
               / f"{args.workload}-{args.seed}-{os.getpid()}")
    ctx = Context(root, args.seed, workdir, traced=args.mode == "trace")
    try:
        state = workload.setup(ctx)
        ops = workload.make_round(state, 0)
        ready = monotonic()
        out = {"ready": ready, "env": environment(),
               "setup_slowdown": statistics.median(
                   loop_slowdown() for _ in range(5))}
        if args.mode == "run":
            out.update(timed_run(workload, state, ops, args.seconds,
                                 args.workload in CHILD_PROCESS_WORKLOADS))
        elif args.mode == "trace":
            out.update(traced_run(workload, state, ops, root, args))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


def timed_run(workload, state, ops, seconds: float,
              in_children: bool) -> dict:
    loop = Loop(slowdown=spawn_slowdown if in_children else loop_slowdown)
    timed = 0.0
    rounds = 0
    wall_start = time.perf_counter()
    # whole rounds only, so every run sees the same mix of operations, and
    # enough of them that ten samples lie beyond the tail percentile; the
    # wall-clock cap bounds a run whose checks are slow
    tail_share = 1.0 - workload.TAIL_PERCENTILE / 100.0
    while True:
        timed += loop.run_ops(ops)
        rounds += 1
        done = timed >= seconds and loop.attempted * tail_share >= 10
        if done or time.perf_counter() - wall_start > seconds + 90:
            break
        ops = workload.make_round(state, rounds)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if in_children
                               else resource.RUSAGE_SELF)
    return {"attempted": loop.attempted, "failed": loop.failed,
            "failures": loop.failures, "rounds": rounds, "timed_s": timed,
            "latencies_ms": [t * 1e3 for t in loop.latencies],
            "slowdown": loop.slowdown,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "tail_percentile": workload.TAIL_PERCENTILE,
            "probe": probe(workload, state)}


def probe(workload, state) -> dict:
    """Untimed per-run measurements a workload adds, such as known-defect
    counts."""
    fn = getattr(workload, "probe", None)
    return fn(state) if fn is not None else {}


def traced_run(workload, state, ops, root: Path, args) -> dict:
    from spans import Tracer, per_layer_metrics

    # the warm-up pass takes the one-time costs (lazy imports, first LAPACK
    # calls), so that the untraced and traced passes differ only in tracing
    warmup = Loop()
    warmup.run_ops(ops)
    plain = Loop()
    untraced_s = plain.run_ops(workload.make_round(state, 0))
    tracer = Tracer()
    traced = Loop(tracer)
    tracer.install()
    try:
        traced_s = traced.run_ops(workload.make_round(state, 0))
    finally:
        tracer.uninstall()
    raw = tracer.aggregate()
    raw["trace.spans"] = len(tracer.names)
    raw["trace.overhead_pct"] = (traced_s - untraced_s) / untraced_s * 100.0
    raw.update(startup_costs(root))
    raw.update(probe(workload, state))
    layers = json.loads((root / "BENCHMARK.json").read_text())["per_layer"]
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.tsv")
    loops = (warmup, plain, traced)
    return {"attempted": sum(loop.attempted for loop in loops),
            "failed": sum(loop.failed for loop in loops),
            "failures": [note for loop in loops for note in loop.failures],
            "per_layer": per_layer_metrics(raw, layers)}


if __name__ == "__main__":
    sys.exit(main())
