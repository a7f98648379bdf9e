"""Pieces shared by the workload modules and the worker."""
from __future__ import annotations

import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable


class CheckFailed(AssertionError):
    """An operation returned, but its output is wrong."""


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_passed(report) -> None:
    """Check of a qheis report with ``passed`` and named ``checks``."""
    failing = [c.name for c in report.checks if not c.passed]
    expect(report.passed, f"checks failed: {failing}")


def monotonic() -> float:
    # CLOCK_MONOTONIC is shared by all processes, so run.py can subtract
    # its own reading taken before it started a worker from the worker's
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Op:
    """One closed-loop operation: ``run`` is timed, ``check`` is not.

    ``check`` receives the value ``run`` returned and raises CheckFailed
    when it is wrong.  ``counts``, when given, maps that value to named
    counts that a traced run adds to its per-layer table.
    """

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    counts: Callable[[Any], dict] | None = None


@dataclass
class Context:
    root: Path      # the checkout: the package is under root/src
    seed: int
    workdir: Path   # scratch files of this process, removed at exit
    traced: bool    # a traced run: operations must stay in this process


def round_rng(seed: int, workload: str, round_index: int) -> random.Random:
    """Generator for one round of one workload.  Round r has the same inputs
    for a given seed however many rounds a run reaches, so a traced pass of
    round 0 sees exactly the inputs a timed run starts with."""
    return random.Random(f"{workload}/{seed}/{round_index}")
