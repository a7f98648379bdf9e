"""Workload ``cli``: sequential ``qheis`` processes over small catalog
configurations, the only workload where interpreter start and import sit
on the critical path.

A round runs eight commands: normal-form, example, spectrum, classify,
equiv, verify, schrodinger, and spectrum again on the same file, whose
output must be byte-identical to the first.  The configuration files of
a round are written when its inputs are generated; for round 0 that is
part of set-up.  Timed runs start ``python -m qheis.cli`` for each
command; a traced run calls ``qheis.cli.main`` in-process instead, so that
spans can see inside the command.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

from common import Op, expect, round_rng
from symbolic import small_expression

import qheis.cli
from qheis import assemble, build_catalog_triple, parse_to_element

TAIL_PERCENTILE = 55     # about 24 commands per run: 10.8 lie beyond p55

SPECTRUM_KINDS = (1, 2, 4)
SCHRODINGER_SAMPLES = (10, 20)


@dataclass
class CliResult:
    code: int
    stdout: bytes

    def report(self) -> dict:
        return json.loads(self.stdout)


def write_config(path, kind: int, params: dict, seed: int) -> None:
    triple = build_catalog_triple(kind, params)
    config = {"kind": kind, "tol": 1e-12, "seed": seed, **triple.to_json()}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(config, handle, sort_keys=True, indent=2)


def command(state, argv: list[str]):
    """The callable that runs one command and returns its CliResult."""
    if state["inprocess"]:
        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = qheis.cli.main(argv)
            return CliResult(code, out.getvalue().encode())
        return run

    cmd = [sys.executable, "-m", "qheis.cli", *argv]

    def run():
        proc = subprocess.run(cmd, env=state["env"], cwd=state["workdir"],
                              capture_output=True, timeout=120)
        return CliResult(proc.returncode, proc.stdout)
    return run


def report_bytes(result: CliResult) -> dict:
    return {"cli.report_bytes": len(result.stdout)}


def passing(task: str, extra=None):
    def check(result: CliResult) -> None:
        expect(result.code == 0, f"{task} exited with {result.code}")
        report = result.report()
        expect(report["task"] == task and report["status"] == "pass",
               f"{task} report: task {report['task']}, status "
               f"{report['status']}")
        if extra is not None:
            extra(report)
    return check


def setup(ctx) -> dict:
    ctx.workdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ctx.root / "src"))
    return {"seed": ctx.seed, "workdir": ctx.workdir, "env": env,
            "inprocess": ctx.traced}


def make_round(state, r: int) -> list[Op]:
    rng = round_rng(state["seed"], "cli", r)
    workdir = state["workdir"]
    ops: list[Op] = []

    def add(name, argv, check):
        ops.append(Op(name, command(state, argv), check,
                      report_bytes))

    expression = small_expression(rng)

    def same_normal_form(report):
        expect(report["normal_form"] == str(parse_to_element(expression)),
               "normal form differs from the library's")
    add("normal-form", ["normal-form", expression],
        passing("normal-form", same_normal_form))

    example_kind = 1 + r % 5
    example_q = round(rng.uniform(0.2, 0.5), 6)
    example_path = str(workdir / f"example-{r}.json")

    def example_written(result: CliResult) -> None:
        expect(result.code == 0, f"example exited with {result.code}")
        with open(example_path, encoding="utf-8") as handle:
            written = json.load(handle)
        expected = json.loads(json.dumps(build_catalog_triple(
            example_kind, {"q": example_q}).to_json()))
        for key in ("family", "window", "map"):
            expect(written[key] == expected[key],
                   f"example config differs at /{key}")
    add("example", ["example", "--kind", str(example_kind), "--q",
                    repr(example_q), "--out", example_path],
        example_written)

    kind = SPECTRUM_KINDS[r % len(SPECTRUM_KINDS)]
    params = {"q": rng.uniform(0.2, 0.55)}
    if kind != 4:
        params["phases"] = (rng.uniform(-3, 3), rng.uniform(-3, 3))
    model_path = str(workdir / f"model-{r}.json")
    write_config(model_path, kind, params, rng.randrange(1 << 30))
    outputs = {}

    def same_spectrum(report):
        expected = assemble(build_catalog_triple(kind, params)).spectrum()
        got = np.array(report["eigenvalues"])
        expect(got.shape == expected.shape
               and np.allclose(got, expected, rtol=1e-9, atol=1e-9),
               "eigenvalues differ from the library's")

    def first_spectrum(result: CliResult) -> None:
        outputs["spectrum"] = result.stdout
        passing("spectrum", same_spectrum)(result)
    add("spectrum", ["spectrum", "--config", model_path], first_spectrum)

    verdict = "reducible" if kind == 4 else "irreducible"

    def right_class(report):
        expect(report["verdict"] == verdict,
               f"classified {report['verdict']}, expected {verdict}")
    add("classify", ["classify", "--config", model_path],
        passing("classify", right_class))

    # single atoms: equivalent exactly when the phase differences agree
    v, w = rng.uniform(-3, 3), rng.uniform(-3, 3)
    shift = rng.uniform(0.2, 1.0)
    equivalent = r % 2 == 0
    other = (v + shift, w + shift if equivalent else w - shift)
    q = rng.uniform(0.2, 0.6)
    path_a = str(workdir / f"equiv-a-{r}.json")
    path_b = str(workdir / f"equiv-b-{r}.json")
    write_config(path_a, 1, {"q": q, "phases": (v, w)}, 0)
    write_config(path_b, 1, {"q": q, "phases": other}, 0)
    expected_verdict = "equivalent" if equivalent else "inequivalent"

    def right_verdict(report):
        expect(report["verdict"] == expected_verdict,
               f"verdict {report['verdict']}, expected {expected_verdict}")
    add("equiv", ["equiv", "--config-a", path_a, "--config-b", path_b],
        passing("equiv", right_verdict))

    add("verify", ["verify", "--config", model_path], passing("verify"))

    samples = SCHRODINGER_SAMPLES[r % len(SCHRODINGER_SAMPLES)]
    add("schrodinger", ["schrodinger", "--q", repr(round(rng.uniform(0.2, 0.8),
                                                         6)),
                        "--samples", str(samples), "--seed",
                        str(rng.randrange(1, 1 << 30))],
        passing("schrodinger"))

    def repeated(result: CliResult) -> None:
        expect(result.code == 0, f"spectrum exited with {result.code}")
        expect(result.stdout == outputs.get("spectrum"),
               "repeating spectrum changed its output")
    add("spectrum-again", ["spectrum", "--config", model_path], repeated)
    return ops
