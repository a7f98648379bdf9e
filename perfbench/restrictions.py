"""Workload ``restrictions``: the library calls behind ``qheis spectrum``
and ``qheis verify`` on seeded catalog configurations.

A round holds seven configurations, one of each catalog kind 1-5 and a
second of kinds 1 and 2.  Every configuration gets five operations: the
three suites of verify, each starting from the configuration's JSON as the
command line does, and assemble followed by ``spectrum()`` on the model it
built.  So each configuration repeats, as when a user runs verify and then
spectrum on the same file.

Assembly cost grows with the square of the model dimension, so window
heights are fixed and every round costs the same: the four
configurations of kinds 1 and 2 take n_max 10, 16, 22 and 28 in seeded
order, kinds 3-5 have short windows.  The seed draws q within
each kind's validity, phases and positions.  q is drawn so that q^n_max
stays above the level at which ``assemble`` hits its known division by
zero, which ``probe`` measures apart from the timed loop.
"""
from __future__ import annotations

import math

import numpy as np

from common import Op, check_passed, expect, round_rng

from qheis import (ExtensionTriple, assemble, build_catalog_triple,
                   characterization_report, verify_extension,
                   verify_representation)

TAIL_PERCENTILE = 91

KINDS = (1, 2, 3, 4, 5, 1, 2)
Q_RANGE = (0.2, 0.6)
N_MIN = -6
SINGLE_ATOM_HEIGHTS = (10, 16, 22, 28)     # kinds 1 and 2, one each
N_MAX = {3: 8, 4: 10, 5: 7}
VERIFY_PAIRS = 100             # what ``qheis verify`` uses
# assemble divides by a tail-remainder norm that cancels to exactly zero
# once q^n_max falls below about 2e-16
SAFE_DECAY = 1e-14


def max_safe_n_max(q: float) -> int:
    return int(math.floor(math.log(SAFE_DECAY) / math.log(q)))


def min_safe_q(n_max: int) -> float:
    return SAFE_DECAY ** (1.0 / n_max)


def positions(rng, q: float, count: int, gap: float) -> list[float]:
    """``count`` positions in [q, 1) at least ``gap`` apart."""
    while True:
        picks = sorted(rng.uniform(q, 0.98) for _ in range(count))
        if all(b - a >= gap for a, b in zip(picks, picks[1:])):
            return picks


def catalog_config(rng, kind: int, n_max: int) -> dict:
    low = max(Q_RANGE[0], min_safe_q(n_max))
    if kind == 1:
        q = rng.uniform(low, Q_RANGE[1])
        params = {"q": q, "phases": (rng.uniform(-3, 3), rng.uniform(-3, 3))}
    elif kind == 2:
        q = rng.uniform(low, 0.55)     # below the minus atom at 0.6
        params = {"q": q, "phases": (rng.uniform(-3, 3), rng.uniform(-3, 3))}
    elif kind == 3:
        q = rng.uniform(low, 0.5)
        params = {"q": q, "positions": tuple(positions(rng, q, 3, 0.05))}
    elif kind == 4:
        q = rng.uniform(low, Q_RANGE[1])
        params = {"q": q, "position": rng.uniform(max(q, 0.5), 0.95)}
    else:
        q = rng.uniform(low, 0.55)
        params = {"q": q, "block_positions": tuple(positions(rng, q, 2, 0.1))}
    params["window"] = {"n_min": N_MIN, "n_max": n_max}
    config = build_catalog_triple(kind, params).to_json()
    config["seed"] = rng.randrange(1 << 30)
    return config


def model_ops(config: dict) -> list[Op]:
    """assemble, then ``AssembledOperator.spectrum`` on the model it built."""
    built = {}

    def run_assemble():
        built["model"] = assemble(ExtensionTriple.from_json(config))
        return built["model"]

    def check_assemble(model):
        residual = model.hermiticity_residual()
        expect(residual <= 1e-12, f"hermiticity residual {residual:.3g}")

    def run_spectrum():
        return built["model"].spectrum()

    def check_spectrum(eigenvalues):
        reference = np.linalg.eigvalsh(built["model"].hermitian_matrix())
        scale = max(1.0, float(np.max(np.abs(reference))))
        gap = float(np.max(np.abs(np.sort(eigenvalues) - reference)))
        expect(gap <= 1e-8 * scale,
               f"spectrum differs from eigvalsh by {gap:.3g}")
    return [Op("assemble", run_assemble, check_assemble),
            Op("spectrum", run_spectrum, check_spectrum)]


def verify_ops(config: dict) -> list[Op]:
    seed = config["seed"]

    def characterization():
        return characterization_report(ExtensionTriple.from_json(config))

    def extension():
        return verify_extension(ExtensionTriple.from_json(config),
                                n_pairs=VERIFY_PAIRS, seed=seed)

    def representation():
        triple = ExtensionTriple.from_json(config)
        return verify_representation(triple.family, seed=seed)

    return [Op("characterization", characterization, check_passed),
            Op("verify_extension", extension, check_passed),
            Op("verify_representation", representation, check_passed)]


def setup(ctx) -> dict:
    return {"seed": ctx.seed}


def make_round(state, r: int) -> list[Op]:
    rng = round_rng(state["seed"], "restrictions", r)
    heights = list(SINGLE_ATOM_HEIGHTS)
    rng.shuffle(heights)
    ops: list[Op] = []
    for kind in KINDS:
        n_max = heights.pop() if kind in (1, 2) else N_MAX[kind]
        config = catalog_config(rng, kind, n_max)
        blocks = [verify_ops(config), model_ops(config)]
        rng.shuffle(blocks)
        ops.extend(blocks[0] + blocks[1])
    return ops


def probe(state) -> dict:
    """The known defect, measured untimed: ``assemble`` raises
    ZeroDivisionError on windows above the safe height.  The three
    reproduced cases on kinds 1 and 3, and four seeded draws of kind 1 over
    the heights users configure; the count is how many raised."""
    rng = round_rng(state["seed"], "restrictions-defect", 0)
    cases = [(kind, q, n_max) for kind in (1, 3)
             for q, n_max in ((0.2, 24), (0.3, 30), (0.5, 60))]
    for _ in range(4):
        q = rng.uniform(0.2, 0.3)
        cases.append((1, q, rng.randint(max_safe_n_max(q) + 1, 30)))
    raised = 0
    for kind, q, n_max in cases:
        triple = build_catalog_triple(
            kind, {"q": q, "window": {"n_min": -6, "n_max": n_max}})
        try:
            assemble(triple)
        except ZeroDivisionError:
            raised += 1
    return {"extensions.assemble.zero_division": raised,
            "extensions.assemble.defect_probes": len(cases)}
