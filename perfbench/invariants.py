"""Workload ``invariants``: classification of boundary problems whose
verdicts are known by construction, and the wavepacket model checks.

Boundary problems are built directly from their data (positions, weights
and the primitive boundary matrices), with dimensions on a fixed schedule
per round and everything else drawn from the seed:

* distinct positions coupled by a Fourier block are irreducible;
* a partner conjugated by diagonal phase unitaries is equivalent;
* a partner with one position moved is inequivalent: no intertwiner;
* a position repeated within the block is reducible, and its equivalence
  with a phase-conjugated partner cannot be certified (undecided).

Plus ``verify_schrodinger`` at seeded q with 10 and with 40 samples.
All of it is dense LAPACK work on 4d^2 x 2d^2 systems and closed-form
Gaussian sums, with no lattice and no rewriting.
"""
from __future__ import annotations

import numpy as np

from common import Op, check_passed, expect, round_rng

from qheis import (CommutantProblem, SchrodingerParams, dft_matrix,
                   irreducibility_report, unitary_equivalent,
                   verify_schrodinger)

TAIL_PERCENTILE = 93

IRREDUCIBLE_DIMS = (2, 3, 4, 6, 8, 13)
EQUIVALENT_DIMS = (2, 4, 6, 10, 16)
INEQUIVALENT_DIMS = (3, 7, 11)
REPEATED_DIMS = (2, 4, 6)
UNDECIDED_DIMS = (3, 5)
SCHRODINGER_SAMPLES = (10, 40)


def distinct_positions(rng, dim: int) -> np.ndarray:
    """Sorted positions in [0.3, 0.98) at least 0.3/dim apart."""
    gap = 0.3 / dim
    while True:
        picks = np.sort([rng.uniform(0.3, 0.98) for _ in range(dim)])
        if np.all(np.diff(picks) >= gap):
            return picks


def phases(rng, dim: int) -> np.ndarray:
    return np.exp(1j * np.array([rng.uniform(-np.pi, np.pi)
                                 for _ in range(dim)]))


def problem(pos, weights, vprime, wprime) -> CommutantProblem:
    return CommutantProblem(pos, weights, pos, weights, vprime, wprime)


def fourier_problem(rng, dim: int) -> CommutantProblem:
    weights = np.array([rng.uniform(0.5, 2.0) for _ in range(dim)])
    return problem(distinct_positions(rng, dim), weights, dft_matrix(dim),
                   np.eye(dim))


def conjugated(rng, p: CommutantProblem) -> CommutantProblem:
    """(D+ V' D-*, D+ W' D-*) for random diagonal phases D+, D-: the pair
    (D+, D-) intertwines and preserves the weight metric."""
    d_plus = np.diag(phases(rng, p.dim))
    d_minus = np.diag(phases(rng, p.dim)).conj()
    return problem(p.plus_positions, p.plus_weights,
                   d_plus @ p.vprime @ d_minus, d_plus @ p.wprime @ d_minus)


def moved(rng, p: CommutantProblem) -> CommutantProblem:
    """One position moved to a value no other atom has."""
    pos = p.plus_positions.copy()
    k = rng.randrange(p.dim)
    while True:
        candidate = rng.uniform(0.3, 0.98)
        if np.min(np.abs(pos - candidate)) > 0.01:
            break
    pos[k] = candidate
    return problem(pos, p.plus_weights, p.vprime, p.wprime)


def repeated_problem(rng, dim: int) -> CommutantProblem:
    """One position carried by every atom, with a diagonal phase block: the
    diagonal matrices commute with all of it."""
    pos = np.full(dim, rng.uniform(0.3, 0.98))
    return problem(pos, np.ones(dim), np.diag(phases(rng, dim)), np.eye(dim))


def expect_commutant(irreducible: bool):
    def check(report) -> None:
        expect(report.irreducible == irreducible,
               f"commutant dimension {report.commutant_dim} for a "
               f"{'ir' if irreducible else ''}reducible problem")
    return check


def expect_verdict(verdict: str):
    def check(report) -> None:
        expect(report.verdict == verdict,
               f"verdict {report.verdict!r}, expected {verdict!r}")
    return check


def setup(ctx) -> dict:
    return {"seed": ctx.seed}


def make_round(state, r: int) -> list[Op]:
    rng = round_rng(state["seed"], "invariants", r)
    ops: list[Op] = []

    def irreducibility(p, irreducible):
        ops.append(Op("irreducibility", lambda: irreducibility_report(p),
                      expect_commutant(irreducible)))

    def equivalence(p1, p2, verdict):
        ops.append(Op("equivalence", lambda: unitary_equivalent(p1, p2),
                      expect_verdict(verdict)))

    for dim in IRREDUCIBLE_DIMS:
        irreducibility(fourier_problem(rng, dim), True)
    for dim in EQUIVALENT_DIMS:
        p = fourier_problem(rng, dim)
        equivalence(p, conjugated(rng, p), "equivalent")
    for dim in INEQUIVALENT_DIMS:
        p = fourier_problem(rng, dim)
        equivalence(p, moved(rng, p), "inequivalent")
    for dim in REPEATED_DIMS:
        irreducibility(repeated_problem(rng, dim), False)
    for dim in UNDECIDED_DIMS:
        p = repeated_problem(rng, dim)
        equivalence(p, conjugated(rng, p), "undecided")
    for samples in SCHRODINGER_SAMPLES:
        params = SchrodingerParams.from_q(rng.uniform(0.2, 0.8))
        seed = rng.randrange(1 << 30)
        ops.append(Op("schrodinger",
                      lambda p=params, n=samples, s=seed:
                          verify_schrodinger(p, n_samples=n, seed=s),
                      check_passed))
    rng.shuffle(ops)
    return ops
