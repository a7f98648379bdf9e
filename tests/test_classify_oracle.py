"""The eliminated intertwiner solver against the dense Kronecker oracle.

``reference_null_space`` solves the full 4d^2 x 2d^2 Kronecker system,
position rows included, with a values-only and a full SVD.  Over seeded
problem pairs of every kind the classifier meets, both solvers must give
the same null dimension, the same null subspace and the same verdicts.
"""

import math
import random

import numpy as np
import pytest

from qheis import classify
from qheis.classify import (
    CommutantProblem,
    dft_matrix,
    irreducibility_report,
    two_block_triple,
    unitary_equivalent,
)

N_SEEDS = 30


def reference_system(p1, p2) -> np.ndarray:
    """Dense system whose null vectors are pairs (A+, A-) with

        A+ P1+ = P2+ A+      A- P1- = P2- A-
        A+ V1' = V2' A-      A+ W1' = W2' A-

    stacked as [vec(A+); vec(A-)] in row-major vec convention."""
    d = p1.dim
    eye = np.eye(d)
    zero = np.zeros((d * d, d * d))
    def right(m):   # vec(A m) = (I kron m^T) vec(A)
        return np.kron(eye, np.asarray(m, dtype=complex).T)
    def left(m):    # vec(m A) = (m kron I) vec(A)
        return np.kron(np.asarray(m, dtype=complex), eye)
    rows = [
        np.hstack([right(np.diag(p1.plus_positions))
                   - left(np.diag(p2.plus_positions)), zero]),
        np.hstack([zero, right(np.diag(p1.minus_positions))
                   - left(np.diag(p2.minus_positions))]),
        np.hstack([right(p1.vprime), -left(p2.vprime)]),
        np.hstack([right(p1.wprime), -left(p2.wprime)]),
    ]
    return np.vstack(rows)


def reference_null_space(mat: np.ndarray, rcond: float = 1e-10):
    """(basis, kept, dropped) from a values-only SVD for the rank and a
    full SVD for the basis."""
    svals = np.linalg.svd(mat, compute_uv=False)
    cutoff = rcond * max(1.0, svals[0] if svals.size else 0.0)
    rank = int(np.sum(svals > cutoff))
    _, _, vh = np.linalg.svd(mat, full_matrices=True)
    basis = vh[rank:].conj().T
    kept = float(svals[rank - 1]) if rank > 0 else math.inf
    dropped = float(svals[rank]) if rank < svals.size else 0.0
    return basis, kept, dropped


def reference_solve(p1, p2, rcond=1e-10):
    basis, kept, dropped = reference_null_space(reference_system(p1, p2),
                                                rcond)
    return basis, kept, dropped, math.nan, math.nan


# ---- seeded problem pairs -------------------------------------------------

def phases(rng, dim):
    return np.exp(1j * np.array([rng.uniform(-np.pi, np.pi)
                                 for _ in range(dim)]))


def distinct_positions(rng, dim):
    while True:
        picks = np.sort([rng.uniform(0.3, 0.98) for _ in range(dim)])
        if np.all(np.diff(picks) >= 0.3 / dim):
            return picks


def problem(pos, weights, vprime, wprime):
    return CommutantProblem(pos, weights, pos, weights, vprime, wprime)


def fourier(rng, dim, pos=None):
    weights = np.array([rng.uniform(0.5, 2.0) for _ in range(dim)])
    pos = distinct_positions(rng, dim) if pos is None else np.asarray(pos)
    return problem(pos, weights, dft_matrix(dim), np.eye(dim))


def conjugated(rng, p):
    d_plus = np.diag(phases(rng, p.dim))
    d_minus = np.diag(phases(rng, p.dim)).conj()
    return CommutantProblem(p.plus_positions, p.plus_weights,
                            p.minus_positions, p.minus_weights,
                            d_plus @ p.vprime @ d_minus,
                            d_plus @ p.wprime @ d_minus)


def shifted(p, k, delta):
    pos = p.plus_positions.copy()
    pos[k] += delta
    return problem(pos, p.plus_weights, p.vprime, p.wprime)


def moved(rng, p):
    pos = p.plus_positions
    while True:
        candidate = rng.uniform(0.3, 0.98)
        if np.min(np.abs(pos - candidate)) > 0.01:
            break
    k = rng.randrange(p.dim)
    return shifted(p, k, candidate - pos[k])


def repeated(rng, dim):
    pos = np.full(dim, rng.uniform(0.3, 0.98))
    return problem(pos, np.ones(dim), np.diag(phases(rng, dim)), np.eye(dim))


def permuted(rng, p):
    perm = list(range(p.dim))
    rng.shuffle(perm)
    pi = np.eye(p.dim)[perm]
    return CommutantProblem(p.plus_positions[perm], p.plus_weights[perm],
                            p.minus_positions, p.minus_weights,
                            pi @ p.vprime, pi @ p.wprime)


def haar(rng, n):
    z = np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1))
                   for _ in range(n)] for _ in range(n)])
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def two_block(rng, n):
    """A random contraction with T*T eigenvalues inside [1/3, 2/3]."""
    svals = np.sqrt([rng.uniform(0.34, 0.66) for _ in range(n)])
    t = haar(rng, n) @ np.diag(svals) @ haar(rng, n).conj().T
    alpha = rng.uniform(0.5, 0.7)
    triple = two_block_triple(block_positions=(alpha, alpha + 0.2),
                              t_block=t)
    return CommutantProblem.from_triple(triple)


def pairs_for_seed(seed):
    """(kind, p1, p2, verdict known by construction or None)."""
    rng = random.Random(seed)
    dim = 1 + seed % 6
    out = []
    p = fourier(rng, dim)
    out.append(("fourier", p, p, "equivalent"))
    out.append(("conjugated", p, conjugated(rng, p), "equivalent"))
    out.append(("moved", p, moved(rng, p), "inequivalent"))
    out.append(("permuted", p, permuted(rng, p), "equivalent"))
    k = rng.randrange(dim)
    out.append(("near 1e-6", p, shifted(p, k, 1e-6), "inequivalent"))
    out.append(("near 1e-13", p, shifted(p, k, 1e-13), "equivalent"))
    # two atoms of one problem at nearly equal positions
    pos = distinct_positions(rng, max(dim, 2))
    for delta in (1e-6, 1e-13):
        pos[0] = pos[1] - delta
        close = fourier(rng, len(pos), pos.copy())
        out.append((f"close {delta:g}", close, close, "equivalent"))
    r = repeated(rng, max(dim, 2))
    out.append(("repeated", r, r, "equivalent"))
    out.append(("repeated conjugated", r, conjugated(rng, r), None))
    b = two_block(rng, 1 + seed % 3)
    out.append(("two block", b, b, "equivalent"))
    out.append(("two block conjugated", b, conjugated(rng, b), "equivalent"))
    return out


def projector(basis):
    return basis @ basis.conj().T


def test_enough_pairs_of_every_kind():
    pairs = [pair for seed in range(N_SEEDS) for pair in pairs_for_seed(seed)]
    assert len(pairs) >= 300
    assert len({kind for kind, *_ in pairs}) == 12


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_null_spaces_match_the_dense_oracle(seed):
    for kind, p1, p2, _ in pairs_for_seed(seed):
        basis = classify._null_space(p1, p2)[0]
        ref = reference_solve(p1, p2)[0]
        assert basis.shape == ref.shape, kind
        distance = np.linalg.norm(projector(basis) - projector(ref), 2)
        assert distance <= 1e-8, (kind, distance)
        assert np.allclose(basis.conj().T @ basis, np.eye(basis.shape[1]),
                           atol=1e-12), kind


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_verdicts_match_the_dense_oracle(seed, monkeypatch):
    pairs = pairs_for_seed(seed)
    new = [unitary_equivalent(p1, p2) for _, p1, p2, _ in pairs]
    commutants = [irreducibility_report(p1).commutant_dim
                  for _, p1, _, _ in pairs]
    monkeypatch.setattr(classify, "_null_space", reference_solve)
    ref = [unitary_equivalent(p1, p2) for _, p1, p2, _ in pairs]
    ref_commutants = [irreducibility_report(p1).commutant_dim
                      for _, p1, _, _ in pairs]
    assert commutants == ref_commutants
    for (kind, _, _, known), a, b in zip(pairs, new, ref):
        assert (a.verdict, a.intertwiner_dim, a.reason) == (
            b.verdict, b.intertwiner_dim, b.reason), kind
        if known is not None:
            assert a.verdict == known, kind
        if a.verdict == "equivalent" and a.intertwiner_dim == 1:
            # one-dimensional: the canonical phase fixes the witness
            assert np.allclose(a.witness_plus, b.witness_plus, atol=1e-8)
            assert np.allclose(a.witness_minus, b.witness_minus, atol=1e-8)


def test_position_tolerance_decides_near_equal_positions():
    p = fourier(random.Random(5), 3, [0.5, 0.7, 0.9])
    far = unitary_equivalent(p, shifted(p, 1, 1e-6))
    near = unitary_equivalent(p, shifted(p, 1, 1e-13))
    assert far.verdict == "inequivalent"
    assert far.position_tol == pytest.approx(1e-10)
    assert far.position_gap == pytest.approx(1e-6, rel=1e-6)
    assert near.verdict == "equivalent"
    assert near.position_gap == pytest.approx(0.2 - 1e-13)
    assert irreducibility_report(repeated(random.Random(1), 3)) \
        .position_gap == math.inf
