"""Representation of algebra elements on the lattice and classification of
the self-adjoint restrictions.

The lattice operators p -> P, x -> X, u -> U, u^-1 -> U* turn every
normal-form element into an operator on window vectors; ``act_element``
evaluates it on a stack of them, and ``verify_representation`` checks on a
spanning set of window vectors that products and the involution are
represented faithfully.

Classification works on the boundary data alone: the ``CommutantProblem``
of ``qheis.extensions`` (atom positions and weights per sign plus the
primitive boundary matrices), which a triple's ``BoundaryMap`` already is.
Everything reduces to linear algebra:

* the commutant of a problem is the null space of an intertwining system;
  the restriction is irreducible exactly when that space is the scalars;
* two problems are unitarily equivalent exactly when a metric-preserving
  intertwiner exists; for irreducible problems a one-dimensional null space
  plus a trace normalization produces the witness, which is brought to a
  canonical phase and then verified entry by entry, position equalities
  included, before the verdict is issued.

The position constraints are diagonal, so they are solved first: entry
(i, j) of an intertwiner can be nonzero only where the positions p2_i and
p1_j agree within position_tol = RCOND * max(1, max |position|).  Only
those entries are unknowns of the boundary-matrix equations, which one thin
SVD then solves: 2d unknowns for distinct positions, blocks for repeated
ones.  Reports give the tolerance and position_gap, the smallest position
difference above it, next to the singular values on both sides of the
RCOND cut.

A small catalog of worked examples covers the qualitatively different
cases: single atoms, transform-coupled distinct positions, a repeated
position (reducible), and two position blocks coupled by a contraction.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .algebra import (
    AlgebraElement,
    GENERATOR_LETTERS,
    random_element,
    star,
)
from .catalog import CATALOG_KINDS  # re-exported: defined apart, see catalog
from .extensions import (  # CommutantProblem re-exported
    BoundaryMap,
    CommutantProblem,
    ExtensionTriple,
    make_boundary_map,
    matrix_to_json,
    z_block_unitary,
)
from .lattice import (
    Atom,
    AtomFamily,
    CheckReport,
    LatticeGrid,
    VerificationCheck,
    Window,
    act,
    check_relations_lattice,
    check_window,
    lattice_grid,
    layer_units,
    relative_residual,
    shift,
    x_image,
)

_LETTER_OP = {"p": "P", "x": "X", "u": "U", "u^-1": "U*"}

# singular values at most RCOND times the largest count as zero, and
# positions within RCOND * max(1, largest |position|) as equal
RCOND = 1e-10


def act_element(element: AlgebraElement, grid: LatticeGrid,
                coeffs: np.ndarray) -> np.ndarray:
    """Act with a normal-form element on a stack of coefficient arrays.

    Each monomial p^r u^n / x^k u^n acts right to left: a shift by n layers,
    then r diagonal scales by P or k steps of X, each widening the occupied
    layers by one.  Raises, before any arithmetic, when a monomial would
    push support over the window edge: a silently truncated image would
    fake the algebraic identities.
    """
    size = coeffs.shape[-1]
    used = np.flatnonzero(np.any(coeffs.reshape(-1, size) != 0, axis=0))
    out = np.zeros(coeffs.shape, dtype=complex)
    s_value = math.sqrt(grid.family.q)
    for mono, coeff in element.items():
        n, reach = mono.uexp, (mono.power if mono.kind == "x" else 0)
        if used.size and (used[0] - n < reach
                          or used[-1] - n > size - 1 - reach):
            raise ValueError(
                f"monomial {mono} pushed support over the window edge")
        vec = shift(coeffs, n) if n else coeffs
        for _ in range(mono.power):
            vec = x_image(grid, vec) if reach else vec * grid.position
        out += complex(coeff.evaluate(s_value)) * vec
    return out


_LETTER_PAIRS = [(g1, g2) for g1 in GENERATOR_LETTERS
                 for g2 in GENERATOR_LETTERS]


@dataclass
class RepresentationReport(CheckReport):
    degree: int
    n_samples: int
    seed: int | None

    def to_json(self) -> dict:
        return {**super().to_json(), "degree": self.degree,
                "n_samples": self.n_samples, "seed": self.seed}


def verify_representation(family: AtomFamily, window: Window | None = None,
                          degree: int = 3, n_samples: int = 25,
                          seed: int | None = None,
                          tol: float = 1e-10) -> RepresentationReport:
    """Check that the lattice operators represent the algebra.

    The identities act on the interior ``layer_units``, those 2 * degree
    layers clear of the window edges, so no element of word length up to
    ``degree`` loses support; they span every vector supported there, so
    the checks are exhaustive on that subspace.  Three families of
    identities are measured, with one residual per basis vector:
    compositions of generator pairs against their normal forms, and, on
    ``n_samples`` pairs of random elements a, b drawn from ``seed``,
    products against composition of their actions and the involution
    against the operator adjoint.  The last is a matrix identity per atom:
    <a e_c, e_d> = <e_c, star(a) e_d> for all interior layers c, d.
    A window that ``check_window`` refuses raises ValueError.
    """
    rng = random.Random(seed)
    if window is None:
        window = Window(-2 * degree - 2, 2 * degree + 3)
    try:
        check_window(family, window)
    except ValueError as err:
        raise ValueError(f"representation window ({window.n_min}, "
                         f"{window.n_max}): {err}") from None
    grid = lattice_grid(family, window)
    margin = 2 * degree
    if grid.shape[1] <= 2 * margin or not grid.shape[0]:
        raise ValueError("window too small for the requested degree")
    interior = np.arange(margin, grid.shape[1] - margin)
    units = layer_units(grid)[interior]

    residuals = []
    for g1, g2 in _LETTER_PAIRS:
        direct, _ = act(_LETTER_OP[g2], grid, units)
        direct, _ = act(_LETTER_OP[g1], grid, direct)
        product = AlgebraElement.generator(g1) * AlgebraElement.generator(g2)
        residuals.append(relative_residual(
            direct, act_element(product, grid, units), axis=-1))
    worst_pairs = float(np.max(residuals, initial=0.0))

    worst_product = 0.0
    worst_star = 0.0
    for _ in range(n_samples):
        a = random_element(rng, max_terms=3, max_len=degree)
        b = random_element(rng, max_terms=3, max_len=degree)
        lhs = act_element(a * b, grid, units)
        rhs, image = act_element(
            a, grid, np.stack([act_element(b, grid, units), units]))
        worst_product = max(worst_product, float(np.max(
            relative_residual(lhs, rhs, axis=-1), initial=0.0)))
        # [atom, c, d]: <a e_c, e_d> on the left, <e_c, star(a) e_d> on
        # the right
        left = image[..., interior].swapaxes(0, 1)
        right = act_element(star(a), grid, units)[..., interior].conj()
        worst_star = max(worst_star, float(np.max(relative_residual(
            left, right.transpose(1, 2, 0), axis=(-2, -1)), initial=0.0)))

    checks = [
        VerificationCheck("generator products follow the defining relations",
                          worst_pairs, tol),
        VerificationCheck("element products compose operatorially",
                          worst_product, tol),
        VerificationCheck("the involution matches the operator adjoint",
                          worst_star, tol),
    ]
    return RepresentationReport(checks, degree, n_samples, seed)


def _intertwiner_system(p1: CommutantProblem, p2: CommutantProblem):
    """Linear system whose null vectors are pairs (A+, A-) with

        A+ P1+ = P2+ A+      A- P1- = P2- A-
        A+ V1' = V2' A-      A+ W1' = W2' A-

    The P are diagonal, so only the entries (i, j) of A± with |p2_i - p1_j|
    <= position_tol are unknowns and only the V'/W' rows (b, i, k) remain.
    Returns the matrix, each column's index in [vec(A+); vec(A-)] (row-major
    vec), position_tol and position_gap."""
    d, pos = p1.dim, (p1.plus_positions, p1.minus_positions,
                      p2.plus_positions, p2.minus_positions)
    tol = RCOND * np.max(np.abs(np.concatenate(pos)), initial=1.0)
    diffs = [np.abs(np.subtract.outer(pos[2], pos[0])),
             np.abs(np.subtract.outer(pos[3], pos[1]))]
    (ip, jp), (jm, km) = (np.nonzero(g <= tol) for g in diffs)
    cp, cm = np.split(np.arange(ip.size + jm.size), [ip.size])
    cols = np.zeros((cp.size + cm.size, 2, d, d), dtype=complex)
    cols[cp, :, ip, :] = np.stack([p1.vprime, p1.wprime], 1)[jp]
    cols[cm, :, :, km] = -np.stack([p2.vprime.T, p2.wprime.T], 1)[jm]
    gap = np.min(np.concatenate([g[g > tol] for g in diffs]), initial=math.inf)
    return (cols.reshape(len(cols), 2 * d * d).T, np.concatenate(
        [ip * d + jp, d * d + jm * d + km]), float(tol), float(gap))


def _null_space(p1: CommutantProblem, p2: CommutantProblem):
    """(basis, kept, dropped, position_tol, position_gap): with no more
    unknowns than rows, one thin SVD gives the values and the null basis."""
    mat, index, tol, gap = _intertwiner_system(p1, p2)
    _, svals, vh = np.linalg.svd(mat, full_matrices=False)
    rank = int(np.sum(svals > RCOND * np.max(svals, initial=1.0)))
    basis = np.zeros((2 * p1.dim ** 2, mat.shape[1] - rank), dtype=complex)
    basis[index] = vh[rank:].conj().T
    kept = float(svals[rank - 1]) if rank > 0 else math.inf
    dropped = abs(float(svals[rank])) if rank < svals.size else 0.0
    return basis, kept, dropped, tol, gap


def commutant_dim(problem: CommutantProblem) -> int:
    return _null_space(problem, problem)[0].shape[1]


@dataclass
class IrreducibilityReport:
    """Commutant dimension with the health of the solve that found it (see
    ``_health_json``)."""

    dim: int
    commutant_dim: int
    smallest_kept_sv: float
    largest_dropped_sv: float
    position_tol: float
    position_gap: float

    @property
    def irreducible(self) -> bool:
        return self.commutant_dim == 1

    def to_json(self) -> dict:
        return {"dim": self.dim, "commutant_dim": self.commutant_dim,
                "irreducible": self.irreducible,
                **_health_json(self)}


def _health_json(report) -> dict:
    """How near the solve came to another answer: the singular values on
    both sides of the RCOND cut and the position differences on both sides
    of position_tol (a gap of null means no two positions differ)."""
    gap = report.position_gap
    return {"smallest_kept_sv": report.smallest_kept_sv,
            "largest_dropped_sv": report.largest_dropped_sv,
            "position_tol": report.position_tol,
            "position_gap": None if gap == math.inf else gap}


def irreducibility_report(problem: CommutantProblem) -> IrreducibilityReport:
    """Dimension of the commutant of the boundary data.  The identity pair
    always commutes, so the dimension is at least one; exactly one means
    the restriction is irreducible."""
    basis, *health = _null_space(problem, problem)
    return IrreducibilityReport(problem.dim, basis.shape[1], *health)


def _witness_residuals(p1, p2, a_plus, a_minus) -> dict[str, float]:
    g1p, g2p = np.diag(p1.plus_weights), np.diag(p2.plus_weights)
    g1m, g2m = np.diag(p1.minus_weights), np.diag(p2.minus_weights)
    sides = {
        "plus positions intertwine": (
            a_plus @ np.diag(p1.plus_positions),
            np.diag(p2.plus_positions) @ a_plus),
        "minus positions intertwine": (
            a_minus @ np.diag(p1.minus_positions),
            np.diag(p2.minus_positions) @ a_minus),
        "first boundary matrix intertwines": (
            a_plus @ p1.vprime, p2.vprime @ a_minus),
        "second boundary matrix intertwines": (
            a_plus @ p1.wprime, p2.wprime @ a_minus),
        "plus metric preserved": (a_plus.conj().T @ g2p @ a_plus, g1p),
        "minus metric preserved": (a_minus.conj().T @ g2m @ a_minus, g1m),
    }
    return {name: float(relative_residual(*pair))
            for name, pair in sides.items()}


@dataclass
class EquivalenceReport:
    verdict: str
    reason: str
    intertwiner_dim: int
    witness_plus: np.ndarray | None = None
    witness_minus: np.ndarray | None = None
    residuals: dict[str, float] = field(default_factory=dict)
    smallest_kept_sv: float | None = None
    largest_dropped_sv: float | None = None
    position_tol: float | None = None
    position_gap: float | None = None

    @property
    def residual(self) -> float:
        return max(self.residuals.values()) if self.residuals else math.inf

    def to_json(self) -> dict:
        return {"verdict": self.verdict, "reason": self.reason,
                "intertwiner_dim": self.intertwiner_dim,
                "residuals": dict(self.residuals),
                "witness_plus": matrix_to_json(self.witness_plus),
                "witness_minus": matrix_to_json(self.witness_minus),
                **_health_json(self)}


def unitary_equivalent(p1: CommutantProblem, p2: CommutantProblem,
                       tol: float = 1e-10) -> EquivalenceReport:
    """Decide unitary equivalence of two boundary problems.

    The verdict is "equivalent" only when a concrete metric-preserving
    intertwiner has been found and verified, "inequivalent" when no nonzero
    intertwiner exists at all (or the dimensions differ), and "undecided"
    when intertwiners exist but none could be certified, which is where
    reducible problems land.
    """
    if p1.dim != p2.dim:
        return EquivalenceReport(
            "inequivalent", "different numbers of boundary atoms", 0)
    if p1.dim == 0:
        return EquivalenceReport("equivalent", "both problems are empty", 0,
                                 np.zeros((0, 0)), np.zeros((0, 0)))

    basis, kept, dropped, position_tol, position_gap = _null_space(p1, p2)
    health = dict(smallest_kept_sv=kept, largest_dropped_sv=dropped,
                  position_tol=position_tol, position_gap=position_gap)
    n_dim = basis.shape[1]
    if n_dim == 0:
        return EquivalenceReport(
            "inequivalent", "no nonzero intertwiner exists", 0, **health)

    d, same = p1.dim, p1.data_equal(p2)
    candidates = []
    if same:
        candidates.append((np.eye(d, dtype=complex), np.eye(d, dtype=complex)))
    for col in range(n_dim):
        z = basis[:, col]
        candidates.append((z[:d * d].reshape(d, d), z[d * d:].reshape(d, d)))

    g1p, g2p = np.diag(p1.plus_weights), np.diag(p2.plus_weights)
    best: dict[str, float] = {}
    for a_plus, a_minus in candidates:
        scale = float(np.trace(a_plus.conj().T @ g2p @ a_plus).real
                      / np.trace(g1p).real)
        if scale <= 0:
            continue
        a_plus, a_minus = _canonical_phase(a_plus / math.sqrt(scale),
                                           a_minus / math.sqrt(scale), tol)
        residuals = _witness_residuals(p1, p2, a_plus, a_minus)
        if max(residuals.values()) <= tol:
            return EquivalenceReport(
                "equivalent", "verified metric-preserving intertwiner",
                n_dim, a_plus, a_minus, residuals, **health)
        if not best or max(residuals.values()) < max(best.values()):
            best = residuals

    # for identical data the null space just computed is the commutant
    if same:
        irreducible = n_dim == 1
    else:
        irreducible = commutant_dim(p1) == 1 and commutant_dim(p2) == 1
    if irreducible:
        reason = ("an intertwiner exists between irreducible problems but "
                  "failed unitary certification")
    else:
        reason = ("intertwiners exist but none certified; at least one "
                  "problem is reducible")
    return EquivalenceReport("undecided", reason, n_dim, residuals=best,
                             **health)


def _canonical_phase(a_plus: np.ndarray, a_minus: np.ndarray, tol: float):
    """Scale a witness by the unit phase that makes the largest-modulus
    entry of A+ real and positive, so that it does not depend on the phase
    LAPACK gave the null vector.  Moduli within a relative ``tol`` of the
    largest tie, and the first of them in row-major order wins: rounding
    must not pick between the unit entries of a permutation."""
    modulus = np.abs(a_plus).ravel()
    top = a_plus.flat[np.argmax(modulus >= (1.0 - tol) * modulus.max())]
    phase = abs(top) / top
    return a_plus * phase, a_minus * phase


def dft_matrix(dim: int) -> np.ndarray:
    j = np.arange(dim)
    return np.exp(2j * np.pi * np.outer(j, j) / dim) / math.sqrt(dim)


def _default_window() -> Window:
    return Window(-6, 8)


def single_atom_triple(q: float = 0.5, plus_position: float = 0.7,
                       minus_position: float = 0.7, plus_weight: float = 1.0,
                       minus_weight: float = 1.0, phases=(0.0, 0.0),
                       window: Window | None = None) -> ExtensionTriple:
    """One atom per sign; the whole family of restrictions is swept out by
    the two phases, and the phase difference is the equivalence invariant."""
    family = AtomFamily(q, [Atom(plus_position, plus_weight)],
                        [Atom(minus_position, minus_weight)])
    bmap = make_boundary_map(family, phases=tuple(phases))
    return ExtensionTriple(family, window or _default_window(), bmap)


def distinct_position_triple(q: float = 0.5, positions=(0.55, 0.7, 0.85),
                             block: np.ndarray | None = None,
                             window: Window | None = None) -> ExtensionTriple:
    """Distinct positions, unit weights, W' = 1 and V' a unitary block that
    mixes the atoms (discrete Fourier transform by default).

    Distinct positions force any commuting pair diagonal, and the block is
    validated to admit no nonscalar diagonal intertwiner, so the triple is
    irreducible.
    """
    positions = tuple(float(a) for a in positions)
    if len(set(positions)) != len(positions):
        raise ValueError("positions must be pairwise distinct")
    dim = len(positions)
    vprime = dft_matrix(dim) if block is None else np.asarray(block, complex)
    family = AtomFamily(q, [Atom(a) for a in positions],
                        [Atom(a) for a in positions])
    bmap = BoundaryMap(family, vprime, np.eye(dim))
    triple = ExtensionTriple(family, window or _default_window(), bmap)
    report = irreducibility_report(triple.bmap)
    if not report.irreducible:
        raise ValueError(
            "the chosen block leaves a nonscalar diagonal commutant; "
            "pick one that mixes all positions")
    return triple


def repeated_position_triple(q: float = 0.5, position: float = 0.7,
                             multiplicity: int = 2, weight: float = 1.0,
                             window: Window | None = None) -> ExtensionTriple:
    """A position carried by several atoms at once.  The multiplicity block
    commutes with everything, so the triple is deliberately reducible."""
    if multiplicity < 2:
        raise ValueError("repetition needs multiplicity >= 2")
    atoms = [Atom(position, weight) for _ in range(multiplicity)]
    family = AtomFamily(q, atoms, list(atoms))
    eye = np.eye(multiplicity)
    bmap = BoundaryMap(family, eye, eye)
    return ExtensionTriple(family, window or _default_window(), bmap)


def _default_contraction() -> np.ndarray:
    return 0.7 * np.eye(2) + 0.05 * np.eye(2, k=1)


def two_block_triple(q: float = 0.5, block_positions=(0.6, 0.8),
                     t_block: np.ndarray | None = None,
                     window: Window | None = None) -> ExtensionTriple:
    """Two distinct positions, each carried by a block of atoms, coupled
    through a strict contraction T via the block unitary

        V' = [[T, (1-TT*)^{1/2}], [-(1-T*T)^{1/2}, T*]],   W' = 1.

    Despite both positions being repeated, the triple is irreducible
    whenever nothing but scalars commutes with T and T* together; the
    default T is a Jordan-type contraction with that property, and its
    singular values squared are validated to stay inside [1/3, 2/3].
    """
    t = np.atleast_2d(np.asarray(
        _default_contraction() if t_block is None else t_block, dtype=complex))
    n = t.shape[0]
    if t.shape != (n, n):
        raise ValueError("the contraction block must be square")
    gram_eigs = np.linalg.eigvalsh(t.conj().T @ t)
    if gram_eigs.min() < 1.0 / 3.0 - 1e-12 or gram_eigs.max() > 2.0 / 3.0 + 1e-12:
        raise ValueError(
            f"T*T eigenvalues must lie in [1/3, 2/3], got "
            f"[{gram_eigs.min():.4f}, {gram_eigs.max():.4f}]")
    alpha, beta = (float(a) for a in block_positions)
    if alpha == beta:
        raise ValueError("the two block positions must differ")
    atoms = [Atom(alpha) for _ in range(n)] + [Atom(beta) for _ in range(n)]
    family = AtomFamily(q, atoms, list(atoms))
    bmap = BoundaryMap(family, z_block_unitary(t), np.eye(2 * n))
    triple = ExtensionTriple(family, window or _default_window(), bmap)
    # the commutant of the triple is {diag(X, X)} for X in the joint
    # commutant of T and T*, so the two are scalar together
    if commutant_dim(triple.bmap) != 1:
        raise ValueError("T and T* must have only scalar joint commutants")
    return triple


def build_catalog_triple(kind: int,
                         params: Mapping | None = None) -> ExtensionTriple:
    """Construct catalog example ``kind`` (1 through 5), with optional
    keyword overrides passed through to the underlying constructor."""
    kwargs = dict(params or {})
    if "window" in kwargs and not isinstance(kwargs["window"], Window):
        kwargs["window"] = Window.from_json(kwargs["window"])
    if kind == 1:
        return single_atom_triple(**kwargs)
    if kind == 2:
        defaults = dict(minus_position=0.6, minus_weight=2.0,
                        phases=(0.9, -0.4))
        defaults.update(kwargs)
        return single_atom_triple(**defaults)
    if kind == 3:
        return distinct_position_triple(**kwargs)
    if kind == 4:
        return repeated_position_triple(**kwargs)
    if kind == 5:
        return two_block_triple(**kwargs)
    raise ValueError(f"unknown catalog kind {kind}; choose 1..5")


def characterization_report(triple: ExtensionTriple,
                            tol: float = 1e-12) -> CheckReport:
    """Structural health check of a triple: the position operator has
    trivial kernel on the window, the lattice data really carries the
    defining relations, masses decay geometrically and the difference
    operator is symmetric away from the edges, all read off the lattice
    grid.  The relations make U an isometry: p x and x p fix U and U* from
    P and X, which with the symmetric X and u^-1 u = 1 gives U* U = 1.
    The boundary matrices are checked by ``verify_extension``."""
    family, window = triple.family, triple.window
    grid = lattice_grid(family, window)
    min_pos = float(np.min(np.abs(grid.position), initial=math.inf))
    checks = [VerificationCheck(
        "position operator has trivial kernel", min_pos, math.ulp(0.0),
        kind="min", detail="smallest unsigned lattice position on the window")]

    if min_pos > 0 and window.length >= 4:
        relations = check_relations_lattice(family, window, tol=tol).checks
        checks.append(VerificationCheck(
            "defining relations hold on the lattice",
            max(c.value for c in relations), tol))

        ratio = grid.mass[:, 1:] / grid.mass[:, :-1]
        checks.append(VerificationCheck(
            "point masses scale by q per layer",
            float(np.max(np.abs(ratio - family.q) / family.q, initial=0.0)),
            tol))

        # X's entry from interior layer n to n + 1 against the one back
        checks.append(VerificationCheck(
            "difference operator is symmetric on the interior",
            float(relative_residual(grid.x_up[:, 1:-2],
                                    grid.x_down[:, 2:-1].conj())), tol))
    else:
        checks.append(VerificationCheck(
            "defining relations hold on the lattice", math.inf, tol,
            detail="skipped: degenerate positions or window"))
    return CheckReport(checks)
