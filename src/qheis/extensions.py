"""Self-adjoint restrictions of the adjoint difference operator.

A restriction is carved out of the adjoint domain by linear boundary
conditions on the tail amplitudes.  Writing (xi, zeta) for the even and odd
amplitude vectors on each half axis, the conditions take the paired form

    xi+ + zeta+ = V (xi- + zeta-)
    xi+ - zeta+ = W (xi- - zeta-)

and the boundary form vanishes identically on the resulting domain exactly
when V and W are unitary for the boundary metric diag(w_j / a_j).  The
natural input data are primitive matrices V', W' that are isometries for the
plain atom-weight metric diag(w_j); the diagonal position rescaling

    V = diag(a+)^{1/2} V' diag(a-)^{-1/2}

converts a weight isometry into a boundary-metric unitary, so users supply
V', W' and the derived maps do the analytic work.

The boundary data is one record: a ``CommutantProblem`` holds the atom
positions and weights of each sign plus V' and W', and ``BoundaryMap`` is
that record built from an ``AtomFamily``, with the derived maps, the
boundary metric and the JSON round trip on top.

``assemble`` compresses the restricted operator to a finite model space:
every lattice site strictly inside the window, plus one conforming tail
remainder per minus atom and parity.  A remainder is a closed-form tail
that starts at layer n_max, given by its point values on the two parity
classes of layers.  The remainders are orthonormalised among themselves,
and they are orthogonal to the sites, so the model is one matrix in an
orthonormal basis, built from a few array operations; the site block is
written from the ``LatticeGrid`` X coefficients, and only the tail block
sums terms that cancel (see ``assemble``).
The model space sits inside the operator domain, so the matrix is
Hermitian up to rounding and its spectrum approximates the restriction's.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .adjoint import TailVector, apply_U, apply_X_star, boundary_form
from .lattice import (AtomFamily, CheckReport, VerificationCheck, Window,
                      lattice_grid, relative_residual)


def haar_unitary(dim: int, rng) -> np.ndarray:
    """Haar-distributed unitary matrix via QR of a complex Gaussian."""
    if dim == 0:
        return np.zeros((0, 0), dtype=complex)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    qmat, rmat = np.linalg.qr(z)
    phases = np.diag(rmat) / np.abs(np.diag(rmat))
    return qmat * phases


def psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Positive square root of a Hermitian PSD matrix, clipping the tiny
    negative eigenvalues that rounding introduces."""
    vals, vecs = np.linalg.eigh(np.asarray(mat, dtype=complex))
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def z_block_unitary(t_block) -> np.ndarray:
    """The block matrix [[T, (1-TT*)^{1/2}], [-(1-T*T)^{1/2}, T*]].

    Unitary for every contraction T, by the intertwining identity
    T f(T*T) = f(TT*) T.
    """
    t = np.atleast_2d(np.asarray(t_block, dtype=complex))
    n = t.shape[0]
    if t.shape != (n, n):
        raise ValueError("block must be square")
    if np.linalg.norm(t, 2) > 1.0 + 1e-12:
        raise ValueError("block must be a contraction")
    eye = np.eye(n)
    return np.block([[t, psd_sqrt(eye - t @ t.conj().T)],
                     [-psd_sqrt(eye - t.conj().T @ t), t.conj().T]])


@dataclass(eq=False)
class CommutantProblem:
    """Boundary data of one restriction, in primitive (weight-metric)
    coordinates: atom positions a and weights w per sign, and the two
    boundary matrices V' and W'.  Classification works on this alone."""

    plus_positions: np.ndarray
    plus_weights: np.ndarray
    minus_positions: np.ndarray
    minus_weights: np.ndarray
    vprime: np.ndarray
    wprime: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            dtype = complex if f.name.endswith("prime") else float
            setattr(self, f.name, np.asarray(getattr(self, f.name), dtype))
        if len(self.plus_positions) != len(self.minus_positions):
            raise ValueError(
                "boundary conditions need equally many atoms on both signs")

    @property
    def dim(self) -> int:
        return len(self.plus_positions)

    @classmethod
    def from_triple(cls, triple: "ExtensionTriple") -> "CommutantProblem":
        """The triple's boundary map, which is its commutant problem."""
        return triple.bmap

    def data_equal(self, other: "CommutantProblem") -> bool:
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))


class BoundaryMap(CommutantProblem):
    """The boundary data of a family's restriction, built from the family.

    ``vprime`` and ``wprime`` are square matrices satisfying the weight
    isometry V'* diag(w+) V' = diag(w-); the derived maps ``v`` and ``w``
    carry the diagonal position rescaling and are unitary for the boundary
    metric.  Pass validate=False to wrap matrices that deliberately break
    the isometry, e.g. to demonstrate failure reporting.
    """

    def __init__(self, family: AtomFamily, vprime, wprime,
                 validate: bool = True, phases=None):
        plus, minus = family.plus, family.minus
        super().__init__(
            [a.position for a in plus], [a.weight for a in plus],
            [a.position for a in minus], [a.weight for a in minus],
            _as_matrix(vprime, len(plus), len(minus), "Vprime"),
            _as_matrix(wprime, len(plus), len(minus), "Wprime"))
        self.phases = phases
        if validate:
            res = self.k_isometry_residual()
            if not res <= 1e-10:
                raise ValueError(
                    f"boundary matrices are not weight isometries "
                    f"(residual {res:.3g}); pass validate=False to keep them")

    def _derived(self, primitive: np.ndarray) -> np.ndarray:
        return ((np.sqrt(self.plus_positions)[:, None] * primitive)
                / np.sqrt(self.minus_positions)[None, :])

    @property
    def v(self) -> np.ndarray:
        return self._derived(self.vprime)

    @property
    def w(self) -> np.ndarray:
        return self._derived(self.wprime)

    def metric(self) -> tuple[np.ndarray, np.ndarray]:
        """The boundary metric w / a of each sign."""
        return (self.plus_weights / self.plus_positions,
                self.minus_weights / self.minus_positions)

    def k_isometry_residual(self) -> float:
        """nan when the products overflow."""
        gp, gm = np.diag(self.plus_weights), np.diag(self.minus_weights)
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.max([np.linalg.norm(m.conj().T @ gp @ m - gm)
                                 for m in (self.vprime, self.wprime)]))

    def to_json(self) -> dict:
        if self.phases is not None:
            return {"phases": {"v": self.phases[0], "w": self.phases[1]}}
        return {"Vprime": matrix_to_json(self.vprime),
                "Wprime": matrix_to_json(self.wprime)}

    @classmethod
    def from_json(cls, data, family: AtomFamily) -> "BoundaryMap":
        def finite(value, name: str) -> float:
            x = float(value)
            if not math.isfinite(x):
                raise ValueError(f"{name}: expected a finite number, got {x}")
            return x

        if "phases" in data:
            ph = data["phases"]
            return make_boundary_map(
                family, phases=(finite(ph["v"], "phases/v"),
                                finite(ph["w"], "phases/w")))
        def entry(c, name: str):
            if not isinstance(c, dict):
                raise TypeError(f"matrix entries are {{re, im}} objects, "
                                f"got {c!r}")
            return complex(finite(c.get("re", 0.0), f"{name}/re"),
                           finite(c.get("im", 0.0), f"{name}/im"))

        def parse(key):
            return np.array([[entry(c, f"{key}/{i}/{j}")
                              for j, c in enumerate(row)]
                             for i, row in enumerate(data[key])],
                            dtype=complex)
        return cls(family, parse("Vprime"), parse("Wprime"))

    def __repr__(self) -> str:
        return f"BoundaryMap(dim={self.dim})"


def matrix_to_json(m: np.ndarray | None) -> list | None:
    """Rows of {"re", "im"} entries; None for no matrix."""
    if m is None:
        return None
    return [[{"re": z.real, "im": z.imag} for z in row] for row in m]


def _as_matrix(m, rows: int, cols: int, name: str) -> np.ndarray:
    arr = np.atleast_2d(np.asarray(m, dtype=complex))
    if arr.shape != (rows, cols):
        raise ValueError(f"{name} must have shape {(rows, cols)}, got {arr.shape}")
    return arr


def make_boundary_map(family: AtomFamily, phases=None, vprime=None,
                      wprime=None) -> BoundaryMap:
    """Build a boundary map either from a phase pair (one atom per sign;
    the weight factor sqrt(w-/w+) is supplied automatically) or from
    explicit primitive matrices."""
    if phases is not None:
        if vprime is not None or wprime is not None:
            raise ValueError("give either phases or matrices, not both")
        if len(family.plus) != 1 or len(family.minus) != 1:
            raise ValueError("phase form needs exactly one atom per sign")
        pv, pw = float(phases[0]), float(phases[1])
        scale = math.sqrt(family.minus[0].weight / family.plus[0].weight)
        return BoundaryMap(family, [[scale * np.exp(1j * pv)]],
                           [[scale * np.exp(1j * pw)]], phases=(pv, pw))
    if vprime is None or wprime is None:
        raise ValueError("need both Vprime and Wprime")
    return BoundaryMap(family, vprime, wprime)


def random_boundary_map(family: AtomFamily, rng) -> BoundaryMap:
    """Uniformly random conforming boundary map: a Haar unitary conjugated
    into the weight metric, independently for V' and W'."""
    wp = np.sqrt(np.array([a.weight for a in family.plus], dtype=float))
    wm = np.sqrt(np.array([a.weight for a in family.minus], dtype=float))
    def sample():
        q = haar_unitary(len(wp), rng)
        return (q * wm[None, :]) / wp[:, None]
    return BoundaryMap(family, sample(), sample())


class ExtensionTriple:
    """An atom family, a window, and a boundary map: everything needed to
    model one self-adjoint restriction numerically."""

    __slots__ = ("family", "window", "bmap")

    def __init__(self, family: AtomFamily, window: Window, bmap: BoundaryMap):
        if window.length < 2:
            raise ValueError("restriction models need a window of length >= 2")
        if window.n_min > -1 or window.n_max < 0:
            raise ValueError("window must contain the layers -1 and 0")
        if any(not np.array_equal(mine, [a.position for a in atoms])
               for mine, atoms in ((bmap.plus_positions, family.plus),
                                   (bmap.minus_positions, family.minus))):
            raise ValueError("boundary map was built for a different family")
        self.family = family
        self.window = window
        self.bmap = bmap

    def to_json(self) -> dict:
        return {"family": self.family.to_json(),
                "window": self.window.to_json(),
                "map": self.bmap.to_json()}

    @classmethod
    def from_json(cls, data) -> "ExtensionTriple":
        family = AtomFamily.from_json(data["family"])
        window = Window.from_json(data["window"])
        bmap = BoundaryMap.from_json(data["map"], family)
        return cls(family, window, bmap)

    def __repr__(self) -> str:
        return (f"ExtensionTriple(q={self.family.q}, window={self.window}, "
                f"dim={self.bmap.dim})")


def domain_residual(f: TailVector, triple: ExtensionTriple) -> tuple[float, float]:
    """(residual, scale): boundary-metric norm of the condition violation,
    and the boundary-metric size of the tail data it is measured against;
    arrays of them for a stack."""
    bmap, d = triple.bmap, triple.bmap.dim
    _, even, odd = f.arrays()
    xi_p, zeta_p = even[..., :d], odd[..., :d]
    xi_m, zeta_m = even[..., d:], odd[..., d:]
    r1 = (xi_p + zeta_p) - (xi_m + zeta_m) @ bmap.v.T
    r2 = (xi_p - zeta_p) - (xi_m - zeta_m) @ bmap.w.T
    metric = np.concatenate(bmap.metric())
    res = np.sum((np.abs(r1) ** 2 + np.abs(r2) ** 2) * metric[:d], axis=-1)
    scale = np.sum((np.abs(even) ** 2 + np.abs(odd) ** 2) * metric, axis=-1)
    return np.sqrt(res), np.sqrt(scale)


def project_to_domain(f: TailVector, triple: ExtensionTriple) -> TailVector:
    """Replace the plus-side tails by the ones the boundary conditions
    dictate; the finite part and the minus tails are kept."""
    bmap, d = triple.bmap, triple.bmap.dim
    coeffs, even, odd = f.arrays()
    xi_m, zeta_m = even[..., d:], odd[..., d:]
    h = (xi_m + zeta_m) @ bmap.v.T
    k = (xi_m - zeta_m) @ bmap.w.T
    return TailVector.from_arrays(
        f.family, f.window, coeffs,
        np.concatenate([(h + k) / 2.0, xi_m], axis=-1),
        np.concatenate([(h - k) / 2.0, zeta_m], axis=-1), f.finite.lost)


def random_domain_vector(triple: ExtensionTriple, rng) -> TailVector:
    """Random unit vector in the restriction's domain: a complex normal
    value at each site two layers clear of the window edges where
    rng.random() < 0.3 (sites in ``basis_indices`` order), random even
    and odd minus tails, and the plus tails that make it conform."""
    grid = lattice_grid(triple.family, triple.window)
    rows, dim = grid.shape[0], len(triple.family.minus)
    normal = rng.standard_normal
    coeffs = np.zeros(grid.shape, dtype=complex)
    for row in coeffs:
        for c in range(2, len(row) - 2):
            if rng.random() < 0.3:
                row[c] = complex(normal(), normal())
    even, odd = np.zeros(rows, dtype=complex), np.zeros(rows, dtype=complex)
    even[rows - dim:] = normal(dim) + 1j * normal(dim)
    odd[rows - dim:] = normal(dim) + 1j * normal(dim)
    f = project_to_domain(TailVector.from_arrays(
        triple.family, triple.window, coeffs, even, odd), triple)
    return f.scale(1.0 / f.norm())


def conforming_tails(triple: ExtensionTriple) -> TailVector:
    """Stack of 2 * dim tails that spans the conforming ones: the unit minus
    tail of each parity and minus atom (the even ones first), made
    conforming by ``project_to_domain``, with no finite part."""
    grid, d = lattice_grid(triple.family, triple.window), triple.bmap.dim
    even, odd = (np.zeros((2 * d, 2 * d), dtype=complex) for _ in range(2))
    even[:d, d:] = odd[d:, d:] = np.eye(d)
    return project_to_domain(TailVector.from_arrays(
        triple.family, triple.window,
        np.zeros((2 * d,) + grid.shape, dtype=complex), even, odd), triple)


def remainder_amplitudes(triple: ExtensionTriple) -> tuple[np.ndarray, np.ndarray]:
    """Point values (A, B) of the conforming tail remainders: the
    ``conforming_tails`` cut off below layer n_max.  Remainder c has point
    value A[:, c] on layers n_max, n_max + 2, ... and B[:, c] on n_max + 1,
    n_max + 3, ...; rows run over the plus atoms, then the minus atoms.
    """
    _, even, odd = conforming_tails(triple).arrays()
    return (even.T, odd.T) if triple.window.n_max % 2 == 0 else (odd.T, even.T)


def remainder_coefficients(triple: ExtensionTriple) -> tuple[np.ndarray, np.ndarray]:
    """Site coefficients (alpha, beta) of orthonormal conforming tail
    remainders, in units of q^{N/2} for N = n_max: remainder c is
    alpha[:, c] q^m on the sites of layer N + 2m and beta[:, c] q^m on
    those of layer N + 2m + 1 (the q^N of the masses cancels in the model).

    The remainders (A, B) of ``remainder_amplitudes`` have these
    coefficients sqrt(w) A and sqrt(q w) B, and Gram matrix
    (alpha* alpha + beta* beta) / (1 - q^2) = L L*; both are multiplied
    by L^-*, so the span is kept and the Gram becomes the identity.
    """
    q, grid = triple.family.q, lattice_grid(triple.family, triple.window)
    first, second = remainder_amplitudes(triple)
    root_w = np.sqrt(grid.weights)[:, None]
    alpha, beta = root_w * first, math.sqrt(q) * root_w * second
    chol = np.linalg.cholesky(
        (alpha.conj().T @ alpha + beta.conj().T @ beta) / (1.0 - q * q))
    return (np.linalg.solve(chol.conj(), alpha.T).T,
            np.linalg.solve(chol.conj(), beta.T).T)


@dataclass
class AssembledOperator:
    """Finite Hermitian model of a self-adjoint restriction.

    ``matrix`` is the restricted operator in the orthonormal model basis;
    it is Hermitian because the model space sits inside the operator
    domain.  Labels name each basis vector: sites as ("site", sign, j, n),
    orthonormal tail remainders as ("tail", parity, k).
    """

    labels: list[tuple]
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.labels)

    def hermiticity_residual(self) -> float:
        """|H - H*| / max(1, |H|) in Frobenius norms, read only from the
        entries ``assemble`` writes (it writes no others): the first
        off-diagonals of the site block, the tail rows and the site part of
        the tail columns, so no dense copy of the model is made."""
        h, n = self.matrix, len(self.site_label_indices())
        lower, upper = np.diagonal(h[:n, :n], -1), np.diagonal(h[:n, :n], 1)
        return float(relative_residual(
            np.concatenate([lower, upper, h[n:].ravel(), h[:n, n:].ravel()]),
            np.concatenate([upper, lower, h[:, n:].T.ravel(),
                            h[n:, :n].T.ravel()]).conj()))

    def hermitian_matrix(self) -> np.ndarray:
        """``matrix`` itself, not a copy."""
        return self.matrix

    def spectrum(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    def site_label_indices(self) -> list[int]:
        return [i for i, lab in enumerate(self.labels) if lab[0] == "site"]


def assemble(triple: ExtensionTriple) -> AssembledOperator:
    """Compress the restriction onto interior sites plus orthonormal tail
    remainders, with every matrix entry in closed form.

    Sites are orthonormal, and the site block is X between them.  The
    remainders of ``remainder_coefficients`` are orthonormal and vanish
    below N = n_max, so they are orthogonal to the sites.  X* of a
    remainder with point values (A, B) has point values (i / t_{N-1})(-A)
    at layer N - 1 and (i / t_N)(-B) at layer N, and no others.

    Only the tail block -alpha* diag(up / q) beta cancels: its terms, of
    size |up| / q, cancel between the plus and minus atoms (to zero where
    their positions coincide), so its rounding is of order eps |up| / q.
    """
    family, window = triple.family, triple.window
    q, grid = family.q, lattice_grid(family, window)
    layers = range(window.n_min + 1, window.n_max)
    labels = [("site", sign, j, n) for sign, j in grid.keys for n in layers]
    n_sites = len(labels)
    labels += [("tail", parity, k) for parity in ("even", "odd")
               for k in range(len(family.minus))]
    alpha, beta = remainder_coefficients(triple)

    matrix = np.zeros((len(labels), len(labels)), dtype=complex)
    # sites[i, k] is the model index of atom i at grid column k + 1; X moves
    # each site one layer up (x_up) and one down (x_down) within its atom
    sites = np.arange(n_sites).reshape(len(grid.keys), len(layers))
    matrix[sites[:, 1:], sites[:, :-1]] = grid.x_up[:, 1:-2]
    matrix[sites[:, :-1], sites[:, 1:]] = grid.x_down[:, 2:-1]
    # X sends the top interior site, at layer N - 1, to layer N with
    # coefficient (i / t_{N-1}) q^{-1/2}
    top = sites[:, -1]
    up = 1j / (grid.position[:, -2] * math.sqrt(q))
    matrix[n_sites:, top] = (up[:, None] * alpha.conj()).T
    matrix[top, n_sites:] = -up[:, None] * alpha
    matrix[n_sites:, n_sites:] = -alpha.conj().T @ ((up / q)[:, None] * beta)
    return AssembledOperator(labels, matrix)


def spectrum(triple: ExtensionTriple) -> np.ndarray:
    """Eigenvalues of the assembled finite model, ascending."""
    return assemble(triple).spectrum()


def _partial_geometric_sum(r: float, terms: int) -> float:
    """1 + r + ... + r^(terms - 1) in O(log terms) steps, by binary doubling
    of S_k = 1 + ... + r^(k - 1): S_2k = S_k (1 + r^k), S_k+1 = 1 + r S_k.
    As q nears 1 the check below needs about 41 / (1 - q) terms.  Each r^k
    is one power, as repeated squaring would carry a relative error of
    order k times the rounding unit into the sum."""
    total, k = 0.0, 0
    for bit in bin(terms)[2:]:
        total, k = total * (1.0 + r ** k), 2 * k
        if bit == "1":
            total, k = 1.0 + r * total, k + 1
    return total


def _tail_checks(triple: ExtensionTriple,
                 tol: float) -> list[VerificationCheck]:
    """The checks of ``verify_extension`` on tail vectors, each on a set
    that spans what it checks, so that it is exact and exhaustive.

    The pairing and ``domain_residual`` read only tail amplitudes, and
    ``apply_U`` maps tails to tails whatever the finite part, so
    ``conforming_tails`` decides them.  The pairing formula holds on the
    whole adjoint domain, and both its sides vanish on conforming pairs,
    so the direct evaluation <X* f, g> - <f, X* g> runs on every unit tail
    and on the finite units at layers -1 and 0, where X* puts a tail's
    contributions.  Other finite units add nothing: below those layers
    both terms vanish, at n >= 1 <X e_n, g> cancels (q^-1/2 root_mass(n+1)
    = q^1/2 root_mass(n-1)), and between finite parts it is the symmetry
    of X that ``characterization_report`` checks.  Stacks pair by
    broadcasting, with no array over pairs and sites."""
    family, window = triple.family, triple.window
    q, grid = family.q, lattice_grid(family, window)
    tails, k = conforming_tails(triple), 2 * triple.bmap.dim
    tails = tails.scale(1.0 / tails.norm())
    checks = [VerificationCheck(
        "boundary pairing vanishes on conforming pairs",
        float(np.max(np.abs(boundary_form(tails[:, None], tails[None])),
                     initial=0.0)), tol,
        detail=f"all {k * k} pairs of {k} unit conforming tails")]

    # the unit tails of every atom, even then odd, then the finite units
    rows = grid.shape[0]
    cols = [grid.column(n) for n in (-1, 0) if window.is_interior(n)]
    count = (2 + len(cols)) * rows
    coeffs = np.zeros((count,) + grid.shape, dtype=complex)
    even, odd = (np.zeros((count, rows), dtype=complex) for _ in range(2))
    even[:rows] = odd[rows:2 * rows] = np.eye(rows)
    member = np.arange(2 * rows, count)
    coeffs[member, member % rows, np.repeat(cols, rows)] = 1.0
    units = TailVector.from_arrays(family, window, coeffs, even, odd)
    masses = units[:2 * rows].inner(units[:2 * rows])
    units = units.scale(1.0 / units.norm())
    images = apply_X_star(units)
    f, g, xf, xg = units[:, None], units[None], images[:, None], images[None]
    # the adjoint images carry factors 1 / t, so compare relative to them
    size, image_size = units.norm(), images.norm()
    scale = np.maximum(1.0, image_size[:, None] * size
                       + size[:, None] * image_size)
    direct = xf.inner(g) - f.inner(xg)
    checks.append(VerificationCheck(
        "pairing formula matches direct adjoint evaluation",
        float(np.max(np.abs(direct - boundary_form(f, g)) / scale,
                     initial=0.0)), tol,
        detail=f"all {count * count} pairs of {2 * rows} unit tails and "
               f"{count - 2 * rows} finite units at layers -1 and 0, "
               f"relative to the adjoint image size"))

    res, size = domain_residual(apply_U(tails), triple)
    checks.append(VerificationCheck(
        "shift keeps conforming vectors conforming",
        float(np.max(res / np.maximum(1.0, size), initial=0.0)), tol,
        detail=f"{k} unit conforming tails"))

    # each unit tail's mass against its partial geometric sum
    terms = int(math.ceil(math.log(1e-18 * (1 - q * q)) / (2 * math.log(q)))) + 1
    sums = (np.concatenate([grid.weights, q * grid.weights])
            * _partial_geometric_sum(q * q, terms))
    checks.append(VerificationCheck(
        "tail norms match their geometric sums",
        float(np.max(np.abs(masses - sums) / sums, initial=0.0)),
        max(tol, 1e-13), detail=f"partial sums to {terms} terms"))
    return checks


def verify_extension(triple: ExtensionTriple, n_pairs: int = 100,
                     seed: int | None = None,
                     tol: float = 1e-12) -> CheckReport:
    """Check everything that makes the restriction self-adjoint in practice.

    Checks that the boundary matrices are weight isometries, measures the
    boundary pairing on all pairs of a basis of the conforming tails,
    cross-checks the closed pairing formula against the direct adjoint
    evaluation on all pairs of unit tails and the finite units X* couples
    them to, verifies shift covariance of the domain on the conforming
    basis, the tail norm identities, and Hermiticity of the assembled
    model.  Nothing is drawn at random: ``n_pairs`` and ``seed`` are
    accepted for old callers and not read.
    """
    report = CheckReport([
        VerificationCheck("boundary matrices are weight isometries",
                          triple.bmap.k_isometry_residual(), max(tol, 1e-10)),
        *_tail_checks(triple, tol)])

    model = assemble(triple)
    report.checks.append(VerificationCheck(
        "assembled model is hermitian", model.hermiticity_residual(), tol,
        detail=f"dimension {model.dim}"))
    return report
