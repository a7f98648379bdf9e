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
classes of layers, so the model's Gram and action matrices are built from
a few array operations with no cancelling sums; the site block is written
from the ``LatticeGrid`` X coefficients.  The model space sits
inside the operator domain, so the compressed matrix is Hermitian up to
rounding and its spectrum approximates the restriction's.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .adjoint import TailVector, apply_U, apply_X_star, boundary_form
from .lattice import (AtomFamily, VerificationCheck, Window, lattice_grid,
                      relative_residual, sparse_sample)


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

    def h_unitarity_residual(self) -> float:
        gp, gm = (np.diag(g) for g in self.metric())
        return max(
            float(np.linalg.norm(m.conj().T @ gp @ m - gm))
            for m in (self.v, self.w))

    def to_json(self) -> dict:
        if self.phases is not None:
            return {"phases": {"v": self.phases[0], "w": self.phases[1]}}
        def rows(m):
            return [[{"re": z.real, "im": z.imag} for z in row] for row in m]
        return {"Vprime": rows(self.vprime), "Wprime": rows(self.wprime)}

    @classmethod
    def from_json(cls, data, family: AtomFamily,
                  validate: bool = True) -> "BoundaryMap":
        def finite(value, name: str) -> float:
            x = float(value)
            if not math.isfinite(x):
                raise ValueError(f"{name}: expected a finite number, got {x}")
            return x

        if "phases" in data:
            ph = data["phases"]
            return make_boundary_map(
                family, phases=(finite(ph["v"], "phases/v"),
                                finite(ph["w"], "phases/w")),
                validate=validate)
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
        return cls(family, parse("Vprime"), parse("Wprime"),
                   validate=validate)

    def __repr__(self) -> str:
        return f"BoundaryMap(dim={self.dim})"


def _as_matrix(m, rows: int, cols: int, name: str) -> np.ndarray:
    arr = np.atleast_2d(np.asarray(m, dtype=complex))
    if arr.shape != (rows, cols):
        raise ValueError(f"{name} must have shape {(rows, cols)}, got {arr.shape}")
    return arr


def make_boundary_map(family: AtomFamily, phases=None, vprime=None,
                      wprime=None, validate: bool = True) -> BoundaryMap:
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
                           [[scale * np.exp(1j * pw)]],
                           validate=validate, phases=(pv, pw))
    if vprime is None or wprime is None:
        raise ValueError("need both Vprime and Wprime")
    return BoundaryMap(family, vprime, wprime, validate=validate)


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
    def from_json(cls, data, validate: bool = True) -> "ExtensionTriple":
        family = AtomFamily.from_json(data["family"])
        window = Window.from_json(data["window"])
        bmap = BoundaryMap.from_json(data["map"], family, validate=validate)
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


def in_domain(f: TailVector, triple: ExtensionTriple,
              tol: float = 1e-10) -> bool:
    res, scale = domain_residual(f, triple)
    return bool(res <= tol * max(1.0, scale))


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


def random_domain_vectors(triple: ExtensionTriple, rng, count: int,
                          margin: int = 2, density: float = 0.3) -> TailVector:
    """A stack of ``count`` vectors drawn as ``count`` calls of
    ``random_domain_vector`` on the same rng would draw them."""
    grid = lattice_grid(triple.family, triple.window)
    rows, dim = grid.shape[0], len(triple.family.minus)
    coeffs = np.zeros((count,) + grid.shape, dtype=complex)
    even, odd = (np.zeros((count, rows), dtype=complex) for _ in range(2))
    normal = rng.standard_normal
    for k in range(count):
        coeffs[k] = sparse_sample(grid, margin, density, rng.random,
                                  lambda: complex(normal(), normal()))
        even[k, rows - dim:] = normal(dim) + 1j * normal(dim)
        odd[k, rows - dim:] = normal(dim) + 1j * normal(dim)
    f = project_to_domain(TailVector.from_arrays(
        triple.family, triple.window, coeffs, even, odd), triple)
    return f.scale(1.0 / f.norm())


def random_domain_vector(triple: ExtensionTriple, rng,
                         margin: int = 2, density: float = 0.3) -> TailVector:
    """Random unit vector in the restriction's domain: random minus tails,
    conforming plus tails, and a sparse finite part clear of the window
    edges."""
    return random_domain_vectors(triple, rng, 1, margin, density)[0]


def remainder_amplitudes(triple: ExtensionTriple) -> tuple[np.ndarray, np.ndarray]:
    """Point values (A, B) of the conforming tail remainders: the unit
    minus tail of each parity and minus atom, made conforming as in
    ``project_to_domain`` and cut off below layer n_max.  Remainder c has
    point value A[:, c] on layers n_max, n_max + 2, ... and B[:, c] on
    n_max + 1, n_max + 3, ...; rows run over the plus atoms, then the minus
    atoms, and columns over the even remainders, then the odd ones.
    """
    bmap = triple.bmap
    dim = bmap.dim
    eye = np.eye(dim)
    zero = np.zeros((dim, dim))
    total, diff = (bmap.v + bmap.w) / 2.0, (bmap.v - bmap.w) / 2.0
    even = np.block([[total, diff], [eye, zero]])
    odd = np.block([[diff, total], [zero, eye]])
    return (even, odd) if triple.window.n_max % 2 == 0 else (odd, even)


@dataclass
class AssembledOperator:
    """Finite Hermitian model of a self-adjoint restriction.

    ``gram`` and ``form`` are the Gram and action matrices of the model
    basis; the orthonormalized matrix is Hermitian because the model space
    sits inside the operator domain.  Labels name each basis vector: sites
    as ("site", sign, j, n), tail remainders as ("tail", parity, k).
    """

    triple: ExtensionTriple
    labels: list[tuple]
    gram: np.ndarray
    form: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.labels)

    def hermiticity_residual(self) -> float:
        return float(relative_residual(self.form, self.form.conj().T))

    def hermitian_matrix(self) -> np.ndarray:
        """The model matrix in an orthonormal basis: L^{-1} R L^{-*} for the
        Cholesky factor gram = L L* (the reduction of the generalized
        Hermitian eigenproblem R v = lambda G v to a standard one)."""
        inv = np.linalg.inv(np.linalg.cholesky(self.gram))
        return inv @ self.form @ inv.conj().T

    def spectrum(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.hermitian_matrix())

    def site_label_indices(self) -> list[int]:
        return [i for i, lab in enumerate(self.labels) if lab[0] == "site"]


def assemble(triple: ExtensionTriple) -> AssembledOperator:
    """Compress the restriction onto interior sites plus conforming tail
    remainders, with every matrix entry in closed form and no cancellation.

    Sites are orthonormal, and the form's site block is X between them.  A
    remainder (A, B) of ``remainder_amplitudes`` vanishes below N = n_max,
    so it is orthogonal to the sites; remainders c, d have Gram entry
    q^N / (1 - q^2) sum_j w_j (A_cj conj(A_dj) + q B_cj conj(B_dj)), and
    each is normalized by its own.  X* r has point values (i / t_{N-1})(-A)
    at layer N - 1 and (i / t_N)(-B) at layer N, and no others.
    """
    family, window = triple.family, triple.window
    q, grid = family.q, lattice_grid(family, window)
    layers = range(window.n_min + 1, window.n_max)
    labels = [("site", sign, j, n) for sign, j in grid.keys for n in layers]
    n_sites = len(labels)
    labels += [("tail", parity, k) for parity in ("even", "odd")
               for k in range(len(family.minus))]

    # basis coefficients of the normalized remainders on layers N and N + 1;
    # q^N cancels between the tail mass and the point masses
    first, second = remainder_amplitudes(triple)
    root_w = np.sqrt(grid.weights)
    alpha = root_w[:, None] * first
    beta = math.sqrt(q) * root_w[:, None] * second
    scale = np.sqrt((1.0 - q * q) / np.sum(
        np.abs(alpha) ** 2 + np.abs(beta) ** 2, axis=0))
    alpha, beta = alpha * scale, beta * scale

    dim = len(labels)
    gram = np.eye(dim, dtype=complex)
    gram[n_sites:, n_sites:] = (alpha.conj().T @ alpha
                                + beta.conj().T @ beta) / (1.0 - q * q)
    form = np.zeros((dim, dim), dtype=complex)
    # sites[i, k] is the model index of atom i at grid column k + 1; X moves
    # each site one layer up (x_up) and one down (x_down) within its atom
    sites = np.arange(n_sites).reshape(len(grid.keys), len(layers))
    form[sites[:, 1:], sites[:, :-1]] = grid.x_up[:, 1:-2]
    form[sites[:, :-1], sites[:, 1:]] = grid.x_down[:, 2:-1]
    # X sends the top interior site, at layer N - 1, to layer N with
    # coefficient (i / t_{N-1}) q^{-1/2}
    top = sites[:, -1]
    up = 1j / (grid.position[:, -2] * math.sqrt(q))
    form[n_sites:, top] = (up[:, None] * alpha.conj()).T
    form[top, n_sites:] = -up[:, None] * alpha
    form[n_sites:, n_sites:] = -alpha.conj().T @ ((up / q)[:, None] * beta)
    return AssembledOperator(triple, labels, gram, form)


def spectrum(triple: ExtensionTriple) -> np.ndarray:
    """Eigenvalues of the assembled finite model, ascending."""
    return assemble(triple).spectrum()


@dataclass
class ExtensionReport:
    checks: list[VerificationCheck] = field(default_factory=list)
    n_pairs: int = 0
    seed: int | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {"passed": self.passed, "n_pairs": self.n_pairs,
                "seed": self.seed,
                "checks": [c.to_json() for c in self.checks]}


def _sampled_checks(triple: ExtensionTriple, rng, n_pairs: int,
                    tol: float) -> list[VerificationCheck]:
    """The checks of ``verify_extension`` on random domain vectors: pairing,
    direct adjoint evaluation and shift covariance.  Every vector is drawn
    first, in the order of the checks that use them: the pairs as f then g,
    then the shift vectors."""
    vectors = random_domain_vectors(triple, rng,
                                    2 * n_pairs + min(n_pairs, 20))
    f, g = vectors[0:2 * n_pairs:2], vectors[1:2 * n_pairs:2]
    forms = boundary_form(f, g)
    checks = [VerificationCheck(
        "boundary pairing vanishes on conforming pairs",
        float(np.max(np.abs(forms), initial=0.0)), tol,
        detail=f"{n_pairs} random unit pairs")]

    # the direct evaluation sums adjoint images whose entries grow like
    # q^{-n} toward the window top, so compare relative to them
    f, g = f[:10], g[:10]
    xf, xg = apply_X_star(f), apply_X_star(g)
    scale = np.maximum(1.0, xf.norm() * g.norm() + f.norm() * xg.norm())
    direct = xf.inner(g) - f.inner(xg)
    checks.append(VerificationCheck(
        "pairing formula matches direct adjoint evaluation",
        float(np.max(np.abs(direct - forms[:10]) / scale, initial=0.0)),
        tol, detail="first 10 pairs, relative to the adjoint image size"))

    res, scale = domain_residual(apply_U(vectors[2 * n_pairs:]), triple)
    checks.append(VerificationCheck(
        "shift keeps conforming vectors conforming",
        float(np.max(res / np.maximum(1.0, scale), initial=0.0)), tol))
    return checks


def verify_extension(triple: ExtensionTriple, n_pairs: int = 100,
                     seed: int | None = None,
                     tol: float = 1e-12) -> ExtensionReport:
    """Check everything that makes the restriction self-adjoint in practice.

    Draws random conforming pairs and measures the boundary pairing on
    them, cross-checks the closed pairing formula against the direct
    adjoint evaluation, exhibits a non-conforming pair with a visibly
    nonzero pairing, verifies shift covariance of the domain, the tail
    norm identities, and Hermiticity of the assembled model.
    """
    rng = np.random.default_rng(seed)
    report = ExtensionReport(n_pairs=n_pairs, seed=seed)
    family = triple.family
    q = family.q

    report.checks.append(VerificationCheck(
        "boundary matrices are weight isometries",
        triple.bmap.k_isometry_residual(), max(tol, 1e-10)))
    report.checks.append(VerificationCheck(
        "derived maps are boundary-metric unitaries",
        triple.bmap.h_unitarity_residual(), max(tol, 1e-10)))

    pairs_checked, direct_checked, shift_checked = _sampled_checks(
        triple, rng, n_pairs, tol)
    report.checks += [pairs_checked, direct_checked]

    if triple.bmap.dim > 0:
        unit = np.zeros(triple.bmap.dim, dtype=complex)
        unit[0] = 1.0
        f_bad = TailVector.pure_tail(family, triple.window, even={+1: unit})
        g_bad = TailVector.pure_tail(family, triple.window, odd={+1: unit})
        ratio = float(abs(boundary_form(f_bad, g_bad))
                      / (f_bad.norm() * g_bad.norm()))
        report.checks.append(VerificationCheck(
            "non-conforming pair shows a nonzero pairing", ratio, 1e-3,
            kind="min", detail="plus-side even vs odd unit tails"))

    report.checks.append(shift_checked)

    # one unit tail per atom and parity, against its partial geometric sum
    grid = lattice_grid(family, triple.window)
    rows = grid.shape[0]
    terms = int(math.ceil(math.log(1e-18 * (1 - q * q)) / (2 * math.log(q)))) + 1
    units, none = np.eye(rows, dtype=complex), np.zeros((rows, rows))
    worst_norm = 0.0
    for parity, tails in ((0, (units, none)), (1, (none, units))):
        unit = TailVector.from_arrays(family, triple.window, np.zeros(
            (rows,) + grid.shape, dtype=complex), *tails)
        sums = np.array([sum(w * q ** (2 * m + parity) for m in range(terms))
                         for w in grid.weights])
        worst_norm = max(worst_norm, float(np.max(
            np.abs(unit.inner(unit) - sums) / sums, initial=0.0)))
    report.checks.append(VerificationCheck(
        "tail norms match their geometric sums", worst_norm, max(tol, 1e-13),
        detail=f"partial sums to {terms} terms"))

    model = assemble(triple)
    report.checks.append(VerificationCheck(
        "assembled model is hermitian", model.hermiticity_residual(), tol,
        detail=f"dimension {model.dim}"))
    return report
