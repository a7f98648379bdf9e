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

``assemble`` compresses the restricted operator to a finite model space:
every lattice site strictly inside the window, plus one conforming tail
remainder per minus atom and parity.  The model space sits inside the
operator domain, so the compressed matrix is Hermitian up to rounding and
its spectrum approximates the restriction's.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .adjoint import (
    BoundarySpaceView,
    TailVector,
    apply_U,
    apply_X_star,
    boundary_form,
)
from .lattice import AtomFamily, LatticeVector, Window, basis_indices


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


class BoundaryMap:
    """Primitive boundary matrices tying minus-side tails to the plus side.

    ``vprime`` and ``wprime`` are square matrices satisfying the weight
    isometry V'* diag(w+) V' = diag(w-); the derived maps ``v`` and ``w``
    carry the diagonal position rescaling and are unitary for the boundary
    metric.  Pass validate=False to wrap matrices that deliberately break
    the isometry, e.g. to demonstrate failure reporting.
    """

    __slots__ = ("plus", "minus", "vprime", "wprime", "phases")

    def __init__(self, family: AtomFamily, vprime, wprime,
                 validate: bool = True, phases=None):
        self.plus = BoundarySpaceView.from_family(family, +1)
        self.minus = BoundarySpaceView.from_family(family, -1)
        self.vprime = _as_matrix(vprime, self.plus.dim, self.minus.dim, "Vprime")
        self.wprime = _as_matrix(wprime, self.plus.dim, self.minus.dim, "Wprime")
        self.phases = phases
        if validate:
            if self.plus.dim != self.minus.dim:
                raise ValueError(
                    "boundary conditions need equally many atoms on both signs")
            res = self.k_isometry_residual()
            if res > 1e-10:
                raise ValueError(
                    f"boundary matrices are not weight isometries "
                    f"(residual {res:.3g}); pass validate=False to keep them")

    @property
    def dim(self) -> int:
        return self.plus.dim

    def _derived(self, primitive: np.ndarray) -> np.ndarray:
        left = np.sqrt(np.asarray(self.plus.positions, dtype=float))
        right = np.sqrt(np.asarray(self.minus.positions, dtype=float))
        return (left[:, None] * primitive) / right[None, :]

    @property
    def v(self) -> np.ndarray:
        return self._derived(self.vprime)

    @property
    def w(self) -> np.ndarray:
        return self._derived(self.wprime)

    def k_isometry_residual(self) -> float:
        gp, gm = self.plus.gram_K(), self.minus.gram_K()
        return max(
            float(np.linalg.norm(m.conj().T @ gp @ m - gm))
            for m in (self.vprime, self.wprime))

    def h_unitarity_residual(self) -> float:
        gp, gm = self.plus.gram_H(), self.minus.gram_H()
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
        if "phases" in data:
            ph = data["phases"]
            return make_boundary_map(
                family, phases=(float(ph["v"]), float(ph["w"])),
                validate=validate)
        def parse(rows):
            return np.array([[complex(float(c.get("re", 0.0)),
                                      float(c.get("im", 0.0))) for c in row]
                             for row in rows], dtype=complex)
        return cls(family, parse(data["Vprime"]), parse(data["Wprime"]),
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
        if (bmap.plus.positions != tuple(a.position for a in family.plus)
                or bmap.minus.positions != tuple(a.position for a in family.minus)):
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
    and the boundary-metric size of the tail data it is measured against."""
    bmap = triple.bmap
    xi_p, zeta_p = f.tails(+1)
    xi_m, zeta_m = f.tails(-1)
    r1 = (xi_p + zeta_p) - bmap.v @ (xi_m + zeta_m)
    r2 = (xi_p - zeta_p) - bmap.w @ (xi_m - zeta_m)
    gh = np.diag(bmap.plus.gram_H())
    res = math.sqrt(float(
        np.sum(np.abs(r1) ** 2 * gh) + np.sum(np.abs(r2) ** 2 * gh)))
    scale = 0.0
    for view, sign in ((bmap.plus, +1), (bmap.minus, -1)):
        g = np.diag(view.gram_H())
        xi, zeta = f.tails(sign)
        scale += float(np.sum((np.abs(xi) ** 2 + np.abs(zeta) ** 2) * g))
    return res, math.sqrt(scale)


def in_domain(f: TailVector, triple: ExtensionTriple,
              tol: float = 1e-10) -> bool:
    res, scale = domain_residual(f, triple)
    return res <= tol * max(1.0, scale)


def project_to_domain(f: TailVector, triple: ExtensionTriple) -> TailVector:
    """Replace the plus-side tails by the ones the boundary conditions
    dictate; the finite part and the minus tails are kept."""
    bmap = triple.bmap
    xi_m, zeta_m = f.tails(-1)
    h = bmap.v @ (xi_m + zeta_m)
    k = bmap.w @ (xi_m - zeta_m)
    return TailVector(f.finite,
                      {+1: (h + k) / 2.0, -1: xi_m},
                      {+1: (h - k) / 2.0, -1: zeta_m})


def random_domain_vector(triple: ExtensionTriple, rng,
                         margin: int = 2, density: float = 0.3) -> TailVector:
    """Random unit vector in the restriction's domain: random minus tails,
    conforming plus tails, and a sparse finite part clear of the window
    edges."""
    family, window = triple.family, triple.window
    entries = {}
    for sign, j, n in basis_indices(family, window, margin=margin):
        if rng.random() < density:
            entries[(sign, j, n)] = complex(rng.standard_normal(),
                                            rng.standard_normal())
    def amps(dim):
        return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    dim = len(family.minus)
    f = TailVector(LatticeVector(family, window, entries),
                   {-1: amps(dim)}, {-1: amps(dim)})
    f = project_to_domain(f, triple)
    return f.scale(1.0 / f.norm())


def _remainder_vector(triple: ExtensionTriple, parity: str, k: int) -> TailVector:
    """Conforming tail pattern truncated to layers >= n_max: the canonical
    tail with unit minus amplitude at atom k, made conforming on the plus
    side, minus its own point values below the window top.  Orthogonal to
    every site inside the window by construction."""
    family, window = triple.family, triple.window
    dim = len(family.minus)
    unit = np.zeros(dim, dtype=complex)
    unit[k] = 1.0
    seed = TailVector.pure_tail(
        family, window,
        even={-1: unit} if parity == "even" else None,
        odd={-1: unit} if parity == "odd" else None)
    f = project_to_domain(seed, triple)
    entries = {}
    for sign in (+1, -1):
        for j in range(len(family.atoms(sign))):
            for n in range(max(0, window.n_min), window.n_max):
                pv = f.tail_point_value(sign, j, n)
                if pv != 0:
                    entries[(sign, j, n)] = -pv * math.sqrt(
                        family.weight(sign, j, n))
    correction = LatticeVector(family, window, entries)
    return TailVector(f.finite + correction, f.even, f.odd)


@dataclass
class AssembledOperator:
    """Finite Hermitian model of a self-adjoint restriction.

    ``gram`` and ``form`` are the Gram and action matrices over ``basis``;
    the orthonormalized matrix is Hermitian because the model space sits
    inside the operator domain.  Labels name each basis vector: sites as
    ("site", sign, j, n), tail remainders as ("tail", parity, k).
    """

    triple: ExtensionTriple
    labels: list[tuple]
    basis: list[TailVector]
    gram: np.ndarray
    form: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.labels)

    def hermiticity_residual(self) -> float:
        return float(np.linalg.norm(self.form - self.form.conj().T)
                     / max(1.0, np.linalg.norm(self.form)))

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
    remainders.  All basis vectors lie in the operator domain, and the
    adjoint images stay inside the window, so the compression is exact."""
    family, window = triple.family, triple.window
    basis: list[TailVector] = []
    labels: list[tuple] = []
    for sign, j, n in basis_indices(family, window, margin=1):
        basis.append(TailVector.from_finite(
            LatticeVector.basis_vector(family, window, sign, j, n)))
        labels.append(("site", sign, j, n))
    for parity in ("even", "odd"):
        for k in range(len(family.minus)):
            vec = _remainder_vector(triple, parity, k)
            basis.append(vec.scale(1.0 / vec.norm()))
            labels.append(("tail", parity, k))

    images = []
    for vec, lab in zip(basis, labels):
        img = apply_X_star(vec)
        if img.finite.lost:
            raise RuntimeError(f"adjoint image of {lab} left the window")
        images.append(img)

    dim = len(basis)
    gram = np.zeros((dim, dim), dtype=complex)
    form = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        for row in range(dim):
            gram[row, col] = basis[col].inner(basis[row])
            form[row, col] = images[col].inner(basis[row])
    return AssembledOperator(triple, labels, basis, gram, form)


def spectrum(triple: ExtensionTriple) -> np.ndarray:
    """Eigenvalues of the assembled finite model, ascending."""
    return assemble(triple).spectrum()


@dataclass
class VerificationCheck:
    """One named check: passes when value stays on the required side of the
    bound ("max": value <= bound, "min": value >= bound)."""

    name: str
    value: float
    bound: float
    kind: str = "max"
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.value <= self.bound if self.kind == "max" else self.value >= self.bound

    def to_json(self) -> dict:
        out = {"name": self.name, "value": self.value, "bound": self.bound,
               "kind": self.kind, "passed": self.passed}
        if self.detail:
            out["detail"] = self.detail
        return out


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

    worst_pairing = 0.0
    worst_mismatch = 0.0
    for it in range(n_pairs):
        f = random_domain_vector(triple, rng)
        g = random_domain_vector(triple, rng)
        worst_pairing = max(worst_pairing, abs(boundary_form(f, g)))
        if it < 10:
            # the direct evaluation sums adjoint images whose entries grow
            # like q^{-n} toward the window top, so compare relative to them
            xf, xg = apply_X_star(f), apply_X_star(g)
            scale = max(1.0, xf.norm() * g.norm() + f.norm() * xg.norm())
            direct = xf.inner(g) - f.inner(xg)
            worst_mismatch = max(
                worst_mismatch, abs(direct - boundary_form(f, g)) / scale)
    report.checks.append(VerificationCheck(
        "boundary pairing vanishes on conforming pairs", worst_pairing, tol,
        detail=f"{n_pairs} random unit pairs"))
    report.checks.append(VerificationCheck(
        "pairing formula matches direct adjoint evaluation", worst_mismatch,
        tol, detail="first 10 pairs, relative to the adjoint image size"))

    if triple.bmap.dim > 0:
        unit = np.zeros(triple.bmap.dim, dtype=complex)
        unit[0] = 1.0
        f_bad = TailVector.pure_tail(family, triple.window, even={+1: unit})
        g_bad = TailVector.pure_tail(family, triple.window, odd={+1: unit})
        ratio = abs(boundary_form(f_bad, g_bad)) / (f_bad.norm() * g_bad.norm())
        report.checks.append(VerificationCheck(
            "non-conforming pair shows a nonzero pairing", ratio, 1e-3,
            kind="min", detail="plus-side even vs odd unit tails"))

    worst_cov = 0.0
    for _ in range(min(n_pairs, 20)):
        f = random_domain_vector(triple, rng)
        uf = apply_U(f)
        res, scale = domain_residual(uf, triple)
        worst_cov = max(worst_cov, res / max(1.0, scale))
    report.checks.append(VerificationCheck(
        "shift keeps conforming vectors conforming", worst_cov, tol))

    worst_norm = 0.0
    terms = int(math.ceil(math.log(1e-18 * (1 - q * q)) / (2 * math.log(q)))) + 1
    for sign in (+1, -1):
        for j, atom in enumerate(family.atoms(sign)):
            unit = np.zeros(len(family.atoms(sign)), dtype=complex)
            unit[j] = 1.0
            even = TailVector.pure_tail(family, triple.window, even={sign: unit})
            odd = TailVector.pure_tail(family, triple.window, odd={sign: unit})
            even_sum = sum(atom.weight * q ** (2 * m) for m in range(terms))
            odd_sum = sum(atom.weight * q ** (2 * m + 1) for m in range(terms))
            worst_norm = max(
                worst_norm,
                abs(even.inner(even) - even_sum) / even_sum,
                abs(odd.inner(odd) - odd_sum) / odd_sum)
    report.checks.append(VerificationCheck(
        "tail norms match their geometric sums", worst_norm, max(tol, 1e-13),
        detail=f"partial sums to {terms} terms"))

    model = assemble(triple)
    report.checks.append(VerificationCheck(
        "assembled model is hermitian", model.hermiticity_residual(), tol,
        detail=f"dimension {model.dim}"))
    return report
