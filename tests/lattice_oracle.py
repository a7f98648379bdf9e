"""Dict-backed lattice vectors: the slow reference for the array layer.

``LatticeVector`` here keeps one dict entry per nonzero basis coefficient
and every operation loops over those entries, as the package did before
its vectors became arrays.  ``TailVector`` adds per-sign tail amplitude
arrays on top of it, and ``verify_extension``, ``verify_representation``
and ``characterization_report`` are the three verification suites written
vector by vector over these classes.  The first two are the sampled
suites: they check random vectors where the package checks spanning
sets, so they agree with it on every verdict but not on the values.
``random_domain_vector`` draws the package's stream.
``check_relations_unit_vectors`` is the array
relation check on the stack of all basis vectors, which the package's
per-layer check must match exactly.  ``tests/test_lattice_oracle.py``
compares the package against all of it on seeded inputs.  ``materialize``
writes the tails of a package vector out on a deep window, the reference
for the package's exact tail arithmetic.
"""
from __future__ import annotations

import math
import random

import numpy as np

from qheis import lattice
from qheis.algebra import GENERATOR_LETTERS, AlgebraElement, random_element, star
from qheis.classify import RepresentationReport
from qheis.extensions import assemble
from qheis.lattice import (GENERATOR_NAMES, CheckReport, VerificationCheck,
                           act, basis_indices, lattice_grid, relative_residual)


class LatticeVector:
    """Finitely supported vector: ``entries`` maps (sign, j, n) to the
    basis coefficient; ``lost`` records truncation at the window edge."""

    __slots__ = ("family", "window", "entries", "lost")

    def __init__(self, family, window, entries=None, lost=False):
        self.family = family
        self.window = window
        self.lost = bool(lost)
        clean = {}
        for (sign, j, n), v in (entries or {}).items():
            v = complex(v)
            if v == 0:
                continue
            if sign not in (+1, -1):
                raise ValueError(f"bad sign {sign!r}")
            if not 0 <= j < len(family.atoms(sign)):
                raise ValueError(f"atom index {j} out of range")
            if not window.contains(n):
                raise ValueError(f"index n={n} outside window {window}")
            clean[(sign, j, n)] = v
        self.entries = clean

    @classmethod
    def basis_vector(cls, family, window, sign, j, n):
        return cls(family, window, {(sign, j, n): 1.0 + 0j})

    @classmethod
    def of(cls, vector):
        """The oracle copy of a package vector."""
        return cls(vector.family, vector.window, vector.entries, vector.lost)

    def __add__(self, other):
        entries = dict(self.entries)
        for idx, v in other.entries.items():
            entries[idx] = entries.get(idx, 0j) + v
        return LatticeVector(self.family, self.window, entries,
                             self.lost or other.lost)

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def scale(self, c):
        return LatticeVector(self.family, self.window,
                             {idx: c * v for idx, v in self.entries.items()},
                             self.lost)

    def point_value(self, sign, j, n):
        c = self.entries.get((sign, j, n), 0j)
        if c == 0:
            return 0j
        return c / math.sqrt(self.family.weight(sign, j, n))

    def norm(self):
        return math.sqrt(sum(abs(v) ** 2 for v in self.entries.values()))

    def _check_compatible(self, other):
        if self.family != other.family or self.window != other.window:
            raise ValueError("vectors live on different lattices")


def inner(f, g):
    """Hilbert space inner product, linear in the first argument."""
    total = 0j
    for idx, v in f.entries.items():
        w = g.entries.get(idx)
        if w is not None:
            total += v * w.conjugate()
    return total


def inner_raw(f, g):
    """Direct weighted summation over raw point values: the sum of
    f(t) conj(g(t)) mu({t}).  Takes oracle and package vectors alike."""
    f._check_compatible(g)
    total = 0j
    for (sign, j, n) in set(f.entries) | set(g.entries):
        mu = f.family.weight(sign, j, n)
        total += (f.point_value(sign, j, n)
                  * g.point_value(sign, j, n).conjugate() * mu)
    return total


def apply_generator(gen, v):
    """One generator, entry by entry; images past the window are dropped
    and flagged."""
    if gen not in GENERATOR_NAMES:
        raise ValueError(f"unknown generator {gen!r}")
    family, window = v.family, v.window
    sq = family.sqrt_q
    out = {}
    lost = v.lost

    def put(idx, val):
        out[idx] = out.get(idx, 0j) + val

    for (sign, j, n), c in v.entries.items():
        if gen == "U":
            if window.contains(n - 1):
                put((sign, j, n - 1), c)
            else:
                lost = True
        elif gen == "U*":
            if window.contains(n + 1):
                put((sign, j, n + 1), c)
            else:
                lost = True
        elif gen == "P":
            put((sign, j, n), family.position(sign, j, n) * c)
        else:
            coeff = 1j / family.position(sign, j, n) * c
            if window.contains(n + 1):
                put((sign, j, n + 1), coeff / sq)
            else:
                lost = True
            if window.contains(n - 1):
                put((sign, j, n - 1), -coeff * sq)
            else:
                lost = True
    return LatticeVector(family, window, out, lost)


def matrix_of(gen, family, window):
    idx = basis_indices(family, window)
    pos = {t: k for k, t in enumerate(idx)}
    mat = np.zeros((len(idx), len(idx)), dtype=complex)
    for col, t in enumerate(idx):
        image = apply_generator(
            gen, LatticeVector.basis_vector(family, window, *t))
        for t2, val in image.entries.items():
            mat[pos[t2], col] = val
    return mat


def _matrix_residual(lhs, rhs):
    return float(np.linalg.norm(lhs - rhs)
                 / max(1.0, np.linalg.norm(lhs), np.linalg.norm(rhs)))


def _relative_residual(lhs, rhs):
    return (lhs - rhs).norm() / max(1.0, lhs.norm(), rhs.norm())


def _compose(gens, v):
    for gen in reversed(gens):
        v = apply_generator(gen, v)
    return v


def check_relations_lattice(family, window, tol=1e-12):
    q, sq = family.q, family.sqrt_q
    relations = [
        ("u p = q p u", lambda e: _compose("UP", e),
         lambda e: _compose("PU", e).scale(q)),
        ("u x = q^-1 x u", lambda e: _compose("UX", e),
         lambda e: _compose("XU", e).scale(1.0 / q)),
        ("u u^-1 = 1", lambda e: _compose(["U", "U*"], e), lambda e: e),
        ("u^-1 u = 1", lambda e: _compose(["U*", "U"], e), lambda e: e),
        ("p x = i q^1/2 u^-1 - i q^-1/2 u", lambda e: _compose("PX", e),
         lambda e: apply_generator("U*", e).scale(1j * sq)
         + apply_generator("U", e).scale(-1j / sq)),
        ("x p = i q^-1/2 u^-1 - i q^1/2 u", lambda e: _compose("XP", e),
         lambda e: apply_generator("U*", e).scale(1j / sq)
         + apply_generator("U", e).scale(-1j * sq)),
    ]
    checks = []
    for name, lhs_fn, rhs_fn in relations:
        worst, count = 0.0, 0
        for t in basis_indices(family, window):
            e = LatticeVector.basis_vector(family, window, *t)
            lhs, rhs = lhs_fn(e), rhs_fn(e)
            if lhs.lost or rhs.lost:
                continue
            worst = max(worst, _relative_residual(lhs, rhs))
            count += 1
        checks.append(VerificationCheck(name, worst, tol,
                                        detail=f"{count} basis vectors"))
    return CheckReport(checks)


def check_relations_unit_vectors(family, window, tol=1e-12):
    """The array relation check as it was before it read layer units: both
    sides of a relation act on the stack of all basis vectors, with one
    residual per vector."""
    q, sq = family.q, family.sqrt_q
    grid = lattice_grid(family, window)
    dim = grid.position.size
    basis = np.eye(dim, dtype=complex).reshape((dim,) + grid.shape)
    relations = [
        ("u p = q p u", "UP", [(q, "PU")]),
        ("u x = q^-1 x u", "UX", [(1.0 / q, "XU")]),
        ("u u^-1 = 1", ("U", "U*"), [(1.0, "")]),
        ("u^-1 u = 1", ("U*", "U"), [(1.0, "")]),
        ("p x = i q^1/2 u^-1 - i q^-1/2 u", "PX",
         [(1j * sq, ("U*",)), (-1j / sq, "U")]),
        ("x p = i q^-1/2 u^-1 - i q^1/2 u", "XP",
         [(1j / sq, ("U*",)), (-1j * sq, "U")]),
    ]
    checks = []
    for name, lhs, rhs in relations:
        lost = np.zeros(len(basis), dtype=bool)
        sides = []
        for terms in ([(1.0, lhs)], rhs):
            total = 0
            for c, word in terms:
                vecs = basis
                for gen in reversed(word):
                    vecs, step = act(gen, grid, vecs)
                    lost |= step
                total = total + c * vecs
            sides.append(total)
        residuals = relative_residual(*sides, axis=(-2, -1))[~lost]
        checks.append(VerificationCheck(
            name, float(np.max(residuals, initial=0.0)), tol,
            detail=f"{np.count_nonzero(~lost)} basis vectors"))
    return CheckReport(checks)


def materialize(f, window=None):
    """A package TailVector written out as plain entries on a window (its
    own by default): a package LatticeVector that truncates the tails at
    the window top, so it misses mass of order q^{n_max}."""
    target = window if window is not None else f.window
    if target.n_min > f.window.n_min or target.n_max < f.window.n_max:
        raise ValueError("materializing window must contain the source window")
    grid = lattice_grid(f.family, target)
    finite, even, odd = f.arrays()
    coeffs = np.zeros(grid.shape, dtype=complex)
    start = f.window.n_min - target.n_min
    coeffs[:, start:start + f.window.length + 1] = finite
    coeffs += even[:, None] * grid.tail_even + odd[:, None] * grid.tail_odd
    return lattice.LatticeVector.from_array(f.family, target, coeffs,
                                            f.finite.lost)


class TailVector:
    """Oracle finite part plus per-sign even and odd tail amplitudes."""

    def __init__(self, finite, even=None, odd=None):
        self.finite = finite
        self.even, self.odd = ({s: np.zeros(len(finite.family.atoms(s)),
                                            dtype=complex) for s in (+1, -1)}
                               for _ in range(2))
        for part, given in ((self.even, even), (self.odd, odd)):
            for s, arr in (given or {}).items():
                part[s] = np.asarray(arr, dtype=complex).copy()

    @classmethod
    def of(cls, f):
        """The oracle copy of a package TailVector."""
        return cls(LatticeVector.of(f.finite), f.even, f.odd)

    @property
    def family(self):
        return self.finite.family

    def tail_point_value(self, sign, j, n):
        if n >= 0 and n % 2 == 0:
            return complex(self.even[sign][j])
        if n >= 1:
            return complex(self.odd[sign][j])
        return 0j

    def scale(self, c):
        return TailVector(self.finite.scale(c),
                          {s: c * self.even[s] for s in (+1, -1)},
                          {s: c * self.odd[s] for s in (+1, -1)})

    def inner(self, other):
        total = inner(self.finite, other.finite)
        total += _finite_vs_tail(self.finite, other)
        total += _finite_vs_tail(other.finite, self).conjugate()
        q = self.family.q
        for sign in (+1, -1):
            for j, atom in enumerate(self.family.atoms(sign)):
                total += atom.weight / (1.0 - q * q) * (
                    self.even[sign][j] * np.conj(other.even[sign][j])
                    + q * self.odd[sign][j] * np.conj(other.odd[sign][j]))
        return complex(total)

    def norm(self):
        return math.sqrt(max(0.0, self.inner(self).real))


def _finite_vs_tail(v, t):
    total = 0j
    for (sign, j, n), c in v.entries.items():
        pv = t.tail_point_value(sign, j, n)
        if pv != 0:
            total += c * pv.conjugate() * math.sqrt(v.family.weight(sign, j, n))
    return total


def _add_point(entries, family, idx, pv):
    entries[idx] = entries.get(idx, 0j) + pv * math.sqrt(family.weight(*idx))


def apply_X_star(f):
    family = f.family
    image = apply_generator("X", f.finite)
    entries = dict(image.entries)
    for sign in (+1, -1):
        for j, atom in enumerate(family.atoms(sign)):
            xi, zeta = complex(f.even[sign][j]), complex(f.odd[sign][j])
            if xi != 0:
                _add_point(entries, family, (sign, j, -1),
                           -1j * sign * family.q * xi / atom.position)
            if zeta != 0:
                _add_point(entries, family, (sign, j, 0),
                           -1j * sign * zeta / atom.position)
    return TailVector(LatticeVector(family, f.finite.window, entries,
                                    image.lost))


def apply_U(f):
    family = f.family
    sq = family.sqrt_q
    image = apply_generator("U", f.finite)
    entries = dict(image.entries)
    for sign in (+1, -1):
        for j in range(len(family.atoms(sign))):
            xi = complex(f.even[sign][j])
            if xi != 0:
                _add_point(entries, family, (sign, j, -1), sq * xi)
    return TailVector(LatticeVector(family, f.finite.window, entries,
                                    image.lost),
                      {s: sq * f.odd[s] for s in (+1, -1)},
                      {s: sq * f.even[s] for s in (+1, -1)})


def boundary_form(f, g):
    total = 0j
    for sign in (+1, -1):
        block = 0j
        for j, atom in enumerate(f.family.atoms(sign)):
            block += atom.weight / atom.position * (
                f.even[sign][j] * np.conj(g.odd[sign][j])
                + f.odd[sign][j] * np.conj(g.even[sign][j]))
        total += -1j * sign * block
    return complex(total)


def domain_residual(f, triple):
    bmap = triple.bmap
    r1 = (f.even[+1] + f.odd[+1]) - bmap.v @ (f.even[-1] + f.odd[-1])
    r2 = (f.even[+1] - f.odd[+1]) - bmap.w @ (f.even[-1] - f.odd[-1])
    metric = {sign: np.array([a.weight / a.position
                              for a in f.family.atoms(sign)])
              for sign in (+1, -1)}
    res = math.sqrt(float(np.sum(np.abs(r1) ** 2 * metric[+1])
                          + np.sum(np.abs(r2) ** 2 * metric[+1])))
    scale = 0.0
    for sign in (+1, -1):
        scale += float(np.sum(
            (np.abs(f.even[sign]) ** 2 + np.abs(f.odd[sign]) ** 2)
            * metric[sign]))
    return res, math.sqrt(scale)


def project_to_domain(f, triple):
    bmap = triple.bmap
    xi_m, zeta_m = f.even[-1], f.odd[-1]
    h = bmap.v @ (xi_m + zeta_m)
    k = bmap.w @ (xi_m - zeta_m)
    return TailVector(f.finite, {+1: (h + k) / 2.0, -1: xi_m},
                      {+1: (h - k) / 2.0, -1: zeta_m})


def random_domain_vector(triple, rng):
    family, window = triple.family, triple.window
    entries = {}
    for sign, j, n in basis_indices(family, window, margin=2):
        if rng.random() < 0.3:
            entries[(sign, j, n)] = complex(rng.standard_normal(),
                                            rng.standard_normal())

    def amps(dim):
        return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)

    dim = len(family.minus)
    f = TailVector(LatticeVector(family, window, entries),
                   {-1: amps(dim)}, {-1: amps(dim)})
    f = project_to_domain(f, triple)
    return f.scale(1.0 / f.norm())


def verify_extension(triple, n_pairs=100, seed=None, tol=1e-12):
    """The extension suite, one vector at a time."""
    rng = np.random.default_rng(seed)
    report = CheckReport([])
    family = triple.family
    q = family.q
    report.checks.append(VerificationCheck(
        "boundary matrices are weight isometries",
        triple.bmap.k_isometry_residual(), max(tol, 1e-10)))

    worst_pairing = worst_mismatch = 0.0
    for it in range(n_pairs):
        f = random_domain_vector(triple, rng)
        g = random_domain_vector(triple, rng)
        worst_pairing = max(worst_pairing, abs(boundary_form(f, g)))
        if it < 10:
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

    worst_cov = 0.0
    for _ in range(min(n_pairs, 20)):
        res, scale = domain_residual(
            apply_U(random_domain_vector(triple, rng)), triple)
        worst_cov = max(worst_cov, res / max(1.0, scale))
    report.checks.append(VerificationCheck(
        "shift keeps conforming vectors conforming", worst_cov, tol))

    worst_norm = 0.0
    terms = int(math.ceil(math.log(1e-18 * (1 - q * q)) / (2 * math.log(q)))) + 1
    for sign in (+1, -1):
        for j, atom in enumerate(family.atoms(sign)):
            unit = np.zeros(len(family.atoms(sign)), dtype=complex)
            unit[j] = 1.0
            zero = LatticeVector(family, triple.window)
            even = TailVector(zero, {sign: unit})
            odd = TailVector(zero, None, {sign: unit})
            even_sum = sum(atom.weight * q ** (2 * m) for m in range(terms))
            odd_sum = sum(atom.weight * q ** (2 * m + 1) for m in range(terms))
            worst_norm = max(worst_norm,
                             abs(even.inner(even) - even_sum) / even_sum,
                             abs(odd.inner(odd) - odd_sum) / odd_sum)
    report.checks.append(VerificationCheck(
        "tail norms match their geometric sums", worst_norm, max(tol, 1e-13),
        detail=f"partial sums to {terms} terms"))

    matrix = assemble(triple).matrix
    report.checks.append(VerificationCheck(
        "assembled model is hermitian",
        _matrix_residual(matrix, matrix.conj().T), tol,
        detail=f"dimension {len(matrix)}"))
    return report


_LETTER_OP = {"p": "P", "x": "X", "u": "U", "u^-1": "U*"}


def element_image(element, v):
    out = LatticeVector(v.family, v.window)
    s_value = math.sqrt(v.family.q)
    for mono, coeff in element.items():
        vec = v
        for _ in range(abs(mono.uexp)):
            vec = apply_generator("U" if mono.uexp > 0 else "U*", vec)
        for _ in range(mono.power):
            vec = apply_generator(_LETTER_OP[mono.kind], vec)
        if vec.lost:
            raise ValueError(
                f"monomial {mono} pushed support over the window edge")
        out = out + vec.scale(complex(coeff.evaluate(s_value)))
    return out


def representation_samples(family, window, degree, n_samples, rng):
    """The random data of ``verify_representation``, drawn vector by
    vector: ([48 pair vectors], [(a, b, v, f, g) per sample])."""
    support = basis_indices(family, window, margin=2 * degree)

    def sample_vector():
        entries = {}
        for idx in support:
            if rng.random() < 0.5:
                entries[idx] = complex(rng.gauss(0, 1), rng.gauss(0, 1))
        if not entries:
            entries[support[0]] = 1.0 + 0j
        return LatticeVector(family, window, entries)

    pairs = [sample_vector() for _ in range(3 * len(GENERATOR_LETTERS) ** 2)]
    samples = []
    for _ in range(n_samples):
        a = random_element(rng, max_terms=3, max_len=degree)
        b = random_element(rng, max_terms=3, max_len=degree)
        v = sample_vector()
        f, g = sample_vector(), sample_vector()
        samples.append((a, b, v, f, g))
    return pairs, samples


def verify_representation(family, window=None, degree=3, n_samples=25,
                          seed=None, tol=1e-10):
    """The representation suite, one vector at a time."""
    if window is None:
        from qheis.lattice import Window
        window = Window(-2 * degree - 2, 2 * degree + 3)
    pairs, samples = representation_samples(family, window, degree,
                                            n_samples, random.Random(seed))
    worst_pairs = 0.0
    letter_pairs = [(g1, g2) for g1 in GENERATOR_LETTERS
                    for g2 in GENERATOR_LETTERS]
    for k, v in enumerate(pairs):
        g1, g2 = letter_pairs[k // 3]
        product = AlgebraElement.generator(g1) * AlgebraElement.generator(g2)
        direct = apply_generator(_LETTER_OP[g1],
                                 apply_generator(_LETTER_OP[g2], v))
        worst_pairs = max(worst_pairs, _relative_residual(
            direct, element_image(product, v)))
    worst_product = worst_star = 0.0
    for a, b, v, f, g in samples:
        lhs = element_image(a * b, v)
        rhs = element_image(a, element_image(b, v))
        worst_product = max(worst_product, _relative_residual(lhs, rhs))
        left = inner(element_image(a, f), g)
        right = inner(f, element_image(star(a), g))
        worst_star = max(worst_star, abs(left - right)
                         / max(1.0, abs(left), abs(right)))
    checks = [
        VerificationCheck("generator products follow the defining relations",
                          worst_pairs, tol),
        VerificationCheck("element products compose operatorially",
                          worst_product, tol),
        VerificationCheck("the involution matches the operator adjoint",
                          worst_star, tol),
    ]
    return RepresentationReport(checks, degree, n_samples, seed)


def characterization_report(triple, tol=1e-12):
    """The structural suite over oracle matrices and relation checks."""
    family, window = triple.family, triple.window
    checks = []
    min_pos = min((abs(family.position(*idx))
                   for idx in basis_indices(family, window)), default=math.inf)
    checks.append(VerificationCheck(
        "position operator has trivial kernel", min_pos, math.ulp(0.0),
        kind="min", detail="smallest unsigned lattice position on the window"))
    if min_pos > 0 and window.length >= 4:
        relations = check_relations_lattice(family, window, tol=tol).checks
        checks.append(VerificationCheck(
            "defining relations hold on the lattice",
            max(c.value for c in relations), tol))
        worst_mass = 0.0
        for sign, j, n in basis_indices(family, window):
            if n < window.n_max:
                ratio = family.weight(sign, j, n + 1) / family.weight(sign, j, n)
                worst_mass = max(worst_mass, abs(ratio - family.q) / family.q)
        checks.append(VerificationCheck(
            "point masses scale by q per layer", worst_mass, tol))
        order = basis_indices(family, window)
        xmat = matrix_of("X", family, window)
        interior = [k for k, (_, _, n) in enumerate(order)
                    if window.is_interior(n)]
        sub = xmat[np.ix_(interior, interior)]
        checks.append(VerificationCheck(
            "difference operator is symmetric on the interior",
            _matrix_residual(sub, sub.conj().T), tol))
    else:
        checks.append(VerificationCheck(
            "defining relations hold on the lattice", math.inf, tol,
            detail="skipped: degenerate positions or window"))
    return CheckReport(checks)
