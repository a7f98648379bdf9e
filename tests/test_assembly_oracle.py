"""The array-backed ``assemble`` against slow references.

``reference_assemble`` is the entry-by-entry assembly over TailVector
arithmetic: each remainder is a full conforming tail minus its own point
values below the window top, and every Gram and form entry is one
``TailVector.inner``.  Its remainder norms are an O(1) tail mass minus an
almost equal finite sum, so it is only trusted where q^n_max >= 1e-5.
Its Gram and action matrices give the model matrix L^-1 R L^-* for the
Cholesky factor G = L L*, and the eigenvalues of G^-1 R.  At every height
the remainders ``assemble`` uses are also checked to be orthonormal by
direct summation of point values, in floats and in exact rationals.
"""
import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from qheis.adjoint import TailVector, apply_X_star
from qheis.classify import build_catalog_triple
from qheis.extensions import (
    BoundaryMap,
    ExtensionTriple,
    assemble,
    project_to_domain,
    remainder_amplitudes,
    remainder_coefficients,
)
from qheis.lattice import Atom, AtomFamily, LatticeVector, Window, basis_indices

# (kind, q, n_max): the six heights at which the entry-by-entry assembly
# divided by a remainder norm that had cancelled to zero
DEFECT_CASES = [(kind, q, n_max) for kind in (1, 3)
                for q, n_max in ((0.2, 24), (0.3, 30), (0.5, 60))]


def reference_remainder(triple, parity, k):
    """Conforming tail pattern truncated to layers >= n_max."""
    family, window = triple.family, triple.window
    unit = np.zeros(len(family.minus), dtype=complex)
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


def reference_assemble(triple):
    """(labels, gram, form) with one TailVector.inner per entry."""
    family, window = triple.family, triple.window
    basis, labels = [], []
    for sign, j, n in basis_indices(family, window, margin=1):
        basis.append(TailVector(
            LatticeVector.basis_vector(family, window, sign, j, n)))
        labels.append(("site", sign, j, n))
    for parity in ("even", "odd"):
        for k in range(len(family.minus)):
            vec = reference_remainder(triple, parity, k)
            basis.append(vec.scale(1.0 / vec.norm()))
            labels.append(("tail", parity, k))
    images = [apply_X_star(vec) for vec in basis]
    assert not any(img.finite.lost for img in images)
    dim = len(basis)
    gram = np.zeros((dim, dim), dtype=complex)
    form = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        for row in range(dim):
            gram[row, col] = basis[col].inner(basis[row])
            form[row, col] = images[col].inner(basis[row])
    return labels, gram, form


def orthonormal_matrix(gram, form):
    """L^-1 R L^-* for the Cholesky factor gram = L L*: the action in the
    orthonormal basis that the Cholesky factor gives."""
    inv = np.linalg.inv(np.linalg.cholesky(gram))
    return inv @ form @ inv.conj().T


def oracle_amplitudes(triple):
    """Per remainder: (even, odd) point-value arrays over plus then minus
    atoms, from project_to_domain on a unit minus tail."""
    family, window = triple.family, triple.window
    out = []
    for parity in ("even", "odd"):
        for k in range(len(family.minus)):
            unit = np.zeros(len(family.minus), dtype=complex)
            unit[k] = 1.0
            f = project_to_domain(TailVector.pure_tail(
                family, window,
                even={-1: unit} if parity == "even" else None,
                odd={-1: unit} if parity == "odd" else None), triple)
            out.append((np.concatenate([f.even[+1], f.even[-1]]),
                        np.concatenate([f.odd[+1], f.odd[-1]])))
    return out


def used_amplitudes(triple):
    """Per remainder that ``assemble`` uses: (even, odd) point values over
    plus then minus atoms, in units of q^(-n_max / 2), read back from the
    site coefficients of ``remainder_coefficients``."""
    family, n_max = triple.family, triple.window.n_max
    weights = np.array([a.weight for s in (+1, -1) for a in family.atoms(s)])
    alpha, beta = remainder_coefficients(triple)
    first = alpha / np.sqrt(weights)[:, None]
    second = beta / np.sqrt(family.q * weights)[:, None]
    even, odd = (first, second) if n_max % 2 == 0 else (second, first)
    return [(even[:, c], odd[:, c]) for c in range(even.shape[1])]


def summed_gram(triple, amplitudes):
    """Gram of tail remainders with the given (even, odd) point values, in
    units of q^n_max, by direct summation over layers n_max ... n_max + L
    with q^L < 1e-20: only positive terms of one geometric series, no
    subtraction."""
    family, window = triple.family, triple.window
    q = family.q
    weights = np.array([a.weight for s in (+1, -1) for a in family.atoms(s)])
    extra = int(math.ceil(20 * math.log(10) / -math.log(q))) + 1
    gram = np.zeros((len(amplitudes),) * 2, dtype=complex)
    for n in range(window.n_max, window.n_max + extra + 1):
        values = np.array([even if n % 2 == 0 else odd
                           for even, odd in amplitudes])
        gram += (weights * q ** (n - window.n_max) * values) @ values.conj().T
    return gram.T


def catalog(kind, q, n_max, n_min=-6):
    return build_catalog_triple(
        kind, {"q": q, "window": {"n_min": n_min, "n_max": n_max}})


def oracle_configs():
    """Catalog kinds 1-5 over seeded q and heights with q^n_max >= 1e-5."""
    rng = random.Random(41)
    configs = []
    for kind in (1, 2, 3, 4, 5):
        for _ in range(3):
            q = rng.uniform(0.25, 0.55)
            top = min(int(math.log(1e-5) / math.log(q)), 10)
            configs.append((kind, q, rng.randint(0, top)))
    return configs


@functools.lru_cache(maxsize=None)
def reference_model(kind, q, n_max):
    """(triple, labels, gram, form) of the entry-by-entry assembly, built
    once per config for the tests that share it."""
    triple = catalog(kind, q, n_max, n_min=-4)
    assert q ** n_max >= 1e-5
    return (triple, *reference_assemble(triple))


@pytest.mark.parametrize("kind,q,n_max", oracle_configs())
def test_matches_reference_assembly(kind, q, n_max):
    triple, labels, gram, form = reference_model(kind, q, n_max)
    model = assemble(triple)
    assert model.labels == labels
    want = orthonormal_matrix(gram, form)
    got = model.hermitian_matrix()
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
    ref = np.linalg.eigvalsh(want)
    radius = float(np.max(np.abs(ref)))
    assert np.max(np.abs(model.spectrum() - ref)) <= 1e-10 * radius


@pytest.mark.parametrize("kind,q,n_max", oracle_configs())
def test_spectrum_matches_unreduced_eigenproblem(kind, q, n_max):
    # independent of any Cholesky reduction: eigenvalues of G^-1 R
    triple, _, gram, form = reference_model(kind, q, n_max)
    ref = np.sort(np.linalg.eigvals(np.linalg.solve(gram, form)).real)
    vals = assemble(triple).spectrum()
    assert np.max(np.abs(vals - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_remainder_amplitudes_match_projection():
    for kind in (1, 2, 3, 4, 5):
        for n_max in (7, 8):
            triple = catalog(kind, 0.4, n_max)
            first, second = remainder_amplitudes(triple)
            for c, (even, odd) in enumerate(oracle_amplitudes(triple)):
                a, b = (even, odd) if n_max % 2 == 0 else (odd, even)
                assert np.allclose(first[:, c], a, rtol=0, atol=1e-15)
                assert np.allclose(second[:, c], b, rtol=0, atol=1e-15)


HEIGHTS = [(kind, q, n_max) for kind in (1, 2, 3, 4, 5)
           for q, n_max in ((0.45, 6), (0.3, 13), (0.4, 25))] + DEFECT_CASES


@pytest.mark.parametrize("kind,q,n_max", HEIGHTS)
def test_remainder_gram_matches_direct_sums(kind, q, n_max):
    """The remainders ``assemble`` uses are orthonormal, summed layer by
    layer, and they are the projected unit minus tails times an upper
    triangular matrix: the Gram-Schmidt order of the Cholesky factor."""
    triple = catalog(kind, q, n_max)
    used = used_amplitudes(triple)
    gram = summed_gram(triple, used)
    assert np.max(np.abs(gram - np.eye(len(used)))) <= 1e-12

    def columns(amplitudes):
        return np.array([np.concatenate(pair) for pair in amplitudes]).T
    raw, got = columns(oracle_amplitudes(triple)), columns(used)
    mix = np.linalg.lstsq(raw, got, rcond=None)[0]
    assert np.linalg.norm(raw @ mix - got) <= 1e-12 * np.linalg.norm(got)
    assert np.max(np.abs(np.tril(mix, -1))) <= 1e-12 * np.max(np.abs(mix))


def exact_gram(q, coefficients, extra):
    """Gram of tail remainders in exact rationals, from their site
    coefficients (first, second) on layers N and N + 1 as (re, im) pairs of
    Fractions: layer N + k carries q^(k // 2) times those of parity k % 2,
    for k = 0 ... extra."""
    size = len(coefficients)
    gram = [[(Fraction(0), Fraction(0))] * size for _ in range(size)]
    for k in range(extra + 1):
        mass = q ** (2 * (k // 2))
        for r in range(size):
            for c in range(size):
                re, im = gram[r][c]
                for x, y in zip(coefficients[c][k % 2],
                                coefficients[r][k % 2]):
                    # x conj(y) for x = (a, b), y = (e, f)
                    re += mass * (x[0] * y[0] + x[1] * y[1])
                    im += mass * (x[1] * y[0] - x[0] * y[1])
                gram[r][c] = (re, im)
    return np.array([[complex(float(re), float(im)) for re, im in row]
                     for row in gram])


def rational_triple(q, n_max):
    """Two atoms at one position per sign with rational boundary
    matrices (unitaries over 2, a weight isometry from w+ = 4 to w- = 1),
    so every remainder amplitude is rational."""
    family = AtomFamily(q, [Atom(0.75, 4.0), Atom(0.75, 4.0)],
                        [Atom(0.75), Atom(0.75)])
    vprime = np.array([[0.3, 0.4j], [0.4j, 0.3]])
    wprime = np.array([[0.0, 0.5], [-0.5, 0.0]])
    return ExtensionTriple(family, Window(-3, n_max),
                           BoundaryMap(family, vprime, wprime))


@pytest.mark.parametrize("q,n_max", [(0.25, 8), (0.25, 30), (0.2, 24),
                                     (0.5, 60), (0.375, 41)])
def test_remainder_gram_matches_exact_rationals(q, n_max):
    triple = rational_triple(q, n_max)
    alpha, beta = remainder_coefficients(triple)
    # Fraction(float) is exact: the sums see the coefficients assemble uses
    coefficients = [[[(Fraction(z.real), Fraction(z.imag)) for z in mat[:, c]]
                     for mat in (alpha, beta)]
                    for c in range(alpha.shape[1])]
    extra = int(math.ceil(20 * math.log(10) / -math.log(q))) + 1
    exact = exact_gram(Fraction(q), coefficients, extra)
    assert np.max(np.abs(exact - np.eye(len(coefficients)))) <= 1e-12
    assert assemble(triple).hermiticity_residual() <= 1e-12
