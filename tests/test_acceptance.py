"""End-to-end acceptance checks for the whole package.

Each test covers one advertised capability at its stated tolerance and
prints a single summary line with the measured figures, so a verbose run
reads as a checklist. The tests only use public entry points.
"""

import json
import random
import subprocess
import sys
import time

import numpy as np
import pytest

from qheis.algebra import (
    AlgebraElement,
    multiply,
    random_element,
    random_word,
    reduce,
    star,
)
from qheis.lattice import Atom, AtomFamily, LatticeVector, Window, check_relations_lattice
from qheis.adjoint import (
    TailVector,
    apply_U,
    apply_X_star,
    boundary_form,
    boundary_form_direct,
)
from qheis.extensions import (
    BoundaryMap,
    ExtensionTriple,
    assemble,
    random_boundary_map,
    random_domain_vector,
    spectrum,
    verify_extension,
)
from qheis.classify import (
    CommutantProblem,
    build_catalog_triple,
    commutant_dim,
    single_atom_triple,
    unitary_equivalent,
    verify_representation,
)
from qheis.schrodinger import SchrodingerParams, verify_schrodinger


def _line(num: int, name: str, detail: str) -> None:
    print(f"acceptance {num:02d} PASS {name}: {detail}")


def _check_value(report, name: str) -> float:
    for check in report.checks:
        if check.name == name:
            return check.value
    raise AssertionError(f"report has no check named {name!r}")


def test_01_normal_form_kernel():
    """Both product-reordering identities reduce to an exact zero via the
    command line tool, each run finishing within a second."""
    expressions = [
        "p*x - s^2*x*p - i*(s^3 - s^-1)*u",
        "p*x - s^-2*x*p + i*(s^-3 - s)*u^-1",
    ]
    timings = []
    for text in expressions:
        start = time.monotonic()
        result = subprocess.run(
            [sys.executable, "-m", "qheis.cli", "normal-form", text],
            capture_output=True, text=True)
        elapsed = time.monotonic() - start
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert report["normal_form"] == "0"
        assert report["n_terms"] == 0
        assert elapsed < 1.0
        timings.append(elapsed)
    _line(1, "normal form kernel",
          f"both identities print 0, runtimes {max(timings):.2f} s")


def test_02_rewrite_confluence():
    """1000 random words of length <= 8, each rewritten with the leftmost
    strategy and three randomized rule orders: identical normal forms."""
    rng = random.Random(2024)
    n_words = 1000
    for _ in range(n_words):
        word = random_word(rng, max_len=8)
        reference = reduce(word)
        for k in range(3):
            other = reduce(word, rng=random.Random(rng.getrandbits(32)))
            assert other == reference
    _line(2, "rewrite confluence",
          f"{n_words} words, 3 randomized orders each, exact equality")


def test_03_involution():
    """star is an exact antihomomorphism and involution on 500 random
    pairs, and it swaps the two product-reordering identities."""
    rng = random.Random(77)
    n_pairs = 500
    for _ in range(n_pairs):
        a = random_element(rng)
        b = random_element(rng)
        assert star(multiply(a, b)) == multiply(star(b), star(a))
        assert star(star(a)) == a
    p = AlgebraElement.generator("p")
    x = AlgebraElement.generator("x")
    assert star(multiply(p, x)) == multiply(x, p)
    assert star(multiply(x, p)) == multiply(p, x)
    _line(3, "involution",
          f"{n_pairs} random pairs exact; star swaps the px and xp identities")


def _random_family(rng: random.Random) -> AtomFamily:
    q = 0.2 + 0.7 * rng.random()

    def side():
        count = rng.randint(1, 3)
        return [Atom(q + (1.0 - q) * (0.1 + 0.8 * rng.random()),
                     0.5 + 1.5 * rng.random())
                for _ in range(count)]

    return AtomFamily(q, side(), side())


def test_04_lattice_relations():
    """All defining relations hold on every interior basis vector of 20
    random atomic models over a window of length 30, residual < 1e-12."""
    rng = random.Random(40)
    window = Window(-15, 15)
    worst = 0.0
    for _ in range(20):
        family = _random_family(rng)
        report = check_relations_lattice(family, window, tol=1e-12)
        assert report.passed, [c.to_json() for c in report.checks if not c.passed]
        worst = max(worst, report.max_residual)
    assert worst < 1e-12
    _line(4, "lattice relations",
          f"20 random models, window length {window.length}, worst {worst:.2e}")


def _random_tail(family: AtomFamily, window: Window, rng: random.Random,
                 margin: int = 2) -> TailVector:
    entries = {}
    for sign in (+1, -1):
        for j in range(len(family.atoms(sign))):
            for n in range(window.n_min + margin, window.n_max - margin + 1):
                if rng.random() < 0.4:
                    entries[(sign, j, n)] = complex(rng.gauss(0, 1), rng.gauss(0, 1))

    def amps():
        return {s: np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1))
                             for _ in family.atoms(s)]) for s in (+1, -1)}

    return TailVector(LatticeVector(family, window, entries), amps(), amps())


def test_05_boundary_pairing_formula():
    """The closed boundary pairing matches the direct adjoint defect on 100
    random tail vectors per model, and the one-atom closed form is exact."""
    families = [
        AtomFamily(0.5, [Atom(0.7), Atom(0.9, 2.0)], [Atom(0.6, 0.5)]),
        AtomFamily(0.3, [Atom(0.5)], [Atom(0.45, 1.5)]),
        AtomFamily(0.8, [Atom(0.85), Atom(0.95)], [Atom(0.9, 0.7)]),
    ]
    window = Window(-4, 6)
    rng = random.Random(55)
    worst = 0.0
    for family in families:
        for _ in range(100):
            f = _random_tail(family, window, rng)
            g = _random_tail(family, window, rng)
            xf, xg = apply_X_star(f), apply_X_star(g)
            direct = xf.inner(g) - f.inner(xg)
            formula = boundary_form(f, g)
            scale = max(1.0, xf.norm() * g.norm() + f.norm() * xg.norm())
            gap = abs(direct - formula) / scale
            worst = max(worst, gap)
            assert gap < 1e-12

    a = 0.7
    family = AtomFamily(0.5, [Atom(a, 1.0)], [])
    win = Window(-2, 3)
    a1, b1 = 1.0 + 2.0j, -0.5j
    a2, b2 = 0.25 - 1.0j, 3.0 + 0.0j
    f = TailVector.pure_tail(family, win, even={+1: [a1]}, odd={+1: [b1]})
    g = TailVector.pure_tail(family, win, even={+1: [a2]}, odd={+1: [b2]})
    closed = -1j / a * (b1 * np.conj(a2) + a1 * np.conj(b2))
    assert abs(boundary_form(f, g) - closed) < 1e-12
    assert abs(boundary_form_direct(f, g) - closed) < 1e-12
    _line(5, "boundary pairing formula",
          f"300 random pairs worst {worst:.2e}; one-atom closed form exact")


def _entrywise_gap(lhs: TailVector, rhs: TailVector) -> float:
    worst, scale = 0.0, 1.0
    for sign in (+1, -1):
        for j in range(len(lhs.family.atoms(sign))):
            for n in lhs.window.indices():
                a = lhs.point_value(sign, j, n)
                b = rhs.point_value(sign, j, n)
                worst = max(worst, abs(a - b))
                scale = max(scale, abs(a), abs(b))
    return worst / scale


def test_06_extension_validity():
    """Ten random boundary maps give working restrictions: vanishing
    pairing on conforming pairs, visible pairing on a non-conforming pair,
    Hermitian assembled model, shift covariance of the restricted action,
    and exact tail norms."""
    families = [
        AtomFamily(0.35, [Atom(0.5)], [Atom(0.6, 2.0)]),
        AtomFamily(0.5, [Atom(0.7), Atom(0.9, 2.0)], [Atom(0.6, 0.5), Atom(0.8)]),
        AtomFamily(0.7, [Atom(0.75), Atom(0.8), Atom(0.9)],
                   [Atom(0.72), Atom(0.85), Atom(0.95)]),
    ]
    window = Window(-5, 6)
    worst_pairing = worst_herm = worst_norms = worst_cov = 0.0
    smallest_nonconforming = float("inf")
    for i in range(10):
        family = families[i % len(families)]
        rng = np.random.default_rng(100 + i)
        triple = ExtensionTriple(family, window, random_boundary_map(family, rng))
        report = verify_extension(triple, n_pairs=100, seed=i, tol=1e-12)
        assert report.passed, [c.to_json() for c in report.checks if not c.passed]
        worst_pairing = max(worst_pairing, _check_value(
            report, "boundary pairing vanishes on conforming pairs"))
        smallest_nonconforming = min(smallest_nonconforming, _check_value(
            report, "non-conforming pair shows a nonzero pairing"))
        worst_herm = max(worst_herm, _check_value(
            report, "assembled model is hermitian"))
        worst_norms = max(worst_norms, _check_value(
            report, "tail norms match their geometric sums"))
        for _ in range(5):
            f = random_domain_vector(triple, rng)
            lhs = apply_X_star(apply_U(f))
            rhs = apply_U(apply_X_star(f)).scale(family.q)
            assert not lhs.finite.lost and not rhs.finite.lost
            worst_cov = max(worst_cov, _entrywise_gap(lhs, rhs))
    assert worst_pairing < 1e-12
    assert smallest_nonconforming > 1e-3
    assert worst_herm < 1e-12
    assert worst_norms < 1e-12
    assert worst_cov < 1e-12
    _line(6, "extension validity",
          f"10 maps: pairing {worst_pairing:.2e}, non-conforming "
          f">= {smallest_nonconforming:.2e}, hermitian {worst_herm:.2e}, "
          f"shift covariance {worst_cov:.2e}, tail norms {worst_norms:.2e}")


def test_07_commutant_dimensions():
    """The catalog models land on the advertised commutant dimensions."""
    dims = {kind: commutant_dim(CommutantProblem.from_triple(
        build_catalog_triple(kind))) for kind in (2, 3, 4, 5)}
    assert dims[2] == 1
    assert dims[3] == 1
    assert dims[4] >= 2
    assert dims[5] == 1
    _line(7, "commutant dimensions",
          f"skew atom {dims[2]}, coupled positions {dims[3]}, "
          f"repeated position {dims[4]}, two blocks {dims[5]}")


def test_08_unitary_equivalence():
    """Identity witness for identical data, refusal for distinct phase
    pairs, and a recovered permutation witness for shuffled atoms."""
    base = build_catalog_triple(1)
    problem = CommutantProblem.from_triple(base)
    report = unitary_equivalent(problem, problem)
    assert report.verdict == "equivalent"
    assert np.array_equal(report.witness_plus, np.eye(1))

    first = single_atom_triple(phases=(0.3, 0.7))
    second = single_atom_triple(phases=(0.0, 0.9))
    report = unitary_equivalent(CommutantProblem.from_triple(first),
                                CommutantProblem.from_triple(second))
    assert report.verdict == "inequivalent"

    triple = build_catalog_triple(3)
    perm = [2, 0, 1]
    pi = np.eye(3)[perm]
    family = triple.family
    shuffled = AtomFamily(family.q, [family.plus[k] for k in perm],
                          list(family.minus))
    bmap = BoundaryMap(shuffled, pi @ triple.bmap.vprime,
                       pi @ triple.bmap.wprime)
    other = ExtensionTriple(shuffled, triple.window, bmap)
    report = unitary_equivalent(CommutantProblem.from_triple(triple),
                                CommutantProblem.from_triple(other))
    assert report.verdict == "equivalent"
    assert report.residual < 1e-10
    w = report.witness_plus
    top = np.unravel_index(np.argmax(np.abs(w)), w.shape)
    phase = abs(w[top]) / w[top]
    assert np.allclose(w * phase, pi, atol=1e-10)
    assert np.allclose(report.witness_minus * phase, np.eye(3), atol=1e-10)
    _line(8, "unitary equivalence",
          f"identity witness exact; distinct phases refused; permutation "
          f"witness residual {report.residual:.2e}")


def test_09_representation_property():
    """Products act operatorially and the involution matches the operator
    adjoint on 50 random interior vectors for degree <= 3 elements."""
    family = AtomFamily(0.5, [Atom(0.7)], [Atom(0.6, 2.0)])
    report = verify_representation(family, degree=3, n_samples=50,
                                   seed=9, tol=1e-10)
    assert report.passed, report.to_json()
    products = _check_value(report, "element products compose operatorially")
    adjoints = _check_value(report, "the involution matches the operator adjoint")
    assert products < 1e-10
    assert adjoints < 1e-10
    _line(9, "representation property",
          f"50 samples: products {products:.2e}, adjoints {adjoints:.2e}")


def test_10_gaussian_model():
    """Wavepacket model at q in {0.3, 0.5, 0.8}: relation residuals below
    1e-10 in the Gaussian norm over 50 random elements, the deformation
    function vanishing at its advertised zero, and closed-form inner
    products matching quadrature to 1e-9."""
    worst_rel = worst_zero = worst_quad = 0.0
    for q in (0.3, 0.5, 0.8):
        params = SchrodingerParams.from_q(q)
        report = verify_schrodinger(params, n_samples=50, seed=11, tol=1e-10)
        assert report.passed, report.to_json()
        worst_rel = max(worst_rel, _check_value(
            report, "defining relations hold on wavepackets"))
        worst_zero = max(worst_zero, _check_value(
            report, "the deformation function vanishes at i*alpha/2"))
        worst_quad = max(worst_quad, _check_value(
            report, "closed-form inner products match quadrature"))
    assert worst_rel < 1e-10
    assert worst_zero < 1e-14
    assert worst_quad < 1e-9
    _line(10, "gaussian model",
          f"relations {worst_rel:.2e}, deformation zero {worst_zero:.2e}, "
          f"quadrature {worst_quad:.2e}")


def test_11_spectrum_plumbing():
    """A 4x4 assembled model matches its characteristic polynomial roots,
    and mid-spectrum eigenvalues are stable under window growth."""
    model = assemble(single_atom_triple(q=0.5, window=Window(-2, 0)))
    assert model.dim <= 4
    matrix = model.hermitian_matrix()
    eigs = np.sort(np.linalg.eigvalsh(matrix))
    roots = np.sort(np.roots(np.poly(matrix)).real)
    charpoly_gap = float(np.max(np.abs(eigs - roots)))
    assert charpoly_gap < 1e-10

    narrow = np.sort(spectrum(single_atom_triple(q=0.4, window=Window(-18, 20))))
    wide = np.sort(spectrum(single_atom_triple(q=0.4, window=Window(-22, 24))))
    third = len(narrow) // 3
    drift = max(float(np.min(np.abs(wide - ev)))
                for ev in narrow[third:2 * third])
    assert drift < 1e-6
    _line(11, "spectrum plumbing",
          f"4x4 charpoly gap {charpoly_gap:.2e}, mid-spectrum drift {drift:.2e}")
