"""The array-backed lattice layer against the dict-backed oracle.

``lattice_oracle`` keeps one dict entry per basis coefficient and loops
over entries, as the package did before its vectors became arrays.  Here
both run on seeded families, windows and vectors: generator images and
their lost flags, inner products, generator matrices, tail vectors, the
relation checks (also against the unit-vector array check they replaced),
the random domain vectors, and the three verification suites on catalog
kinds 1-5 and random boundary maps: every check of the structural suite,
and the verdicts of the two suites that the oracle checks on random
vectors and the package on spanning sets.
"""
import random
import tracemalloc

import numpy as np
import pytest

import lattice_oracle as oracle
from qheis.adjoint import (TailVector, apply_X_star, boundary_form,
                           boundary_form_direct)
from qheis.classify import (build_catalog_triple, characterization_report,
                            verify_representation)
from qheis.extensions import (BoundaryMap, ExtensionTriple, _tail_checks,
                              assemble, conforming_tails, random_boundary_map,
                              random_domain_vector, verify_extension)
from qheis.lattice import (MAX_SITES, Atom, AtomFamily, LatticeVector,
                           Window, apply_generator, check_relations_lattice,
                           inner, lattice_grid, matrix_of)

GENERATORS = ("U", "U*", "P", "X")
SEEDS = range(10)


def random_family(rng: random.Random) -> AtomFamily:
    q = rng.uniform(0.2, 0.8)

    def atoms(low):
        return [Atom(rng.uniform(q, 0.999), rng.uniform(0.5, 2.0))
                for _ in range(rng.randint(low, 3))]
    return AtomFamily(q, atoms(1), atoms(0))


def random_window(rng: random.Random) -> Window:
    n_min = rng.randint(-6, -1)
    return Window(n_min, rng.randint(max(n_min + 4, 1), 9))


def random_vector(family, window, rng, density=0.4) -> LatticeVector:
    """Entries anywhere on the window, edges included, so shifts lose."""
    entries = {}
    for sign in (+1, -1):
        for j in range(len(family.atoms(sign))):
            for n in window.indices():
                if rng.random() < density:
                    entries[(sign, j, n)] = complex(rng.gauss(0, 1),
                                                    rng.gauss(0, 1))
    return LatticeVector(family, window, entries)


def assert_same_vector(got, want, rel=1e-14):
    """Same support and lost flag, entries equal up to rounding."""
    assert got.lost == want.lost
    assert set(got.entries) == set(want.entries)
    scale = max(1.0, want.norm())
    for idx, value in want.entries.items():
        assert abs(got.entries[idx] - value) <= rel * scale, idx


def assert_same_checks(got, want):
    """Names, bounds, kinds, details and verdicts equal; values equal up
    to rounding."""
    got, want = got.to_json(), want.to_json()
    assert {k: v for k, v in got.items() if k != "checks"} == {
        k: v for k, v in want.items() if k != "checks"}
    assert len(got["checks"]) == len(want["checks"])
    for a, b in zip(got["checks"], want["checks"]):
        assert {k: v for k, v in a.items() if k != "value"} == {
            k: v for k, v in b.items() if k != "value"}
        assert abs(a["value"] - b["value"]) <= 1e-13 + 1e-12 * abs(b["value"]), a


@pytest.mark.parametrize("seed", SEEDS)
def test_generator_images_and_lost_flags(seed):
    rng = random.Random(seed)
    family, window = random_family(rng), random_window(rng)
    for _ in range(5):
        v = random_vector(family, window, rng)
        for gen in GENERATORS:
            got = apply_generator(gen, v)
            want = oracle.apply_generator(gen, oracle.LatticeVector.of(v))
            assert_same_vector(got, want)
            # composition keeps accumulating the flag
            again = apply_generator("U", got)
            assert again.lost == oracle.apply_generator("U", want).lost


@pytest.mark.parametrize("seed", SEEDS)
def test_inner_products(seed):
    rng = random.Random(100 + seed)
    family, window = random_family(rng), random_window(rng)
    for _ in range(5):
        f = random_vector(family, window, rng)
        g = random_vector(family, window, rng)
        want = oracle.inner(oracle.LatticeVector.of(f),
                            oracle.LatticeVector.of(g))
        assert abs(inner(f, g) - want) <= 1e-14 * max(1.0, f.norm() * g.norm())
        raw = oracle.inner_raw(f, g)
        assert abs(inner(f, g) - raw) <= 1e-12 * max(1.0, abs(raw))


@pytest.mark.parametrize("seed", SEEDS)
def test_generator_matrices_are_bit_identical(seed):
    rng = random.Random(200 + seed)
    family, window = random_family(rng), random_window(rng)
    for gen in GENERATORS:
        got = matrix_of(gen, family, window)
        want = oracle.matrix_of(gen, family, window)
        assert got.shape == want.shape
        assert np.array_equal(got, want), gen


def random_tail_vector(family, window, rng) -> TailVector:
    def amplitudes():
        return {s: np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1))
                             for _ in family.atoms(s)]) for s in (+1, -1)}
    return TailVector(random_vector(family, window, rng, density=0.3),
                      amplitudes(), amplitudes())


@pytest.mark.parametrize("seed", SEEDS)
def test_tail_vectors(seed):
    rng = random.Random(300 + seed)
    family = random_family(rng)
    window = Window(rng.randint(-6, -1), rng.randint(4, 9))
    for _ in range(4):
        f = random_tail_vector(family, window, rng)
        g = random_tail_vector(family, window, rng)
        of, og = oracle.TailVector.of(f), oracle.TailVector.of(g)
        scale = max(1.0, f.norm() * g.norm())
        assert abs(f.inner(g) - of.inner(og)) <= 1e-14 * scale
        image, want = apply_X_star(f), oracle.apply_X_star(of)
        _, even, odd = image.arrays()
        assert not even.any() and not odd.any()
        assert_same_vector(image.finite, want.finite, rel=1e-13)


@pytest.mark.parametrize("seed", SEEDS)
def test_relation_checks(seed):
    rng = random.Random(400 + seed)
    family, window = random_family(rng), random_window(rng)
    got = check_relations_lattice(family, window)
    want = oracle.check_relations_lattice(family, window)
    for a, b in zip(got.checks, want.checks):
        assert (a.name, a.detail, a.bound) == (b.name, b.detail, b.bound)
        assert abs(a.value - b.value) <= 1e-14


@pytest.mark.parametrize("kind", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("q", [None, 0.3, 0.55])
def test_layer_relation_checks_equal_the_unit_vector_checks(kind, q):
    family = build_catalog_triple(kind, {} if q is None else {"q": q}).family
    window = Window(-8, 9)
    assert (check_relations_lattice(family, window).to_json()
            == oracle.check_relations_unit_vectors(family, window).to_json())


def test_layer_relation_checks_equal_the_unit_vector_checks_on_tall_windows():
    # 1,002 sites; entries reach 5^300, whose squares overflow, so the
    # residuals take the scaled path of relative_residual
    triple = build_catalog_triple(1, {"q": 0.2, "window": Window(-200, 300)})
    family, window = triple.family, triple.window
    assert lattice_grid(family, window).position.size >= 1000
    with np.errstate(over="ignore"):
        assert np.isinf(np.max(np.abs(lattice_grid(family, window).x_up)) ** 2)
    got = check_relations_lattice(family, window)
    assert got.to_json() == oracle.check_relations_unit_vectors(
        family, window).to_json()
    assert all(np.isfinite(c.value) for c in got.checks)


def test_characterization_of_the_largest_window_stays_small():
    """MAX_SITES sites and no array over sites x sites: dense generator
    matrices took a traced peak of 447 MB on this window."""
    window = Window(-6, 1017)
    triple = build_catalog_triple(1, {"q": 0.6, "window": window})
    assert lattice_grid(triple.family, window).position.size == MAX_SITES
    tracemalloc.start()
    try:
        report = characterization_report(triple)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 256 * 2**20


@pytest.mark.parametrize("kind", [1, 2, 3, 4, 5])
def test_domain_vectors_draw_the_oracle_stream(kind):
    triple = build_catalog_triple(kind)
    rng, reference = np.random.default_rng(kind), np.random.default_rng(kind)
    for _ in range(12):
        got = random_domain_vector(triple, rng)
        want = oracle.random_domain_vector(triple, reference)
        assert_same_vector(got.finite, want.finite)
        for sign in (+1, -1):
            assert np.allclose(got.even[sign], want.even[sign], atol=1e-15)
            assert np.allclose(got.odd[sign], want.odd[sign], atol=1e-15)
    assert rng.bit_generator.state == reference.bit_generator.state


def assert_same_verdicts(got, want):
    """Equal report fields, and per check equal names, bounds, kinds and
    verdicts; values and details may differ."""
    got, want = got.to_json(), want.to_json()
    assert {k: v for k, v in got.items() if k != "checks"} == {
        k: v for k, v in want.items() if k != "checks"}
    assert [[c[k] for k in ("name", "bound", "kind", "passed")]
            for c in got["checks"]] == [
        [c[k] for k in ("name", "bound", "kind", "passed")]
        for c in want["checks"]]


@pytest.mark.parametrize("kind", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("seed", SEEDS)
def test_suites_match_the_oracle(kind, seed):
    params = {"q": random.Random(seed).uniform(0.25, 0.55)}
    triple = build_catalog_triple(kind, params)
    assert_same_checks(characterization_report(triple),
                       oracle.characterization_report(triple))
    for q in (0.3, 0.45, 0.55):
        triple = build_catalog_triple(kind, {"q": q})
        got = verify_extension(triple)
        assert got.passed
        assert_same_verdicts(
            got, oracle.verify_extension(triple, n_pairs=10, seed=seed))
        assert_same_verdicts(
            verify_representation(triple.family, n_samples=4, seed=seed),
            oracle.verify_representation(triple.family, n_samples=4,
                                         seed=seed))


def random_triple(seed: int) -> ExtensionTriple:
    rng = random.Random(seed)
    q = rng.uniform(0.2, 0.7)
    dim = rng.randint(1, 3)
    family = AtomFamily(q, *([Atom(rng.uniform(q, 0.99), rng.uniform(0.5, 2.0))
                              for _ in range(dim)] for _ in range(2)))
    window = Window(rng.randint(-6, -1), rng.randint(1, 9))
    return ExtensionTriple(family, window, random_boundary_map(
        family, np.random.default_rng(seed)))


@pytest.mark.parametrize("seed", SEEDS)
def test_suites_match_the_oracle_on_random_boundary_maps(seed):
    triple = random_triple(500 + seed)
    got = verify_extension(triple, tol=1e-12)
    assert got.passed, got.to_json()
    assert_same_verdicts(got, oracle.verify_extension(triple, n_pairs=10,
                                                      seed=seed))


@pytest.mark.parametrize("seed", SEEDS)
def test_basis_pairing_matches_the_direct_evaluation(seed):
    """The pairing matrix of the basis the pairing check reads, against
    the definition <X* f, g> - <f, X* g> pair by pair."""
    triple = random_triple(600 + seed)
    basis = conforming_tails(triple)
    basis = basis.scale(1.0 / basis.norm())
    forms = boundary_form(basis[:, None], basis[None])
    k = len(forms)
    assert forms.shape == (k, k) and k == 2 * triple.bmap.dim
    for i in range(k):
        for j in range(k):
            direct = boundary_form_direct(basis[i], basis[j])
            assert abs(forms[i, j] - direct) <= 1e-13 * max(1.0, abs(direct))


def test_a_map_that_is_no_weight_isometry_fails_both_pairing_checks():
    triple = build_catalog_triple(2)
    bad = ExtensionTriple(triple.family, triple.window, BoundaryMap(
        triple.family, 1.2 * triple.bmap.vprime, triple.bmap.wprime,
        validate=False))
    name = "boundary pairing vanishes on conforming pairs"
    for report in (verify_extension(bad),
                   oracle.verify_extension(bad, n_pairs=10, seed=1)):
        failed = {c.name for c in report.checks if not c.passed}
        assert name in failed


LARGEST_WINDOWS = [(1, Window(-6, 1017)), (5, Window(-6, 249))]


def largest_triple(kind, window):
    """A catalog triple with MAX_SITES sites."""
    triple = build_catalog_triple(kind, {"q": 0.6} if kind == 1 else
                                  {"window": window})
    triple = ExtensionTriple(triple.family, window, triple.bmap)
    assert lattice_grid(triple.family, window).position.size == MAX_SITES
    return triple


def traced_peak(run):
    """(result, traced peak bytes) of one call."""
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind, window", LARGEST_WINDOWS)
def test_extension_checks_at_the_largest_windows_stay_small(kind, window):
    """MAX_SITES sites.  The sampled checks once peaked at 14.6 MiB
    (kind 1) and 14.0 MiB (kind 5) traced.  The suite peaked at 256 MiB
    while the model kept a dense Gram matrix beside its action; one
    (sites + 2 dim)^2 complex matrix is 64 MiB, and the Hermiticity check
    held three (192 MiB) until it read only the entries assemble writes.
    An array with one site row per pair of the 32 kind-5 members of the
    direct check would alone take 32 MiB."""
    triple = largest_triple(kind, window)
    _, tail_peak = traced_peak(lambda: _tail_checks(triple, 1e-12))
    report, peak = traced_peak(lambda: verify_extension(triple))
    assert report.passed, report.to_json()
    assert tail_peak < 14 * 2**20
    assert peak < 70 * 2**20


@pytest.mark.parametrize("kind, window", LARGEST_WINDOWS)
def test_assembled_model_at_the_largest_windows_is_one_matrix(kind, window):
    """MAX_SITES sites: the model is its one 64 MiB matrix.  With a dense
    Gram matrix, its Cholesky factor and inverse, building the Hermitian
    matrix peaked at 383 MiB traced."""
    triple = largest_triple(kind, window)
    matrix, peak = traced_peak(lambda: assemble(triple).hermitian_matrix())
    # the interior sites of the 2 dim atoms, and 2 dim remainders
    assert matrix.shape == (MAX_SITES - 2 * triple.bmap.dim,) * 2
    assert peak < 70 * 2**20


def test_unknown_generator_names_are_refused():
    family = AtomFamily(0.5, [Atom(0.7)], [])
    window = Window(-2, 2)
    with pytest.raises(ValueError, match="unknown generator"):
        apply_generator("Q", LatticeVector(family, window))
    # no atoms at all: there is no basis vector to apply the name to
    with pytest.raises(ValueError, match="unknown generator"):
        matrix_of("Q", AtomFamily(0.5, [], []), window)
