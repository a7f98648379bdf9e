"""The array-backed lattice layer against the dict-backed oracle.

``lattice_oracle`` keeps one dict entry per basis coefficient and loops
over entries, as the package did before its vectors became arrays.  Here
both run on seeded families, windows and vectors: generator images and
their lost flags, inner products, generator matrices, tail vectors, the
relation checks (also against the unit-vector array check they replaced),
the random draws of the suites, and every check of the three verification
suites on catalog kinds 1-5.
"""
import random
import tracemalloc

import numpy as np
import pytest

import lattice_oracle as oracle
from qheis.adjoint import TailVector, apply_X_star
from qheis.classify import (build_catalog_triple, characterization_report,
                            representation_samples, verify_representation)
from qheis.extensions import random_domain_vectors, verify_extension
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
        assert image.is_tail_free()
        assert_same_vector(image.finite, want.finite, rel=1e-13)


@pytest.mark.parametrize("seed", SEEDS)
def test_relation_checks(seed):
    rng = random.Random(400 + seed)
    family, window = random_family(rng), random_window(rng)
    got = check_relations_lattice(family, window)
    want = oracle.check_relations_lattice(family, window)
    for a, b in zip(got.checks, want.checks):
        assert (a.name, a.vectors_checked, a.tol) == (
            b.name, b.vectors_checked, b.tol)
        assert abs(a.max_residual - b.max_residual) <= 1e-14


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
    assert np.isfinite(got.max_residual)


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
    stack = random_domain_vectors(triple, rng, 12)
    assert stack.finite.coeffs.shape == (12,) + lattice_grid(
        triple.family, triple.window).shape
    for k in range(12):
        want = oracle.random_domain_vector(triple, reference)
        got = stack[k]
        assert_same_vector(got.finite, want.finite)
        for sign in (+1, -1):
            assert np.allclose(got.even[sign], want.even[sign], atol=1e-15)
            assert np.allclose(got.odd[sign], want.odd[sign], atol=1e-15)
    assert rng.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("kind", [1, 2, 3, 4, 5])
def test_representation_samples_draw_the_oracle_stream(kind):
    family = build_catalog_triple(kind).family
    window = Window(-8, 9)
    rng, reference = random.Random(kind), random.Random(kind)
    pairs, samples = representation_samples(lattice_grid(family, window),
                                            rng, 3, 6)
    want_pairs, want_samples = oracle.representation_samples(
        family, window, 3, 6, reference)
    assert rng.getstate() == reference.getstate()

    def entries(array):
        return LatticeVector.from_array(family, window, array).entries

    got_pairs = pairs.reshape((-1,) + pairs.shape[2:])
    assert len(got_pairs) == len(want_pairs)
    for got, want in zip(got_pairs, want_pairs):
        assert entries(got) == want.entries
    for got, want in zip(samples, want_samples):
        assert got[:2] == want[:2]
        for array, vector in zip(got[2:], want[2:]):
            assert entries(array) == vector.entries


@pytest.mark.parametrize("kind", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("seed", SEEDS)
def test_suites_match_the_oracle(kind, seed):
    params = {"q": random.Random(seed).uniform(0.25, 0.55)}
    triple = build_catalog_triple(kind, params)
    assert_same_checks(characterization_report(triple),
                       oracle.characterization_report(triple))
    assert_same_checks(verify_extension(triple, n_pairs=30, seed=seed),
                       oracle.verify_extension(triple, n_pairs=30, seed=seed))
    assert_same_checks(
        verify_representation(triple.family, n_samples=8, seed=seed),
        oracle.verify_representation(triple.family, n_samples=8, seed=seed))


def test_unknown_generator_names_are_refused():
    family = AtomFamily(0.5, [Atom(0.7)], [])
    window = Window(-2, 2)
    with pytest.raises(ValueError, match="unknown generator"):
        apply_generator("Q", LatticeVector.zero(family, window))
    # no atoms at all: there is no basis vector to apply the name to
    with pytest.raises(ValueError, match="unknown generator"):
        matrix_of("Q", AtomFamily(0.5, [], []), window)
