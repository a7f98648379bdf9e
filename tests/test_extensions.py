import math

import numpy as np
import pytest

from qheis.adjoint import TailVector, apply_U, boundary_form, boundary_form_direct
from qheis.extensions import (
    AssembledOperator,
    BoundaryMap,
    ExtensionTriple,
    assemble,
    domain_residual,
    haar_unitary,
    make_boundary_map,
    project_to_domain,
    psd_sqrt,
    random_boundary_map,
    random_domain_vector,
    remainder_coefficients,
    spectrum,
    verify_extension,
    z_block_unitary,
)
from qheis.classify import build_catalog_triple
from qheis.lattice import (Atom, AtomFamily, LatticeVector, Window, basis_indices,
                           matrix_of, relative_residual)


def one_atom_family(q=0.5, a=0.7, b=0.6, wp=1.0, wm=2.0):
    return AtomFamily(q, [Atom(a, wp)], [Atom(b, wm)])


def two_atom_family(q=0.5):
    return AtomFamily(q, [Atom(0.7, 1.0), Atom(0.9, 2.0)],
                      [Atom(0.6, 0.5), Atom(0.8, 1.5)])


def simple_triple(q=0.5, phases=(0.3, -1.1), window=Window(-6, 8)):
    fam = one_atom_family(q)
    return ExtensionTriple(fam, window, make_boundary_map(fam, phases=phases))


def random_triple(rng, q=0.5, window=Window(-6, 8)):
    fam = two_atom_family(q)
    return ExtensionTriple(fam, window, random_boundary_map(fam, rng))


class TestUnitaryHelpers:
    def test_haar_unitary(self):
        rng = np.random.default_rng(0)
        u = haar_unitary(5, rng)
        assert np.allclose(u @ u.conj().T, np.eye(5), atol=1e-12)

    def test_psd_sqrt(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        mat = z @ z.conj().T
        root = psd_sqrt(mat)
        assert np.allclose(root @ root, mat, atol=1e-10)
        assert np.allclose(root, root.conj().T)

    def test_z_block_is_unitary_for_contractions(self):
        rng = np.random.default_rng(2)
        t = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        t *= 0.9 / np.linalg.norm(t, 2)
        z = z_block_unitary(t)
        assert z.shape == (6, 6)
        assert np.allclose(z @ z.conj().T, np.eye(6), atol=1e-12)

    def test_z_block_rejects_expansions(self):
        with pytest.raises(ValueError):
            z_block_unitary([[2.0]])


def metric_unitarity_gap(bmap):
    """|M* diag(w+ / a+) M - diag(w- / a-)| over the derived maps M = v, w:
    zero when the position rescaling makes them unitary for the boundary
    metric."""
    gp, gm = (np.diag(g) for g in bmap.metric())
    return max(float(np.linalg.norm(m.conj().T @ gp @ m - gm))
               for m in (bmap.v, bmap.w))


class TestBoundaryMap:
    def test_phase_form_includes_weight_scale(self):
        fam = one_atom_family(wp=1.0, wm=4.0)
        bmap = make_boundary_map(fam, phases=(0.4, 1.2))
        assert abs(bmap.vprime[0, 0]) == pytest.approx(2.0)
        assert bmap.k_isometry_residual() < 1e-12

    def test_one_dim_metric_condition(self):
        # |V|^2 = (w- a) / (w+ b) characterizes the vanishing boundary form
        fam = one_atom_family(q=0.5, a=0.7, b=0.6, wp=1.3, wm=0.9)
        bmap = make_boundary_map(fam, phases=(2.0, -0.5))
        want = (0.9 * 0.7) / (1.3 * 0.6)
        assert abs(bmap.v[0, 0]) ** 2 == pytest.approx(want)
        assert abs(bmap.w[0, 0]) ** 2 == pytest.approx(want)
        assert metric_unitarity_gap(bmap) < 1e-12

    def test_random_map_is_weight_isometry(self):
        rng = np.random.default_rng(3)
        fam = two_atom_family()
        for _ in range(5):
            bmap = random_boundary_map(fam, rng)
            assert bmap.k_isometry_residual() < 1e-12
            assert metric_unitarity_gap(bmap) < 1e-12

    def test_validation_rejects_non_isometries(self):
        fam = one_atom_family()
        with pytest.raises(ValueError):
            BoundaryMap(fam, [[1.0]], [[5.0]])
        bad = BoundaryMap(fam, [[1.0]], [[5.0]], validate=False)
        assert bad.k_isometry_residual() > 1.0

    def test_record_holds_positions_weights_and_metric(self):
        bmap = random_boundary_map(two_atom_family(), np.random.default_rng(5))
        assert bmap.dim == 2
        assert bmap.plus_positions.tolist() == [0.7, 0.9]
        assert bmap.plus_weights.tolist() == [1.0, 2.0]
        assert bmap.minus_weights.tolist() == [0.5, 1.5]
        plus, minus = bmap.metric()
        assert np.allclose(plus, [1.0 / 0.7, 2.0 / 0.9])
        assert np.allclose(minus, [0.5 / 0.6, 1.5 / 0.8])

    def test_metric_weighs_tails_by_weight_over_position(self):
        fam = AtomFamily(0.25, [Atom(0.5, 2.0)], [Atom(0.5, 2.0)])
        plus, _ = make_boundary_map(fam, phases=(0.0, 0.0)).metric()
        h, k = np.array([1 + 1j]), np.array([1j])
        assert np.sum(h * k.conj() * plus) == pytest.approx(
            (1 + 1j) * (-1j) * 4.0)

    def test_unequal_atom_counts_rejected(self):
        fam = AtomFamily(0.5, [Atom(0.7), Atom(0.8)], [Atom(0.6)])
        with pytest.raises(ValueError):
            BoundaryMap(fam, np.ones((2, 1)), np.ones((2, 1)))

    def test_shape_checked(self):
        fam = two_atom_family()
        with pytest.raises(ValueError):
            BoundaryMap(fam, np.eye(3), np.eye(3))

    def test_json_round_trip_phases(self):
        fam = one_atom_family()
        bmap = make_boundary_map(fam, phases=(0.25, -0.75))
        back = BoundaryMap.from_json(bmap.to_json(), fam)
        assert np.allclose(back.vprime, bmap.vprime)
        assert np.allclose(back.wprime, bmap.wprime)

    def test_json_round_trip_matrices(self):
        rng = np.random.default_rng(4)
        fam = two_atom_family()
        bmap = random_boundary_map(fam, rng)
        back = BoundaryMap.from_json(bmap.to_json(), fam)
        assert np.allclose(back.vprime, bmap.vprime)
        assert np.allclose(back.wprime, bmap.wprime)


class TestTripleAndDomain:
    def test_window_requirements(self):
        fam = one_atom_family()
        bmap = make_boundary_map(fam, phases=(0.0, 0.0))
        with pytest.raises(ValueError):
            ExtensionTriple(fam, Window(0, 4), bmap)
        with pytest.raises(ValueError):
            ExtensionTriple(fam, Window(-1, 0), bmap)
        ExtensionTriple(fam, Window(-2, 0), bmap)

    def test_family_mismatch_rejected(self):
        fam = one_atom_family()
        other = one_atom_family(a=0.75)
        bmap = make_boundary_map(fam, phases=(0.0, 0.0))
        with pytest.raises(ValueError):
            ExtensionTriple(other, Window(-4, 4), bmap)

    def test_projection_conforms(self):
        rng = np.random.default_rng(5)
        triple = random_triple(rng)
        raw = TailVector.pure_tail(
            triple.family, triple.window,
            even={+1: [1.0, 2j], -1: [0.5, -1.0]},
            odd={+1: [3.0, 0.0], -1: [1j, 1.0]})
        res, scale = domain_residual(raw, triple)
        assert res > 1e-10 * max(1.0, scale)
        proj = project_to_domain(raw, triple)
        res, scale = domain_residual(proj, triple)
        assert res <= 1e-14 * max(1.0, scale)
        again = project_to_domain(proj, triple)
        assert again.add(proj.scale(-1.0)).norm() < 1e-14

    def test_tail_free_vectors_conform(self):
        rng = np.random.default_rng(6)
        triple = random_triple(rng)
        f = TailVector(LatticeVector(triple.family, triple.window))
        res, scale = domain_residual(f, triple)
        assert res == scale == 0

    def test_random_domain_vector(self):
        rng = np.random.default_rng(7)
        triple = random_triple(rng)
        f = random_domain_vector(triple, rng)
        assert f.norm() == pytest.approx(1.0)
        res, scale = domain_residual(f, triple)
        assert res <= 1e-10 * max(1.0, scale)

    def test_boundary_form_vanishes_on_domain(self):
        rng = np.random.default_rng(8)
        for _ in range(3):
            triple = random_triple(rng)
            for _ in range(10):
                f = random_domain_vector(triple, rng)
                g = random_domain_vector(triple, rng)
                assert abs(boundary_form(f, g)) < 1e-12
            h = TailVector.pure_tail(triple.family, triple.window,
                                     even={+1: [1.0, 0.0]})
            k = TailVector.pure_tail(triple.family, triple.window,
                                     odd={+1: [1.0, 0.0]})
            assert abs(boundary_form(h, k)) > 1e-3 * h.norm() * k.norm()

    def test_shift_covariance(self):
        rng = np.random.default_rng(9)
        triple = random_triple(rng)
        for _ in range(5):
            f = random_domain_vector(triple, rng)
            uf = apply_U(f)
            assert not uf.finite.lost
            res, scale = domain_residual(uf, triple)
            assert res <= 1e-12 * max(1.0, scale)

    def test_json_round_trip(self):
        rng = np.random.default_rng(10)
        triple = random_triple(rng)
        back = ExtensionTriple.from_json(triple.to_json())
        assert back.family == triple.family
        assert back.window == triple.window
        assert np.allclose(back.bmap.vprime, triple.bmap.vprime)


def remainder_gram_gap(triple):
    """Largest entry of G - 1 for the closed-form Gram G of the remainders
    that ``assemble`` uses."""
    q = triple.family.q
    alpha, beta = remainder_coefficients(triple)
    gram = (alpha.conj().T @ alpha + beta.conj().T @ beta) / (1 - q * q)
    return float(np.max(np.abs(gram - np.eye(len(gram))), initial=0.0))


class TestAssembly:
    def test_gram_structure(self):
        # sites first, then the remainders, which are orthonormal
        rng = np.random.default_rng(11)
        triple = random_triple(rng, window=Window(-4, 6))
        model = assemble(triple)
        sites = model.site_label_indices()
        assert sites == list(range(len(sites)))
        assert model.dim - len(sites) == 4  # two minus atoms, two parities
        assert remainder_gram_gap(triple) <= 1e-12

    def test_model_is_hermitian(self):
        rng = np.random.default_rng(12)
        for window in (Window(-4, 6), Window(-2, 0), Window(-8, 12)):
            triple = random_triple(rng, window=window)
            model = assemble(triple)
            assert model.hermiticity_residual() < 1e-12
            herm = model.hermitian_matrix()
            assert np.allclose(herm, herm.conj().T, atol=1e-10 * max(
                1.0, np.linalg.norm(herm)))

    @pytest.mark.parametrize("kind", (1, 2, 3, 4, 5))
    def test_hermiticity_residual_is_that_of_the_whole_matrix(self, kind):
        # also with V' off the isometry, and, on kind 1, on a window whose
        # squared entries overflow (q = 0.2, n_max = 300)
        triple = build_catalog_triple(kind)
        bad = BoundaryMap(triple.family, 1.2 * triple.bmap.vprime,
                          triple.bmap.wprime, validate=False)
        cases = [triple, ExtensionTriple(triple.family, triple.window, bad)]
        if kind == 1:
            cases.append(build_catalog_triple(1, {"q": 0.2, "window": {
                "n_min": -6, "n_max": 300}}))
        for t in cases:
            model = assemble(t)
            want = relative_residual(model.matrix, model.matrix.conj().T)
            assert abs(model.hermiticity_residual() - want) <= 1e-14 * want

    def test_minimal_window_dimension(self):
        triple = simple_triple(window=Window(-2, 0))
        model = assemble(triple)
        assert model.dim == 4
        assert sorted(lab[0] for lab in model.labels) == ["site", "site",
                                                          "tail", "tail"]

    def test_site_block_matches_difference_matrix(self):
        rng = np.random.default_rng(13)
        triple = random_triple(rng, window=Window(-4, 5))
        model = assemble(triple)
        herm = model.hermitian_matrix()
        sites = model.site_label_indices()
        block = herm[np.ix_(sites, sites)]
        full = matrix_of("X", triple.family, triple.window)
        order = basis_indices(triple.family, triple.window)
        pos = {t: k for k, t in enumerate(order)}
        keep = [pos[lab[1:]] for lab in model.labels if lab[0] == "site"]
        assert np.allclose(block, full[np.ix_(keep, keep)], atol=1e-12)

    def test_spectrum_is_real_and_sorted(self):
        rng = np.random.default_rng(14)
        triple = random_triple(rng, window=Window(-5, 7))
        vals = spectrum(triple)
        assert vals.dtype.kind == "f"
        assert np.all(np.diff(vals) >= 0)
        model = assemble(triple)
        herm = np.linalg.eigvalsh(model.hermitian_matrix())
        assert np.allclose(vals, herm, atol=1e-8 * max(1.0, abs(vals).max()))

    @pytest.mark.parametrize("kind", (1, 3))
    @pytest.mark.parametrize("q,n_max", ((0.2, 24), (0.3, 30), (0.5, 60)))
    def test_high_windows_assemble(self, kind, q, n_max):
        # the remainder norms once cancelled to zero at these heights
        triple = build_catalog_triple(
            kind, {"q": q, "window": {"n_min": -6, "n_max": n_max}})
        model = assemble(triple)
        assert model.hermiticity_residual() <= 1e-12
        assert np.all(np.isfinite(model.spectrum()))
        assert remainder_gram_gap(triple) <= 1e-12


class TestVerification:
    def test_good_triple_passes(self):
        rng = np.random.default_rng(15)
        triple = random_triple(rng)
        report = verify_extension(triple)
        assert report.passed, report.to_json()
        names = {c.name for c in report.checks}
        assert "boundary pairing vanishes on conforming pairs" in names
        assert "shift keeps conforming vectors conforming" in names
        assert "assembled model is hermitian" in names

    def test_phase_triple_passes(self):
        report = verify_extension(simple_triple())
        assert report.passed, report.to_json()

    def test_corrupted_map_fails_loudly(self):
        fam = one_atom_family()
        good = make_boundary_map(fam, phases=(0.3, 0.9))
        bad = BoundaryMap(fam, good.vprime, 1.3 * good.wprime, validate=False)
        triple = ExtensionTriple(fam, Window(-6, 8), bad)
        report = verify_extension(triple)
        assert not report.passed
        failed = {c.name for c in report.checks if not c.passed}
        assert "boundary pairing vanishes on conforming pairs" in failed
        assert "boundary matrices are weight isometries" in failed

    def test_report_json(self):
        report = verify_extension(simple_triple())
        data = report.to_json()
        assert data["passed"] is True
        assert len(data["checks"]) >= 6
        for row in data["checks"]:
            assert set(row) >= {"name", "value", "bound", "kind", "passed"}
