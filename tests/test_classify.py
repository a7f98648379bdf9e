"""Tests for the representation of elements and the classification of
restrictions: commutants, unitary equivalence, and the worked catalog."""

import numpy as np
import pytest

from qheis.algebra import AlgebraElement
from qheis.classify import (
    CATALOG_KINDS,
    CharacterizationReport,
    CommutantProblem,
    EquivalenceReport,
    apply_element,
    build_catalog_triple,
    characterization_report,
    commutant_dim,
    dft_matrix,
    distinct_position_triple,
    element_margin,
    irreducibility_report,
    repeated_position_triple,
    single_atom_triple,
    two_block_triple,
    unitary_equivalent,
    verify_representation,
)
from qheis.extensions import BoundaryMap, ExtensionTriple
from qheis.lattice import Atom, AtomFamily, LatticeVector, Window, inner


@pytest.fixture
def quarter_family():
    return AtomFamily(0.25, [Atom(0.8)], [Atom(0.8)])


def gen(letter):
    return AlgebraElement.generator(letter)


class TestApplyElement:
    def test_position_generator_is_diagonal(self, quarter_family):
        window = Window(-5, 6)
        e = LatticeVector.basis_vector(quarter_family, window, +1, 0, 1)
        out = apply_element(gen("p"), e)
        assert out.coefficient(+1, 0, 1) == pytest.approx(0.2)
        assert len(out.support()) == 1

    def test_shift_acts_before_the_power(self, quarter_family):
        window = Window(-5, 6)
        e = LatticeVector.basis_vector(quarter_family, window, +1, 0, 1)
        out = apply_element(gen("p") * gen("u"), e)
        # shift to layer 0 first, then multiply by t_0 = 0.8
        assert out.coefficient(+1, 0, 0) == pytest.approx(0.8)

    def test_frozen_difference_composition(self, quarter_family):
        window = Window(-5, 6)
        e = LatticeVector.basis_vector(quarter_family, window, +1, 0, 1)
        out = apply_element(gen("x") * gen("u^-1"), e)
        assert out.coefficient(+1, 0, 1) == pytest.approx(-10j)
        assert out.coefficient(+1, 0, 3) == pytest.approx(40j)

    def test_commutation_constant_between_shift_and_difference(
            self, quarter_family):
        window = Window(-5, 6)
        e = LatticeVector.basis_vector(quarter_family, window, +1, 0, 1)
        lhs = apply_element(gen("u") * gen("x"), e)
        rhs = apply_element(gen("x") * gen("u"), e).scale(1 / 0.25)
        assert (lhs - rhs).norm() == pytest.approx(0.0, abs=1e-14)

    def test_edge_loss_raises(self, quarter_family):
        window = Window(-5, 6)
        e = LatticeVector.basis_vector(quarter_family, window, +1, 0, 1)
        seventh = gen("u") ** 7
        with pytest.raises(ValueError, match="window edge"):
            apply_element(seventh, e)

    def test_element_margin(self):
        assert element_margin(AlgebraElement.zero()) == 0
        assert element_margin(gen("p")) == 1
        assert element_margin(gen("p") * gen("u") * gen("u")) == 3
        assert element_margin(gen("x") * gen("u^-1")) == 2


class TestRepresentation:
    def test_default_family_passes(self):
        family = AtomFamily(0.5, [Atom(0.7)], [Atom(0.6, 0.5)])
        report = verify_representation(family, seed=7)
        assert report.passed
        for check in report.checks:
            assert check.value < 1e-12

    def test_two_atom_family_passes(self):
        family = AtomFamily(0.4, [Atom(0.55), Atom(0.9, 2.0)],
                            [Atom(0.7, 0.3)])
        report = verify_representation(family, seed=11, n_samples=10)
        assert report.passed

    def test_report_json_shape(self):
        family = AtomFamily(0.5, [Atom(0.7)], [Atom(0.7)])
        data = verify_representation(family, seed=3, n_samples=5).to_json()
        assert set(data) == {"passed", "degree", "n_samples", "seed", "checks"}
        assert len(data["checks"]) == 3

    def test_window_too_small_raises(self):
        family = AtomFamily(0.5, [Atom(0.7)], [Atom(0.7)])
        with pytest.raises(ValueError, match="window too small"):
            verify_representation(family, window=Window(-2, 3), degree=3)


class TestCommutant:
    def test_catalog_commutant_dims(self):
        expected = {1: 1, 2: 1, 3: 1, 4: 4, 5: 1}
        for kind, dim in expected.items():
            problem = CommutantProblem.from_triple(build_catalog_triple(kind))
            assert commutant_dim(problem) == dim, f"kind {kind}"

    def test_multiplicity_three_gives_nine(self):
        triple = repeated_position_triple(multiplicity=3)
        problem = CommutantProblem.from_triple(triple)
        assert commutant_dim(problem) == 9

    def test_irreducibility_report_fields(self):
        problem = CommutantProblem.from_triple(build_catalog_triple(3))
        report = irreducibility_report(problem)
        assert report.irreducible
        assert report.dim == 3
        assert report.largest_dropped_sv < 1e-12 * report.smallest_kept_sv
        data = report.to_json()
        assert data["commutant_dim"] == 1
        assert data["irreducible"] is True

    def test_a_triple_is_classified_by_its_boundary_map(self):
        triple = build_catalog_triple(5)
        problem = CommutantProblem.from_triple(triple)
        assert problem is triple.bmap
        family = triple.family
        assert problem.plus_positions.tolist() == [
            a.position for a in family.plus]
        assert problem.minus_weights.tolist() == [
            a.weight for a in family.minus]

    def test_mismatched_sides_rejected(self):
        with pytest.raises(ValueError, match="equally many atoms"):
            CommutantProblem([0.7], [1.0], [0.6, 0.8], [1.0, 1.0],
                             np.eye(1), np.eye(1))


class TestEquivalence:
    def test_identity_fast_path(self):
        problem = CommutantProblem.from_triple(build_catalog_triple(1))
        report = unitary_equivalent(problem, problem)
        assert report.verdict == "equivalent"
        assert report.residual == 0.0
        assert np.array_equal(report.witness_plus, np.eye(1))

    def test_phase_difference_is_the_invariant(self):
        a = CommutantProblem.from_triple(single_atom_triple(phases=(0.3, 0.7)))
        b = CommutantProblem.from_triple(single_atom_triple(phases=(1.0, 1.4)))
        c = CommutantProblem.from_triple(single_atom_triple(phases=(0.0, 0.9)))
        assert unitary_equivalent(a, b).verdict == "equivalent"
        assert unitary_equivalent(a, c).verdict == "inequivalent"

    def test_different_positions_inequivalent(self):
        p1 = CommutantProblem.from_triple(build_catalog_triple(1))
        p2 = CommutantProblem.from_triple(build_catalog_triple(2))
        report = unitary_equivalent(p1, p2)
        assert report.verdict == "inequivalent"
        assert report.reason == "no nonzero intertwiner exists"

    def test_dimension_mismatch_inequivalent(self):
        p1 = CommutantProblem.from_triple(build_catalog_triple(1))
        p3 = CommutantProblem.from_triple(build_catalog_triple(3))
        report = unitary_equivalent(p1, p3)
        assert report.verdict == "inequivalent"
        assert "different numbers" in report.reason

    def test_permuted_triple_equivalent_with_permutation_witness(self):
        triple = build_catalog_triple(3)
        perm = [2, 0, 1]
        pi = np.eye(3)[perm]
        family = triple.family
        shuffled = AtomFamily(family.q, [family.plus[k] for k in perm],
                              list(family.minus))
        bmap = BoundaryMap(shuffled, pi @ triple.bmap.vprime,
                           pi @ triple.bmap.wprime)
        other = ExtensionTriple(shuffled, triple.window, bmap)

        p1 = CommutantProblem.from_triple(triple)
        p2 = CommutantProblem.from_triple(other)
        report = unitary_equivalent(p1, p2)
        assert report.verdict == "equivalent"
        assert report.intertwiner_dim == 1
        assert report.residual < 1e-10

        w = report.witness_plus
        top = np.unravel_index(np.argmax(np.abs(w)), w.shape)
        phase = abs(w[top]) / w[top]
        assert np.allclose(w * phase, pi, atol=1e-10)
        assert np.allclose(report.witness_minus * phase, np.eye(3),
                           atol=1e-10)

    def test_reducible_without_unitary_witness_is_undecided(self):
        base = repeated_position_triple()
        family = base.family
        flipped = ExtensionTriple(
            family, base.window,
            BoundaryMap(family, np.diag([1.0, -1.0]), np.eye(2)))
        report = unitary_equivalent(CommutantProblem.from_triple(base),
                                    CommutantProblem.from_triple(flipped))
        assert report.verdict == "undecided"
        assert report.intertwiner_dim == 2
        assert "reducible" in report.reason
        # the best failed candidate's residuals come along, no witness
        assert 1e-10 < report.residual < np.inf
        assert report.witness_plus is None

    def test_reports_carry_the_health_of_the_solve(self):
        problem = CommutantProblem.from_triple(build_catalog_triple(3))
        report = unitary_equivalent(problem, problem)
        commutant = irreducibility_report(problem)
        data = report.to_json()
        for key in ("smallest_kept_sv", "largest_dropped_sv",
                    "position_tol", "position_gap"):
            assert data[key] == getattr(commutant, key)
        assert data["position_tol"] == 1e-10
        assert data["position_gap"] == pytest.approx(0.15)
        mismatch = unitary_equivalent(problem, CommutantProblem.from_triple(
            build_catalog_triple(1))).to_json()
        assert mismatch["smallest_kept_sv"] is None

    def test_witness_phase_is_canonical(self):
        # conjugating by diagonal phases: the witness is diagonal with unit
        # entries, and the first of them is made real and positive
        p1 = CommutantProblem.from_triple(build_catalog_triple(3))
        d_plus = np.diag(np.exp(1j * np.array([0.4, -2.0, 1.1])))
        d_minus = np.diag(np.exp(1j * np.array([2.5, 0.3, -0.9])))
        p2 = CommutantProblem(p1.plus_positions, p1.plus_weights,
                              p1.minus_positions, p1.minus_weights,
                              d_plus @ p1.vprime @ d_minus.conj(),
                              d_plus @ p1.wprime @ d_minus.conj())
        report = unitary_equivalent(p1, p2)
        assert report.verdict == "equivalent"
        phase = np.exp(-0.4j)
        assert np.allclose(report.witness_plus, d_plus * phase, atol=1e-12)
        assert np.allclose(report.witness_minus, d_minus * phase, atol=1e-12)
        assert report.witness_plus[0, 0].real > 0
        assert abs(report.witness_plus[0, 0].imag) < 1e-15

    def test_report_json_shape(self):
        problem = CommutantProblem.from_triple(build_catalog_triple(1))
        data = unitary_equivalent(problem, problem).to_json()
        assert data["verdict"] == "equivalent"
        assert data["witness_plus"][0][0] == {"re": 1.0, "im": 0.0}
        assert set(data["residuals"]) == {
            "plus positions intertwine", "minus positions intertwine",
            "first boundary matrix intertwines",
            "second boundary matrix intertwines",
            "plus metric preserved", "minus metric preserved"}


class TestCatalog:
    def test_kind_table_is_complete(self):
        assert set(CATALOG_KINDS) == {1, 2, 3, 4, 5}
        for name, blurb in CATALOG_KINDS.values():
            assert name and blurb

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown catalog kind"):
            build_catalog_triple(6)

    def test_params_pass_through(self):
        triple = build_catalog_triple(1, {"q": 0.4, "plus_weight": 2.0})
        assert triple.family.q == 0.4
        assert triple.family.plus[0].weight == 2.0

    def test_window_param_accepts_json(self):
        triple = build_catalog_triple(1, {"window": {"n_min": -3, "n_max": 4}})
        assert triple.window == Window(-3, 4)

    def test_dft_matrix_is_unitary(self):
        f = dft_matrix(4)
        assert np.allclose(f.conj().T @ f, np.eye(4), atol=1e-14)

    def test_distinct_positions_must_differ(self):
        with pytest.raises(ValueError, match="pairwise distinct"):
            distinct_position_triple(positions=(0.6, 0.6, 0.8))

    def test_diagonal_block_rejected_as_reducible(self):
        with pytest.raises(ValueError, match="nonscalar diagonal commutant"):
            distinct_position_triple(positions=(0.55, 0.7, 0.85),
                                     block=np.eye(3))

    def test_multiplicity_floor(self):
        with pytest.raises(ValueError, match="multiplicity >= 2"):
            repeated_position_triple(multiplicity=1)

    def test_contraction_spectrum_bounds_enforced(self):
        with pytest.raises(ValueError, match=r"\[1/3, 2/3\]"):
            two_block_triple(t_block=0.9 * np.eye(2))

    def test_scalar_contraction_block_rejected(self):
        # a plain scalar contraction commutes with everything
        with pytest.raises(ValueError, match="scalar joint commutants"):
            two_block_triple(t_block=0.7 * np.eye(2))

    def test_equal_block_positions_rejected(self):
        with pytest.raises(ValueError, match="must differ"):
            two_block_triple(block_positions=(0.7, 0.7))

    def test_two_block_default_is_irreducible(self):
        problem = CommutantProblem.from_triple(two_block_triple())
        assert commutant_dim(problem) == 1


class TestCharacterization:
    def test_catalog_triples_pass(self):
        for kind in CATALOG_KINDS:
            report = characterization_report(build_catalog_triple(kind))
            assert report.passed, f"kind {kind}"

    def test_check_names(self):
        report = characterization_report(build_catalog_triple(1))
        names = [c.name for c in report.checks]
        assert names == [
            "position operator has trivial kernel",
            "defining relations hold on the lattice",
            "position matrix is hermitian",
            "point masses scale by q per layer",
            "shift is isometric away from the window edge",
            "difference operator is symmetric on the interior",
            "boundary matrices are weight isometries",
        ]

    def test_zero_position_fails_and_skips_relations(self):
        family = AtomFamily(0.5, [Atom(0.0)], [Atom(0.6)], validate=False)
        bmap = BoundaryMap(family, np.eye(1), np.eye(1), validate=False)
        triple = ExtensionTriple(family, Window(-4, 5), bmap)
        report = characterization_report(triple)
        assert not report.passed
        by_name = {c.name: c for c in report.checks}
        kernel = by_name["position operator has trivial kernel"]
        assert not kernel.passed
        relations = by_name["defining relations hold on the lattice"]
        assert not relations.passed
        assert "skipped" in relations.detail

    def test_report_json_shape(self):
        data = characterization_report(build_catalog_triple(2)).to_json()
        assert data["passed"] is True
        assert all(set(c) >= {"name", "value", "bound", "passed"}
                   for c in data["checks"])
