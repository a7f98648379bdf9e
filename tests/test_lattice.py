from __future__ import annotations

import math
import random

import numpy as np
import pytest

from lattice_oracle import inner_raw
from qheis.lattice import (
    MAX_SITES,
    Atom,
    AtomFamily,
    LatticeVector,
    Window,
    apply_generator,
    basis_indices,
    check_relations_lattice,
    check_window,
    inner,
    matrix_of,
    relative_residual,
)


def family_one_atom(q=0.5, a=0.7, w=1.0) -> AtomFamily:
    return AtomFamily(q, [Atom(a, w)], [Atom(a, w)])


def random_vector(family, window, rng, margin=0) -> LatticeVector:
    entries = {}
    for sign in (+1, -1):
        for j in range(len(family.atoms(sign))):
            for n in range(window.n_min + margin, window.n_max - margin + 1):
                if rng.random() < 0.4:
                    entries[(sign, j, n)] = complex(rng.gauss(0, 1), rng.gauss(0, 1))
    return LatticeVector(family, window, entries)


class TestFamilyAndWindow:
    def test_family_validation(self):
        with pytest.raises(ValueError):
            AtomFamily(1.5, [Atom(0.7)], [])
        with pytest.raises(ValueError):
            AtomFamily(0.5, [Atom(0.3)], [])  # below q
        with pytest.raises(ValueError):
            AtomFamily(0.5, [Atom(0.7, -1.0)], [])
        AtomFamily(0.5, [Atom(0.5)], [Atom(0.999)])  # boundary position ok

    def test_validation_bypass_for_corrupted_data(self):
        fam = AtomFamily(0.5, [Atom(0.0)], [Atom(0.7)], validate=False)
        assert fam.plus[0].position == 0.0

    def test_weight_scaling(self):
        fam = AtomFamily(0.37, [Atom(0.7, 2.0)], [Atom(0.5, 1.0)])
        for sign in (+1, -1):
            for n in range(-8, 9):
                w1 = fam.weight(sign, 0, n + 1)
                w0 = fam.weight(sign, 0, n)
                assert abs(w1 - fam.q * w0) <= 1e-12 * abs(w1)

    def test_positions(self):
        fam = family_one_atom(0.5, 0.7)
        assert fam.position(+1, 0, 2) == pytest.approx(0.175)
        assert fam.position(-1, 0, 0) == pytest.approx(-0.7)

    def test_window(self):
        w = Window(-3, 5)
        assert w.length == 8
        assert w.is_interior(-2) and not w.is_interior(-3)
        with pytest.raises(ValueError):
            Window(4, 4)

    def test_json_round_trip(self):
        fam = AtomFamily(0.5, [Atom(0.7, 2.0), Atom(0.9)], [Atom(0.6)])
        assert AtomFamily.from_json(fam.to_json()) == fam
        w = Window(-4, 7)
        assert Window.from_json(w.to_json()) == w


class TestWindowBounds:
    def test_site_budget_counts_atoms_times_layers(self):
        fam = AtomFamily(0.6, [Atom(0.7)], [Atom(0.7)])
        check_window(fam, Window(-6, MAX_SITES // 2 - 7))
        with pytest.raises(ValueError, match="over MAX_SITES = 2048"):
            check_window(fam, Window(-6, MAX_SITES // 2 - 6))

    def test_wide_families_are_refused_before_any_grid(self):
        atoms = [Atom(0.7 + 0.01 * k) for k in range(4)]
        fam = AtomFamily(0.5, atoms, atoms)
        with pytest.raises(ValueError, match="8 atoms on 307 layers"):
            check_window(fam, Window(-6, 300))


class TestRelativeResidual:
    @staticmethod
    def unscaled(lhs, rhs, axis=None):
        scale = np.maximum(np.linalg.norm(lhs, axis=axis),
                           np.linalg.norm(rhs, axis=axis))
        return np.linalg.norm(lhs - rhs, axis=axis) / np.maximum(1.0, scale)

    def test_matches_the_unscaled_formula_bit_for_bit(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            shape = (9, 3, int(rng.integers(2, 12)))
            size = 10.0 ** rng.uniform(-4, 4, (9, 1, 1))
            lhs = size * (rng.standard_normal(shape)
                          + 1j * rng.standard_normal(shape))
            rhs = lhs + 1e-9 * size * rng.standard_normal(shape)
            for a, b in ((lhs, rhs), (lhs[1::2], rhs[1::2]), (lhs[4], rhs[4])):
                got = relative_residual(a, b, axis=(-2, -1))
                assert np.array_equal(got, self.unscaled(a, b, (-2, -1)))
                assert relative_residual(a, b) == self.unscaled(a, b)
            square = lhs.reshape(-1, shape[-1])[:shape[-1]]
            assert (relative_residual(square, square.conj().T)
                    == self.unscaled(square, square.conj().T))

    def test_entries_past_the_square_root_of_the_float_range(self):
        rng = np.random.default_rng(17)
        lhs = rng.standard_normal((4, 2, 5)) + 1j * rng.standard_normal((4, 2, 5))
        rhs = lhs * (1 + 1e-12)
        want = relative_residual(lhs, rhs, axis=(-2, -1))
        assert np.all(want > 0) and np.all(want < 1e-11)
        # the unscaled formula gives nan here, as the squares overflow; the
        # residual of sides of norm > 1 does not change under exact scaling
        got = relative_residual(2.0 ** 700 * lhs, 2.0 ** 700 * rhs,
                                axis=(-2, -1))
        assert np.array_equal(got, want)
        assert relative_residual(2.0 ** 700 * lhs, 2.0 ** 700 * rhs) == (
            relative_residual(lhs, rhs))


class TestVectors:
    def test_entry_validation(self):
        fam = family_one_atom()
        win = Window(-2, 2)
        with pytest.raises(ValueError):
            LatticeVector(fam, win, {(+1, 0, 5): 1.0})
        with pytest.raises(ValueError):
            LatticeVector(fam, win, {(+1, 3, 0): 1.0})

    def test_orthonormality(self):
        fam = AtomFamily(0.5, [Atom(0.7), Atom(0.9, 2.0)], [Atom(0.6)])
        win = Window(-3, 3)
        idx = basis_indices(fam, win)
        for k, t1 in enumerate(idx[:10]):
            for t2 in idx[:10]:
                e1 = LatticeVector.basis_vector(fam, win, *t1)
                e2 = LatticeVector.basis_vector(fam, win, *t2)
                expected = 1.0 if t1 == t2 else 0.0
                assert inner(e1, e2) == pytest.approx(expected)

    def test_inner_matches_raw_summation_oracle(self):
        fam = AtomFamily(0.41, [Atom(0.5, 1.5), Atom(0.8)], [Atom(0.7, 0.5)])
        win = Window(-5, 6)
        rng = random.Random(2)
        for _ in range(20):
            f = random_vector(fam, win, rng)
            g = random_vector(fam, win, rng)
            direct = inner(f, g)
            oracle = inner_raw(f, g)
            assert abs(direct - oracle) <= 1e-12 * max(1.0, abs(direct))

    def test_inner_rejects_mismatched_families(self):
        f = LatticeVector.zero(family_one_atom(0.5), Window(-2, 2))
        g = LatticeVector.zero(family_one_atom(0.4), Window(-2, 2))
        with pytest.raises(ValueError):
            inner(f, g)

    def test_point_value_normalization(self):
        fam = family_one_atom(0.5, 0.7, 2.0)
        win = Window(-2, 4)
        e = LatticeVector.basis_vector(fam, win, +1, 0, 3)
        # basis coefficient 1 corresponds to point value (w q^n)^{-1/2}
        assert e.point_value(+1, 0, 3) == pytest.approx(1.0 / math.sqrt(2.0 * 0.5 ** 3))


class TestGeneratorActions:
    def test_shift_down(self):
        fam = family_one_atom()
        win = Window(-3, 3)
        e = LatticeVector.basis_vector(fam, win, +1, 0, 0)
        assert apply_generator("U", e).entries == {(+1, 0, -1): 1.0 + 0j}
        assert apply_generator("U*", e).entries == {(+1, 0, 1): 1.0 + 0j}

    def test_edge_loss_flag(self):
        fam = family_one_atom()
        win = Window(-3, 3)
        e = LatticeVector.basis_vector(fam, win, +1, 0, -3)
        img = apply_generator("U", e)
        assert img.lost and not img.entries
        assert not apply_generator("U*", e).lost

    def test_position_action(self):
        fam = family_one_atom(0.5, 0.7)
        win = Window(-3, 3)
        for sign in (+1, -1):
            e = LatticeVector.basis_vector(fam, win, sign, 0, 2)
            img = apply_generator("P", e)
            assert img.entries == {(sign, 0, 2): sign * 0.7 * 0.25 + 0j}

    def test_difference_action(self):
        q, a = 0.5, 0.7
        fam = family_one_atom(q, a)
        win = Window(-3, 3)
        n = 1
        for sign in (+1, -1):
            e = LatticeVector.basis_vector(fam, win, sign, 0, n)
            img = apply_generator("X", e)
            t = sign * a * q ** n
            assert img.coefficient(sign, 0, n + 1) == pytest.approx(1j / t / math.sqrt(q))
            assert img.coefficient(sign, 0, n - 1) == pytest.approx(-1j / t * math.sqrt(q))

    def test_u_unitary_on_interior(self):
        fam = family_one_atom()
        win = Window(-4, 4)
        rng = random.Random(5)
        f = random_vector(fam, win, rng, margin=1)
        g = random_vector(fam, win, rng, margin=1)
        uf, ug = apply_generator("U", f), apply_generator("U", g)
        assert not uf.lost and not ug.lost
        assert inner(uf, ug) == pytest.approx(inner(f, g))

    def test_x_symmetric_on_interior(self):
        fam = AtomFamily(0.6, [Atom(0.7), Atom(0.65, 2.0)], [Atom(0.8)])
        win = Window(-4, 4)
        rng = random.Random(8)
        f = random_vector(fam, win, rng, margin=1)
        g = random_vector(fam, win, rng, margin=1)
        xf, xg = apply_generator("X", f), apply_generator("X", g)
        assert not xf.lost and not xg.lost
        lhs, rhs = inner(xf, g), inner(f, xg)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_unknown_generator(self):
        fam = family_one_atom()
        e = LatticeVector.basis_vector(fam, Window(-2, 2), +1, 0, 0)
        with pytest.raises(ValueError):
            apply_generator("Q", e)


class TestMatrices:
    def test_p_matrix_diagonal(self):
        fam = family_one_atom(0.5, 0.7)
        win = Window(-2, 2)
        mat = matrix_of("P", fam, win)
        idx = basis_indices(fam, win)
        diag = np.array([fam.position(*t) for t in idx])
        assert np.allclose(mat, np.diag(diag))
        assert np.allclose(mat, mat.conj().T)

    def test_u_matrix_shift_structure(self):
        fam = family_one_atom()
        win = Window(-2, 2)
        mat = matrix_of("U", fam, win)
        idx = basis_indices(fam, win)
        pos = {t: k for k, t in enumerate(idx)}
        # one lost column per (sign, j): the bottom edge
        for col, (sign, j, n) in enumerate(idx):
            column = mat[:, col]
            if n == win.n_min:
                assert not column.any()
            else:
                assert column[pos[(sign, j, n - 1)]] == 1.0
                assert np.count_nonzero(column) == 1

    def test_matrix_consistent_with_action(self):
        fam = AtomFamily(0.5, [Atom(0.7)], [Atom(0.9, 2.0)])
        win = Window(-3, 3)
        idx = basis_indices(fam, win)
        pos = {t: k for k, t in enumerate(idx)}
        rng = random.Random(3)
        vec = random_vector(fam, win, rng)
        arr = np.zeros(len(idx), dtype=complex)
        for t, v in vec.entries.items():
            arr[pos[t]] = v
        for gen in ("P", "X", "U", "U*"):
            img = apply_generator(gen, vec)
            got = matrix_of(gen, fam, win) @ arr
            want = np.zeros(len(idx), dtype=complex)
            for t, v in img.entries.items():
                want[pos[t]] = v
            assert np.allclose(got, want)


class TestRelationResiduals:
    def test_single_atom_config(self):
        fam = family_one_atom(0.5, 0.7)
        report = check_relations_lattice(fam, Window(-10, 10))
        assert report.passed
        assert report.max_residual < 1e-12

    def test_multi_atom_random_configs(self):
        rng = random.Random(17)
        for _ in range(5):
            q = rng.uniform(0.2, 0.9)
            def atoms():
                return [Atom(rng.uniform(q, 0.999), rng.uniform(0.5, 2.0))
                        for _ in range(rng.randint(1, 3))]
            fam = AtomFamily(q, atoms(), atoms())
            report = check_relations_lattice(fam, Window(-6, 8))
            assert report.passed, report.to_json()

    def test_window_too_small(self):
        with pytest.raises(ValueError):
            check_relations_lattice(family_one_atom(), Window(0, 3))
