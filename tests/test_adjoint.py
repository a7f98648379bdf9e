import math
import random

import numpy as np
import pytest

from lattice_oracle import materialize
from qheis.adjoint import (
    TailVector,
    apply_U,
    apply_X_star,
    boundary_form,
    boundary_form_direct,
)
from qheis.classify import build_catalog_triple
from qheis.lattice import Atom, AtomFamily, LatticeVector, Window, apply_generator, inner


def two_sided_family(q=0.5):
    return AtomFamily(q, [Atom(0.7, 1.0), Atom(0.9, 2.0)], [Atom(0.6, 0.5)])


def stack_of(members):
    """One stack of tail vectors with the given members, in order."""
    arrays = zip(*(m.arrays() for m in members))
    return TailVector.from_arrays(members[0].family, members[0].window,
                                  *(np.stack(a) for a in arrays))


def random_tail_vector(family, window, rng, margin=1):
    """Random finite part (support away from edges) plus random tails."""
    entries = {}
    for sign in (+1, -1):
        for j in range(len(family.atoms(sign))):
            for n in range(window.n_min + margin, window.n_max - margin + 1):
                if rng.random() < 0.35:
                    entries[(sign, j, n)] = complex(rng.gauss(0, 1), rng.gauss(0, 1))
    def amplitudes():
        return {s: np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1))
                             for _ in family.atoms(s)]) for s in (+1, -1)}
    return TailVector(LatticeVector(family, window, entries),
                      amplitudes(), amplitudes())


class TestConstruction:
    def test_window_must_cover_tail_region(self):
        fam = two_sided_family()
        with pytest.raises(ValueError):
            TailVector(LatticeVector(fam, Window(0, 5)))
        with pytest.raises(ValueError):
            TailVector(LatticeVector(fam, Window(-4, -1)))
        TailVector(LatticeVector(fam, Window(-1, 0)))

    def test_tail_length_checked(self):
        fam = two_sided_family()
        with pytest.raises(ValueError):
            TailVector.pure_tail(fam, Window(-3, 5), even={+1: [1.0]})

    def test_tail_point_values(self):
        fam = two_sided_family()
        t = TailVector.pure_tail(fam, Window(-3, 5),
                                 even={+1: [2.0, 0.0]}, odd={+1: [0.0, 3j]})
        assert t.tail_point_value(+1, 0, 0) == 2.0
        assert t.tail_point_value(+1, 0, 4) == 2.0
        assert t.tail_point_value(+1, 0, 3) == 0.0
        assert t.tail_point_value(+1, 1, 3) == 3j
        assert t.tail_point_value(+1, 1, 1) == 3j
        assert t.tail_point_value(+1, 0, -2) == 0.0
        assert t.tail_point_value(+1, 1, -1) == 0.0
        assert t.tail_point_value(-1, 0, 2) == 0.0

class TestInnerProduct:
    def test_norm_identities(self):
        for q, w in ((0.5, 1.0), (0.37, 2.5), (0.8, 0.3)):
            fam = AtomFamily(q, [Atom((q + 1) / 2, w)], [])
            win = Window(-2, 3)
            even = TailVector.pure_tail(fam, win, even={+1: [1 + 2j]})
            odd = TailVector.pure_tail(fam, win, odd={+1: [1 - 1j]})
            assert even.inner(even) == pytest.approx(5 * w / (1 - q * q))
            assert odd.inner(odd) == pytest.approx(2 * w * q / (1 - q * q))
            assert even.inner(odd) == pytest.approx(0.0)

    def test_inner_matches_materialized_oracle(self):
        fam = two_sided_family(0.5)
        win = Window(-4, 6)
        deep = Window(-4, 90)
        rng = random.Random(7)
        for _ in range(10):
            f = random_tail_vector(fam, win, rng)
            g = random_tail_vector(fam, win, rng)
            exact = f.inner(g)
            oracle = inner(materialize(f, deep), materialize(g, deep))
            assert abs(exact - oracle) <= 1e-12 * max(1.0, abs(exact))

    def test_sesquilinear(self):
        fam = two_sided_family()
        win = Window(-3, 5)
        rng = random.Random(3)
        f = random_tail_vector(fam, win, rng)
        g = random_tail_vector(fam, win, rng)
        c = 0.7 - 1.9j
        assert f.scale(c).inner(g) == pytest.approx(c * f.inner(g))
        assert f.inner(g.scale(c)) == pytest.approx(np.conj(c) * f.inner(g))
        assert g.inner(f) == pytest.approx(np.conj(f.inner(g)))

    def test_norm_matches_the_unscaled_formula_bit_for_bit(self):
        fam = two_sided_family()
        win = Window(-4, 9)
        rng = np.random.default_rng(11)
        rows, shape = 3, (3, win.length + 1)
        for _ in range(20):
            size = 10.0 ** rng.uniform(-3, 3, 12)

            def draw(*dims):
                z = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
                return z * size.reshape((12,) + (1,) * (len(dims) - 1))

            f = TailVector.from_arrays(fam, win, draw(12, *shape),
                                       draw(12, rows), draw(12, rows))
            for g in (f, f[::2], f[5]):
                want = np.sqrt(np.maximum(0.0, g.inner(g).real))
                assert np.array_equal(g.norm(), want)

    def test_norm_of_huge_vectors_is_finite(self):
        fam = two_sided_family()
        f = random_tail_vector(fam, Window(-3, 6), random.Random(5))
        # exact scaling by a power of two: the norm scales exactly too; the
        # adjoint image has no tails, so only its finite part overflows
        for g in (f, apply_X_star(f)):
            huge = g.scale(2.0 ** 600)
            assert math.isfinite(huge.norm())
            assert huge.norm() == np.ldexp(g.norm(), 600)

class TestAdjointAction:
    def test_reduces_to_difference_operator_without_tails(self):
        fam = two_sided_family()
        win = Window(-4, 5)
        rng = random.Random(9)
        entries = {(+1, 0, n): complex(rng.gauss(0, 1), rng.gauss(0, 1))
                   for n in range(-3, 5)}
        v = LatticeVector(fam, win, entries)
        got = apply_X_star(TailVector(v))
        want = apply_generator("X", v)
        _, even, odd = got.arrays()
        assert not even.any() and not odd.any()
        assert (got.finite - want).norm() < 1e-15

    def test_even_tail_contribution_frozen(self):
        q, a, w = 0.5, 0.7, 1.0
        fam = AtomFamily(q, [Atom(a, w)], [])
        t = TailVector.pure_tail(fam, Window(-2, 3), even={+1: [1.0]})
        img = apply_X_star(t)
        _, even, odd = img.arrays()
        assert not even.any() and not odd.any()
        assert set(img.finite.entries) == {(+1, 0, -1)}
        # point value -i q / a, coefficient scales by sqrt(w q^{-1})
        want = -1j * q / a * math.sqrt(w / q)
        assert img.finite.coefficient(+1, 0, -1) == pytest.approx(want)

    def test_odd_tail_contribution_frozen(self):
        q, b, w = 0.5, 0.6, 0.5
        fam = AtomFamily(q, [], [Atom(b, w)])
        t = TailVector.pure_tail(fam, Window(-2, 3), odd={-1: [1.0]})
        img = apply_X_star(t)
        assert set(img.finite.entries) == {(-1, 0, 0)}
        # minus side flips the sign factor: point value +i zeta / b
        assert img.finite.coefficient(-1, 0, 0) == pytest.approx(1j / b * math.sqrt(w))

    def test_telescoping_matches_truncated_difference(self):
        # applying X to a deeply materialized tail reproduces the adjoint
        # image on layers far from the truncation edge
        fam = two_sided_family(0.5)
        win = Window(-4, 40)
        t = TailVector.pure_tail(fam, win, even={+1: [1.5, -2j], -1: [0.5]},
                                 odd={+1: [1j, 1.0], -1: [2.0]})
        img = apply_X_star(t)
        oracle = apply_generator("X", materialize(t))
        for idx in set(img.finite.entries) | set(oracle.entries):
            if idx[2] > 20:
                # truncation artifacts live at the window top; roundoff in
                # the oracle grows like q^{-n/2} below it
                continue
            assert img.finite.coefficient(*idx) == pytest.approx(
                oracle.coefficient(*idx), rel=1e-9, abs=1e-11), idx

    def test_edge_loss_flagged(self):
        fam = two_sided_family()
        win = Window(-3, 4)
        v = LatticeVector.basis_vector(fam, win, +1, 0, -3)
        img = apply_X_star(TailVector(v))
        assert img.finite.lost


class TestShifts:
    def test_tail_swap(self):
        fam = two_sided_family()
        f = TailVector.pure_tail(fam, Window(-3, 5),
                                 even={+1: [1.0, 2.0]}, odd={+1: [3.0, 4.0]})
        sq = fam.sqrt_q
        uf = apply_U(f)
        assert np.allclose(uf.even[+1], [3.0 * sq, 4.0 * sq])
        assert np.allclose(uf.odd[+1], [1.0 * sq, 2.0 * sq])

    def test_shift_preserves_inner_product(self):
        fam = two_sided_family()
        win = Window(-4, 6)
        rng = random.Random(22)
        f = random_tail_vector(fam, win, rng, margin=2)
        g = random_tail_vector(fam, win, rng, margin=2)
        uf, ug = apply_U(f), apply_U(g)
        assert not uf.finite.lost and not ug.finite.lost
        assert uf.inner(ug) == pytest.approx(f.inner(g))

    def test_boundary_form_scales_under_shift(self):
        # X U = q^{-1} U X forces T(Uf, Ug) = q T(f, g)
        fam = two_sided_family()
        win = Window(-4, 6)
        rng = random.Random(23)
        f = random_tail_vector(fam, win, rng, margin=2)
        g = random_tail_vector(fam, win, rng, margin=2)
        assert boundary_form(apply_U(f), apply_U(g)) == pytest.approx(
            fam.q * boundary_form(f, g))


class TestBoundaryForm:
    def test_single_atom_closed_form(self):
        q, a, w = 0.5, 0.7, 1.3
        fam = AtomFamily(q, [Atom(a, w)], [])
        win = Window(-2, 3)
        a1, b1 = 1 + 2j, -0.5j
        a2, b2 = 0.25 - 1j, 3 + 0j
        f = TailVector.pure_tail(fam, win, even={+1: [a1]}, odd={+1: [b1]})
        g = TailVector.pure_tail(fam, win, even={+1: [a2]}, odd={+1: [b2]})
        want = -1j * (w / a) * (a1 * np.conj(b2) + b1 * np.conj(a2))
        assert boundary_form(f, g) == pytest.approx(want)
        assert boundary_form_direct(f, g) == pytest.approx(want, abs=1e-12)

    def test_minus_side_mirrors_with_opposite_sign(self):
        q, pos, w = 0.5, 0.7, 1.0
        plus_fam = AtomFamily(q, [Atom(pos, w)], [])
        minus_fam = AtomFamily(q, [], [Atom(pos, w)])
        win = Window(-2, 3)
        amps = dict(even=[1 + 1j], odd=[2 - 0.5j])
        f_plus = TailVector.pure_tail(plus_fam, win, even={+1: amps["even"]},
                                      odd={+1: amps["odd"]})
        f_minus = TailVector.pure_tail(minus_fam, win, even={-1: amps["even"]},
                                       odd={-1: amps["odd"]})
        assert boundary_form(f_minus, f_minus) == pytest.approx(
            -boundary_form(f_plus, f_plus))

    def test_direct_equals_formula_randomized(self):
        fam = two_sided_family(0.41)
        win = Window(-4, 6)
        rng = random.Random(13)
        for _ in range(25):
            f = random_tail_vector(fam, win, rng)
            g = random_tail_vector(fam, win, rng)
            direct = boundary_form_direct(f, g)
            formula = boundary_form(f, g)
            assert abs(direct - formula) <= 1e-12 * max(1.0, abs(direct))

    def test_tail_free_vectors_have_zero_form(self):
        fam = two_sided_family()
        win = Window(-4, 6)
        rng = random.Random(14)
        f = random_tail_vector(fam, win, rng)
        v = TailVector(random_tail_vector(fam, win, rng).finite)
        assert boundary_form(v, v) == 0
        # symmetry of X on finite vectors pairs against anything in the domain
        assert abs(boundary_form_direct(v, f) - boundary_form(v, f)) < 1e-12

    def test_direct_raises_on_edge_loss(self):
        fam = two_sided_family()
        win = Window(-3, 4)
        f = TailVector(
            LatticeVector.basis_vector(fam, win, +1, 0, -3))
        with pytest.raises(ValueError):
            boundary_form_direct(f, f)

    @pytest.mark.parametrize("kind", [1, 2, 3, 4, 5])
    def test_direct_pairs_stacks_like_single_members(self, kind):
        triple = build_catalog_triple(kind)
        rng = random.Random(70 + kind)
        stack = stack_of([random_tail_vector(triple.family, triple.window,
                                             rng) for _ in range(3)])
        got = boundary_form_direct(stack[:, None], stack[None])
        assert got.shape == (3, 3)
        for i in range(3):
            for j in range(3):
                want = boundary_form_direct(stack[i], stack[j])
                assert abs(got[i, j] - want) <= 1e-13 * max(1.0, abs(want))
        assert np.allclose(boundary_form_direct(stack, stack),
                           np.diag(got), rtol=1e-13, atol=1e-13)

    def test_direct_raises_when_one_stack_member_loses_support(self):
        triple = build_catalog_triple(3)
        family, window = triple.family, triple.window
        rng = random.Random(76)
        edge = TailVector(LatticeVector.basis_vector(
            family, window, +1, 0, window.n_min))
        stack = stack_of([random_tail_vector(family, window, rng), edge,
                          random_tail_vector(family, window, rng)])
        with pytest.raises(ValueError, match="lost support"):
            boundary_form_direct(stack[:, None], stack[None])
        with pytest.raises(ValueError, match="lost support"):
            boundary_form_direct(stack, stack)
