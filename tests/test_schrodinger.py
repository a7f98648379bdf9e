"""Tests for the wavepacket model on the line."""

import cmath
import math
import random

import numpy as np
import pytest

from qheis.schrodinger import (
    GaussianElement,
    SchrodingerParams,
    act,
    apply_word,
    grid_residual,
    h_function,
    inner_gaussian,
    inner_quadrature,
    norm,
    random_packet,
    verify_schrodinger,
)


@pytest.fixture
def params():
    return SchrodingerParams.from_q(0.5)


class TestParams:
    def test_q_alpha_correspondence(self, params):
        assert params.q == pytest.approx(0.5, rel=1e-15)
        assert params.alpha == pytest.approx(math.log(2), rel=1e-15)
        assert params.s == pytest.approx(math.sqrt(0.5), rel=1e-15)

    def test_round_trip(self):
        assert SchrodingerParams.from_q(0.3).q == pytest.approx(0.3, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            SchrodingerParams(0.0)
        with pytest.raises(ValueError):
            SchrodingerParams.from_q(1.0)
        with pytest.raises(ValueError):
            SchrodingerParams.from_q(0.0)


class TestGaussianElement:
    def test_exact_duplicates_merge(self):
        f = GaussianElement.packet(1j, 2.0) + GaussianElement.packet(1j, 3.0)
        assert f.n_terms == 1
        assert f.items()[0] == (1j, 5.0 + 0j)

    def test_cancellation_drops_terms(self):
        f = GaussianElement.packet(0.5, 1.0) - GaussianElement.packet(0.5, 1.0)
        assert not f
        assert f.n_terms == 0

    def test_evaluate_at_zero_sums_coefficients(self):
        f = GaussianElement.packet(1.0, 2.0) + GaussianElement.packet(-3j, 4.0)
        assert f.evaluate(0.0) == pytest.approx(6.0)

    def test_evaluate_vectorized(self):
        f = GaussianElement.packet(1 + 1j, 0.5)
        grid = np.array([-1.0, 0.0, 2.0])
        values = f.evaluate(grid)
        expected = 0.5 * np.exp((1 + 1j) * grid - grid**2)
        assert np.allclose(values, expected, rtol=1e-15)

    def test_scale(self):
        f = GaussianElement.packet(2.0, 1.0).scale(3j)
        assert f.items() == [(2 + 0j, 3j)]


class TestInnerProduct:
    def test_unit_packet_norm(self):
        f = GaussianElement.packet(0)
        assert inner_gaussian(f, f) == pytest.approx(math.sqrt(math.pi / 2), rel=1e-15)

    def test_frozen_cross_inner(self):
        # gamma + conj(gamma') = 3 + 2j, squared 5 + 12j
        f = GaussianElement.packet(1 + 1j)
        g = GaussianElement.packet(2 - 1j)
        expected = math.sqrt(math.pi / 2) * cmath.exp((5 + 12j) / 8)
        assert inner_gaussian(f, g) == pytest.approx(expected, rel=1e-14)
        assert inner_gaussian(f, g) == pytest.approx(0.16563109194991105
                                            + 2.335633583894309j, rel=1e-12)

    def test_sesquilinear(self):
        rng = random.Random(3)
        f, g = random_packet(rng), random_packet(rng)
        c = 0.7 - 1.2j
        assert inner_gaussian(f.scale(c), g) == pytest.approx(c * inner_gaussian(f, g),
                                                     rel=1e-12)
        assert inner_gaussian(f, g.scale(c)) == pytest.approx(
            c.conjugate() * inner_gaussian(f, g), rel=1e-12)
        assert inner_gaussian(g, f) == pytest.approx(inner_gaussian(f, g).conjugate(),
                                            rel=1e-12)

    def test_quadrature_oracle(self):
        f = GaussianElement.packet(1 + 1j)
        g = GaussianElement.packet(2 - 1j)
        assert inner_quadrature(f, g) == pytest.approx(inner_gaussian(f, g), rel=1e-10)

    def test_quadrature_matches_closed_form_on_random_pairs(self):
        rng = random.Random(2024)
        for _ in range(250):
            f, g = random_packet(rng), random_packet(rng)
            exact = inner_gaussian(f, g)
            assert abs(inner_quadrature(f, g) - exact) <= 1e-12 * abs(exact)

    def test_norm_positive(self):
        rng = random.Random(9)
        f = random_packet(rng)
        assert norm(f) > 0


class TestOperators:
    def test_shift_moves_the_parameter(self, params):
        f = act("U", GaussianElement.packet(0.5), params)
        assert f.items() == [(0.5 + 1j, 1 + 0j)]
        back = act("U*", f, params)
        assert back.items() == [(0.5 + 0j, 1 + 0j)]

    def test_translation_frozen_value(self, params):
        a = params.alpha
        f = act("P", GaussianElement.packet(1j), params)
        (gamma, coeff), = f.items()
        assert gamma == pytest.approx(1j + 2j * a, rel=1e-15)
        assert coeff == pytest.approx(cmath.exp(a * a + a), rel=1e-14)
        assert coeff == pytest.approx(3.233613344483349, rel=1e-12)

    def test_translation_inverse(self, params):
        f = GaussianElement.packet(0.3 - 0.8j, 1.5)
        round_trip = act("Pinv", act("P", f, params), params)
        assert grid_residual(round_trip, f) < 1e-14

    def test_difference_operator_two_terms(self, params):
        f = act("X", GaussianElement.packet(0), params)
        assert f.n_terms == 2
        a, s = params.alpha, params.s
        by_gamma = dict(f.items())
        # X = i q^{-1/2} U* Pinv - i q^{1/2} U Pinv on packet(0):
        # Pinv gives gamma = -2ia with factor e^{a^2}; then gamma -+ i
        assert by_gamma[complex(0, -2 * a - 1)] == pytest.approx(
            1j * cmath.exp(a * a) / s, rel=1e-14)
        assert by_gamma[complex(0, -2 * a + 1)] == pytest.approx(
            -1j * cmath.exp(a * a) * s, rel=1e-14)

    def test_unknown_operator_rejected(self, params):
        with pytest.raises(ValueError, match="unknown operator"):
            act("Q", GaussianElement.packet(0), params)

    def test_apply_word_order(self, params):
        # rightmost factor acts first: ["U", "P"] means U after P
        f = GaussianElement.packet(0.2)
        assert grid_residual(
            apply_word(["U", "P"], f, params),
            act("U", act("P", f, params), params)) == 0.0


class TestRelations:
    def test_shift_translate_commutation(self, params):
        f = GaussianElement.packet(0.4 + 0.3j, 1 - 2j)
        lhs = apply_word(["U", "P"], f, params)
        rhs = apply_word(["P", "U"], f, params).scale(params.q)
        assert grid_residual(lhs, rhs) < 1e-13

    def test_shift_difference_commutation(self, params):
        f = GaussianElement.packet(-0.6 + 0.1j)
        lhs = apply_word(["U", "X"], f, params)
        rhs = apply_word(["X", "U"], f, params).scale(1 / params.q)
        assert grid_residual(lhs, rhs) < 1e-13

    def test_product_relations_give_shift_combinations(self, params):
        s = params.s
        rng = random.Random(21)
        for _ in range(5):
            f = random_packet(rng)
            px = apply_word(["P", "X"], f, params)
            target = (act("U*", f, params).scale(1j * s)
                      + act("U", f, params).scale(-1j / s))
            assert grid_residual(px, target) < 1e-13
            xp = apply_word(["X", "P"], f, params)
            target = (act("U*", f, params).scale(1j / s)
                      + act("U", f, params).scale(-1j * s))
            assert grid_residual(xp, target) < 1e-13

    def test_deformation_function_zero(self, params):
        assert abs(h_function(0.5j * params.alpha, params)) < 1e-14
        assert abs(h_function(0.3j, params)) > 1e-3
        assert abs(h_function(1.0, params)) > 1e-3

    def test_symmetry_of_translation(self, params):
        rng = random.Random(4)
        f, g = random_packet(rng), random_packet(rng)
        lhs = inner_gaussian(act("P", f, params), g)
        rhs = inner_gaussian(f, act("P", g, params))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_symmetry_of_difference(self, params):
        rng = random.Random(8)
        f, g = random_packet(rng), random_packet(rng)
        lhs = inner_gaussian(act("X", f, params), g)
        rhs = inner_gaussian(f, act("X", g, params))
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestVerification:
    def test_report_passes(self, params):
        report = verify_schrodinger(params, seed=5)
        assert report.passed
        for check in report.checks:
            assert check.value < check.bound / 100

    def test_other_deformation_passes(self):
        report = verify_schrodinger(SchrodingerParams.from_q(0.8),
                                    n_samples=10, seed=2)
        assert report.passed

    def test_report_json_shape(self, params):
        data = verify_schrodinger(params, n_samples=6, seed=1).to_json()
        assert set(data) == {"passed", "alpha", "q", "n_samples", "seed",
                             "checks"}
        assert data["q"] == pytest.approx(0.5)
        names = [c["name"] for c in data["checks"]]
        assert "defining relations hold on wavepackets" in names
        assert "closed-form inner products match quadrature" in names
