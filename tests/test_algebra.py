from __future__ import annotations

import random
from fractions import Fraction

import pytest

from qheis.algebra import (
    AlgebraElement,
    GaussianRational,
    NormalMonomial,
    ScalarQ,
    inverse_q_iso,
    multiply,
    random_element,
    random_word,
    reduce,
    reduce_all_orders,
    star,
)

I = ScalarQ.i()
ONE = ScalarQ.one()


def S(k: int) -> ScalarQ:
    return ScalarQ.s_power(k)


def elem(*pairs) -> AlgebraElement:
    return AlgebraElement({m: c for m, c in pairs})


def mono(kind, power, uexp) -> NormalMonomial:
    return NormalMonomial(kind, power, uexp)


class TestScalars:
    def test_gaussian_field_ops(self):
        a = GaussianRational(Fraction(1, 2), 3)
        b = GaussianRational(2, Fraction(-1, 3))
        assert a + b == GaussianRational(Fraction(5, 2), Fraction(8, 3))
        assert a * a.inverse() == GaussianRational(1, 0)
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()

    def test_scalar_laurent_ops(self):
        a = S(3) + I * S(-1)
        b = S(-3)
        assert a * b == ONE + I * S(-4)
        assert (a - a).is_zero
        assert a.conjugate() == S(3) - I * S(-1)
        assert a.substitute_s_inverse() == S(-3) + I * S(1)

    def test_scalar_inverse_monomial_only(self):
        assert S(5).inverse() == S(-5)
        assert I.inverse() == -I
        with pytest.raises(ValueError):
            (ONE + S(1)).inverse()

    def test_evaluate(self):
        val = (I * S(2)).evaluate(0.5)
        assert abs(val - 0.25j) < 1e-15


class TestReduce:
    def test_commutes_u_past_p(self):
        # u p -> s^2 p u
        assert reduce(["u", "p"]) == elem((mono("p", 1, 1), S(2)))

    def test_commutes_u_past_x(self):
        assert reduce(["u", "x"]) == elem((mono("x", 1, 1), S(-2)))
        assert reduce(["u^-1", "x"]) == elem((mono("x", 1, -1), S(2)))

    def test_u_cancellation(self):
        assert reduce(["u", "u^-1"]) == AlgebraElement.one()
        assert reduce(["u^-1", "u"]) == AlgebraElement.one()

    def test_px_splits(self):
        assert reduce(["p", "x"]) == elem(
            (mono("p", 0, -1), I * S(1)), (mono("p", 0, 1), -(I * S(-1))))

    def test_xp_splits(self):
        assert reduce(["x", "p"]) == elem(
            (mono("p", 0, -1), I * S(-1)), (mono("p", 0, 1), -(I * S(1))))

    def test_pxu_all_orders_agree(self):
        # Derived value: the oracle enumerates every admissible rewrite order.
        outcomes = reduce_all_orders(["p", "x", "u"])
        assert len(outcomes) == 1
        expected = elem((mono("p", 0, 0), I * S(1)), (mono("p", 0, 2), -(I * S(-1))))
        assert outcomes == {expected}
        assert reduce(["p", "x", "u"]) == expected

    def test_longer_words_all_orders_agree(self):
        for word in (["x", "p", "u^-1"], ["u", "p", "x"], ["p", "x", "p"],
                     ["x", "u", "p", "u^-1"], ["p", "p", "x"]):
            outcomes = reduce_all_orders(word)
            assert len(outcomes) == 1, word
            assert reduce(word) in outcomes

    def test_normal_words_are_fixed(self):
        for m in (mono("p", 2, -3), mono("x", 1, 4), mono("p", 0, 0),
                  mono("p", 0, 5), mono("x", 3, 0)):
            assert reduce(m.word()) == AlgebraElement.monomial(m)

    def test_empty_word_is_one(self):
        assert reduce([]) == AlgebraElement.one()

    def test_unknown_letter_rejected(self):
        with pytest.raises(ValueError):
            reduce(["p", "y"])


def relation_elements() -> list[AlgebraElement]:
    """Both defining relations, written as normal-form-zero combinations."""
    p = AlgebraElement.generator("p")
    x = AlgebraElement.generator("x")
    u = AlgebraElement.generator("u")
    uinv = AlgebraElement.generator("u^-1")
    first = (p * x) - (x * p).scale(S(2)) - u.scale(I * (S(3) - S(-1)))
    partner = (x * p) - (p * x).scale(S(2)) + uinv.scale(I * (S(3) - S(-1)))
    return [first, partner]


class TestRelations:
    def test_relation_kernel(self):
        for rel in relation_elements():
            assert rel.is_zero

    def test_rescaled_partner_forms(self):
        p = AlgebraElement.generator("p")
        x = AlgebraElement.generator("x")
        u = AlgebraElement.generator("u")
        uinv = AlgebraElement.generator("u^-1")
        # unit rescalings of the two relations
        assert ((x * p) - (p * x).scale(S(-2)) - u.scale(I * (S(-3) - S(1)))).is_zero
        assert ((p * x) - (x * p).scale(S(-2)) + uinv.scale(I * (S(-3) - S(1)))).is_zero

    def test_confluence_randomized_orders(self):
        rng = random.Random(7)
        for _ in range(300):
            word = random_word(rng, max_len=8)
            base = reduce(word)
            for k in range(3):
                assert reduce(word, rng=random.Random(1000 + k)) == base


class TestMultiply:
    def test_scalars_pass_through(self):
        a = AlgebraElement.from_scalar(I)
        b = AlgebraElement.generator("p")
        assert multiply(a, b) == elem((mono("p", 1, 0), I))

    def test_pu_times_xu_frozen(self):
        # Derived via randomized-order reduction of the concatenated word.
        pu = reduce(["p", "u"])
        xu = reduce(["x", "u"])
        got = multiply(pu, xu)
        rng = random.Random(3)
        assert got == reduce(["p", "u", "x", "u"], rng=rng)
        assert got == elem((mono("p", 0, 1), I * S(-1)), (mono("p", 0, 3), -(I * S(-3))))

    def test_associativity_random(self):
        rng = random.Random(11)
        for _ in range(60):
            a, b, c = (random_element(rng, 2, 3) for _ in range(3))
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))

    def test_power(self):
        u = AlgebraElement.generator("u")
        assert u ** 3 == elem((mono("p", 0, 3), ONE))

    def test_closed_form_u_powers_match_repeated_multiply(self):
        coeffs = [ONE, I, S(3), ScalarQ.gauss(Fraction(-3, 2), 2, -1),
                  S(1) + S(-2) + I, ScalarQ.rational(-5, 7)]
        for coeff in coeffs:
            for uexp in (-3, -1, 0, 1, 2):
                base = elem((mono("p", 0, uexp), coeff))
                expected = AlgebraElement.one()
                for n in range(13):
                    assert base ** n == expected, (coeff, uexp, n)
                    expected = multiply(expected, base)


class TestStar:
    def test_fixed_generators(self):
        for g in ("p", "x"):
            assert star(AlgebraElement.generator(g)) == AlgebraElement.generator(g)
        assert star(AlgebraElement.generator("u")) == AlgebraElement.generator("u^-1")

    def test_star_pu_frozen(self):
        # star(p u) = u^-1 p = s^-2 p u^-1, cross-checked by the word oracle
        pu = reduce(["p", "u"])
        via_word = reduce(["u^-1", "p"])
        assert star(pu) == via_word
        assert star(pu) == elem((mono("p", 1, -1), S(-2)))

    def test_antilinear(self):
        a = AlgebraElement.generator("p").scale(I)
        assert star(a) == AlgebraElement.generator("p").scale(-I)

    def test_involution_properties_random(self):
        rng = random.Random(23)
        for _ in range(200):
            a = random_element(rng, 3, 4)
            b = random_element(rng, 3, 4)
            assert star(star(a)) == a
            assert star(multiply(a, b)) == multiply(star(b), star(a))

    def test_relations_star_invariant(self):
        for rel in relation_elements():
            assert star(rel).is_zero


class TestInverseParameterIso:
    def test_variant1_on_px(self):
        # the image of the normal form of p*x is the normal form of x*p,
        # equivalently the input with s -> s^-1 in the coefficients
        px = reduce(["p", "x"])
        assert inverse_q_iso(px, 1) == reduce(["x", "p"])
        subst = AlgebraElement({m: c.substitute_s_inverse() for m, c in px.items()})
        assert inverse_q_iso(px, 1) == subst

    def test_variant2_u_image(self):
        u = AlgebraElement.generator("u")
        got = inverse_q_iso(u, 2)
        assert got == -AlgebraElement.generator("u^-1")
        # the involution intertwines: iso(a*) == iso(a)*
        a = reduce(["p", "u"])
        assert inverse_q_iso(star(a), 2) == star(inverse_q_iso(a, 2))

    def test_multiplicative_random(self):
        rng = random.Random(5)
        for which in (1, 2):
            for _ in range(100):
                a = random_element(rng, 2, 3)
                b = random_element(rng, 2, 3)
                lhs = inverse_q_iso(multiply(a, b), which)
                rhs = multiply(inverse_q_iso(a, which), inverse_q_iso(b, which))
                assert lhs == rhs

    def test_star_compatible_random(self):
        rng = random.Random(6)
        for which in (1, 2):
            for _ in range(60):
                a = random_element(rng, 2, 3)
                assert inverse_q_iso(star(a), which) == star(inverse_q_iso(a, which))


class TestBasisFaithfulness:
    def test_distinct_monomials_stay_distinct(self):
        rng = random.Random(9)
        seen = {}
        for _ in range(200):
            kind = rng.choice(("p", "x"))
            power = rng.randint(0 if kind == "p" else 1, 4)
            uexp = rng.randint(-4, 4)
            m = mono(kind, power, uexp)
            red = reduce(m.word())
            assert red == AlgebraElement.monomial(m)
            if m in seen:
                continue
            for other, other_red in seen.items():
                assert red != other_red or m == other
            seen[m] = red


class TestPrinting:
    def test_zero_and_one(self):
        assert str(AlgebraElement.zero()) == "0"
        assert str(AlgebraElement.one()) == "1"

    def test_px_normal_form_text(self):
        assert str(reduce(["p", "x"])) == "i*s*u^-1 - i*s^-1*u"

    def test_monomial_text(self):
        assert str(elem((mono("p", 2, -3), ONE))) == "p^2*u^-3"
        assert str(elem((mono("x", 1, 0), -ONE))) == "-x"

    def test_compound_scalar_parenthesized(self):
        c = ONE + I
        assert str(AlgebraElement.from_scalar(c)) == "(1 + i)"
        assert str(elem((mono("p", 1, 0), ONE + S(2)))) == "(1 + s^2)*p"
