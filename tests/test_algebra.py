from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from qheis.algebra import (
    MAX_PRINT_BITS,
    AlgebraElement,
    GaussianRational,
    NormalMonomial,
    ScalarQ,
    _i_power_of,
    _power_bits_lower_bound,
    _unit_shift,
    check_printable,
    inverse_q_iso,
    multiply,
    random_element,
    random_word,
    reduce,
    reduce_all_orders,
    star,
)

# the letters of a word under the involution, which also reverses it
STAR_LETTER = {"p": "p", "x": "x", "u": "u^-1", "u^-1": "u"}

I = ScalarQ.i()
ONE = ScalarQ.one()


def S(k: int) -> ScalarQ:
    return ScalarQ.s_power(k)


def elem(*pairs) -> AlgebraElement:
    return AlgebraElement({m: c for m, c in pairs})


def mono(kind, power, uexp) -> NormalMonomial:
    return NormalMonomial(kind, power, uexp)


def random_scalar(rng: random.Random) -> ScalarQ:
    """One to three terms with rational, mostly non-unit parts."""
    return ScalarQ({rng.randint(-3, 3): GaussianRational(
        Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
        Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        for _ in range(rng.randint(1, 3))})


def rich_element(rng: random.Random) -> AlgebraElement:
    """Up to four monomials with unit, rational or multi-term scalars."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice("px")
        m = mono(kind, rng.randint(0 if kind == "p" else 1, 3),
                 rng.randint(-3, 3))
        terms[m] = rng.choice((I, -ONE, S(rng.randint(-2, 2)),
                               random_scalar(rng)))
    return AlgebraElement(terms)


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

    def test_unit_shift_matches_scalar_product(self):
        rng = random.Random(31)
        units = (ONE, I, -ONE, -I)
        for _ in range(50):
            c = random_scalar(rng)
            for k, unit in enumerate(units):
                assert _i_power_of(unit.coefficient(0)) == k
                for e in range(-3, 4):
                    assert ScalarQ(_unit_shift(dict(c.items()), k, e)) \
                        == c * unit * S(e), (c, k, e)
        for other in (GaussianRational(2), GaussianRational(1, 1),
                      GaussianRational(0, Fraction(1, 2))):
            assert _i_power_of(other) is None


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
        letters = ("p", "x", "u", "u^-1")
        for length in range(5):
            for word in itertools.product(letters, repeat=length):
                outcomes = reduce_all_orders(word)
                assert len(outcomes) == 1, word
                assert reduce(word) in outcomes, word

    def test_alternating_words_match_rewriting(self):
        # the rewriting oracle's cost grows about 2.2x per alternation
        rng = random.Random(41)
        for alternations in range(1, 15):
            word = ["p", "x"] * alternations
            if rng.random() < 0.5:
                word.reverse()
            for _ in range(rng.randint(1, 3)):
                word.insert(rng.randrange(len(word) + 1),
                            rng.choice(("u", "u^-1")))
            coeff = ScalarQ.gauss(Fraction(rng.randint(-5, 5), 3), 1,
                                  rng.randint(-2, 2))
            assert reduce(word, coeff) == reduce(
                word, coeff, rng=random.Random(alternations)), word

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
        for k in range(2000):
            word = random_word(rng, max_len=12)
            coeff = random_scalar(rng)
            base = reduce(word, coeff)
            assert reduce(word, coeff, rng=random.Random(1000 + k)) == base


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

    def test_matches_rewriting_of_concatenated_words(self):
        rng = random.Random(43)
        for _ in range(300):
            a, b = rich_element(rng), rich_element(rng)
            expected = AlgebraElement.zero()
            for ma, ca in a.items():
                for mb, cb in b.items():
                    expected = expected + reduce(
                        ma.word() + mb.word(), ca * cb,
                        rng=random.Random(rng.getrandbits(32)))
            assert multiply(a, b) == expected, (a, b)

    def test_long_runs_of_one_letter_match_the_letter_fold(self):
        # multiply takes the run p^r or x^r past the powers it can lower in
        # closed form; reduce folds it in letter by letter
        rng = random.Random(47)
        for _ in range(200):
            word = random_word(rng, 6)
            letter, count = rng.choice("px"), rng.randint(0, 12)
            run = AlgebraElement.generator(letter) ** count
            assert multiply(reduce(word), run) == reduce(
                word + (letter,) * count), (word, letter, count)

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

    def test_closed_form_single_term_powers_frozen(self):
        assert (elem((mono("p", 2, 3), ONE)) ** 3
                == elem((mono("p", 6, 9), S(36))))
        assert (elem((mono("x", 1, -2), ONE)) ** 4
                == elem((mono("x", 4, -8), S(24))))

    def test_closed_form_single_term_powers_match_repeated_multiply(self):
        rng = random.Random(23)
        coeffs = [ONE, I, S(-1), ScalarQ.gauss(Fraction(2, 3), -1, 2),
                  S(1) - I * S(-1)]
        for _ in range(12):
            kind = rng.choice("px")
            power = rng.randint(0 if kind == "p" else 1, 3)
            uexp = rng.randint(-3, 3)
            base = elem((mono(kind, power, uexp), rng.choice(coeffs)))
            expected = AlgebraElement.one()
            for n in range(13):
                assert base ** n == expected, (base, n)
                expected = multiply(expected, base)

    def test_power_size_bound_is_a_lower_bound(self):
        # the bound check_power_printable uses must never exceed the bits
        # the power really has, for single and multi-term scalars alike
        rng = random.Random(59)
        units = [ONE, -ONE, I, -I]
        scalars = [ONE + S(1), ONE + S(1) - S(2), S(-1) + I * S(1)]
        while len(scalars) < 60:
            if rng.random() < 0.5:
                c = random_scalar(rng)
            else:
                c = ScalarQ.zero()
                for e in rng.sample(range(-3, 4), rng.randint(2, 4)):
                    c = c + rng.choice(units) * S(e)
            if c:
                scalars.append(c)
        for c in scalars:
            power = ONE
            for n in range(1, 25):
                power = power * c
                bits = max(x.bit_length() for _, g in power.items()
                           for part in (g.re, g.im)
                           for x in (part.numerator, part.denominator))
                assert _power_bits_lower_bound(c, n) <= bits, (c, n)
        # sums of unit terms have no large coefficient, yet their powers do
        assert _power_bits_lower_bound(ONE + S(1) - S(2),
                                       10 ** 11) > MAX_PRINT_BITS

    def test_check_printable_names_the_size(self):
        check_printable(elem((mono("p", 1, 0), ScalarQ.rational(2 ** 13999))))
        check_printable(AlgebraElement.zero())
        big = ScalarQ.rational(1, 2 ** MAX_PRINT_BITS)
        with pytest.raises(ValueError, match=f"coefficient too large to "
                           f"print: {MAX_PRINT_BITS + 1} bits"):
            check_printable(elem((mono("x", 1, 0), big)))
        with pytest.raises(ValueError, match="exponent too large"):
            check_printable(elem((mono("p", 0, -2 ** MAX_PRINT_BITS), ONE)))
        with pytest.raises(ValueError, match="exponent too large"):
            check_printable(elem((mono("p", 1, 0), S(2 ** MAX_PRINT_BITS))))


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

    def test_matches_rewriting_of_reversed_words(self):
        rng = random.Random(47)
        for _ in range(500):
            a = rich_element(rng)
            expected = AlgebraElement.zero()
            for m, c in a.items():
                word = [STAR_LETTER[letter] for letter in reversed(m.word())]
                expected = expected + reduce(
                    word, c.conjugate(), rng=random.Random(rng.getrandbits(32)))
            assert star(a) == expected, a
            assert star(star(a)) == a

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


class TestPowerWorkLimit:
    def test_costly_powers_raise_a_value_error(self):
        from qheis.algebra import WorkLimitError
        sum_element = AlgebraElement.generator("p") + AlgebraElement.generator("x")
        with pytest.raises(WorkLimitError, match="too costly"):
            sum_element ** 40
        scalar = AlgebraElement.from_scalar(ScalarQ.one() + ScalarQ.s_power(1))
        with pytest.raises(ValueError, match="too costly"):
            scalar ** 1000

    def test_costly_products_raise_a_value_error(self):
        from qheis.algebra import WorkLimitError
        x, p = AlgebraElement.generator("x"), AlgebraElement.generator("p")
        with pytest.raises(WorkLimitError, match="product too costly"):
            multiply(x ** 270, p ** 270)
        # each product has its own budget
        for _ in range(3):
            assert multiply(x ** 20, p ** 20) == reduce(["x"] * 20 + ["p"] * 20)

    def test_powers_under_the_limit_match_repeated_products(self):
        sum_element = AlgebraElement.generator("p") + AlgebraElement.generator("x")
        out = AlgebraElement.one()
        for _ in range(12):
            out = out * sum_element
        assert sum_element ** 12 == out
