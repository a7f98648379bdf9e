"""Tests for the expression grammar: tokens, trees, errors, round trips."""

import random
from fractions import Fraction

import pytest

from qheis.algebra import (
    AlgebraElement,
    GaussianRational,
    NormalMonomial,
    ScalarQ,
    check_printable,
    multiply,
    random_element,
)
from qheis.parsing import (
    MAX_DEPTH,
    MAX_DIGITS,
    Mul,
    Num,
    ParseError,
    Pow,
    Sum,
    Sym,
    evaluate,
    parse_expression,
    parse_to_element,
    random_tree,
    to_text,
    tokenize,
)


class TestTokenize:
    def test_inverse_shift_is_a_single_token(self):
        assert tokenize("u^-1") == [("uinv", "u^-1", 0), ("end", "", 4)]

    def test_longer_negative_exponent_splits_into_operator_tokens(self):
        # u^-12 must not swallow the uinv token; the exponent keeps going.
        kinds = [k for k, _, _ in tokenize("u^-12")]
        assert kinds == ["name", "op", "op", "number", "end"]

    def test_offsets_skip_whitespace(self):
        toks = tokenize("  p *  x ")
        assert toks == [
            ("name", "p", 2),
            ("op", "*", 4),
            ("name", "x", 7),
            ("end", "", 9),
        ]

    def test_unknown_character_reports_its_offset(self):
        with pytest.raises(ParseError) as err:
            tokenize("p @ x")
        assert err.value.offset == 2
        assert "'@'" in str(err.value)


class TestParseTrees:
    def test_single_symbol(self):
        assert parse_expression("p") == Sym("p")

    def test_power(self):
        assert parse_expression("p^2") == Pow(Sym("p"), 2)

    def test_inverse_shift_token_becomes_a_power(self):
        assert parse_expression("u^-1") == Pow(Sym("u"), -1)

    def test_explicit_negative_exponent(self):
        assert parse_expression("u^-12") == Pow(Sym("u"), -12)

    def test_product_binds_tighter_than_sum(self):
        tree = parse_expression("p + x*u")
        assert tree == Sum(((1, Sym("p")), (1, Mul((Sym("x"), Sym("u"))))))

    def test_leading_minus(self):
        assert parse_expression("-p") == Sum(((-1, Sym("p")),))

    def test_parentheses_group_a_sum_inside_a_product(self):
        tree = parse_expression("(p + x)*u")
        assert isinstance(tree, Mul)
        assert isinstance(tree.factors[0], Sum)
        assert tree.factors[1] == Sym("u")

    def test_rational_number_atom(self):
        assert parse_expression("5/2") == Num(Fraction(5, 2))

    def test_exponent_applies_to_the_whole_rational(self):
        # 5/2^2 squares the rational 5/2, because 5/2 is one atom.
        assert parse_expression("5/2^2") == Pow(Num(Fraction(5, 2)), 2)
        assert str(parse_to_element("5/2^2")) == "25/4"

    def test_whitespace_is_insignificant(self):
        assert parse_expression(" p * x ") == parse_expression("p*x")


class TestParseErrors:
    def test_trailing_operator_reports_the_end_offset(self):
        with pytest.raises(ParseError) as err:
            parse_expression("p +")
        assert err.value.offset == 3
        assert "syntax error at offset 3" in str(err.value)

    def test_juxtaposition_is_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_expression("p x")
        assert err.value.offset == 2
        assert "'*'" in str(err.value)

    def test_empty_input(self):
        with pytest.raises(ParseError) as err:
            parse_expression("")
        assert err.value.offset == 0
        assert "a number" in str(err.value)

    def test_missing_exponent(self):
        with pytest.raises(ParseError) as err:
            parse_expression("p ^")
        assert "integer exponent" in str(err.value)

    def test_unclosed_parenthesis(self):
        with pytest.raises(ParseError) as err:
            parse_expression("(p + x")
        assert "')'" in str(err.value)

    def test_nesting_up_to_the_limit_evaluates(self):
        outer = MAX_DEPTH - 1
        text = "(" * outer + "p*(x - s)" + ")" * outer
        tree = parse_expression(text)
        assert parse_expression(to_text(tree)) == tree
        assert evaluate(tree) == parse_to_element("p*x - s*p")

    def test_nesting_beyond_the_limit_reports_its_offset(self):
        for depth in (MAX_DEPTH + 1, 3000):
            with pytest.raises(ParseError) as err:
                parse_expression("(" * depth + "p" + ")" * depth)
            assert err.value.offset == MAX_DEPTH
            assert "nested parentheses" in str(err.value)

    def test_number_length_is_capped(self):
        longest = "7" * MAX_DIGITS
        assert parse_expression(longest) == Num(Fraction(int(longest)))
        for text, offset in (("7" * (MAX_DIGITS + 1), 0),
                             ("p^" + "9" * (MAX_DIGITS + 5), 2),
                             ("1/" + "3" * (MAX_DIGITS + 1), 2)):
            with pytest.raises(ParseError) as err:
                parse_expression(text)
            assert err.value.offset == offset
            assert f"at most {MAX_DIGITS} digits" in str(err.value)

    def test_zero_denominator_reports_its_offset(self):
        for text, offset in (("1/0", 2), ("(1/0)*p", 3), ("p + 7 / 000", 8)):
            with pytest.raises(ParseError) as err:
                parse_expression(text)
            assert err.value.offset == offset
            assert "a nonzero denominator" in str(err.value)

    def test_parse_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            parse_expression("p +")


class TestEvaluate:
    def test_q_is_sugar_for_s_squared(self):
        assert parse_to_element("q") == parse_to_element("s^2")
        assert parse_to_element("q - s^2") == AlgebraElement.zero()

    def test_imaginary_unit_squares_to_minus_one(self):
        minus_one = AlgebraElement.one().scale(ScalarQ.rational(-1))
        assert parse_to_element("i^2") == minus_one

    def test_product_matches_algebra_multiplication(self):
        p = AlgebraElement.generator("p")
        x = AlgebraElement.generator("x")
        assert parse_to_element("p*x") == multiply(p, x)

    def test_shift_inverse_cancels(self):
        assert parse_to_element("u^-1 * u") == AlgebraElement.one()
        assert parse_to_element("u * u^-1") == AlgebraElement.one()

    def test_scalar_inversion(self):
        product = parse_to_element("(2*i)^-1 * (2*i)")
        assert product == AlgebraElement.one()

    def test_generator_inversion_is_rejected(self):
        with pytest.raises(ValueError, match="has no inverse"):
            parse_to_element("p^-1")

    def test_zero_inversion_is_rejected(self):
        for text in ("0^-1", "(p - p)^-3"):
            with pytest.raises(ValueError, match="0 has no inverse"):
                parse_to_element(text)

    def test_sum_inversion_is_rejected(self):
        with pytest.raises(ValueError, match="cannot invert a sum"):
            parse_to_element("(p + x)^-1")

    def test_powers_near_the_print_limit_answer_exactly_when_printable(self):
        # the size check before a power may refuse only what check_printable
        # would refuse after it
        def printable(element):
            try:
                check_printable(element)
            except ValueError:
                return False
            return True

        rng = random.Random(53)
        bases = ["2", "1/3", "(3/5 + 4/5*i)", "(1/2 + 1/2*i)", "3*i*u^2"]
        while len(bases) < 14:
            g = GaussianRational(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                                 Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
            if g.re.denominator == g.im.denominator == 1 and (
                    abs(g.re) + abs(g.im) <= 1):
                continue
            kind = rng.choice("px")
            m = NormalMonomial(kind, rng.randint(0 if kind == "p" else 1, 2),
                               rng.randint(-2, 2))
            bases.append(f"{ScalarQ({rng.randint(-2, 2): g})}*{m}")
        for text in bases:
            base = parse_to_element(text)
            low, high = 1, 2
            while printable(base ** high):
                low, high = high, 2 * high
            while high - low > 1:
                mid = (low + high) // 2
                low, high = (mid, high) if printable(base ** mid) else (low, mid)
            for n in range(low - 2, low + 3):
                power = f"({text})^{n}"
                if printable(base ** n):
                    check_printable(parse_to_element(power))
                else:
                    with pytest.raises(ValueError,
                                       match="coefficient too large to print"):
                        check_printable(parse_to_element(power))

    def test_unprintable_power_is_refused_even_if_it_cancels(self):
        # the size check runs on each power as it is evaluated, not on
        # the final normal form
        assert parse_to_element("2^10000*2^-10000") == AlgebraElement.one()
        for text in ("2^20000*2^-20000", "2^20000 - 2^20000"):
            with pytest.raises(ValueError,
                               match="coefficient too large to print"):
                parse_to_element(text)

    def test_defining_relation_normalizes_to_zero(self):
        text = "p*x - s^2*x*p - i*(s^3 - s^-1)*u"
        assert parse_to_element(text) == AlgebraElement.zero()
        assert str(parse_to_element(text)) == "0"

    def test_conjugate_relation_normalizes_to_zero(self):
        text = "p*x - s^-2*x*p + i*(s^-3 - s)*u^-1"
        assert parse_to_element(text) == AlgebraElement.zero()

    def test_a_repeated_subexpression_is_evaluated_once(self, monkeypatch):
        p_plus_x = AlgebraElement.generator("p") + AlgebraElement.generator("x")
        want = multiply(p_plus_x ** 3, p_plus_x ** 3)
        exponents = []
        power = AlgebraElement.__pow__

        def counted(base, n):
            exponents.append(n)
            return power(base, n)
        monkeypatch.setattr(AlgebraElement, "__pow__", counted)
        assert parse_to_element("(p+x)^3*(p+x)^3") == want
        assert exponents == [3]
        # each call starts afresh
        assert parse_to_element("(p+x)^3") == p_plus_x ** 3
        assert exponents == [3, 3, 3]


class TestRoundTrip:
    def test_random_trees_survive_printing_and_reparsing(self):
        rng = random.Random(20240517)
        for _ in range(500):
            tree = random_tree(rng)
            text = to_text(tree)
            try:
                value = evaluate(tree)
            except ValueError:
                # Trees with a non-invertible negative power have no value;
                # the reparse must fail the same way.
                with pytest.raises(ValueError):
                    evaluate(parse_expression(text))
                continue
            assert evaluate(parse_expression(text)) == value

    def test_algebra_elements_reparse_from_their_display_form(self):
        rng = random.Random(991)
        for _ in range(200):
            element = random_element(rng)
            assert parse_to_element(str(element)) == element

    def test_zero_displays_and_reparses(self):
        assert parse_to_element(str(AlgebraElement.zero())) == AlgebraElement.zero()
