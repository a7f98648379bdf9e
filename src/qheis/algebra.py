"""Exact normal forms in the q-deformed Heisenberg algebra.

The algebra is generated by p, x, u, u^-1 over scalars that are Laurent
polynomials in s (s^2 = q) with Gaussian-rational coefficients, subject to

    u p = s^2 p u          u x = s^-2 x u          u u^-1 = u^-1 u = 1
    p x = i s u^-1 - i s^-1 u
    x p = i s^-1 u^-1 - i s u

Every element has a unique normal form: a scalar combination of monomials
p^r u^n (r >= 0) and x^k u^n (k >= 1), n any integer.  Normal forms come
from a left fold over the letters of a word, each step a normal monomial
times one letter in closed form; products and the involution use the same
closed forms.  The rewrite system of the relations remains as the
confluence oracle (reduce with an rng, reduce_all_orders).  All arithmetic
here is exact; nothing in this module touches floating point except
ScalarQ.evaluate and the size bound of check_power_printable.

Objects are immutable by convention: operations return new values.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

GENERATOR_LETTERS = ("p", "x", "u", "u^-1")

# Python 3.11+ refuses str() of an int beyond 4300 decimal digits, and 3.10
# prints any size; normal forms holding a longer integer than this (about
# 4200 digits) are refused by check_printable on either
MAX_PRINT_BITS = 14_000

# Work budget of one power or product (see _charge): (p + x)^19 fits and
# (1 + s)^270 does not, the test and benchmark inputs stay under a ninth of
# it, and at up to 8 us a unit here a refused one stops within a second.
MAX_POWER_WORK = 100_000


class WorkLimitError(ValueError):
    """A power or product would take more than MAX_POWER_WORK units of
    work."""


def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class GaussianRational:
    """A complex number re + im*i with exact rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def inverse(self) -> "GaussianRational":
        norm = self.re * self.re + self.im * self.im
        if not norm:
            raise ZeroDivisionError("inverse of zero")
        return GaussianRational(self.re / norm, -self.im / norm)

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


_GR_ZERO = GaussianRational()
_GR_ONE = GaussianRational(1)
_GR_I = GaussianRational(0, 1)


def _fmt_fraction(f: Fraction) -> str:
    return str(f)


def _fmt_gaussian(c: GaussianRational) -> str:
    """Render a Gaussian rational; compound values are parenthesized."""
    if not c.im:
        return _fmt_fraction(c.re)
    if not c.re:
        if c.im == 1:
            return "i"
        if c.im == -1:
            return "-i"
        if c.im.denominator == 1:
            return f"{c.im}*i"
        return f"({c.im})*i"
    im_abs = -c.im if c.im < 0 else c.im
    im_part = "i" if im_abs == 1 else (
        f"{im_abs}*i" if im_abs.denominator == 1 else f"({im_abs})*i")
    sign = "-" if c.im < 0 else "+"
    return f"({c.re} {sign} {im_part})"


class ScalarQ:
    """A Laurent polynomial in s with GaussianRational coefficients.

    Stored as a map from the exponent of s to the coefficient.  s stands for
    the square root of the deformation parameter, so q itself is s^2.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, GaussianRational] | None = None):
        clean = {}
        if terms:
            for k, c in terms.items():
                if not isinstance(c, GaussianRational):
                    c = GaussianRational(c)
                if c:
                    clean[int(k)] = c
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("ScalarQ is immutable")

    # constructors

    @classmethod
    def zero(cls) -> "ScalarQ":
        return cls()

    @classmethod
    def one(cls) -> "ScalarQ":
        return cls({0: _GR_ONE})

    @classmethod
    def i(cls) -> "ScalarQ":
        return cls({0: _GR_I})

    @classmethod
    def s_power(cls, k: int) -> "ScalarQ":
        return cls({k: _GR_ONE})

    @classmethod
    def rational(cls, num, den=1) -> "ScalarQ":
        return cls({0: GaussianRational(Fraction(num, den))})

    @classmethod
    def gauss(cls, re, im, s_exp: int = 0) -> "ScalarQ":
        return cls({s_exp: GaussianRational(re, im)})

    # queries

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def items(self) -> Iterator[tuple[int, GaussianRational]]:
        return iter(sorted(self._terms.items()))

    def coefficient(self, k: int) -> GaussianRational:
        return self._terms.get(k, _GR_ZERO)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScalarQ):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # arithmetic

    def __add__(self, other: "ScalarQ") -> "ScalarQ":
        terms = dict(self._terms)
        for k, c in other._terms.items():
            acc = terms.get(k)
            terms[k] = c if acc is None else acc + c
        return ScalarQ(terms)

    def __sub__(self, other: "ScalarQ") -> "ScalarQ":
        return self + (-other)

    def __neg__(self) -> "ScalarQ":
        return ScalarQ({k: -c for k, c in self._terms.items()})

    def __mul__(self, other: "ScalarQ") -> "ScalarQ":
        terms: dict[int, GaussianRational] = {}
        for k1, c1 in self._terms.items():
            for k2, c2 in other._terms.items():
                k = k1 + k2
                prod = c1 * c2
                acc = terms.get(k)
                terms[k] = prod if acc is None else acc + prod
        return ScalarQ(terms)

    def conjugate(self) -> "ScalarQ":
        """Complex conjugation; s is real and stays fixed."""
        return ScalarQ({k: c.conjugate() for k, c in self._terms.items()})

    def substitute_s_inverse(self) -> "ScalarQ":
        """The image under s -> s^-1 (passage to the inverse parameter)."""
        return ScalarQ({-k: c for k, c in self._terms.items()})

    def inverse(self) -> "ScalarQ":
        """Invert a single-term scalar c*s^k.  Multi-term Laurent polynomials
        are not units of the coefficient ring and raise ValueError."""
        if len(self._terms) != 1:
            raise ValueError("only monomial scalars c*s^k are invertible")
        (k, c), = self._terms.items()
        return ScalarQ({-k: c.inverse()})

    def evaluate(self, s_value: complex) -> complex:
        """Numeric value at a concrete s (s = sqrt(q))."""
        total = 0j
        for k, c in self._terms.items():
            total += complex(c) * (s_value ** k)
        return total

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for k, c in sorted(self._terms.items()):
            cs = _fmt_gaussian(c)
            if k == 0:
                parts.append(cs)
            else:
                sk = "s" if k == 1 else f"s^{k}"
                if cs == "1":
                    parts.append(sk)
                elif cs == "-1":
                    parts.append(f"-{sk}")
                else:
                    parts.append(f"{cs}*{sk}")
        return _join_signed(parts)

    def __repr__(self) -> str:
        return f"ScalarQ({self})"


def _join_signed(parts: Sequence[str]) -> str:
    out = parts[0]
    for piece in parts[1:]:
        if piece.startswith("-"):
            out += " - " + piece[1:]
        else:
            out += " + " + piece
    return out


_S = ScalarQ.s_power
_I = ScalarQ.i()
_ONE = ScalarQ.one()


class NormalMonomial:
    """A basis monomial: p^power u^uexp (kind 'p') or x^power u^uexp (kind 'x').

    kind 'p' with power 0 covers the pure u^n monomials; kind 'x' requires
    power >= 1 so each basis element has exactly one spelling.
    """

    __slots__ = ("kind", "power", "uexp")

    def __init__(self, kind: str, power: int, uexp: int):
        if kind not in ("p", "x"):
            raise ValueError(f"kind must be 'p' or 'x', got {kind!r}")
        if power < 0:
            raise ValueError("power must be nonnegative")
        if kind == "x" and power == 0:
            raise ValueError("x-kind monomials need power >= 1; use kind 'p'")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "power", int(power))
        object.__setattr__(self, "uexp", int(uexp))

    def __setattr__(self, name, value):
        raise AttributeError("NormalMonomial is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, NormalMonomial):
            return NotImplemented
        return (self.kind, self.power, self.uexp) == (other.kind, other.power, other.uexp)

    def __hash__(self) -> int:
        return hash((self.kind, self.power, self.uexp))

    def sort_key(self) -> tuple:
        return (0 if self.kind == "p" else 1, self.power, self.uexp)

    def word(self) -> tuple[str, ...]:
        """A free word whose reduction is exactly this monomial."""
        letters: list[str] = [self.kind] * self.power
        if self.uexp >= 0:
            letters += ["u"] * self.uexp
        else:
            letters += ["u^-1"] * (-self.uexp)
        return tuple(letters)

    @property
    def degree(self) -> int:
        return self.power + abs(self.uexp)

    def __str__(self) -> str:
        pieces = []
        if self.power:
            pieces.append(self.kind if self.power == 1 else f"{self.kind}^{self.power}")
        if self.uexp:
            pieces.append("u" if self.uexp == 1 else f"u^{self.uexp}")
        return "*".join(pieces) if pieces else "1"

    def __repr__(self) -> str:
        return f"NormalMonomial({self})"


_UNIT_MONO = NormalMonomial("p", 0, 0)


def _word_growth(base: Iterable[ScalarQ], paths: int) -> float:
    """64-bit words that one more factor of the base can add to a
    coefficient of its power: a coefficient of the e-th power sums at most
    paths^e products of e base coefficients, so each factor adds at most
    ceil(log2) of the largest numerator or denominator and of paths."""
    bits = max((max(abs(x) - 1, 0).bit_length() for c in base
                for g in c._terms.values() for part in (g.re, g.im)
                for x in (part.numerator, part.denominator)), default=0)
    return (bits + (paths - 1).bit_length()) / 64


def _charge(work: int, products: int, exponent: int = 0,
            growth: float = 0.0, what: str = "power") -> int:
    """The work of a power (or ``what``) after ``products`` more
    coefficient-term products toward the ``exponent``-th power, each
    counted once per word its coefficients can reach; raises past
    MAX_POWER_WORK."""
    work += products * (1 + int(exponent * growth))
    if work > MAX_POWER_WORK:
        raise WorkLimitError(f"{what} too costly to compute: over the limit "
                             f"of {MAX_POWER_WORK} units of work")
    return work


def _scalar_power(c: ScalarQ, n: int) -> ScalarQ:
    """c^n for n >= 0 by square-and-multiply, within MAX_POWER_WORK."""
    growth = _word_growth((c,), len(c._terms))
    out, work, e_out, e_c = _ONE, 0, 0, 1
    while n:
        if n & 1:
            e_out += e_c
            work = _charge(work, len(out._terms) * len(c._terms), e_out,
                           growth)
            out = out * c
        n >>= 1
        if n:
            e_c *= 2
            work = _charge(work, len(c._terms) ** 2, e_c, growth)
            c = c * c
    return out


class AlgebraElement:
    """A finite scalar combination of NormalMonomials."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[NormalMonomial, ScalarQ] | None = None):
        clean = {}
        if terms:
            for m, c in terms.items():
                if c:
                    clean[m] = c
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElement is immutable")

    # constructors

    @classmethod
    def zero(cls) -> "AlgebraElement":
        return cls()

    @classmethod
    def one(cls) -> "AlgebraElement":
        return cls({_UNIT_MONO: _ONE})

    @classmethod
    def from_scalar(cls, c: ScalarQ) -> "AlgebraElement":
        return cls({_UNIT_MONO: c})

    @classmethod
    def generator(cls, letter: str) -> "AlgebraElement":
        if letter == "p":
            return cls({NormalMonomial("p", 1, 0): _ONE})
        if letter == "x":
            return cls({NormalMonomial("x", 1, 0): _ONE})
        if letter == "u":
            return cls({NormalMonomial("p", 0, 1): _ONE})
        if letter == "u^-1":
            return cls({NormalMonomial("p", 0, -1): _ONE})
        raise ValueError(f"unknown generator {letter!r}")

    # queries

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def items(self) -> Iterator[tuple[NormalMonomial, ScalarQ]]:
        return iter(sorted(self._terms.items(), key=lambda mc: mc[0].sort_key()))

    def coefficient(self, m: NormalMonomial) -> ScalarQ:
        return self._terms.get(m, ScalarQ.zero())

    @property
    def degree(self) -> int:
        """Max generator-word length over the support; 0 for scalars."""
        return max((m.degree for m in self._terms), default=0)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # arithmetic

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        terms = dict(self._terms)
        for m, c in other._terms.items():
            acc = terms.get(m)
            terms[m] = c if acc is None else acc + c
        return AlgebraElement(terms)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement({m: -c for m, c in self._terms.items()})

    def scale(self, c: ScalarQ) -> "AlgebraElement":
        return AlgebraElement({m: c * cm for m, cm in self._terms.items()})

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        return multiply(self, other)

    def __pow__(self, n: int) -> "AlgebraElement":
        if n < 0:
            raise ValueError("negative powers are not defined on elements")
        if n and not self._terms:
            return self
        if n and len(self._terms) == 1:
            (mono, coeff), = self._terms.items()
            # u^m p^r = s^{2mr} p^r u^m and u^m x^k = s^{-2mk} x^k u^m; the
            # n u^m factors pass n(n-1)/2 later p^r or x^k factors, so
            # (c p^r u^m)^n = c^n s^{mrn(n-1)} p^{rn} u^{mn}, and the same
            # with s^{-mkn(n-1)} for x^k
            sign = 1 if mono.kind == "p" else -1
            shift = sign * mono.uexp * mono.power * n * (n - 1)
            return AlgebraElement({
                NormalMonomial(mono.kind, mono.power * n, mono.uexp * n):
                _scalar_power(coeff, n) * ScalarQ.s_power(shift)})
        # a product folds each coefficient term of out through each letter
        # (and the shift) of each coefficient term of self
        letters = sum(len(c._terms) * (m.power + 1)
                      for m, c in self._terms.items())
        growth = _word_growth(self._terms.values(), letters)
        out, work = AlgebraElement.one(), 0
        for k in range(1, n + 1):
            terms = sum(len(c._terms) for c in out._terms.values())
            work = _charge(work, letters * terms, k, growth)
            out = multiply(out, self)
        return out

    def star(self) -> "AlgebraElement":
        return star(self)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for m, c in self.items():
            mono = str(m)
            if mono == "1":
                cs = str(c)
                parts.append(f"({cs})" if len(c._terms) > 1 else cs)
                continue
            if len(c._terms) > 1:
                parts.append(f"({c})*{mono}")
                continue
            cs = str(c)
            if cs == "1":
                parts.append(mono)
            elif cs == "-1":
                parts.append(f"-{mono}")
            else:
                parts.append(f"{cs}*{mono}")
        return _join_signed(parts)

    def __repr__(self) -> str:
        return f"AlgebraElement({self})"


# The rewrite system, kept as the confluence oracle behind reduce(..., rng=)
# and reduce_all_orders.  Each adjacent pair maps to a list of (scalar,
# letters) replacements; the two mixed pairs split into a sum of two
# u-monomials.
_PAIR_RULES: dict[tuple[str, str], list[tuple[ScalarQ, tuple[str, ...]]]] = {
    ("u", "p"): [(_S(2), ("p", "u"))],
    ("u^-1", "p"): [(_S(-2), ("p", "u^-1"))],
    ("u", "x"): [(_S(-2), ("x", "u"))],
    ("u^-1", "x"): [(_S(2), ("x", "u^-1"))],
    ("u", "u^-1"): [(_ONE, ())],
    ("u^-1", "u"): [(_ONE, ())],
    ("p", "x"): [(_I * _S(1), ("u^-1",)), (-(_I * _S(-1)), ("u",))],
    ("x", "p"): [(_I * _S(-1), ("u^-1",)), (-(_I * _S(1)), ("u",))],
}


def _applicable_positions(word: tuple[str, ...]) -> list[int]:
    return [k for k in range(len(word) - 1) if (word[k], word[k + 1]) in _PAIR_RULES]


def _classify_normal(word: tuple[str, ...]) -> NormalMonomial:
    r = sum(1 for w in word if w == "p")
    k = sum(1 for w in word if w == "x")
    n = sum(1 for w in word if w == "u") - sum(1 for w in word if w == "u^-1")
    if r and k:
        raise AssertionError(f"word not normal: {word}")
    if k:
        return NormalMonomial("x", k, n)
    return NormalMonomial("p", r, n)


# The letter fold.  A fold state maps monomial keys (kind, power, uexp) to
# coefficients {s exponent: GaussianRational}.  A normal monomial times one
# letter is one or two monomials, each times i^k s^e (k in 0..3), so a fold
# step only shifts exponent keys and swaps or negates real and imaginary
# parts.  The rewrite system is confluent (Bergman's diamond lemma), so
# this order of applying the relations gives the same normal form as any.

_UNIT_KEY = ("p", 0, 0)
_U_SHIFT = {"u": 1, "u^-1": -1}


def _times_letter(key: tuple[str, int, int], letter: str):
    """key * letter as (key, k, e) triples, each meaning i^k s^e key."""
    kind, power, n = key
    if letter == kind or (letter == "x" and not power):
        # u^n p = s^2n p u^n and u^n x = s^-2n x u^n
        return (((letter, power + 1, n), 0, 2 * n if letter == "p" else -2 * n),)
    # p^r u^n x = s^-2n p^(r-1) (p x) u^n with p x = i s u^-1 - i s^-1 u;
    # x^k u^n p = s^2n x^(k-1) (x p) u^n with x p = i s^-1 u^-1 - i s u
    low = kind if power > 1 else "p"
    e, t = (-2 * n, 1) if kind == "p" else (2 * n, -1)
    return (((low, power - 1, n - 1), 1, e + t),
            ((low, power - 1, n + 1), 3, e - t))


def _times_i_power(c: GaussianRational, k: int) -> GaussianRational:
    if k == 0:
        return c
    if k == 1:
        return GaussianRational(-c.im, c.re)
    if k == 2:
        return GaussianRational(-c.re, -c.im)
    return GaussianRational(c.im, -c.re)


def _unit_shift(coeff: Mapping[int, GaussianRational], k: int,
                e: int) -> dict[int, GaussianRational]:
    """The coefficient map of i^k s^e times coeff, as a new dict."""
    return {d + e: _times_i_power(c, k) for d, c in coeff.items()}


def _i_power_of(c: GaussianRational) -> int | None:
    """k with c = i^k, or None when c is not a unit."""
    if not c.im:
        return 0 if c.re == 1 else 2 if c.re == -1 else None
    if not c.re:
        return 1 if c.im == 1 else 3 if c.im == -1 else None
    return None


def _accumulate(out: dict, key, coeff: Mapping[int, GaussianRational],
                k: int, e: int) -> None:
    """out[key] += i^k s^e coeff.  Every dict stored in out is owned by out,
    so merging into it never touches a caller's coefficients."""
    acc = out.get(key)
    if acc is None:
        out[key] = _unit_shift(coeff, k, e)
        return
    for d, c in coeff.items():
        d += e
        c = _times_i_power(c, k)
        old = acc.get(d)
        acc[d] = c if old is None else old + c


def _fold(state: dict, letters: Iterable[str]) -> dict:
    """Multiply a fold state on the right by each letter in turn."""
    for letter in letters:
        if letter in _U_SHIFT:
            d = _U_SHIFT[letter]
            state = {(kind, power, n + d): c
                     for (kind, power, n), c in state.items()}
            continue
        out: dict = {}
        for key, coeff in state.items():
            for new_key, k, e in _times_letter(key, letter):
                _accumulate(out, new_key, coeff, k, e)
        state = out
    return state


def _fold_run(state: dict, letter: str, count: int,
              work: int) -> tuple[dict, int]:
    """(_fold(state, (letter,) * count), work) for letter p or x, each
    letter step charging its coefficient-term products to a product's
    ``work``.  A letter lowers the power of keys of the other kind and
    raises all others, so once those powers are spent the rest of the run
    raises every power at once: u^n p^r = s^2nr p^r u^n and
    u^n x^r = s^-2nr x^r u^n."""
    steps = min(count, max((power for kind, power, _ in state
                            if kind != letter), default=0))
    for _ in range(steps):
        # a letter step folds each coefficient term into at most two keys
        work = _charge(work, 2 * sum(map(len, state.values())),
                       what="product")
        state = _fold(state, (letter,))
    count -= steps
    if not count:
        return state, work
    e = (2 if letter == "p" else -2) * count
    return {(letter, power + count, n): _unit_shift(c, 0, e * n)
            for (_, power, n), c in state.items()}, work


def _element(state: dict) -> AlgebraElement:
    return AlgebraElement({NormalMonomial(*key): ScalarQ(coeff)
                           for key, coeff in state.items()})


def reduce(word: Sequence[str], coeff: ScalarQ | None = None,
           rng: random.Random | None = None) -> AlgebraElement:
    """The normal form of coeff times a free word.

    By default the letters are folded in from the left in closed form.
    Passing an rng runs the rewrite system instead, applying a rule at a
    random admissible position at every step; the basis property of the
    normal form means the result must not depend on the order, which the
    tests exercise directly.
    """
    for letter in word:
        if letter not in GENERATOR_LETTERS:
            raise ValueError(f"unknown letter {letter!r}")
    if coeff is None:
        coeff = _ONE
    if rng is None:
        return _element(_fold({_UNIT_KEY: coeff._terms}, word))
    acc: dict[NormalMonomial, ScalarQ] = {}
    stack: list[tuple[tuple[str, ...], ScalarQ]] = [(tuple(word), coeff)]
    while stack:
        w, c = stack.pop()
        if not c:
            continue
        positions = _applicable_positions(w)
        if not positions:
            m = _classify_normal(w)
            old = acc.get(m)
            acc[m] = c if old is None else old + c
            continue
        pos = rng.choice(positions)
        for factor, repl in _PAIR_RULES[(w[pos], w[pos + 1])]:
            stack.append((w[:pos] + repl + w[pos + 2:], c * factor))
    return AlgebraElement(acc)


def reduce_all_orders(word: Sequence[str], coeff: ScalarQ | None = None,
                      limit: int = 200000) -> set[AlgebraElement]:
    """Exhaust every admissible rewrite order of a (short) word.

    Returns the set of distinct final elements; confluence means the set has
    size one.  Exponential in word length, meant for words of length <= 5.
    """
    if coeff is None:
        coeff = _ONE
    results: set[AlgebraElement] = set()

    def walk(pending: list[tuple[tuple[str, ...], ScalarQ]],
             acc: AlgebraElement, budget: list[int]) -> None:
        if budget[0] <= 0:
            raise RuntimeError("reduce_all_orders budget exhausted")
        budget[0] -= 1
        if not pending:
            results.add(acc)
            return
        w, c = pending[0]
        rest = pending[1:]
        positions = _applicable_positions(w)
        if not positions:
            walk(rest, acc + AlgebraElement({_classify_normal(w): c}), budget)
            return
        for pos in positions:
            branches = [(w[:pos] + repl + w[pos + 2:], c * factor)
                        for factor, repl in _PAIR_RULES[(w[pos], w[pos + 1])]]
            walk(branches + rest, acc, budget)

    walk([(tuple(word), coeff)], AlgebraElement.zero(), [limit])
    return results


def check_printable(element: AlgebraElement) -> None:
    """Raise ValueError when the printed normal form would hold a
    coefficient part or an exponent longer than MAX_PRINT_BITS bits."""
    coeff_bits = max((x.bit_length() for c in element._terms.values()
                      for g in c._terms.values() for part in (g.re, g.im)
                      for x in (part.numerator, part.denominator)), default=0)
    if coeff_bits > MAX_PRINT_BITS:
        raise ValueError(f"coefficient too large to print: {coeff_bits} bits, "
                         f"over the limit of {MAX_PRINT_BITS} bits")
    exp_bits = max((e.bit_length() for m, c in element._terms.items()
                    for e in (m.power, m.uexp, *c._terms)), default=0)
    if exp_bits > MAX_PRINT_BITS:
        raise ValueError(f"exponent too large to print: {exp_bits} bits, "
                         f"over the limit of {MAX_PRINT_BITS} bits")


def _half_log2(x: Fraction) -> float:
    """log2 of the square root of a positive rational."""
    return (math.log2(x.numerator) - math.log2(x.denominator)) / 2


def _norm(g: GaussianRational) -> Fraction:
    return g.re * g.re + g.im * g.im


def _power_bits_lower_bound(coeff: ScalarQ, n: int) -> float:
    """A number of bits that the longest numerator or denominator of a
    coefficient part of coeff^n (n >= 1) reaches, found in time that does
    not grow with n.

    The lowest and highest coefficients of c^n are g^n for those g of c.  A
    part of g^n has a numerator (|g| > 1) or a denominator (|g| < 1) of at
    least n*|log2 |g|| bits, and a denominator of more than n/2 bits when g
    is not a Gaussian integer; a rational g = a/b gives exactly a^n/b^n,
    and x >= 2^(bits - 1).  c^n has at most n*(spread of the s exponents of
    c) + 1 coefficients a_k.  Its values at s = 1 and s = -1 are signed
    sums of them, so count * max |a_k| >= |c(+-1)|^n; and, by Parseval and
    Jensen on |s| = 1, count * max |a_k|^2 >= sum |a_k|^2 >= (sum |g|^2)^n.
    A part of a_k is at least |a_k|/sqrt(2).
    """
    low, high = min(coeff._terms), max(coeff._terms)
    nf = float(min(n, 1 << 1000))
    bound = 0.0
    for g in (coeff._terms[low], coeff._terms[high]):
        bound = max(bound, nf * abs(_half_log2(_norm(g))) - 1)
        if g.im:
            if g.re.denominator > 1 or g.im.denominator > 1:
                bound = max(bound, nf / 2)
        else:
            for x in (g.re.numerator, g.re.denominator):
                bound = max(bound, n * (abs(x).bit_length() - 1) + 1)
    log2_count = math.log2(n * (high - low) + 1)
    at_one = sum(coeff._terms.values(), _GR_ZERO)
    at_minus_one = sum((-g if e % 2 else g for e, g in coeff._terms.items()),
                       _GR_ZERO)
    energy = sum(_norm(g) for g in coeff._terms.values())
    for norm, weight in ((_norm(at_one), 1), (_norm(at_minus_one), 1),
                         (energy, 0.5)):
        if norm:
            bound = max(bound,
                        nf * _half_log2(norm) - weight * log2_count - 1)
    return bound


def check_power_printable(element: AlgebraElement, n: int) -> None:
    """Raise ValueError, before element ** n is computed, when element is
    a single term c*m and c^n must hold a coefficient part longer than
    MAX_PRINT_BITS bits (see _power_bits_lower_bound), so element ** n
    alone is never refused when check_printable would pass it.  An
    expression that goes on to cancel such a power, as 2^20000 * 2^-20000
    does, is refused all the same."""
    if n < 2 or len(element._terms) != 1:
        return
    (coeff,) = element._terms.values()
    bound = _power_bits_lower_bound(coeff, n)
    if bound > MAX_PRINT_BITS:
        raise ValueError(f"coefficient too large to print: "
                         f"{math.ceil(bound)} bits or more, over the limit "
                         f"of {MAX_PRINT_BITS} bits")


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Product in the algebra: each monomial of b is folded, letter by
    letter, into the normal form of a, then scaled by its coefficient
    (scalars are central).  The letter steps share one MAX_POWER_WORK
    budget per product."""
    start = {(m.kind, m.power, m.uexp): c._terms for m, c in a._terms.items()}
    acc: dict = {}
    work = 0
    for mb, cb in b._terms.items():
        piece, work = _fold_run(start, mb.kind, mb.power, work)
        for (kind, power, n), coeff in piece.items():
            key = (kind, power, n + mb.uexp)
            for e, g in cb._terms.items():
                # a unit i^k s^e, the usual coefficient term, is a shift;
                # any other g takes Gaussian products
                k = _i_power_of(g)
                if k is not None:
                    _accumulate(acc, key, coeff, k, e)
                    continue
                target = acc.setdefault(key, {})
                for d, c in coeff.items():
                    prod = c * g
                    old = target.get(d + e)
                    target[d + e] = prod if old is None else old + prod
    return _element(acc)


def star(a: AlgebraElement) -> AlgebraElement:
    """The involution: antilinear, reverses products, fixes p and x, and
    sends u to u^-1.  Coefficients are conjugated; s itself is real.  Per
    term, (c p^r u^n)* = u^-n p^r c* = c* s^(-2nr) p^r u^-n, and
    (c x^k u^n)* = c* s^(2nk) x^k u^-n."""
    terms = {}
    for m, c in a._terms.items():
        shift = (-2 if m.kind == "p" else 2) * m.uexp * m.power
        terms[NormalMonomial(m.kind, m.power, -m.uexp)] = ScalarQ(
            {e + shift: g.conjugate() for e, g in c._terms.items()})
    return AlgebraElement(terms)


def inverse_q_iso(a: AlgebraElement, which: int) -> AlgebraElement:
    """Map an element to the algebra at the inverse parameter.

    Two standard *-isomorphisms are supported.  Variant 1 swaps p and x and
    fixes u; variant 2 fixes p and x and sends u to -u^-1 (hence u^-1 to -u).
    In both, coefficients undergo s -> s^-1, re-expressing them in terms of
    the target algebra's own deformation root.
    """
    if which == 1:
        images = {
            "p": AlgebraElement.generator("x"),
            "x": AlgebraElement.generator("p"),
            "u": AlgebraElement.generator("u"),
            "u^-1": AlgebraElement.generator("u^-1"),
        }
    elif which == 2:
        images = {
            "p": AlgebraElement.generator("p"),
            "x": AlgebraElement.generator("x"),
            "u": -AlgebraElement.generator("u^-1"),
            "u^-1": -AlgebraElement.generator("u"),
        }
    else:
        raise ValueError("which must be 1 or 2")
    out = AlgebraElement.zero()
    for m, c in a._terms.items():
        piece = AlgebraElement.from_scalar(c.substitute_s_inverse())
        for letter in m.word():
            piece = multiply(piece, images[letter])
        out = out + piece
    return out


def random_word(rng: random.Random, max_len: int = 8) -> tuple[str, ...]:
    n = rng.randint(0, max_len)
    return tuple(rng.choice(GENERATOR_LETTERS) for _ in range(n))


def random_element(rng: random.Random, max_terms: int = 3,
                   max_len: int = 5) -> AlgebraElement:
    """A small random element, for property tests."""
    out = AlgebraElement.zero()
    for _ in range(rng.randint(1, max_terms)):
        c = ScalarQ.gauss(rng.randint(-3, 3), rng.randint(-3, 3),
                          rng.randint(-2, 2))
        out = out + reduce(random_word(rng, max_len), c)
    return out
