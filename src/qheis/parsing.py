"""Text grammar for algebra elements.

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ['^' int]
    atom   := 'p' | 'x' | 'u' | 'u^-1' | 'i' | 's' | 'q'
            | NUMBER ['/' NUMBER] | '(' expr ')'

Whitespace is ignored.  `u^-1` is a single token (it parses to the inverse
shift even though `^` otherwise binds an exponent), `q` is sugar for `s^2`,
and a rational literal is one atom, so `5/2^2` squares 5/2.  Parentheses
nest at most MAX_DEPTH deep.  Syntax errors carry the byte offset and the
set of token kinds that would have been accepted there.

Trees are plain dataclasses; `to_text` prints them back in a form that
reparses to an equal tree, and the printer of the algebra's normal forms
emits this same grammar, so normal-form output can be fed back in.
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgebraElement, NormalMonomial, ScalarQ


class ParseError(ValueError):
    """Syntax error with the byte offset and the expected token kinds."""

    def __init__(self, offset: int, expected, found: str = ""):
        self.offset = int(offset)
        self.expected = tuple(sorted(expected))
        self.found = found
        what = f", found {found}" if found else ""
        super().__init__(
            f"syntax error at offset {self.offset}: expected "
            f"{' or '.join(self.expected)}{what}")


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Sym:
    name: str


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


@dataclass(frozen=True)
class Mul:
    factors: tuple


@dataclass(frozen=True)
class Sum:
    terms: tuple  # of (sign, node) with sign in {+1, -1}


Node = Num | Sym | Pow | Mul | Sum

# each level of parentheses costs a few interpreter frames in the parser
# and in evaluate, so deeper input would end in RecursionError
MAX_DEPTH = 100

_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<uinv>u\^-1(?!\d))
  | (?P<name>[pxusiq])
  | (?P<number>\d+)
  | (?P<op>[-+*/^()])
""", re.VERBOSE)


def tokenize(text: str):
    """(kind, value, offset) triples; kinds: uinv, name, number, op, end."""
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            raise ParseError(pos, {"a token"}, found=repr(text[pos]))
        pos = match.end()
        kind = match.lastgroup
        if kind != "ws":
            tokens.append((kind, match.group(), match.start()))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.k = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.k]

    def take(self):
        token = self.tokens[self.k]
        self.k += 1
        return token

    def fail(self, expected):
        kind, value, offset = self.peek()
        found = "end of input" if kind == "end" else repr(value)
        raise ParseError(offset, expected, found)

    def expect_op(self, op):
        kind, value, _ = self.peek()
        if kind == "op" and value == op:
            return self.take()
        self.fail({repr(op)})

    def parse(self):
        node = self.expr()
        if self.peek()[0] != "end":
            self.fail({"'+'", "'-'", "'*'", "end of input"})
        return node

    def expr(self):
        terms = []
        sign = 1
        if self.peek()[:2] == ("op", "-"):
            self.take()
            sign = -1
        terms.append((sign, self.term()))
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            sign = 1 if self.take()[1] == "+" else -1
            terms.append((sign, self.term()))
        if len(terms) == 1 and terms[0][0] == 1:
            return terms[0][1]
        return Sum(tuple(terms))

    def term(self):
        factors = [self.factor()]
        while self.peek()[:2] == ("op", "*"):
            self.take()
            factors.append(self.factor())
        return factors[0] if len(factors) == 1 else Mul(tuple(factors))

    def factor(self):
        base = self.atom()
        if self.peek()[:2] == ("op", "^"):
            self.take()
            return Pow(base, self.exponent())
        return base

    def exponent(self) -> int:
        sign = 1
        if self.peek()[:2] == ("op", "-"):
            self.take()
            sign = -1
        kind, value, _ = self.peek()
        if kind != "number":
            self.fail({"an integer exponent"})
        self.take()
        return sign * int(value)

    def atom(self):
        kind, value, _ = self.peek()
        if kind == "uinv":
            self.take()
            return Pow(Sym("u"), -1)
        if kind == "name":
            self.take()
            return Sym(value)
        if kind == "number":
            self.take()
            if self.peek()[:2] == ("op", "/"):
                self.take()
                dkind, dvalue, _ = self.peek()
                if dkind != "number":
                    self.fail({"a denominator"})
                self.take()
                return Num(Fraction(int(value), int(dvalue)))
            return Num(Fraction(int(value)))
        if (kind, value) == ("op", "("):
            if self.depth == MAX_DEPTH:
                self.fail({f"at most {MAX_DEPTH} nested parentheses"})
            self.take()
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            self.expect_op(")")
            return inner
        self.fail({"'p'", "'x'", "'u'", "'u^-1'", "'i'", "'s'", "'q'",
                   "a number", "'('"})


def parse_expression(text: str) -> Node:
    return _Parser(text).parse()


def to_text(node: Node) -> str:
    """Print a tree back in the input grammar; reparsing gives an equal
    tree."""
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, Sym):
        return node.name
    if isinstance(node, Pow):
        if node == Pow(Sym("u"), -1):
            return "u^-1"
        base = to_text(node.base)
        if not isinstance(node.base, (Sym, Num)):
            base = f"({base})"
        return f"{base}^{node.exponent}"
    if isinstance(node, Mul):
        parts = []
        for factor in node.factors:
            text = to_text(factor)
            # a nested product must keep its parentheses or reparsing
            # would flatten it into the outer one
            wrap = isinstance(factor, (Sum, Mul))
            parts.append(f"({text})" if wrap else text)
        return "*".join(parts)
    if isinstance(node, Sum):
        out = []
        for k, (sign, term) in enumerate(node.terms):
            text = to_text(term)
            if isinstance(term, Sum):
                text = f"({text})"
            if k == 0:
                out.append(text if sign > 0 else f"-{text}")
            else:
                out.append(f" {'+' if sign > 0 else '-'} {text}")
        return "".join(out)
    raise TypeError(f"not a parse tree node: {node!r}")


_I = ScalarQ.gauss(0, 1)


def _invert(element: AlgebraElement) -> AlgebraElement:
    """Inverse of a scalar monomial times a power of u; everything else has
    no inverse in the algebra."""
    terms = list(element.items())
    if len(terms) != 1:
        raise ValueError("cannot invert a sum in the algebra")
    mono, coeff = terms[0]
    if mono.power != 0:
        raise ValueError(
            f"'{mono.kind}' has no inverse in the algebra; only scalars and "
            "powers of u are invertible")
    return AlgebraElement({NormalMonomial("p", 0, -mono.uexp):
                           coeff.inverse()})


def evaluate(node: Node) -> AlgebraElement:
    """Evaluate a parse tree to a normal-form element."""
    if isinstance(node, Num):
        return AlgebraElement.one().scale(
            ScalarQ.rational(node.value.numerator, node.value.denominator))
    if isinstance(node, Sym):
        if node.name in ("p", "x", "u"):
            return AlgebraElement.generator(node.name)
        if node.name == "i":
            return AlgebraElement.one().scale(_I)
        if node.name == "s":
            return AlgebraElement.one().scale(ScalarQ.s_power(1))
        if node.name == "q":
            return AlgebraElement.one().scale(ScalarQ.s_power(2))
        raise ValueError(f"unknown symbol {node.name!r}")
    if isinstance(node, Pow):
        base = evaluate(node.base)
        if node.exponent >= 0:
            return base ** node.exponent
        return _invert(base) ** (-node.exponent)
    if isinstance(node, Mul):
        out = AlgebraElement.one()
        for factor in node.factors:
            out = out * evaluate(factor)
        return out
    if isinstance(node, Sum):
        out = AlgebraElement.zero()
        for sign, term in node.terms:
            value = evaluate(term)
            out = out + value if sign > 0 else out - value
        return out
    raise TypeError(f"not a parse tree node: {node!r}")


def parse_to_element(text: str) -> AlgebraElement:
    return evaluate(parse_expression(text))


def random_tree(rng: random.Random, depth: int = 3) -> Node:
    """Random parse-shaped tree for the print/reparse round-trip test."""
    roll = rng.random()
    if depth <= 0 or roll < 0.45:
        choice = rng.randrange(8)
        if choice < 6:
            leaf = Sym(rng.choice(("p", "x", "u", "i", "s", "q")))
        else:
            leaf = Num(Fraction(rng.randint(0, 9), rng.randint(1, 9)))
        if rng.random() < 0.3:
            exponent = rng.choice((-3, -2, -1, 2, 3))
            if leaf == Sym("u") and exponent == -1:
                return Pow(Sym("u"), -1)
            return Pow(leaf, exponent)
        return leaf
    if roll < 0.75:
        return Mul(tuple(random_tree(rng, depth - 1)
                         for _ in range(rng.randint(2, 3))))
    return Sum(tuple((rng.choice((1, -1)), random_tree(rng, depth - 1))
                     for _ in range(rng.randint(2, 3))))
