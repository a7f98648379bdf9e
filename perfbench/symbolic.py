"""Workload ``symbolic``: exact rewriting with no numerics.

Every round has the same structure, so the cost of a round hardly depends
on the seed; the seed picks the letters, coefficients and scalars:

* 2 kernel expressions: a defining relation wrapped in random factors,
  which must reduce to exactly 0;
* 10 CLI-sized expressions, parsed and evaluated;
* one power chain ``(S)^1 .. (S)^8`` of a seeded three-term sum S in p, x
  and u or u^-1: the ops share sub-products (S^k contains S^(k-1));
* 4 p/x-alternating words with 6, 7, 8 and 9 alternations and a few u
  letters sprinkled in: the cost grows about 2.2x per alternation;
* 16 random words of 6-12 letters that share nothing;
* 6 products of random normal-form elements followed by the involution.
"""
from __future__ import annotations

from common import Op, expect, round_rng

from qheis import (AlgebraElement, NormalMonomial, ScalarQ, multiply,
                   parse_to_element, reduce, star)

# the middle of the S^8 class, one operation in 46: the edge of a class
# jumps between its neighbours from run to run
TAIL_PERCENTILE = 99

LETTERS = ("p", "x", "u", "u^-1")
CHAIN_POWERS = range(1, 9)
ALTERNATIONS = (6, 7, 8, 9)
RANDOM_WORD_LENGTH = (6, 12)

KERNELS = (
    "p*x - s^2*x*p - i*(s^3 - s^-1)*u",
    "p*x - i*s*u^-1 + i*s^-1*u",
    "x*p - i*s^-1*u^-1 + i*s*u",
    "u*p - q*p*u",
    "u*x - s^-2*x*u",
)
COEFFS = ("2", "1/2", "3/4", "i", "s", "s^-1", "q", "i*s", "(1 - i)")
FACTORS = ("p", "x", "u", "u^-1", "p^2", "x^2", "u^2", "(p + x)",
           "(u - s*u^-1)", "(x*u + i*p)")
# unit Gaussian integers times powers of s: rationals in the coefficients
# would grow with k and make the cost of S^k depend on the seed
SUM_COEFFS = ("", "i*", "s*", "i*s*", "s^-1*", "i*s^-1*")


def small_expression(rng) -> str:
    """A few signed terms of scalar times short products, as typed at the
    command line."""
    out = []
    for k in range(rng.randint(2, 4)):
        factors = [rng.choice(FACTORS) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.6:
            factors.insert(0, rng.choice(COEFFS))
        term = "*".join(factors)
        sign = rng.choice(("+", "-"))
        if k == 0:
            out.append(term if sign == "+" else f"-{term}")
        else:
            out.append(f" {sign} {term}")
    return "".join(out)


def kernel_expression(rng, template: str) -> str:
    left = "*".join(rng.choice(LETTERS) for _ in range(rng.randint(1, 2)))
    right = "*".join(rng.choice(LETTERS) for _ in range(rng.randint(1, 2)))
    return f"{rng.choice(COEFFS)}*{left}*({template})*{right}"


def chain_sum(rng) -> str:
    shift = rng.choice(("u", "u^-1"))
    terms = [f"{rng.choice(SUM_COEFFS)}{g}" for g in ("p", "x", shift)]
    rng.shuffle(terms)
    return terms[0] + "".join(f" {rng.choice('+-')} {t}" for t in terms[1:])


def alternating_word(rng, alternations: int) -> tuple[str, ...]:
    first, second = ("p", "x") if rng.random() < 0.5 else ("x", "p")
    word = [first, second] * alternations
    for _ in range(rng.randint(0, 2)):
        word.insert(rng.randrange(len(word) + 1), rng.choice(("u", "u^-1")))
    return tuple(word)


def random_word(rng) -> tuple[str, ...]:
    return tuple(rng.choice(LETTERS)
                 for _ in range(rng.randint(*RANDOM_WORD_LENGTH)))


def random_element(rng) -> AlgebraElement:
    terms = {}
    for _ in range(rng.randint(2, 4)):
        kind = rng.choice(("p", "x"))
        power = rng.randint(1 if kind == "x" else 0, 3)
        mono = NormalMonomial(kind, power, rng.randint(-2, 2))
        terms[mono] = ScalarQ.gauss(rng.randint(-3, 3), rng.randint(-3, 3),
                                    rng.randint(-2, 2))
    return AlgebraElement(terms)


# checks

def check_zero(result) -> None:
    expect(result.is_zero, f"kernel did not reduce to 0: {result}")


def check_reparse(result) -> None:
    expect(parse_to_element(str(result)) == result,
           "printed normal form does not reparse to an equal element")


def check_split(word):
    half = len(word) // 2

    def check(result) -> None:
        expect(result == multiply(reduce(word[:half]), reduce(word[half:])),
               f"normal form of {' '.join(word)} differs from the product "
               "of its halves")
    return check


def check_antihomomorphism(a, b):
    def check(result) -> None:
        expect(result == multiply(star(b), star(a)),
               "star(a*b) != star(b)*star(a)")
    return check


def setup(ctx) -> dict:
    return {"seed": ctx.seed}


def make_round(state, r: int) -> list[Op]:
    rng = round_rng(state["seed"], "symbolic", r)
    ops: list[Op] = []

    for template in rng.sample(KERNELS, 2):
        text = kernel_expression(rng, template)
        ops.append(Op("kernel", lambda t=text: parse_to_element(t),
                      check_zero))

    for _ in range(10):
        text = small_expression(rng)
        ops.append(Op("expression", lambda t=text: parse_to_element(t),
                      check_reparse))

    # S^k is checked against S^(k-1) * S from earlier in the same chain
    base = chain_sum(rng)
    chain: dict[int, AlgebraElement] = {}
    chain_ops: list[Op] = []
    for k in CHAIN_POWERS:
        text = f"({base})^{k}"

        def run(t=text, k=k):
            chain[k] = parse_to_element(t)
            return chain[k]

        def check(result, k=k):
            if k <= 3:
                check_reparse(result)
            if k > 1:
                previous = chain.get(k - 1)
                expect(previous is not None, f"power {k - 1} missing")
                expect(result == multiply(previous, chain[1]),
                       f"power {k} differs from power {k - 1} times the sum")
        chain_ops.append(Op("power", run, check))

    words = [("alternating", alternating_word(rng, n)) for n in ALTERNATIONS]
    words += [("word", random_word(rng)) for _ in range(16)]
    for name, word in words:
        ops.append(Op(name, lambda w=word: reduce(w), check_split(word)))

    for _ in range(6):
        a, b = random_element(rng), random_element(rng)
        ops.append(Op("multiply_star", lambda a=a, b=b: star(multiply(a, b)),
                      check_antihomomorphism(a, b)))

    rng.shuffle(ops)
    # the chain keeps its order, since each power is checked against the
    # one before it
    slots = sorted(rng.sample(range(len(ops) + len(chain_ops)), len(chain_ops)))
    for slot, op in zip(slots, chain_ops):
        ops.insert(slot, op)
    return ops
