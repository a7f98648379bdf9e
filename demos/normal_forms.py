"""
Exact normal forms in the deformed algebra
==========================================

Every word in the generators p, x, u, u^-1 has a unique normal form: a
combination of basis monomials p^r u^n and x^k u^n, with coefficients
kept exact as Laurent polynomials in the square root s of the
deformation parameter.  `reduce` folds the letters in from the left, each
step in closed form; the rewrite system it replaces remains as the
confluence oracle, run by `reduce_all_orders` and `reduce(..., rng=)`.
"""

import random

from qheis import (
    AlgebraElement,
    ScalarQ,
    multiply,
    parse_to_element,
    reduce,
    reduce_all_orders,
    star,
)

# The two product reorderings collapse to pure shift terms.
print("p*x  ->", reduce(["p", "x"]))
print("x*p  ->", reduce(["x", "p"]))

# Rewriting is confluent: every admissible rule order gives the same
# element, the one the fold gives. For a short word we can afford to
# enumerate all of them.
word = ["x", "p", "u", "x"]
outcomes = reduce_all_orders(word)
print("distinct outcomes for", "".join(word), "->", len(outcomes))
print("normal form:", next(iter(outcomes)))

# The same holds statistically for longer words with randomized orders.
rng = random.Random(1)
word = ["p", "x", "p", "u", "x", "u"]
reference = reduce(word)
agree = all(reduce(word, rng=random.Random(k)) == reference for k in range(10))
print("10 randomized orders agree:", agree)

# Scalars are exact: coefficients live in the Gaussian rationals
# extended by integer powers of s, so equality is literal equality.
half_i = AlgebraElement.one().scale(ScalarQ.gauss(0, 1)).scale(
    ScalarQ.rational(1, 2))
print("(i/2) * 2 * (-i) =", multiply(half_i.scale(ScalarQ.rational(2)),
                                     AlgebraElement.one().scale(ScalarQ.gauss(0, -1))))

# The involution fixes p and x, swaps u with u^-1, and conjugates
# scalars; on products it reverses the order.
p = AlgebraElement.generator("p")
x = AlgebraElement.generator("x")
print("star(p*x) =", star(multiply(p, x)), " (equals the normal form of x*p)")

# Expressions written in the surface syntax normalize the same way.
print("parsed:", parse_to_element("p*x - s^2*x*p - i*(s^3 - s^-1)*u"))
