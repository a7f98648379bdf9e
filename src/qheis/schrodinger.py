"""Wavepacket model of the algebra on the real line.

The shift u acts as multiplication by e^{it} and p as analytic translation
t -> t - i*alpha, with q = e^{-alpha}.  Finite combinations of Gaussian
wavepackets e^{gamma*t - t^2} are stable under all five basic operators:
each operator moves the packet parameter gamma and multiplies the
coefficient by an explicit factor.  Inner products of wavepackets have the
closed form

    <e^{g t - t^2}, e^{g' t - t^2}> = sqrt(pi/2) * e^{(g + conj(g'))^2 / 8},

so every algebraic identity can be checked three ways at once: through the
parameter bookkeeping, pointwise on a grid, and against numerical
quadrature.

Identities between packet combinations are measured in the Gaussian norm
after consolidating twin packets: two operator orders move gamma along
float paths that differ in the last bit, and without merging those twins
the closed-form norm of the difference loses half the working precision to
cancellation.  A pointwise grid comparison is provided as a second,
consolidation-free view of the same residual.
"""
from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

import numpy as np

from .lattice import VerificationCheck

OPERATORS = ("U", "U*", "P", "Pinv", "X")

_SQRT_HALF_PI = math.sqrt(math.pi / 2)

# verify_schrodinger's packets: 2 or more, since its pair checks take two;
# 2,000 took 2.3 s on a 2-CPU host
MAX_SAMPLES = 1000


@dataclass(frozen=True)
class SchrodingerParams:
    """Deformation data for the line model; q = e^{-alpha} with alpha > 0."""

    alpha: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("alpha must be positive so that 0 < q < 1")

    @property
    def q(self) -> float:
        return math.exp(-self.alpha)

    @property
    def s(self) -> float:
        return math.exp(-self.alpha / 2)

    @classmethod
    def from_q(cls, q: float) -> "SchrodingerParams":
        if not 0 < q < 1:
            raise ValueError("q must lie in (0, 1)")
        return cls(-math.log(q))


class GaussianElement:
    """Finite combination sum_k c_k e^{gamma_k t - t^2}.

    Terms with exactly equal parameters merge; zero coefficients drop.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean: dict[complex, complex] = {}
        for gamma, coeff in (terms or {}).items():
            gamma, coeff = complex(gamma), complex(coeff)
            if coeff != 0:
                total = clean.get(gamma, 0j) + coeff
                if total == 0:
                    clean.pop(gamma, None)
                else:
                    clean[gamma] = total
        self._terms = clean

    @classmethod
    def packet(cls, gamma, coeff=1.0) -> "GaussianElement":
        return cls({complex(gamma): complex(coeff)})

    @classmethod
    def zero(cls) -> "GaussianElement":
        return cls()

    def items(self):
        return sorted(self._terms.items(),
                      key=lambda kv: (kv[0].real, kv[0].imag))

    @property
    def n_terms(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __add__(self, other: "GaussianElement") -> "GaussianElement":
        merged = dict(self._terms)
        for gamma, coeff in other._terms.items():
            merged[gamma] = merged.get(gamma, 0j) + coeff
        return GaussianElement(merged)

    def __sub__(self, other: "GaussianElement") -> "GaussianElement":
        return self + other.scale(-1.0)

    def scale(self, factor) -> "GaussianElement":
        return GaussianElement(
            {g: complex(factor) * c for g, c in self._terms.items()})

    def evaluate(self, t):
        """Value at t; accepts scalars or numpy arrays."""
        t = np.asarray(t, dtype=complex)
        total = np.zeros_like(t)
        for gamma, coeff in self._terms.items():
            total = total + coeff * np.exp(gamma * t - t * t)
        return complex(total) if total.ndim == 0 else total

    def __repr__(self) -> str:
        body = " + ".join(f"({c:.3g})*packet({g:.3g})"
                          for g, c in self.items())
        return body or "0"


def act(name: str, f: GaussianElement,
        params: SchrodingerParams) -> GaussianElement:
    """Apply one operator to a packet combination.

    U multiplies by e^{it} (gamma -> gamma + i); P translates the argument
    by -i*alpha, which on a packet reads gamma -> gamma + 2i*alpha with the
    coefficient picking up e^{alpha^2 - i*alpha*gamma}; X is the difference
    combination X = i q^{-1/2} U^{-1} P^{-1} - i q^{1/2} U P^{-1}.  Raises
    ValueError where the factor of P or P^{-1} leaves the float range, as
    it does for q below about 1e-11 on the packets of the checks.
    """
    a = params.alpha
    if name == "U":
        return GaussianElement({g + 1j: c for g, c in f._terms.items()})
    if name == "U*":
        return GaussianElement({g - 1j: c for g, c in f._terms.items()})
    try:
        if name == "P":
            return GaussianElement(
                {g + 2j * a: c * cmath.exp(a * a - 1j * a * g)
                 for g, c in f._terms.items()})
        if name == "Pinv":
            return GaussianElement(
                {g - 2j * a: c * cmath.exp(a * a + 1j * a * g)
                 for g, c in f._terms.items()})
    except OverflowError:
        raise ValueError(f"q = {params.q:.6g} is too small: the factor "
                         f"{name} puts on a packet leaves the float range"
                         ) from None
    if name == "X":
        pinv = act("Pinv", f, params)
        up = act("U*", pinv, params).scale(1j / params.s)
        down = act("U", pinv, params).scale(-1j * params.s)
        return up + down
    raise ValueError(f"unknown operator {name!r}; expected one of {OPERATORS}")


act_schrodinger = act


def apply_word(word, f: GaussianElement,
               params: SchrodingerParams) -> GaussianElement:
    """Apply a product of operators, rightmost factor first."""
    for name in reversed(tuple(word)):
        f = act(name, f, params)
    return f


def inner_gaussian(f: GaussianElement, g: GaussianElement) -> complex:
    """Closed-form line inner product, linear in the first argument."""
    total = 0j
    for gf, cf in f._terms.items():
        for gg, cg in g._terms.items():
            b = gf + gg.conjugate()
            total += cf * cg.conjugate() * _SQRT_HALF_PI * cmath.exp(b * b / 8)
    return total


def norm(f: GaussianElement) -> float:
    return math.sqrt(max(0.0, inner_gaussian(f, f).real))


def h_function(z: complex, params: SchrodingerParams) -> complex:
    """The deformation combination q^{-1/2} e^{iz} - q^{1/2} e^{-iz};
    it vanishes at z = i*alpha/2."""
    return (cmath.exp(1j * z) / params.s - params.s * cmath.exp(-1j * z))


def consolidate(f: GaussianElement, tol: float = 1e-9) -> GaussianElement:
    """Merge packets whose parameters agree to within tol.

    Genuinely distinct packets produced by the operators sit at parameter
    distance at least min(1, 2*alpha) from each other, while float twins of
    the same packet differ by a few ulps, so any tol in between separates
    the two cleanly.  Replacing gamma' by gamma perturbs the packet by
    O(|gamma - gamma'|), far below any tolerance this module tests.
    """
    merged: list[tuple[complex, complex]] = []
    for gamma, coeff in sorted(f._terms.items(),
                               key=lambda kv: (kv[0].real, kv[0].imag)):
        if merged and abs(gamma - merged[-1][0]) <= tol:
            merged[-1] = (merged[-1][0], merged[-1][1] + coeff)
        else:
            merged.append((gamma, coeff))
    return GaussianElement(dict(merged))


def norm_residual(lhs: GaussianElement, rhs: GaussianElement,
                  tol: float = 1e-9) -> float:
    """Relative disagreement in the Gaussian norm, with twin packets of the
    difference consolidated first."""
    gap = norm(consolidate(lhs - rhs, tol))
    return gap / max(1.0, norm(lhs), norm(rhs))


def grid_residual(lhs: GaussianElement, rhs: GaussianElement,
                  grid=None) -> float:
    """Pointwise relative disagreement of two packet combinations."""
    if grid is None:
        grid = np.linspace(-6.0, 6.0, 121)
    lv, rv = lhs.evaluate(grid), rhs.evaluate(grid)
    scale = max(1.0, float(np.abs(lv).max(initial=0.0)),
                float(np.abs(rv).max(initial=0.0)))
    return float(np.abs(lv - rv).max(initial=0.0)) / scale


def inner_quadrature(f: GaussianElement, g: GaussianElement,
                     cutoff: float = 12.0) -> complex:
    """Quadrature oracle for the inner product: the trapezoid rule on 481
    equispaced nodes over [-cutoff, cutoff].  The integrand is entire and
    decays like e^{-2t^2}, so a cutoff of 12 is far past double precision
    and the rule converges exponentially in the node count (Trefethen and
    Weideman, SIAM Review 2014)."""
    t, step = np.linspace(-cutoff, cutoff, 481, retstep=True)
    values = f.evaluate(t) * np.conj(g.evaluate(t))
    return complex(step * (values.sum() - 0.5 * (values[0] + values[-1])))


def random_packet(rng: random.Random, max_terms: int = 3) -> GaussianElement:
    out = GaussianElement.zero()
    for _ in range(rng.randint(1, max_terms)):
        gamma = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        coeff = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        out = out + GaussianElement.packet(gamma, coeff)
    return out


@dataclass
class SchrodingerReport:
    checks: list[VerificationCheck]
    alpha: float
    n_samples: int
    seed: int | None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {"passed": self.passed, "alpha": self.alpha,
                "q": math.exp(-self.alpha), "n_samples": self.n_samples,
                "seed": self.seed,
                "checks": [c.to_json() for c in self.checks]}


def _relation_pairs(params: SchrodingerParams):
    """Operator identities to test, as (name, lhs builder, rhs builder)."""
    q, s = params.q, params.s

    def word(w, factor=1.0):
        return lambda f: apply_word(w, f, params).scale(factor)

    def combo(c_up, c_down):
        # c_up * U* + c_down * U
        return lambda f: (act("U*", f, params).scale(c_up)
                          + act("U", f, params).scale(c_down))

    return [
        ("shift then translate rescales by q",
         word(["U", "P"]), word(["P", "U"], q)),
        ("shift then difference rescales by 1/q",
         word(["U", "X"]), word(["X", "U"], 1.0 / q)),
        ("shift inverts", word(["U", "U*"]), lambda f: f),
        ("shift inverts backwards", word(["U*", "U"]), lambda f: f),
        ("translation inverts", word(["P", "Pinv"]), lambda f: f),
        ("translation inverts backwards", word(["Pinv", "P"]), lambda f: f),
        ("translate-difference has the two-shift form",
         word(["P", "X"]), combo(1j * s, -1j / s)),
        ("difference-translate has the flipped form",
         word(["X", "P"]), combo(1j / s, -1j * s)),
    ]


def verify_schrodinger(params: SchrodingerParams, n_samples: int = 20,
                       seed: int | None = None,
                       tol: float = 1e-10) -> SchrodingerReport:
    """Check the line model: the defining relations hold pointwise on random
    wavepackets, the operators have the right symmetry, the deformation
    function vanishes where it must, and the closed-form inner product
    matches quadrature.  Takes 2 to MAX_SAMPLES packets."""
    if not 2 <= n_samples <= MAX_SAMPLES:
        raise ValueError(f"samples must lie in [2, {MAX_SAMPLES}], "
                         f"got {n_samples}")
    rng = random.Random(seed)
    packets = [random_packet(rng) for _ in range(n_samples)]

    worst_rel = 0.0
    worst_grid = 0.0
    for _, lhs_of, rhs_of in _relation_pairs(params):
        for f in packets:
            lhs, rhs = lhs_of(f), rhs_of(f)
            worst_rel = max(worst_rel, norm_residual(lhs, rhs))
            worst_grid = max(worst_grid, grid_residual(lhs, rhs))

    worst_sym = 0.0
    worst_unitary = 0.0
    for f, g in zip(packets[::2], packets[1::2]):
        for op in ("P", "X"):
            left = inner_gaussian(act(op, f, params), g)
            right = inner_gaussian(f, act(op, g, params))
            worst_sym = max(worst_sym, abs(left - right)
                            / max(1.0, abs(left), abs(right)))
        shifted = inner_gaussian(act("U", f, params), act("U", g, params))
        plain = inner_gaussian(f, g)
        worst_unitary = max(worst_unitary, abs(shifted - plain)
                            / max(1.0, abs(plain)))

    zero_value = abs(h_function(0.5j * params.alpha, params))

    worst_quad = 0.0
    for f, g in zip(packets[:3], packets[1:4]):
        exact = inner_gaussian(f, g)
        numeric = inner_quadrature(f, g)
        worst_quad = max(worst_quad, abs(exact - numeric)
                         / max(1.0, abs(exact)))

    checks = [
        VerificationCheck("defining relations hold on wavepackets",
                          worst_rel, tol,
                          detail="relative in the Gaussian norm"),
        VerificationCheck("relations also hold pointwise",
                          worst_grid, tol,
                          detail="on a grid over [-6, 6]"),
        VerificationCheck("translation and difference are symmetric",
                          worst_sym, tol),
        VerificationCheck("the shift preserves inner products",
                          worst_unitary, tol),
        VerificationCheck("the deformation function vanishes at i*alpha/2",
                          zero_value, max(tol, 1e-14)),
        VerificationCheck("closed-form inner products match quadrature",
                          worst_quad, 1e-9),
    ]
    return SchrodingerReport(checks, params.alpha, n_samples, seed)
