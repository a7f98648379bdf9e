"""Finitely atomic q-lattice model of the algebra's Hilbert space picture.

An atom family fixes 0 < q < 1 and, for each sign, a list of atoms
(position, weight) with position in [q, 1).  The measure extends each atom
across the geometric lattice {position * q^n : n integer} with point masses
weight * q^n, and the Hilbert space carries the orthonormal basis e_{s,j,n}.

The generators act in that basis as

    U e_n = e_{n-1}          U* e_n = e_{n+1}
    P e_n = t_n e_n          with t_n = sign * a_j * q^n
    X e_n = (i / t_n) (q^{-1/2} e_{n+1} - q^{1/2} e_{n-1})

Vectors live on a finite index window.  Applying a shift at the window edge
truncates the image and sets a lost flag on the result; the caller decides
what edge loss means for its computation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

GENERATOR_NAMES = ("U", "U*", "P", "X")

# index triple: (sign, j, n) with sign in {+1, -1}
LatticeIndex = tuple[int, int, int]


def sign_label(sign: int) -> str:
    return "+" if sign > 0 else "-"


def sign_from_label(label) -> int:
    if label in (1, +1, "+", "plus"):
        return +1
    if label in (-1, "-", "minus"):
        return -1
    raise ValueError(f"unknown sign {label!r}")


@dataclass(frozen=True)
class Atom:
    """One atom of the base measure: position in [q, 1), weight > 0."""
    position: float
    weight: float = 1.0


@dataclass(frozen=True)
class AtomFamily:
    q: float
    plus: tuple[Atom, ...]
    minus: tuple[Atom, ...]

    def __init__(self, q: float, plus: Iterable, minus: Iterable,
                 validate: bool = True):
        object.__setattr__(self, "q", float(q))
        object.__setattr__(self, "plus", _as_atoms(plus))
        object.__setattr__(self, "minus", _as_atoms(minus))
        if validate:
            self._validate()

    def _validate(self) -> None:
        if not (0.0 < self.q < 1.0):
            raise ValueError(f"q must lie in (0, 1), got {self.q}")
        for side, atoms in (("plus", self.plus), ("minus", self.minus)):
            for k, atom in enumerate(atoms):
                if not (self.q <= atom.position < 1.0):
                    raise ValueError(
                        f"{side} atom {k}: position {atom.position} outside [q, 1)")
                if not 0.0 < atom.weight < math.inf:
                    raise ValueError(f"{side} atom {k}: weight must be "
                                     f"positive and finite, got {atom.weight}")

    def atoms(self, sign: int) -> tuple[Atom, ...]:
        return self.plus if sign > 0 else self.minus

    def position(self, sign: int, j: int, n: int) -> float:
        return sign * self.atoms(sign)[j].position * self.q ** n

    def weight(self, sign: int, j: int, n: int) -> float:
        return self.atoms(sign)[j].weight * self.q ** n

    @property
    def sqrt_q(self) -> float:
        return math.sqrt(self.q)

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "plus": [{"a": a.position, "w": a.weight} for a in self.plus],
            "minus": [{"a": a.position, "w": a.weight} for a in self.minus],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "AtomFamily":
        def side(rows):
            return [Atom(float(r["a"]), float(r.get("w", 1.0))) for r in rows]
        return cls(float(data["q"]), side(data.get("plus", ())),
                   side(data.get("minus", ())))


def _as_atoms(rows) -> tuple[Atom, ...]:
    out = []
    for r in rows:
        if isinstance(r, Atom):
            out.append(r)
        elif isinstance(r, (tuple, list)):
            out.append(Atom(float(r[0]), float(r[1]) if len(r) > 1 else 1.0))
        else:
            out.append(Atom(float(r)))
    return tuple(out)


@dataclass(frozen=True)
class Window:
    """Closed index range n_min <= n <= n_max; interior excludes both edges."""
    n_min: int
    n_max: int

    def __post_init__(self):
        if self.n_min >= self.n_max:
            raise ValueError("window needs n_min < n_max")

    @property
    def length(self) -> int:
        return self.n_max - self.n_min

    def contains(self, n: int) -> bool:
        return self.n_min <= n <= self.n_max

    def is_interior(self, n: int, margin: int = 1) -> bool:
        return self.n_min + margin <= n <= self.n_max - margin

    def indices(self) -> range:
        return range(self.n_min, self.n_max + 1)

    def to_json(self) -> dict:
        return {"n_min": self.n_min, "n_max": self.n_max}

    @classmethod
    def from_json(cls, data: Mapping) -> "Window":
        return cls(int(data["n_min"]), int(data["n_max"]))


def basis_indices(family: AtomFamily, window: Window,
                  margin: int = 0) -> list[LatticeIndex]:
    """Canonical enumeration: plus sign first, then atom index, then n.
    A positive margin keeps only indices that far from both edges."""
    out = []
    for sign in (+1, -1):
        for j in range(len(family.atoms(sign))):
            for n in range(window.n_min + margin, window.n_max - margin + 1):
                out.append((sign, j, n))
    return out


class LatticeVector:
    """Finitely supported vector in the orthonormal lattice basis.

    ``entries`` maps (sign, j, n) to the basis coefficient.  ``lost`` records
    that some upstream operation truncated support at the window edge.
    """

    __slots__ = ("family", "window", "entries", "lost")

    def __init__(self, family: AtomFamily, window: Window,
                 entries: Mapping[LatticeIndex, complex] | None = None,
                 lost: bool = False):
        self.family = family
        self.window = window
        self.lost = bool(lost)
        clean: dict[LatticeIndex, complex] = {}
        if entries:
            for (sign, j, n), v in entries.items():
                v = complex(v)
                if v == 0:
                    continue
                if sign not in (+1, -1):
                    raise ValueError(f"bad sign {sign!r}")
                if not 0 <= j < len(family.atoms(sign)):
                    raise ValueError(f"atom index {j} out of range")
                if not window.contains(n):
                    raise ValueError(f"index n={n} outside window {window}")
                clean[(sign, j, n)] = v
        self.entries = clean

    @classmethod
    def basis_vector(cls, family: AtomFamily, window: Window, sign: int,
                     j: int, n: int) -> "LatticeVector":
        return cls(family, window, {(sign, j, n): 1.0 + 0j})

    @classmethod
    def zero(cls, family: AtomFamily, window: Window) -> "LatticeVector":
        return cls(family, window)

    def copy_with(self, entries, lost=None) -> "LatticeVector":
        return LatticeVector(self.family, self.window, entries,
                             self.lost if lost is None else lost)

    def __add__(self, other: "LatticeVector") -> "LatticeVector":
        self._check_compatible(other)
        entries = dict(self.entries)
        for idx, v in other.entries.items():
            entries[idx] = entries.get(idx, 0j) + v
        return LatticeVector(self.family, self.window, entries,
                             self.lost or other.lost)

    def __sub__(self, other: "LatticeVector") -> "LatticeVector":
        return self + other.scale(-1.0)

    def scale(self, c: complex) -> "LatticeVector":
        return self.copy_with({idx: c * v for idx, v in self.entries.items()})

    def coefficient(self, sign: int, j: int, n: int) -> complex:
        return self.entries.get((sign, j, n), 0j)

    def point_value(self, sign: int, j: int, n: int) -> complex:
        """Value of the modeled function at the lattice point (sign,j,n):
        coefficient divided by the square root of the point mass."""
        c = self.entries.get((sign, j, n), 0j)
        if c == 0:
            return 0j
        return c / math.sqrt(self.family.weight(sign, j, n))

    def support(self) -> list[LatticeIndex]:
        return sorted(self.entries, key=lambda t: (-t[0], t[1], t[2]))

    def norm(self) -> float:
        return math.sqrt(sum(abs(v) ** 2 for v in self.entries.values()))

    def _check_compatible(self, other: "LatticeVector") -> None:
        if self.family != other.family:
            raise ValueError("vectors belong to different atom families")
        if self.window != other.window:
            raise ValueError("vectors live on different windows")

    def __repr__(self) -> str:
        return f"LatticeVector({len(self.entries)} entries, lost={self.lost})"


def inner(f: LatticeVector, g: LatticeVector) -> complex:
    """Hilbert space inner product, linear in the first argument."""
    f._check_compatible(g)
    total = 0j
    for idx, v in f.entries.items():
        w = g.entries.get(idx)
        if w is not None:
            total += v * w.conjugate()
    return total


def inner_raw(f: LatticeVector, g: LatticeVector) -> complex:
    """Direct weighted summation over raw point values; the oracle form of
    ``inner``: sum of f(t) conj(g(t)) mu({t})."""
    f._check_compatible(g)
    total = 0j
    for (sign, j, n) in set(f.entries) | set(g.entries):
        mu = f.family.weight(sign, j, n)
        total += f.point_value(sign, j, n) * g.point_value(sign, j, n).conjugate() * mu
    return total


def apply_generator(gen: str, v: LatticeVector) -> LatticeVector:
    """Apply one generator.  Shift images falling outside the window are
    dropped and flagged on the result."""
    family, window = v.family, v.window
    q = family.q
    sq = family.sqrt_q
    out: dict[LatticeIndex, complex] = {}
    lost = v.lost

    def put(idx: LatticeIndex, val: complex) -> None:
        out[idx] = out.get(idx, 0j) + val

    for (sign, j, n), c in v.entries.items():
        if gen == "U":
            if window.contains(n - 1):
                put((sign, j, n - 1), c)
            else:
                lost = True
        elif gen == "U*":
            if window.contains(n + 1):
                put((sign, j, n + 1), c)
            else:
                lost = True
        elif gen == "P":
            put((sign, j, n), family.position(sign, j, n) * c)
        elif gen == "X":
            t = family.position(sign, j, n)
            coeff = 1j / t * c
            if window.contains(n + 1):
                put((sign, j, n + 1), coeff / sq)
            else:
                lost = True
            if window.contains(n - 1):
                put((sign, j, n - 1), -coeff * sq)
            else:
                lost = True
        else:
            raise ValueError(f"unknown generator {gen!r}; use one of {GENERATOR_NAMES}")
    return LatticeVector(family, window, out, lost)


def matrix_of(gen: str, family: AtomFamily, window: Window) -> np.ndarray:
    """Dense matrix of a generator over basis_indices(family, window)."""
    idx = basis_indices(family, window)
    pos = {t: k for k, t in enumerate(idx)}
    mat = np.zeros((len(idx), len(idx)), dtype=complex)
    for col, t in enumerate(idx):
        image = apply_generator(
            gen, LatticeVector.basis_vector(family, window, *t))
        for t2, val in image.entries.items():
            mat[pos[t2], col] = val
    return mat


@dataclass
class RelationCheck:
    name: str
    max_residual: float
    vectors_checked: int
    tol: float

    @property
    def passed(self) -> bool:
        return self.vectors_checked > 0 and self.max_residual < self.tol

    def to_json(self) -> dict:
        return {"name": self.name, "max_residual": self.max_residual,
                "vectors_checked": self.vectors_checked, "tol": self.tol,
                "passed": self.passed}


@dataclass
class LatticeRelationReport:
    checks: list[RelationCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_residual(self) -> float:
        return max(c.max_residual for c in self.checks)

    def to_json(self) -> dict:
        return {"passed": self.passed, "checks": [c.to_json() for c in self.checks]}


def _relative_residual(lhs: LatticeVector, rhs: LatticeVector) -> float:
    diff = lhs - rhs
    scale = max(1.0, lhs.norm(), rhs.norm())
    return diff.norm() / scale


def _compose(gens: Iterable[str], v: LatticeVector) -> LatticeVector:
    for gen in reversed(list(gens)):
        v = apply_generator(gen, v)
    return v


def check_relations_lattice(family: AtomFamily, window: Window,
                            tol: float = 1e-12) -> LatticeRelationReport:
    """Residuals of the defining relations on every basis vector far enough
    from the window edge that no term suffers edge loss.

    Residuals are relative to the vector scale: lattice entries grow like
    q^{-n} across a window, so absolute comparisons would drown in float
    rounding for deep windows.
    """
    if window.length < 4:
        raise ValueError("relation checks need a window of length >= 4")
    q = family.q
    sq = family.sqrt_q

    def scaled(vec: LatticeVector, c: complex) -> LatticeVector:
        return vec.scale(c)

    # each relation: name, lhs builder, rhs builder (on a basis vector)
    relations = [
        ("u p = q p u",
         lambda e: _compose(["U", "P"], e),
         lambda e: _compose(["P", "U"], e).scale(q)),
        ("u x = q^-1 x u",
         lambda e: _compose(["U", "X"], e),
         lambda e: _compose(["X", "U"], e).scale(1.0 / q)),
        ("u u^-1 = 1",
         lambda e: _compose(["U", "U*"], e),
         lambda e: e),
        ("u^-1 u = 1",
         lambda e: _compose(["U*", "U"], e),
         lambda e: e),
        ("p x = i q^1/2 u^-1 - i q^-1/2 u",
         lambda e: _compose(["P", "X"], e),
         lambda e: apply_generator("U*", e).scale(1j * sq)
         + apply_generator("U", e).scale(-1j / sq)),
        ("x p = i q^-1/2 u^-1 - i q^1/2 u",
         lambda e: _compose(["X", "P"], e),
         lambda e: apply_generator("U*", e).scale(1j / sq)
         + apply_generator("U", e).scale(-1j * sq)),
    ]

    checks = []
    for name, lhs_fn, rhs_fn in relations:
        worst = 0.0
        count = 0
        for sign in (+1, -1):
            for j in range(len(family.atoms(sign))):
                for n in window.indices():
                    e = LatticeVector.basis_vector(family, window, sign, j, n)
                    lhs = lhs_fn(e)
                    rhs = rhs_fn(e)
                    if lhs.lost or rhs.lost:
                        continue
                    worst = max(worst, _relative_residual(lhs, rhs))
                    count += 1
        checks.append(RelationCheck(name, worst, count, tol))
    return LatticeRelationReport(checks)
