"""Finitely atomic q-lattice model of the algebra's Hilbert space picture.

An atom family fixes 0 < q < 1 and, for each sign, a list of atoms
(position, weight) with position in [q, 1).  The measure extends each atom
across the geometric lattice {position * q^n : n integer} with point masses
weight * q^n, and the Hilbert space carries the orthonormal basis e_{s,j,n}.

The generators act in that basis as

    U e_n = e_{n-1}          U* e_n = e_{n+1}
    P e_n = t_n e_n          with t_n = sign * a_j * q^n
    X e_n = (i / t_n) (q^{-1/2} e_{n+1} - q^{1/2} e_{n-1})

Vectors live on a finite index window, as one complex array of shape
(atoms, layers): rows in ``basis_indices`` order (plus atoms, then minus
atoms), columns over the layers n_min ... n_max.  ``LatticeGrid`` holds the
arrays a (family, window) pair shares: positions, masses and the two X
coefficients per site.  ``act`` applies a generator to a whole stack of
such arrays (shape (..., atoms, layers)) with slice writes and a diagonal
scale, so the verification suites act on all their vectors at once.
The relation checks act on ``layer_units``, one member per layer.
Applying a shift at the window edge truncates the image and sets a lost
flag on the result; the caller decides what edge loss means for its
computation.  ``check_window`` bounds a window at MAX_SITES sites, and
``relative_residual`` compares arrays whose entries may grow like q^-n.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

GENERATOR_NAMES = ("U", "U*", "P", "X")

# sites per window: a dense complex matrix over them takes 64 MiB
MAX_SITES = 2048

# index triple: (sign, j, n) with sign in {+1, -1}
LatticeIndex = tuple[int, int, int]


def sign_label(sign: int) -> str:
    return "+" if sign > 0 else "-"


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

    def is_interior(self, n: int) -> bool:
        return self.n_min < n < self.n_max

    def indices(self) -> range:
        return range(self.n_min, self.n_max + 1)

    def to_json(self) -> dict:
        return {"n_min": self.n_min, "n_max": self.n_max}

    @classmethod
    def from_json(cls, data: Mapping) -> "Window":
        """Bounds must be integers: a float or a bool is refused, not cut."""
        for key in ("n_min", "n_max"):
            if isinstance(data[key], bool) or not isinstance(data[key], int):
                raise TypeError(f"{key}: expected an integer, got {data[key]!r}")
        return cls(data["n_min"], data["n_max"])


def basis_indices(family: AtomFamily, window: Window,
                  margin: int = 0) -> list[LatticeIndex]:
    """Canonical enumeration: plus sign first, then atom index, then n.
    A positive margin keeps only indices that far from both edges."""
    return [(sign, j, n) for sign in (+1, -1)
            for j in range(len(family.atoms(sign)))
            for n in range(window.n_min + margin, window.n_max - margin + 1)]


def _power(q: float, n: int) -> float:
    try:
        return q ** n
    except OverflowError:
        return math.inf


class LatticeGrid:
    """Arrays over (atoms in ``basis_indices`` order) x (window layers):
    positions t_n, masses w q^n and their roots, the X coefficients
    ``x_up`` = (i / t_n) q^{-1/2} onto layer n + 1 and ``x_down`` =
    -(i / t_n) q^{1/2} onto layer n - 1, and the root masses of the even
    layers n >= 0 and odd layers n >= 1 that tails occupy."""

    __slots__ = ("family", "window", "keys", "weights", "position", "mass",
                 "root_mass", "x_up", "x_down", "tail_even", "tail_odd")

    def __init__(self, family: AtomFamily, window: Window):
        self.family, self.window = family, window
        atoms = [(sign, j, atom) for sign in (+1, -1)
                 for j, atom in enumerate(family.atoms(sign))]
        self.keys = [(sign, j) for sign, j, _ in atoms]
        self.weights = np.array([atom.weight for _, _, atom in atoms])
        signed = np.array([sign * atom.position for sign, _, atom in atoms])
        powers = np.array([_power(family.q, n) for n in window.indices()])
        layers = np.arange(window.n_min, window.n_max + 1)
        with np.errstate(all="ignore"):
            self.position = signed[:, None] * powers
            self.mass = self.weights[:, None] * powers
            self.root_mass = np.sqrt(self.mass)
            inverse = 1.0 / self.position
            self.x_up, self.x_down = (np.zeros(self.shape, dtype=complex)
                                      for _ in range(2))
            self.x_up.imag = inverse / family.sqrt_q
            self.x_down.imag = -(inverse * family.sqrt_q)
        self.tail_even = np.where((layers >= 0) & (layers % 2 == 0),
                                  self.root_mass, 0.0)
        self.tail_odd = np.where((layers >= 1) & (layers % 2 == 1),
                                 self.root_mass, 0.0)
        for name in self.__slots__[3:]:  # shared through lattice_grid
            getattr(self, name).flags.writeable = False

    @property
    def shape(self) -> tuple[int, int]:
        return self.position.shape

    def column(self, n: int) -> int:
        return n - self.window.n_min


@functools.lru_cache(maxsize=8)
def lattice_grid(family: AtomFamily, window: Window) -> LatticeGrid:
    return LatticeGrid(family, window)


def check_window(family: AtomFamily, window: Window) -> None:
    """Raise ValueError when the window has more than MAX_SITES sites, or
    when q^n leaves the float range on it: a position, mass or X
    coefficient at either end is not finite and nonzero (each is monotone
    in n, so the two end layers decide)."""
    atoms, layers = len(family.plus) + len(family.minus), window.length + 1
    if atoms * layers > MAX_SITES:
        raise ValueError(f"{atoms} atoms on {layers} layers make "
                         f"{atoms * layers} sites, over MAX_SITES = {MAX_SITES}")
    for ends in (Window(window.n_min, window.n_min + 1),
                 Window(window.n_max - 1, window.n_max)):
        grid = LatticeGrid(family, ends)
        values = np.concatenate([grid.position, grid.mass, grid.x_up.imag,
                                 grid.x_down.imag], axis=None)
        if not np.all(np.isfinite(values) & (values != 0)):
            raise ValueError(
                f"q^n leaves the float range between layers {ends.n_min} "
                f"and {ends.n_max} for q = {family.q}: positions, masses and "
                f"X coefficients must be finite and nonzero")


def act(gen: str, grid: LatticeGrid, coeffs: np.ndarray):
    """(image, lost) of one generator on a stack of coefficient arrays of
    shape (..., atoms, layers); ``lost`` flags, per vector, a nonzero entry
    that a shift pushed past the window."""
    if gen not in GENERATOR_NAMES:
        raise ValueError(
            f"unknown generator {gen!r}; use one of {GENERATOR_NAMES}")
    if gen == "P":
        return coeffs * grid.position, np.zeros(coeffs.shape[:-2], dtype=bool)
    if gen == "X":
        out, edge = x_image(grid, coeffs), coeffs[..., [0, -1]]
    else:
        out = shift(coeffs, 1 if gen == "U" else -1)
        edge = coeffs[..., :1] if gen == "U" else coeffs[..., -1:]
    return out, np.any(edge != 0, axis=(-2, -1))


def x_image(grid: LatticeGrid, coeffs: np.ndarray) -> np.ndarray:
    """X on a stack of coefficient arrays, dropping what leaves the window."""
    out = np.zeros(coeffs.shape, dtype=complex)
    out[..., 1:] = coeffs[..., :-1] * grid.x_up[:, :-1]
    out[..., :-1] += coeffs[..., 1:] * grid.x_down[:, 1:]
    return out


def shift(coeffs: np.ndarray, m: int) -> np.ndarray:
    """U^m on a stack of coefficient arrays (support moves down by m
    layers), dropping what leaves the window."""
    out = np.zeros(coeffs.shape, dtype=complex)
    size = coeffs.shape[-1]
    k = min(abs(m), size)
    if m > 0:
        out[..., :size - k] = coeffs[..., k:]
    else:
        out[..., k:] = coeffs[..., :size - k]
    return out


class LatticeVector:
    """Vector in the orthonormal lattice basis of a window.

    ``coeffs`` is its (atoms, layers) array in the ``LatticeGrid`` layout;
    ``entries`` is a read-only view of the nonzero entries keyed by
    (sign, j, n).  ``lost`` records that some upstream operation truncated
    support at the window edge.
    """

    __slots__ = ("family", "window", "coeffs", "lost")

    def __init__(self, family: AtomFamily, window: Window,
                 entries: Mapping[LatticeIndex, complex] | None = None,
                 lost: bool = False):
        grid = lattice_grid(family, window)
        coeffs = np.zeros(grid.shape, dtype=complex)
        for (sign, j, n), v in (entries or {}).items():
            v = complex(v)
            if v == 0:
                continue
            if sign not in (+1, -1):
                raise ValueError(f"bad sign {sign!r}")
            if not 0 <= j < len(family.atoms(sign)):
                raise ValueError(f"atom index {j} out of range")
            if not window.contains(n):
                raise ValueError(f"index n={n} outside window {window}")
            row = j if sign > 0 else len(family.plus) + j
            coeffs[row, grid.column(n)] = v
        self.family, self.window, self.coeffs, self.lost = (
            family, window, coeffs, bool(lost))

    @classmethod
    def from_array(cls, family: AtomFamily, window: Window,
                   coeffs: np.ndarray, lost=False) -> "LatticeVector":
        """Wrap a coefficient array without copying; leading stack axes,
        with one lost flag each, make a stack of vectors."""
        v = cls.__new__(cls)
        v.family, v.window, v.coeffs, v.lost = family, window, coeffs, lost
        return v

    @classmethod
    def basis_vector(cls, family: AtomFamily, window: Window, sign: int,
                     j: int, n: int) -> "LatticeVector":
        return cls(family, window, {(sign, j, n): 1.0 + 0j})

    @property
    def grid(self) -> LatticeGrid:
        return lattice_grid(self.family, self.window)

    @property
    def entries(self) -> Mapping[LatticeIndex, complex]:
        keys, n_min = self.grid.keys, self.window.n_min
        rows, cols = np.nonzero(self.coeffs)
        return MappingProxyType({
            keys[r] + (n_min + c,): complex(self.coeffs[r, c])
            for r, c in zip(rows.tolist(), cols.tolist())})

    def __add__(self, other: "LatticeVector") -> "LatticeVector":
        self._check_compatible(other)
        return LatticeVector.from_array(self.family, self.window,
                                        self.coeffs + other.coeffs,
                                        self.lost | other.lost)

    def __sub__(self, other: "LatticeVector") -> "LatticeVector":
        return self + other.scale(-1.0)

    def scale(self, c: complex) -> "LatticeVector":
        return LatticeVector.from_array(self.family, self.window,
                                        c * self.coeffs, self.lost)

    def coefficient(self, sign: int, j: int, n: int) -> complex:
        return self.entries.get((sign, j, n), 0j)

    def point_value(self, sign: int, j: int, n: int) -> complex:
        """Value of the modeled function at the lattice point (sign,j,n):
        coefficient divided by the square root of the point mass."""
        c = self.coefficient(sign, j, n)
        if c == 0:
            return 0j
        return c / math.sqrt(self.family.weight(sign, j, n))

    def norm(self) -> float:
        return np.linalg.norm(self.coeffs, axis=(-2, -1))

    def _check_compatible(self, other: "LatticeVector") -> None:
        if self.family != other.family:
            raise ValueError("vectors belong to different atom families")
        if self.window != other.window:
            raise ValueError("vectors live on different windows")

    def __repr__(self) -> str:
        return (f"LatticeVector({np.count_nonzero(self.coeffs)} entries, "
                f"lost={self.lost})")


def inner(f: LatticeVector, g: LatticeVector) -> complex:
    """Hilbert space inner product, linear in the first argument."""
    f._check_compatible(g)
    return np.einsum("...rl,...rl->...", f.coeffs, g.coeffs.conj())


def apply_generator(gen: str, v: LatticeVector) -> LatticeVector:
    """Apply one generator.  Shift images falling outside the window are
    dropped and flagged on the result."""
    coeffs, lost = act(gen, v.grid, v.coeffs)
    return LatticeVector.from_array(v.family, v.window, coeffs, v.lost | lost)


def layer_units(grid: LatticeGrid) -> np.ndarray:
    """Read-only stack whose member c is 1 at layer c of every atom: as
    generators never mix atoms, row r of its image is the image of (r, c)."""
    atoms, layers = grid.shape
    return np.broadcast_to(np.eye(layers, dtype=complex)[:, None, :],
                           (layers, atoms, layers))


def matrix_of(gen: str, family: AtomFamily, window: Window) -> np.ndarray:
    """Dense matrix of a generator over basis_indices(family, window)."""
    grid = lattice_grid(family, window)
    dim = grid.position.size
    images, _ = act(gen, grid, np.eye(dim, dtype=complex).reshape(
        (dim,) + grid.shape))
    return images.reshape(dim, -1).T


@dataclass
class VerificationCheck:
    """One named check: passes when value stays on the required side of the
    bound ("max": value <= bound, "min": value >= bound)."""

    name: str
    value: float
    bound: float
    kind: str = "max"
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.value <= self.bound if self.kind == "max" else self.value >= self.bound

    def to_json(self) -> dict:
        out = {"name": self.name, "value": self.value, "bound": self.bound,
               "kind": self.kind, "passed": self.passed}
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class CheckReport:
    """Named checks that pass only together."""

    checks: list[VerificationCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {"passed": self.passed,
                "checks": [c.to_json() for c in self.checks]}


def relative_residual(lhs: np.ndarray, rhs: np.ndarray, axis=None):
    """|lhs - rhs| / max(1, |lhs|, |rhs|) in Frobenius norms: of the whole
    arrays, or per member of two stacks over ``axis``, such as (-2, -1).

    Where a square overflows, as entries growing like q^-n do on tall
    windows, both sides are first divided by the power of two nearest
    their largest real or imaginary part: exact, so the quotient is the
    same, and reduced as views, so no array the size of a side is added."""
    try:
        with np.errstate(over="raise"):
            size = np.maximum(np.linalg.norm(lhs, axis=axis),
                              np.linalg.norm(rhs, axis=axis))
            return np.linalg.norm(lhs - rhs, axis=axis) / np.maximum(1.0, size)
    except FloatingPointError:
        pass
    big = np.maximum.reduce([
        np.maximum(np.max(part, axis=axis, initial=0.0),
                   -np.min(part, axis=axis, initial=0.0))
        for side in (lhs, rhs) for part in (side.real, side.imag)])
    unit = np.ldexp(1.0, -np.frexp(big)[1])
    scale = unit if axis is None else np.expand_dims(unit, axis)
    size = np.maximum(np.linalg.norm(lhs * scale, axis=axis),
                      np.linalg.norm(rhs * scale, axis=axis))
    diff = lhs - rhs
    diff *= scale
    return np.linalg.norm(diff, axis=axis) / np.maximum(unit, size)


def check_relations_lattice(family: AtomFamily, window: Window,
                            tol: float = 1e-12) -> CheckReport:
    """Residuals of the defining relations on every basis vector far enough
    from the window edge that no term suffers edge loss: one check per
    relation, whose value is its largest residual.

    Both sides of a relation act on ``layer_units``, one residual per row
    of an image, that is per basis vector; a layer counts when neither side
    lost support on it.  Residuals are relative to the vector scale: lattice
    entries grow like q^{-n} across a window, so absolute comparisons would
    drown in float rounding for deep windows.
    """
    if window.length < 4:
        raise ValueError("relation checks need a window of length >= 4")
    q, sq = family.q, family.sqrt_q
    grid = lattice_grid(family, window)
    units = layer_units(grid)
    # name, left-hand word, right-hand sum of c * word (words act right
    # to left)
    relations = [
        ("u p = q p u", "UP", [(q, "PU")]),
        ("u x = q^-1 x u", "UX", [(1.0 / q, "XU")]),
        ("u u^-1 = 1", ("U", "U*"), [(1.0, "")]),
        ("u^-1 u = 1", ("U*", "U"), [(1.0, "")]),
        ("p x = i q^1/2 u^-1 - i q^-1/2 u", "PX",
         [(1j * sq, ("U*",)), (-1j / sq, "U")]),
        ("x p = i q^-1/2 u^-1 - i q^1/2 u", "XP",
         [(1j / sq, ("U*",)), (-1j * sq, "U")]),
    ]
    checks = []
    for name, lhs, rhs in relations:
        lost = np.zeros(len(units), dtype=bool)
        sides = []
        for terms in ([(1.0, lhs)], rhs):
            total = 0
            for c, word in terms:
                vecs = units
                for gen in reversed(word):
                    vecs, step = act(gen, grid, vecs)
                    lost |= step
                total = total + c * vecs
            sides.append(total)
        residuals = relative_residual(*sides, axis=-1)[~lost]
        checks.append(VerificationCheck(
            name, float(np.max(residuals, initial=0.0)), tol,
            detail=f"{residuals.size} basis vectors"))
    return CheckReport(checks)
