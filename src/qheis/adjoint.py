"""Adjoint domain of the lattice difference operator and its boundary form.

The difference operator X is symmetric on finitely supported vectors but not
self-adjoint: its adjoint X* acts by the same pointwise formula

    (X* f)(t_n) = (i / t_n) (f(t_{n-1}) - f(t_{n+1}))

on a strictly larger domain.  The excess is carried by vectors whose point
values become 2-periodic toward the accumulation end of the lattice (large
n, points near zero): constant value xi on even layers n >= 0 and constant
value zeta on odd layers n >= 1, per half-axis atom.  Such a tail is square
summable because the masses decay geometrically, and the difference formula
telescopes on it, so X* maps it back to a finitely supported vector.

``TailVector`` represents an adjoint-domain vector exactly as a finitely
supported correction plus one even and one odd tail amplitude per atom.  The
boundary form

    T(f, g) = <X* f, g> - <f, X* g>

measures the failure of symmetry; it depends only on the tail amplitudes and
has a closed form in the boundary metric w_j / a_j of atom weights over
positions.  Both the direct and the closed-form evaluation are provided so
each can check the other.  The per-sign boundary data itself (positions,
weights, boundary matrices) is one record, ``qheis.extensions.BoundaryMap``.

A TailVector holds its finite part as a ``LatticeVector`` coefficient array
and its amplitudes as two flat arrays over the atoms in ``basis_indices``
order.  The arrays may carry leading stack axes: such a TailVector is a
stack of vectors, and the inner product, the adjoint, the shift and the
boundary form act on every member at once (two stacks pair entrywise,
with numpy broadcasting, so ``f[:, None]`` against ``g[None]`` gives every
pair).  ``verify_extension`` checks the boundary form this way on a
spanning set of the conforming tails.
"""
from __future__ import annotations

import numpy as np

from .lattice import (
    AtomFamily,
    LatticeGrid,
    LatticeVector,
    Window,
    act,
    sign_label,
)

# the adjoint action deposits tail contributions at layers -1 and 0, so any
# window carrying a TailVector must contain both
MIN_TAIL_WINDOW = Window(-1, 0)


def _tail_array(family: AtomFamily, source) -> np.ndarray:
    """Flat amplitudes (plus atoms, then minus atoms) from a mapping sign ->
    per-atom amplitudes; a missing sign is zero."""
    parts = []
    for sign in (+1, -1):
        dim = len(family.atoms(sign))
        given = (source or {}).get(sign)
        part = np.asarray(np.zeros(dim) if given is None else given, complex)
        if part.shape != (dim,):
            raise ValueError(
                f"tail amplitudes for sign {sign_label(sign)} must have "
                f"length {dim}, got shape {part.shape}")
        parts.append(part)
    return np.concatenate(parts)


class TailVector:
    """Finite correction plus 2-periodic point-value tails at large n.

    ``even[sign][j]`` is the point value on even layers n >= 0 of atom
    (sign, j); ``odd[sign][j]`` the value on odd layers n >= 1.  The finite
    part may overlap the tail region; point values add.  Arrays with leading
    stack axes (see ``from_arrays``) make a stack of vectors; indexing picks
    members, and the point-value methods take single vectors.
    """

    __slots__ = ("finite", "_even", "_odd")

    def __init__(self, finite: LatticeVector, even=None, odd=None):
        window = finite.window
        if window.n_min > MIN_TAIL_WINDOW.n_min or window.n_max < MIN_TAIL_WINDOW.n_max:
            raise ValueError(
                f"tail vectors need a window containing [{MIN_TAIL_WINDOW.n_min}, "
                f"{MIN_TAIL_WINDOW.n_max}], got {window}")
        self.finite = finite
        self._even = _tail_array(finite.family, even)
        self._odd = _tail_array(finite.family, odd)

    @classmethod
    def from_arrays(cls, family: AtomFamily, window: Window, coeffs, even,
                    odd, lost=False) -> "TailVector":
        """Wrap coefficient and flat amplitude arrays, uncopied."""
        f = cls.__new__(cls)
        f.finite = LatticeVector.from_array(family, window, coeffs, lost)
        f._even, f._odd = even, odd
        return f

    def __getitem__(self, index) -> "TailVector":
        lost = self.finite.lost
        return TailVector.from_arrays(
            self.family, self.window, self.finite.coeffs[index],
            self._even[index], self._odd[index],
            lost[index] if np.ndim(lost) else lost)

    @property
    def family(self) -> AtomFamily:
        return self.finite.family

    @property
    def window(self) -> Window:
        return self.finite.window

    @property
    def grid(self) -> LatticeGrid:
        return self.finite.grid

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(finite coefficients, even amplitudes, odd amplitudes)."""
        return self.finite.coeffs, self._even, self._odd

    def _by_sign(self, flat: np.ndarray) -> dict[int, np.ndarray]:
        n_plus = len(self.family.plus)
        return {+1: flat[..., :n_plus], -1: flat[..., n_plus:]}

    @property
    def even(self) -> dict[int, np.ndarray]:
        return self._by_sign(self._even)

    @property
    def odd(self) -> dict[int, np.ndarray]:
        return self._by_sign(self._odd)

    @classmethod
    def pure_tail(cls, family: AtomFamily, window: Window, even=None,
                  odd=None) -> "TailVector":
        return cls(LatticeVector(family, window), even, odd)

    def tail_point_value(self, sign: int, j: int, n: int) -> complex:
        if n >= 0 and n % 2 == 0:
            return complex(self.even[sign][j])
        if n >= 1:
            return complex(self.odd[sign][j])
        return 0j

    def point_value(self, sign: int, j: int, n: int) -> complex:
        return (self.finite.point_value(sign, j, n)
                + self.tail_point_value(sign, j, n))

    def add(self, other: "TailVector") -> "TailVector":
        self._check_compatible(other)
        return TailVector.from_arrays(
            self.family, self.window, self.finite.coeffs + other.finite.coeffs,
            self._even + other._even, self._odd + other._odd,
            self.finite.lost | other.finite.lost)

    def scale(self, c) -> "TailVector":
        """c times the vector; an array c scales the members of a stack."""
        c = np.asarray(c)
        return TailVector.from_arrays(
            self.family, self.window, c[..., None, None] * self.finite.coeffs,
            c[..., None] * self._even, c[..., None] * self._odd,
            self.finite.lost)

    def inner(self, other: "TailVector") -> complex:
        """Hilbert space inner product, linear in self.  Finite parts pair
        entrywise, a finite part pairs with a tail through the root masses
        of the tail layers, and two tails through their geometric masses
        w / (1 - q^2) (even) and q w / (1 - q^2) (odd)."""
        self._check_compatible(other)
        grid, q = self.grid, self.family.q
        (fc, fe, fo), (gc, ge, go) = self.arrays(), other.arrays()

        def finite_vs_tail(c, e, o):
            return np.sum(
                np.einsum("...rl,rl->...r", c, grid.tail_even) * e.conj()
                + np.einsum("...rl,rl->...r", c, grid.tail_odd) * o.conj(),
                axis=-1)

        mass = grid.weights / (1.0 - q * q)
        tails = np.sum(mass * (fe * ge.conj() + q * fo * go.conj()), axis=-1)
        finite = np.einsum("...rl,...rl->...", fc, gc.conj())
        return (finite + finite_vs_tail(fc, ge, go)
                + finite_vs_tail(gc, fe, fo).conj() + tails)

    def norm(self) -> float:
        """Where a square overflows, each member is first divided by the
        power of two nearest its largest entry, as in ``relative_residual``."""
        with np.errstate(over="ignore", invalid="ignore"):
            square = self.inner(self).real
        if np.isfinite(square).all():  # einsum sums overflow silently
            return np.sqrt(np.maximum(0.0, square))
        coeffs, even, odd = self.arrays()
        exp = np.frexp(np.maximum.reduce([
            np.max(np.abs(coeffs), axis=(-2, -1), initial=0.0),
            np.max(np.abs(even), axis=-1, initial=0.0),
            np.max(np.abs(odd), axis=-1, initial=0.0)]))[1]
        unit = self.scale(np.ldexp(1.0, -exp))
        return np.ldexp(np.sqrt(np.maximum(0.0, unit.inner(unit).real)), exp)

    def _check_compatible(self, other: "TailVector") -> None:
        self.finite._check_compatible(other.finite)

    def __repr__(self) -> str:
        ntail = int(np.count_nonzero(self._even) + np.count_nonzero(self._odd))
        return (f"TailVector({np.count_nonzero(self.finite.coeffs)} finite "
                f"entries, {ntail} tail amplitudes)")


def apply_X_star(f: TailVector) -> TailVector:
    """Adjoint difference operator.  The pointwise formula telescopes on the
    periodic tails, leaving two boundary contributions per atom:

        even amplitude xi   ->  point value -i sign q xi / a   at layer -1
        odd amplitude zeta  ->  point value -i sign zeta / a   at layer  0

    so the result is always tail free.  Edge loss of the finite part is
    flagged on the result, as with the plain generator action.
    """
    grid, (coeffs, even, odd) = f.grid, f.arrays()
    out, lost = act("X", grid, coeffs)
    below, top = grid.column(-1), grid.column(0)
    signed = grid.position[:, top]
    out[..., below] += even * (-1j * f.family.q / signed
                               * grid.root_mass[:, below])
    out[..., top] += odd * (-1j / signed * grid.root_mass[:, top])
    return TailVector.from_arrays(f.family, f.window, out, np.zeros_like(even),
                                  np.zeros_like(odd), f.finite.lost | lost)


def apply_U(f: TailVector) -> TailVector:
    """Unitary shift on adjoint-domain vectors.

    Pointwise, U sends value v_{n+1} to sqrt(q) v_{n+1} at layer n, so the
    tails swap parity and scale: (xi, zeta) -> (sqrt(q) zeta, sqrt(q) xi).
    The shifted even tail also covers layer -1, which the new odd tail does
    not, so that single point joins the finite part.
    """
    grid, (coeffs, even, odd) = f.grid, f.arrays()
    sq = f.family.sqrt_q
    out, lost = act("U", grid, coeffs)
    below = grid.column(-1)
    out[..., below] += sq * even * grid.root_mass[:, below]
    return TailVector.from_arrays(f.family, f.window, out, sq * odd,
                                  sq * even, f.finite.lost | lost)


def boundary_form(f: TailVector, g: TailVector) -> complex:
    """Closed form of T(f, g) = <X* f, g> - <f, X* g>.

    Only the tail amplitudes enter: with (xi, zeta) for f and (eta, theta)
    for g,

        T = -i sum_plus  (w_j / a_j) (xi_j conj(theta_j) + zeta_j conj(eta_j))
            +i sum_minus (w_j / a_j) (xi_j conj(theta_j) + zeta_j conj(eta_j)).
    """
    f._check_compatible(g)
    grid = f.grid
    metric = -1j * grid.weights / grid.position[:, grid.column(0)]
    return np.sum(metric * (f._even * g._odd.conj() + f._odd * g._even.conj()),
                  axis=-1)


def boundary_form_direct(f: TailVector, g: TailVector) -> complex:
    """T(f, g) straight from the definition; the oracle for boundary_form.
    Stacks pair by broadcasting, as there.

    Raises when any adjoint image loses support at the window edge, since
    the sesquilinear pairing would then be computed from a mutilated vector.
    """
    xf = apply_X_star(f)
    xg = apply_X_star(g)
    if np.any(xf.finite.lost) or np.any(xg.finite.lost):
        raise ValueError("adjoint image lost support at the window edge")
    return xf.inner(g) - f.inner(xg)
