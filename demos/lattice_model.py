"""
The atomic lattice representation
=================================

The generators act on point masses sitting on two geometric ladders
{+a q^n} and {-b q^n}. The shift u walks along a ladder, p multiplies
by the point itself, and x is a symmetric difference mixing the two
neighbouring layers. On a finite index window everything is a concrete
vector or matrix.
"""

import numpy as np

from qheis import (
    Atom,
    AtomFamily,
    LatticeVector,
    Window,
    apply_generator,
    check_relations_lattice,
    inner,
    matrix_of,
)

family = AtomFamily(0.5, plus=[Atom(0.7), Atom(0.9, 2.0)], minus=[Atom(0.6, 0.5)])
window = Window(-6, 8)
print("family:", family.to_json())

# A basis vector is one point mass; generators move or scale it.
e = LatticeVector.basis_vector(family, window, +1, 0, 2)
print("position of (+, 0, 2):", family.position(+1, 0, 2))
pe = apply_generator("P", e)
print("P e = position * e, coefficient:", pe.coefficient(+1, 0, 2))

# X spreads the mass onto the two neighbouring layers.
xe = apply_generator("X", e)
print("X e point values at n=1 and n=3:",
      xe.point_value(+1, 0, 1), xe.point_value(+1, 0, 3))

# The inner product is the weighted sum over all points; U is isometric
# away from the window edge.
f = LatticeVector.basis_vector(family, window, -1, 0, 0)
uf = apply_generator("U", f)
print("norms before and after the shift:", inner(f, f).real, inner(uf, uf).real)

# Every defining relation holds on all interior basis vectors.
report = check_relations_lattice(family, window)
for check in report.checks:
    print(f"  {check.name:35s} residual {check.value:.2e} "
          f"on {check.detail}")
print("all relations pass:", report.passed)

# Matrices over the window basis make the same statement in bulk. The
# difference operator stays Hermitian under the plain window cut; the
# interesting self-adjointness questions only appear in the infinite
# model, where tail amplitudes survive the limit.
X = matrix_of("X", family, window)
print("X matrix shape:", X.shape,
      " hermiticity:", float(np.linalg.norm(X - X.conj().T)))
