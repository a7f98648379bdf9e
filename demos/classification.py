"""
Irreducibility and unitary equivalence
======================================

Whether two restriction models are the same representation in disguise
reduces to a finite linear problem: the intertwiners between their
boundary data. A one-dimensional self-intertwiner space means
irreducible; a unitary intertwiner between two models means equivalent.
"""

import numpy as np

from qheis import (
    AtomFamily,
    BoundaryMap,
    CommutantProblem,
    ExtensionTriple,
    build_catalog_triple,
    commutant_dim,
    irreducibility_report,
    single_atom_triple,
    unitary_equivalent,
)

# The catalog covers the interesting regimes.
for kind in (1, 2, 3, 4, 5):
    triple = build_catalog_triple(kind)
    problem = CommutantProblem.from_triple(triple)
    report = irreducibility_report(problem)
    print(f"kind {kind}: dim {report.dim}, commutant {report.commutant_dim}, "
          f"{'irreducible' if report.irreducible else 'reducible'}")

# Repeating an atom position with multiplicity m inflates the commutant
# to the full m x m matrix algebra.
print("repeated position, multiplicity 3 ->",
      commutant_dim(CommutantProblem.from_triple(
          build_catalog_triple(4, {"multiplicity": 3}))))

# For one atom per sign, only the phase difference matters.
a = single_atom_triple(phases=(0.3, 0.7))
b = single_atom_triple(phases=(1.0, 1.4))
c = single_atom_triple(phases=(0.0, 0.9))
pa, pb, pc = (CommutantProblem.from_triple(t) for t in (a, b, c))
print("same phase difference:     ", unitary_equivalent(pa, pb).verdict)
print("different phase difference:", unitary_equivalent(pa, pc).verdict)

# Relabeling atoms is invisible up to equivalence, and the witness the
# solver returns is exactly the permutation that undoes the relabeling.
triple = build_catalog_triple(3)
perm = [2, 0, 1]
pi = np.eye(3)[perm]
family = triple.family
shuffled = AtomFamily(family.q, [family.plus[k] for k in perm], list(family.minus))
bmap = BoundaryMap(shuffled, pi @ triple.bmap.vprime, pi @ triple.bmap.wprime)
other = ExtensionTriple(shuffled, triple.window, bmap)
report = unitary_equivalent(CommutantProblem.from_triple(triple),
                            CommutantProblem.from_triple(other))
print("shuffled atoms:", report.verdict,
      " witness residual:", f"{report.residual:.2e}")
# witnesses come with a canonical phase: the largest entry is real, positive
print("recovered permutation:\n", np.round(report.witness_plus.real))

# When certification fails for reducible data, the solver says so
# instead of guessing.
base = build_catalog_triple(4)
flipped = ExtensionTriple(
    base.family, base.window,
    BoundaryMap(base.family, np.diag([1.0, -1.0]), np.eye(2)))
report = unitary_equivalent(CommutantProblem.from_triple(base),
                            CommutantProblem.from_triple(flipped))
print("reducible pair without a unitary witness:", report.verdict,
      "-", report.reason)
