"""
Self-adjoint restrictions and their spectra
===========================================

A boundary map ties the minus-side tail amplitudes to the plus side and
carves a restriction domain out of the adjoint's domain. On that domain
the boundary pairing vanishes, so the compressed model is Hermitian and
has a real spectrum worth computing.
"""

import numpy as np

from qheis import (
    Atom,
    AtomFamily,
    ExtensionTriple,
    Window,
    assemble,
    boundary_form,
    make_boundary_map,
    random_domain_vector,
    spectrum,
    verify_extension,
)

# One atom per sign: boundary conditions are a pair of phases.
family = AtomFamily(0.5, plus=[Atom(0.7)], minus=[Atom(0.6, 2.0)])
bmap = make_boundary_map(family, phases=(0.9, -0.4))
triple = ExtensionTriple(family, Window(-6, 8), bmap)
print("triple:", triple)

# Vectors in the domain pair to zero; the full check battery covers
# isometry, covariance, tail norms, and Hermiticity of the model, and it
# checks the pairing on every pair of a basis of the conforming tails.
rng = np.random.default_rng(0)
f = random_domain_vector(triple, rng)
g = random_domain_vector(triple, rng)
print("pairing on two domain vectors:", abs(boundary_form(f, g)))

report = verify_extension(triple)
for check in report.checks:
    flag = "ok " if check.passed else "BAD"
    print(f"  [{flag}] {check.name}: {check.value:.2e}")

# The assembled model compresses the restriction onto sites plus two
# conforming tail remainders, all inside the operator domain.
model = assemble(triple)
print("model dimension:", model.dim,
      " hermiticity:", f"{model.hermiticity_residual():.2e}")

eigs = np.sort(spectrum(triple))
print("five eigenvalues nearest zero:",
      np.round(eigs[np.argsort(np.abs(eigs))[:5]], 6))

# Widening the window keeps adding large-magnitude eigenvalues at the
# small-point end, but the bulk of the spectrum near zero settles: with
# deep windows, mid-spectrum eigenvalues barely move under growth.
deep = np.sort(spectrum(ExtensionTriple(family, Window(-18, 20), bmap)))
deeper = np.sort(spectrum(ExtensionTriple(family, Window(-22, 24), bmap)))
third = len(deep) // 3
drift = max(float(np.min(np.abs(deeper - ev)))
            for ev in deep[third:2 * third])
print("mid-spectrum drift under window growth:", f"{drift:.2e}")
