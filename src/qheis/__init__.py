"""q-deformed Heisenberg algebra toolkit.

Exact normal forms for the algebra on generators p, x, u, u^-1; its
concrete model on geometric lattices with atomic measures; adjoint-domain
bookkeeping with boundary tails; self-adjoint restrictions selected by
boundary maps, with assembly and spectra; commutant-based classification
and unitary equivalence of the restrictions; and the Gaussian wavepacket
model on the line.
"""

import importlib

__version__ = "0.1.0"

# public names by defining module; each module is imported on first use
# (PEP 562), so that the normal-form path never loads numpy
_EXPORTS = {
    "algebra": (
        "AlgebraElement", "GaussianRational", "NormalMonomial", "ScalarQ",
        "inverse_q_iso", "multiply", "random_element", "random_word",
        "reduce", "reduce_all_orders", "star"),
    "lattice": (
        "Atom", "AtomFamily", "LatticeVector", "Window", "apply_generator",
        "check_relations_lattice", "inner", "matrix_of"),
    "adjoint": (
        "TailVector", "apply_U", "apply_U_star", "apply_X_star",
        "boundary_form", "boundary_form_direct", "extract_tails",
        "materialize"),
    "extensions": (
        "AssembledOperator", "BoundaryMap", "CommutantProblem",
        "ExtensionTriple", "assemble", "domain_residual", "in_domain",
        "make_boundary_map", "project_to_domain", "random_boundary_map",
        "random_domain_vector", "spectrum", "verify_extension"),
    "catalog": ("CATALOG_KINDS",),
    "classify": (
        "apply_element", "build_catalog_triple", "characterization_report",
        "commutant_dim", "dft_matrix", "distinct_position_triple",
        "irreducibility_report", "repeated_position_triple",
        "single_atom_triple", "two_block_triple", "unitary_equivalent",
        "verify_representation"),
    "schrodinger": (
        "GaussianElement", "SchrodingerParams", "act_schrodinger",
        "apply_word", "consolidate", "grid_residual", "h_function",
        "inner_gaussian", "inner_quadrature", "norm_residual",
        "verify_schrodinger"),
    "parsing": (
        "ParseError", "parse_expression", "parse_to_element", "to_text"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
