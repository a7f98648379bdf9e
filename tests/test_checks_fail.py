"""Every check of ``qheis verify`` can fail.

Each of the 13 checks meets one fault that it must report: a broken input
where one exists, otherwise one piece of the code it checks, replaced for
the test by monkeypatch.  A check that nothing can make fail certifies
nothing, and ``test_the_cases_are_the_checks_of_verify`` keeps this table
equal to the checks the three suites run.
"""
import numpy as np
import pytest

from qheis import algebra, classify, extensions, lattice
from qheis.adjoint import TailVector
from qheis.classify import (build_catalog_triple, characterization_report,
                            verify_representation)
from qheis.extensions import BoundaryMap, ExtensionTriple, verify_extension
from qheis.lattice import Atom, AtomFamily, LatticeGrid, Window


def triple():
    """Kind 2: one atom per sign at different positions and weights, and
    two different phases, so V' and W' differ."""
    return build_catalog_triple(2)


def characterization():
    return characterization_report(triple())


def extension():
    return verify_extension(triple())


def representation():
    return verify_representation(triple().family, n_samples=2, seed=1)


def scaled_map(v=1.0, w=1.0):
    """The suite on kind 2 with V' and W' scaled: no weight isometries."""
    def run(monkeypatch):
        t = triple()
        bmap = BoundaryMap(t.family, v * t.bmap.vprime, w * t.bmap.wprime,
                           validate=False)
        return verify_extension(ExtensionTriple(t.family, t.window, bmap))
    return run


def zero_position(monkeypatch):
    family = AtomFamily(0.5, [Atom(0.0)], [Atom(0.6)], validate=False)
    bmap = BoundaryMap(family, np.eye(1), np.eye(1), validate=False)
    return characterization_report(ExtensionTriple(family, Window(-4, 5),
                                                   bmap))


def changed_grids(module, change, suite):
    """``suite`` with ``module`` building fresh grids that ``change``
    alters in place."""
    def run(monkeypatch):
        def build(family, window):
            grid = LatticeGrid(family, window)
            change(grid)
            return grid
        monkeypatch.setattr(module, "lattice_grid", build)
        return suite()
    return run


def replaced(module, name, wrap, suite):
    """``suite`` with ``module.name`` replaced by ``wrap`` of the original."""
    def run(monkeypatch):
        monkeypatch.setattr(module, name, wrap(getattr(module, name)))
        return suite()
    return run


def stretched_shift(act):
    def stretched(gen, grid, coeffs):
        image, lost = act(gen, grid, coeffs)
        return (1.01 * image if gen == "U" else image), lost
    return stretched


def drifting_shift(apply_u):
    """The shift, with plus atom 0's even tail amplitude 1% too large."""
    def drifting(f):
        coeffs, even, odd = apply_u(f).arrays()
        even = even.copy()
        even[..., 0] *= 1.01
        return TailVector.from_arrays(f.family, f.window, coeffs, even, odd)
    return drifting


def commuted(multiply):
    return lambda a, b: multiply(b, a)


CASES = {
    "position operator has trivial kernel": zero_position,
    "defining relations hold on the lattice": changed_grids(
        lattice, lambda g: setattr(g, "x_up", 1.01 * g.x_up),
        characterization),
    "point masses scale by q per layer": changed_grids(
        classify, lambda g: setattr(
            g, "mass", g.mass * np.linspace(1.0, 1.01, g.shape[1])),
        characterization),
    "difference operator is symmetric on the interior": changed_grids(
        classify, lambda g: setattr(g, "x_down", 1.01 * g.x_down),
        characterization),
    "boundary matrices are weight isometries": scaled_map(w=1.3),
    "boundary pairing vanishes on conforming pairs": scaled_map(v=1.2),
    "pairing formula matches direct adjoint evaluation": replaced(
        extensions, "boundary_form",
        lambda form: lambda f, g: 1.01 * form(f, g), extension),
    "shift keeps conforming vectors conforming": replaced(
        extensions, "apply_U", drifting_shift, extension),
    # tail vectors read their masses off the lattice module's grids
    "tail norms match their geometric sums": changed_grids(
        lattice, lambda g: setattr(g, "weights", 1.01 * g.weights),
        extension),
    "assembled model is hermitian": scaled_map(v=1.2),
    "generator products follow the defining relations": replaced(
        algebra, "multiply", commuted, representation),
    "element products compose operatorially": replaced(
        algebra, "multiply", commuted, representation),
    "the involution matches the operator adjoint": replaced(
        classify, "star", lambda star: lambda a: a, representation),
}


def test_the_cases_are_the_checks_of_verify():
    """The three suites of ``qheis verify`` run 13 checks, each name once,
    and with nothing broken they pass."""
    reports = [suite() for suite in (characterization, extension,
                                         representation)]
    assert all(report.passed for report in reports)
    names = [c.name for report in reports for c in report.checks]
    assert len(names) == 13
    assert sorted(names) == sorted(CASES)


@pytest.mark.parametrize("name", CASES)
def test_each_check_fails_on_its_fault(name, monkeypatch):
    report = CASES[name](monkeypatch)
    assert name in {c.name for c in report.checks if not c.passed}, (
        report.to_json())


def test_a_stretched_shift_breaks_the_lattice_relations(monkeypatch):
    """No check of its own tests that U is isometric: U stretched by 1.01
    breaks u u^-1 = 1, so the relations check fails."""
    monkeypatch.setattr(lattice, "act", stretched_shift(lattice.act))
    failed = {c.name for c in characterization().checks if not c.passed}
    assert "defining relations hold on the lattice" in failed
    family, window = triple().family, triple().window
    relations = lattice.check_relations_lattice(family, window)
    assert "u u^-1 = 1" in {c.name for c in relations.checks if not c.passed}
