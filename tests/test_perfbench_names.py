"""Every package name the benchmark in ``perfbench/`` reaches still exists.

``perfbench/spans.py`` wraps the functions in ``FUNCTIONS`` and the
methods in ``METHODS`` for traced runs, and the workload modules import
names from ``qheis``.  A package change that removes or renames one of
them would break ``perfbench/run.py --trace 1`` or the workload itself;
this test fails first.  The workloads are read as source only (their
imports need the benchmark's own path setup), and ``spans.py`` imports
nothing but the standard library.
"""
from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_and_methods_resolve():
    spans = load_spans()
    for module_name, attr, _, _ in spans.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module_name), attr))
    for module_name, cls_name, attr, _ in spans.METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        # the tracer replaces the method in the class's own namespace
        assert attr in cls.__dict__, (cls_name, attr)


def qheis_references(tree: ast.AST):
    """Dotted names: ``qheis.m.name`` for each ``from qheis.m import name``,
    and each attribute path read off the ``qheis`` package in the source."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
                node.module.split(".")[0] == "qheis"):
            for alias in node.names:
                yield f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Attribute):
            path, value = [node.attr], node.value
            while isinstance(value, ast.Attribute):
                path.append(value.attr)
                value = value.value
            if isinstance(value, ast.Name) and value.id == "qheis":
                yield ".".join(["qheis", *reversed(path)])


def resolve(dotted: str):
    """Import the longest module prefix, then read the rest as attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            target = getattr(target, attr)
        return target


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("*.py")),
                         ids=lambda p: p.name)
def test_workload_references_resolve(path):
    for dotted in qheis_references(ast.parse(path.read_text("utf-8"))):
        try:
            resolve(dotted)
        except AttributeError:
            pytest.fail(f"{path.name} reads {dotted}, which is gone")


def test_workloads_import_from_the_package():
    # the parametrized test above must have something to check
    names = {dotted for path in PERFBENCH.glob("*.py")
             for dotted in qheis_references(ast.parse(path.read_text("utf-8")))}
    assert {"qheis.assemble", "qheis.verify_extension", "qheis.cli.main",
            "qheis.unitary_equivalent", "qheis.parse_to_element"} <= names
