"""Traced runs: timing wrappers around the public functions of each qheis
module, spans kept in memory, and their aggregation into per-layer metrics.

Nothing in the package changes.  ``Tracer.install`` replaces each listed
function in every loaded module namespace that holds it (``from .x import
y`` copies included) and two methods on their classes; ``uninstall`` puts
the originals back.  A span records name, start, end, parent span and
operation id; self time is a span's duration minus the time its direct
children cover, busy time is the time covered by the outermost spans of a
name.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter


def _n_terms(element) -> int:
    return sum(1 for _ in element.items())


def _system_entries(problem) -> int:
    # the intertwining system of a d-atom problem is 4d^2 x 2d^2
    return 8 * problem.dim ** 4


def _equivalence_counts(args, kwargs, report):
    p1, p2 = args[0], args[1]
    entries = _system_entries(p1) if p1.dim == p2.dim else 0
    return {"classify.system_entries": entries,
            "classify.equivalence.decided":
                int(report.verdict in ("equivalent", "inequivalent"))}


# (module, attribute, span name, counter); a counter maps
# (args, kwargs, result) to increments of named counts
FUNCTIONS = [
    ("qheis.parsing", "parse_expression", "parsing.parse", None),
    ("qheis.parsing", "tokenize", "parsing.tokenize",
     lambda a, k, r: {"parsing.tokens": len(r)}),
    ("qheis.parsing", "evaluate", "parsing.evaluate", None),
    ("qheis.algebra", "reduce", "algebra.reduce",
     lambda a, k, r: {"algebra.letters_in": len(a[0]),
                      "algebra.terms_out": _n_terms(r)}),
    ("qheis.algebra", "multiply", "algebra.multiply", None),
    ("qheis.algebra", "star", "algebra.star", None),
    ("qheis.lattice", "apply_generator", "lattice.apply_generator", None),
    ("qheis.lattice", "inner", "lattice.inner", None),
    ("qheis.lattice", "check_relations_lattice", "lattice.check_relations",
     None),
    ("qheis.adjoint", "apply_X_star", "adjoint.apply_X_star", None),
    ("qheis.adjoint", "boundary_form", "adjoint.boundary_form", None),
    ("qheis.extensions", "assemble", "extensions.assemble",
     lambda a, k, r: {"extensions.model_dim": r.dim,
                      "extensions.gram_entries": r.dim ** 2}),
    ("qheis.extensions", "verify_extension", "extensions.verify", None),
    ("qheis.classify", "irreducibility_report", "classify.irreducibility",
     lambda a, k, r: {"classify.system_entries": _system_entries(a[0])}),
    ("qheis.classify", "commutant_dim", "classify.commutant",
     lambda a, k, r: {"classify.system_entries": _system_entries(a[0])}),
    ("qheis.classify", "unitary_equivalent", "classify.equivalence",
     _equivalence_counts),
    ("qheis.classify", "verify_representation", "classify.representation",
     None),
    ("qheis.schrodinger", "verify_schrodinger", "schrodinger.verify", None),
    ("qheis.schrodinger", "inner_quadrature", "schrodinger.quadrature", None),
    ("qheis.schrodinger", "act", "schrodinger.act", None),
    ("qheis.schrodinger", "inner_gaussian", "schrodinger.inner_gaussian",
     None),
] + [
    ("qheis.cli", f"cmd_{name}", "cli.command", None)
    for name in ("normal_form", "verify", "spectrum", "classify", "equiv",
                 "example", "schrodinger")
]

# (module, class, method, span name)
METHODS = [
    ("qheis.adjoint", "TailVector", "inner", "adjoint.inner"),
    ("qheis.extensions", "AssembledOperator", "spectrum",
     "extensions.eigensolve"),
]


class Tracer:
    """In-memory span recorder.  Recording happens only while ``enabled``,
    so output checks between operations leave no spans."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.op_ids: list[int] = []
        self.counts: Counter = Counter()
        self.stack: list[int] = []
        self.op_id = -1
        self.enabled = False
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, counter=None):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.op_ids.append(tracer.op_id)
            tracer.ends.append(0)
            tracer.stack.append(idx)
            tracer.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = clock()
                tracer.stack.pop()
            tracer.counts[name + ".calls"] += 1
            if counter is not None:
                tracer.counts.update(counter(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, span, counter in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self.wrap(span, original, counter)
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if not namespace:
                    continue
                for key, value in list(namespace.items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)
        for module_name, cls_name, attr, span in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self.wrap(span, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def write(self, path) -> None:
        """Spans as tab-separated lines: id, name, start_ns, end_ns, parent,
        op."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tname\tstart_ns\tend_ns\tparent\top\n")
            for idx, name in enumerate(self.names):
                handle.write(f"{idx}\t{name}\t{self.starts[idx]}\t"
                             f"{self.ends[idx]}\t{self.parents[idx]}\t"
                             f"{self.op_ids[idx]}\n")

    def aggregate(self) -> dict[str, float]:
        """calls, busy_ms and self_ms per span name, plus the counts."""
        n = len(self.names)
        duration = [self.ends[i] - self.starts[i] for i in range(n)]
        child_time = [0] * n
        for i in range(n):
            parent = self.parents[i]
            if parent >= 0:
                child_time[parent] += duration[i]
        busy: Counter = Counter()
        own: Counter = Counter()
        for i in range(n):
            name = self.names[i]
            own[name] += duration[i] - child_time[i]
            parent = self.parents[i]
            while parent >= 0 and self.names[parent] != name:
                parent = self.parents[parent]
            if parent < 0:
                busy[name] += duration[i]
        out: dict[str, float] = dict(self.counts)
        for name in set(self.names):
            out[name + ".busy_ms"] = busy[name] / 1e6
            out[name + ".self_ms"] = own[name] / 1e6
        return out


def per_layer_metrics(raw: dict[str, float], layers: list[dict]):
    """The per-layer table of BENCHMARK.json (``layers``, its
    ``per_layer`` list) from aggregated spans and the worker's own
    measurements; layers a workload never touches read 0."""
    values = dict(raw)
    attempts = values.get("classify.equivalence.calls", 0)
    decided = values.get("classify.equivalence.decided", 0)
    values["classify.certified_ratio"] = decided / attempts if attempts else 0.0
    values["cli.command_self_ms"] = values.get("cli.command.self_ms", 0.0)
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
            for m in layers}
