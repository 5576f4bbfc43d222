"""Per-layer tracing from outside the package.

`Tracer.install` wraps the public functions of each lf_forge module and
rebinds every name that refers to them in every `lf_forge.*` namespace (and in
module-level dicts such as the CLI's builder table), so calls made through
an imported name are seen too; `uninstall` restores the originals.

Each operation's calls form a tree of spans.  Calls with the same name under
the same parent span are merged into one node that keeps the call count,
the summed duration and the time covered by its children, with the first
start and last end: mirrored comparisons make about 10^5 leaf calls per
operation, which one record per call would not hold in a small memory.  A
node's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import weakref
from time import perf_counter

# layer name -> (module, owner class or None, attribute)
LAYERS = {
    "ribbon.from_json_dict": ("ribbon", "RibbonGraph", "from_json_dict"),
    "ribbon.normalized": ("ribbon", "RibbonGraph", "normalized"),
    "ribbon.smoothed": ("ribbon", "RibbonGraph", "smoothed"),
    "ribbon.invariants": ("ribbon", "RibbonGraph", "invariants"),
    "ribbon.to_json_dict": ("ribbon", "RibbonGraph", "to_json_dict"),
    "curves.cyclically_equal": ("curves", "CurveOnSurface", "cyclically_equal"),
    "curves.check_walk": ("curves", None, "check_walk"),
    "homology.workspace": ("homology", None, "workspace"),
    "homology.gram_matrix": ("homology", "Workspace", "gram_matrix"),
    "homology.basis_cycle": ("homology", "Workspace", "basis_cycle"),
    "homology.curve_class": ("homology", None, "curve_class"),
    "invariants.smith_normal_form": ("invariants", None, "smith_normal_form"),
    "invariants.total_space_homology": ("invariants", None, "total_space_homology"),
    "invariants.monodromy_arc_relations": ("invariants", None, "monodromy_arc_relations"),
    "invariants.open_book_h1": ("invariants", None, "open_book_h1"),
    "divides.standard_divide": ("divides", None, "standard_divide"),
    "divides.checkerboard_coloring": ("divides", None, "checkerboard_coloring"),
    "builders.johns_fibration": ("builders", None, "johns_fibration"),
    "builders.ishikawa_fibration": ("builders", None, "ishikawa_fibration"),
    "builders.realize_plumbing": ("builders", None, "realize_plumbing"),
    "builders.simultaneous_surgery": ("builders", None, "simultaneous_surgery"),
    "builders.divide_fiber_model": ("builders", None, "divide_fiber_model"),
    "equivalence.find_isomorphism": ("equivalence", None, "find_isomorphism"),
    "equivalence.reduced_word": ("equivalence", None, "reduced_word"),
    "equivalence.isomorphism_certificate": ("equivalence", None, "isomorphism_certificate"),
    "certify.fibration_certificate": ("certify", None, "fibration_certificate"),
    "cli.main": ("cli", None, "main"),
}

# Node fields.
NAME, PARENT, OP, CALLS, TOTAL, CHILD, FIRST, LAST = range(8)


class Tracer:
    """Span tree plus the size counts of each operation."""

    def __init__(self):
        self.nodes: list[list] = []
        self._index: dict[tuple, int] = {}
        self._stack: list[int] = []
        self._undo: list = []
        self.op = -1
        self.sizes: dict[int, dict] = {}
        self.cert_times: list[tuple[int, float]] = []
        self.gram_cells = 0
        self.cycle_edges = [0, 0]
        self._sized = weakref.WeakSet()
        self._grams = weakref.WeakSet()

    # -- recording -----------------------------------------------------------

    def _wrap(self, name, fn, probe=None):
        nodes, index, stack = self.nodes, self._index, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            key = (parent, name) if parent >= 0 else (self.op, name)
            idx = index.get(key)
            if idx is None:
                idx = index[key] = len(nodes)
                nodes.append([name, parent, self.op, 0, 0.0, 0.0, None, None])
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                node = nodes[idx]
                node[CALLS] += 1
                node[TOTAL] += t1 - t0
                if node[FIRST] is None:
                    node[FIRST] = t0
                node[LAST] = t1
                if parent >= 0:
                    nodes[parent][CHILD] += t1 - t0
            if probe is not None:
                probe(args, result, t1 - t0)
            return result

        return traced

    def _op_sizes(self) -> dict:
        return self.sizes.setdefault(self.op, {"surfaces": [], "snf": []})

    def _probe_workspace(self, args, ws, dt):
        if ws not in self._sized:
            self._sized.add(ws)
            self._op_sizes()["surfaces"].append(
                [len(ws.norm.vertices), len(ws.norm.edges), len(ws.basis)])

    def _probe_gram(self, args, gram, dt):
        if args[0] not in self._grams:
            self._grams.add(args[0])
            self.gram_cells += len(gram) ** 2

    def _probe_basis_cycle(self, args, cycle, dt):
        self.cycle_edges[0] += len(cycle.walk)
        self.cycle_edges[1] += 1

    def _probe_snf(self, args, result, dt):
        matrix = args[0]
        self._op_sizes()["snf"].append([len(matrix), len(matrix[0]) if matrix else 0])

    def _probe_certificate(self, args, cert, dt):
        self.cert_times.append((args[0].genus, dt))

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        for module, _, _ in LAYERS.values():
            importlib.import_module(f"lf_forge.{module}")
        probes = {
            "homology.workspace": self._probe_workspace,
            "homology.gram_matrix": self._probe_gram,
            "homology.basis_cycle": self._probe_basis_cycle,
            "invariants.smith_normal_form": self._probe_snf,
            "certify.fibration_certificate": self._probe_certificate,
        }
        namespaces = [m for n, m in sys.modules.items()
                      if n == "lf_forge" or n.startswith("lf_forge.")]
        for name, (module, owner, attr) in LAYERS.items():
            mod = sys.modules[f"lf_forge.{module}"]
            probe = probes.get(name)
            if owner is not None:
                cls = getattr(mod, owner)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, probe))
                else:
                    new = self._wrap(name, raw, probe)
                setattr(cls, attr, new)
                self._undo.append((cls, attr, raw))
                continue
            orig = getattr(mod, attr)
            new = self._wrap(name, orig, probe)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        setattr(ns, key, new)
                        self._undo.append((ns, key, orig))
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is orig:
                                value[k] = new
                                self._undo.append((value, k, orig))

    def uninstall(self) -> None:
        for target, key, orig in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = orig
            else:
                setattr(target, key, orig)
        self._undo.clear()

    def dump(self) -> dict:
        return {
            "nodes": self.nodes,
            "sizes": {str(k): v for k, v in self.sizes.items()},
            "cert_times": self.cert_times,
            "gram_cells": self.gram_cells,
            "cycle_edges": self.cycle_edges,
        }


def growth_exponent(points) -> float:
    """Least-squares slope of log(time) against log(genus), genus >= 1."""
    xs = [math.log(g) for g, t in points if g >= 1 and t > 0]
    ys = [math.log(t) for g, t in points if g >= 1 and t > 0]
    if len(set(xs)) < 2:
        return 0.0
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def layer_metrics(trace: dict, op_times: dict[int, float]) -> dict[str, float]:
    """Self time and calls per layer, the counts, and the time of each
    operation that no span covers."""
    self_s: dict[str, float] = {name: 0.0 for name in LAYERS}
    calls: dict[str, int] = {name: 0 for name in LAYERS}
    rooted: dict[int, float] = {}
    for name, parent, op, n, total, child, _, _ in trace["nodes"]:
        self_s[name] += total - child
        calls[name] += n
        if parent < 0:
            rooted[op] = rooted.get(op, 0.0) + total
    snf_cells = [r * c for s in trace["sizes"].values() for r, c in s["snf"]]
    edges, cycles = trace["cycle_edges"]
    out = {f"{name}.self_s": value for name, value in self_s.items()}
    out.update({
        "homology.gram_matrix.cells": trace["gram_cells"],
        "homology.basis_cycle_len": edges / cycles if cycles else 0.0,
        "invariants.smith_normal_form.calls": calls["invariants.smith_normal_form"],
        "invariants.smith_normal_form.cells": sum(snf_cells),
        "curves.cyclically_equal.calls": calls["curves.cyclically_equal"],
        "curves.check_walk.calls": calls["curves.check_walk"],
        "certify.growth_exp": growth_exponent(trace["cert_times"]),
        "trace.unattributed_s": sum(t - rooted.get(op, 0.0) for op, t in op_times.items()),
    })
    return out
