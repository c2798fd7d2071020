"""Spans around the public functions of each program layer.

A layer is one module of the ``wellpoised`` package.  ``Tracer.install``
replaces every public function of each layer (and each classmethod of its
public classes) by a wrapper that records one span per call, in every
module namespace that binds the function: ``okounkov`` calls geometry's
``extreme_points`` through its own import, so that binding is wrapped too.
Spans are kept in flat arrays and written out only when asked.

Per-call aggregates are kept as the spans close: calls, busy time (time
inside at least one span of the layer) and self time (span time minus the
time of its direct child spans).  A few layers also get counts of the work
they were given and produced, taken after the span has closed.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import workloads

LAYERS = ("cli", "polynomial", "geometry", "fan", "okounkov", "linalg", "serialize")

# Calls and busy time of these single functions are reported on their own.
FUNCTIONS = {
    "linalg.fm_eliminate": ("calls",),
    "linalg.nonnegative_solution_exists": ("calls",),
    "geometry.in_convex_hull": ("calls",),
    "fan.lineality_basis": ("calls",),
    "fan.cone": ("calls",),
    "cli.build_parser": ("calls", "busy_s"),
    "polynomial.parse": ("busy_s",),
}

# Work counts added up over a pass; ``yield`` is kept / box.
COUNTS = (
    "linalg.fm_eliminate.ineqs_out",
    "geometry.from_points.points_in",
    "geometry.from_points.vertices_out",
    "okounkov.graded_component.box",
    "okounkov.graded_component.kept",
    "geometry.lattice_points.box",
    "geometry.lattice_points.kept",
    "fan.tropical_variety.cones_out",
    "serialize.dumps.bytes",
)
YIELDS = ("okounkov.graded_component", "geometry.lattice_points")


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced pass reports, with its unit."""
    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.busy_s": "s", f"{layer}.self_s": "s"})
    for name, kinds in FUNCTIONS.items():
        units.update({f"{name}.{k}": ("count" if k == "calls" else "s") for k in kinds})
    units.update({name: ("bytes" if name.endswith("bytes") else "count") for name in COUNTS})
    units.update({f"{name}.yield": "ratio" for name in YIELDS})
    return units


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_request = array("l")
        self.keep_spans = True
        self.request = -1
        self._stack: list[list] = []  # [span index, time of child spans]
        self._depth: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self._box_memo: dict = {}
        self._polytope_vertices = None
        self.reset()

    def reset(self) -> None:
        """Start a new pass: zero the aggregates, keep recorded spans."""
        self.layer_calls: Counter = Counter()
        self.layer_busy: defaultdict = defaultdict(float)
        self.layer_self: defaultdict = defaultdict(float)
        self.fn_calls: Counter = Counter()
        self.fn_busy: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"wellpoised.{layer}") for layer in LAYERS}
        okounkov = modules["okounkov"]
        self._polytope_vertices = okounkov.equality_polytope_vertices
        wrappers: dict[int, object] = {}
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(layer, name, obj)
                elif inspect.isclass(obj):
                    for attr, raw in list(vars(obj).items()):
                        if isinstance(raw, classmethod):
                            wrapped = classmethod(self._wrap(layer, attr, raw.__func__))
                            self._patch(obj, attr, wrapped)
        namespaces = [importlib.import_module("wellpoised"), *modules.values()]
        for namespace in namespaces:
            for name, obj in list(vars(namespace).items()):
                if id(obj) in wrappers:
                    self._patch(namespace, name, wrappers[id(obj)])

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def _wrap(self, layer: str, name: str, func):
        full = f"{layer}.{name}"
        name_id = len(self.names)
        self.names.append(full)
        probe = getattr(self, "_probe_" + full.replace(".", "_"), None)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            return self._call(name_id, full, layer, func, probe, args, kwargs)

        return traced

    # ------------------------------------------------------------ spans

    def _call(self, name_id, full, layer, func, probe, args, kwargs):
        stack = self._stack
        index = -1
        if self.keep_spans:
            index = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_request.append(self.request)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        frame = [index, 0.0]
        stack.append(frame)
        self._depth[layer] += 1
        start = perf_counter()
        try:
            result = func(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self._depth[layer] -= 1
            took = end - start
            if index >= 0:
                self.span_start[index] = start
                self.span_end[index] = end
            self.layer_calls[layer] += 1
            self.layer_self[layer] += took - frame[1]
            if not self._depth[layer]:
                self.layer_busy[layer] += took
            self.fn_calls[full] += 1
            self.fn_busy[full] += took
            if stack:
                stack[-1][1] += took
        if probe is not None:
            probe(args, kwargs, result)
        return result

    # ------------------------------------------------------------ work counts

    def _probe_linalg_fm_eliminate(self, args, kwargs, result):
        self.counts["linalg.fm_eliminate.ineqs_out"] += len(result)

    def _probe_geometry_from_points(self, args, kwargs, result):
        points = args[1] if len(args) > 1 else kwargs.get("points", ())
        self.counts["geometry.from_points.points_in"] += len(points)
        self.counts["geometry.from_points.vertices_out"] += len(result.vertices)

    def _probe_geometry_lattice_points(self, args, kwargs, result):
        vertices = (args[0] if args else kwargs["p"]).vertices
        lows = [min(v[j] for v in vertices) for j in range(len(vertices[0]))]
        highs = [max(v[j] for v in vertices) for j in range(len(vertices[0]))]
        self.counts["geometry.lattice_points.box"] += workloads.box_size(lows, highs)
        self.counts["geometry.lattice_points.kept"] += len(result)

    def _probe_okounkov_graded_component(self, args, kwargs, result):
        constraints = args[0] if args else kwargs["constraints"]
        n = args[1] if len(args) > 1 else kwargs["n"]
        key = (repr(constraints), n)
        if key not in self._box_memo:
            vertices = self._polytope_vertices(constraints, n)
            lows = [max(0, min(v[j] for v in vertices)) for j in range(n)]
            highs = [max(v[j] for v in vertices) for j in range(n)]
            self._box_memo[key] = workloads.box_size(lows, highs) if vertices else 0
        self.counts["okounkov.graded_component.box"] += self._box_memo[key]
        self.counts["okounkov.graded_component.kept"] += len(result)

    def _probe_fan_tropical_variety(self, args, kwargs, result):
        self.counts["fan.tropical_variety.cones_out"] += len(result)

    def _probe_serialize_dumps(self, args, kwargs, result):
        self.counts["serialize.dumps.bytes"] += len(result)

    # ------------------------------------------------------------ results

    def metrics(self) -> dict[str, float]:
        """The aggregates of the pass since the last ``reset``."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.layer_calls[layer]
            out[f"{layer}.busy_s"] = self.layer_busy[layer]
            out[f"{layer}.self_s"] = self.layer_self[layer]
        for name, kinds in FUNCTIONS.items():
            for kind in kinds:
                table = self.fn_calls if kind == "calls" else self.fn_busy
                out[f"{name}.{kind}"] = table[name]
        for name in COUNTS:
            out[name] = self.counts[name]
        for name in YIELDS:
            box = self.counts[f"{name}.box"]
            out[f"{name}.yield"] = self.counts[f"{name}.kept"] / box if box else 0.0
        return out

    def write_spans(self, path) -> int:
        """Write the recorded spans as gzip-compressed JSON lines; returns how many.

        Each line is ``[id, name, start, end, parent id, request index]``;
        a parent of -1 marks a request's root span.
        """
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            for i in range(len(self.span_start)):
                row = [
                    i,
                    self.names[self.span_name[i]],
                    self.span_start[i],
                    self.span_end[i],
                    self.span_parent[i],
                    self.span_request[i],
                ]
                handle.write(json.dumps(row) + "\n")
        return len(self.span_start)
