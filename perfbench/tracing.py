"""Spans and counts at gravatom's module boundaries, for the traced run.

``install`` replaces, in each gravatom module's namespace, every public
function it imported from another gravatom module with a wrapper that records
a span: (name, start, end, parent index).  The name is "<layer>.<function>",
the layer being the module that defines the function.  A few boundaries the
per-layer metrics need are wrapped besides: the numpy and scipy rule builders
hydrogenics imports, distortion's calls to its own oracle, norm and closed
forms, and the verification suites the CLI looks up in ``SUITES``.  Names
missing from the program are skipped, so a metric whose functions are gone
reads zero.  Nothing under src/ is modified on disk.

Spans are kept in memory; the pass writes them out after its batch ends, and
``summarize`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import inspect
import time

LAYERS = ("cli", "config", "distortion", "hydrogenics", "transitions", "rabi", "verification")

#: hydrogenics functions by the part of the layer each measures.
RULES = ("gauss_laguerre_scaled", "gauss_legendre_nodes", "radial_nodes", "gauss_nodes")
RULE_BUILDS = ("leggauss", "eigh_tridiagonal")
BASIS = ("laguerre", "laguerre_increment", "legendre", "radial_wavefunction",
         "spherical_harmonic_m0")
REDUCE = ("fsum_dot",)
#: distortion functions wrapped also where distortion itself calls them.
DISTORTION_INNER = ("overlap_numeric", "distorted_norm_numeric", "closed_form_coefficients")
SERIES = ("series_decomposition", "closed_form_coefficients", "closed_form_decomposition")
SUITES = ("table1", "basis", "identity", "linearity", "claims")


class Tracer:
    """In-memory span recorder with a parent stack (one thread)."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts = {"grid_overlaps": 0, "grid_points": 0, "grid_bytes_max": 0}
        self._stack: list[int] = []

    def wrap(self, fn, name: str, on_call=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def count_grid(self, quad) -> None:
        """Coarse plus fine (doubled) radial x angular points, from the spec."""
        points = quad.radial_node_count * quad.angular_node_count
        self.counts["grid_points"] += 5 * points
        self.counts["grid_bytes_max"] = max(self.counts["grid_bytes_max"], 4 * points * 8)


def _grid_hooks(tracer: Tracer, distortion) -> dict:
    """Argument-reading counters for the two distortion functions that build grids."""

    def spec(fn, args, kwargs, position):
        if len(args) > position:
            return args[position]
        return kwargs.get("quad", inspect.signature(fn).parameters["quad"].default)

    hooks = {}
    overlap = getattr(distortion, "overlap_numeric", None)
    if overlap is not None:
        def on_overlap(target, source, *args, **kwargs):
            if (target.l + source.l) % 2 == 0:  # odd parity returns 0 without a grid
                tracer.counts["grid_overlaps"] += 1
                tracer.count_grid(spec(overlap, (target, source, *args), kwargs, 3))
        hooks["overlap_numeric"] = on_overlap
    norm = getattr(distortion, "distorted_norm_numeric", None)
    if norm is not None:
        hooks["distorted_norm_numeric"] = (
            lambda *args, **kwargs: tracer.count_grid(spec(norm, args, kwargs, 2)))
    return hooks


def install(tracer: Tracer) -> None:
    """Wrap gravatom's cross-module calls (and the few extra boundaries) in spans."""
    modules = {name: importlib.import_module(f"gravatom.{name}") for name in LAYERS}
    hooks = _grid_hooks(tracer, modules["distortion"])
    for caller, module in modules.items():
        for attr, obj in list(vars(module).items()):
            owner = getattr(obj, "__module__", None) or ""
            layer = owner.rpartition(".")[2]
            if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                    or not owner.startswith("gravatom.") or layer == caller
                    or layer not in modules):
                continue
            setattr(module, attr, tracer.wrap(obj, f"{layer}.{attr}", hooks.get(attr)))
    hydrogenics, distortion = modules["hydrogenics"], modules["distortion"]
    for attr in RULE_BUILDS:
        if hasattr(hydrogenics, attr):
            setattr(hydrogenics, attr, tracer.wrap(getattr(hydrogenics, attr),
                                                   f"hydrogenics.{attr}"))
    for attr in DISTORTION_INNER:
        if hasattr(distortion, attr):
            setattr(distortion, attr, tracer.wrap(getattr(distortion, attr),
                                                  f"distortion.{attr}", hooks.get(attr)))
    suites = getattr(modules["verification"], "SUITES", {})
    for name in list(suites):
        suites[name] = tracer.wrap(suites[name], f"verification.{name}")


def summarize(spans: list[list], counts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass (cli.bytes_out is added by the caller)."""
    duration = [end - start for _, start, end, _ in spans]
    covered = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            covered[parent] += duration[i]
    out: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0) + value

    def has_series_ancestor(parent: int) -> bool:
        while parent >= 0:
            if spans[parent][0].partition(".")[2] in SERIES:
                return True
            parent = spans[parent][3]
        return False

    for i, (name, _, _, parent) in enumerate(spans):
        layer, _, func = name.partition(".")
        own = duration[i] - covered[i]
        if layer == "hydrogenics":
            for group, funcs in (("rules", RULES + RULE_BUILDS), ("basis", BASIS),
                                 ("reduce", REDUCE)):
                if func in funcs:
                    add(f"hydrogenics.{group}_s", own)
        else:
            add(f"{layer}.self_s", own)
        if layer in ("transitions", "rabi"):
            add(f"{layer}.calls", 1)
        if layer == "verification":
            add(f"verification.{func}_s", duration[i])
        if name == "cli.main":
            add("cli.commands", 1)
        elif name == "distortion.distorted_norm_numeric":
            add("distortion.norm_s", duration[i])
        elif name == "distortion.overlap_numeric":
            add("distortion.overlaps", 1)
        elif func in SERIES and layer == "distortion" and not has_series_ancestor(parent):
            add("distortion.series_s", duration[i])
        if func in RULES:
            add("hydrogenics.rule_calls", 1)
        elif func in RULE_BUILDS:
            add("hydrogenics.rule_builds", 1)
        elif func in BASIS:
            add("hydrogenics.basis_calls", 1)
        elif func in REDUCE:
            add("hydrogenics.reduce_calls", 1)
    out["distortion.grid_overlaps"] = counts["grid_overlaps"]
    out["distortion.grid_points"] = counts["grid_points"]
    out["distortion.grid_mb"] = counts["grid_bytes_max"] / 1e6
    return out


#: Every per-layer metric with its unit; names the run does not reach read 0.
PER_LAYER_UNITS = {
    "import.gravatom_s": "s", "import.scipy_s": "s", "import.numpy_s": "s",
    "cli.self_s": "s", "cli.bytes_out": "B", "cli.commands": "count",
    "config.self_s": "s",
    "distortion.self_s": "s", "distortion.norm_s": "s", "distortion.overlaps": "count",
    "distortion.grid_overlaps": "count", "distortion.grid_points": "count",
    "distortion.grid_mb": "MB", "distortion.series_s": "s",
    "hydrogenics.rules_s": "s", "hydrogenics.rule_calls": "count",
    "hydrogenics.rule_builds": "count",
    "hydrogenics.basis_s": "s", "hydrogenics.basis_calls": "count",
    "hydrogenics.reduce_s": "s", "hydrogenics.reduce_calls": "count",
    "transitions.self_s": "s", "transitions.calls": "count",
    "rabi.self_s": "s", "rabi.calls": "count",
    **{f"verification.{suite}_s": "s" for suite in SUITES},
    "trace.overhead_s": "s",
}
